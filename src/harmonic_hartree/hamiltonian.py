"""Harmonic Hartree energy and its vector-field representations.

On the unit sphere the energy reads

    H(v) = 1/2 <v, N v> + 1/2 sum_i |Re<v, a_i v>|^2 - 1/2 sum_i |Re<v, b_i v>|^2

with N the excitation operator.  Three representations of the induced
Hamiltonian vector field are exposed:

* ``FULL``   -- the ambient field, including the (|v|^2 - 1) off-sphere term;
* ``SPHERE`` -- the restriction to the unit sphere (drops that term), which
  is tangent to the sphere and leaves every centered subspace invariant;
* ``CHART``  -- the quotient-chart field obtained by removing the component
  along i*v; it satisfies <v, X(v)> = 0 and vanishes exactly at the
  relative equilibria (unit excitation eigenvectors).

The energy and the three fields are written once, in ``energy_array`` and
``field_array``, on dense coefficient arrays over the cutoff's
:class:`.fock.LadderTable`: one gather gives every ladder image of the
state, and one small matmul combines them.  ``energy`` and
``vector_field`` wrap these for ``FockVector`` states; the integrator
calls ``field_array`` directly.  A ladder image enters only with a scalar
prefactor; when that prefactor is nonzero and the raising loses amplitude
past the cutoff, the field raises TruncationError.
"""

from __future__ import annotations

import math
from enum import Enum

import numpy as np

from . import fock
from .errors import TruncationError
from .fock import DOUBLE_RAISE, LOWER, PAIR_LOWER, RAISE, FockVector, LadderTable


class FieldKind(Enum):
    FULL = "full"
    SPHERE = "sphere"
    CHART = "chart"


def _first_moment(v: FockVector, side: int, i: int) -> float:
    """Re<v, o v> for the lowering o along axis i of side 0 (a) or 1 (b)."""
    fock._check_axis(i, v.cutoff)
    _, proj, _ = _moments(fock.ladder_table(v.cutoff), v.array)
    return float(proj[LOWER, side * v.cutoff.d + i])


def first_moment_a(v: FockVector, i: int) -> float:
    """Re<v, a_i v>, proportional to the q_i position expectation."""
    return _first_moment(v, 0, i)


def first_moment_b(v: FockVector, i: int) -> float:
    """Re<v, b_i v>, proportional to the p_i position expectation."""
    return _first_moment(v, 1, i)


def _moments(table: LadderTable, y: np.ndarray):
    """Ladder images of y, Re<y, op y> for each image, and |y_k|^2."""
    images = table.gather(y)
    yc = y.conj()
    return images, (images @ yc).real, (y * yc).real


def energy_array(table: LadderTable, y: np.ndarray) -> float:
    """Energy of the coefficient array y (unit norm is not checked)."""
    _, proj, weights = _moments(table, y)
    return 0.5 * float(table.n_diag @ weights) + 0.5 * float(table.sign @ proj[LOWER] ** 2)


def field_array(
    kind: FieldKind, table: LadderTable, y: np.ndarray, flux_tol: float = 0.0
) -> np.ndarray:
    """Hamiltonian vector field on the coefficient array y.

    Raises TruncationError when a raising term with nonzero prefactor loses
    amplitude above ``flux_tol`` past the cutoff.
    """
    images, proj, weights = _moments(table, y)
    mean_n = float(table.n_diag @ weights)
    # prefactor of each image: Re<y, a_i y> (a_i + a*_i) - Re<y, b_i y> (b_i + b*_i)
    coef = np.zeros(proj.shape)
    coef[LOWER] = coef[RAISE] = table.sign * proj[LOWER]
    if kind is FieldKind.CHART:
        diag = table.n_diag - (mean_n + 2.0 * float(table.sign @ proj[LOWER] ** 2))
    else:
        # s2 = sum_i Re<y, (b_i b_i - a_i a_i) y> = -sign @ proj[PAIR_LOWER]
        diag = table.n_diag + 0.5 * (mean_n - float(table.sign @ proj[PAIR_LOWER]))
        if kind is FieldKind.FULL:
            # off-sphere term (w/4) (2N + sum_i (bb + b*b* - aa - a*a*)) y
            w = float(weights.sum()) - 1.0
            coef[PAIR_LOWER] = coef[DOUBLE_RAISE] = -0.25 * w * table.sign
            diag = diag + 0.5 * w * table.n_diag
        elif kind is not FieldKind.SPHERE:
            raise ValueError(f"unknown field kind {kind!r}")
    out = diag * y
    if np.count_nonzero(coef):  # zero on centered states, whose images drop out exactly
        lost_sq = (coef[RAISE::2] ** 2 * (table.boundary @ weights)).max()
        if lost_sq > flux_tol**2:
            raise TruncationError(
                f"field lost amplitude {math.sqrt(lost_sq):.3e} past the cutoff; increase K"
            )
        out += coef.ravel() @ images.reshape(coef.size, -1)
    return -1j * out


def energy(v: FockVector) -> float:
    """Energy of a unit state (norm checked to 1e-10); phase invariant."""
    fock.require_unit(v, what="energy state")
    return energy_array(fock.ladder_table(v.cutoff), v.array)


def vector_field(kind: FieldKind, v: FockVector) -> FockVector:
    """Hamiltonian vector field in the requested representation.

    Raises TruncationError when a contributing ladder application (nonzero
    prefactor) crosses the cutoff boundary.
    """
    arr = field_array(kind, fock.ladder_table(v.cutoff), v.array)
    return fock.from_array(v.cutoff, arr, v.truncated)

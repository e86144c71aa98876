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

The energy and the fields are written once, in ``energy_array`` and one
moment core shared by ``field_array`` and ``frame_field``, on dense
coefficient arrays over the cutoff's :class:`.fock.LadderTable`.  The core
gathers the table's 4d + 1 moment rows (N y, the lowering and the
pair-lowering images: the leading rows of its one complex weight block
and one index block) from the state's padded buffer in one step and
takes all the moments, <N> among them, in one matmul with conj(y); it
gathers the raising images only when a first moment is nonzero.  The
core takes the state as a complex (n + 1,) buffer whose last slot is the
table's zero pad, as the integrator keeps its stage points, and reads it
in place (an (n,) array is copied with the pad); ``frame_field`` can
write its result into the caller's array, as the integrator writes each
stage derivative.  The energy reads the leading 2d + 1 moment rows, <N>
and the first moments, for a bounded block of states at a time, so one
call takes a single state or a whole (..., n) stack of them.
``energy`` and ``vector_field`` wrap these for ``FockVector`` states.

``frame_field`` is the sphere field's remainder in the interaction picture
of N, which the integrator steps: every ladder op shifts N by a fixed
amount, so the frame phases enter as scalars e^{i sign theta} on the
moments and on the ladder terms, and no vector is rotated.  A ladder image
enters only with a scalar prefactor; when that prefactor is nonzero and
the raising loses amplitude past the cutoff, the field raises
TruncationError.
"""

from __future__ import annotations

import cmath
import math
from enum import Enum

import numpy as np

from . import fock
from .errors import TruncationError
from .fock import DOUBLE_RAISE, LOWER, RAISE, FockVector, LadderTable


class FieldKind(Enum):
    FULL = "full"
    SPHERE = "sphere"
    CHART = "chart"


def _first_moment(v: FockVector, side: int, i: int) -> float:
    """Re<v, o v> for the lowering o along axis i of side 0 (a) or 1 (b)."""
    fock._check_axis(i, v.cutoff)
    y = v.array
    moment = fock.ladder_table(v.cutoff).gather(y, LOWER) @ y.conj()
    return float(moment[side * v.cutoff.d + i].real)


def first_moment_a(v: FockVector, i: int) -> float:
    """Re<v, a_i v>, proportional to the q_i position expectation."""
    return _first_moment(v, 0, i)


def first_moment_b(v: FockVector, i: int) -> float:
    """Re<v, b_i v>, proportional to the p_i position expectation."""
    return _first_moment(v, 1, i)


def _check_flux(coef: np.ndarray, boundary: np.ndarray, y: np.ndarray,
                flux_tol: float) -> None:
    """Raise when a raising of y with prefactors ``coef`` (one per axis)
    loses amplitude above ``flux_tol`` past the cutoff, or a loss that is
    not finite.  The loss on an axis is |coef| times the root of its
    boundary mass, a product of finite factors, so no inf * 0 makes it NaN."""
    lost_sq = ((coef * np.sqrt(boundary @ (y * y.conj()).real)) ** 2).max()
    if not lost_sq <= flux_tol**2:
        raise TruncationError(
            f"field lost amplitude {math.sqrt(lost_sq):.3e} past the cutoff; increase K"
        )


def _field_core(table: LadderTable, buf: np.ndarray, theta: float, flux_tol: float):
    """What every field shares, on y taken to the frame angle theta.

    ``buf`` is y itself or its complex padded (n + 1,) buffer (see
    ``LadderTable.padded``), which is read in place.  One gather of the
    table's moment rows gives N y and the lowering images of y, and one
    matmul with conj(y) all the moments: <N>, the first and the pair
    moments.  The moments are those of e^{-iN theta} y.  A lowering o_i
    shifts N by sign_i, so <., o_i .> turns by e^{i sign_i theta} and
    <., o_i o_i .> by e^{2i sign_i theta}: scalars on the moments of y
    itself.  Returns

    * y, the (n,) coefficient array (a view of the padded buffer),
    * the gathered rows: N y, then the LOWER and the PAIR_LOWER images,
    * <N> and the sphere field's scalar s = 1/2 (<N> + s2), where
      s2 = sum_i Re<., (b_i b_i - a_i a_i) .>,
    * the first moments Re<., o_i .> and the ladder part
      sum_i lead_i (e^{i sign_i theta} o_i + e^{-i sign_i theta} o*_i) y
      with lead_i = sign_i Re<., o_i .>, both None when every first
      moment is zero (as on centered states); only otherwise are the
      raising images gathered and the truncation flux checked.
    """
    padded = table.padded(buf)
    images = table.moment_weight * padded[table.moment_index]
    y = padded[:-1]
    moment = images @ y.conj()
    mean_n, *moments = moment.tolist()
    mean_n = mean_n.real
    axes = table.sign.size
    lower, pairs = moments[:axes], moments[axes:]
    # s2 from the pair moments summed per side: the a-axes turn by
    # e^{2i theta}, the b-axes by its conjugate
    d = axes // 2
    turn2 = cmath.exp(2j * theta)
    s2 = (turn2.conjugate() * sum(pairs[d:])).real - (turn2 * sum(pairs[:d])).real
    shift = 0.5 * (mean_n + s2)
    if not any(lower):
        return y, images, mean_n, shift, None, None
    turn = np.exp((1j * theta) * table.sign)
    first = (turn * moment[1 : 1 + axes]).real
    lead = table.sign * first
    _check_flux(lead, table.boundary[0], y, flux_tol)
    ladder = ((lead * turn) @ images[1 : 1 + axes]
              + (lead * turn.conj()) @ table.gather(padded, RAISE))
    return y, images, mean_n, shift, first, ladder


# entries of one block of the energy's moment images: a block of stacked
# states is gathered at once, and the buffers stay small whatever the
# stack's size
_ENERGY_BLOCK = 2**15


def energy_array(table: LadderTable, y: np.ndarray):
    """Energy of the coefficient array y, a float, or of each row of an
    (..., n) stack of them, an array (unit norm is not checked).

    <N> and the first moments are the leading 2d + 1 moment rows of the
    table, gathered for a block of the stack at a time into one reused
    image buffer of at most ``_ENERGY_BLOCK`` entries (one state a block
    when a state's rows alone exceed it)."""
    n = table.n_diag.size
    rows = 1 + table.sign.size
    weight, index = table.moment_weight[:rows], table.moment_index[:rows]
    states = np.reshape(y, (-1, n))
    step = max(1, _ENERGY_BLOCK // (rows * n))
    padded = np.zeros((min(step, len(states)), n + 1), dtype=complex)
    image = np.empty((len(padded), rows, n), dtype=complex)
    moments = np.empty((len(states), rows))
    for start in range(0, len(states), step):
        block = states[start : start + step]
        pad, img = padded[: len(block)], image[: len(block)]
        pad[:, :n] = block
        np.take(pad, index, axis=1, out=img, mode="clip")  # every index is in range
        np.multiply(weight, img, out=img)
        moments[start : start + len(block)] = np.vecdot(pad[:, None, :n], img).real
    energy = 0.5 * moments[:, 0] + 0.5 * (moments[:, 1:] ** 2 @ table.sign)
    return float(energy[0]) if y.ndim == 1 else energy.reshape(y.shape[:-1])


def field_array(
    kind: FieldKind, table: LadderTable, y: np.ndarray, flux_tol: float = 0.0
) -> np.ndarray:
    """Hamiltonian vector field on the coefficient array y.

    Raises TruncationError when a raising term with nonzero prefactor loses
    amplitude above ``flux_tol`` past the cutoff.
    """
    # ladder: Re<y, a_i y> (a_i + a*_i) y - Re<y, b_i y> (b_i + b*_i) y
    y, images, mean_n, shift, first, ladder = _field_core(table, y, 0.0, flux_tol)
    if kind is FieldKind.CHART:
        second = 0.0 if first is None else 2.0 * float(table.sign @ first**2)
        diag = table.n_diag - (mean_n + second)
    else:
        diag = table.n_diag + shift
        if kind is FieldKind.FULL:
            # off-sphere term (w/4) (2N + sum_i (bb + b*b* - aa - a*a*)) y
            w = float((y @ y.conj()).real) - 1.0
            diag = diag + 0.5 * w * table.n_diag
            if w:
                coef = -0.25 * w * table.sign
                _check_flux(coef, table.boundary[1], y, flux_tol)
                # the pair-lowering images are the last 2d gathered rows
                pairs = coef @ (images[-coef.size:] + table.gather(y, DOUBLE_RAISE))
                ladder = pairs if ladder is None else ladder + pairs
        elif kind is not FieldKind.SPHERE:
            raise ValueError(f"unknown field kind {kind!r}")
    out = diag * y
    if ladder is not None:
        out += ladder
    return -1j * out


def frame_field(
    table: LadderTable, z: np.ndarray, theta: float, flux_tol: float = 0.0,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """The sphere field's remainder in the interaction picture of N.

    For the sphere field F this is e^{iN theta} (F(y) + iN y) at
    y = e^{-iN theta} z, computed from z alone: -i (s z + the ladder part),
    with s and the ladder part of ``_field_core`` at theta.  z may be a
    complex padded (n + 1,) buffer (see ``LadderTable.padded``); the result
    is (n,), written into the complex (n,) array ``out`` when one is given
    (the same bits as a fresh result).  Raises TruncationError like
    ``field_array``.
    """
    z, _, _, shift, _, ladder = _field_core(table, z, theta, flux_tol)
    out = np.multiply(-1j * shift, z, out=out)
    if ladder is not None:
        out -= 1j * ladder
    return out


def energy(v: FockVector) -> float:
    """Energy of a unit state (norm checked to 1e-10); phase invariant."""
    fock.require_unit(v, what="energy state")
    return energy_array(fock.ladder_table(v.cutoff), v.array)


def vector_field(kind: FieldKind, v: FockVector) -> FockVector:
    """Hamiltonian vector field in the requested representation.

    Raises TruncationError when a contributing ladder application (nonzero
    prefactor) crosses the cutoff boundary, and ValueError when the field
    overflows float64, as its cubic terms can on a state of finite norm.
    """
    try:
        with np.errstate(over="raise", invalid="raise"):
            arr = field_array(kind, fock.ladder_table(v.cutoff), v.array)
    except FloatingPointError as exc:
        raise ValueError(f"the {kind.value} vector field overflows float64 ({exc})") from None
    return fock.from_array(v.cutoff, arr, v.truncated)

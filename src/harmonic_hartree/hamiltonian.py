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
moment core shared by ``vector_field`` and the integrator, on dense
coefficient arrays over the cutoff's :class:`.fock.LadderTable`.  The core
gathers the table's 4d + 1 moment rows (N y, the lowering and the
pair-lowering images: the leading rows of its one complex weight block
and one index block) from the state's (n,) array in place, in one step,
and takes all the moments, <N> among them, in one matmul with conj(y);
it gathers the raising images only when a first moment is nonzero.  The
core, ``frame_kernel``, is bound to a table once: what it reads from the
table is looked up then, and its conj(y) buffer is reused.  Called
without ``parts`` it is the frame field, which the integrator binds once
per call and calls for each stage, writing each stage derivative into
the caller's array.  The energy reads the leading 2d + 1 moment rows, <N>
and the first moments, for the whole stack it is given, so one call takes a
single state or an (..., n) stack of them, which its callers bound.
``energy`` wraps ``energy_array`` for ``FockVector`` states, and
``vector_field`` builds each representation from the core's parts.

The frame field is the sphere field F's remainder in the interaction
picture of N, e^{iN theta} (F(y) + iN y) at y = e^{-iN theta} z, which
the integrator steps.  It is computed from z alone: every ladder op
shifts N by a fixed amount, so the frame phases enter as scalars
e^{i sign theta} on the moments and on the ladder terms, and no vector
is rotated.  A ladder image enters only with a scalar prefactor; when
that prefactor is nonzero and the raising loses amplitude past the
cutoff, the field raises TruncationError.
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
    """Re<v, o v> for the lowering o along axis i of side 0 (a) or 1 (b);
    a state with a non-finite coefficient raises ValueError."""
    fock._check_axis(i, v.cutoff)
    y = fock._finite(v.cutoff, v.array)
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


def frame_kernel(table: LadderTable, flux_tol: float):
    """The one moment core of every field, bound to ``table`` and
    ``flux_tol``.

    What the core reads from the table (the moment rows, the signs, the
    raising rows and the single-raising boundary) is looked up here, once,
    and conj(y) goes into a buffer that every call reuses, so one kernel
    serves one caller at a time: ``vector_field`` and the integrator each
    bind one per call.  The images are gathered fresh, as a gather into a
    bound buffer (``np.take``) took longer at n = 45 than numpy's fancy
    indexing.

    Returns ``core(y, theta, out=None, parts=False)``, which works on y,
    the complex (n,) coefficient array read in place, taken to the frame
    angle theta.  One gather of the table's moment rows gives N y and the
    lowering images of y, and one matmul with conj(y) all the moments:
    <N>, the first and the pair moments.  The moments are those of
    e^{-iN theta} y.  A lowering o_i shifts N by sign_i, so <., o_i .>
    turns by e^{i sign_i theta} and <., o_i o_i .> by e^{2i sign_i theta}:
    scalars on the moments of y itself.

    With ``parts`` the core returns

    * the gathered rows: N y, then the LOWER and the PAIR_LOWER images,
    * <N> and the sphere field's scalar s = 1/2 (<N> + s2), where
      s2 = sum_i Re<., (b_i b_i - a_i a_i) .>,
    * the first moments Re<., o_i .> and the ladder part
      sum_i lead_i (e^{i sign_i theta} o_i + e^{-i sign_i theta} o*_i) y
      with lead_i = sign_i Re<., o_i .>, both None when every first
      moment is zero (as on centered states); only otherwise are the
      raising images gathered and the truncation flux checked.

    Otherwise it returns the frame field -i (s y + the ladder part),
    written into the complex (n,) array ``out`` when one is given.
    """
    weight, index = table.moment_weight, table.moment_index
    sign, boundary = table.sign, table.boundary[0]
    raise_weight, raise_index = table.weight[RAISE], table.index[RAISE]
    d = sign.size // 2
    # the moments: <N>, the 2d first moments, then the d a-pair and the d
    # b-pair moments
    firsts = slice(1, 1 + 2 * d)
    a_pairs, b_pairs = slice(1 + 2 * d, 1 + 3 * d), slice(1 + 3 * d, None)
    conj = np.empty(weight.shape[1], dtype=complex)

    def core(y, theta, out=None, parts=False):
        images = y[index]
        np.multiply(weight, images, out=images)
        moment = images.dot(np.conjugate(y, out=conj))
        m = moment.tolist()
        mean_n = m[0].real
        # s2 from the pair moments summed per side: the a-axes turn by
        # e^{2i theta}, the b-axes by its conjugate
        turn2 = cmath.exp(2j * theta)
        s2 = ((turn2.conjugate() * sum(m[b_pairs])).real
              - (turn2 * sum(m[a_pairs])).real)
        shift = 0.5 * (mean_n + s2)
        first = ladder = None
        if any(m[firsts]):
            turn = np.exp((1j * theta) * sign)
            first = (turn * moment[firsts]).real
            lead = sign * first
            _check_flux(lead, boundary, y, flux_tol)
            ladder = ((lead * turn) @ images[firsts]
                      + (lead * turn.conj()) @ (raise_weight * y[raise_index]))
        if parts:
            return images, mean_n, shift, first, ladder
        out = np.multiply(-1j * shift, y, out=out)
        if ladder is not None:
            out -= 1j * ladder
        return out

    return core


def energy_array(table: LadderTable, y: np.ndarray):
    """Energy of the coefficient array y, a float, or of each row of an
    (..., n) stack of them, an array (unit norm is not checked).

    <N> and the first moments are the leading 2d + 1 moment rows of the
    table, gathered for the whole stack at once into an image (2d + 1)
    times its size, so callers bound the stack: ``energy`` passes one
    state and the integrator one block of samples.  The stack is read as
    a complex C-contiguous array, which copies only a stack of another
    dtype or layout, so a row's bits do not depend on the stack's
    layout."""
    n = table.n_diag.size
    rows = 1 + table.sign.size
    weight, index = table.moment_weight[:rows], table.moment_index[:rows]
    states = np.ascontiguousarray(np.reshape(y, (-1, n)), dtype=complex)
    # every index is in range, so "clip" only skips numpy's bounds check
    image = np.take(states, index, axis=1, mode="clip")
    np.multiply(weight, image, out=image)
    moments = np.vecdot(states[:, None], image).real
    energy = 0.5 * moments[:, 0] + 0.5 * (moments[:, 1:] ** 2 @ table.sign)
    return float(energy[0]) if y.ndim == 1 else energy.reshape(y.shape[:-1])


def energy(v: FockVector) -> float:
    """Energy of a unit state (norm checked to 1e-10); phase invariant."""
    fock.require_unit(v, what="energy state")
    return energy_array(fock.ladder_table(v.cutoff), v.array)


def vector_field(kind: FieldKind, v: FockVector) -> FockVector:
    """Hamiltonian vector field in the requested representation.

    Raises ValueError on a state with a non-finite coefficient, before
    any gather; TruncationError when a contributing ladder application
    (nonzero prefactor) crosses the cutoff boundary; and ValueError when
    the field overflows float64, as its cubic terms can on a state of
    finite norm.
    """
    y = fock._finite(v.cutoff, v.array)
    table = fock.ladder_table(v.cutoff)
    try:
        with np.errstate(over="raise", invalid="raise"):
            # ladder: Re<y, a_i y> (a_i + a*_i) y - Re<y, b_i y> (b_i + b*_i) y
            core = frame_kernel(table, 0.0)
            images, mean_n, shift, first, ladder = core(y, 0.0, parts=True)
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
                        _check_flux(coef, table.boundary[1], y, 0.0)
                        # the pair-lowering images are the last 2d gathered rows
                        pairs = coef @ (images[-coef.size:] + table.gather(y, DOUBLE_RAISE))
                        ladder = pairs if ladder is None else ladder + pairs
                elif kind is not FieldKind.SPHERE:
                    raise ValueError(f"unknown field kind {kind!r}")
            arr = diag * y
            if ladder is not None:
                arr += ladder
            arr = -1j * arr
            # the full field's pair matmul can overflow to nan without
            # raising FloatingPointError
            if not np.isfinite(arr.view(np.float64)).all():
                raise FloatingPointError("non-finite value in the field")
    except FloatingPointError as exc:
        raise ValueError(f"the {kind.value} vector field overflows float64 ({exc})") from None
    # arr is fresh and checked finite: no copy and no second scan
    return fock._vector(v.cutoff, arr, v.truncated)

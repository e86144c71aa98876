"""Truncated bosonic basis over R^d_q x R^d_p and its ladder algebra.

A basis element |a, b> carries two multi-indices: ``a`` counts oscillator
excitations along the q axes, ``b`` along the p axes.  A cutoff K keeps
the basis elements of total degree |a| + |b| <= K, in lexicographic order;
a vector stores its complex coefficients as one dense array in that order.

Conventions used throughout the package:

* ``inner(u, v) = sum_k u_k * conj(v_k)`` -- conjugate-linear in the
  *second* argument.
* lowering   ``a_i |a,b> = sqrt(a_i)   |a - e_i, b>``
* raising    ``a*_i|a,b> = sqrt(a_i+1) |a + e_i, b>``  (same for b)
* excitation number ``N = |b| - |a|``; its eigenspaces organize the
  dynamics and are exactly representable in the truncation.

Raising a term of total degree K would leave the truncated space; the term
is dropped and the result is marked ``truncated``.  All algebra on states
supported at degree <= K - 2 is exact, which is where every identity used
downstream is evaluated.

Positions in the basis order are computed, not looked up.  ``counts``
lists the basis as one (n, 2d) integer array: the count rows with sum <= K
are the gaps between the 2d-subsets of range(K + 2d) (stars and bars), and
``itertools.combinations`` yields those subsets in the same lexicographic
order.  The position (rank) of a count row c is a sum of binomials, the
combinatorial number system (Knuth, TAOCP 4A, 7.2.1.3): with r_j = K minus
the counts before axis j and t_j = 2d - j axes from j on, the rows that
share c's prefix before axis j and hold fewer than c_j at j number
C(r_j + t_j, t_j) - C(r_j - c_j + t_j, t_j).  ``_rank_table`` tabulates
these per cutoff, so ranking m rows is one gather and one row sum.  States
load, and the ladder table is built, through that rank; ``MultiIndex``
objects are built only for labels (``basis``, ``items``).

The algebra is defined once per cutoff, in ``ladder_table``: one block of
gather indices and one of complex weights over the basis order, so every
ladder image of a dense coefficient array comes from one gather.  The
``FockVector`` ops ``apply_*`` are views of that table: each applies one
row of it (or its excitation diagonal) to the vector's stored array.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, combinations
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import BasisMismatchError, NormalizationError

NORM_TOL = 1e-10
# bound on 2d x basis size, the entries per op of the ladder table: the largest
# admitted d=3 table (K=12, n=18564) builds in ~0.4 s on a 2-core Xeon
_MAX_TABLE_ENTRIES = 2**17


@dataclass(frozen=True, order=True)
class MultiIndex:
    """Label (a, b) of a basis element; orders lexicographically by (a, b)."""

    a: tuple[int, ...]
    b: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.a) != len(self.b):
            raise ValueError(f"a and b must have equal length, got {self.a}, {self.b}")
        counts = self.a + self.b
        if not set(map(type, counts)) <= {int}:  # rejects bool, float, str
            raise ValueError(f"excitation counts must be integers, got {self.a}, {self.b}")
        if min(counts, default=0) < 0:
            raise ValueError(f"negative excitation count in {self}")

    @property
    def degree(self) -> int:
        return sum(self.a) + sum(self.b)

    @property
    def excitation(self) -> int:
        """Eigenvalue N = |b| - |a| of the excitation operator."""
        return sum(self.b) - sum(self.a)

    def label(self) -> str:
        return ".".join(map(str, self.a)) + "_" + ".".join(map(str, self.b))


@dataclass(frozen=True)
class Cutoff:
    """Degree truncation: keep |a| + |b| <= k in dimension d."""

    k: int
    d: int

    def __post_init__(self) -> None:
        if not set(map(type, (self.k, self.d))) <= {int}:  # rejects bool, float, str
            raise ValueError(f"cutoff K and d must be integers, got {self.k!r}, {self.d!r}")
        if self.k < 0:
            raise ValueError(f"cutoff degree must be >= 0, got {self.k}")
        if self.d < 1:
            raise ValueError(f"spatial dimension must be >= 1, got {self.d}")
        # size >= K + 1, so math.comb runs only once the first test passed
        axes = 2 * self.d
        if axes * (self.k + 1) > _MAX_TABLE_ENTRIES or axes * self.size > _MAX_TABLE_ENTRIES:
            raise ValueError(f"cutoff K={self.k}, d={self.d} is too large: {axes} axes x "
                             f"C({self.k + axes}, {axes}) basis elements > {_MAX_TABLE_ENTRIES}")

    def contains(self, idx: MultiIndex) -> bool:
        return len(idx.a) == self.d and idx.degree <= self.k

    @property
    def size(self) -> int:
        """Number of basis elements, C(K + 2d, 2d)."""
        return math.comb(self.k + 2 * self.d, 2 * self.d)


@lru_cache(maxsize=None)
def counts(cutoff: Cutoff) -> np.ndarray:
    """The basis as a read-only (n, 2d) array of excitation counts, one row
    (a_0..a_{d-1}, b_0..b_{d-1}) per element, in basis order."""
    axes = 2 * cutoff.d
    subsets = combinations(range(cutoff.k + axes), axes)
    ends = np.fromiter(chain.from_iterable(subsets), dtype=np.int64, count=cutoff.size * axes)
    rows = np.diff(ends.reshape(-1, axes), axis=1, prepend=-1) - 1
    rows.flags.writeable = False  # shared through the cache
    return rows


@lru_cache(maxsize=None)
def basis(cutoff: Cutoff) -> tuple[MultiIndex, ...]:
    """All admissible multi-indices, sorted lexicographically by (a, b).

    The rows of ``counts`` are valid by construction, so the labels are
    made without the checks of ``MultiIndex.__post_init__`` (most of a
    cold build's time at d=3 otherwise)."""
    d = cutoff.d
    cols = counts(cutoff).T.tolist()
    labels = []
    for a, b in zip(zip(*cols[:d]), zip(*cols[d:])):
        idx = object.__new__(MultiIndex)
        idx.__dict__.update(a=a, b=b)  # past frozen, as the dataclass __init__ sets them
        labels.append(idx)
    return tuple(labels)


@lru_cache(maxsize=None)
def _rank_table(cutoff: Cutoff) -> np.ndarray:
    """cum[j, r, c] = C(r + t, t) - C(r - c + t, t) with t = 2d - j for
    c <= r (0 above): the rows ranked before a row that holds c at axis j
    with budget r left there, among the rows sharing its prefix."""
    k, axes = cutoff.k, 2 * cutoff.d
    # binom[t, r] = C(r + t, t) by Pascal's rule; entries stay <= the basis size
    binom = np.ones((axes + 1, k + 1), dtype=np.int64)
    for s in range(1, axes + 1):
        binom[s] = np.cumsum(binom[s - 1])
    t = np.arange(axes, 0, -1)[:, None, None]
    r = np.arange(k + 1)[:, None]
    c = np.arange(k + 1)
    cum = np.where(c <= r, binom[t, r] - binom[t, np.maximum(r - c, 0)], 0)
    cum.flags.writeable = False  # shared through the cache
    return cum


def _rank(cutoff: Cutoff, rows: np.ndarray) -> np.ndarray:
    """Basis positions of the (m, 2d) count rows, each of sum <= K."""
    budget = cutoff.k - (np.cumsum(rows, axis=1) - rows)
    return _rank_table(cutoff)[np.arange(rows.shape[1]), budget, rows].sum(axis=1)


def _count_rows(cutoff: Cutoff, a_rows: Sequence, b_rows: Sequence) -> np.ndarray | None:
    """The (m, 2d) count rows of the terms |a_rows[t], b_rows[t]>, or None
    unless every term is a basis element of the cutoff."""
    d, k = cutoff.d, cutoff.k
    flat = [*chain.from_iterable(a_rows), *chain.from_iterable(b_rows)]
    if not (set(map(len, a_rows)) | set(map(len, b_rows)) <= {d}
            and set(map(type, flat)) <= {int}):  # rejects bool, float, str
        return None
    try:
        values = np.fromiter(flat, dtype=np.int64, count=len(flat))
    except OverflowError:
        return None
    rows = np.concatenate(values.reshape(2, -1, d), axis=1)
    # as uint64 a negative count exceeds K; the row sums run only once every
    # count lies in [0, K], so they cannot wrap
    if values.size and not (values.view(np.uint64).max() <= k and rows.sum(axis=1).max() <= k):
        return None
    return rows


def _positions(cutoff: Cutoff, a_rows: Sequence, b_rows: Sequence) -> np.ndarray:
    """Basis positions of the terms |a_rows[t], b_rows[t]>, ranked as one
    array.  When some term is not a basis element of the cutoff, the first
    one raises the ValueError that ``MultiIndex`` or the cutoff check gives
    it."""
    rows = _count_rows(cutoff, a_rows, b_rows)
    if rows is not None:
        return _rank(cutoff, rows)
    idxs = [MultiIndex(tuple(a), tuple(b)) for a, b in zip(a_rows, b_rows)]
    bad = next(idx for idx in idxs if not cutoff.contains(idx))
    raise ValueError(f"{bad} violates cutoff {cutoff}")


@dataclass(frozen=True, eq=False, init=False)
class FockVector:
    """Complex combination of basis elements under a shared cutoff.

    ``array`` holds the amplitudes in the cutoff's basis order (see
    ``basis``).  It is read-only, so instances are immutable; all
    operations return new vectors.  The constructor takes a mapping
    MultiIndex -> complex amplitude (absent means zero); ``from_array``
    takes a dense array.  Both raise ValueError on a non-finite
    coefficient; the arithmetic does not check its results.
    ``truncated`` records that some upstream raising dropped amplitude
    past the cutoff, so the value is no longer exact.
    """

    cutoff: Cutoff
    array: np.ndarray
    truncated: bool = False

    def __init__(self, cutoff: Cutoff, coeffs: Mapping[MultiIndex, complex] = {},
                 truncated: bool = False) -> None:
        arr = np.zeros(cutoff.size, dtype=complex)
        pos = _positions(cutoff, [idx.a for idx in coeffs], [idx.b for idx in coeffs])
        arr[pos] = list(coeffs.values())
        self._set(cutoff, _finite(cutoff, arr), truncated)

    def _set(self, cutoff: Cutoff, arr: np.ndarray, truncated: bool) -> None:
        arr.flags.writeable = False
        self.__dict__.update(cutoff=cutoff, array=arr, truncated=truncated)  # past frozen

    def items(self) -> list[tuple[MultiIndex, complex]]:
        """Nonzero terms in basis (lexicographic) order."""
        nz = np.flatnonzero(self.array)
        idxs = basis(self.cutoff)
        return [(idxs[j], c) for j, c in zip(nz.tolist(), self.array[nz].tolist())]

    @property
    def coeffs(self) -> dict[MultiIndex, complex]:
        """Nonzero terms as a dict MultiIndex -> complex, in basis order."""
        return dict(self.items())

    @property
    def norm_sq(self) -> float:
        # a sequential sum in basis order, so it rounds alike on every Python
        # (sum() of floats is compensated from 3.12 on)
        re, im = self.array.real, self.array.imag
        with np.errstate(over="ignore"):  # overflows to inf, as Python floats do
            return float(np.cumsum(re * re + im * im)[-1])

    @property
    def norm(self) -> float:
        return math.sqrt(self.norm_sq)

    def max_degree(self) -> int:
        nz = np.flatnonzero(self.array)
        return int(counts(self.cutoff)[nz].sum(axis=1).max(initial=0))

    def __add__(self, other: "FockVector") -> "FockVector":
        _check_compatible(self, other)
        return _vector(self.cutoff, self.array + other.array, self.truncated or other.truncated)

    def __sub__(self, other: "FockVector") -> "FockVector":
        return self + (-1.0) * other

    def __rmul__(self, scalar: complex) -> "FockVector":
        return _vector(self.cutoff, scalar * self.array, self.truncated)

    def normalized(self) -> "FockVector":
        n = self.norm
        if not math.isfinite(n):  # a non-finite coefficient, or overflow
            _finite(self.cutoff, self.array)
            raise NormalizationError("cannot normalize: the squared norm overflows")
        if n == 0.0:
            raise NormalizationError("cannot normalize the zero vector")
        return (1.0 / n) * self


def _finite(cutoff: Cutoff, arr: np.ndarray, what: str = "state",
            error: type[ValueError] = ValueError) -> np.ndarray:
    """``arr``, once every coefficient is checked to be finite: ``error``
    names the first one that is not, after ``what``."""
    # isfinite of the float view of the (fresh, contiguous) complex array
    # took half the time of isfinite of the array itself at n = 18564
    if not np.isfinite(arr.view(np.float64)).all():
        at = int(np.argmin(np.isfinite(arr)))
        raise error(f"{what} has a non-finite coefficient {complex(arr[at])} "
                    f"at |{basis(cutoff)[at].label()}>")
    return arr


def _vector(cutoff: Cutoff, arr: np.ndarray, truncated: bool) -> FockVector:
    """The vector storing ``arr`` itself (made read-only, not copied)."""
    v = FockVector.__new__(FockVector)
    v._set(cutoff, arr, truncated)
    return v


def _check_compatible(u: FockVector, v: FockVector) -> None:
    if u.cutoff != v.cutoff:
        raise BasisMismatchError(f"cutoff mismatch: {u.cutoff} vs {v.cutoff}")


def zero(cutoff: Cutoff) -> FockVector:
    return FockVector(cutoff)


def basis_vector(cutoff: Cutoff, a: Iterable[int], b: Iterable[int]) -> FockVector:
    return FockVector(cutoff, {MultiIndex(tuple(a), tuple(b)): 1.0 + 0j})


def _check_axis(i: int, cutoff: Cutoff) -> None:
    if not 0 <= i < cutoff.d:
        raise ValueError(f"axis {i} out of range for d={cutoff.d}")


def _apply(op: int, side: int, i: int, v: FockVector) -> FockVector:
    """Row op of the cutoff's ladder table along axis i of side 0 (a) or
    1 (b) applied to v; raising flags the result when v has support at
    degree K."""
    _check_axis(i, v.cutoff)
    axis = side * v.cutoff.d + i
    table = ladder_table(v.cutoff)
    y = v.array
    image = table.gather(y, (op, axis))
    dropped = op == RAISE and bool(table.boundary[0, axis][y != 0].any())
    return _vector(v.cutoff, image, v.truncated or dropped)


def apply_lowering_a(i: int, v: FockVector) -> FockVector:
    """a_i |a,b> = sqrt(a_i) |a - e_i, b>; terms with a_i = 0 vanish."""
    return _apply(LOWER, 0, i, v)


def apply_raising_a(i: int, v: FockVector) -> FockVector:
    """a*_i |a,b> = sqrt(a_i + 1) |a + e_i, b>; degree-K terms are dropped
    and flagged."""
    return _apply(RAISE, 0, i, v)


def apply_lowering_b(i: int, v: FockVector) -> FockVector:
    """b_i |a,b> = sqrt(b_i) |a, b - e_i>."""
    return _apply(LOWER, 1, i, v)


def apply_raising_b(i: int, v: FockVector) -> FockVector:
    """b*_i |a,b> = sqrt(b_i + 1) |a, b + e_i>; degree-K terms are dropped
    and flagged."""
    return _apply(RAISE, 1, i, v)


def apply_excitation(v: FockVector) -> FockVector:
    """Diagonal excitation operator: |a,b> -> (|b| - |a|) |a,b>.  Exact."""
    return _vector(v.cutoff, ladder_table(v.cutoff).n_diag * v.array, v.truncated)


def inner(u: FockVector, v: FockVector) -> complex:
    """<u, v> = sum u_k conj(v_k); conjugate-linear in the second slot."""
    _check_compatible(u, v)
    return complex(np.vdot(v.array, u.array))


def excitations(v: FockVector) -> list[int]:
    """The sorted excitations N = |b| - |a| of the support of v."""
    return np.unique(ladder_table(v.cutoff).n_diag[v.array != 0]).astype(int).tolist()


def component_split(v: FockVector) -> dict[int, FockVector]:
    """Split into excitation eigencomponents keyed by N = |b| - |a|.

    The components are pairwise orthogonal and sum to ``v`` exactly.
    """
    keys = excitations(v)
    n_diag = ladder_table(v.cutoff).n_diag
    parts = np.where(n_diag == np.array(keys)[:, None], v.array, 0)  # one row per key
    return {n: _vector(v.cutoff, part, v.truncated) for n, part in zip(keys, parts)}


def _single_excitation(v: FockVector) -> int:
    """Excitation eigenvalue of v; ValueError unless v is an eigenvector."""
    keys = excitations(v)
    if len(keys) != 1:
        raise ValueError(f"state mixes excitation eigenvalues {keys}; need an eigenvector")
    return keys[0]


def require_unit(v: FockVector, tol: float = NORM_TOL, what: str = "state") -> None:
    """Raise NormalizationError unless |v| lies within tol of 1; a state
    with a non-finite coefficient fails, and the error names that cause."""
    if not abs(v.norm - 1.0) <= tol:
        _finite(v.cutoff, v.array, what, NormalizationError)
        raise NormalizationError(f"{what} must be unit, norm={v.norm} (tol {tol})")


def expectation_n(v: FockVector) -> float:
    """<v, N v> for unit v (checked to 1e-10)."""
    require_unit(v)
    return inner(v, apply_excitation(v)).real


def expectation_n2(v: FockVector) -> float:
    """<v, N^2 v> for unit v (checked to 1e-10)."""
    require_unit(v)
    nv = apply_excitation(v)
    return inner(nv, nv).real


# ---------------------------------------------------------------------------
# serialization (JSON schema shared by CLI and test fixtures)

def to_json_dict(v: FockVector) -> dict:
    return {
        "d": v.cutoff.d,
        "K": v.cutoff.k,
        "terms": [
            {"a": list(idx.a), "b": list(idx.b), "re": float(c.real), "im": float(c.imag)}
            for idx, c in v.items()
        ],
    }


def from_json_dict(obj: dict) -> FockVector:
    """The state of a JSON object; the amplitudes of repeated terms add up
    in file order."""
    cutoff = Cutoff(k=obj["K"], d=obj["d"])
    terms = obj["terms"]
    pos = _positions(cutoff, [t["a"] for t in terms], [t["b"] for t in terms])
    re, im = [t["re"] for t in terms], [t["im"] for t in terms]
    if not set(map(type, re + im)) <= {int, float}:  # rejects bool and str
        bad = next(x for x in re + im if type(x) not in (int, float))
        raise TypeError(f"amplitude {bad!r} is not a number")
    amps = np.empty(len(terms), dtype=complex)
    amps.real = list(map(float, re))
    amps.imag = list(map(float, im))
    arr = np.zeros(cutoff.size, dtype=complex)
    np.add.at(arr, pos, amps)  # unbuffered, in term order
    return _vector(cutoff, arr, False)


# ---------------------------------------------------------------------------
# dense bridge and the per-cutoff ladder table

def to_array(v: FockVector) -> np.ndarray:
    """A writable copy of the coefficients, in lexicographic basis order."""
    return v.array.copy()


def from_array(cutoff: Cutoff, arr: np.ndarray, truncated: bool = False) -> FockVector:
    """The vector with a copy of the dense array ``arr`` as coefficients;
    ValueError on a non-finite coefficient."""
    if arr.shape != (cutoff.size,):
        raise BasisMismatchError(f"array length {arr.shape} != basis size {cutoff.size}")
    return _vector(cutoff, _finite(cutoff, arr.astype(complex)), truncated)


# rows of LadderTable.index / .weight: the lowering ops first, so that
# they gather as one slice, then their adjoints in the same order
LOWER, PAIR_LOWER, RAISE, DOUBLE_RAISE = range(4)


@dataclass(frozen=True, eq=False)
class LadderTable:
    """Ladder action of one cutoff as gather arrays over the basis order.

    Axes run over a_0..a_{d-1}, then b_0..b_{d-1}.  For each op (rows
    LOWER, PAIR_LOWER, RAISE, DOUBLE_RAISE: o, o o, o*, o* o*) and axis,
    ``(op y)[k] = weight[op, axis, k] * y[index[op, axis, k]]``; a row k
    with no source reads y[k] itself with weight exactly 0, so every index
    lies in [0, n).  Raising truncates at degree K like
    ``apply_raising_*``; ``boundary[0 | 1, axis, k]`` is the squared
    amplitude that a single | double raising of basis element k loses
    past the cutoff.  The weights (complex) and the indices are each one
    (8d + 1, n) block, row 0 N over the identity index, then the four ops
    per axis: ``weight`` and ``index`` are views of rows 1.., and
    ``moment_weight`` and ``moment_index`` of the leading 4d + 1 rows,
    which gather N y, the LOWER and the PAIR_LOWER images from y in one
    step: the rows whose inner products with y are the moments.  Stored
    complex, the weights multiply complex arrays without casting a float
    operand on every call, to the same bits.
    """

    n_diag: np.ndarray  # (n,) excitation N = |b| - |a|
    sign: np.ndarray  # (2d,) +1 on a axes, -1 on b axes
    index: np.ndarray  # (4, 2d, n)
    weight: np.ndarray  # (4, 2d, n) complex
    boundary: np.ndarray  # (2, 2d, n)
    moment_weight: np.ndarray  # (4d + 1, n) complex: n_diag, then weight[:RAISE]
    moment_index: np.ndarray  # (4d + 1, n) the identity, then index[:RAISE]

    def gather(
        self, y: np.ndarray, ops: int | slice | tuple[int, int] = slice(None)
    ) -> np.ndarray:
        """Images of y under the rows ``ops`` (default all four) along every
        axis: shape (2d, n) for one row, (rows, 2d, n) for a slice, (n,)
        for one (row, axis) pair, read from the (n,) coefficient array y
        in place."""
        return self.weight[ops] * y[self.index[ops]]


@lru_cache(maxsize=None)
def ladder_table(cutoff: Cutoff) -> LadderTable:
    """The cutoff's ladder table, built once from ``counts`` and shared."""
    rows = counts(cutoff)
    n, axes = rows.shape
    d = axes // 2
    degree = rows.sum(axis=1)
    # N over the identity index, then the four ops: the moments are the
    # leading 4d + 1 rows of both blocks.  Every op row starts as the
    # identity too: a row with no source reads its own element, with the
    # weight 0 set below
    flat_index = np.tile(np.arange(n), (1 + 4 * axes, 1))
    index = flat_index[1:].reshape(4, axes, n)
    for low, high, step in ((LOWER, RAISE, 1), (PAIR_LOWER, DOUBLE_RAISE, 2)):
        # row k of the lowering reads basis element k + step e_axis; the
        # raising by the same step is its inverse
        fits = np.flatnonzero(degree + step <= cutoff.k)
        if not fits.size:  # K < step; skips the axis loop where d is large
            continue
        for axis in range(axes):
            shifted = rows[fits]
            shifted[:, axis] += step
            target = _rank(cutoff, shifted)
            index[low, axis, fits] = target
            index[high, axis, target] = fits
    m = rows.T.astype(float)  # (2d, n) counts
    n_diag = m[d:].sum(axis=0) - m[:d].sum(axis=0)
    flat_weight = np.empty((1 + 4 * axes, n), dtype=complex)
    flat_weight[0] = n_diag
    weight = flat_weight[1:].reshape(4, axes, n)
    weight[LOWER] = np.sqrt(m + 1)
    weight[PAIR_LOWER] = np.sqrt(m + 1) * np.sqrt(m + 2)
    weight[RAISE] = np.sqrt(m)
    weight[DOUBLE_RAISE] = np.sqrt(m) * np.sqrt(np.maximum(m - 1, 0))
    weight[index == np.arange(n)] = 0.0  # no op's source is the element itself
    boundary = np.stack([
        np.where(degree == cutoff.k, m + 1, 0.0),
        np.where(degree >= cutoff.k - 1, (m + 1) * (m + 2), 0.0),
    ])
    moments = slice(1 + 2 * axes)
    table = LadderTable(
        n_diag=n_diag,
        sign=np.repeat([1.0, -1.0], d),
        index=index,
        weight=weight,
        boundary=boundary,
        moment_weight=flat_weight[moments],
        moment_index=flat_index[moments],
    )
    for arr in vars(table).values():
        arr.flags.writeable = False  # shared through the cache
    return table

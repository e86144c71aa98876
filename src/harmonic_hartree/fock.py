"""Truncated bosonic basis over R^d_q x R^d_p and its ladder algebra.

A basis element |a, b> carries two multi-indices: ``a`` counts oscillator
excitations along the q axes, ``b`` along the p axes.  Vectors are sparse
complex combinations of basis elements with total degree |a| + |b| <= K.

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

For dense coefficient arrays, ``ladder_table`` holds the same algebra for
one cutoff as gather indices and weights, so every ladder image of an
array comes from one gather.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterable, Iterator

import numpy as np

from .errors import BasisMismatchError, NormalizationError

NORM_TOL = 1e-10


@dataclass(frozen=True, order=True)
class MultiIndex:
    """Label (a, b) of a basis element; orders lexicographically by (a, b)."""

    a: tuple[int, ...]
    b: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.a) != len(self.b):
            raise ValueError(f"a and b must have equal length, got {self.a}, {self.b}")
        if any(n < 0 for n in self.a) or any(n < 0 for n in self.b):
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
        if self.k < 0:
            raise ValueError(f"cutoff degree must be >= 0, got {self.k}")
        if self.d < 1:
            raise ValueError(f"spatial dimension must be >= 1, got {self.d}")

    def contains(self, idx: MultiIndex) -> bool:
        return len(idx.a) == self.d and idx.degree <= self.k

    @property
    def size(self) -> int:
        return len(basis(self))


def _tuples_with_sum_at_most(d: int, s: int) -> Iterator[tuple[int, ...]]:
    if d == 0:
        yield ()
        return
    for first in range(s + 1):
        for rest in _tuples_with_sum_at_most(d - 1, s - first):
            yield (first,) + rest


@lru_cache(maxsize=None)
def basis(cutoff: Cutoff) -> tuple[MultiIndex, ...]:
    """All admissible multi-indices, sorted lexicographically by (a, b)."""
    out = []
    for a in _tuples_with_sum_at_most(cutoff.d, cutoff.k):
        for b in _tuples_with_sum_at_most(cutoff.d, cutoff.k - sum(a)):
            out.append(MultiIndex(a, b))
    return tuple(sorted(out))


@lru_cache(maxsize=None)
def _basis_positions(cutoff: Cutoff) -> dict[MultiIndex, int]:
    return {idx: j for j, idx in enumerate(basis(cutoff))}


@dataclass(frozen=True, eq=False)
class FockVector:
    """Sparse complex combination of basis elements under a shared cutoff.

    ``coeffs`` maps MultiIndex -> complex amplitude; absent means zero.
    Treat instances as immutable; all operations return new vectors.
    ``truncated`` records that some upstream raising dropped amplitude
    past the cutoff, so the value is no longer exact.
    """

    cutoff: Cutoff
    coeffs: dict[MultiIndex, complex] = field(default_factory=dict)
    truncated: bool = False

    def __post_init__(self) -> None:
        for idx in self.coeffs:
            if not self.cutoff.contains(idx):
                raise ValueError(f"{idx} violates cutoff {self.cutoff}")

    def items(self) -> list[tuple[MultiIndex, complex]]:
        """Terms in deterministic (lexicographic) order."""
        return sorted(self.coeffs.items())

    @property
    def norm_sq(self) -> float:
        return sum((c * c.conjugate()).real for _, c in self.items())

    @property
    def norm(self) -> float:
        return math.sqrt(self.norm_sq)

    def max_degree(self) -> int:
        return max((idx.degree for idx in self.coeffs), default=0)

    def __add__(self, other: "FockVector") -> "FockVector":
        _check_compatible(self, other)
        out = dict(self.coeffs)
        for idx, c in other.coeffs.items():
            s = out.get(idx, 0j) + c
            if s == 0:
                out.pop(idx, None)
            else:
                out[idx] = s
        return FockVector(self.cutoff, out, self.truncated or other.truncated)

    def __sub__(self, other: "FockVector") -> "FockVector":
        return self + (-1.0) * other

    def __rmul__(self, scalar: complex) -> "FockVector":
        if scalar == 0:
            return FockVector(self.cutoff, {}, self.truncated)
        return FockVector(
            self.cutoff,
            {idx: scalar * c for idx, c in self.coeffs.items()},
            self.truncated,
        )

    def normalized(self) -> "FockVector":
        n = self.norm
        if n == 0.0:
            raise NormalizationError("cannot normalize the zero vector")
        return (1.0 / n) * self


def _check_compatible(u: FockVector, v: FockVector) -> None:
    if u.cutoff != v.cutoff:
        raise BasisMismatchError(f"cutoff mismatch: {u.cutoff} vs {v.cutoff}")


def zero(cutoff: Cutoff) -> FockVector:
    return FockVector(cutoff, {})


def basis_vector(cutoff: Cutoff, a: Iterable[int], b: Iterable[int]) -> FockVector:
    idx = MultiIndex(tuple(a), tuple(b))
    if not cutoff.contains(idx):
        raise ValueError(f"{idx} violates cutoff {cutoff}")
    return FockVector(cutoff, {idx: 1.0 + 0j})


def _check_axis(i: int, cutoff: Cutoff) -> None:
    if not 0 <= i < cutoff.d:
        raise ValueError(f"axis {i} out of range for d={cutoff.d}")


def _shift(t: tuple[int, ...], i: int, step: int) -> tuple[int, ...]:
    return t[:i] + (t[i] + step,) + t[i + 1 :]


def apply_lowering_a(i: int, v: FockVector) -> FockVector:
    """a_i |a,b> = sqrt(a_i) |a - e_i, b>; terms with a_i = 0 vanish."""
    _check_axis(i, v.cutoff)
    out: dict[MultiIndex, complex] = {}
    for idx, c in v.coeffs.items():
        n = idx.a[i]
        if n == 0:
            continue
        tgt = MultiIndex(_shift(idx.a, i, -1), idx.b)
        out[tgt] = out.get(tgt, 0j) + math.sqrt(n) * c
    return FockVector(v.cutoff, out, v.truncated)


def apply_raising_a(i: int, v: FockVector) -> FockVector:
    """a*_i |a,b> = sqrt(a_i + 1) |a + e_i, b>; degree-K terms are dropped
    and flagged."""
    _check_axis(i, v.cutoff)
    out: dict[MultiIndex, complex] = {}
    dropped = False
    for idx, c in v.coeffs.items():
        if idx.degree >= v.cutoff.k:
            dropped = True
            continue
        tgt = MultiIndex(_shift(idx.a, i, +1), idx.b)
        out[tgt] = out.get(tgt, 0j) + math.sqrt(idx.a[i] + 1) * c
    return FockVector(v.cutoff, out, v.truncated or dropped)


def apply_lowering_b(i: int, v: FockVector) -> FockVector:
    """b_i |a,b> = sqrt(b_i) |a, b - e_i>."""
    _check_axis(i, v.cutoff)
    out: dict[MultiIndex, complex] = {}
    for idx, c in v.coeffs.items():
        n = idx.b[i]
        if n == 0:
            continue
        tgt = MultiIndex(idx.a, _shift(idx.b, i, -1))
        out[tgt] = out.get(tgt, 0j) + math.sqrt(n) * c
    return FockVector(v.cutoff, out, v.truncated)


def apply_raising_b(i: int, v: FockVector) -> FockVector:
    """b*_i |a,b> = sqrt(b_i + 1) |a, b + e_i>; degree-K terms are dropped
    and flagged."""
    _check_axis(i, v.cutoff)
    out: dict[MultiIndex, complex] = {}
    dropped = False
    for idx, c in v.coeffs.items():
        if idx.degree >= v.cutoff.k:
            dropped = True
            continue
        tgt = MultiIndex(idx.a, _shift(idx.b, i, +1))
        out[tgt] = out.get(tgt, 0j) + math.sqrt(idx.b[i] + 1) * c
    return FockVector(v.cutoff, out, v.truncated or dropped)


def apply_excitation(v: FockVector) -> FockVector:
    """Diagonal excitation operator: |a,b> -> (|b| - |a|) |a,b>.  Exact."""
    out = {}
    for idx, c in v.coeffs.items():
        n = idx.excitation
        if n != 0:
            out[idx] = n * c
    return FockVector(v.cutoff, out, v.truncated)


def inner(u: FockVector, v: FockVector) -> complex:
    """<u, v> = sum u_k conj(v_k); conjugate-linear in the second slot."""
    _check_compatible(u, v)
    small, big, flip = (u, v, False) if len(u.coeffs) <= len(v.coeffs) else (v, u, True)
    acc = 0j
    for idx, c in sorted(small.coeffs.items()):
        other = big.coeffs.get(idx)
        if other is None:
            continue
        acc += (c * other.conjugate()) if not flip else (other * c.conjugate())
    return acc


def component_split(v: FockVector) -> dict[int, FockVector]:
    """Split into excitation eigencomponents keyed by N = |b| - |a|.

    The components are pairwise orthogonal and sum to ``v`` exactly.
    """
    groups: dict[int, dict[MultiIndex, complex]] = {}
    for idx, c in v.coeffs.items():
        groups.setdefault(idx.excitation, {})[idx] = c
    return {
        n: FockVector(v.cutoff, terms, v.truncated)
        for n, terms in sorted(groups.items())
    }


def require_unit(v: FockVector, tol: float = NORM_TOL, what: str = "state") -> None:
    """Raise NormalizationError unless |v| lies within tol of 1 (NaN fails)."""
    if not abs(v.norm - 1.0) <= tol:
        raise NormalizationError(f"{what} must be unit, norm={v.norm} (tol {tol})")


def expectation_n(v: FockVector) -> float:
    """<v, N v> for unit v (checked to 1e-10)."""
    require_unit(v)
    return inner(v, apply_excitation(v)).real


def expectation_n2(v: FockVector) -> float:
    """<v, N^2 v> for unit v (checked to 1e-10)."""
    require_unit(v)
    return inner(apply_excitation(v), apply_excitation(v)).real


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
    cutoff = Cutoff(k=int(obj["K"]), d=int(obj["d"]))
    coeffs: dict[MultiIndex, complex] = {}
    for term in obj["terms"]:
        idx = MultiIndex(tuple(term["a"]), tuple(term["b"]))
        if not cutoff.contains(idx):
            raise ValueError(f"term {idx} violates cutoff {cutoff}")
        c = complex(float(term["re"]), float(term["im"]))
        if c != 0:
            coeffs[idx] = coeffs.get(idx, 0j) + c
    return FockVector(cutoff, coeffs)


# ---------------------------------------------------------------------------
# dense bridge and the per-cutoff ladder table

def to_array(v: FockVector) -> np.ndarray:
    """Coefficients as a dense complex array in lexicographic basis order."""
    pos = _basis_positions(v.cutoff)
    arr = np.zeros(len(pos), dtype=complex)
    for idx, c in v.coeffs.items():
        arr[pos[idx]] = c
    return arr


def from_array(cutoff: Cutoff, arr: np.ndarray, truncated: bool = False) -> FockVector:
    idxs = basis(cutoff)
    if arr.shape != (len(idxs),):
        raise BasisMismatchError(f"array length {arr.shape} != basis size {len(idxs)}")
    nz = np.flatnonzero(arr)
    coeffs = dict(zip((idxs[j] for j in nz), arr[nz].astype(complex).tolist()))
    return FockVector(cutoff, coeffs, truncated)


_PAD = np.zeros(1)

# rows of LadderTable.index / .weight
LOWER, RAISE, PAIR_LOWER, DOUBLE_RAISE = range(4)


@dataclass(frozen=True, eq=False)
class LadderTable:
    """Ladder action of one cutoff as gather arrays over the basis order.

    Axes run over a_0..a_{d-1}, then b_0..b_{d-1}.  For each op (rows
    LOWER, RAISE, PAIR_LOWER, DOUBLE_RAISE: o, o*, o o, o* o*) and axis,
    ``(op y)[k] = weight[op, axis, k] * y[index[op, axis, k]]``, where
    index n points at a zero pad slot.  Raising truncates at degree K like
    ``apply_raising_*``; ``boundary[0 | 1, axis, k]`` is the squared
    amplitude that a single | double raising of basis element k loses
    past the cutoff.
    """

    n_diag: np.ndarray  # (n,) excitation N = |b| - |a|
    sign: np.ndarray  # (2d,) +1 on a axes, -1 on b axes
    index: np.ndarray  # (4, 2d, n)
    weight: np.ndarray  # (4, 2d, n)
    boundary: np.ndarray  # (2, 2d, n)

    def gather(self, y: np.ndarray) -> np.ndarray:
        """Images of y under every op along every axis, shape (4, 2d, n)."""
        return self.weight * np.concatenate((y, _PAD))[self.index]


@lru_cache(maxsize=None)
def ladder_table(cutoff: Cutoff) -> LadderTable:
    """The cutoff's ladder table, built once from ``basis`` and shared."""
    idxs = basis(cutoff)
    n, d = len(idxs), cutoff.d
    pos = {idx.a + idx.b: j for j, idx in enumerate(idxs)}
    m = np.array([idx.a + idx.b for idx in idxs], dtype=float).T  # (2d, n) counts
    degree = m.sum(axis=0)
    index = np.array([
        [
            [pos.get(_shift(idx.a + idx.b, axis, step), n) for idx in idxs]
            for axis in range(2 * d)
        ]
        for step in (1, -1, 2, -2)  # row k of each op reads basis element k + step e_axis
    ])
    weight = np.stack([
        np.sqrt(m + 1),
        np.sqrt(m),
        np.sqrt(m + 1) * np.sqrt(m + 2),
        np.sqrt(m) * np.sqrt(np.maximum(m - 1, 0)),
    ])
    weight[index == n] = 0.0
    boundary = np.stack([
        np.where(degree == cutoff.k, m + 1, 0.0),
        np.where(degree >= cutoff.k - 1, (m + 1) * (m + 2), 0.0),
    ])
    table = LadderTable(
        n_diag=m[d:].sum(axis=0) - m[:d].sum(axis=0),
        sign=np.repeat([1.0, -1.0], d),
        index=index,
        weight=weight,
        boundary=boundary,
    )
    for arr in vars(table).values():
        arr.flags.writeable = False  # shared through the cache
    return table

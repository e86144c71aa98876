"""Relative equilibria and the spectrum of the linearized chart field.

A unit excitation eigenvector is a relative equilibrium: every ladder
image of it lies in another excitation slice, so its first and pair
moments vanish and its chart field -i (N_op - <N>) base is zero.  At such
a state (excitation n0) the derivative of the chart field is the
real-linear map

    D(delta) = -i (N_op - n0) delta
               + i sum_i Re<delta, (b*_i + b_i) base> (b*_i + b_i) base
               - i sum_i Re<delta, (a*_i + a_i) base> (a*_i + a_i) base

on the chart tangent {delta : <base, delta> = 0}.  It is only real-linear
(the Re<.,.> pairings break complex linearity), so it acts on real
coordinates: a complex direction e contributes the pair (e, i e).

The spectrum comes from an exact splitting of the chart tangent.  The
ladder images o base, o in {a_i, a*_i, b_i, b*_i}, lie in the excitation
slices n0 - 1 and n0 + 1, so they are orthogonal to the base.  Any
subspace W of those two slices that contains them is invariant under D:
N_op is a scalar on each slice and the finite-rank terms point along the
images.  The orthogonal complement of W (and of the base) in each slice N
is invariant too, and there D is the rotation -i (N - n0), with the exact
eigenvalues +-i (N - n0), each once per complex dimension of that
complement.  Only the block on W is solved numerically.  Its basis is the
orthonormalized images, slice by slice, so its real dimension is at most
8d.

The translation zero modes sit in Jordan 2-blocks, whose eigenvalues a
dense solver resolves only to ~sqrt(machine eps) (Golub & Van Loan,
Matrix Computations, sec. 7.2).  So the integer test does not threshold
eigenvalues: for each candidate integer l it counts the generalized
kernel of M - i l on the block by Kublanovskaya deflation (Kagstrom &
Ruhe, ACM TOMS 6 (1980) 398), and passes when the counts fill the block.

The dense real matrix on the whole chart tangent (``matrix``, in the
orthonormal chart basis ``chart``) is built only on first access.  It is
the independent oracle for the block spectrum and for the
finite-difference derivative.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import fock, hamiltonian
from .fock import LOWER, RAISE, Cutoff, FockVector
from .hamiltonian import FieldKind

# singular values of M - i l up to this, relative to max(1, |M|_F), count
# as kernel in the integer test
INTEGER_TOL = 1e-9


def is_relative_equilibrium(v: FockVector, tol: float) -> bool:
    """True iff the chart field vanishes at the unit state ``v`` within tol >= 0."""
    if not 0.0 <= tol < np.inf:
        raise ValueError(f"tol must be finite and >= 0, got {tol}")
    fock.require_unit(v)
    return hamiltonian.vector_field(FieldKind.CHART, v).norm <= tol


@dataclass(frozen=True)
class LinearizationReport:
    """Linearized chart field at a relative equilibrium.

    ``eigenvalues`` holds all 2 * (basis size - 1) eigenvalues as a
    read-only complex array sorted by (imag, real).  ``block`` is the real
    matrix of the derivative on the invariant block spanned by the ladder
    images of the base.  ``jordan`` maps each integer l in the block
    spectrum to the Weyr characteristic of i l: the nullities of
    successive deflations, whose first entry is the geometric and whose
    sum is the algebraic multiplicity.  When it is set, every eigenvalue
    is an exact imaginary integer; when the block spectrum is not integer
    it is None, and the block part of ``eigenvalues`` holds the block's
    raw eigenvalues.  ``perturbed_subspace_dim`` is the rank, at most 4d,
    of the real conditions Re<delta, o base> = 0, o in {a_i, a*_i, b_i,
    b*_i}.  ``kernel_block_deviation`` bounds the derivative minus the
    diagonal rotation -i (N_op - N) on their joint kernel, and
    ``integer_spectrum_ok`` holds when ``jordan`` is set and that bound is
    at most 1e-12.
    """

    base: FockVector
    excitation: int
    eigenvalues: np.ndarray
    block: np.ndarray
    jordan: dict[int, tuple[int, ...]] | None
    perturbed_subspace_dim: int
    integer_spectrum_ok: bool
    kernel_block_deviation: float

    @cached_property
    def chart(self) -> np.ndarray:
        """Complex orthonormal directions e_j of the chart tangent, as columns."""
        # the kernel of the one row <., base>: a unit base has rank 1
        _, _, vh = np.linalg.svd(self.base.array.conj()[None, :])
        return vh[1:].conj().T

    @cached_property
    def matrix(self) -> np.ndarray:
        """Real form of the derivative on the whole chart tangent in the
        real basis e_0, i e_0, e_1, ... (dimension 2 * (basis size - 1))."""
        table = fock.ladder_table(self.base.cutoff)
        images = table.gather(self.base.array)
        image = _apply_chart_derivative(
            _real_basis_columns(self.chart), table.n_diag, self.excitation, images
        )
        return _interleave(self.chart.conj().T @ image)


def _interleave(g: np.ndarray) -> np.ndarray:
    """Stack complex rows/matrix g into real coordinates (Re, Im) interleaved."""
    out = np.empty((2 * g.shape[0],) + g.shape[1:], dtype=float)
    out[0::2] = g.real
    out[1::2] = g.imag
    return out


def _real_basis_columns(basis: np.ndarray) -> np.ndarray:
    """Real basis of a complex span as complex columns e_0, i e_0, e_1, ..."""
    cols = np.empty((basis.shape[0], 2 * basis.shape[1]), dtype=complex)
    cols[:, 0::2] = basis
    cols[:, 1::2] = 1j * basis
    return cols


def _apply_chart_derivative(
    cols: np.ndarray, n_diag: np.ndarray, exc: int, images: np.ndarray
) -> np.ndarray:
    """Apply the real-linear derivative to each (complex) column, given the
    ladder images of the base state."""
    out = -1j * ((n_diag - exc)[:, None] * cols)
    d = images.shape[1] // 2
    for w in images[LOWER, d:] + images[RAISE, d:]:  # (b_i + b*_i) base
        coeff = (w.conj() @ cols).real  # Re<col, w> per column
        out = out + 1j * np.outer(w, coeff)
    for w in images[LOWER, :d] + images[RAISE, :d]:  # (a_i + a*_i) base
        coeff = (w.conj() @ cols).real
        out = out - 1j * np.outer(w, coeff)
    return out


def _ladder_rows(images: np.ndarray) -> np.ndarray:
    """The 4d images o base, o in {a_i, b_i, a*_i, b*_i}, as rows."""
    return images[[LOWER, RAISE]].reshape(-1, images.shape[-1])


def _image_basis(
    images: np.ndarray, n_diag: np.ndarray, exc: int
) -> tuple[np.ndarray, dict[int, int]]:
    """Orthonormal columns spanning the ladder images of the base, and
    their number per slice.

    Each slice exc -+ 1 gets its own thin SVD over its own rows, so every
    column lies exactly in one slice.
    """
    ladder = _ladder_rows(images)
    parts, ranks = [], {}
    for n in (exc - 1, exc + 1):
        rows = np.flatnonzero(n_diag == n)
        u, s, _ = np.linalg.svd(ladder[:, rows].T, full_matrices=False)
        rank = int(np.sum(s > s.max(initial=0.0) * np.finfo(float).eps * max(u.shape)))
        part = np.zeros((n_diag.size, rank), dtype=complex)
        part[rows] = u[:, :rank]
        parts.append(part)
        ranks[n] = rank
    return np.hstack(parts), ranks


def _weyr(a: np.ndarray, tol: float) -> tuple[int, ...]:
    """Weyr characteristic of the eigenvalue 0 of the square matrix ``a``.

    Kublanovskaya deflation: with V2 the numerical kernel of ``a`` (singular
    values <= tol) and V1 its orthogonal complement, the columns of
    [V1 V2]^H a [V1 V2] on V2 vanish, so the rest of the spectrum is that
    of V1^H a V1.  The kernel dimensions of the successive steps form the
    Weyr characteristic.
    """
    chain = []
    while a.shape[0]:
        _, s, vh = np.linalg.svd(a)
        rank = int(np.sum(s > tol))
        if rank == a.shape[0]:
            break
        chain.append(a.shape[0] - rank)
        keep = vh[:rank].conj().T
        a = keep.conj().T @ a @ keep
    return tuple(chain)


def _integer_jordan(
    block: np.ndarray, raw: list[complex]
) -> dict[int, tuple[int, ...]] | None:
    """Weyr characteristic of each imaginary integer i l near the block's
    raw eigenvalues; None unless their multiplicities fill the block."""
    size = block.shape[0]
    tol = INTEGER_TOL * max(1.0, float(np.linalg.norm(block)))
    jordan = {}
    for ell in sorted({abs(round(z.imag)) for z in raw}):
        chain = _weyr(block - 1j * ell * np.eye(size), tol)
        if chain:  # a real matrix has the same structure at i l and -i l
            jordan.update({-ell: chain, ell: chain})
    if sum(map(sum, jordan.values())) != size:
        return None
    return dict(sorted(jordan.items()))


def linearize(base: FockVector, cutoff: Cutoff | None = None) -> LinearizationReport:
    """Linearize the chart field at ``base``; spectrum and structure checks.

    ``base`` must be a unit excitation eigenvector supported at degree
    <= K - 2, which makes it a relative equilibrium.  An explicit
    ``cutoff`` re-embeds the state before linearizing.

    The structure checks run in ambient real coordinates: the images lie
    in the chart tangent, so the conditions' rank and kernel there are
    those on the chart tangent.  D minus the rotation is sum_j +-i w_j
    Re<., w_j> with w_j = (o_j + o*_j) base, so on the kernel its norm is
    at most sum_j |w_j| |P f_j|, f_j the real coordinates of w_j and P the
    projection off the conditions' span.
    """
    if cutoff is not None and cutoff != base.cutoff:
        base = FockVector(cutoff, base.coeffs)
    exc = fock._single_excitation(base)
    fock.require_unit(base, what="equilibrium")
    if base.max_degree() > base.cutoff.k - 2:
        raise ValueError(
            f"support degree {base.max_degree()} too close to cutoff K={base.cutoff.k}"
        )

    table = fock.ladder_table(base.cutoff)
    images = table.gather(base.array)
    q, ranks = _image_basis(images, table.n_diag, exc)
    image = _apply_chart_derivative(_real_basis_columns(q), table.n_diag, exc, images)
    block = _interleave(q.conj().T @ image)

    raw = spectrum(block)
    jordan = _integer_jordan(block, raw)
    if jordan is None:
        eigs, imag = np.array(raw), []
    else:
        eigs = np.zeros(0, dtype=complex)
        imag = [np.full(sum(chain), float(ell)) for ell, chain in jordan.items()]
    # the complement: +-i (n - exc) once per complex dimension of slice n
    # outside the base and the block
    slices, dims = np.unique(table.n_diag, return_counts=True)
    free = dims - [ranks.get(n, 0) for n in slices] - (slices == exc)
    imag += [np.repeat(slices - exc, free), np.repeat(exc - slices, free)]
    exact = np.zeros(sum(map(len, imag)), dtype=complex)  # real parts +0.0
    exact.imag = np.concatenate(imag)
    eigs = np.concatenate((eigs, exact))
    eigs = eigs[np.lexsort((eigs.real, eigs.imag))]
    eigs.flags.writeable = False

    cond = _interleave(_ladder_rows(images).T)  # conditions as columns
    u, singular, _ = np.linalg.svd(cond, full_matrices=False)
    rank = int(np.sum(singular > 1e-8))
    span = u[:, :rank]
    pairing = images[LOWER] + images[RAISE]
    f = _interleave(pairing.T)
    off = f - span @ (span.T @ f)
    deviation = float(np.linalg.norm(pairing, axis=1) @ np.linalg.norm(off, axis=0))
    return LinearizationReport(
        base=base,
        excitation=exc,
        eigenvalues=eigs,
        block=block,
        jordan=jordan,
        perturbed_subspace_dim=rank,
        integer_spectrum_ok=bool(jordan is not None and deviation <= 1e-12),
        kernel_block_deviation=deviation,
    )


def spectrum(matrix: np.ndarray) -> list[complex]:
    """All eigenvalues of a real square matrix, sorted by (imag, real)."""
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {matrix.shape}")
    vals = np.linalg.eigvals(matrix)
    return sorted((complex(z) for z in vals), key=lambda z: (z.imag, z.real))

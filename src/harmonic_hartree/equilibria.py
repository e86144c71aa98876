"""Relative equilibria and the spectrum of the linearized chart field.

Unit excitation eigenvectors are stationary in the quotient.  At such a
state the derivative of the chart field is the real-linear map

    D(delta) = -i (N_op - N) delta
               + i sum_i Re<delta, (b*_i + b_i) base> (b*_i + b_i) base
               - i sum_i Re<delta, (a*_i + a_i) base> (a*_i + a_i) base

restricted to the chart tangent {delta : <base, delta> = 0}.  The second
and third terms form a finite-rank perturbation; on its kernel (the four
real orthogonality conditions per axis) the map is the diagonal rotation
-i (N_op - N), so the spectrum there consists of imaginary integers.

The map is only real-linear (the Re<.,.> pairings break complex
linearity), so the matrix is assembled in an orthonormal *real* basis of
the chart tangent: each complex direction e_j contributes the pair
(e_j, i e_j), interleaved.  The e_j are the right singular vectors of the
row <base, .> with zero singular value, so they are orthonormal and
orthogonal to the base.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import fock, hamiltonian
from .fock import LOWER, RAISE, Cutoff, FockVector
from .hamiltonian import FieldKind


def is_relative_equilibrium(v: FockVector, tol: float) -> bool:
    """True iff the chart field vanishes at the unit state ``v`` within tol."""
    fock.require_unit(v)
    return hamiltonian.vector_field(FieldKind.CHART, v).norm <= tol


@dataclass(frozen=True)
class LinearizationReport:
    """Linearized chart field at a relative equilibrium.

    ``matrix`` is the real form of the derivative on the chart tangent in
    an orthonormal real basis (real dimension 2 * (basis size - 1));
    ``chart`` holds the complex orthonormal directions e_j defining it.
    Classification fields stay None until ``classify_spectrum`` runs.
    """

    base: FockVector
    excitation: int
    matrix: np.ndarray
    eigenvalues: tuple[complex, ...]
    chart: np.ndarray
    perturbed_subspace_dim: int | None = None
    integer_spectrum_ok: bool | None = None
    kernel_block_deviation: float | None = None


def _null_space(
    a: np.ndarray, rcond: float | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal kernel basis (as columns) of ``a`` and its singular values.

    A right singular vector belongs to the kernel when its singular value is
    at most ``rcond * s.max()``; the default ``rcond`` is eps * max(a.shape).
    """
    _, s, vh = np.linalg.svd(a, full_matrices=True)
    if rcond is None:
        rcond = np.finfo(s.dtype).eps * max(a.shape)
    rank = np.sum(s > np.amax(s, initial=0.0) * rcond, dtype=int)
    return vh[rank:].conj().T, s


def _interleave(g: np.ndarray) -> np.ndarray:
    """Stack complex rows/matrix g into real coordinates (Re, Im) interleaved."""
    out = np.empty((2 * g.shape[0],) + g.shape[1:], dtype=float)
    out[0::2] = g.real
    out[1::2] = g.imag
    return out


def _real_basis_columns(chart: np.ndarray) -> np.ndarray:
    """Real basis of the chart tangent as complex columns e_0, i e_0, e_1, ..."""
    cols = np.empty((chart.shape[0], 2 * chart.shape[1]), dtype=complex)
    cols[:, 0::2] = chart
    cols[:, 1::2] = 1j * chart
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


def linearize(base: FockVector, cutoff: Cutoff | None = None) -> LinearizationReport:
    """Assemble the real linearization matrix and its eigenvalues.

    ``base`` must be a unit excitation eigenvector supported at degree
    <= K - 2 and a relative equilibrium (checked).  An explicit ``cutoff``
    re-embeds the state before linearizing.
    """
    if cutoff is not None and cutoff != base.cutoff:
        base = FockVector(cutoff, dict(base.coeffs))
    exc = fock._single_excitation(base)
    fock.require_unit(base, what="equilibrium")
    if base.max_degree() > base.cutoff.k - 2:
        raise ValueError(
            f"support degree {base.max_degree()} too close to cutoff K={base.cutoff.k}"
        )
    if not is_relative_equilibrium(base, 1e-10):
        raise ValueError("state is not a relative equilibrium")

    table = fock.ladder_table(base.cutoff)
    base_arr = fock.to_array(base)

    # complex orthonormal basis of the chart tangent {delta : <base, delta> = 0}
    chart, _ = _null_space(base_arr.conj()[None, :])
    cols = _real_basis_columns(chart)
    image = _apply_chart_derivative(cols, table.n_diag, exc, table.gather(base_arr))
    matrix = _interleave(chart.conj().T @ image)

    eigs = spectrum(matrix)
    return LinearizationReport(
        base=base,
        excitation=exc,
        matrix=matrix,
        eigenvalues=tuple(eigs),
        chart=chart,
    )


def linearization_matrix(base: FockVector, cutoff: Cutoff | None = None) -> np.ndarray:
    return linearize(base, cutoff).matrix


def spectrum(matrix: np.ndarray) -> list[complex]:
    """All eigenvalues of a real square matrix, sorted by (imag, real)."""
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {matrix.shape}")
    vals = np.linalg.eigvals(matrix)
    return sorted((complex(z) for z in vals), key=lambda z: (z.imag, z.real))


def classify_spectrum(report: LinearizationReport) -> LinearizationReport:
    """Verify the finite-rank perturbation structure of the linearization.

    Checks that (a) on the joint kernel of the real orthogonality
    conditions Re<delta, o base> = 0, o in {a_i, a*_i, b_i, b*_i}, the
    matrix equals the diagonal rotation -i (N_op - N) to 1e-12, and
    (b) the codimension of that kernel is at most 4d.  Also flags whether
    every eigenvalue is an imaginary integer to 1e-9.
    """
    base = report.base
    table = fock.ladder_table(base.cutoff)
    chart = report.chart
    cols = _real_basis_columns(chart)

    diag_image = -1j * ((table.n_diag - report.excitation)[:, None] * cols)
    diag_matrix = _interleave(chart.conj().T @ diag_image)

    images = table.gather(fock.to_array(base))
    d = base.cutoff.d
    rows = []
    for i in range(d):
        for op, axis in ((LOWER, i), (RAISE, i), (LOWER, d + i), (RAISE, d + i)):
            g = chart.conj().T @ images[op, axis]
            rows.append(_interleave(g[:, None])[:, 0])
    cond = np.array(rows)

    kernel, singular = _null_space(cond, rcond=1e-8)
    rank = int(np.sum(singular > 1e-8))
    deviation = (
        float(np.abs((report.matrix - diag_matrix) @ kernel).max())
        if kernel.size
        else 0.0
    )

    # The translation zero modes sit in defective (Jordan) blocks, whose
    # eigenvalues dense solvers resolve only to ~sqrt(machine eps); the
    # integer test therefore runs at 1e-6 while Re stays at 1e-9.
    integer_ok = all(
        abs(z.real) <= 1e-9 and abs(z.imag - round(z.imag)) <= 1e-6
        for z in report.eigenvalues
    )
    return replace(
        report,
        perturbed_subspace_dim=rank,
        integer_spectrum_ok=bool(integer_ok and deviation <= 1e-12),
        kernel_block_deviation=deviation,
    )

"""Transformation chain from Fock coefficients to classical phase-space data.

A d = 1 state is sum_[a,b] c_ab h_a(q) h_b(p) in the orthonormal Hermite
functions.  Pulled back by the self-inverse map tau: (x, xi) ->
((x + xi)/sqrt(2), (x - xi)/sqrt(2)) and sent through the inverse partial
Fourier transform in the velocity (kernel exp(+i v xi) / sqrt(2 pi)), it
becomes an amplitude alpha on (x, v), and f = |alpha|^2 is a classical
density with v-marginal rho.  ``state_to_classical`` evaluates alpha on a
grid exactly, from one (degree + 1)^2 coefficient matrix; nothing is
interpolated or aliased.  ``synthesize_position`` and the velocity
transforms realize single stages on a grid.

``classical_slice`` adds the coefficients of d_t alpha, from the rate of
the state, and so every derivative of a slice is exact: d_x and the factor
x act on Hermite coefficients as tridiagonal matrices, so
``exact_residual`` (the transport residual of f) and the pseudo-momentum
of ``exact_charges`` need one slice and no stencil or FFT.  The stencil
``vlasov_residual`` over a time series of densities and the spectral
``noether_charges`` stay as independent checks of them.

Grids are uniform, symmetric, endpoint-free: x_j = -L + j * (2L/n).  This
makes trapezoid quadrature spectrally accurate for decaying smooth data
(defaults L = 8, n = 256 keep Hermite tails below 1e-13 for degrees <= 8)
and keeps FFT differentiation exact up to aliasing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from . import fock

STAGE_QP = "qp"
STAGE_XXI = "xxi"
STAGE_XV = "xv"


# The entries of one grid-sized array: (max degree + 1) x n^2 in each Hermite
# table of ``synthesize_position``, n^2 in every n x n grid (2^24 are 128 MiB
# of floats); an oversized grid is stopped before allocation.
_MAX_TABLE_ENTRIES = 2**24


@dataclass(frozen=True)
class GridSpec:
    """Uniform n-point grid on [-extent, extent) per axis; n a power of two."""

    n: int
    extent: float

    def __post_init__(self) -> None:
        if self.n < 32 or (self.n & (self.n - 1)) != 0:
            raise ValueError(f"n must be a power of two >= 32, got {self.n}")
        if self.n**2 > _MAX_TABLE_ENTRIES:  # before any axis or grid is allocated
            raise ValueError(
                f"grid too large: {self.n}^2 points exceeds {_MAX_TABLE_ENTRIES} entries"
            )
        if not 0 < self.extent < math.inf:
            raise ValueError(f"extent must be finite and positive, got {self.extent}")
        # a step above one oscillator length cannot resolve even the ground
        # state's Gaussian; the bound also keeps L <= n / 2, so the squares
        # taken on the grid (L^2 in the Hermite Gaussian, L^2 in the
        # Fourier phase v * xi) stay finite on any grid that fits in memory
        if self.step > 1.0:
            raise ValueError(
                f"extent {self.extent} is too coarse for n={self.n}: grid step "
                f"2 L / n = {self.step:g} exceeds the oscillator length 1"
            )

    @property
    def step(self) -> float:
        return 2.0 * self.extent / self.n

    def axis(self) -> np.ndarray:
        return -self.extent + self.step * np.arange(self.n)


@dataclass(frozen=True)
class GridField:
    """Complex values over a square grid; axes named by the stage label.

    values[i, j] is the field at (first coordinate = axis[i], second
    coordinate = axis[j]); stages: "qp", "xxi", "xv".
    """

    spec: GridSpec
    values: np.ndarray
    stage: str

    def __post_init__(self) -> None:
        if self.values.shape != (self.spec.n, self.spec.n):
            raise ValueError(
                f"values shape {self.values.shape} != grid {self.spec.n}^2"
            )
        if not np.all(np.isfinite(self.values)):
            raise ValueError("grid values must be finite")
        if self.stage not in (STAGE_QP, STAGE_XXI, STAGE_XV):
            raise ValueError(f"unknown stage {self.stage!r}")


def trapezoid_2d(values: np.ndarray, spec: GridSpec) -> float | complex:
    """The trapezoid rule along axis 1, then axis 0: the sums of
    ``np.trapezoid`` in its own order, the inner one formed in a single
    (n, n - 1) array."""
    ax = spec.axis()
    inner = np.add(values[:, 1:], values[:, :-1])
    np.multiply(np.diff(ax), inner, out=inner)
    inner /= 2.0
    return np.trapezoid(inner.sum(axis=1), ax, axis=0)


def grid_norm_sq(field: GridField) -> float:
    return float(trapezoid_2d(np.abs(field.values) ** 2, field.spec).real)


# ---------------------------------------------------------------------------
# Hermite functions

def hermite_eval(n: int, x) -> np.ndarray:
    """Orthonormal Hermite function h_n (unit L^2 norm, Gaussian included).

    h_0(x) = pi^(-1/4) exp(-x^2/2) and
    h_{n+1}(x) = (sqrt(2) x h_n(x) - sqrt(n) h_{n-1}(x)) / sqrt(n+1).
    """
    if n < 0:
        raise ValueError(f"degree must be >= 0, got {n}")
    return hermite_table(n, x)[n]


def hermite_table(max_degree: int, x) -> np.ndarray:
    """Rows 0..max_degree of the Hermite functions evaluated at x."""
    x = np.asarray(x, dtype=float)
    table = np.empty((max_degree + 1,) + x.shape)
    table[0] = math.pi ** (-0.25) * np.exp(-0.5 * x * x)
    if max_degree >= 1:
        table[1] = math.sqrt(2.0) * x * table[0]
    for n in range(1, max_degree):
        table[n + 1] = (
            math.sqrt(2.0) * x * table[n] - math.sqrt(n) * table[n - 1]
        ) / math.sqrt(n + 1)
    return table


def synthesize_position(state: fock.FockVector, spec: GridSpec) -> GridField:
    """Realize a d=1 state as sum_[a,b] c_ab h_a(q) h_b(p) on the grid."""
    if state.cutoff.d != 1:
        raise ValueError("grid synthesis supports d = 1 only")
    degree = state.max_degree()
    if (degree + 1) * spec.n**2 > _MAX_TABLE_ENTRIES:
        raise ValueError(
            f"Hermite tables too large: {degree + 1} degrees x {spec.n}^2 grid points "
            f"exceeds {_MAX_TABLE_ENTRIES} entries"
        )
    ax = spec.axis()
    table_q, table_p = hermite_table(degree, ax[:, None]), hermite_table(degree, ax[None, :])
    values = np.zeros((spec.n, spec.n), dtype=complex)
    for idx, c in state.items():
        values += c * (table_q[idx.a[0]] * table_p[idx.b[0]])
    return GridField(spec, values, STAGE_QP)


# ---------------------------------------------------------------------------
# partial Fourier transform in the velocity

@lru_cache(maxsize=None)
def _fourier_kernels(spec: GridSpec) -> tuple[np.ndarray, np.ndarray]:
    ax = spec.axis()
    phase = np.outer(ax, ax)  # v_j * xi_k
    scale = spec.step / math.sqrt(2.0 * math.pi)
    forward = scale * np.exp(-1j * phase)  # (x,v) -> (x,xi):  int dv e^{-i v xi}
    inverse = scale * np.exp(+1j * phase)  # (x,xi) -> (x,v):  int dxi e^{+i v xi}
    return forward, inverse


def velocity_fourier(field: GridField) -> GridField:
    """Forward transform in the second coordinate: alpha(x,v) -> alpha^(x,xi)."""
    if field.stage != STAGE_XV:
        raise ValueError(f"velocity_fourier expects stage 'xv', got {field.stage!r}")
    forward, _ = _fourier_kernels(field.spec)
    return GridField(field.spec, field.values @ forward.T, STAGE_XXI)


def inverse_velocity_fourier(field: GridField) -> GridField:
    """Inverse transform in the second coordinate: alpha^(x,xi) -> alpha(x,v)."""
    if field.stage != STAGE_XXI:
        raise ValueError(
            f"inverse_velocity_fourier expects stage 'xxi', got {field.stage!r}"
        )
    _, inverse = _fourier_kernels(field.spec)
    return GridField(field.spec, field.values @ inverse.T, STAGE_XV)


# ---------------------------------------------------------------------------
# the chain in the Hermite basis

@lru_cache(maxsize=None)
def _rotation_shells(top: int) -> tuple[np.ndarray, ...]:
    """R^s for s = 0..top: the orthogonal (s+1)^2 matrix with
    h_a(q) h_b(p) = sum_j R^s[a, j] h_j(x) h_(s-j)(xi) for a + b = s and
    (q, p) = tau(x, xi).  R^s[a, j] is sqrt(C(s,a) / (C(s,j) 2^s)) times the
    t^j coefficient of P^s_a = (1+t)^a (t-1)^(s-a), exact in Python ints from
    P^s_a = (1+t) P^(s-1)_(a-1) and P^s_0 = (t-1) P^(s-1)_0 until it is scaled.
    Built once per degree and shared, so the shells are read-only."""
    shells = []
    poly = np.ones((1, 1), dtype=object)  # P^0_0 = 1; rows a, columns j
    for s in range(top + 1):
        if s:
            prev, poly = poly, np.zeros((s + 1, s + 1), dtype=object)
            poly[1:, :-1] = prev
            poly[1:, 1:] += prev
            poly[0, 1:] = prev[0]
            poly[0, :-1] -= prev[0]
        binom = np.array([math.comb(s, a) for a in range(s + 1)], dtype=float)
        rotation = poly.astype(float) * np.sqrt(np.ldexp(binom[:, None] / binom[None, :], -s))
        rotation.flags.writeable = False
        shells.append(rotation)
    return tuple(shells)


def _check_slice(*states: fock.FockVector) -> None:
    if any(state.cutoff.d != 1 for state in states):
        raise ValueError("grid synthesis supports d = 1 only")


def _amplitude_coefficients(states, degree: int) -> np.ndarray:
    """D of each d=1 state, stacked as (len(states), degree + 1, degree + 1):
    D_jk = i^k sum_(a+b=j+k) c_ab R^s[a, j].  The rotation shells are built
    once for the whole stack, and each state's shells are rotated as one
    row each."""
    coeffs = np.zeros((len(states), degree + 1, degree + 1), dtype=complex)
    for c, state in zip(coeffs, states):
        nz = np.flatnonzero(state.array)
        ab = fock.counts(state.cutoff)[nz]
        c[ab[:, 0], ab[:, 1]] = state.array[nz]
    # shell s is the antidiagonal j + k = s of c and of D: D replaces c in place
    for s, rotation in enumerate(_rotation_shells(degree)):
        j = np.arange(s + 1)
        for c in coeffs:
            c[j, s - j] = c[j, s - j] @ rotation
    coeffs *= np.array([1, 1j, -1, -1j])[np.arange(degree + 1) % 4]  # i^k, column k
    return coeffs


def state_to_classical(state: fock.FockVector, spec: GridSpec) -> GridField:
    """The (x, v) amplitude of a d=1 state on ``spec``: H(x)^T D H(v) with H
    the Hermite table on the grid axis.  tau keeps each shell a + b = s and
    acts on it by R^s, and the inverse velocity transform takes h_k(xi) to
    i^k h_k(v), so D_jk = i^k sum_(a+b=j+k) c_ab R^s[a, j]."""
    _check_slice(state)
    degree = state.max_degree()
    coeffs = _amplitude_coefficients([state], degree)[0]
    table = hermite_table(degree, spec.axis())
    return GridField(spec, table.T @ coeffs @ table, STAGE_XV)


class ClassicalSlice(NamedTuple):
    """The amplitude of a state c on the grid, with what its exact
    derivatives need.

    ``field`` is alpha = H^T D H, the values of ``state_to_classical(c)``
    bit for bit.  ``coeffs`` is D and ``rate`` is D(c'), the coefficients of
    d_t alpha for the rate c' = dc/dt (c -> D is linear), both padded by
    zeros to m x m, m = degree + 2.  ``table`` is H with the one extra
    degree row that a derivative or a factor x of the amplitude needs.
    """

    field: GridField
    coeffs: np.ndarray
    rate: np.ndarray
    table: np.ndarray


def classical_slice(state: fock.FockVector, rate: fock.FockVector,
                    spec: GridSpec) -> ClassicalSlice:
    """The slice of ``state`` whose time derivative is ``rate`` (for the
    Hamiltonian flow, ``hamiltonian.vector_field(SPHERE, state)``): D and D(rate)
    from one stacked pass over the rotation shells, and one Hermite table."""
    _check_slice(state, rate)
    top = state.max_degree()
    degree = max(top, rate.max_degree())
    stack = _amplitude_coefficients([state, rate], degree)
    m = degree + 2
    padded = np.zeros((2, m, m), dtype=complex)
    padded[:, : m - 1, : m - 1] = stack
    table = hermite_table(degree + 1, spec.axis())
    # the amplitude from the rows of the state's own degree, as
    # state_to_classical forms it
    rows = table[: top + 1]
    field = GridField(spec, rows.T @ stack[0, : top + 1, : top + 1] @ rows, STAGE_XV)
    return ClassicalSlice(field, padded[0], padded[1], table)


@lru_cache(maxsize=None)
def _ladders(m: int) -> tuple[np.ndarray, np.ndarray]:
    """d/dx and the factor x on the coefficients of h_0..h_(m-1):
    h_j' = sqrt(j/2) h_(j-1) - sqrt((j+1)/2) h_(j+1) and
    x h_j = sqrt(j/2) h_(j-1) + sqrt((j+1)/2) h_(j+1), so both are
    tridiagonal, exact on coefficients of degree <= m - 2."""
    up = np.diag(np.sqrt(np.arange(1, m) / 2.0), 1)
    return up - up.T, up + up.T


# ---------------------------------------------------------------------------
# densities and classical-side diagnostics

def density(field: GridField) -> tuple[np.ndarray, np.ndarray]:
    """f = |alpha|^2 on (x, v) and its v-marginal rho (trapezoid rule)."""
    if field.stage != STAGE_XV:
        raise ValueError(f"density expects stage 'xv', got {field.stage!r}")
    f = np.abs(field.values)
    np.square(f, out=f)  # the bits of f ** 2
    rho = np.trapezoid(f, field.spec.axis(), axis=1)
    return f, rho


def vlasov_residual(f_series, dt: float, spec: GridSpec) -> float:
    """Max interior residual of d_t f + v d_x f - (x - xbar) d_v f.

    Central differences: second order in time across consecutive slices,
    fourth order in x and v (the second-order stencil cannot resolve the
    1e-4 scale on the default 256-point grid).  f must be mass-normalized.
    The residual is formed only where it is reported: at the interior
    points, rows and columns 2 .. n - 3, where the five-point stencil needs
    no value past the grid.  Each derivative there combines four slices of
    f shifted by -2, -1, 1 and 2 points, with no copy of the grid, and xbar
    is the trapezoid mean of x over the whole grid.
    """
    f_series = [np.asarray(f, dtype=float) for f in f_series]
    if len(f_series) < 3 or any(f.shape != (spec.n, spec.n) for f in f_series):
        raise ValueError(f"need at least three time slices of shape ({spec.n}, {spec.n})")
    if not 0 < dt < math.inf:
        raise ValueError(f"dt must be finite and positive, got {dt}")
    ax = spec.axis()
    inner = slice(2, -2)
    x = ax[inner, None]
    v = ax[None, inner]
    scale = 12.0 * spec.step

    def d4(g: np.ndarray) -> np.ndarray:
        # fourth-order central first derivative along the first axis, at
        # rows 2..n-3 of g
        return (g[:-4] - 8.0 * g[1:-3] + 8.0 * g[3:-1] - g[4:]) / scale

    worst = 0.0
    for k in range(1, len(f_series) - 1):
        f = f_series[k]
        ft = (f_series[k + 1][inner, inner] - f_series[k - 1][inner, inner]) / (2.0 * dt)
        xbar = float(trapezoid_2d(ax[:, None] * f, spec))
        res = ft + v * d4(f[:, inner]) - (x - xbar) * d4(f[inner].T).T
        worst = max(worst, float(np.abs(res).max()))
    return worst


def noether_charges(field: GridField) -> tuple[float, complex, float]:
    """Conserved pairings of the flow on (x, v): mass |alpha|^2,
    pseudo-momentum <alpha, i d_x alpha>, and momentum <alpha, v alpha>.

    d_x is spectral (FFT over the periodic-style x grid); pairings use
    trapezoid quadrature.
    """
    if field.stage != STAGE_XV:
        raise ValueError(f"noether_charges expects stage 'xv', got {field.stage!r}")
    spec = field.spec
    vals = field.values
    f, rho = density(field)
    wavenumbers = 2.0 * math.pi * np.fft.fftfreq(spec.n, d=spec.step)
    dx_vals = np.fft.ifft(1j * wavenumbers[:, None] * np.fft.fft(vals, axis=0), axis=0)
    # 1j * d_x vals in place.  The conjugate stays a temporary: on large
    # grids numpy multiplies into it with the factors swapped, and the last
    # bit of a complex product depends on their order
    np.multiply(1j, dx_vals, out=dx_vals)
    pseudo = complex(trapezoid_2d(vals * np.conj(dx_vals), spec))
    mass, momentum = _mass_momentum(f, rho, spec)
    return mass, pseudo, momentum


def _mass_momentum(f: np.ndarray, rho: np.ndarray, spec: GridSpec) -> tuple[float, float]:
    """The mass and momentum of the field whose ``density`` is (f, rho): the
    mass is the trapezoid sum of rho, the same sum as trapezoid_2d(f)."""
    ax = spec.axis()
    return float(np.trapezoid(rho, ax)), float(trapezoid_2d(f * ax[None, :], spec).real)


# ---------------------------------------------------------------------------
# exact derivatives of a slice

def exact_charges(sl: ClassicalSlice, f: np.ndarray,
                  rho: np.ndarray) -> tuple[float, complex, float]:
    """``noether_charges`` of the slice whose ``density`` is (f, rho), with
    the pseudo-momentum, the trapezoid sum of alpha conj(i d_x alpha), taken
    with the exact d_x alpha = H^T (P D) H.  The grid is uniform, so that
    sum over its n^2 points is the Gram form sum D o conj(G (i P D) G) with
    G = H diag(w) H^T.  The mass and momentum are those of
    ``noether_charges``, bit for bit."""
    spec = sl.field.spec
    deriv, _ = _ladders(sl.coeffs.shape[0])
    weights = np.full(spec.n, spec.step)  # the trapezoid rule's
    weights[[0, -1]] /= 2.0
    gram = (sl.table * weights) @ sl.table.T
    pseudo = complex(np.sum(sl.coeffs * np.conj(gram @ (1j * (deriv @ sl.coeffs)) @ gram)))
    mass, momentum = _mass_momentum(f, rho, spec)
    return mass, pseudo, momentum


def exact_residual(sl: ClassicalSlice) -> float:
    """Max over the whole grid of |d_t f + v d_x f - (x - xbar) d_v f| for
    f = |alpha|^2, from exact derivatives: the residual is 2 Re(conj(alpha)
    beta) with beta = d_t alpha + v d_x alpha - (x - xbar) d_v alpha.  On
    the coefficients d_x and x are the tridiagonal ``_ladders`` P and X, so
    beta = H^T B H with B = D(c') + P D X^T - (X - xbar) D P^T, and xbar is
    the continuum mean <alpha, x alpha> = sum conj(D) o (X D)."""
    deriv, pos = _ladders(sl.coeffs.shape[0])
    coeffs = sl.coeffs
    xbar = float(np.sum(np.conj(coeffs) * (pos @ coeffs)).real)
    force = (pos - xbar * np.eye(len(pos))) @ coeffs @ deriv.T
    b = sl.rate + deriv @ coeffs @ pos.T - force
    # Re(conj(alpha) beta) = Re alpha Re beta + Im alpha Im beta, each part
    # of beta from real matmuls
    table, alpha = sl.table, sl.field.values
    res = table.T @ np.ascontiguousarray(b.real) @ table
    res *= alpha.real
    part = table.T @ np.ascontiguousarray(b.imag) @ table
    part *= alpha.imag
    res += part
    return 2.0 * float(np.abs(res, out=res).max())

"""Transformation chain from Fock coefficients to classical phase-space data.

For d = 1 a state is realized as a function on (q, p) through the
orthonormal Hermite functions, evaluated exactly at the image of each
(x, xi) grid point under the linear self-inverse map

    tau: (x, xi) -> ((x + xi)/sqrt(2), (x - xi)/sqrt(2)),

and sent through the inverse partial Fourier transform in the velocity
(kernel exp(-i v xi) / sqrt(2 pi)) to an amplitude on (x, v).  Its squared
magnitude is a classical density f whose marginal in v gives rho.  Each
stage is an isometry in the continuum; on the grid the discretization is
spectrally accurate for Gaussian-decaying data (defaults L = 8, n = 256
keep Hermite tails below 1e-13 for degrees <= 8).

Grids are uniform, symmetric, endpoint-free: x_j = -L + j * (2L/n).  This
makes trapezoid quadrature spectrally accurate for decaying smooth data
and keeps FFT differentiation exact up to aliasing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .fock import FockVector

STAGE_QP = "qp"
STAGE_XXI = "xxi"
STAGE_XV = "xv"


@dataclass(frozen=True)
class GridSpec:
    """Uniform n-point grid on [-extent, extent) per axis; n a power of two."""

    n: int
    extent: float

    def __post_init__(self) -> None:
        if self.n < 32 or (self.n & (self.n - 1)) != 0:
            raise ValueError(f"n must be a power of two >= 32, got {self.n}")
        if not 0 < self.extent < math.inf:
            raise ValueError(f"extent must be finite and positive, got {self.extent}")
        # a step above one oscillator length cannot resolve even the ground
        # state's Gaussian; the bound also keeps L <= n / 2, so the squares
        # the chain takes (2 L^2 in the Hermite Gaussian at tau(x, xi), L^2
        # in the Fourier phase v * xi) stay finite on any grid that fits in
        # memory
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
    ax = spec.axis()
    return np.trapezoid(np.trapezoid(values, ax, axis=1), ax, axis=0)


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


# (max degree + 1) x n^2, the entries of each of the two Hermite tables of
# a grid synthesis: 2^24 entries are 128 MiB per table.  This admits degree
# 15 at n = 1024 and stops an oversized grid before it is allocated.
_MAX_TABLE_ENTRIES = 2**24


def _table_degree(state: FockVector, spec: GridSpec) -> int:
    """The highest Hermite degree that synthesizing the d=1 ``state`` on
    ``spec`` needs, once the size of its tables has been checked."""
    if state.cutoff.d != 1:
        raise ValueError("grid synthesis supports d = 1 only")
    degree = state.max_degree()
    if (degree + 1) * spec.n**2 > _MAX_TABLE_ENTRIES:
        raise ValueError(
            f"Hermite tables too large: {degree + 1} degrees x {spec.n}^2 grid points "
            f"exceeds {_MAX_TABLE_ENTRIES} entries"
        )
    return degree


def _hermite_sum(state: FockVector, table_q: np.ndarray, table_p: np.ndarray) -> np.ndarray:
    """sum_[a,b] c_ab h_a(q) h_b(p) for a d=1 state from the Hermite tables
    at q and at p (rows 0 to at least its degree); q and p broadcast."""
    values = np.zeros(np.broadcast_shapes(table_q.shape[1:], table_p.shape[1:]), dtype=complex)
    for idx, c in state.items():
        values += c * (table_q[idx.a[0]] * table_p[idx.b[0]])
    return values


def synthesize_position(state: FockVector, spec: GridSpec) -> GridField:
    """Realize a d=1 state as sum_[a,b] c_ab h_a(q) h_b(p) on the grid."""
    degree = _table_degree(state, spec)
    ax = spec.axis()
    values = _hermite_sum(state, hermite_table(degree, ax[:, None]), hermite_table(degree, ax[None, :]))
    return GridField(spec, values, STAGE_QP)


# ---------------------------------------------------------------------------
# partial Fourier transform in the velocity and the full chain

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


def rotated_tables(state: FockVector, spec: GridSpec) -> tuple[np.ndarray, np.ndarray]:
    """The Hermite tables at the two coordinates of tau(x, xi) on ``spec``,
    rows 0 to the degree of the d=1 ``state``.  They depend on the state's
    degree alone, so the states of one orbit share them."""
    degree = _table_degree(state, spec)
    ax = spec.axis() / math.sqrt(2.0)
    return (hermite_table(degree, ax[:, None] + ax[None, :]),
            hermite_table(degree, ax[:, None] - ax[None, :]))


def state_to_classical(
    state: FockVector, spec: GridSpec, tables: tuple[np.ndarray, np.ndarray] | None = None
) -> GridField:
    """Full chain state -> (x,xi) -> (x,v) amplitude, the (x,xi) stage being
    the Hermite sum evaluated exactly at tau(x, xi) on ``spec``.  ``tables``
    are ``rotated_tables`` of a state of at least this state's degree on
    ``spec``; without them they are built here."""
    if tables is None:
        tables = rotated_tables(state, spec)
    elif _table_degree(state, spec) >= len(tables[0]):
        raise ValueError(
            f"Hermite tables of {len(tables[0])} rows cannot synthesize degree "
            f"{state.max_degree()}"
        )
    rotated = _hermite_sum(state, *tables)
    return inverse_velocity_fourier(GridField(spec, rotated, STAGE_XXI))


# ---------------------------------------------------------------------------
# densities and classical-side diagnostics

def density(field: GridField) -> tuple[np.ndarray, np.ndarray]:
    """f = |alpha|^2 on (x, v) and its v-marginal rho (trapezoid rule)."""
    if field.stage != STAGE_XV:
        raise ValueError(f"density expects stage 'xv', got {field.stage!r}")
    f = np.abs(field.values) ** 2
    rho = np.trapezoid(f, field.spec.axis(), axis=1)
    return f, rho


def vlasov_residual(f_series, dt: float, spec: GridSpec) -> float:
    """Max interior residual of d_t f + v d_x f - (x - xbar) d_v f.

    Central differences: second order in time across consecutive slices,
    fourth order in x and v (the second-order stencil cannot resolve the
    1e-4 scale on the default 256-point grid).  f must be mass-normalized.
    """
    f_series = np.asarray(f_series, dtype=float)
    if f_series.ndim != 3 or f_series.shape[0] < 3:
        raise ValueError("need at least three time slices")
    if not 0 < dt < math.inf:
        raise ValueError(f"dt must be finite and positive, got {dt}")
    ax = spec.axis()
    h = spec.step
    x = ax[:, None]
    v = ax[None, :]

    def d4(g: np.ndarray, axis: int) -> np.ndarray:
        # fourth-order central first derivative, valid 2 points from the edge
        gm2 = np.roll(g, 2, axis=axis)
        gm1 = np.roll(g, 1, axis=axis)
        gp1 = np.roll(g, -1, axis=axis)
        gp2 = np.roll(g, -2, axis=axis)
        return (gm2 - 8.0 * gm1 + 8.0 * gp1 - gp2) / (12.0 * h)

    worst = 0.0
    for k in range(1, f_series.shape[0] - 1):
        f = f_series[k]
        ft = (f_series[k + 1] - f_series[k - 1]) / (2.0 * dt)
        xbar = float(trapezoid_2d(x * f, spec))
        res = ft + v * d4(f, axis=0) - (x - xbar) * d4(f, axis=1)
        worst = max(worst, float(np.abs(res[2:-2, 2:-2]).max()))
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
    ax = spec.axis()
    mass = float(trapezoid_2d(np.abs(vals) ** 2, spec).real)
    wavenumbers = 2.0 * math.pi * np.fft.fftfreq(spec.n, d=spec.step)
    dx_vals = np.fft.ifft(1j * wavenumbers[:, None] * np.fft.fft(vals, axis=0), axis=0)
    pseudo = complex(trapezoid_2d(vals * np.conj(1j * dx_vals), spec))
    momentum = float(trapezoid_2d(np.abs(vals) ** 2 * ax[None, :], spec).real)
    return mass, pseudo, momentum

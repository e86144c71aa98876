"""Shared helpers for the test suite.

The brute-force operator matrices below are built directly from the
combinatorial matrix elements (sqrt factors and index shifts), independent
of the package's sparse ladder implementation, so they can serve as
oracles for it.  Likewise the grid references at the end interpolate grid
data with splines (``tau_pullback``, ``rotating_oracle``) or evaluate the
Hermite sum at the rotated points and apply the dense velocity DFT
(``tau_dft_chain``), independent of the package's coefficient transform of
the classical chain.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np
from scipy.interpolate import RectBivariateSpline
from scipy.optimize import minimize_scalar

from harmonic_hartree import fock
from harmonic_hartree.fock import Cutoff, FockVector
from harmonic_hartree.pipeline import (
    STAGE_QP,
    STAGE_XV,
    STAGE_XXI,
    GridField,
    GridSpec,
    hermite_table,
    inverse_velocity_fourier,
    trapezoid_2d,
)


def random_state(cut: Cutoff, rng, max_degree: int | None = None) -> FockVector:
    """Random unit vector, optionally restricted to degree <= max_degree."""
    idxs = [
        i for i in fock.basis(cut) if max_degree is None or i.degree <= max_degree
    ]
    arr = rng.normal(size=len(idxs)) + 1j * rng.normal(size=len(idxs))
    v = FockVector(cut, {i: complex(a) for i, a in zip(idxs, arr)})
    return v.normalized()


def random_component(cut: Cutoff, n: int, rng, margin: int = 2) -> FockVector:
    """Random (unnormalized) vector inside a single excitation eigenspace."""
    idxs = [
        i
        for i in fock.basis(cut)
        if i.excitation == n and i.degree <= cut.k - margin
    ]
    if not idxs:
        raise ValueError(f"excitation {n} empty at cutoff {cut} with margin {margin}")
    arr = rng.normal(size=len(idxs)) + 1j * rng.normal(size=len(idxs))
    return FockVector(cut, {i: complex(a) for i, a in zip(idxs, arr)})


def random_centered_state(cut: Cutoff, indices, rng) -> FockVector:
    """Random unit state with components at the given excitation indices.

    The indices must have pairwise gaps != 1 so the span is centered by the
    gap criterion.
    """
    assert all(abs(a - b) != 1 for a in indices for b in indices if a != b)
    out = None
    for n in indices:
        part = random_component(cut, n, rng)
        out = part if out is None else out + part
    return out.normalized()


def aligned_distance(u: np.ndarray, v: np.ndarray) -> float:
    """Phase-free distance between unit coefficient arrays."""
    ip = np.vdot(v, u)
    mag = abs(ip)
    phase = ip / mag if mag > 0 else 1.0
    return float(np.linalg.norm(u - phase * v))


def measure_closure_time(traj, y0: np.ndarray, t_min: float = 0.2) -> float:
    """First time the projected trajectory returns to its start.

    Scans the dense output for the first local minimum of the phase-free
    distance below 0.05 and refines it with a bounded scalar minimizer.
    """

    def dist(t: float) -> float:
        arr = fock.to_array(traj.interpolate(float(t)))
        return aligned_distance(arr / np.linalg.norm(arr), y0)

    step = 2e-3
    ts = np.arange(t_min, float(traj.times[-1]), step)
    ds = np.array([dist(t) for t in ts])
    hit = None
    for i in range(1, len(ds) - 1):
        if ds[i] < 0.05 and ds[i] <= ds[i - 1] and ds[i] <= ds[i + 1]:
            hit = i
            break
    if hit is None:
        raise AssertionError("trajectory never returned to its start")
    res = minimize_scalar(
        dist,
        bounds=(ts[hit - 2], ts[hit + 2]),
        method="bounded",
        options={"xatol": 1e-10},
    )
    return float(res.x)


# ---------------------------------------------------------------------------
# brute-force dense operators (independent oracle)

def brute_matrix(cut: Cutoff, kind: str, axis: int) -> np.ndarray:
    """Dense ladder matrix from explicit matrix elements.

    kind: 'lower_a' | 'raise_a' | 'lower_b' | 'raise_b'.  Raising amplitudes
    that would exceed the degree cutoff are dropped, mirroring the
    truncation convention.
    """
    idxs = fock.basis(cut)
    pos = {idx: j for j, idx in enumerate(idxs)}
    mat = np.zeros((len(idxs), len(idxs)), dtype=complex)
    for j, idx in enumerate(idxs):
        a, b = list(idx.a), list(idx.b)
        if kind == "lower_a" and a[axis] > 0:
            tgt = fock.MultiIndex(tuple(a[:axis] + [a[axis] - 1] + a[axis + 1:]), idx.b)
            mat[pos[tgt], j] = math.sqrt(a[axis])
        elif kind == "raise_a" and idx.degree < cut.k:
            tgt = fock.MultiIndex(tuple(a[:axis] + [a[axis] + 1] + a[axis + 1:]), idx.b)
            mat[pos[tgt], j] = math.sqrt(a[axis] + 1)
        elif kind == "lower_b" and b[axis] > 0:
            tgt = fock.MultiIndex(idx.a, tuple(b[:axis] + [b[axis] - 1] + b[axis + 1:]))
            mat[pos[tgt], j] = math.sqrt(b[axis])
        elif kind == "raise_b" and idx.degree < cut.k:
            tgt = fock.MultiIndex(idx.a, tuple(b[:axis] + [b[axis] + 1] + b[axis + 1:]))
            mat[pos[tgt], j] = math.sqrt(b[axis] + 1)
    return mat


def brute_excitation(cut: Cutoff) -> np.ndarray:
    return np.diag([float(idx.excitation) for idx in fock.basis(cut)])


def cinner(u: np.ndarray, v: np.ndarray) -> complex:
    """<u, v> = sum u conj(v) on dense arrays."""
    return complex(np.vdot(v, u))


@lru_cache(maxsize=None)
def _brute_ops(cut: Cutoff):
    return brute_excitation(cut), [
        tuple(brute_matrix(cut, kind, i) for kind in ("lower_a", "raise_a", "lower_b", "raise_b"))
        for i in range(cut.d)
    ]


def brute_field(kind: str, cut: Cutoff, y: np.ndarray) -> np.ndarray:
    """Vector field ('full' | 'sphere' | 'chart') from the brute-force matrices."""
    nm, ops = _brute_ops(cut)
    mean = cinner(y, nm @ y).real
    out = nm @ y
    if kind == "chart":
        out = out - mean * y
        for la, ra, lb, rb in ops:
            cb, ca = cinner(y, lb @ y).real, cinner(y, la @ y).real
            out = out - cb * ((lb + rb) @ y) + 2.0 * cb * cb * y
            out = out + ca * ((la + ra) @ y) - 2.0 * ca * ca * y
        return -1j * out
    s2 = sum(cinner(y, (rb @ rb - la @ la) @ y).real for la, ra, lb, rb in ops)
    out = out + 0.5 * (mean + s2) * y
    for la, ra, lb, rb in ops:
        cb, ca = cinner(y, lb @ y).real, cinner(y, la @ y).real
        out = out - cb * ((lb + rb) @ y) + ca * ((la + ra) @ y)
    if kind == "full":
        corr = 2.0 * (nm @ y)
        for la, ra, lb, rb in ops:
            corr = corr + (lb @ lb + rb @ rb - la @ la - ra @ ra) @ y
        out = out + 0.25 * (float(np.vdot(y, y).real) - 1.0) * corr
    return -1j * out


# ---------------------------------------------------------------------------
# grid references for the classical chain (bicubic resampling, tau + DFT)

def _resample(field: GridField, first: np.ndarray, second: np.ndarray) -> np.ndarray:
    """Bicubic values of ``field`` at mapped points; 0 outside the grid."""
    ax = field.spec.axis()
    sp_re = RectBivariateSpline(ax, ax, field.values.real, kx=3, ky=3)
    sp_im = RectBivariateSpline(ax, ax, field.values.imag, kx=3, ky=3)
    inside = (
        (np.abs(first) <= field.spec.extent)
        & (np.abs(second) <= field.spec.extent)
    )
    flat_f, flat_s = first.ravel(), second.ravel()
    vals = sp_re.ev(flat_f, flat_s) + 1j * sp_im.ev(flat_f, flat_s)
    vals = vals.reshape(first.shape)
    vals[~inside] = 0.0
    return vals


def tau_pullback(field: GridField, target: GridSpec | None = None) -> GridField:
    """Compose with tau: out(x, xi) = in((x + xi)/sqrt(2), (x - xi)/sqrt(2)).

    Bicubic interpolation on the source grid; synthesize the source on a
    finer grid (same extent) when the 45-degree resampling error matters.
    """
    if field.stage != STAGE_QP:
        raise ValueError(f"tau_pullback expects stage 'qp', got {field.stage!r}")
    spec = target if target is not None else field.spec
    ax = spec.axis()
    x, xi = np.meshgrid(ax, ax, indexing="ij")
    inv = 1.0 / math.sqrt(2.0)
    return GridField(
        spec=spec,
        values=_resample(field, (x + xi) * inv, (x - xi) * inv),
        stage=STAGE_XXI,
    )


def tau_dft_chain(state: FockVector, spec: GridSpec) -> GridField:
    """The (x, v) amplitude of a d=1 state by the grid route: the Hermite
    sum evaluated at the points tau(x, xi) of ``spec``, then the dense
    inverse velocity DFT."""
    ax = spec.axis() / math.sqrt(2.0)
    degree = state.max_degree()
    table_q = hermite_table(degree, ax[:, None] + ax[None, :])
    table_p = hermite_table(degree, ax[:, None] - ax[None, :])
    values = np.zeros((spec.n, spec.n), dtype=complex)
    for idx, c in state.items():
        values += c * (table_q[idx.a[0]] * table_p[idx.b[0]])
    return inverse_velocity_fourier(GridField(spec, values, STAGE_XXI))


def rotating_oracle(f0: np.ndarray, t: float, spec: GridSpec) -> np.ndarray:
    """Rigid phase-space rotation f(t, x, v) = f0(x cos t - v sin t,
    x sin t + v cos t), resampled bicubically; requires a centered profile
    (zero mean in x and v within 1e-8)."""
    f0 = np.asarray(f0, dtype=float)
    field = GridField(spec, f0.astype(complex), STAGE_XV)
    ax = spec.axis()
    mass = float(trapezoid_2d(f0, spec))
    mean_x = float(trapezoid_2d(ax[:, None] * f0, spec))
    mean_v = float(trapezoid_2d(ax[None, :] * f0, spec))
    bound = 1e-8 * max(1.0, abs(mass))
    if abs(mean_x) > bound or abs(mean_v) > bound:
        raise ValueError(
            f"profile not centered: mean_x={mean_x:.3e}, mean_v={mean_v:.3e}"
        )
    x, v = np.meshgrid(ax, ax, indexing="ij")
    ct, st = math.cos(t), math.sin(t)
    return _resample(field, x * ct - v * st, x * st + v * ct).real


def roll_residual(f_series, dt: float, spec: GridSpec) -> float:
    """The Vlasov residual max |d_t f + v d_x f - (x - xbar) d_v f| over the
    points 2 or more from every edge, as the package first wrote it: each
    fourth-order derivative from four ``np.roll`` copies of the whole grid,
    and xbar from two nested ``np.trapezoid`` sums."""
    f_series = np.asarray(f_series, dtype=float)
    ax = spec.axis()
    h = spec.step
    x = ax[:, None]
    v = ax[None, :]

    def d4(g: np.ndarray, axis: int) -> np.ndarray:
        gm2 = np.roll(g, 2, axis=axis)
        gm1 = np.roll(g, 1, axis=axis)
        gp1 = np.roll(g, -1, axis=axis)
        gp2 = np.roll(g, -2, axis=axis)
        return (gm2 - 8.0 * gm1 + 8.0 * gp1 - gp2) / (12.0 * h)

    worst = 0.0
    for k in range(1, f_series.shape[0] - 1):
        f = f_series[k]
        ft = (f_series[k + 1] - f_series[k - 1]) / (2.0 * dt)
        xbar = float(np.trapezoid(np.trapezoid(x * f, ax, axis=1), ax, axis=0))
        res = ft + v * d4(f, axis=0) - (x - xbar) * d4(f, axis=1)
        worst = max(worst, float(np.abs(res[2:-2, 2:-2]).max()))
    return worst

"""Adaptive Dormand-Prince 5(4) integration of the sphere-restricted flow.

This is the package's independent oracle: every closed-form solution is
cross-checked against trajectories produced here.  The right-hand side is
``hamiltonian.field_array`` for the sphere field, evaluated on dense
coefficient arrays over the cutoff's ladder table, so the flow and the
vector field share one definition of the algebra.

Specifics:

* embedded Dormand-Prince 5(4) pair with PI-free standard step control;
* after every accepted step the state is projected back to the unit
  sphere; the projection magnitude is logged and must stay below ten
  times the local tolerance (the continuous flow conserves the norm, so
  the projection removes integrator drift only);
* the stages live in one preallocated (7, n) buffer and the tableau is
  applied as matmuls on it; an accepted step costs 7 field evaluations
  (6 stages plus one at the midpoint), a rejected step 6;
* dense output from a quintic two-point Hermite interpolant whose
  midpoint value comes from Shampine's free 4th-order continuous
  extension of the step and whose midpoint slope is one extra field
  evaluation there, keeping sample-time accuracy at the step-tolerance
  level;
* amplitude that a raising operator would push past the degree cutoff is
  monitored; if a state with nonzero centering moments reaches the
  boundary the integration aborts with TruncationError.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import fock, hamiltonian
from .errors import IntegrationError
from .fock import Cutoff, FockVector
from .hamiltonian import FieldKind

# Dormand-Prince 5(4) tableau as a strictly lower-triangular matrix: stage s
# is evaluated at y + h * (_A[s, :s] @ K[:s]).  Row 6 holds the 5th-order
# weights, so stage 6 is evaluated at the new state (FSAL).  Complex dtype
# so the matmuls against the complex stage buffer need no per-call cast.
_A = np.array(
    [
        [0, 0, 0, 0, 0, 0, 0],
        [1 / 5, 0, 0, 0, 0, 0, 0],
        [3 / 40, 9 / 40, 0, 0, 0, 0, 0],
        [44 / 45, -56 / 15, 32 / 9, 0, 0, 0, 0],
        [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729, 0, 0, 0],
        [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656, 0, 0],
        [35 / 384, 0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0],
    ],
    dtype=complex,
)
_B5 = _A[6]
_B4 = np.array(
    [5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200, 187 / 2100, 1 / 40]
)
_ERR = _B5 - _B4

# Shampine's free 4th-order continuous extension of the same step
# (Math. Comp. 46 (1986) 135; Hairer-Norsett-Wanner I, Sec. II.6):
# y(s0 + theta h) = y + h * ((_P @ [theta, theta^2, theta^3, theta^4]) @ K).
# At theta = 1 the weights reduce to _B5.
_P = np.array(
    [
        [1, -8048581381 / 2820520608, 8663915743 / 2820520608,
         -12715105075 / 11282082432],
        [0, 0, 0, 0],
        [0, 131558114200 / 32700410799, -68118460800 / 10900136933,
         87487479700 / 32700410799],
        [0, -1754552775 / 470086768, 14199869525 / 1410260304,
         -10690763975 / 1880347072],
        [0, 127303824393 / 49829197408, -318862633887 / 49829197408,
         701980252875 / 199316789632],
        [0, -282668133 / 205662961, 2019193451 / 616988883,
         -1453857185 / 822651844],
        [0, 40617522 / 29380423, -110615467 / 29380423, 69997945 / 29380423],
    ]
)
_B_MID = (_P @ 0.5 ** np.arange(1, 5)).astype(complex)

_H_MAX = 0.05  # keeps the quintic dense output within the step tolerance
_SAFETY = 1.0 / 20.0  # internal per-step error target relative to the
# requested tolerance, sized so conserved-quantity drift over O(10) time
# units stays at the requested tolerance level
_TRUNCATION_FLUX_TOL = 1e-12
_END_SLACK = 1e-13  # relative to max(1, span): a shorter remainder is done


def _quintic_matrix() -> np.ndarray:
    """Inverse of the condition matrix for a quintic in theta on [0, 1]:
    value and slope at theta = 0, 1/2, 1."""
    rows = []
    for th in (0.0, 0.5, 1.0):
        rows.append([th**k for k in range(6)])
        rows.append([k * th ** (k - 1) if k >= 1 else 0.0 for k in range(6)])
    return np.linalg.inv(np.array(rows))


_QUINTIC_INV = _quintic_matrix()


def sphere_field(cutoff: Cutoff, y: np.ndarray) -> np.ndarray:
    """Sphere vector field on dense coefficients; aborts on truncation flux."""
    return hamiltonian.field_array(
        FieldKind.SPHERE, fock.ladder_table(cutoff), y, _TRUNCATION_FLUX_TOL
    )


@dataclass(frozen=True)
class _Segment:
    s0: float
    h: float
    coeffs: np.ndarray  # (6, dim) quintic coefficients in theta


@dataclass(frozen=True)
class ConservedSamples:
    """Per-sample records along a trajectory (norm before re-projection)."""

    norm: np.ndarray
    mean_n: np.ndarray
    energy: np.ndarray


@dataclass(frozen=True)
class DriftRecord:
    norm: float
    mean_n: float
    energy: float


@dataclass(frozen=True)
class Trajectory:
    """Sampled solution of the sphere flow.

    ``times`` are strictly increasing; ``states`` are unit-norm snapshots.
    ``conserved`` records raw interpolated norm plus excitation mean and
    energy per sample; ``max_renormalization`` is the largest per-step
    sphere-projection magnitude.
    """

    cutoff: Cutoff
    times: np.ndarray
    states: tuple[FockVector, ...]
    conserved: ConservedSamples
    initial_mean_n: float
    initial_energy: float
    max_renormalization: float
    accepted_steps: int
    rejected_steps: int
    _segments: tuple[_Segment, ...]
    _direction: float

    def interpolate(self, t: float) -> FockVector:
        """Dense-output state at any time inside the integration window."""
        s = t * self._direction
        lo, hi = self._segments[0], self._segments[-1]
        # slack covers the float-roundoff sliver the stepper may leave at
        # the window end; quintic extrapolation over it is exact in practice
        if s < lo.s0 - 1e-9 or s > hi.s0 + hi.h + 1e-9:
            raise ValueError(f"time {t} outside the integrated range")
        return fock.from_array(self.cutoff, _interp_raw(self._segments, s))


def _bisect_segment(segments: tuple[_Segment, ...], s: float) -> _Segment:
    lo, hi = 0, len(segments) - 1
    while lo < hi:
        mid = (lo + hi) // 2
        seg = segments[mid]
        if s < seg.s0:
            hi = mid - 1
        elif s > seg.s0 + seg.h:
            lo = mid + 1
        else:
            return segments[mid]
    return segments[lo]


def _dp5_step(f, y: np.ndarray, h: float, K: np.ndarray):
    """One Dormand-Prince step from ``K[0] = f(y)``; fills stages 1..6 of the
    (7, n) buffer ``K`` and returns (y_new, err_vector).  ``K[6]`` ends as
    f(y_new), the next step's first stage (FSAL)."""
    for stage in range(1, 7):
        y_stage = y + h * (_A[stage, :stage] @ K[:stage])
        K[stage] = f(y_stage)
    return y_stage, h * (_ERR @ K)


def integrate(
    state: FockVector,
    t_end: float,
    tol: float = 1e-10,
    samples: int | np.ndarray = 65,
) -> Trajectory:
    """Integrate the sphere flow from a unit state over [0, t_end].

    ``tol`` (both absolute and relative) must lie in [1e-12, 1e-4]; the
    initial support must stay at least two degrees below the cutoff.
    ``t_end`` must be finite with ``|t_end| > 1e-13``; negative ``t_end``
    integrates backward.  ``samples`` is either a count (equally spaced,
    endpoints included) or an array of finite times inside the window.
    """
    if not 1e-12 <= tol <= 1e-4:
        raise ValueError(f"tol must lie in [1e-12, 1e-4], got {tol}")
    fock.require_unit(state, 1e-8, what="initial state")
    if state.max_degree() > state.cutoff.k - 2:
        raise ValueError(
            f"initial support degree {state.max_degree()} exceeds interior "
            f"limit K-2={state.cutoff.k - 2}"
        )
    if not (np.isfinite(t_end) and abs(t_end) > _END_SLACK):
        raise ValueError(
            f"t_end must be finite with |t_end| > {_END_SLACK:g}, got {t_end}"
        )

    direction = 1.0 if t_end > 0 else -1.0
    span = abs(t_end)
    cutoff = state.cutoff
    table = fock.ladder_table(cutoff)

    if isinstance(samples, (int, np.integer)):
        sample_times = np.linspace(0.0, t_end, int(samples))
    else:
        sample_times = np.asarray(samples, dtype=float)
    sample_s = np.sort(sample_times * direction)
    if sample_s.size == 0:
        raise ValueError("at least one sample time is required")
    if not np.isfinite(sample_s).all():
        raise ValueError("sample times must be finite")
    if sample_s[0] < -1e-12 or sample_s[-1] > span + 1e-12:
        raise ValueError("sample times outside [0, t_end]")

    def f(y: np.ndarray) -> np.ndarray:
        field = sphere_field(cutoff, y)
        return field if direction > 0 else -field

    y0 = fock.to_array(state.normalized())
    y = y0
    stages = np.empty((7, y0.size), dtype=complex)
    stages[0] = f(y)
    s = 0.0
    h = min(_H_MAX, span, max(1e-4, tol ** (1 / 5)))
    segments: list[_Segment] = []
    max_renorm = 0.0
    accepted = rejected = 0

    while True:
        remaining = span - s
        if remaining <= _END_SLACK * max(1.0, span):
            break
        h = min(h, remaining, _H_MAX)
        if h < 1e-14 * max(1.0, s):
            raise IntegrationError(f"step size underflow at t={s * direction}")
        y_new, err = _dp5_step(f, y, h, stages)
        scale = _SAFETY * tol * (1.0 + np.maximum(np.abs(y), np.abs(y_new)))
        err_norm = float(np.sqrt(np.mean(np.abs(err / scale) ** 2)))
        if err_norm > 1.0:
            rejected += 1
            h *= max(0.2, 0.9 * err_norm ** (-0.2))
            continue

        # quintic dense output: the midpoint value comes from the step's
        # continuous extension, its slope from one more field evaluation
        y_mid = y + h * (_B_MID @ stages)
        rhs = np.stack(
            [y, h * stages[0], y_mid, h * f(y_mid), y_new, h * stages[6]]
        )
        segments.append(_Segment(s0=s, h=h, coeffs=_QUINTIC_INV @ rhs))

        norm = float(np.linalg.norm(y_new))
        renorm = abs(norm - 1.0)
        max_renorm = max(max_renorm, renorm)
        if renorm > 10.0 * tol:
            raise IntegrationError(
                f"sphere projection {renorm:.3e} exceeded 10*tol at t={s * direction}"
            )
        y = y_new / norm
        # FSAL: copy f(y_new) out of the slot the next step overwrites
        # (projection perturbs it below the local tolerance)
        stages[0] = stages[6]
        s += h
        accepted += 1
        if err_norm > 0.0:
            h *= min(5.0, max(0.2, 0.9 * err_norm ** (-0.2)))
        else:
            h *= 5.0

    traj_segments = tuple(segments)
    norms, means, energies, states = [], [], [], []
    for st in sample_s:
        arr = y0 if st <= 0.0 else _interp_raw(traj_segments, st)
        norm = float(np.linalg.norm(arr))
        unit = arr / norm
        norms.append(norm)
        means.append(float(table.n_diag @ (unit * unit.conj()).real))
        energies.append(hamiltonian.energy_array(table, unit))
        states.append(fock.from_array(cutoff, unit))

    order = np.argsort(sample_s * direction)
    times = (sample_s * direction)[order]
    return Trajectory(
        cutoff=cutoff,
        times=times,
        states=tuple(states[j] for j in order),
        conserved=ConservedSamples(
            norm=np.array(norms)[order],
            mean_n=np.array(means)[order],
            energy=np.array(energies)[order],
        ),
        initial_mean_n=float(table.n_diag @ (y0 * y0.conj()).real),
        initial_energy=hamiltonian.energy_array(table, y0),
        max_renormalization=max_renorm,
        accepted_steps=accepted,
        rejected_steps=rejected,
        _segments=traj_segments,
        _direction=direction,
    )


def _interp_raw(segments: tuple[_Segment, ...], s: float) -> np.ndarray:
    seg = _bisect_segment(segments, s)
    theta = (s - seg.s0) / seg.h
    powers = np.array([theta**k for k in range(6)])
    return powers @ seg.coeffs


def conserved_drift(traj: Trajectory) -> DriftRecord:
    """Maximum deviation of norm, excitation mean, and energy from their
    values at the initial state."""
    if traj.times.size == 0:
        raise ValueError("empty trajectory")
    return DriftRecord(
        norm=float(np.max(np.abs(traj.conserved.norm - 1.0))),
        mean_n=float(np.max(np.abs(traj.conserved.mean_n - traj.initial_mean_n))),
        energy=float(np.max(np.abs(traj.conserved.energy - traj.initial_energy))),
    )

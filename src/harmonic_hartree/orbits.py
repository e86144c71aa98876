"""Centered subspaces and closed-form (relatively) periodic solutions.

A family of excitation eigencomponents {v_N} spans a *centered* subspace
when the first-moment expectations Re<w, a_i w> and Re<w, b_i w> vanish for
every w in the span.  Expanding w in components reduces this to conditions
on adjacent pairs only, so any family whose occupied indices have pairwise
gaps != 1 is automatically centered.  That gap criterion is tried first;
otherwise the adjacent-pair conditions are one gather of the whole state's
lowering images, summed per excitation slice.

For a unit state inside a centered span the flow factorizes into pure
per-component phases

    v_N(t) = v_N(0) * exp(-i (N + mean/2) t - i phi(t)),

with ``mean`` the excitation expectation and phi solving the scalar ODE

    phi'(t) = 1/2 Re(exp(-2 i t) * c),   phi(0) = 0,
    c = sum_M <v_M, sum_i (b*_i b*_i - a_i a_i) v_{M-2}>,

whose closed form is phi(t) = 1/4 [Re(c) sin 2t - Im(c) (cos 2t - 1)].
c is one gather on the whole state: its b pair moments minus the
conjugate of its a pair moments.  The projected trajectory closes after
2*pi / gcd of the index gaps; a single-component state is stationary in
the quotient.

An ``AnalyticOrbit`` holds the state and its occupied excitations, not the
v_N: each figure is read off the coefficients by their slice labels N + K.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

import numpy as np

from . import fock, hamiltonian
from .errors import NotCenteredError
from .fock import LOWER, PAIR_LOWER, RAISE, FockVector

CENTER_TOL = 1e-12


@dataclass(frozen=True)
class AnalyticOrbit:
    """Closed-form solution data for a unit state in a centered span."""

    state: FockVector
    occupied: tuple[int, ...]  # the sorted excitations N of the state's support
    mean_n: float
    c: complex
    relative_period: float  # math.inf when relatively constant

    @property
    def oscillation_index(self) -> int:
        return len(self.occupied)

    @property
    def velocity(self) -> float:
        """Constant speed of the projected trajectory: sqrt(<N^2> - <N>^2),
        read off the certified state as ``orbit_velocity`` reads it."""
        return _velocity(self.state)


def is_centered(components: Mapping[int, FockVector]) -> bool:
    """Check that the span of the given eigencomponents is centered.

    Each value must be a pure excitation eigenvector for its key.  Families
    with no adjacent occupied indices pass by the gap criterion; otherwise
    the bilinear conditions on adjacent pairs are evaluated.
    """
    for n, part in components.items():
        keys = fock.excitations(part)
        if keys not in ([n], []):
            raise ValueError(f"component {n} mixes eigenvalues {keys}")
    if not components:
        return True
    parts = [components[n] for n in sorted(components)]
    return _centering_defect(sum(parts[1:], parts[0]), components) <= CENTER_TOL


def _slices(cutoff: fock.Cutoff) -> np.ndarray:
    """The excitation slice N + K (0 to 2K) of every basis element."""
    return fock.ladder_table(cutoff).n_diag.astype(int) + cutoff.k


def _centering_defect(v: FockVector, occupied: Iterable[int]) -> float:
    """Largest violation of the centering conditions by the eigencomponents
    v_n of ``v``, whose excitations are ``occupied``: 0 by the gap criterion
    when no two are adjacent, else the max of |<v_{n+1}, a_i v_n>| and
    |<v_n, b_i v_{n+1}>| over all axes i and adjacent pairs.

    a_i maps slice N to N + 1 and b_i maps it to N - 1, so on the whole
    state y the products (o_i y)_k conj(y_k), summed per axis and slice
    N_k, are those pairings.
    """
    occupied = sorted(occupied)
    if all(b - a != 1 for a, b in zip(occupied, occupied[1:])):
        return 0.0
    y = v.array
    products = (fock.ladder_table(v.cutoff).gather(y, LOWER) * y.conj()).ravel()
    axes = np.arange(2 * v.cutoff.d)[:, None]
    keys = (_slices(v.cutoff) + (2 * v.cutoff.k + 1) * axes).ravel()  # bin (axis, N + K)
    sums = np.bincount(keys, products.real) + 1j * np.bincount(keys, products.imag)
    return float(np.abs(sums).max())


def minimal_centered_subspace(v: FockVector) -> tuple[int, ...]:
    """The sorted excitations occupied by ``v``, once their span is
    certified centered; raises NotCenteredError otherwise."""
    occupied = tuple(fock.excitations(v))
    if not occupied:
        raise NotCenteredError("zero state has no centered decomposition")
    defect = _centering_defect(v, occupied)
    if not defect <= CENTER_TOL:
        raise NotCenteredError(
            "component family violates the centering conditions; "
            f"worst defect {defect:.3e}"
        )
    return occupied


def pair_coupling(v: FockVector) -> complex:
    """The constant c = sum_M <v_M, sum_i (b*_i b*_i - a_i a_i) v_{M-2}>.

    b b lowers N by 2 and a a raises it by 2, so on the whole state y the
    pair moments <b_i b_i y, y> sum the raising terms through the adjoint
    (exact for any support inside the cutoff) and <a_i a_i y, y> the
    lowering ones: one gather of the PAIR_LOWER rows.
    """
    y = v.array
    pairs = fock.ladder_table(v.cutoff).gather(y, PAIR_LOWER) @ y.conj()
    d = len(pairs) // 2
    return complex(pairs[d:].sum() - pairs[:d].sum().conjugate())


def relative_period(occupied: Sequence[int]) -> float:
    """2*pi / gcd of the gaps of the sorted excitations; math.inf for one."""
    g = math.gcd(*(n - occupied[0] for n in occupied[1:]))
    return 2.0 * math.pi / g if g else math.inf


def orbit_from_state(v: FockVector) -> AnalyticOrbit:
    """Closed-form orbit data for a unit state (norm checked to 1e-10)."""
    occupied = minimal_centered_subspace(v)
    fock.require_unit(v, what="orbit base")
    re, im = v.array.real, v.array.imag
    # per-slice squared norms, each summed in basis order as ``norm_sq`` sums
    weight = np.bincount(_slices(v.cutoff), re * re + im * im).tolist()
    return AnalyticOrbit(
        state=v,
        occupied=occupied,
        mean_n=sum(n * weight[n + v.cutoff.k] for n in occupied),
        c=pair_coupling(v),
        relative_period=relative_period(occupied),
    )


def phase_integral(orbit: AnalyticOrbit, t: float) -> float:
    """phi(t) = 1/4 [Re(c) sin 2t - Im(c) (cos 2t - 1)]; pi-periodic."""
    if not math.isfinite(2.0 * t):  # nan, inf or 2t past the largest float
        raise ValueError(f"time must be finite, with 2t finite too, got {t}")
    c = orbit.c
    return 0.25 * (c.real * math.sin(2.0 * t) - c.imag * (math.cos(2.0 * t) - 1.0))


def phase_rate(orbit: AnalyticOrbit, t: float) -> float:
    """phi'(t) = 1/2 Re(exp(-2 i t) c); quadrature cross-check target."""
    if not math.isfinite(2.0 * t):  # nan, inf or 2t past the largest float
        raise ValueError(f"time must be finite, with 2t finite too, got {t}")
    return 0.5 * (cmath.exp(-2j * t) * orbit.c).real


def analytic_solution(orbit: AnalyticOrbit, t: float) -> FockVector:
    """State at time t: sum_N v_N exp(-i (N + mean/2) t - i phi(t)).

    Norm and per-component norms are preserved exactly (pure phases).
    """
    phi = phase_integral(orbit, t)
    state, k = orbit.state, orbit.state.cutoff.k
    phases = np.zeros(2 * k + 1, dtype=complex)
    for n in orbit.occupied:
        phase = (n + 0.5 * orbit.mean_n) * t + phi
        if not math.isfinite(phase):
            raise ValueError(f"time {t} is too large: the phase of excitation {n} overflows")
        phases[n + k] = cmath.exp(-1j * phase)
    # unit phases on a unit state: the fresh array is finite
    return fock._vector(state.cutoff, phases[_slices(state.cutoff)] * state.array,
                        state.truncated)


def orbit_velocity(v: FockVector) -> float:
    """Constant speed of the projected trajectory of a centered unit state
    (``AnalyticOrbit.velocity``); raises NotCenteredError otherwise."""
    minimal_centered_subspace(v)  # rejects non-centered input
    fock.require_unit(v)
    return _velocity(v)


def _velocity(v: FockVector) -> float:
    """sqrt(<N^2> - <N>^2), the variance summed as
    sum_k |v_k|^2 (n_k - <N>)^2, without the cancellation of
    <N^2> - <N>^2.  Excitations are measured from the one of the largest
    coefficient, so a single-component state gives exactly 0."""
    weight = np.abs(v.array) ** 2
    n_diag = fock.ladder_table(v.cutoff).n_diag
    shifted = n_diag - n_diag[np.argmax(weight)]
    return math.sqrt(float(weight @ (shifted - weight @ shifted) ** 2))


def _rational_lcm(a: Fraction, b: Fraction) -> Fraction:
    # generator of a*Z intersect b*Z
    return Fraction(
        math.lcm(a.numerator, b.numerator), math.gcd(a.denominator, b.denominator)
    )


def is_classically_periodic(
    orbit: AnalyticOrbit, weights: Mapping[int, Fraction]
) -> tuple[bool, float]:
    """Exact-arithmetic classical (unprojected) period.

    ``weights`` gives the squared component norms as exact rationals, keyed
    by occupied index; they must sum to 1 and match the orbit support.  The
    excitation mean is then rational, so the solution is always classically
    periodic; the returned period is the minimal T > 0 with every component
    phase factor equal to 1 and phi shifted by a full period (T = 0.0 for
    the fully stationary single-component state at frequency zero).
    """
    occupied = list(orbit.occupied)
    if sorted(weights) != occupied:
        raise ValueError(f"weights keyed {sorted(weights)} != occupied {occupied}")
    for w in weights.values():
        if not isinstance(w, Fraction):
            raise ValueError("weights must be exact Fraction instances")
    total = sum(weights.values())
    if total != 1:
        raise ValueError(f"weights must sum to 1, got {total}")

    mean = sum(Fraction(n) * w for n, w in weights.items())
    rates = [Fraction(n) + mean / 2 for n in occupied]  # phase rates / (2 pi / T)
    nonzero = [r for r in rates if r != 0]
    if not nonzero:
        return True, 0.0  # stationary: constant solution

    # minimal t with t * r integral for all rates: T = 2 pi t
    denom = math.lcm(*(r.denominator for r in nonzero))
    nums = [r.numerator * (denom // r.denominator) for r in nonzero]
    t_min = Fraction(denom, math.gcd(*nums))
    if abs(orbit.c) > 1e-12:
        # phi has period pi, so T must also be a multiple of pi: t in Z/2
        t_min = _rational_lcm(t_min, Fraction(1, 2))
    return True, float(2 * math.pi * t_min)


def interpolating_family(
    v_n: FockVector, v_m: FockVector, gamma: float
) -> FockVector:
    """cos(gamma/2) v_n + sin(gamma/2) v_m between two unit eigenvectors.

    The eigenvalues must differ and the two-component span must be
    centered; every interior gamma yields the same relative period.
    """
    n = fock._single_excitation(v_n)
    m = fock._single_excitation(v_m)
    if n == m:
        raise ValueError(f"eigenvectors share the eigenvalue {n}")
    if not 0.0 <= gamma <= math.pi:
        raise ValueError(f"gamma must lie in [0, pi], got {gamma}")
    for v in (v_n, v_m):
        fock.require_unit(v, what="family endpoint")
    if not _centering_defect(v_n + v_m, (n, m)) <= CENTER_TOL:
        raise NotCenteredError(f"span of eigenvalues {n}, {m} is not centered")
    return math.cos(gamma / 2.0) * v_n + math.sin(gamma / 2.0) * v_m


def bifurcation_family(
    base: FockVector, tilde: FockVector, l_step: int, gamma: float
) -> AnalyticOrbit:
    """Periodic family bifurcating from the equilibrium ``base`` in the
    direction of a linearization eigenvector ``tilde``.

    ``tilde`` must be a unit excitation eigenvector at eigenvalue N + L
    lying in the perturbation kernel at ``base`` (the four real
    orthogonality conditions per axis plus chart orthogonality); the
    resulting two-component orbit has relative period 2*pi/|L|.
    """
    n = fock._single_excitation(base)
    m = fock._single_excitation(tilde)
    if l_step == 0 or m != n + l_step:
        raise ValueError(
            f"eigenvector at {m} does not match base {n} stepped by L={l_step}"
        )
    if base.max_degree() > base.cutoff.k - 2:
        raise ValueError("base support too close to the cutoff for the kernel check")
    if abs(fock.inner(base, tilde)) > 1e-12:
        raise ValueError("direction must be chart-orthogonal to the base")
    # Re<tilde, op_i base> for op in (a, a*, b, b*) on every axis i
    images = fock.ladder_table(base.cutoff).gather(base.array)
    worst = np.abs((images[[LOWER, RAISE]] @ tilde.array.conj()).real).max()
    if worst > 1e-12:
        raise ValueError(
            f"direction violates the perturbation-kernel conditions by {worst:.3e}"
        )
    state = interpolating_family(base, tilde, gamma)
    return orbit_from_state(state)

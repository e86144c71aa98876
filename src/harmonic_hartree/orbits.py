"""Centered subspaces and closed-form (relatively) periodic solutions.

A family of excitation eigencomponents {v_N} spans a *centered* subspace
when the first-moment expectations Re<w, a_i w> and Re<w, b_i w> vanish for
every w in the span.  Expanding w in components reduces this to conditions
on adjacent pairs only, so any family whose occupied indices have pairwise
gaps != 1 is automatically centered.

For a unit state inside a centered span the flow factorizes into pure
per-component phases

    v_N(t) = v_N(0) * exp(-i (N + mean/2) t - i phi(t)),

with ``mean`` the excitation expectation and phi solving the scalar ODE

    phi'(t) = 1/2 Re(exp(-2 i t) * c),   phi(0) = 0,
    c = sum_M <v_M, sum_i (b*_i b*_i - a_i a_i) v_{M-2}>,

whose closed form is phi(t) = 1/4 [Re(c) sin 2t - Im(c) (cos 2t - 1)].
The projected trajectory closes after 2*pi / gcd of the index gaps; a
single-component state is stationary in the quotient.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

import numpy as np

from . import fock, hamiltonian
from .errors import BasisMismatchError, NotCenteredError
from .fock import LOWER, PAIR_LOWER, RAISE, FockVector

CENTER_TOL = 1e-12


@dataclass(frozen=True)
class CenteredDecomposition:
    """Excitation eigencomponents of a state inside a centered span."""

    components: dict[int, FockVector]
    decomposition_index: int
    oscillation_index: int

    def state(self) -> FockVector:
        out = None
        for _, part in sorted(self.components.items()):
            out = part if out is None else out + part
        if out is None:
            raise ValueError("empty decomposition")
        return out


@dataclass(frozen=True)
class AnalyticOrbit:
    """Closed-form solution data for a unit state in a centered span."""

    base: CenteredDecomposition
    mean_n: float
    c: complex
    relative_period: float  # math.inf when relatively constant


def _arrays_and_images(components: Mapping[int, FockVector]):
    """Coefficient arrays of the components and their ladder images (one
    gather each), keyed like ``components``, plus the dimension d."""
    cutoffs = {part.cutoff for part in components.values()}
    if len(cutoffs) != 1:
        raise BasisMismatchError(f"components mix cutoffs {cutoffs}")
    (cutoff,) = cutoffs
    table = fock.ladder_table(cutoff)
    arrays = {n: fock.to_array(part) for n, part in components.items()}
    images = {n: table.gather(y) for n, y in arrays.items()}
    return arrays, images, cutoff.d


def _adjacent_pair_defects(components: Mapping[int, FockVector]) -> float:
    """Largest violation of the centering conditions on adjacent components:
    |<v_{n+1}, a_i v_n>| and |<v_n, b_i v_{n+1}>| over all axes i."""
    arrays, images, d = _arrays_and_images(components)
    worst = 0.0
    for n in sorted(components):
        if n + 1 not in components:
            continue
        lo, hi = arrays[n], arrays[n + 1]
        worst = max(
            worst,
            np.abs(images[n][LOWER, :d] @ hi.conj()).max(),
            np.abs(images[n + 1][LOWER, d:] @ lo.conj()).max(),
        )
    return float(worst)


def is_centered(components: Mapping[int, FockVector]) -> bool:
    """Check that the span of the given eigencomponents is centered.

    Each value must be a pure excitation eigenvector for its key.  Families
    with no adjacent occupied indices pass by the gap criterion; otherwise
    the bilinear conditions on adjacent pairs are evaluated.
    """
    if not components:
        return True
    for n, part in components.items():
        split = fock.component_split(part)
        if set(split) not in ({n}, set()):
            raise ValueError(f"component {n} mixes eigenvalues {sorted(split)}")
    occupied = sorted(components)
    if all(b - a != 1 for a, b in zip(occupied, occupied[1:])):
        return True
    return _adjacent_pair_defects(components) <= CENTER_TOL


def minimal_centered_subspace(v: FockVector) -> CenteredDecomposition:
    """Split ``v`` into eigencomponents and certify that their span is
    centered; raises NotCenteredError otherwise."""
    parts = fock.component_split(v)
    if not parts:
        raise NotCenteredError("zero state has no centered decomposition")
    if not is_centered(parts):
        raise NotCenteredError(
            "component family violates the centering conditions; "
            f"worst defect {_adjacent_pair_defects(parts):.3e}"
        )
    count = len(parts)
    return CenteredDecomposition(
        components=parts, decomposition_index=count, oscillation_index=count
    )


def pair_coupling(dec: CenteredDecomposition) -> complex:
    """The constant c = sum_M <v_M, sum_i (b*_i b*_i - a_i a_i) v_{M-2}>.

    Raising on v_{M-2} is evaluated through the adjoint (double lowering on
    v_M), so the value is exact for any support inside the cutoff.
    """
    arrays, images, d = _arrays_and_images(dec.components)
    acc = 0j
    for m, hi in arrays.items():
        lo = arrays.get(m - 2)
        if lo is None:
            continue
        # <hi, b*_i b*_i lo> = <b_i b_i hi, lo>
        acc += (images[m][PAIR_LOWER, d:] @ lo.conj()).sum()
        acc -= (images[m - 2][PAIR_LOWER, :d].conj() @ hi).sum()
    return complex(acc)


def relative_period(dec: CenteredDecomposition) -> float:
    """2*pi / gcd of index gaps; math.inf for a single component."""
    occupied = sorted(dec.components)
    if len(occupied) <= 1:
        return math.inf
    g = 0
    for n in occupied[1:]:
        g = math.gcd(g, n - occupied[0])
    return 2.0 * math.pi / g


def make_orbit(dec: CenteredDecomposition) -> AnalyticOrbit:
    """Closed-form orbit data for a unit state (norm checked to 1e-10)."""
    state = dec.state()
    fock.require_unit(state, what="orbit base")
    mean_n = sum(n * part.norm_sq for n, part in dec.components.items())
    return AnalyticOrbit(
        base=dec,
        mean_n=mean_n,
        c=pair_coupling(dec),
        relative_period=relative_period(dec),
    )


def orbit_from_state(v: FockVector) -> AnalyticOrbit:
    return make_orbit(minimal_centered_subspace(v))


def phase_integral(orbit: AnalyticOrbit, t: float) -> float:
    """phi(t) = 1/4 [Re(c) sin 2t - Im(c) (cos 2t - 1)]; pi-periodic."""
    c = orbit.c
    return 0.25 * (c.real * math.sin(2.0 * t) - c.imag * (math.cos(2.0 * t) - 1.0))


def phase_rate(orbit: AnalyticOrbit, t: float) -> float:
    """phi'(t) = 1/2 Re(exp(-2 i t) c); quadrature cross-check target."""
    return 0.5 * (cmath.exp(-2j * t) * orbit.c).real


def analytic_solution(orbit: AnalyticOrbit, t: float) -> FockVector:
    """State at time t: sum_N v_N exp(-i (N + mean/2) t - i phi(t)).

    Norm and per-component norms are preserved exactly (pure phases).
    """
    if not math.isfinite(t):
        raise ValueError(f"time must be finite, got {t}")
    phi = phase_integral(orbit, t)
    out = None
    for n, part in sorted(orbit.base.components.items()):
        factor = cmath.exp(-1j * ((n + 0.5 * orbit.mean_n) * t + phi))
        term = factor * part
        out = term if out is None else out + term
    return out


def orbit_velocity(v: FockVector) -> float:
    """Constant speed of the projected trajectory: sqrt(<N^2> - <N>^2)."""
    minimal_centered_subspace(v)  # rejects non-centered input
    mean = fock.expectation_n(v)
    second = fock.expectation_n2(v)
    return math.sqrt(max(second - mean * mean, 0.0))


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
    occupied = sorted(orbit.base.components)
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
    if not is_centered({n: v_n, m: v_m}):
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
    images = fock.ladder_table(base.cutoff).gather(fock.to_array(base))
    worst = np.abs((images[[LOWER, RAISE]] @ fock.to_array(tilde).conj()).real).max()
    if worst > 1e-12:
        raise ValueError(
            f"direction violates the perturbation-kernel conditions by {worst:.3e}"
        )
    state = interpolating_family(base, tilde, gamma)
    return orbit_from_state(state)

import cmath
import math
import re
from fractions import Fraction

import numpy as np
import pytest
from scipy.integrate import quad

from _support import brute_matrix, random_centered_state, random_component
from harmonic_hartree import equilibria, fock, integrate as integ, orbits, reduction as red
from harmonic_hartree.errors import BasisMismatchError, NormalizationError, NotCenteredError
from harmonic_hartree.fock import Cutoff

CUT = Cutoff(k=8, d=1)


def bv(a, b, cut=CUT):
    return fock.basis_vector(cut, a, b)


# ---------------------------------------------------------------------------
# centering

def test_is_centered_gap_two():
    assert orbits.is_centered({0: bv((0,), (0,)), -2: bv((2,), (0,))})


def test_is_centered_rejects_gap_one_with_overlap():
    comps = {0: bv((0,), (0,)), 1: bv((0,), (1,))}
    assert not orbits.is_centered(comps)
    s = (1 / math.sqrt(2)) * (bv((0,), (0,)) + bv((0,), (1,)))
    # the defect is exactly the nonzero first moment of the sum
    assert abs(fock.inner(s, fock.apply_lowering_b(0, s)).real - 0.5) < 1e-15


def test_is_centered_single_component_and_structured_gap_one():
    assert orbits.is_centered({})  # the empty family spans the zero state
    assert orbits.is_centered({5: bv((0,), (5,))})
    # adjacent indices whose cross ladder elements vanish
    assert orbits.is_centered({0: bv((0,), (0,)), 2: bv((2,), (4,)), 3: bv((0,), (3,))})


def test_is_centered_rejects_mixed_component():
    mixed = bv((0,), (0,)) + bv((0,), (2,))
    with pytest.raises(ValueError):
        orbits.is_centered({0: mixed})


def _brute_defect(cut, ys, adjacent):
    """max |<v_{n+1}, a_i v_n>|, |<v_n, b_i v_{n+1}>| over axes and the
    adjacent pairs (n, n + 1), from the brute-force matrices."""
    worst = 0.0
    for i in range(cut.d):
        la, lb = brute_matrix(cut, "lower_a", i), brute_matrix(cut, "lower_b", i)
        for n in adjacent:
            worst = max(worst, abs(np.vdot(la @ ys[n], ys[n + 1])),
                        abs(np.vdot(lb @ ys[n + 1], ys[n])))
    return worst


def _brute_coupling(cut, ys):
    """sum_M <v_M, sum_i (b*_i b*_i - a_i a_i) v_{M-2}> from the
    brute-force matrices."""
    total = 0j
    for i in range(cut.d):
        rb, la = brute_matrix(cut, "raise_b", i), brute_matrix(cut, "lower_a", i)
        total += sum(np.vdot(rb @ rb @ ys[m - 2] - la @ la @ ys[m - 2], ys[m])
                     for m in ys if m - 2 in ys)
    return total


def test_ladder_pairings_against_brute_force():
    rng = np.random.default_rng(7)
    # the defect is read off the sum, with the occupied keys: one adjacent
    # pair, then a family mixing adjacent and gapped indices
    for cut, keys, adjacent in [(Cutoff(k=6, d=2), (0, 1), (0,))] + [
        (Cutoff(k=6, d=d), (-1, 0, 1, 3), (-1, 0)) for d in (1, 2, 3)
    ]:
        comps = {n: random_component(cut, n, rng) for n in keys}
        state = sum(comps.values(), fock.zero(cut))
        expected = _brute_defect(cut, {n: fock.to_array(v) for n, v in comps.items()}, adjacent)
        assert orbits._centering_defect(state, comps) == pytest.approx(expected, rel=1e-14)

    # c of an even family and of an odd one
    for cut, keys in ((Cutoff(k=6, d=2), (-2, 0, 2)), (Cutoff(k=6, d=3), (-3, -1, 1, 3))):
        state = random_centered_state(cut, keys, rng)
        parts = fock.component_split(state)
        expected = _brute_coupling(cut, {n: fock.to_array(v) for n, v in parts.items()})
        assert abs(orbits.pair_coupling(state) - expected) <= 1e-14 * abs(expected)

    # two cutoffs are rejected with or without adjacent indices
    for m in (1, 2):
        with pytest.raises(BasisMismatchError):
            orbits.is_centered({0: bv((0,), (0,)), m: bv((0,), (m,), Cutoff(k=6, d=1))})


def test_single_excitation_rejects_zero_and_mixed_states():
    assert fock._single_excitation(bv((2,), (0,))) == -2
    for v, keys in ((fock.zero(CUT), []), (bv((0,), (0,)) + bv((2,), (0,)), [-2, 0])):
        with pytest.raises(ValueError) as info:
            fock._single_excitation(v)
        assert str(info.value) == (
            f"state mixes excitation eigenvalues {keys}; need an eigenvector"
        )


def test_excitations_are_the_sorted_support_labels():
    assert fock.excitations(fock.zero(CUT)) == []
    assert fock.excitations(bv((3,), (1,))) == [-2]
    mixed = bv((0,), (4,)) + bv((2,), (0,)) + bv((1,), (1,)) + bv((0,), (4,))
    assert fock.excitations(mixed) == [-2, 0, 4]
    assert all(type(n) is int for n in fock.excitations(mixed))


def test_minimal_centered_subspace():
    s = (1 / math.sqrt(2)) * (bv((0,), (0,)) + bv((2,), (0,)))
    assert orbits.minimal_centered_subspace(s) == (-2, 0)
    assert orbits.orbit_from_state(s).oscillation_index == 2

    single = bv((1,), (0,))
    assert orbits.minimal_centered_subspace(single) == (-1,)
    assert orbits.orbit_from_state(single).oscillation_index == 1

    three = (1 / math.sqrt(3)) * (bv((0,), (0,)) + bv((0,), (2,)) + bv((0,), (4,)))
    assert orbits.minimal_centered_subspace(three) == (0, 2, 4)
    assert orbits.orbit_from_state(three).oscillation_index == 3

    with pytest.raises(NotCenteredError):
        orbits.minimal_centered_subspace(
            (1 / math.sqrt(2)) * (bv((0,), (0,)) + bv((0,), (1,)))
        )
    with pytest.raises(NotCenteredError, match="^zero state"):
        orbits.minimal_centered_subspace(fock.zero(CUT))


# ---------------------------------------------------------------------------
# periods

def test_relative_period_examples():
    s = (1 / math.sqrt(2)) * (bv((0,), (0,)) + bv((2,), (0,)))
    assert orbits.relative_period(orbits.minimal_centered_subspace(s)) == pytest.approx(
        math.pi
    )
    t = (1 / math.sqrt(3)) * (bv((0,), (0,)) + bv((2,), (4,)) + bv((0,), (3,)))
    assert orbits.relative_period(orbits.minimal_centered_subspace(t)) == pytest.approx(
        2 * math.pi
    )
    single = orbits.minimal_centered_subspace(bv((0,), (5,)))
    assert orbits.relative_period(single) == math.inf


# ---------------------------------------------------------------------------
# closed-form solution

def test_analytic_solution_initial_condition():
    rng = np.random.default_rng(0)
    s = random_centered_state(CUT, (0, -2), rng)
    orbit = orbits.orbit_from_state(s)
    assert (orbits.analytic_solution(orbit, 0.0) - s).norm <= 1e-15


def test_single_component_is_relatively_constant():
    rng = np.random.default_rng(1)
    s = random_component(CUT, 2, rng).normalized()
    orbit = orbits.orbit_from_state(s)
    for t in (0.3, 1.7, 5.0):
        moved = orbits.analytic_solution(orbit, t)
        assert red.projective_distance(moved, s) <= 1e-12


def test_two_component_relative_period():
    s = (1 / math.sqrt(2)) * (bv((0,), (0,)) + bv((2,), (0,)))
    orbit = orbits.orbit_from_state(s)
    assert orbit.relative_period == pytest.approx(math.pi)
    for t in (0.0, 0.4, 1.3, 2.9):
        a = orbits.analytic_solution(orbit, t)
        b = orbits.analytic_solution(orbit, t + math.pi)
        assert red.projective_distance(a, b) <= 1e-12


def test_component_norms_conserved_exactly():
    rng = np.random.default_rng(2)
    s = random_centered_state(CUT, (-2, 0, 4), rng)
    orbit = orbits.orbit_from_state(s)
    base_norms = {n: p.norm for n, p in fock.component_split(orbit.state).items()}
    for t in (0.9, 4.4):
        parts = fock.component_split(orbits.analytic_solution(orbit, t))
        for n, p in parts.items():
            assert p.norm == pytest.approx(base_norms[n], abs=1e-14)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_times_and_tolerances_are_rejected(bad):
    orbit = orbits.orbit_from_state(random_centered_state(CUT, (0, -2), np.random.default_rng(2)))
    for entry in (orbits.phase_integral, orbits.phase_rate, orbits.analytic_solution):
        with pytest.raises(ValueError, match="time must be finite"):
            entry(orbit, bad)
    for tol in (bad, -1.0):
        with pytest.raises(ValueError, match="tol must be finite and >= 0"):
            equilibria.is_relative_equilibrium(bv((0,), (0,)), tol)


def test_overflowing_times_are_rejected_with_the_time():
    # N = 4 with <N> = 4: 2t overflows at 1e308, the phase (N + <N>/2) t
    # of the slice at 5e307
    orbit = orbits.orbit_from_state(bv((0,), (4,)))
    for t in (1e308, -1e308):
        for entry in (orbits.phase_integral, orbits.phase_rate, orbits.analytic_solution):
            with pytest.raises(ValueError, match=re.escape(f"2t finite too, got {t}")):
                entry(orbit, t)
    with pytest.raises(ValueError, match=re.escape("time 5e+307 is too large: the phase "
                                                   "of excitation 4 overflows")):
        orbits.analytic_solution(orbit, 5e307)


def test_closed_form_is_the_per_component_phase_sum():
    # the orbit's state and slice labels give the same figures as one phase
    # factor per eigencomponent, summed in key order: mean_n exactly and
    # the solution value for value (every nonzero coefficient bit for bit)
    rng = np.random.default_rng(12)
    for d in (1, 2, 3):
        cut = Cutoff(k=6, d=d)
        for keys in ((2,), (0, -2), (-3, 0, 2), (-4, -2, 0, 2)):
            s = random_centered_state(cut, keys, rng)
            orbit = orbits.orbit_from_state(s)
            parts = fock.component_split(s)
            assert orbit.occupied == tuple(sorted(keys)) == tuple(parts)
            assert orbit.mean_n == sum(n * part.norm_sq for n, part in parts.items())
            for t in (0.0, 0.3, -2.5, 100.1):
                phi = orbits.phase_integral(orbit, t)
                terms = [cmath.exp(-1j * ((n + 0.5 * orbit.mean_n) * t + phi)) * part
                         for n, part in parts.items()]
                expected = sum(terms[1:], terms[0])
                assert np.array_equal(orbits.analytic_solution(orbit, t).array, expected.array)


def test_phase_integral_quadrature_and_period():
    rng = np.random.default_rng(3)
    s = random_centered_state(CUT, (0, -2), rng)
    orbit = orbits.orbit_from_state(s)
    assert abs(orbit.c.imag) > 1e-3  # generic complex coupling
    for t in (0.5, 1.9, 3.3):
        val, _ = quad(lambda u: orbits.phase_rate(orbit, u), 0.0, t,
                      epsabs=1e-13, epsrel=1e-13)
        assert orbits.phase_integral(orbit, t) == pytest.approx(val, abs=1e-10)
    # phi has period pi
    for t in (0.2, 1.1):
        assert orbits.phase_integral(orbit, t + math.pi) == pytest.approx(
            orbits.phase_integral(orbit, t), abs=1e-14
        )


def test_analytic_matches_integrator_upstairs():
    # full-norm comparison (not just the quotient) pins the common phase
    # mean/2 * t + phi(t) including the sign of Im(c)
    rng = np.random.default_rng(4)
    s = random_centered_state(CUT, (0, -2), rng)
    orbit = orbits.orbit_from_state(s)
    assert abs(orbit.c.imag) > 1e-3
    traj = integ.integrate(s, 4 * math.pi, tol=1e-10, samples=41)
    worst = max(
        (orbits.analytic_solution(orbit, t) - st).norm
        for t, st in zip(traj.times, traj.states)
    )
    assert worst <= 1e-7


def test_orbit_reparametrization_consistency():
    # launching from a later point of the same orbit traces the same curve
    rng = np.random.default_rng(5)
    s = random_centered_state(CUT, (-2, 0), rng)
    o1 = orbits.orbit_from_state(s)
    s2 = orbits.analytic_solution(o1, 0.77)
    o2 = orbits.orbit_from_state(s2)
    for t in np.linspace(0.0, math.pi, 17):
        a = orbits.analytic_solution(o2, t)
        b = orbits.analytic_solution(o1, 0.77 + t)
        assert red.projective_distance(a, b) <= 1e-12


def test_orbit_disjointness():
    rng = np.random.default_rng(6)
    ts = np.linspace(0.0, math.pi, 41)
    for _ in range(3):
        s1 = random_centered_state(CUT, (0, -2), rng)
        s2 = random_centered_state(CUT, (0, -2), rng)
        o1, o2 = orbits.orbit_from_state(s1), orbits.orbit_from_state(s2)
        pts1 = [orbits.analytic_solution(o1, t) for t in ts]
        pts2 = [orbits.analytic_solution(o2, t) for t in ts]
        dmin = min(red.projective_distance(a, b) for a in pts1 for b in pts2)
        assert dmin >= 1e-3  # distinct orbits stay apart


# ---------------------------------------------------------------------------
# classical periodicity (exact rational arithmetic)

def test_classical_period_equal_weights():
    s = (1 / math.sqrt(2)) * (bv((0,), (0,)) + bv((2,), (0,)))
    orbit = orbits.orbit_from_state(s)
    periodic, period = orbits.is_classically_periodic(
        orbit, {0: Fraction(1, 2), -2: Fraction(1, 2)}
    )
    assert periodic and period == pytest.approx(4 * math.pi)
    # the closed form indeed returns after 4 pi and not after 2 pi
    assert (orbits.analytic_solution(orbit, period) - s).norm <= 1e-12
    assert (orbits.analytic_solution(orbit, period / 2) - s).norm > 0.1


def test_classical_period_thirds():
    w0, w2 = Fraction(1, 3), Fraction(2, 3)
    s = math.sqrt(float(w0)) * bv((0,), (0,)) + math.sqrt(float(w2)) * bv((2,), (0,))
    orbit = orbits.orbit_from_state(s)
    periodic, period = orbits.is_classically_periodic(orbit, {0: w0, -2: w2})
    assert periodic
    # multiple of both pi and the relative period
    assert period == pytest.approx(3 * math.pi)
    assert (orbits.analytic_solution(orbit, period) - s).norm <= 1e-12


def test_classical_period_single_component():
    s = bv((0,), (1,))
    orbit = orbits.orbit_from_state(s)
    periodic, period = orbits.is_classically_periodic(orbit, {1: Fraction(1)})
    assert periodic and period == pytest.approx(4 * math.pi / 3)
    assert (orbits.analytic_solution(orbit, period) - s).norm <= 1e-12

    vac = orbits.orbit_from_state(bv((0,), (0,)))
    periodic, period = orbits.is_classically_periodic(vac, {0: Fraction(1)})
    assert periodic and period == 0.0  # stationary state


def test_classical_period_input_validation():
    s = (1 / math.sqrt(2)) * (bv((0,), (0,)) + bv((2,), (0,)))
    orbit = orbits.orbit_from_state(s)
    with pytest.raises(ValueError):
        orbits.is_classically_periodic(orbit, {0: 0.5, -2: Fraction(1, 2)})
    with pytest.raises(ValueError):
        orbits.is_classically_periodic(orbit, {0: Fraction(1, 2)})
    with pytest.raises(ValueError):
        orbits.is_classically_periodic(
            orbit, {0: Fraction(1, 2), -2: Fraction(1, 3)}
        )
    # weights that sum to 1 but are not the state's squared norms
    for weights in ({0: Fraction(1, 3), -2: Fraction(2, 3)},
                    {0: Fraction(-1, 2), -2: Fraction(3, 2)},
                    {0: Fraction(1), -2: Fraction(0)}):
        with pytest.raises(ValueError, match="^weight .* of excitation 0 must be positive"):
            orbits.is_classically_periodic(orbit, weights)
    # a component of squared norm 1e-10: a zero or negative weight on it is
    # within 1e-9 of its norm and sums to 1, but is not positive
    tiny = math.sqrt(1e-10) * bv((2,), (0,)) + math.sqrt(1 - 1e-10) * bv((0,), (0,))
    orbit = orbits.orbit_from_state(tiny)
    for w in (Fraction(0), Fraction(-1, 10**10)):
        with pytest.raises(ValueError, match="^weight .* of excitation -2 must be positive"):
            orbits.is_classically_periodic(orbit, {0: 1 - w, -2: w})
    # each weight within 1e-9 of its norm, but together 1 + 1e-10
    orbit = orbits.orbit_from_state(0.8 * bv((0,), (0,)) + 0.6 * bv((2,), (0,)))
    with pytest.raises(ValueError, match="^weights must sum to 1"):
        orbits.is_classically_periodic(
            orbit, {0: Fraction(16, 25) + Fraction(1, 10**10), -2: Fraction(9, 25)}
        )


# ---------------------------------------------------------------------------
# velocity

def test_orbit_velocity_values():
    assert orbits.orbit_velocity(bv((1,), (0,))) == 0.0
    s = (1 / math.sqrt(2)) * (bv((0,), (0,)) + bv((2,), (0,)))
    assert orbits.orbit_velocity(s) == pytest.approx(1.0)


def test_orbit_velocity_finite_difference_oracle():
    rng = np.random.default_rng(7)
    for indices in [(0, -2), (-2, 1, 4)]:
        s = random_centered_state(CUT, indices, rng)
        v = orbits.orbit_velocity(s)
        orbit = orbits.orbit_from_state(s)
        h = 1e-6
        for t in (0.0, 0.8, 2.5):
            a = orbits.analytic_solution(orbit, t)
            b = orbits.analytic_solution(orbit, t + h)
            assert red.projective_distance(a, b) / h == pytest.approx(v, abs=1e-5)


def test_speed_is_constant_along_orbit():
    rng = np.random.default_rng(8)
    s = random_centered_state(CUT, (0, -2, -4), rng)
    orbit = orbits.orbit_from_state(s)
    h = 1e-6
    speeds = [
        red.projective_distance(
            orbits.analytic_solution(orbit, t), orbits.analytic_solution(orbit, t + h)
        )
        / h
        for t in np.linspace(0.0, float(orbit.relative_period), 11)
    ]
    assert max(speeds) - min(speeds) <= 1e-6


# ---------------------------------------------------------------------------
# families

def test_interpolating_family_endpoints_and_midpoint():
    v_n = bv((0,), (0,))
    v_m = bv((2,), (0,))
    assert (orbits.interpolating_family(v_n, v_m, 0.0) - v_n).norm <= 1e-15
    assert (orbits.interpolating_family(v_n, v_m, math.pi) - v_m).norm <= 1e-15
    mid = orbits.interpolating_family(v_n, v_m, math.pi / 2)
    expected = (1 / math.sqrt(2)) * (v_n + v_m)
    assert (mid - expected).norm <= 1e-15


def test_interpolating_family_shared_period():
    v_n = bv((0,), (0,))
    v_m = bv((2,), (0,))
    for j in range(1, 8):
        gamma = math.pi * j / 8
        orbit = orbits.orbit_from_state(orbits.interpolating_family(v_n, v_m, gamma))
        assert orbit.relative_period == pytest.approx(math.pi, abs=1e-12)
        assert orbit.oscillation_index == 2


def test_interpolating_family_validation():
    with pytest.raises(ValueError):
        orbits.interpolating_family(bv((0,), (0,)), bv((1,), (1,)), 0.5)  # same N
    with pytest.raises(NotCenteredError):
        orbits.interpolating_family(bv((0,), (0,)), bv((0,), (1,)), 0.5)  # gap 1
    with pytest.raises(ValueError):
        orbits.interpolating_family(bv((0,), (0,)), bv((2,), (0,)), 4.0)  # gamma range
    with pytest.raises(NormalizationError):
        orbits.interpolating_family(2.0 * bv((0,), (0,)), bv((2,), (0,)), 0.5)


def test_bifurcation_family_example():
    base = bv((0,), (0,))
    tilde = bv((0,), (2,))
    orbit = orbits.bifurcation_family(base, tilde, 2, math.pi / 3)
    parts = fock.component_split(orbit.state)
    assert parts[0].norm_sq == pytest.approx(math.cos(math.pi / 6) ** 2)
    assert parts[2].norm_sq == pytest.approx(math.sin(math.pi / 6) ** 2)
    assert orbit.relative_period == pytest.approx(math.pi)
    # cross-check against the numerical flow
    state = orbit.state
    traj = integ.integrate(state, math.pi, tol=1e-10, samples=21)
    worst = max(
        red.projective_distance(orbits.analytic_solution(orbit, t), st)
        for t, st in zip(traj.times, traj.states)
    )
    assert worst <= 1e-7


def test_bifurcation_family_gamma_zero_is_equilibrium():
    orbit = orbits.bifurcation_family(bv((0,), (0,)), bv((0,), (2,)), 2, 0.0)
    assert orbit.oscillation_index == 1
    assert orbit.relative_period == math.inf


def test_bifurcation_family_validation():
    base = bv((0,), (0,))
    with pytest.raises(ValueError):  # mixed components
        bad = (1 / math.sqrt(2)) * (bv((0,), (2,)) + bv((0,), (1,)))
        orbits.bifurcation_family(base, bad, 2, 0.3)
    with pytest.raises(ValueError):  # eigenvalue does not match N + L
        orbits.bifurcation_family(base, bv((0,), (2,)), 3, 0.3)
    # outside the perturbation kernel: Re<tilde, b* base> = 1, Re<tilde, a* base> = 1
    with pytest.raises(ValueError, match="perturbation-kernel"):
        orbits.bifurcation_family(base, bv((0,), (1,)), 1, 0.3)
    with pytest.raises(ValueError, match="perturbation-kernel"):
        orbits.bifurcation_family(base, bv((1,), (0,)), -1, 0.3)
    # a base supported at degree K - 1 leaves no room for the kernel check
    with pytest.raises(ValueError, match="too close to the cutoff"):
        orbits.bifurcation_family(bv((0,), (CUT.k - 1,)), bv((0,), (CUT.k - 3,)), -2, 0.3)


_ANALYSIS_SETS = [
    (0, -2), (1, -2), (-1, 2), (0, 2),
    (0, -2, -4), (-3, 0, 2), (-2, 0, 2),
    (0, 2, 4), (-4, -2, 0, 2), (-2, 0, 2, 4),
]


@pytest.mark.parametrize("d", [1, 2, 3])
def test_velocity_property_is_orbit_velocity_bit_for_bit(d):
    # the property reads the orbit's certified state; orbit_velocity
    # certifies the state itself first.  The ten index sets of the
    # analysis workload, and the adjacent set (-1, 0, 2) at degrees that
    # no single ladder step joins (-1 at degree 1, 0 at degrees 4 and 6),
    # which is centered through its per-slice sums
    cut = Cutoff(k=8, d=d)
    rng = np.random.default_rng(40 + d)
    adjacent = {-1: (1,), 0: (4, 6), 2: tuple(range(cut.k - 1))}
    idxs = [i for i in fock.basis(cut) if i.degree in adjacent.get(i.excitation, ())]
    amps = rng.normal(size=len(idxs)) + 1j * rng.normal(size=len(idxs))
    states = [random_centered_state(cut, s, rng) for s in _ANALYSIS_SETS]
    states.append(fock.FockVector(cut, dict(zip(idxs, amps / np.linalg.norm(amps)))))
    assert fock.excitations(states[-1]) == [-1, 0, 2]
    for s in states:
        velocity = orbits.orbit_from_state(s).velocity
        assert velocity > 0.0
        assert np.float64(velocity).tobytes() == np.float64(orbits.orbit_velocity(s)).tobytes()
    with pytest.raises(NotCenteredError):
        orbits.orbit_velocity((1 / math.sqrt(2)) * (bv((0,), (0,)) + bv((0,), (1,))))


def test_orbit_velocity_is_exactly_zero_on_single_components():
    # <N^2> - <N>^2 cancels to nonzero values of up to 4e-8 on these states
    cut = Cutoff(k=8, d=3)
    for seed in range(20):
        s = random_component(cut, 2, np.random.default_rng(seed)).normalized()
        assert orbits.orbit_velocity(s) == 0.0

import math

import numpy as np
import pytest

from _support import brute_field, random_centered_state, random_state
from harmonic_hartree import fock, integrate as integ, orbits, reduction as red
from harmonic_hartree.errors import NormalizationError, TruncationError
from harmonic_hartree.fock import Cutoff

CUT = Cutoff(k=8, d=1)


def bv(a, b, cut=CUT):
    return fock.basis_vector(cut, a, b)


def test_dense_field_matches_sparse_field():
    # the integrator's table-driven field against the brute-force matrices
    rng = np.random.default_rng(0)
    for cut in (CUT, Cutoff(k=6, d=2)):
        for _ in range(5):
            y = fock.to_array(random_state(cut, rng, max_degree=cut.k - 2))
            dense = brute_field("sphere", cut, y)
            assert np.abs(integ.sphere_field(cut, y) - dense).max() <= 1e-13


def test_equilibrium_is_stationary_in_quotient():
    v = bv((0,), (1,))
    traj = integ.integrate(v, 4 * math.pi, tol=1e-10, samples=41)
    worst = max(red.projective_distance(s, v) for s in traj.states)
    assert worst <= 1e-9
    drift = integ.conserved_drift(traj)
    assert drift.norm <= 1e-12
    assert drift.mean_n <= 1e-12
    assert drift.energy <= 1e-12


def test_matches_analytic_solution_in_quotient():
    s = (1 / math.sqrt(2)) * (bv((0,), (0,)) + bv((0,), (2,)))
    orbit = orbits.orbit_from_state(s)
    traj = integ.integrate(s, 4 * math.pi, tol=1e-10, samples=41)
    worst = max(
        red.projective_distance(orbits.analytic_solution(orbit, t), st)
        for t, st in zip(traj.times, traj.states)
    )
    assert worst <= 1e-7


def test_energy_drift_over_one_period():
    s = (1 / math.sqrt(2)) * (bv((0,), (0,)) + bv((0,), (2,)))
    orbit = orbits.orbit_from_state(s)
    traj = integ.integrate(s, orbit.relative_period, tol=1e-10, samples=41)
    drift = integ.conserved_drift(traj)
    assert drift.energy <= 1e-9
    assert drift.norm <= 1e-9
    assert drift.mean_n <= 1e-9
    assert traj.max_renormalization <= 10 * 1e-10


def test_coarse_tolerance_drift_is_recorded_not_asserted():
    rng = np.random.default_rng(1)
    s = random_centered_state(CUT, (0, -2), rng)
    traj = integ.integrate(s, math.pi, tol=1e-5, samples=21)
    drift = integ.conserved_drift(traj)
    assert math.isfinite(drift.energy) and math.isfinite(drift.mean_n)
    print(f"coarse tol=1e-5 drifts: norm={drift.norm:.2e} "
          f"meanN={drift.mean_n:.2e} energy={drift.energy:.2e}")


def test_centered_subspace_leakage():
    rng = np.random.default_rng(2)
    s = random_centered_state(CUT, (0, -2, 4), rng)
    parts = fock.component_split(s)
    rows = []
    for _, p in sorted(parts.items()):
        arr = fock.to_array(p)
        rows.append(arr / np.linalg.norm(arr))
    projector = np.array(rows)
    traj = integ.integrate(s, 4 * math.pi, tol=1e-10, samples=81)
    worst = 0.0
    for st in traj.states:
        arr = fock.to_array(st)
        recon = projector.T @ (projector.conj() @ arr)
        worst = max(worst, float(np.linalg.norm(arr - recon)))
    assert worst <= 1e-9


def test_time_reversal():
    rng = np.random.default_rng(3)
    s = random_centered_state(CUT, (0, -2), rng)
    fwd = integ.integrate(s, 2 * math.pi, tol=1e-10, samples=3)
    back = integ.integrate(fwd.states[-1], -2 * math.pi, tol=1e-10, samples=3)
    assert back.times[0] == pytest.approx(-2 * math.pi)
    assert np.all(np.diff(back.times) > 0)
    assert (back.states[0] - s).norm <= 10 * 1e-10


def test_dense_output_accuracy():
    rng = np.random.default_rng(4)
    s = random_centered_state(CUT, (0, -2), rng)
    orbit = orbits.orbit_from_state(s)
    traj = integ.integrate(s, math.pi, tol=1e-10, samples=3)
    for t in rng.uniform(0.05, math.pi - 0.05, size=12):
        interp = traj.interpolate(float(t))
        exact = orbits.analytic_solution(orbit, float(t))
        assert (interp.normalized() - exact).norm <= 1e-8


def test_field_evaluations_per_step(monkeypatch):
    # 1 initial evaluation, 6 stages plus 1 midpoint slope per accepted step,
    # 6 stages per rejected step
    calls = []
    field = integ.sphere_field

    def counted(cutoff, y):
        calls.append(1)
        return field(cutoff, y)

    monkeypatch.setattr(integ, "sphere_field", counted)
    s = random_centered_state(CUT, (0, -2, -4), np.random.default_rng(0))
    traj = integ.integrate(s, 0.5, tol=1e-10, samples=3)
    assert traj.accepted_steps > 0 and traj.rejected_steps > 0
    assert len(calls) == 1 + 7 * traj.accepted_steps + 6 * traj.rejected_steps


def test_continuous_extension_reduces_to_fifth_order_update():
    assert np.abs(integ._P.sum(axis=1) - integ._B5).max() <= 1e-14


@pytest.mark.parametrize(
    "cut, indices, t_end",
    [(CUT, (0, -2), math.pi), (Cutoff(k=6, d=2), (0, -2), math.pi / 4)],
    ids=["d1", "d2"],
)
def test_dense_output_at_mid_step_times(cut, indices, t_end):
    # the quintic's midpoint value comes from the continuous extension, so
    # the segment midpoints are where its error shows first
    s = random_centered_state(cut, indices, np.random.default_rng(5))
    orbit = orbits.orbit_from_state(s)
    traj = integ.integrate(s, t_end, tol=1e-10, samples=3)
    worst = max(
        (traj.interpolate(t) - orbits.analytic_solution(orbit, t)).norm
        for t in (seg.s0 + 0.5 * seg.h for seg in traj._segments)
    )
    assert worst <= 1e-9


def test_interpolate_rejects_out_of_range():
    traj = integ.integrate(bv((0,), (1,)), 1.0, tol=1e-8, samples=3)
    with pytest.raises(ValueError):
        traj.interpolate(2.0)


def test_input_validation():
    v = bv((0,), (1,))
    with pytest.raises(ValueError):
        integ.integrate(v, 1.0, tol=1e-15)
    with pytest.raises(ValueError):
        integ.integrate(v, 1.0, tol=1e-3)
    with pytest.raises(ValueError):
        integ.integrate(v, 0.0)
    with pytest.raises(NormalizationError):
        integ.integrate(2.0 * v, 1.0)
    with pytest.raises(ValueError):
        integ.integrate(bv((0,), (8,)), 1.0)  # boundary support
    with pytest.raises(ValueError):
        integ.integrate(v, 1.0, samples=np.array([0.0, 2.0]))  # outside window
    with pytest.raises(ValueError):
        integ.integrate(v, 1.0, samples=np.array([0.5, np.nan]))


def test_truncation_guard_fires_for_uncentered_boundary_flow():
    # strong first moments push amplitude past the cutoff within one step
    s = ((1 / math.sqrt(2)) * (bv((0,), (6,)) + bv((0,), (5,))))
    with pytest.raises(TruncationError):
        integ.integrate(s, 0.5, tol=1e-8)


def test_conserved_drift_requires_samples():
    traj = integ.integrate(bv((0,), (1,)), 1.0, tol=1e-8, samples=5)
    rec = integ.conserved_drift(traj)
    assert rec.norm >= 0.0


def test_two_dimensional_flow():
    cut = Cutoff(k=4, d=2)
    v = fock.basis_vector(cut, (0, 0), (1, 0))
    traj = integ.integrate(v, math.pi, tol=1e-9, samples=11)
    assert max(red.projective_distance(s, v) for s in traj.states) <= 1e-9

    mix = (1 / math.sqrt(2)) * (
        fock.basis_vector(cut, (0, 0), (0, 0)) + fock.basis_vector(cut, (1, 1), (0, 0))
    )
    orbit = orbits.orbit_from_state(mix)
    assert orbit.relative_period == pytest.approx(math.pi)
    traj = integ.integrate(mix, math.pi, tol=1e-9, samples=11)
    worst = max(
        red.projective_distance(orbits.analytic_solution(orbit, t), st)
        for t, st in zip(traj.times, traj.states)
    )
    assert worst <= 1e-7
    drift = integ.conserved_drift(traj)
    assert drift.energy <= 1e-8 and drift.mean_n <= 1e-8

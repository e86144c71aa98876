import math

import numpy as np
import pytest

from _support import (
    brute_excitation,
    brute_field,
    random_centered_state,
    random_component,
    random_state,
)
from harmonic_hartree import fock, hamiltonian, integrate as integ, orbits, reduction as red
from harmonic_hartree.errors import IntegrationError, NormalizationError, TruncationError
from harmonic_hartree.fock import Cutoff

CUT = Cutoff(k=8, d=1)


def bv(a, b, cut=CUT):
    return fock.basis_vector(cut, a, b)


def kernel_of(cut):
    """The frame-field kernel that ``integrate`` binds for ``cut``."""
    return hamiltonian.frame_kernel(fock.ladder_table(cut), integ._TRUNCATION_FLUX_TOL)


def brute_frame_field(cut, z, theta):
    """e^{iN theta} (F(y) + iN y) at y = e^{-iN theta} z, F the brute-force
    sphere field."""
    n = np.diag(brute_excitation(cut))
    y = np.exp(-1j * n * theta) * z
    return np.exp(1j * n * theta) * (brute_field("sphere", cut, y) + 1j * n * y)


def test_dense_field_matches_sparse_field():
    # the integrator's table-driven frame field against the brute-force
    # matrices, on states with nonzero first moments (the raising branch)
    rng = np.random.default_rng(0)
    for cut in (CUT, Cutoff(k=6, d=2)):
        kernel = kernel_of(cut)
        for _ in range(5):
            z = fock.to_array(random_state(cut, rng, max_degree=cut.k - 2))
            for theta in (0.0, 0.7, -2.3, 4.0):
                dense = brute_frame_field(cut, z, theta)
                assert np.abs(integ.sphere_field(kernel, z, theta) - dense).max() <= 1e-13


@pytest.mark.parametrize("d", [1, 2, 3])
def test_sphere_field_reads_a_padded_buffer_bit_for_bit(d):
    # the field reads only the n coefficients of z, in place: z as the
    # (n,) view of a longer buffer whose extra slot holds NaN, and as an
    # inner-strided view, gives the field of a contiguous copy, bit for
    # bit, on centered states and on states with nonzero first moments
    cut = Cutoff(k=6 if d < 3 else 5, d=d)
    kernel = kernel_of(cut)
    rng = np.random.default_rng(d)
    states = [random_state(cut, rng, max_degree=cut.k - 2),
              random_centered_state(cut, (0, 2), rng)]
    for state in states:
        z = fock.to_array(state)
        padded = np.append(z, np.nan)
        strided = np.repeat(z, 2)[::2]
        for theta in (0.0, 0.7, -2.3):
            field = integ.sphere_field(kernel, z, theta)
            assert field.shape == z.shape
            for view in (padded[: z.size], strided):
                assert field.tobytes() == integ.sphere_field(kernel, view, theta).tobytes()


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("direction", [1.0, -1.0], ids=["forward", "backward"])
def test_stage_derivatives_written_in_place_match_frame_field(d, direction):
    # each stage writes z_j into its row and z'_j into K[j], in
    # place: the bits of the allocating dot of the coefficient row
    # [step A_j reversed | 1] with [K[j-1], ..., K[0], z0] and of an
    # allocating call of a freshly bound frame_kernel on z_j at the angle
    # c_j step, step = direction * h, unnegated in both directions
    cut = Cutoff(k=8, d=d)
    table = fock.ladder_table(cut)
    rng = np.random.default_rng(10 + d)
    # degree <= 2: no stage of the step reaches the cutoff; the first state
    # has nonzero first moments (the raising branch), the second none
    uncentered = random_state(cut, rng, max_degree=2)
    assert abs(hamiltonian.first_moment_a(uncentered, 0)) > 1e-3
    step = direction * 0.05
    for state in (uncentered, random_centered_state(cut, (0, 2), rng)):
        z0 = fock.to_array(state)
        zk, coef, plan = integ._stage_plan(z0.size)
        K = zk[15::-1]  # K[k] is row 15 - k
        zk[16] = z0
        K[0] = hamiltonian.frame_kernel(table, integ._TRUNCATION_FLUX_TOL)(z0, 0.0)
        np.multiply(step, integ._A_REV, out=coef[:, :16])
        z_new = integ._lawson_stages(kernel_of(cut), plan, step)
        assert z_new is plan[-1][0]
        assert (zk[16] == z0).all()
        for j, (inner, *_) in enumerate(plan, start=1):
            assert inner.shape == z0.shape and inner.flags.c_contiguous
            terms = np.array([*K[:j][::-1], z0])
            weights = np.array([*(step * integ._A[j, :j])[::-1], 1.0])
            assert (coef[j, 16 - j :] == weights).all()
            assert inner.tobytes() == np.dot(weights, terms).tobytes()
            # the reassociated sum is the tableau's stage point to rounding
            tableau = z0 + step * (integ._A[j, :j] @ K[:j])
            assert np.abs(inner - tableau).max() <= 1e-15
            theta = integ._C[j] * step
            assert theta != 0.0
            fresh = hamiltonian.frame_kernel(table, integ._TRUNCATION_FLUX_TOL)(
                inner.copy(), theta)
            assert K[j].tobytes() == fresh.tobytes()


def _seeded_centered_state(cut, seed):
    """Seeded unit state on the excitations -4, -2, 0 and 2 of degree
    <= K - 2, drawn in basis order like the per-layer harness's states."""
    idxs = [i for i in fock.basis(cut) if i.excitation in (-4, -2, 0, 2) and i.degree <= cut.k - 2]
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=len(idxs)) + 1j * rng.normal(size=len(idxs))
    amps /= np.linalg.norm(amps)
    return fock.FockVector(cut, {i: complex(a) for i, a in zip(idxs, amps)})


@pytest.mark.parametrize(
    "name, t_end, accepted, rejected",
    [("ci_centered", 2 * math.pi, 39, 5), ("ci_centered", -2 * math.pi, 39, 5),
     ("bench_d1", 2 * math.pi, 45, 4)],
    ids=["ci-forward", "ci-backward", "bench-d1"],
)
def test_step_counts_stay_pinned(name, t_end, accepted, rejected):
    # the stage sums may move in the last bits, the step control may not:
    # the counts of the CI rerun state (excitations 0 and 2, as the CLI
    # runs it) and of the d = 1 rung of the per-layer harness (seed 9,
    # 41 samples)
    if name == "ci_centered":
        state = (0.6 * bv((0,), (0,)) + 0.48j * bv((1,), (1,)) + 0.64 * bv((0,), (2,)))
        traj = integ.integrate(state, t_end, tol=1e-10, samples=65)
    else:
        traj = integ.integrate(_seeded_centered_state(CUT, 9), t_end, tol=1e-10, samples=41)
    assert (traj.accepted_steps, traj.rejected_steps) == (accepted, rejected)


def test_frame_field_flux_abort_follows_the_frame_angle():
    # z = (|0,7> + i|0,8>)/sqrt2 has <z, b z> = i sqrt2: its first moment
    # Re<y, b y> at y = e^{-iN theta} z is sqrt2 sin(theta), so the raising
    # of the degree-K term loses amplitude at theta = pi/2 but not at 0
    kernel = kernel_of(CUT)
    z = fock.to_array((bv((0,), (7,)) + 1j * bv((0,), (8,))).normalized())
    for theta in (0.0, math.pi):
        dense = brute_frame_field(CUT, z, theta)
        assert np.abs(integ.sphere_field(kernel, z, theta) - dense).max() <= 1e-13
    for theta in (math.pi / 2, -math.pi / 2):
        with pytest.raises(TruncationError):
            integ.sphere_field(kernel, z, theta)


def test_flux_abort_raises_through_the_in_place_path():
    # a stage row of the plan and its K[j] target: the abort still
    # raises, before the target is written
    kernel = kernel_of(CUT)
    z = fock.to_array((bv((0,), (7,)) + 1j * bv((0,), (8,))).normalized())
    zk, _, plan = integ._stage_plan(z.size)
    row, out = plan[0][0], plan[0][3]
    assert np.shares_memory(out, zk)
    row[:] = z
    out[:] = 7.0
    integ.sphere_field(kernel, row, math.pi, out)
    assert out.tobytes() == integ.sphere_field(kernel, z, math.pi).tobytes()
    out[:] = 7.0
    for theta in (math.pi / 2, -math.pi / 2):
        with pytest.raises(TruncationError):
            integ.sphere_field(kernel, row, theta, out)
        assert (out == 7.0).all()


@pytest.mark.parametrize("t_end", [0.4, -0.4], ids=["forward", "backward"])
def test_uncentered_flow_matches_brute_force_reference(t_end):
    # an uncentered state keeps the raising branch on at every stage;
    # reference: scipy's DOP853 on the brute-force sphere field
    solve_ivp = pytest.importorskip("scipy.integrate").solve_ivp
    # support degree <= 3, or the leak past K = 8 aborts the integration
    rng = np.random.default_rng(11)
    part = random_component(CUT, 0, rng, margin=5) + random_component(CUT, -2, rng, margin=5)
    odd = random_component(CUT, 1, rng, margin=5)
    s = (part.normalized() + (0.02 / odd.norm) * odd).normalized()
    assert abs(hamiltonian.first_moment_b(s, 0)) > 1e-2
    times = np.linspace(0.0, t_end, 9)
    traj = integ.integrate(s, t_end, tol=1e-10, samples=9)
    ref = solve_ivp(
        lambda t, y: brute_field("sphere", CUT, y), (0.0, t_end), fock.to_array(s),
        method="DOP853", t_eval=times, rtol=1e-13, atol=1e-14,
    )
    assert np.array_equal(traj.times, np.sort(times))
    worst = max(
        np.abs(st.array - ref.y[:, j]).max()
        for j, st in zip(np.argsort(times), traj.states)
    )
    assert worst <= 1e-9


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
    # 1 initial evaluation; 11 stages plus f(y_new) per step, and 3 more
    # dense-output stages per accepted step, forward and backward
    calls = []
    field = integ.sphere_field

    def counted(*args):
        calls.append(1)
        return field(*args)

    monkeypatch.setattr(integ, "sphere_field", counted)
    s = random_centered_state(CUT, (0, -2, -4), np.random.default_rng(0))
    for t_end in (2 * math.pi, -2 * math.pi):
        calls.clear()
        traj = integ.integrate(s, t_end, tol=1e-10, samples=3)
        assert traj.accepted_steps > 0 and traj.rejected_steps > 0
        assert len(calls) == 1 + 15 * traj.accepted_steps + 12 * traj.rejected_steps


def test_fast_phases_are_exact():
    # excitations -6 and 6 at equal weight: <N> = 0, so the state moves only
    # by the fast phases e^{-iNt}, which the frame takes exactly; it may not
    # cost more steps than a slow (0, 2) state
    rng = np.random.default_rng(8)
    phases = np.exp(2j * math.pi * rng.uniform(size=2))
    fast = (phases[0] * bv((6,), (0,)) + phases[1] * bv((0,), (6,))).normalized()
    slow = random_centered_state(CUT, (0, 2), rng)
    steps = []
    for s in (fast, slow):
        orbit = orbits.orbit_from_state(s)
        traj = integ.integrate(s, 2 * math.pi, tol=1e-10, samples=3)
        steps.append(traj.accepted_steps)
        worst = max(
            (traj.interpolate(t) - orbits.analytic_solution(orbit, t)).norm
            for t in (traj._dense.t0 + 0.5 * traj._dense.h).tolist()
            + list(rng.uniform(0.05, 2 * math.pi - 0.05, size=12))
        )
        assert worst <= 1e-9
    assert steps[0] <= steps[1]


def test_tableau_matches_reference_coefficients():
    # the inlined dop853.f literals against scipy's copy of the same table
    ref = pytest.importorskip("scipy.integrate._ivp.dop853_coefficients")
    assert np.array_equal(integ._A, ref.A)
    assert np.array_equal(integ._B, ref.B)
    assert np.array_equal(integ._C, ref.C)
    assert np.array_equal(integ._E5, ref.E5[:12]) and ref.E5[12] == 0.0
    assert np.array_equal(integ._E3, ref.E3[:12]) and ref.E3[12] == 0.0
    assert np.array_equal(integ._ERR, np.stack([ref.E5[:12], ref.E3[:12]]))
    assert np.array_equal(integ._D, ref.D)
    assert np.array_equal(integ._DENSE[3:], ref.D)


def test_tableau_rows_sum_to_stage_times():
    # rounding of the row sums grows with the size of the entries (up to ~43)
    bound = 4 * np.finfo(float).eps * np.abs(integ._A).sum(axis=1)
    assert np.all(np.abs(integ._A.sum(axis=1) - integ._C) <= bound)


def test_dense_output_reproduces_segment_endpoints():
    s = random_centered_state(CUT, (0, -2, -4), np.random.default_rng(0))
    traj = integ.integrate(s, 0.5, tol=1e-10, samples=3)
    dense = traj._dense
    assert len(dense.t0) > 1
    for k in range(len(dense.t0) - 1):
        # row 0 of a segment is its start state y
        start = integ._interp_raw(dense, dense.t0[k : k + 1], [k])
        assert np.abs(start - dense.rows[k, 0]).max() <= 1e-15
        # theta = 1 gives the unprojected step result, which the next
        # segment starts from after projection to the sphere
        end = integ._interp_raw(dense, dense.t0[k : k + 1] + dense.h[k], [k])
        assert np.abs(end / np.linalg.norm(end) - dense.rows[k + 1, 0]).max() <= 1e-15


@pytest.mark.parametrize(
    "cut, indices, t_end",
    [(CUT, (0, -2), math.pi), (Cutoff(k=6, d=2), (0, -2), math.pi / 4)],
    ids=["d1", "d2"],
)
def test_dense_output_at_mid_step_times(cut, indices, t_end):
    # the segment midpoints are where the dense output is farthest from
    # both step endpoints
    s = random_centered_state(cut, indices, np.random.default_rng(5))
    orbit = orbits.orbit_from_state(s)
    traj = integ.integrate(s, t_end, tol=1e-10, samples=3)
    worst = max(
        (traj.interpolate(t) - orbits.analytic_solution(orbit, t)).norm
        for t in (traj._dense.t0 + 0.5 * traj._dense.h).tolist()
    )
    assert worst <= 1e-9


def test_backward_dense_output_at_interior_times():
    cut = Cutoff(k=6, d=2)
    s = random_centered_state(cut, (0, -2), np.random.default_rng(6))
    orbit = orbits.orbit_from_state(s)
    traj = integ.integrate(s, -math.pi / 4, tol=1e-10, samples=3)
    assert np.all(np.diff(traj.times) > 0)
    rng = np.random.default_rng(7)
    times = (traj._dense.t0 + 0.5 * traj._dense.h).tolist()
    times += list(rng.uniform(-math.pi / 4, 0.0, size=12))
    worst = max(
        (traj.interpolate(t) - orbits.analytic_solution(orbit, t)).norm
        for t in times
    )
    assert worst <= 1e-9


def test_interpolate_rejects_out_of_range():
    traj = integ.integrate(bv((0,), (1,)), 1.0, tol=1e-8, samples=3)
    for t in (2.0, float("nan"), float("inf"), -float("inf")):
        with pytest.raises(ValueError):
            traj.interpolate(t)
    # a backward window is [t_end, 0], with the same 1e-9 slack at its end
    back = integ.integrate(bv((0,), (1,)), -1.0, tol=1e-8, samples=3)
    for t in (2.0, -2.0, float("nan"), float("inf"), -float("inf")):
        with pytest.raises(ValueError):
            back.interpolate(t)
    for t in (0.0, -1.0, -1.0 - 5e-10):
        assert back.interpolate(t).cutoff == CUT


@pytest.mark.parametrize("t_end", [2.0, -2.0], ids=["forward", "backward"])
def test_samples_equal_dense_output(t_end):
    # the one-pass sampling against interpolate, one time at a time
    rng = np.random.default_rng(12)
    s = random_centered_state(CUT, (0, -2, -4), rng)
    traj = integ.integrate(s, t_end, tol=1e-10, samples=22)
    assert np.all(np.diff(traj.times) >= 0)
    for t, st in zip(traj.times, traj.states):
        assert not st.array.flags.writeable
        expected = traj.interpolate(float(t)).normalized().array
        assert np.abs(st.array - expected).max() <= 1e-15


@pytest.mark.parametrize(
    "cut, samples",
    [(CUT, 200), (Cutoff(k=6, d=2), 41), (Cutoff(k=5, d=3), 41)],
    ids=["d1", "d2", "d3"],
)
@pytest.mark.parametrize("direction", [1.0, -1.0], ids=["forward", "backward"])
def test_blocked_sampler_is_exact(monkeypatch, cut, samples, direction):
    # the sampled states, their conserved records and the dense output at
    # interior times do not depend on how the samples are blocked: one
    # sample a block against the default blocks, whose rows do not divide
    # the sample count (two or more blocks on every cutoff)
    rows = integ._SAMPLE_BLOCK // cut.size
    assert 1 <= rows < samples and samples % rows
    state = random_centered_state(cut, (0, -2), np.random.default_rng(cut.d))
    t_end = direction * (math.pi if cut.d == 1 else math.pi / 8)
    interior = (t_end * np.random.default_rng(30).uniform(size=5)).tolist()
    trajs = [integ.integrate(state, t_end, tol=1e-10, samples=samples)]
    monkeypatch.setattr(integ, "_SAMPLE_BLOCK", 1)
    trajs.append(integ.integrate(state, t_end, tol=1e-10, samples=samples))
    default, single = [
        [traj.times, traj.norm, traj.mean_n, traj.energy]
        + [st.array for st in traj.states] + [traj.interpolate(t).array for t in interior]
        for traj in trajs
    ]
    assert len(default) == 4 + samples + len(interior)
    assert all(a.tobytes() == b.tobytes() for a, b in zip(default, single))
    assert all(not st.array.flags.writeable for st in trajs[1].states)


@pytest.mark.parametrize(
    "samples",
    [True, np.True_, 2.5, np.float64(3.0), -3, "5", np.zeros((2, 3)), np.zeros((3, 1)),
     0, np.zeros(23302)],
    ids=["true", "numpy-true", "fraction", "float", "negative", "string", "2d", "column",
         "zero", "times"],
)
def test_samples_argument_is_checked(monkeypatch, samples):
    # samples is a count, an integer >= 1; anything else, an array of
    # times included, is rejected by name before the field is evaluated
    def fail(*args):
        raise AssertionError("the field was evaluated")

    monkeypatch.setattr(integ, "sphere_field", fail)
    with pytest.raises(ValueError, match="^samples must be a count >= 1"):
        integ.integrate(bv((0,), (1,)), 1.0, samples=samples)


def test_trajectory_repr_omits_segments():
    traj = integ.integrate(bv((0,), (1,)), 1.0, tol=1e-10, samples=3)
    assert len(traj._dense.t0) > 1
    assert "_DenseOutput" not in repr(traj) and "rows=" not in repr(traj)


def test_oversized_sample_table_is_rejected_before_integrating(monkeypatch):
    def fail(*args):
        raise AssertionError("the field was evaluated")

    monkeypatch.setattr(integ, "sphere_field", fail)
    v = bv((0,), (1,))  # basis size 45: 2^20 entries are 23301 samples
    for samples in (23302, 10**8):
        with pytest.raises(ValueError, match="too large"):
            integ.integrate(v, 1.0, samples=samples)


def test_span_beyond_step_budget_is_rejected_before_integrating(monkeypatch):
    def fail(*args):
        raise AssertionError("the field was evaluated")

    monkeypatch.setattr(integ, "sphere_field", fail)
    v = bv((0,), (1,))
    for t_end in (25000.001, -1e7, 1e300):  # 100000 steps of at most 0.25
        with pytest.raises(ValueError, match="too large"):
            integ.integrate(v, t_end, samples=3)


def test_step_budget_counts_accepted_and_rejected_steps(monkeypatch):
    state = random_centered_state(CUT, (0, -2, -4), np.random.default_rng(0))
    traj = integ.integrate(state, 2 * math.pi, samples=3)
    assert traj.rejected_steps > 0
    steps = traj.accepted_steps + traj.rejected_steps
    monkeypatch.setattr(integ, "_MAX_STEPS", steps)
    assert integ.integrate(state, 2 * math.pi, samples=3).accepted_steps == traj.accepted_steps
    monkeypatch.setattr(integ, "_MAX_STEPS", steps - 1)
    with pytest.raises(IntegrationError, match="step budget"):
        integ.integrate(state, 2 * math.pi, samples=3)


def test_backward_step_budget_names_a_time_inside_the_window(monkeypatch):
    state = random_centered_state(CUT, (0, -2, -4), np.random.default_rng(0))
    traj = integ.integrate(state, -math.pi, samples=3)
    monkeypatch.setattr(integ, "_MAX_STEPS", traj.accepted_steps // 2)
    with pytest.raises(IntegrationError, match="step budget") as info:
        integ.integrate(state, -math.pi, samples=3)
    t = float(str(info.value).rpartition("at t=")[2])
    assert -math.pi <= t < 0.0


def test_step_size_underflow_is_reported(monkeypatch):
    # a step cap below 1e-14 sends the first step under the floor
    monkeypatch.setattr(integ, "_H_MAX", 1e-15)
    with pytest.raises(IntegrationError, match="step size underflow at t=0"):
        integ.integrate(bv((0,), (1,)), 5e-11, samples=3)


def test_sphere_projection_beyond_ten_tolerances_is_reported(monkeypatch):
    # a radial growth the sphere flow does not have leaves the sphere in the
    # first step
    field = integ.sphere_field

    def growing(kernel, z, theta, out=None):
        out = field(kernel, z, theta, out)
        out += 1e-6 * z
        return out

    monkeypatch.setattr(integ, "sphere_field", growing)
    with pytest.raises(IntegrationError, match="sphere projection .* exceeded 10\\*tol at t=0"):
        integ.integrate(bv((0,), (1,)), 1.0, samples=3)


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


@pytest.mark.parametrize("d", [1, 2, 3])
def test_initial_figures_are_those_of_the_sample_at_time_zero(d):
    # the sample at t = 0 is the initial state, the one 0.0 of the times,
    # and the drift measures <N> and energy from its figures bit for bit,
    # forward and backward, on seeded states with and without first moments
    cut = Cutoff(k=8, d=d)
    for seed in range(3):
        rng = np.random.default_rng(100 * d + seed)
        for state in (random_state(cut, rng, max_degree=2),
                      random_centered_state(cut, (0, 2), rng)):
            for t_end in (0.01, -0.01):
                traj = integ.integrate(state, t_end, samples=3)
                first = 0 if t_end > 0 else -1
                assert traj.times[first] == 0.0
                assert np.count_nonzero(traj.times == 0.0) == 1
                drift = integ.conserved_drift(traj)
                assert drift.mean_n == np.max(np.abs(traj.mean_n - traj.mean_n[first])), (seed, t_end)
                assert drift.energy == np.max(np.abs(traj.energy - traj.energy[first])), (seed, t_end)

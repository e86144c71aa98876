"""Acceptance suite: one check per shipped guarantee, at fixed tolerances.

Run under pytest (part of the default suite) or standalone for a compact
pass/fail report:

    python tests/test_acceptance.py
"""

import math
import time

import numpy as np

import _support
from _support import (
    aligned_distance,
    measure_closure_time,
    random_centered_state,
    random_component,
    random_state,
)
from harmonic_hartree import equilibria as eq
from harmonic_hartree import fock, hamiltonian as ham, integrate as integ
from harmonic_hartree import orbits, pipeline as pl, reduction as red
from harmonic_hartree.fock import Cutoff
from harmonic_hartree.hamiltonian import FieldKind

CUT8 = Cutoff(k=8, d=1)


def bv(a, b, cut=CUT8):
    return fock.basis_vector(cut, a, b)


def example_family_density(x, v, t, gamma):
    # independently derived closed form of the two-state family density;
    # see test_pipeline.test_symbolic_rederivation_of_example_density
    c2 = math.cos(gamma / 2) ** 2
    s2 = math.sin(gamma / 2) ** 2
    r2 = x**2 + v**2
    osc = math.cos(2 * t) * (x**2 - v**2) - math.sin(2 * t) * (2 * x * v)
    return np.exp(-r2) / math.pi * (
        c2 + 0.5 * s2 * r2**2 + math.sin(gamma) / math.sqrt(2) * osc
    )


def criterion_1_ladder_exactness():
    """Commutators, adjointness, excitation eigenrelations at K=8, d in {1,2}."""
    worst = 0.0
    for d in (1, 2):
        cut = Cutoff(k=8, d=d)
        interior = [i for i in fock.basis(cut) if i.degree <= cut.k - 2]
        for idx in interior:
            v = fock.FockVector(cut, {idx: 1.0 + 0j})
            for i in range(d):
                same = fock.apply_lowering_a(i, fock.apply_raising_a(i, v)) - \
                    fock.apply_raising_a(i, fock.apply_lowering_a(i, v))
                worst = max(worst, (same - v).norm)
                same = fock.apply_lowering_b(i, fock.apply_raising_b(i, v)) - \
                    fock.apply_raising_b(i, fock.apply_lowering_b(i, v))
                worst = max(worst, (same - v).norm)
                mixed = fock.apply_lowering_a(i, fock.apply_raising_b(i, v)) - \
                    fock.apply_raising_b(i, fock.apply_lowering_a(i, v))
                worst = max(worst, mixed.norm)
            nv = fock.apply_excitation(v)
            worst = max(worst, (nv - float(idx.excitation) * v).norm)
        # adjointness on unit states supported at degree <= K - 1
        rng = np.random.default_rng(100 + d)
        for _ in range(5):
            u = random_state(cut, rng, max_degree=cut.k - 1)
            w = random_state(cut, rng, max_degree=cut.k - 1)
            for i in range(d):
                worst = max(worst, abs(
                    fock.inner(fock.apply_raising_a(i, u), w)
                    - fock.inner(u, fock.apply_lowering_a(i, w))
                ))
                worst = max(worst, abs(
                    fock.inner(fock.apply_raising_b(i, u), w)
                    - fock.inner(u, fock.apply_lowering_b(i, w))
                ))
    assert worst <= 1e-14, f"ladder defect {worst:.3e}"
    return f"worst defect {worst:.2e} (tol 1e-14)"


def criterion_2_relative_equilibria():
    """Chart field vanishes at every excitation eigenvector (K=6, d=1)."""
    cut = Cutoff(k=6, d=1)
    worst = 0.0
    for idx in fock.basis(cut):
        v = fock.FockVector(cut, {idx: 1.0 + 0j})
        worst = max(worst, ham.vector_field(FieldKind.CHART, v).norm)
    rng = np.random.default_rng(200)
    for n in (-3, -1, 0, 2, 4):
        v = random_component(cut, n, rng, margin=0).normalized()
        worst = max(worst, ham.vector_field(FieldKind.CHART, v).norm)
    assert worst <= 1e-13, f"equilibrium residual {worst:.3e}"
    return f"worst field norm {worst:.2e} (tol 1e-13)"


def criterion_3_spectrum_structure():
    """Linearization spectrum at two equilibria, K=6, d=1."""
    cut = Cutoff(k=6, d=1)
    idxs = fock.basis(cut)
    interior = np.array([1.0 if i.degree <= cut.k - 2 else 0.0 for i in idxs])
    rng = np.random.default_rng(300)
    worst_re = worst_block = worst_fd = 0.0
    max_pert = 0
    for a, b in [((0,), (0,)), ((0,), (2,))]:
        base = bv(a, b, cut)
        rep = eq.linearize(base)
        eigs = np.array(rep.eigenvalues)
        worst_re = max(worst_re, float(np.abs(eigs.real).max()))
        worst_block = max(worst_block, rep.kernel_block_deviation)
        max_pert = max(max_pert, rep.perturbed_subspace_dim)
        chart = rep.chart
        base_arr = fock.to_array(base)
        m = chart.shape[1]
        for _ in range(6):
            xi = rng.normal(size=2 * m)
            delta = chart @ (xi[0::2] + 1j * xi[1::2])
            delta *= interior
            delta -= np.vdot(base_arr, delta) * base_arr
            delta /= np.linalg.norm(delta)
            g = chart.conj().T @ delta
            coords = np.empty(2 * m)
            coords[0::2], coords[1::2] = g.real, g.imag
            h = 1e-5
            dvec = fock.from_array(cut, delta)
            plus = ham.vector_field(FieldKind.CHART, base + h * dvec)
            minus = ham.vector_field(FieldKind.CHART, base + (-h) * dvec)
            fd = chart.conj().T @ fock.to_array((1.0 / (2 * h)) * (plus - minus))
            fd_coords = np.empty(2 * m)
            fd_coords[0::2], fd_coords[1::2] = fd.real, fd.imag
            ref = rep.matrix @ coords
            worst_fd = max(
                worst_fd,
                float(np.linalg.norm(fd_coords - ref) / max(1.0, np.linalg.norm(ref))),
            )
    assert worst_re <= 1e-9, f"real part {worst_re:.3e}"
    assert worst_block <= 1e-12, f"kernel block deviation {worst_block:.3e}"
    assert max_pert <= 4, f"perturbed dimension {max_pert}"
    assert worst_fd <= 1e-6, f"finite-difference defect {worst_fd:.3e}"
    return (
        f"max|Re| {worst_re:.1e}, block dev {worst_block:.1e}, "
        f"pert dim {max_pert} <= 4, FD {worst_fd:.1e}"
    )


_CENTERED_SETS = [
    (0, -2), (1, -2), (-1, 2), (0, 2),
    (0, -2, -4), (-3, 0, 2), (-2, 0, 2),
    (0, 2, 4), (-4, -2, 0, 2), (-2, 0, 2, 4),
]


def criterion_4_analytic_vs_numerical():
    """Closed-form solutions track the adaptive integrator to 1e-7."""
    rng = np.random.default_rng(400)
    worst = 0.0
    for k, indices in enumerate(_CENTERED_SETS):
        s = random_centered_state(CUT8, indices, rng)
        orbit = orbits.orbit_from_state(s)
        traj = integ.integrate(s, 4 * math.pi, tol=1e-10, samples=41)
        for t, st in zip(traj.times, traj.states):
            worst = max(
                worst, red.projective_distance(orbits.analytic_solution(orbit, t), st)
            )
    assert worst <= 1e-7, f"oracle mismatch {worst:.3e}"
    return f"10 orbits, max quotient distance {worst:.2e} (tol 1e-7)"


def criterion_5_relative_periods():
    """Measured closure times match 2 pi / gcd of the index gaps."""
    rng = np.random.default_rng(500)
    cases = [
        (random_centered_state(CUT8, (0, -2), rng), math.pi),
        (random_centered_state(CUT8, (0, -2, -4), rng), math.pi),
        (
            (1 / math.sqrt(3)) * (bv((0,), (0,)) + bv((2,), (4,)) + bv((0,), (3,))),
            2 * math.pi,
        ),
    ]
    worst_time = worst_dist = 0.0
    for state, expected in cases:
        traj = integ.integrate(state, 4 * math.pi, tol=1e-10, samples=3)
        y0 = fock.to_array(state)
        measured = measure_closure_time(traj, y0)
        worst_time = max(worst_time, abs(measured - expected))
        arr = fock.to_array(traj.interpolate(expected))
        worst_dist = max(worst_dist, aligned_distance(arr / np.linalg.norm(arr), y0))
    assert worst_time <= 1e-6, f"period mismatch {worst_time:.3e}"
    assert worst_dist <= 1e-8, f"closure distance {worst_dist:.3e}"
    return f"max period error {worst_time:.2e}, closure distance {worst_dist:.2e}"


def criterion_6_constant_velocity():
    """Projected speed is constant and equals sqrt(<N^2> - <N>^2)."""
    rng = np.random.default_rng(600)
    h = 1e-6
    worst_match = worst_spread = 0.0
    for indices in [(0, -2), (-2, 1, 4), (0, 2, 4)]:
        s = random_centered_state(CUT8, indices, rng)
        v = orbits.orbit_velocity(s)
        orbit = orbits.orbit_from_state(s)
        speeds = []
        for t in np.linspace(0.0, 3.0, 13):
            a = orbits.analytic_solution(orbit, t)
            b = orbits.analytic_solution(orbit, t + h)
            speeds.append(red.projective_distance(a, b) / h)
        speeds = np.array(speeds)
        worst_match = max(worst_match, float(np.abs(speeds - v).max()))
        worst_spread = max(worst_spread, float(speeds.max() - speeds.min()))
    assert worst_match <= 1e-6, f"speed vs variance {worst_match:.3e}"
    assert worst_spread <= 1e-6, f"speed spread {worst_spread:.3e}"
    return f"speed error {worst_match:.2e}, spread {worst_spread:.2e}"


def criterion_7_interpolating_family():
    """Eight interior family members share the period pi; endpoints are
    relatively constant."""
    v_n, v_m = bv((0,), (0,)), bv((2,), (0,))
    worst_period = 0.0
    for j in range(1, 9):
        gamma = math.pi * j / 9
        orbit = orbits.orbit_from_state(orbits.interpolating_family(v_n, v_m, gamma))
        worst_period = max(worst_period, abs(orbit.relative_period - math.pi))
        # closure of the analytic trajectory at the shared period
        a = orbits.analytic_solution(orbit, 0.6)
        b = orbits.analytic_solution(orbit, 0.6 + math.pi)
        worst_period = max(worst_period, red.projective_distance(a, b))
    worst_drift = 0.0
    for endpoint in (v_n, v_m):
        traj = integ.integrate(endpoint, 2 * math.pi, tol=1e-10, samples=21)
        worst_drift = max(
            worst_drift,
            max(red.projective_distance(s, endpoint) for s in traj.states),
        )
    assert worst_period <= 1e-6, f"family period defect {worst_period:.3e}"
    assert worst_drift <= 1e-9, f"endpoint drift {worst_drift:.3e}"
    return f"period defect {worst_period:.2e}, endpoint drift {worst_drift:.2e}"


def criterion_8_conservation():
    """Norm, excitation mean, energy conserved along the flow; grid-side
    charges conserved along the pipeline orbit."""
    rng = np.random.default_rng(800)
    s = random_centered_state(CUT8, (0, -2), rng)
    orbit = orbits.orbit_from_state(s)
    traj = integ.integrate(s, orbit.relative_period, tol=1e-10, samples=41)
    drift = integ.conserved_drift(traj)
    assert drift.norm <= 1e-9, f"norm drift {drift.norm:.3e}"
    assert drift.mean_n <= 1e-9, f"excitation drift {drift.mean_n:.3e}"
    assert drift.energy <= 1e-9, f"energy drift {drift.energy:.3e}"

    spec = pl.GridSpec(n=256, extent=8.0)
    family = orbits.orbit_from_state(
        orbits.interpolating_family(bv((0,), (0,)), bv((2,), (0,)), math.pi / 2)
    )
    charges = []
    for t in np.linspace(0.0, math.pi, 5):
        field = pl.state_to_classical(orbits.analytic_solution(family, t), spec)
        charges.append(pl.noether_charges(field))
    mass0, pseudo0, mom0 = charges[0]
    grid_drift = max(
        max(abs(m - mass0), abs(p - pseudo0), abs(q - mom0)) for m, p, q in charges[1:]
    )
    assert grid_drift <= 1e-6, f"grid charge drift {grid_drift:.3e}"
    return (
        f"drifts norm {drift.norm:.1e} / <N> {drift.mean_n:.1e} / "
        f"H {drift.energy:.1e}; grid charges {grid_drift:.1e}"
    )


def criterion_9_centered_invariance():
    """Numerical flow stays inside the minimal centered subspace."""
    rng = np.random.default_rng(900)
    worst = 0.0
    for indices in [(0, -2), (0, -2, 4)]:
        s = random_centered_state(CUT8, indices, rng)
        rows = []
        for _, p in sorted(fock.component_split(s).items()):
            arr = fock.to_array(p)
            rows.append(arr / np.linalg.norm(arr))
        projector = np.array(rows)
        traj = integ.integrate(s, 4 * math.pi, tol=1e-10, samples=81)
        for st in traj.states:
            arr = fock.to_array(st)
            recon = projector.T @ (projector.conj() @ arr)
            worst = max(worst, float(np.linalg.norm(arr - recon)))
    assert worst <= 1e-9, f"leakage {worst:.3e}"
    return f"max leakage {worst:.2e} (tol 1e-9)"


def criterion_10_pipeline_end_to_end():
    """Grid densities match the derived closed form, solve the transport
    equation, follow the rigid rotation, and are pi-periodic."""
    gamma = math.pi / 2
    spec = pl.GridSpec(n=256, extent=8.0)
    orbit = orbits.orbit_from_state(
        orbits.interpolating_family(bv((0,), (0,)), bv((2,), (0,)), gamma)
    )
    ax = spec.axis()
    x, v = np.meshgrid(ax, ax, indexing="ij")

    def f_at(t):
        state = orbits.analytic_solution(orbit, t)
        return pl.density(pl.state_to_classical(state, spec))[0]

    worst_form = 0.0
    for t in (0.0, math.pi / 4, math.pi / 2):
        worst_form = max(
            worst_form,
            float(np.abs(f_at(t) - example_family_density(x, v, t, gamma)).max()),
        )
    assert worst_form <= 1e-6, f"closed-form mismatch {worst_form:.3e}"

    dt = 1e-3
    residual = pl.vlasov_residual([f_at(0.7 - dt), f_at(0.7), f_at(0.7 + dt)], dt, spec)
    assert residual <= 1e-4, f"transport residual {residual:.3e}"

    f0 = f_at(0.0)
    worst_rot = max(
        float(np.abs(f_at(t) - _support.rotating_oracle(f0, t, spec)).max())
        for t in (0.4, math.pi / 4)
    )
    assert worst_rot <= 1e-4, f"rotation mismatch {worst_rot:.3e}"

    worst_periodic = float(np.abs(f_at(0.3 + math.pi) - f_at(0.3)).max())
    assert worst_periodic <= 1e-6, f"periodicity defect {worst_periodic:.3e}"
    return (
        f"closed form {worst_form:.1e}, residual {residual:.1e}, "
        f"rotation {worst_rot:.1e}, periodicity {worst_periodic:.1e}"
    )


def criterion_11_reduction_geometry():
    """Pullback identity, projection kernel, and field pushforward."""
    rng = np.random.default_rng(1100)
    worst_pullback = worst_kernel = worst_push = 0.0
    for _ in range(20):
        base = random_state(CUT8, rng, max_degree=CUT8.k - 2)
        d1 = random_state(CUT8, rng)
        d1 = d1 - complex(fock.inner(d1, base).real) * base
        d2 = random_state(CUT8, rng)
        d2 = d2 - complex(fock.inner(d2, base).real) * base
        ambient = red.ambient_form(d1, d2)
        quotient = red.symplectic_form(
            base, red.project_tangent(base, d1), red.project_tangent(base, d2)
        )
        worst_pullback = max(worst_pullback, abs(ambient - quotient))
        worst_kernel = max(
            worst_kernel, red.project_tangent(base, (0.7j) * base).norm
        )
        z = ham.vector_field(FieldKind.SPHERE, base)
        x_field = ham.vector_field(FieldKind.CHART, base)
        worst_push = max(worst_push, (red.project_tangent(base, z) - x_field).norm)
    assert worst_pullback <= 1e-12, f"pullback defect {worst_pullback:.3e}"
    assert worst_kernel <= 1e-12, f"kernel defect {worst_kernel:.3e}"
    assert worst_push <= 1e-12, f"pushforward defect {worst_push:.3e}"
    return (
        f"pullback {worst_pullback:.1e}, kernel {worst_kernel:.1e}, "
        f"pushforward {worst_push:.1e}"
    )


_CRITERIA = [
    ("ladder algebra exactness", criterion_1_ladder_exactness),
    ("relative equilibria", criterion_2_relative_equilibria),
    ("linearization spectrum structure", criterion_3_spectrum_structure),
    ("analytic vs numerical orbits", criterion_4_analytic_vs_numerical),
    ("relative periods", criterion_5_relative_periods),
    ("constant velocity", criterion_6_constant_velocity),
    ("interpolating family", criterion_7_interpolating_family),
    ("conservation suite", criterion_8_conservation),
    ("centered-subspace invariance", criterion_9_centered_invariance),
    ("pipeline end to end", criterion_10_pipeline_end_to_end),
    ("reduction geometry", criterion_11_reduction_geometry),
]


def _run(number, name, fn):
    detail = fn()
    print(f"[PASS] criterion {number:2d} ({name}): {detail}")


def test_criterion_01():
    _run(1, *(_CRITERIA[0]))


def test_criterion_02():
    _run(2, *(_CRITERIA[1]))


def test_criterion_03():
    _run(3, *(_CRITERIA[2]))


def test_criterion_04():
    _run(4, *(_CRITERIA[3]))


def test_criterion_05():
    _run(5, *(_CRITERIA[4]))


def test_criterion_06():
    _run(6, *(_CRITERIA[5]))


def test_criterion_07():
    _run(7, *(_CRITERIA[6]))


def test_criterion_08():
    _run(8, *(_CRITERIA[7]))


def test_criterion_09():
    _run(9, *(_CRITERIA[8]))


def test_criterion_10():
    _run(10, *(_CRITERIA[9]))


def test_criterion_11():
    _run(11, *(_CRITERIA[10]))


if __name__ == "__main__":
    failures = 0
    for k, (name, fn) in enumerate(_CRITERIA, start=1):
        start = time.time()
        try:
            detail = fn()
            print(f"[PASS] criterion {k:2d} ({name}): {detail} "
                  f"[{time.time() - start:.1f}s]")
        except AssertionError as exc:
            failures += 1
            print(f"[FAIL] criterion {k:2d} ({name}): {exc} "
                  f"[{time.time() - start:.1f}s]")
    raise SystemExit(1 if failures else 0)

import math

import numpy as np
import pytest

import _support
from harmonic_hartree import fock, hamiltonian, orbits, pipeline as pl
from harmonic_hartree.fock import Cutoff

CUT = Cutoff(k=8, d=1)
SPEC = pl.GridSpec(n=256, extent=8.0)


def bv(a, b, cut=CUT):
    return fock.basis_vector(cut, a, b)


def example_family_state(gamma):
    return orbits.interpolating_family(bv((0,), (0,)), bv((2,), (0,)), gamma)


def example_family_density(x, v, t, gamma):
    """Closed-form density of the two-state interpolating family.

    Derived independently by pushing cos(g/2) h0(q)h0(p) +
    sin(g/2) e^{2it} h2(q)h0(p) through the 45-degree rotation and the
    inverse velocity Fourier transform (Gaussian moment integrals), then
    taking the squared magnitude; cross-checked symbolically in
    test_symbolic_rederivation_of_example_density.
    """
    c2 = math.cos(gamma / 2) ** 2
    s2 = math.sin(gamma / 2) ** 2
    r2 = x**2 + v**2
    osc = math.cos(2 * t) * (x**2 - v**2) - math.sin(2 * t) * (2 * x * v)
    return (
        np.exp(-r2)
        / math.pi
        * (c2 + 0.5 * s2 * r2**2 + math.sin(gamma) / math.sqrt(2) * osc)
    )


def example_family_marginal(x, t, gamma):
    c2 = math.cos(gamma / 2) ** 2
    s2 = math.sin(gamma / 2) ** 2
    return (
        np.exp(-(x**2))
        / math.sqrt(math.pi)
        * (
            c2
            + 0.5 * s2 * (x**4 + x**2 + 0.75)
            + math.sin(gamma) * math.cos(2 * t) * (x**2 - 0.5) / math.sqrt(2)
        )
    )


# ---------------------------------------------------------------------------
# grid plumbing

def test_grid_spec_validation():
    with pytest.raises(ValueError):
        pl.GridSpec(n=100, extent=8.0)  # not a power of two
    with pytest.raises(ValueError):
        pl.GridSpec(n=16, extent=8.0)  # too small
    with pytest.raises(ValueError):
        pl.GridSpec(n=64, extent=0.0)
    for n in (8192, 2**46):  # n^2 past the 2^24 entries of one grid
        with pytest.raises(ValueError, match="too large"):
            pl.GridSpec(n=n, extent=8.0)
    assert pl.GridSpec(n=4096, extent=8.0).n == 4096
    spec = pl.GridSpec(n=64, extent=4.0)
    ax = spec.axis()
    assert ax[0] == -4.0 and len(ax) == 64
    assert spec.step == pytest.approx(0.125)


def test_grid_spec_rejects_steps_above_one_oscillator_length():
    for n, extent in ((256, 8.0), (128, 6.0), (32, 16.0)):
        assert pl.GridSpec(n=n, extent=extent).step <= 1.0
    for extent in (16.5, 1e100, 1e150):
        with pytest.raises(ValueError, match="extent"):
            pl.GridSpec(n=32, extent=extent)


# ---------------------------------------------------------------------------
# Hermite functions

def test_hermite_ground_state_value():
    assert pl.hermite_eval(0, 0.0) == pytest.approx(math.pi ** (-0.25))


def test_hermite_orthonormality_by_quadrature():
    nodes, weights = np.polynomial.hermite.hermgauss(64)
    table = pl.hermite_table(12, nodes)
    for m in range(13):
        for n in range(13):
            val = float(np.sum(weights * table[m] * table[n] * np.exp(nodes**2)))
            assert val == pytest.approx(1.0 if m == n else 0.0, abs=1e-10)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
def test_hermite_table_rejects_a_non_finite_point(bad):
    # a NaN point gave NaN rows, and an infinite one a RuntimeWarning
    with pytest.raises(ValueError, match="non-finite x"):
        pl.hermite_table(3, [0.5, bad])


def test_hermite_raising_consistency():
    # (x h_n - h_n') / sqrt(2) = sqrt(n+1) h_{n+1}, derivative by recurrence
    xs = np.linspace(-6.0, 6.0, 100)
    table = pl.hermite_table(13, xs)
    for n in range(12):
        if n >= 1:
            deriv = math.sqrt(n / 2) * table[n - 1] - math.sqrt((n + 1) / 2) * table[n + 1]
        else:
            deriv = -math.sqrt(0.5) * table[1]
        lhs = (xs * table[n] - deriv) / math.sqrt(2)
        assert np.abs(lhs - math.sqrt(n + 1) * table[n + 1]).max() <= 1e-10


# ---------------------------------------------------------------------------
# synthesis

def test_synthesize_ground_state():
    field = pl.synthesize_position(bv((0,), (0,)), SPEC)
    ax = SPEC.axis()
    q, p = np.meshgrid(ax, ax, indexing="ij")
    expected = np.exp(-(q**2 + p**2) / 2) / math.sqrt(math.pi)
    assert np.abs(field.values - expected).max() <= 1e-13
    assert pl.grid_norm_sq(field) == pytest.approx(1.0, abs=1e-8)


def test_synthesize_second_excited():
    # normalized eigenfunction carries (2 q^2 - 1)/sqrt(2)
    field = pl.synthesize_position(bv((2,), (0,)), SPEC)
    ax = SPEC.axis()
    q, p = np.meshgrid(ax, ax, indexing="ij")
    expected = (
        np.exp(-(q**2 + p**2) / 2) / math.sqrt(math.pi) * (2 * q**2 - 1) / math.sqrt(2)
    )
    assert np.abs(field.values - expected).max() <= 1e-13
    assert pl.grid_norm_sq(field) == pytest.approx(1.0, abs=1e-8)


def test_synthesize_norm_at_coarser_grid():
    # the discrete norm matches to 1e-8 already at n = 128 for degrees <= 8
    spec = pl.GridSpec(n=128, extent=8.0)
    state = example_family_state(1.3)
    assert pl.grid_norm_sq(pl.synthesize_position(state, spec)) == pytest.approx(
        1.0, abs=1e-8
    )
    top = pl.synthesize_position(bv((4,), (4,)), spec)
    assert pl.grid_norm_sq(top) == pytest.approx(1.0, abs=1e-8)


def test_synthesize_linearity():
    rng = np.random.default_rng(0)
    c1, c2 = complex(*rng.normal(size=2)), complex(*rng.normal(size=2))
    a = pl.synthesize_position(bv((1,), (2,)), SPEC)
    b = pl.synthesize_position(bv((0,), (3,)), SPEC)
    combo = pl.synthesize_position(c1 * bv((1,), (2,)) + c2 * bv((0,), (3,)), SPEC)
    assert np.abs(combo.values - (c1 * a.values + c2 * b.values)).max() <= 1e-12


def test_synthesize_rejects_d2():
    cut2 = Cutoff(k=2, d=2)
    for synthesize in (pl.synthesize_position, pl.state_to_classical):
        with pytest.raises(ValueError, match="d = 1 only"):
            synthesize(fock.basis_vector(cut2, (0, 0), (0, 0)), SPEC)


def test_hermite_tables_are_bounded_by_the_state_degree(monkeypatch):
    # n = 4096 is 2^24 grid points: one synthesis table row fits the bound,
    # a degree-2 state's three rows do not; the classical chain's n^2
    # output grid fits at n = 4096, not at n = 8192.  What the bound
    # rejects is rejected before any Hermite table is built.
    def fail(*args):
        raise AssertionError("a Hermite table was built")

    monkeypatch.setattr(pl, "hermite_table", fail)
    big = pl.GridSpec(n=4096, extent=8.0)
    state = (bv((0,), (0,)) + bv((2,), (0,))).normalized()
    with pytest.raises(ValueError, match="too large"):
        pl.synthesize_position(state, big)
    with pytest.raises(ValueError, match="too large"):
        pl.state_to_classical(state, pl.GridSpec(n=8192, extent=8.0))
    for fits in (lambda: pl.synthesize_position(bv((0,), (0,)), big),
                 lambda: pl.state_to_classical(state, big)):
        with pytest.raises(AssertionError, match="table was built"):
            fits()


# ---------------------------------------------------------------------------
# tau rotation

def test_tau_fixed_point_radial_gaussian():
    field = pl.synthesize_position(bv((0,), (0,)), SPEC)
    rotated = _support.tau_pullback(field)
    assert np.abs(rotated.values - field.values).max() <= 1e-6


def test_tau_is_self_inverse():
    state = example_family_state(1.1)
    field = pl.synthesize_position(state, SPEC)
    once = _support.tau_pullback(field)
    twice = _support.tau_pullback(pl.GridField(once.spec, once.values, "qp"))
    assert np.abs(twice.values - field.values).max() <= 5e-7  # 2x bicubic budget


def test_tau_analytic_image():
    # h2(q) h0(p) maps to ((x+xi)^2 - 1)/sqrt(2) times the radial Gaussian
    field = pl.synthesize_position(bv((2,), (0,)), SPEC)
    out = _support.tau_pullback(field)
    ax = SPEC.axis()
    x, xi = np.meshgrid(ax, ax, indexing="ij")
    expected = (
        np.exp(-(x**2 + xi**2) / 2)
        / math.sqrt(math.pi)
        * ((x + xi) ** 2 - 1)
        / math.sqrt(2)
    )
    assert np.abs(out.values - expected).max() <= 1e-5  # bicubic at 45 degrees
    assert abs(pl.grid_norm_sq(out) - 1.0) <= 1e-6


def test_tau_oversampled_source_is_sharp():
    state = example_family_state(0.9)
    fine = pl.GridSpec(n=1024, extent=8.0)
    out = _support.tau_pullback(pl.synthesize_position(state, fine), SPEC)
    ax = SPEC.axis()
    x, xi = np.meshgrid(ax, ax, indexing="ij")
    q, p = (x + xi) / math.sqrt(2), (x - xi) / math.sqrt(2)
    table_q = pl.hermite_table(2, q.ravel())
    expected = (
        math.cos(0.45) * table_q[0].reshape(q.shape) * pl.hermite_eval(0, p)
        + math.sin(0.45) * table_q[2].reshape(q.shape) * pl.hermite_eval(0, p)
    )
    assert np.abs(out.values - expected).max() <= 1e-8


def test_tau_requires_qp_stage():
    field = pl.synthesize_position(bv((0,), (0,)), SPEC)
    moved = _support.tau_pullback(field)
    with pytest.raises(ValueError):
        _support.tau_pullback(moved)


# ---------------------------------------------------------------------------
# velocity Fourier transform

def clean_xxi_field():
    table = pl.hermite_table(4, SPEC.axis())
    vals = (
        np.outer(table[0], table[2])
        + 0.5j * np.outer(table[1], table[3])
        + 0.2 * np.outer(table[3], table[0])
    )
    return pl.GridField(SPEC, vals.astype(complex), "xxi")


def test_fourier_round_trip_and_parseval():
    field = clean_xxi_field()
    out = pl.inverse_velocity_fourier(field)
    back = pl.velocity_fourier(out)
    assert np.abs(back.values - field.values).max() <= 1e-10
    assert abs(pl.grid_norm_sq(out) - pl.grid_norm_sq(field)) <= 1e-10


def test_fourier_gaussian_self_dual():
    g = np.exp(-SPEC.axis() ** 2 / 2)
    row = pl.GridField(SPEC, np.tile(g, (SPEC.n, 1)).astype(complex), "xxi")
    out = pl.inverse_velocity_fourier(row)
    assert np.abs(out.values[0] - g).max() <= 1e-12


def test_fourier_hermite_eigenrelation():
    # forward transform: F[h_n] = (-i)^n h_n
    ax = SPEC.axis()
    for n in range(5):
        row = pl.GridField(
            SPEC, np.tile(pl.hermite_eval(n, ax), (SPEC.n, 1)).astype(complex), "xv"
        )
        out = pl.velocity_fourier(row)
        expected = (-1j) ** n * pl.hermite_eval(n, ax)
        assert np.abs(out.values[0] - expected).max() <= 1e-10


def test_fourier_shift_modulation_duality():
    # shifting the xi argument multiplies the inverse transform by e^{i v s}
    ax = SPEC.axis()
    s = 0.75
    row = pl.GridField(
        SPEC, np.tile(np.exp(-((ax - s) ** 2) / 2), (SPEC.n, 1)).astype(complex), "xxi"
    )
    out = pl.inverse_velocity_fourier(row)
    expected = np.exp(-(ax**2) / 2) * np.exp(1j * s * ax)
    assert np.abs(out.values[0] - expected).max() <= 1e-10


def test_fourier_stage_checks():
    field = clean_xxi_field()
    with pytest.raises(ValueError):
        pl.velocity_fourier(field)  # expects xv
    with pytest.raises(ValueError):
        pl.inverse_velocity_fourier(pl.inverse_velocity_fourier(field))


# ---------------------------------------------------------------------------
# densities

def test_density_mass_and_ground_state():
    field = pl.state_to_classical(bv((0,), (0,)), SPEC)
    f, rho = pl.density(field)
    ax = SPEC.axis()
    x, v = np.meshgrid(ax, ax, indexing="ij")
    assert np.abs(f - np.exp(-(x**2 + v**2)) / math.pi).max() <= 1e-8
    assert np.abs(rho - np.exp(-(ax**2)) / math.sqrt(math.pi)).max() <= 1e-8
    assert pl.trapezoid_2d(f, SPEC) == pytest.approx(1.0, abs=1e-8)


def test_density_matches_frozen_closed_form():
    gamma = math.pi / 2
    orbit = orbits.orbit_from_state(example_family_state(gamma))
    ax = SPEC.axis()
    x, v = np.meshgrid(ax, ax, indexing="ij")
    for t in (0.0, math.pi / 4, math.pi / 2):
        state = orbits.analytic_solution(orbit, t)
        f, rho = pl.density(pl.state_to_classical(state, SPEC))
        assert np.abs(f - example_family_density(x, v, t, gamma)).max() <= 1e-6
        assert np.abs(rho - example_family_marginal(ax, t, gamma)).max() <= 1e-6


def test_density_is_exact_on_default_grid():
    # the chain is evaluated in the Hermite basis, so f carries only
    # rounding, also on the coarser n = 128, L = 6 grid; there the marginal
    # misses the tail |v| >= 6 of the closed form, about 1.6e-14 of it
    for spec, rho_tol in ((SPEC, 1e-14), (pl.GridSpec(n=128, extent=6.0), 5e-14)):
        ax = spec.axis()
        x, v = np.meshgrid(ax, ax, indexing="ij")
        for gamma in (0.4, math.pi / 2, 2.5):
            orbit = orbits.orbit_from_state(example_family_state(gamma))
            for t in (0.0, 0.7, 2.0):
                state = orbits.analytic_solution(orbit, t)
                f, rho = pl.density(pl.state_to_classical(state, spec))
                assert np.abs(f - example_family_density(x, v, t, gamma)).max() <= 1e-14
                assert np.abs(rho - example_family_marginal(ax, t, gamma)).max() <= rho_tol


def test_rotation_shells_are_orthogonal():
    # R^s carries the orthonormal products h_a(q) h_b(p) of one shell to
    # the orthonormal h_j(x) h_k(xi); R^1 is the 45-degree rotation itself
    for s, rotation in enumerate(pl._rotation_shells(128)):
        assert np.abs(rotation.T @ rotation - np.eye(s + 1)).max() <= 1e-12
        if s == 1:
            assert np.abs(rotation * math.sqrt(2) - [[-1, 1], [1, 1]]).max() <= 1e-15


@pytest.mark.parametrize("seed", [0, 1])
def test_state_to_classical_matches_tau_dft_chain(seed):
    # reference: the Hermite sum at tau(x, xi) and the dense velocity DFT
    state = _support.random_state(CUT, np.random.default_rng(seed))
    spec = pl.GridSpec(n=256, extent=8.0)
    out = pl.state_to_classical(state, spec)
    assert out.stage == "xv"
    assert np.abs(out.values - _support.tau_dft_chain(state, spec).values).max() <= 1e-9


@pytest.mark.parametrize("seed", [0, 1])
def test_state_to_classical_matches_resampled_chain(seed):
    # reference: synthesis on a 4x finer grid, bicubic tau, velocity transform
    rng = np.random.default_rng(seed)
    state = fock.zero(CUT)
    for a, b in (((1,), (2,)), ((0,), (3,)), ((3,), (1,))):
        state = state + complex(*rng.normal(size=2)) * bv(a, b)
    fine = pl.GridSpec(n=4 * SPEC.n, extent=SPEC.extent)
    ref = pl.inverse_velocity_fourier(
        _support.tau_pullback(pl.synthesize_position(state, fine), SPEC)
    )
    out = pl.state_to_classical(state, SPEC)
    assert out.stage == "xv"
    assert np.abs(out.values - ref.values).max() <= 1e-6


def test_symbolic_rederivation_of_example_density():
    # independent sympy derivation of the closed form used above
    sp = pytest.importorskip("sympy")
    x, xi, v, t, g = sp.symbols("x xi v t gamma", real=True)
    q = (x + xi) / sp.sqrt(2)
    p = (x - xi) / sp.sqrt(2)
    h0q = sp.pi ** sp.Rational(-1, 4) * sp.exp(-(q**2) / 2)
    h0p = sp.pi ** sp.Rational(-1, 4) * sp.exp(-(p**2) / 2)
    h2q = h0q * (2 * q**2 - 1) / sp.sqrt(2)
    alpha_hat = sp.cos(g / 2) * h0q * h0p + sp.sin(g / 2) * sp.exp(2 * sp.I * t) * h2q * h0p
    alpha = sp.integrate(alpha_hat * sp.exp(sp.I * v * xi), (xi, -sp.oo, sp.oo)) / sp.sqrt(
        2 * sp.pi
    )
    f_expr = sp.expand(alpha * sp.conjugate(alpha))
    f_fn = sp.lambdify((x, v, t, g), f_expr, "numpy")
    rng = np.random.default_rng(1)
    pts_x = rng.uniform(-3, 3, size=40)
    pts_v = rng.uniform(-3, 3, size=40)
    for tt in (0.0, 0.6, 2.0):
        for gamma in (0.4, math.pi / 2, 2.5):
            ref = example_family_density(pts_x, pts_v, tt, gamma)
            sym = np.real(f_fn(pts_x, pts_v, tt, gamma))
            assert np.abs(ref - sym).max() <= 1e-12


# ---------------------------------------------------------------------------
# Vlasov residual

def test_residual_exact_rotating_solution():
    ax = SPEC.axis()
    x, v = np.meshgrid(ax, ax, indexing="ij")

    def profile(xs, vs):
        return np.exp(-(xs**2 + vs**2) / 8.0) * (1.0 + 0.25 * (xs**2 - vs**2) / 4.0)

    def rotated(t):
        return profile(
            x * math.cos(t) - v * math.sin(t), x * math.sin(t) + v * math.cos(t)
        )

    mass = pl.trapezoid_2d(rotated(0.0), SPEC)
    dt = 1e-3
    series = [rotated(0.5 - dt) / mass, rotated(0.5) / mass, rotated(0.5 + dt) / mass]
    assert pl.vlasov_residual(series, dt, SPEC) <= 1e-4


def test_residual_stationary_radial():
    ax = SPEC.axis()
    x, v = np.meshgrid(ax, ax, indexing="ij")
    f = np.exp(-(x**2 + v**2) / 2) / (2 * math.pi)
    assert pl.vlasov_residual([f, f, f], 1e-3, SPEC) <= 1e-6


def test_residual_of_pipeline_orbit():
    gamma = math.pi / 2
    orbit = orbits.orbit_from_state(example_family_state(gamma))
    dt = 1e-3

    def f_at(t):
        state = orbits.analytic_solution(orbit, t)
        return pl.density(pl.state_to_classical(state, SPEC))[0]

    series = [f_at(0.7 - dt), f_at(0.7), f_at(0.7 + dt)]
    assert pl.vlasov_residual(series, dt, SPEC) <= 1e-4


@pytest.mark.parametrize("slices", [3, 5])
@pytest.mark.parametrize("dt", [1e-3, 0.37])
def test_residual_matches_roll_stencil_bit_for_bit(slices, dt):
    # the interior stencil on slices of f against whole-grid np.roll copies
    rng = np.random.default_rng(slices)
    for spec in (pl.GridSpec(n=32, extent=4.0), pl.GridSpec(n=128, extent=6.0)):
        series = []
        for _ in range(slices):
            f = rng.random((spec.n, spec.n)) ** 3
            series.append(f / pl.trapezoid_2d(f, spec))
        got = pl.vlasov_residual(series, dt, spec)
        assert got == _support.roll_residual(series, dt, spec)
        assert got > 0.0


def test_residual_of_pipeline_densities_matches_roll_stencil():
    spec = pl.GridSpec(n=128, extent=6.0)
    orbit = orbits.orbit_from_state(example_family_state(1.1))
    series = [pl.density(pl.state_to_classical(orbits.analytic_solution(orbit, t), spec))[0]
              for t in (0.699, 0.7, 0.701)]
    assert pl.vlasov_residual(series, 1e-3, spec) == _support.roll_residual(series, 1e-3, spec)


def test_residual_validation():
    f = np.zeros((SPEC.n, SPEC.n))
    with pytest.raises(ValueError):
        pl.vlasov_residual([f, f], 1e-3, SPEC)
    with pytest.raises(ValueError):
        pl.vlasov_residual([f, f, f], 0.0, SPEC)


# ---------------------------------------------------------------------------
# exact derivatives of one slice

BENCH_SPEC = pl.GridSpec(n=128, extent=6.0)  # the classical benchmark's grid
COMPLEX_STATE = 0.6 * bv((1,), (0,)) + 0.8j * bv((3,), (0,))


def rate_of(state):
    return hamiltonian.vector_field(hamiltonian.FieldKind.SPHERE, state)


def family_slice(gamma, t, spec, scale=1.0):
    """The slice of the family at time t, its rate scaled by ``scale``."""
    state = orbits.analytic_solution(orbits.orbit_from_state(example_family_state(gamma)), t)
    return pl.classical_slice(state, scale * rate_of(state), spec)


@pytest.mark.parametrize("state", [example_family_state(1.1), COMPLEX_STATE, bv((8,), (0,))],
                         ids=["family", "complex", "top-degree"])
@pytest.mark.parametrize("spec", [BENCH_SPEC, SPEC], ids=["n128", "n256"])
def test_slice_field_is_state_to_classical_bit_for_bit(state, spec):
    sl = pl.classical_slice(state, rate_of(state), spec)
    assert np.array_equal(sl.field.values, pl.state_to_classical(state, spec).values)
    assert sl.coeffs.shape == sl.rate.shape == (sl.table.shape[0],) * 2
    assert sl.table.shape == (state.max_degree() + 2, spec.n)


@pytest.mark.parametrize("spec", [BENCH_SPEC, SPEC], ids=["n128", "n256"])
@pytest.mark.parametrize("gamma", [0.5, 1.5, 2.5])
def test_exact_residual_of_the_family_is_rounding(spec, gamma):
    for t in (0.0, 0.7, 2.3):
        assert pl.exact_residual(family_slice(gamma, t, spec)) <= 1e-12


@pytest.mark.parametrize("spec", [BENCH_SPEC, SPEC], ids=["n128", "n256"])
def test_exact_residual_of_a_complex_state_is_rounding(spec):
    orbit = orbits.orbit_from_state(COMPLEX_STATE)
    for t in (0.0, 0.7):
        state = orbits.analytic_solution(orbit, t)
        assert pl.exact_residual(pl.classical_slice(state, rate_of(state), spec)) <= 1e-12


@pytest.mark.parametrize("gamma", [0.5, 1.5, 2.5])
def test_exact_residual_detects_a_wrong_rate(gamma):
    orbit = orbits.orbit_from_state(example_family_state(gamma))
    state = orbits.analytic_solution(orbit, 0.7)
    rate = rate_of(state)
    good = pl.exact_residual(pl.classical_slice(state, rate, BENCH_SPEC))
    later = rate_of(orbits.analytic_solution(orbit, 0.8))
    for wrong in (2.0 * rate, later, -1.0 * rate):
        bad = pl.exact_residual(pl.classical_slice(state, wrong, BENCH_SPEC))
        assert bad >= 1e10 * max(good, 1e-17) and bad >= 1e-3


@pytest.mark.parametrize("gamma", [0.5, 1.5, 2.5])
def test_exact_residual_detects_a_flipped_force(gamma):
    # B formed from the slice as exact_residual forms it (xbar = 0 on the
    # family), with the force term's sign as given
    sl = family_slice(gamma, 0.7, BENCH_SPEC)
    deriv, pos = pl._ladders(len(sl.coeffs))
    alpha = sl.field.values

    def residual(force_sign):
        b = sl.rate + deriv @ sl.coeffs @ pos.T + force_sign * pos @ sl.coeffs @ deriv.T
        beta = sl.table.T @ b @ sl.table
        return 2.0 * np.abs((np.conj(alpha) * beta).real).max()

    good = pl.exact_residual(sl)
    assert residual(-1.0) <= 1e-12 and good <= 1e-12
    assert residual(1.0) >= 1e10 * max(good, 1e-17) and residual(1.0) >= 1e-3


@pytest.mark.parametrize("spec", [BENCH_SPEC, SPEC], ids=["n128", "n256"])
@pytest.mark.parametrize("gamma", [0.5, 1.5, 2.5])
def test_exact_residual_agrees_with_the_stencils(spec, gamma):
    # the orbit run at speed s has the rate s c'; its densities dt apart
    # give the stencils' residual of that rate, which is O(0.1) for s != 1.
    # The two residual fields differ by the stencils' truncation, which
    # their residual on the true orbit (s = 1) measures
    orbit = orbits.orbit_from_state(example_family_state(gamma))
    dt, t = 1e-3, 0.7

    def stencils(speed):
        series = [pl.density(pl.state_to_classical(
            orbits.analytic_solution(orbit, t + speed * k * dt), spec))[0] for k in (-1, 0, 1)]
        return pl.vlasov_residual(series, dt, spec), _support.roll_residual(series, dt, spec)

    truncation = max(stencils(1.0))
    assert truncation <= (4e-5 if spec.n == 128 else 8e-6)
    for speed in (2.0, -1.0, 0.0):
        exact = pl.exact_residual(family_slice(gamma, t, spec, scale=speed))
        assert exact >= 0.05
        for stencil in stencils(speed):
            assert abs(exact - stencil) <= 1.5 * truncation


@pytest.mark.parametrize("spec", [BENCH_SPEC, SPEC], ids=["n128", "n256"])
@pytest.mark.parametrize("state", [example_family_state(0.5), example_family_state(2.5),
                                   COMPLEX_STATE],
                         ids=["family-0.5", "family-2.5", "complex"])
def test_exact_charges_match_noether_charges(spec, state):
    sl = pl.classical_slice(state, rate_of(state), spec)
    mass, pseudo, momentum = pl.exact_charges(sl, *pl.density(sl.field))
    want = pl.noether_charges(sl.field)
    assert (mass, momentum) == (want[0], want[2])  # the same sums, bit for bit
    assert abs(pseudo - want[1]) <= 1e-13


# ---------------------------------------------------------------------------
# rotating oracle

def radial_profile():
    ax = SPEC.axis()
    x, v = np.meshgrid(ax, ax, indexing="ij")
    return np.exp(-(x**2 + v**2)) / math.pi


def test_rotating_oracle_full_turn():
    f0 = pl.density(pl.state_to_classical(example_family_state(1.2), SPEC))[0]
    out = _support.rotating_oracle(f0, 2 * math.pi, SPEC)
    assert np.abs(out - f0).max() <= 1e-9  # grid-aligned resample


def test_rotating_oracle_radial_invariance():
    f0 = radial_profile()
    for t in (0.3, 1.1, 2.0):
        assert np.abs(_support.rotating_oracle(f0, t, SPEC) - f0).max() <= 2e-5


def test_rotating_oracle_quarter_turn():
    f0 = pl.density(pl.state_to_classical(example_family_state(0.8), SPEC))[0]
    out = _support.rotating_oracle(f0, math.pi / 2, SPEC)
    # f(pi/2, x, v) = f0(-v, x); -v_j lands on the grid at row n - j for j >= 1
    n = SPEC.n
    expected = f0[(n - np.arange(n)) % n, :].T
    assert np.abs(out[:, 1:] - expected[:, 1:]).max() <= 1e-9


def test_rotating_oracle_mass_preserved():
    f0 = pl.density(pl.state_to_classical(example_family_state(1.2), SPEC))[0]
    out = _support.rotating_oracle(f0, 0.9, SPEC)
    assert pl.trapezoid_2d(out, SPEC) == pytest.approx(
        pl.trapezoid_2d(f0, SPEC), abs=1e-6
    )


def test_rotating_oracle_rejects_uncentered():
    ax = SPEC.axis()
    x, v = np.meshgrid(ax, ax, indexing="ij")
    shifted = np.exp(-(((x - 1.0) ** 2) + v**2)) / math.pi
    with pytest.raises(ValueError):
        _support.rotating_oracle(shifted, 0.5, SPEC)


def test_rotation_convention_fixture():
    # the Fock-side time parameter equals the classical rotation angle
    gamma = math.pi / 2
    orbit = orbits.orbit_from_state(example_family_state(gamma))

    def f_at(t):
        return pl.density(pl.state_to_classical(orbits.analytic_solution(orbit, t), SPEC))[0]

    f0 = f_at(0.0)
    t = 0.4
    assert np.abs(f_at(t) - _support.rotating_oracle(f0, t, SPEC)).max() <= 1e-4
    # the opposite direction is sharply distinguishable
    assert np.abs(f_at(t) - _support.rotating_oracle(f0, -t, SPEC)).max() > 1e-2


@pytest.mark.parametrize("n", [64, 128, 256])
def test_density_and_trapezoid_keep_numpy_bits(n):
    # in-place forms of |alpha|^2 and of the trapezoid sums give the bits
    # of the plain numpy expressions
    spec = pl.GridSpec(n=n, extent=6.0)
    ax = spec.axis()
    orbit = orbits.orbit_from_state(example_family_state(1.1))
    field = pl.state_to_classical(orbits.analytic_solution(orbit, 0.7), spec)
    f, rho = pl.density(field)
    assert np.array_equal(f, np.abs(field.values) ** 2)
    assert np.array_equal(rho, np.trapezoid(np.abs(field.values) ** 2, ax, axis=1))
    rng = np.random.default_rng(n)
    for values in (f, rng.normal(size=(n, n)), field.values * rng.normal(size=(n, n))):
        want = np.trapezoid(np.trapezoid(values, ax, axis=1), ax, axis=0)
        assert pl.trapezoid_2d(values, spec) == want


# ---------------------------------------------------------------------------
# conserved pairings

def test_noether_ground_state():
    field = pl.state_to_classical(bv((0,), (0,)), SPEC)
    mass, pseudo, momentum = pl.noether_charges(field)
    assert mass == pytest.approx(1.0, abs=1e-8)
    assert abs(pseudo) <= 1e-10
    assert abs(momentum) <= 1e-10


def test_noether_modulation_shift():
    field = pl.state_to_classical(bv((1,), (2,)), SPEC)
    mass, pseudo, _ = pl.noether_charges(field)
    k = 0.5
    modded = pl.GridField(
        SPEC, field.values * np.exp(1j * k * SPEC.axis())[:, None], "xv"
    )
    _, pseudo2, _ = pl.noether_charges(modded)
    assert (pseudo2 - pseudo).real == pytest.approx(-k * mass, abs=1e-8)


def test_noether_constant_along_orbit():
    orbit = orbits.orbit_from_state(example_family_state(math.pi / 2))
    values = []
    for t in (0.0, 0.9, 2.1):
        field = pl.state_to_classical(orbits.analytic_solution(orbit, t), SPEC)
        values.append(pl.noether_charges(field))
    mass0, pseudo0, mom0 = values[0]
    for mass, pseudo, mom in values[1:]:
        assert abs(mass - mass0) <= 1e-6
        assert abs(pseudo - pseudo0) <= 1e-6
        assert abs(mom - mom0) <= 1e-6


def test_end_to_end_unitarity():
    state = example_family_state(0.7)
    qp = pl.synthesize_position(state, SPEC)
    xxi = _support.tau_pullback(qp)
    xv = pl.inverse_velocity_fourier(xxi)
    assert abs(pl.grid_norm_sq(qp) - 1.0) <= 1e-8
    assert abs(pl.grid_norm_sq(xxi) - 1.0) <= 1e-6
    assert abs(pl.grid_norm_sq(xv) - 1.0) <= 1e-6

import math

import numpy as np
import pytest

from _support import (
    brute_excitation,
    brute_field,
    brute_matrix,
    cinner,
    random_centered_state,
    random_state,
)
from harmonic_hartree import fock, hamiltonian as ham
from harmonic_hartree.errors import NormalizationError, TruncationError
from harmonic_hartree.fock import Cutoff
from harmonic_hartree.hamiltonian import FieldKind

CUT = Cutoff(k=8, d=1)


def bv(a, b, cut=CUT):
    return fock.basis_vector(cut, a, b)


def brute_energy(state):
    """Energy from the independent brute-force matrices."""
    cut = state.cutoff
    y = fock.to_array(state)
    val = 0.5 * cinner(y, brute_excitation(cut) @ y).real
    for i in range(cut.d):
        val += 0.5 * cinner(y, brute_matrix(cut, "lower_a", i) @ y).real ** 2
        val -= 0.5 * cinner(y, brute_matrix(cut, "lower_b", i) @ y).real ** 2
    return val


def test_energy_eigenvector():
    assert ham.energy(bv((0,), (1,))) == pytest.approx(0.5, abs=1e-14)


def test_energy_gap_two_mixture():
    s = (1 / math.sqrt(2)) * (bv((0,), (0,)) + bv((2,), (0,)))
    assert ham.energy(s) == pytest.approx(-0.5, abs=1e-14)


def test_energy_gap_one_mixture_against_brute_force():
    # first-moment term Re<s, b s> = 1/2 contributes -1/8 on top of <N>/2 = 1/4
    s = (1 / math.sqrt(2)) * (bv((0,), (0,)) + bv((0,), (1,)))
    assert ham.first_moment_b(s, 0) == pytest.approx(0.5, abs=1e-15)
    assert ham.energy(s) == pytest.approx(0.125, abs=1e-14)
    assert ham.energy(s) == pytest.approx(brute_energy(s), abs=1e-14)


def test_energy_random_matches_brute_force():
    rng = np.random.default_rng(0)
    for _ in range(10):
        s = random_state(CUT, rng)
        assert ham.energy(s) == pytest.approx(brute_energy(s), abs=1e-13)


def test_energy_phase_invariant():
    rng = np.random.default_rng(1)
    s = random_state(CUT, rng)
    base = ham.energy(s)
    for theta in (0.3, 1.1, -2.0):
        assert ham.energy(np.exp(1j * theta) * s) == pytest.approx(base, abs=1e-13)


def test_energy_requires_unit_norm():
    with pytest.raises(NormalizationError):
        ham.energy(1.1 * bv((0,), (0,)))


def test_chart_field_vanishes_at_eigenvectors():
    for a, b in [((0,), (1,)), ((2,), (0,)), ((3,), (1,))]:
        assert ham.vector_field(FieldKind.CHART, bv(a, b)).norm <= 1e-13
    # unit combination inside one eigenspace is also stationary
    s = (1 / math.sqrt(2)) * (bv((0,), (1,)) + bv((1,), (2,)))
    assert ham.vector_field(FieldKind.CHART, s).norm <= 1e-13


def test_chart_field_gap_two_mixture_is_diagonal():
    s = (1 / math.sqrt(2)) * (bv((0,), (0,)) + bv((2,), (0,)))
    x = ham.vector_field(FieldKind.CHART, s)
    mean = fock.expectation_n(s)
    expected = -1j * (fock.apply_excitation(s) - mean * s)
    assert (x - expected).norm <= 1e-14


def test_full_field_matches_brute_force():
    rng = np.random.default_rng(2)
    for _ in range(5):
        s = random_state(CUT, rng, max_degree=CUT.k - 2)
        got = fock.to_array(ham.vector_field(FieldKind.FULL, s))
        ref = brute_field("full", CUT, fock.to_array(s))
        assert np.abs(got - ref).max() <= 1e-13


def test_every_field_kind_matches_brute_force_d1_d2():
    rng = np.random.default_rng(9)
    for cut in (CUT, Cutoff(k=6, d=2)):
        for _ in range(3):
            s = random_state(cut, rng, max_degree=cut.k - 2)
            for scale in (1.0, 1.3):  # on and off the sphere
                y = scale * fock.to_array(s)
                v = fock.from_array(cut, y)
                for kind in FieldKind:
                    got = fock.to_array(ham.vector_field(kind, v))
                    ref = brute_field(kind.value, cut, y)
                    assert np.abs(got - ref).max() <= 1e-13


def test_full_equals_sphere_on_unit_states():
    rng = np.random.default_rng(3)
    for _ in range(5):
        s = random_state(CUT, rng, max_degree=CUT.k - 2)
        full = ham.vector_field(FieldKind.FULL, s)
        sphere = ham.vector_field(FieldKind.SPHERE, s)
        assert (full - sphere).norm <= 1e-12


def test_full_minus_sphere_off_sphere_is_norm_term():
    rng = np.random.default_rng(4)
    s = random_state(CUT, rng, max_degree=CUT.k - 2)
    two = 2.0 * s
    diff = ham.vector_field(FieldKind.FULL, two) - ham.vector_field(FieldKind.SPHERE, two)
    # (w/4) * (2N + sum(bb + b*b* - aa - a*a*)) applied to 2s, w = 3
    y = fock.to_array(two)
    cut = CUT
    corr = 2.0 * (brute_excitation(cut) @ y)
    for i in range(cut.d):
        la, lb = brute_matrix(cut, "lower_a", i), brute_matrix(cut, "lower_b", i)
        ra, rb = brute_matrix(cut, "raise_a", i), brute_matrix(cut, "raise_b", i)
        corr = corr + (lb @ lb + rb @ rb - la @ la - ra @ ra) @ y
    expected = -1j * (0.25 * 3.0) * corr
    assert np.abs(fock.to_array(diff) - expected).max() <= 1e-12


def test_field_tangency():
    rng = np.random.default_rng(5)
    for _ in range(5):
        s = random_state(CUT, rng, max_degree=CUT.k - 2)
        z = ham.vector_field(FieldKind.SPHERE, s)
        x = ham.vector_field(FieldKind.CHART, s)
        assert abs(fock.inner(s, z).real) <= 1e-12
        assert abs(fock.inner(s, x)) <= 1e-12


def test_phase_equivariance():
    rng = np.random.default_rng(6)
    s = random_state(CUT, rng, max_degree=CUT.k - 2)
    for kind in FieldKind:
        base = ham.vector_field(kind, s)
        for theta in (0.7, -1.9):
            zeta = np.exp(1j * theta)
            rotated = ham.vector_field(kind, zeta * s)
            assert (rotated - zeta * base).norm <= 1e-12


def test_gradient_consistency():
    # directional derivative of the energy equals -Im<z(s), d> on tangents
    rng = np.random.default_rng(7)
    for _ in range(5):
        s = random_state(CUT, rng, max_degree=CUT.k - 2)
        d = random_state(CUT, rng, max_degree=CUT.k - 2)
        d = d - complex(fock.inner(d, s).real) * s  # sphere tangent
        h = 1e-6
        fd = (ham.energy(s + h * d) - ham.energy(s - h * d)) / (2 * h)
        z = ham.vector_field(FieldKind.SPHERE, s)
        assert fd == pytest.approx(-fock.inner(z, d).imag, abs=1e-6)


def test_centered_subspace_invariance():
    rng = np.random.default_rng(8)
    for indices in [(0, -2), (-3, 0, 2), (1, 4)]:
        s = random_centered_state(CUT, indices, rng)
        parts = fock.component_split(s)
        basis = []
        for _, p in sorted(parts.items()):
            arr = fock.to_array(p)
            basis.append(arr / np.linalg.norm(arr))
        basis = np.array(basis)
        z = fock.to_array(ham.vector_field(FieldKind.SPHERE, s))
        recon = basis.T @ (basis.conj() @ z)
        assert np.linalg.norm(z - recon) <= 1e-12


def test_truncation_error_on_boundary_states():
    # nonzero first moment plus boundary support forces a raising loss
    s = ((1 / math.sqrt(2)) * (bv((0,), (8,)) + bv((0,), (7,))))
    with pytest.raises(TruncationError):
        ham.vector_field(FieldKind.SPHERE, s)
    # FULL at a non-unit boundary state needs the double-raising term
    with pytest.raises(TruncationError):
        ham.vector_field(FieldKind.FULL, 2.0 * bv((0,), (8,)))


def test_non_finite_flux_raises():
    # the flux is |coef| times the root of the boundary mass: an overflow
    # is an infinite loss and a NaN prefactor a NaN one, and both raise
    cut = Cutoff(k=2, d=1)
    table = fock.ladder_table(cut)
    y = bv((2,), (0,), cut).array  # all of y on the boundary
    with np.errstate(over="ignore"):
        with pytest.raises(TruncationError, match="inf"):
            ham._check_flux(np.array([1e300, 0.0]), table.boundary[0], y, 1e-12)
    with pytest.raises(TruncationError, match="nan"):
        ham._check_flux(np.array([math.nan, 0.0]), table.boundary[0], y, 1e-12)
    # off the boundary a huge prefactor meets a zero mass: no inf * 0
    inner = bv((1,), (0,), cut).array
    with np.errstate(over="raise", invalid="raise"):
        ham._check_flux(np.array([1e300, -1e300]), table.boundary[0], inner, 1e-12)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_stacked_energy_matches_per_row_calls(d):
    # one call on a (samples, n) stack, as the integrator makes for its
    # samples, against one call per state, uncentered and centered states
    cut = Cutoff(k=6 if d < 3 else 5, d=d)
    table = fock.ladder_table(cut)
    rng = np.random.default_rng(20 + d)
    stack = np.array([fock.to_array(random_state(cut, rng, max_degree=cut.k - 2))
                      for _ in range(7)]
                     + [fock.to_array(random_centered_state(cut, (0, 2), rng))
                        for _ in range(3)])
    for states in (stack, stack[::-1], stack.reshape(2, 5, -1)):
        energies = ham.energy_array(table, states)
        assert energies.shape == states.shape[:-1]
        rows = states.reshape(-1, states.shape[-1])
        single = np.array([ham.energy_array(table, y) for y in rows])
        assert all(type(ham.energy_array(table, y)) is float for y in rows[:2])
        assert np.abs(energies.ravel() - single).max() <= 4 * np.spacing(np.abs(single)).max()
    for y in stack[:3]:
        assert ham.energy_array(table, y) == pytest.approx(
            brute_energy(fock.from_array(cut, y)), abs=1e-13)


def test_moment_rows_share_the_table_memory():
    # the weights are one complex block and the indices one index block:
    # the ops and the moment rows (N y, the lowering and the pair-lowering
    # images) are views of them, and row 0 is N over the identity index
    for cut in (CUT, Cutoff(k=6, d=2), Cutoff(k=5, d=3)):
        table = fock.ladder_table(cut)
        n, axes = table.n_diag.size, 2 * cut.d
        assert table.moment_weight.shape == table.moment_index.shape == (2 * axes + 1, n)
        assert table.weight.dtype == table.moment_weight.dtype == complex
        assert np.shares_memory(table.weight, table.moment_weight)
        assert np.shares_memory(table.index, table.moment_index)
        assert table.weight.base is table.moment_weight.base
        assert table.index.base is table.moment_index.base
        assert table.weight.base.shape == table.index.base.shape == (1 + 4 * axes, n)
        assert np.array_equal(table.moment_index[0], np.arange(n))
        assert np.array_equal(table.moment_weight[0], table.n_diag)
        lowering = slice(fock.LOWER, fock.RAISE)
        assert np.array_equal(table.moment_weight[1:], table.weight[lowering].reshape(2 * axes, n))
        assert np.array_equal(table.moment_index[1:], table.index[lowering].reshape(2 * axes, n))

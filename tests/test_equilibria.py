import math

import numpy as np
import pytest
import scipy.linalg

from _support import brute_matrix, random_component
from harmonic_hartree import equilibria as eq, fock, hamiltonian as ham
from harmonic_hartree.errors import NormalizationError
from harmonic_hartree.fock import Cutoff
from harmonic_hartree.hamiltonian import FieldKind

CUT6 = Cutoff(k=6, d=1)


def bv(a, b, cut=CUT6):
    return fock.basis_vector(cut, a, b)


def test_every_basis_state_is_a_relative_equilibrium():
    for idx in fock.basis(CUT6):
        v = fock.FockVector(CUT6, {idx: 1.0 + 0j})
        assert eq.is_relative_equilibrium(v, 1e-13)


def test_random_single_component_states_are_equilibria():
    rng = np.random.default_rng(0)
    for n in (-3, -1, 0, 2, 4):
        v = random_component(CUT6, n, rng).normalized()
        assert eq.is_relative_equilibrium(v, 1e-13)


def test_mixtures_are_not_equilibria():
    s = (1 / math.sqrt(2)) * (bv((0,), (0,)) + bv((2,), (0,)))
    assert not eq.is_relative_equilibrium(s, 1e-10)
    with pytest.raises(NormalizationError):
        eq.is_relative_equilibrium(2.0 * bv((0,), (0,)), 1e-10)


def _real_coords(chart, vec):
    g = chart.conj().T @ vec
    out = np.empty(2 * g.shape[0])
    out[0::2] = g.real
    out[1::2] = g.imag
    return out


def test_linearization_vacuum_known_blocks():
    rep = eq.linearize(bv((0,), (0,)))
    chart = rep.chart
    # delta = |1,1| (excitation 0, orthogonal to the perturbation vectors): D = 0
    d = fock.to_array(bv((1,), (1,)))
    assert np.abs(rep.matrix @ _real_coords(chart, d)).max() <= 1e-13
    # delta = |0,2|: D delta = -2i delta
    d = fock.to_array(bv((0,), (2,)))
    out = rep.matrix @ _real_coords(chart, d)
    expected = _real_coords(chart, -2j * d)
    assert np.abs(out - expected).max() <= 1e-13


def test_linearization_matrix_surface():
    base = bv((0,), (0,))
    mat = eq.linearize(base).matrix
    assert mat.shape == (54, 54)  # 28 basis states -> complex chart dim 27
    # explicit cutoff re-embeds the state first
    wide = eq.linearize(base, Cutoff(k=8, d=1)).matrix
    assert wide.shape == (88, 88)


def test_linearization_requires_equilibrium_and_interior():
    s = (1 / math.sqrt(2)) * (bv((0,), (0,)) + bv((2,), (0,)))
    with pytest.raises(ValueError):
        eq.linearize(s)
    with pytest.raises(ValueError):
        eq.linearize(bv((0,), (6,)))  # support at the cutoff boundary


@pytest.mark.parametrize("scale", [1 + 4e-11, 1 - 9e-11, -1 - 4e-11, -1 + 9e-11],
                         ids=["above", "below", "minus-above", "minus-below"])
@pytest.mark.parametrize("a, b", [((0,), (8,)), ((8,), (0,))], ids=["0_8", "8_0"])
def test_an_eigenvector_off_unit_norm_within_tolerance_is_linearized(a, b, scale):
    # require_unit accepts these norms, and an excitation eigenvector of
    # unit norm is a relative equilibrium; its chart field,
    # -i n0 (1 - |v|^2) v, reads the norm's defect times |n0| = 8
    # (6.4e-10 at 1 + 4e-11), which is no reason to reject it
    cut = Cutoff(k=10, d=1)
    rep = eq.linearize(scale * fock.basis_vector(cut, a, b))
    assert rep.integer_spectrum_ok
    assert len(rep.eigenvalues) == 2 * (cut.size - 1)
    assert rep.eigenvalues.real.max() == 0.0


def test_finite_difference_derivative_oracle():
    rng = np.random.default_rng(1)
    idxs = fock.basis(CUT6)
    interior = np.array([1.0 if i.degree <= CUT6.k - 2 else 0.0 for i in idxs])
    for a, b in [((0,), (0,)), ((0,), (2,))]:
        base = bv(a, b)
        rep = eq.linearize(base)
        chart = rep.chart
        base_arr = fock.to_array(base)
        for _ in range(6):
            m = chart.shape[1]
            xi = rng.normal(size=2 * m)
            delta = chart @ (xi[0::2] + 1j * xi[1::2])
            delta *= interior  # keep the difference states exact
            delta -= np.vdot(base_arr, delta) * base_arr
            delta /= np.linalg.norm(delta)
            coords = _real_coords(chart, delta)
            dvec = fock.from_array(CUT6, delta)
            h = 1e-5
            plus = ham.vector_field(FieldKind.CHART, base + h * dvec)
            minus = ham.vector_field(FieldKind.CHART, base + (-h) * dvec)
            fd = _real_coords(chart, fock.to_array((1.0 / (2 * h)) * (plus - minus)))
            ref = rep.matrix @ coords
            rel = np.linalg.norm(fd - ref) / max(1.0, np.linalg.norm(ref))
            assert rel <= 1e-6


def test_spectrum_helper():
    assert eq.spectrum(np.zeros((4, 4))) == [0, 0, 0, 0]
    vals = eq.spectrum(np.array([[0.0, -2.0], [2.0, 0.0]]))
    assert vals[0] == pytest.approx(-2j) and vals[1] == pytest.approx(2j)
    # sorted by (imag, real)
    got = eq.spectrum(np.diag([3.0, -1.0, 2.0]))
    assert got == [-1, 2, 3]
    with pytest.raises(ValueError):
        eq.spectrum(np.zeros((2, 3)))


@pytest.mark.parametrize("a,b,max_pert", [(((0,)), ((0,)), 4), (((0,)), ((2,)), 4)])
def test_spectrum_structure_at_equilibria(a, b, max_pert):
    base = bv(tuple(a), tuple(b))
    rep = eq.linearize(base)
    eigs = np.array(rep.eigenvalues)
    assert np.abs(eigs.real).max() <= 1e-9
    assert rep.perturbed_subspace_dim <= max_pert
    assert rep.kernel_block_deviation <= 1e-12
    assert rep.integer_spectrum_ok
    # conjugate pairing
    sorted_up = np.sort_complex(eigs)
    sorted_conj = np.sort_complex(eigs.conj())
    assert np.abs(sorted_up - sorted_conj).max() <= 1e-9


def test_spectrum_multiplicities_outside_perturbed_slices():
    # slices with |N' - N| >= 2 are untouched: eigenvalue i(N'-N) appears
    # with multiplicity sum of their complex dimensions
    for a, b in [((0,), (0,)), ((0,), (2,))]:
        base = bv(a, b)
        n0 = next(iter(fock.component_split(base)))
        rep = eq.linearize(base)
        eigs = np.array(rep.eigenvalues)
        dims = {}
        for idx in fock.basis(CUT6):
            dims[idx.excitation] = dims.get(idx.excitation, 0) + 1
        gaps = sorted({idx.excitation - n0 for idx in fock.basis(CUT6)})
        for m in [g for g in gaps if abs(g) >= 2]:
            expected = sum(
                dims.get(n0 + g, 0) for g in (m, -m) if abs(g) >= 2 and (n0 + g) in dims
            )
            count = int(np.sum(np.abs(eigs - 1j * m) <= 1e-9))
            assert count >= dims.get(n0 + m, 0)
            assert count == expected


def test_vacuum_spectrum_is_integer_to_1e9():
    rep = eq.linearize(bv((0,), (0,)))
    eigs = np.array(rep.eigenvalues)
    assert np.abs(eigs.real).max() <= 1e-9
    assert np.abs(eigs.imag - np.round(eigs.imag)).max() <= 1e-9


@pytest.mark.parametrize(
    "base",
    [bv((0,), (2,)), fock.basis_vector(Cutoff(k=6, d=2), (1, 0), (0, 2))],
    ids=["d1", "d2"],
)
def test_linearize_returns_complete_report(base):
    rep = eq.linearize(base)
    assert isinstance(rep.perturbed_subspace_dim, int)
    assert 0 < rep.perturbed_subspace_dim <= 4 * base.cutoff.d
    assert rep.integer_spectrum_ok is True
    assert isinstance(rep.kernel_block_deviation, float)
    assert 0.0 <= rep.kernel_block_deviation <= 1e-12
    eigs = rep.eigenvalues
    assert isinstance(eigs, np.ndarray) and eigs.dtype == np.complex128
    assert eigs.shape == (2 * (base.cutoff.size - 1),)
    assert not eigs.flags.writeable
    keys = list(zip(eigs.imag.tolist(), eigs.real.tolist()))
    assert keys == sorted(keys)


def test_classify_d2_perturbed_dimension():
    cut = Cutoff(k=4, d=2)
    rep = eq.linearize(fock.basis_vector(cut, (0, 0), (0, 0)))
    assert rep.perturbed_subspace_dim <= 8
    assert rep.integer_spectrum_ok
    rep2 = eq.linearize(fock.basis_vector(cut, (0, 0), (2, 0)))
    assert rep2.perturbed_subspace_dim <= 8


@pytest.mark.parametrize("cut", [Cutoff(k=8, d=1), Cutoff(k=6, d=2)], ids=str)
def test_svd_null_space_matches_scipy(cut):
    # scipy's null_space is an independent oracle for the chart basis and the
    # classification kernel; compare projectors, which are basis-free.  The
    # conditions Re<delta, o base> = 0, o in {a_i, a*_i, b_i, b*_i}, come
    # from the brute-force ladder matrices.
    ladders = [
        brute_matrix(cut, kind, i)
        for i in range(cut.d)
        for kind in ("lower_a", "raise_a", "lower_b", "raise_b")
    ]
    for idx in fock.basis(cut):
        if idx.degree > cut.k - 2:
            continue
        base = fock.FockVector(cut, {idx: 1.0 + 0j})
        rep = eq.linearize(base)
        base_arr = fock.to_array(base)
        ref_chart = scipy.linalg.null_space(base_arr.conj()[None, :])
        assert rep.chart.shape == ref_chart.shape
        assert np.abs(
            rep.chart @ rep.chart.conj().T - ref_chart @ ref_chart.conj().T
        ).max() <= 1e-12

        cond = np.array([_real_coords(rep.chart, op @ base_arr) for op in ladders])
        kernel, _ = eq._null_space(cond, rcond=1e-8)
        ref_kernel = scipy.linalg.null_space(cond, rcond=1e-8)
        assert kernel.shape == ref_kernel.shape
        assert np.abs(kernel @ kernel.T - ref_kernel @ ref_kernel.T).max() <= 1e-12
        assert rep.perturbed_subspace_dim == np.linalg.matrix_rank(cond, tol=1e-8)


def test_degenerate_directions_match_translation_generator():
    # Re<d, (a - a*) base> equals sqrt(2) Re<d, dq base> with dq evaluated
    # independently on the grid (spectral differentiation)
    from harmonic_hartree import pipeline as pl

    cut = Cutoff(k=8, d=1)
    rng = np.random.default_rng(2)
    base = fock.basis_vector(cut, (1,), (2,))
    spec = pl.GridSpec(n=256, extent=8.0)
    gb = pl.synthesize_position(base, spec)
    k = 2 * math.pi * np.fft.fftfreq(spec.n, d=spec.step)
    dq_grid = np.fft.ifft(1j * k[:, None] * np.fft.fft(gb.values, axis=0), axis=0)
    for _ in range(5):
        delta = random_component(cut, 1, rng) + random_component(cut, -1, rng)
        delta = delta.normalized()
        ladder = fock.inner(
            delta, fock.apply_lowering_a(0, base) - fock.apply_raising_a(0, base)
        ).real
        gd = pl.synthesize_position(delta, spec)
        grid = pl.trapezoid_2d(gd.values * np.conj(dq_grid), spec)
        assert ladder == pytest.approx(math.sqrt(2) * grid.real, abs=1e-8)


# ---------------------------------------------------------------------------
# block spectrum against the dense oracle

def _basis_equilibria(cut):
    return [
        fock.FockVector(cut, {idx: 1.0 + 0j})
        for idx in fock.basis(cut)
        if idx.degree <= cut.k - 2
    ]


def _assert_same_multiset(got, ref, tol):
    got, ref = np.asarray(got), np.asarray(ref)
    assert got.shape == ref.shape
    free = np.ones(ref.size, dtype=bool)
    for z in got:
        dist = np.where(free, np.abs(ref - z), np.inf)
        j = int(np.argmin(dist))
        assert dist[j] <= tol, f"{z} has no partner within {tol}"
        free[j] = False


@pytest.mark.parametrize("cut", [Cutoff(k=8, d=1), Cutoff(k=6, d=2)], ids=str)
def test_block_spectrum_matches_dense_oracle(cut):
    rng = np.random.default_rng(11)
    states = _basis_equilibria(cut) + [
        random_component(cut, n, rng).normalized() for n in range(-3, 4)
    ]
    assert len(states) == {1: 28, 2: 70}[cut.d] + 7
    for base in states:
        rep = eq.linearize(base)
        assert rep.jordan is not None
        assert len(rep.eigenvalues) == 2 * (cut.size - 1)
        assert all(z.real == 0.0 and z.imag == round(z.imag) for z in rep.eigenvalues)
        _assert_same_multiset(rep.eigenvalues, eq.spectrum(rep.matrix), 1e-6)


@pytest.mark.parametrize("cut", [Cutoff(k=8, d=1), Cutoff(k=6, d=2)], ids=str)
def test_translation_modes_are_jordan_pairs(cut):
    # on the block, 0 has algebraic multiplicity 4d and geometric 2d; the
    # ranks of powers of the block check the deflation count independently
    for base in _basis_equilibria(cut):
        rep = eq.linearize(base)
        assert sum(rep.jordan[0]) == 4 * cut.d
        assert rep.jordan[0][0] == 2 * cut.d
        dim = rep.block.shape[0]
        ranks = [
            np.linalg.matrix_rank(np.linalg.matrix_power(rep.block, m), tol=1e-8)
            for m in (1, 2, 3)
        ]
        assert ranks == [dim - 2 * cut.d, dim - 4 * cut.d, dim - 4 * cut.d]


def test_non_integer_block_falls_back_to_raw_eigenvalues(monkeypatch):
    # with a zero kernel tolerance no eigenvalue counts as an integer: the
    # block part of the spectrum is then its raw eigenvalues
    monkeypatch.setattr(eq, "INTEGER_TOL", 0.0)
    base = fock.basis_vector(Cutoff(k=8, d=1), (1,), (2,))
    rep = eq.linearize(base)
    assert rep.jordan is None
    assert not rep.integer_spectrum_ok
    _assert_same_multiset(rep.eigenvalues, eq.spectrum(rep.matrix), 1e-6)


def test_all_d2_k8_basis_equilibria_have_integer_spectra():
    # dense eigenvalues of the defective zero-mode blocks split by ~2e-8,
    # which failed the integer test on 167 of these 210 states
    cut = Cutoff(k=8, d=2)
    states = _basis_equilibria(cut)
    assert len(states) == 210
    for base in states:
        rep = eq.linearize(base)
        assert rep.integer_spectrum_ok, base
        assert rep.perturbed_subspace_dim <= 4 * cut.d
        # the spectrum path never builds the dense chart or matrix
        assert "chart" not in vars(rep) and "matrix" not in vars(rep)

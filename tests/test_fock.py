import json
import math
from itertools import product

import numpy as np
import pytest

from _support import brute_excitation, brute_matrix, random_state
from harmonic_hartree import fock
from harmonic_hartree.errors import BasisMismatchError, NormalizationError
from harmonic_hartree.fock import Cutoff, FockVector, MultiIndex


CUT = Cutoff(k=8, d=1)


def bv(a, b, cut=CUT):
    return fock.basis_vector(cut, a, b)


# ---------------------------------------------------------------------------
# types and basis enumeration

def test_multi_index_validation():
    with pytest.raises(ValueError):
        MultiIndex((0, 1), (0,))
    with pytest.raises(ValueError):
        MultiIndex((-1,), (0,))
    for count in (0.5, 1.0, True, "1"):
        with pytest.raises(ValueError):
            MultiIndex((count,), (0,))
    idx = MultiIndex((1, 2), (0, 3))
    assert idx.degree == 6
    assert idx.excitation == 0


def test_cutoff_validation():
    with pytest.raises(ValueError):
        Cutoff(k=-1, d=1)
    with pytest.raises(ValueError):
        Cutoff(k=2, d=0)
    for k, d in ((8.9, 1), (8.0, 1), (True, 1), (8, True), ("8", 1), (8, 1.0)):
        with pytest.raises(ValueError):
            Cutoff(k=k, d=d)


@pytest.mark.parametrize("k, d", [(0, 1), (8, 1), (6, 2), (4, 3)])
def test_basis_equals_checked_labels(k, d):
    # basis() skips MultiIndex's checks; its labels equal checked ones,
    # hash alike and keep the dataclass behaviour
    cut = Cutoff(k=k, d=d)
    checked = tuple(MultiIndex(tuple(r[:d]), tuple(r[d:])) for r in fock.counts(cut).tolist())
    labels = fock.basis(cut)
    assert labels == checked
    assert {idx: j for j, idx in enumerate(labels)} == {idx: j for j, idx in enumerate(checked)}
    assert all(type(idx) is MultiIndex and type(idx.a) is tuple for idx in labels)
    assert [repr(idx) for idx in labels] == [repr(idx) for idx in checked]
    with pytest.raises(AttributeError):
        labels[-1].a = (0,) * d  # still frozen


def test_basis_size_and_order():
    assert len(fock.basis(Cutoff(k=8, d=1))) == 45  # (K+1)(K+2)/2
    assert len(fock.basis(Cutoff(k=8, d=2))) == 495  # C(8+4, 4)
    idxs = fock.basis(CUT)
    assert list(idxs) == sorted(idxs)


def product_basis(k, d):
    """Every count row (a, b) with |a| + |b| <= k, from itertools.product
    over each half, sorted: an enumeration independent of ``fock``."""
    rows = [
        a + b
        for a in product(range(k + 1), repeat=d) if sum(a) <= k
        for b in product(range(k + 1 - sum(a)), repeat=d) if sum(a) + sum(b) <= k
    ]
    return sorted(rows)


@pytest.mark.parametrize("k, d", [(8, 1), (8, 2), (8, 3), (8, 4), (12, 3), (24, 2)])
def test_rank_is_position_in_product_enumeration(k, d):
    cut = Cutoff(k=k, d=d)
    rows = product_basis(k, d)
    assert len(rows) == cut.size
    assert np.array_equal(fock.counts(cut), rows)
    # ranked as the loader ranks them, in a shuffled term order
    order = np.random.default_rng(k + d).permutation(len(rows))
    pos = fock._positions(cut, [rows[j][:d] for j in order], [rows[j][d:] for j in order])
    assert np.array_equal(pos, order)
    assert [idx.a + idx.b for idx in fock.basis(cut)] == rows


def dict_placement(cut, terms):
    """The dense array of ``terms`` summed in a dict (repeats in order) and
    placed at the positions of the product enumeration."""
    pos = {row: j for j, row in enumerate(product_basis(cut.k, cut.d))}
    coeffs = {}
    for t in terms:
        key = tuple(t["a"]) + tuple(t["b"])
        coeffs[key] = coeffs.get(key, 0j) + complex(t["re"], t["im"])
    arr = np.zeros(cut.size, dtype=complex)
    for key, c in coeffs.items():
        arr[pos[key]] = c
    return arr


@pytest.mark.parametrize("k, d", [(8, 1), (6, 2), (8, 3)])
def test_loader_matches_dict_placement(k, d):
    cut = Cutoff(k=k, d=d)
    rows = product_basis(k, d)
    rng = np.random.default_rng(d)
    for _ in range(5):
        picks = rng.integers(0, len(rows), size=40)
        picks[20:30] = picks[:10]  # repeated terms
        scale = rng.choice([0.0, -0.0, 1.0, 1e-300], size=(40, 2))
        parts = rng.normal(size=(40, 2)) * scale
        terms = [{"a": list(rows[j][:d]), "b": list(rows[j][d:]),
                  "re": float(re), "im": float(im)} for j, (re, im) in zip(picks, parts)]
        v = fock.from_json_dict(json.loads(json.dumps({"K": k, "d": d, "terms": terms})))
        assert v.array.tobytes() == dict_placement(cut, terms).tobytes()
        # the mapping constructor places each amplitude as given, -0.0 too
        mapping = {MultiIndex(rows[j][:d], rows[j][d:]): complex(re, im)
                   for j, (re, im) in zip(picks, parts)}
        expected = np.zeros(cut.size, dtype=complex)
        expected[list(map(rows.index, (i.a + i.b for i in mapping)))] = list(mapping.values())
        assert FockVector(cut, mapping).array.tobytes() == expected.tobytes()


def test_norm_sq_is_a_sequential_sum():
    # squares 1, 1e-16, 1e-16: each addition rounds back to 1.0, where a
    # compensated sum (Python's sum() from 3.12 on) would round up
    v = FockVector(CUT, {MultiIndex((0,), (0,)): 1.0, MultiIndex((1,), (0,)): 1e-8,
                         MultiIndex((0,), (1,)): 1e-8j})
    assert v.norm_sq == 1.0
    assert fock.zero(CUT).norm_sq == 0.0


def test_vector_rejects_out_of_cutoff_terms():
    with pytest.raises(ValueError):
        FockVector(Cutoff(k=2, d=1), {MultiIndex((2,), (1,)): 1.0})


# ---------------------------------------------------------------------------
# ladder operations

def test_lowering_a_examples():
    assert fock.apply_lowering_a(0, bv((0,), (0,))).coeffs == {}
    out = fock.apply_lowering_a(0, bv((2,), (0,)))
    assert out.items() == [(MultiIndex((1,), (0,)), pytest.approx(math.sqrt(2)))]
    combo = 0.3 * bv((1,), (0,)) + (0.4 + 0.1j) * bv((2,), (0,))
    out = fock.apply_lowering_a(0, combo)
    expected = 0.3 * bv((0,), (0,)) + (0.4 + 0.1j) * math.sqrt(2) * bv((1,), (0,))
    assert (out - expected).norm == 0.0


def test_raising_examples():
    assert fock.apply_raising_a(0, bv((0,), (0,))).items() == [
        (MultiIndex((1,), (0,)), 1.0 + 0j)
    ]
    assert fock.apply_lowering_b(0, bv((0,), (0,))).coeffs == {}
    out = fock.apply_raising_b(0, bv((0,), (1,)))
    assert out.items() == [(MultiIndex((0,), (2,)), pytest.approx(math.sqrt(2)))]


def test_raising_at_cutoff_sets_flag():
    top = bv((8,), (0,))
    out = fock.apply_raising_a(0, top)
    assert out.coeffs == {} and out.truncated
    # flag propagates through sums and scalings
    assert (out + bv((0,), (0,))).truncated
    assert (2.0 * out).truncated
    inner_ok = fock.apply_raising_a(0, bv((6,), (0,)))
    assert not inner_ok.truncated


def test_axis_out_of_range():
    with pytest.raises(ValueError):
        fock.apply_lowering_a(1, bv((0,), (0,)))


def test_excitation_examples():
    assert fock.apply_excitation(bv((0,), (0,))).coeffs == {}
    out = fock.apply_excitation(bv((2,), (0,)))
    assert out.items() == [(MultiIndex((2,), (0,)), -2.0 + 0j)]
    mix = (1 / math.sqrt(2)) * (bv((0,), (1,)) + bv((1,), (0,)))
    out = fock.apply_excitation(mix)
    expected = (1 / math.sqrt(2)) * (bv((0,), (1,)) - bv((1,), (0,)))
    assert (out - expected).norm == 0.0


# ---------------------------------------------------------------------------
# inner product

def test_inner_orthonormality_and_sesquilinearity():
    v = bv((0,), (0,))
    assert fock.inner(v, v) == 1.0 + 0j
    assert fock.inner(bv((1,), (0,)), bv((0,), (1,))) == 0.0 + 0j
    u = random_state(CUT, np.random.default_rng(0))
    assert fock.inner(1j * u, u) == pytest.approx(1j * u.norm_sq)
    assert fock.inner(u, 1j * u) == pytest.approx(-1j * u.norm_sq)


def test_inner_mismatch_error():
    with pytest.raises(BasisMismatchError):
        fock.inner(bv((0,), (0,)), fock.basis_vector(Cutoff(k=4, d=1), (0,), (0,)))


def test_adjointness_property():
    rng = np.random.default_rng(1)
    for d in (1, 2):
        cut = Cutoff(k=8, d=d)
        for _ in range(5):
            u = random_state(cut, rng, max_degree=cut.k - 1)
            v = random_state(cut, rng, max_degree=cut.k - 1)
            for i in range(d):
                assert abs(
                    fock.inner(fock.apply_raising_a(i, u), v)
                    - fock.inner(u, fock.apply_lowering_a(i, v))
                ) < 1e-14
                assert abs(
                    fock.inner(fock.apply_raising_b(i, u), v)
                    - fock.inner(u, fock.apply_lowering_b(i, v))
                ) < 1e-14


def dense_matrix(apply_fn, cut):
    """Dense matrix of a sparse operation, one basis-vector column at a time."""
    idxs = fock.basis(cut)
    return np.array(
        [fock.to_array(apply_fn(FockVector(cut, {idx: 1.0 + 0j}))) for idx in idxs]
    ).T


def table_matrix(cut, op, axis):
    """Dense matrix of one row of the ladder table's gather arrays."""
    table = fock.ladder_table(cut)
    n = table.n_diag.size
    mat = np.zeros((n, n + 1))
    mat[np.arange(n), table.index[op, axis]] = table.weight[op, axis].real
    return mat[:, :n]


def test_commutators_against_brute_force():
    for d in (1, 2):
        cut = Cutoff(k=6, d=d)
        eye_interior = [i for i in fock.basis(cut) if i.degree <= cut.k - 2]
        pos = {idx: j for j, idx in enumerate(fock.basis(cut))}
        sides = (
            ("a", fock.apply_lowering_a, fock.apply_raising_a),
            ("b", fock.apply_lowering_b, fock.apply_raising_b),
        )
        for i in range(d):
            for side, lower, raise_ in sides:
                low = dense_matrix(lambda v: lower(i, v), cut)
                high = dense_matrix(lambda v: raise_(i, v), cut)
                assert np.array_equal(low, brute_matrix(cut, f"lower_{side}", i))
                assert np.array_equal(high, brute_matrix(cut, f"raise_{side}", i))
                comm = low @ high - high @ low
                for idx in eye_interior:
                    col = comm[:, pos[idx]]
                    expected = np.zeros_like(col)
                    expected[pos[idx]] = 1.0
                    assert np.abs(col - expected).max() < 1e-14


def test_ladder_table_matches_brute_force():
    for d in (1, 2):
        cut = Cutoff(k=6, d=d)
        table = fock.ladder_table(cut)
        assert np.array_equal(np.diag(table.n_diag), brute_excitation(cut))
        for i in range(d):
            for axis, side in ((i, "a"), (d + i, "b")):
                low = brute_matrix(cut, f"lower_{side}", i)
                high = brute_matrix(cut, f"raise_{side}", i)
                assert np.array_equal(table_matrix(cut, fock.LOWER, axis), low)
                assert np.array_equal(table_matrix(cut, fock.RAISE, axis), high)
                assert np.abs(table_matrix(cut, fock.PAIR_LOWER, axis) - low @ low).max() <= 1e-14
                assert np.abs(table_matrix(cut, fock.DOUBLE_RAISE, axis) - high @ high).max() <= 1e-14
                # boundary weights hold what truncated raising drops: the
                # untruncated squared column norms are (n+1) and (n+1)(n+2)
                n = np.array([idx.a[i] if side == "a" else idx.b[i] for idx in fock.basis(cut)])
                kept = np.sum(np.abs(high) ** 2, axis=0)
                kept2 = np.sum(np.abs(high @ high) ** 2, axis=0)
                assert np.allclose(table.boundary[0, axis] + kept, n + 1, rtol=0, atol=1e-12)
                assert np.allclose(table.boundary[1, axis] + kept2, (n + 1) * (n + 2), rtol=0, atol=1e-12)
        # raising flags a state with support at degree K; lowering never does
        rng = np.random.default_rng(d)
        full = random_state(cut, rng)
        inner_only = random_state(cut, rng, max_degree=cut.k - 1)
        for i in range(d):
            for lower, raise_ in (
                (fock.apply_lowering_a, fock.apply_raising_a),
                (fock.apply_lowering_b, fock.apply_raising_b),
            ):
                assert raise_(i, full).truncated
                assert not lower(i, full).truncated
                assert not raise_(i, inner_only).truncated
                assert not lower(i, inner_only).truncated


@pytest.mark.parametrize("d", [1, 2, 3])
def test_gather_reads_a_padded_buffer_bit_for_bit(d):
    # an (n + 1,) buffer with a zero last slot is gathered in place; every
    # row, slice and (row, axis) pair gives the bits of the unpadded call
    # and of the real parts of the weights applied to the padded copy, so
    # storing the weights complex moves no bit
    cut = Cutoff(k=6 if d < 3 else 5, d=d)
    table = fock.ladder_table(cut)
    assert table.weight.dtype == complex and not table.weight.imag.any()
    y = fock.to_array(random_state(cut, np.random.default_rng(d)))
    padded = np.concatenate((y, [0.0]))
    rows = [*range(4), slice(fock.LOWER, fock.RAISE), slice(None),
            *product(range(4), range(2 * d))]
    for ops in rows:
        image = table.gather(y, ops)
        assert image.tobytes() == table.gather(padded, ops).tobytes()
        assert image.tobytes() == (table.weight.real[ops] * padded[table.index[ops]]).tobytes()


# ---------------------------------------------------------------------------
# component split and expectations

def test_component_split_examples():
    v = bv((0,), (0,))
    parts = fock.component_split(v)
    assert set(parts) == {0} and (parts[0] - v).norm == 0.0

    mix = 0.6 * bv((0,), (0,)) + 0.8j * bv((2,), (0,))
    parts = fock.component_split(mix)
    assert set(parts) == {-2, 0}
    assert (parts[0] - 0.6 * bv((0,), (0,))).norm == 0.0
    assert (parts[-2] - 0.8j * bv((2,), (0,))).norm == 0.0


def test_component_split_reconstruction_random():
    rng = np.random.default_rng(2)
    v = random_state(CUT, rng)
    parts = fock.component_split(v)
    recon = None
    for _, p in sorted(parts.items()):
        recon = p if recon is None else recon + p
    assert (recon - v).norm <= 1e-14
    # orthogonality and Parseval
    keys = sorted(parts)
    for i, a in enumerate(keys):
        for b in keys[i + 1:]:
            assert fock.inner(parts[a], parts[b]) == 0.0
    assert abs(v.norm_sq - sum(p.norm_sq for p in parts.values())) <= 1e-14
    # each component is an exact eigenvector
    for n, p in parts.items():
        assert (fock.apply_excitation(p) - float(n) * p).norm == 0.0


def test_expectations():
    v = bv((0,), (1,))
    assert fock.expectation_n(v) == pytest.approx(1.0)
    assert fock.expectation_n2(v) == pytest.approx(1.0)

    mix = (1 / math.sqrt(2)) * (bv((0,), (0,)) + bv((2,), (0,)))
    assert fock.expectation_n(mix) == pytest.approx(-1.0)
    assert fock.expectation_n2(mix) == pytest.approx(2.0)

    rng = np.random.default_rng(3)
    v = random_state(CUT, rng)
    parts = fock.component_split(v)
    assert fock.expectation_n(v) == pytest.approx(
        sum(n * p.norm_sq for n, p in parts.items()), abs=1e-12
    )
    assert fock.expectation_n2(v) == pytest.approx(
        sum(n * n * p.norm_sq for n, p in parts.items()), abs=1e-12
    )
    # Cauchy-Schwarz
    assert fock.expectation_n2(v) >= fock.expectation_n(v) ** 2 - 1e-12


def test_expectation_requires_unit_norm():
    with pytest.raises(NormalizationError):
        fock.expectation_n(2.0 * bv((0,), (0,)))


def test_excitation_matches_brute_force():
    cut = Cutoff(k=5, d=2)
    mat = dense_matrix(fock.apply_excitation, cut)
    assert np.array_equal(mat, brute_excitation(cut))
    assert np.array_equal(np.diag(fock.ladder_table(cut).n_diag), brute_excitation(cut))


# ---------------------------------------------------------------------------
# serialization and dense bridge

def test_json_round_trip_and_sorted_terms():
    rng = np.random.default_rng(4)
    v = random_state(CUT, rng)
    obj = fock.to_json_dict(v)
    assert obj["d"] == 1 and obj["K"] == 8
    keys = [(tuple(t["a"]), tuple(t["b"])) for t in obj["terms"]]
    assert keys == sorted(keys)
    back = fock.from_json_dict(json.loads(json.dumps(obj)))
    assert (back - v).norm <= 1e-15


def test_from_json_rejects_bad_terms():
    with pytest.raises(ValueError):
        fock.from_json_dict(
            {"d": 1, "K": 2, "terms": [{"a": [3], "b": [0], "re": 1.0, "im": 0.0}]}
        )


def test_dense_round_trip():
    rng = np.random.default_rng(5)
    v = random_state(CUT, rng)
    arr = fock.to_array(v)
    assert arr.shape == (45,)
    back = fock.from_array(CUT, arr)
    assert np.array_equal(back.array, v.array)
    # from_array copies its input and to_array returns a copy: writing into
    # either array leaves both vectors as they were
    arr[::3] = 0.0
    fock.to_array(back)[:] = 0.0
    assert np.array_equal(back.array, v.array) and np.count_nonzero(v.array[::3])
    # the stored array is read-only
    with pytest.raises(ValueError):
        v.array[0] = 1.0
    sparse = fock.from_array(CUT, arr)  # exact zeros are not listed
    assert list(sparse.coeffs) == [idx for idx, c in zip(fock.basis(CUT), arr) if c != 0]
    with pytest.raises(BasisMismatchError):
        fock.from_array(CUT, np.zeros(7, dtype=complex))


def test_normalized_zero_vector_errors():
    with pytest.raises(NormalizationError):
        fock.zero(CUT).normalized()

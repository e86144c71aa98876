"""Property tests of the energy, the vector fields, gauge fixing and the JSON
form over random states.

States are drawn in d = 1, 2 with support at degree <= K - 2, where the
truncated algebra is exact; the JSON text property also draws d = 3 and
any support.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from harmonic_hartree import cli, fock, hamiltonian as ham, reduction as red
from harmonic_hartree.errors import TruncationError
from harmonic_hartree.fock import Cutoff, FockVector, MultiIndex
from harmonic_hartree.hamiltonian import FieldKind

CUTOFFS = (Cutoff(k=6, d=1), Cutoff(k=4, d=2), Cutoff(k=6, d=2))


@st.composite
def interior_states(draw):
    """Unit state supported at degree <= K - 2."""
    cut = draw(st.sampled_from(CUTOFFS))
    idxs = [idx for idx in fock.basis(cut) if idx.degree <= cut.k - 2]
    parts = draw(
        arrays(np.float64, (2, len(idxs)), elements=st.floats(-1.0, 1.0, width=32))
    )
    coeffs = parts[0] + 1j * parts[1]
    norm = float(np.linalg.norm(coeffs))
    if norm < 1e-3:
        coeffs, norm = np.eye(1, len(idxs), dtype=complex)[0], 1.0
    return FockVector(cut, {i: complex(c) / norm for i, c in zip(idxs, coeffs) if c != 0})


@settings(max_examples=60, deadline=None)
@given(interior_states(), st.floats(-math.pi, math.pi))
def test_energy_is_phase_invariant(v, theta):
    rotated = complex(np.exp(1j * theta)) * v
    assert ham.energy(rotated) == pytest.approx(ham.energy(v), abs=1e-12)


@settings(max_examples=60, deadline=None)
@given(interior_states())
def test_chart_field_is_complex_orthogonal(v):
    assert abs(fock.inner(v, ham.vector_field(FieldKind.CHART, v))) <= 1e-12


@settings(max_examples=60, deadline=None)
@given(interior_states())
def test_sphere_field_is_tangent(v):
    assert abs(fock.inner(v, ham.vector_field(FieldKind.SPHERE, v)).real) <= 1e-12


@settings(max_examples=60, deadline=None)
@given(interior_states())
def test_full_equals_sphere_on_unit_states(v):
    full = ham.vector_field(FieldKind.FULL, v)
    sphere = ham.vector_field(FieldKind.SPHERE, v)
    assert (full - sphere).norm <= 1e-12


@settings(max_examples=60, deadline=None)
@given(interior_states())
def test_gauge_fix_is_idempotent(v):
    once = red.gauge_fix(v).rep
    assert (red.gauge_fix(once).rep - once).norm <= 1e-14


@settings(max_examples=60, deadline=None)
@given(interior_states())
def test_json_round_trip_is_exact(v):
    back = fock.from_json_dict(json.loads(json.dumps(fock.to_json_dict(v))))
    assert back.cutoff == v.cutoff
    assert back.coeffs == v.coeffs
    assert not back.truncated


# parts whose text is easy to get wrong: signed zeros, subnormals and the
# 1e16 scale where repr switches to exponent form
EDGE_PARTS = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e16, -1e16]),
    st.floats(-1e-300, 1e-300, allow_subnormal=True),
    st.floats(1e15, 1e17) | st.floats(-1e17, -1e15),
    st.floats(allow_nan=False, allow_infinity=False),
)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(CUTOFFS + (Cutoff(k=4, d=3),)), st.data())
def test_state_json_template_matches_stdlib(cut, data):
    # every term is a row of one template: from no terms up to the whole
    # basis (210 terms at K = 4, d = 3); a pick whose parts are zeros is no term
    size = data.draw(st.integers(0, cut.size))
    picks = data.draw(st.permutations(range(cut.size)))[:size]
    arr = np.zeros(cut.size, dtype=complex)
    arr.real[picks] = data.draw(st.lists(EDGE_PARTS, min_size=size, max_size=size))
    arr.imag[picks] = data.draw(st.lists(EDGE_PARTS, min_size=size, max_size=size))
    v = fock.from_array(cut, arr)
    text = json.dumps(fock.to_json_dict(v), indent=2, sort_keys=True, allow_nan=False)
    assert cli._state_json(v) == text + "\n"


def _bits(terms):
    return [(idx, c.real.hex(), c.imag.hex()) for idx, c in terms]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(CUTOFFS + (Cutoff(k=4, d=3),)), st.data())
def test_items_list_nonzero_terms_in_basis_order(cut, data):
    # exact zeros, signed zeros included, are dropped; every other part
    # keeps its bits
    idxs = fock.basis(cut)
    picks = data.draw(st.lists(st.sampled_from(idxs), max_size=8, unique=True))
    coeffs = {idx: complex(data.draw(EDGE_PARTS), data.draw(EDGE_PARTS)) for idx in picks}
    v = FockVector(cut, coeffs)
    expected = [(idx, coeffs[idx]) for idx in idxs if coeffs.get(idx, 0) != 0]
    assert _bits(v.items()) == _bits(expected)
    assert _bits(v.coeffs.items()) == _bits(expected)


@settings(max_examples=60, deadline=None)
@given(interior_states(), st.floats(-math.pi, math.pi))
def test_norm_sq_is_the_sequential_sum_over_items(v, theta):
    # bit for bit: normalized() scales the integrator's initial state by it
    for u in (v, complex(np.exp(1j * theta)) * v, v + v):
        acc = 0.0
        for _, c in u.items():
            acc += (c * c.conjugate()).real
        assert u.norm_sq.hex() == acc.hex()


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(CUTOFFS),
    st.data(),
    st.floats(-1.2, 1.2),
    st.floats(0.1, 1.4),
    st.sampled_from(list(FieldKind)),
)
def test_boundary_support_with_moment_raises(cut, data, phase, angle, kind):
    # a degree-K element paired with its lowered neighbour along one axis:
    # the first moment along that axis is Re(cos * sin * e^{-i phase}) * sqrt(n) != 0
    top = data.draw(
        st.sampled_from([idx for idx in fock.basis(cut) if idx.degree == cut.k])
    )
    axis = data.draw(st.sampled_from([j for j, n in enumerate(top.a + top.b) if n > 0]))
    counts = list(top.a + top.b)
    counts[axis] -= 1
    lower = MultiIndex(tuple(counts[: cut.d]), tuple(counts[cut.d :]))
    v = FockVector(
        cut,
        {top: math.cos(angle) + 0j, lower: math.sin(angle) * complex(np.exp(1j * phase))},
    )
    with pytest.raises(TruncationError):
        ham.vector_field(kind, v)

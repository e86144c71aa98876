import math

import numpy as np
import pytest

from _support import random_state
from harmonic_hartree import fock, hamiltonian as ham, reduction as red
from harmonic_hartree.errors import BasisMismatchError, NormalizationError
from harmonic_hartree.fock import Cutoff
from harmonic_hartree.hamiltonian import FieldKind

CUT = Cutoff(k=8, d=1)


def bv(a, b, cut=CUT):
    return fock.basis_vector(cut, a, b)


def sphere_tangent(base, rng):
    d = random_state(base.cutoff, rng)
    return d - complex(fock.inner(d, base).real) * base


def test_moment_map():
    assert red.moment_map(bv((0,), (0,))) == pytest.approx(0.5)
    assert red.moment_map(fock.zero(CUT)) == 0.0
    rng = np.random.default_rng(0)
    u = random_state(CUT, rng)
    assert red.moment_map(2.0 * u) == pytest.approx(2.0, abs=1e-12)


def test_project_tangent_kills_phase_direction():
    rng = np.random.default_rng(1)
    base = random_state(CUT, rng)
    for t in (1.0, -0.3, 7.0):
        out = red.project_tangent(base, (t * 1j) * base)
        assert out.norm <= 1e-13


def test_project_tangent_fixes_orthogonal_vectors():
    rng = np.random.default_rng(2)
    base = random_state(CUT, rng)
    d = sphere_tangent(base, rng)
    d = d - fock.inner(d, base) * base  # fully complex-orthogonal
    out = red.project_tangent(base, d)
    assert (out - d).norm <= 1e-13
    # idempotence
    again = red.project_tangent(base, out)
    assert (again - out).norm <= 1e-13


def test_project_tangent_example():
    base = bv((0,), (0,))
    delta = 1j * bv((0,), (0,)) + bv((0,), (2,))
    out = red.project_tangent(base, delta)
    assert (out - bv((0,), (2,))).norm <= 1e-14


def test_project_tangent_preconditions():
    base = bv((0,), (0,))
    with pytest.raises(NormalizationError):
        red.project_tangent(2.0 * base, bv((0,), (1,)))
    with pytest.raises(ValueError):
        red.project_tangent(base, base)  # Re<base, base> = 1


def test_symplectic_form_antisymmetry_and_sign():
    base = bv((0,), (0,))
    d = bv((0,), (1,))
    assert red.symplectic_form(base, d, d) == 0.0
    # sign convention fixture: Im<u, iu> = -|u|^2
    assert red.symplectic_form(base, d, 1j * d) == pytest.approx(-1.0)


def test_symplectic_form_precondition():
    base = bv((0,), (0,))
    with pytest.raises(ValueError):
        red.symplectic_form(base, base, bv((0,), (1,)))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize(
    "call",
    [
        lambda base, v: red.project_tangent(base, v),
        lambda base, v: red.symplectic_form(base, v, v),
        lambda base, v: (red.projective_distance(v, base), red.projective_distance(base, v)),
        lambda base, v: red.moment_map(v),
    ],
    ids=["project_tangent", "symplectic_form", "projective_distance", "moment_map"],
)
def test_non_finite_state_is_rejected(call, bad):
    # a state loaded unchecked, non-finite at |0_1>, against a base that is
    # zero there (the product is NaN) and one that is not (it is infinite)
    v = fock.from_json_dict({"K": 8, "d": 1, "terms": [{"a": [0], "b": [1], "re": bad, "im": 0.0}]})
    for base in (bv((0,), (0,)), random_state(CUT, np.random.default_rng(6))):
        with pytest.raises(ValueError):
            call(base, v)


def test_projective_distance_rejects_an_overflowing_inner_product():
    # finite states whose <u, v> overflows float64
    big = 1e200 * bv((0,), (1,))
    with pytest.raises(ValueError, match="is not finite"):
        red.projective_distance(big, big)


@pytest.mark.parametrize(
    "call",
    [
        lambda u, v: red.projective_distance(u, v),
        lambda u, v: red.quotient_distance(red.QuotientPoint(u), red.QuotientPoint(v)),
        lambda u, v: red.symplectic_form(v, u, bv((1,), (0,))),
    ],
    ids=["projective_distance", "quotient_distance", "symplectic_form"],
)
def test_overflowing_modulus_of_a_finite_inner_product_is_rejected(call):
    # <u, v> = 1.3e308 (1 - 1j) is finite but its modulus is not; the state
    # is built from its array, as scaling a state would overflow a warning
    v = bv((0,), (1,))
    u = fock.from_array(CUT, np.where(v.array != 0, 1.3e308 * (1 + 1j), 0))
    with pytest.raises(ValueError, match="overflows float64"):
        call(u, v)


def test_moment_map_rejects_an_overflowing_squared_norm():
    with pytest.raises(ValueError, match="is not finite"):
        red.moment_map(1e200 * bv((0,), (1,)))


def test_pullback_identity():
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(20):
        base = random_state(CUT, rng)
        d1 = sphere_tangent(base, rng)
        d2 = sphere_tangent(base, rng)
        ambient = red.ambient_form(d1, d2)
        quotient = red.symplectic_form(
            base, red.project_tangent(base, d1), red.project_tangent(base, d2)
        )
        worst = max(worst, abs(ambient - quotient))
    assert worst <= 1e-12


def test_pushforward_of_sphere_field_is_chart_field():
    rng = np.random.default_rng(4)
    worst = 0.0
    for _ in range(20):
        base = random_state(CUT, rng, max_degree=CUT.k - 2)
        z = ham.vector_field(FieldKind.SPHERE, base)
        x = ham.vector_field(FieldKind.CHART, base)
        worst = max(worst, (red.project_tangent(base, z) - x).norm)
    assert worst <= 1e-12


def test_gauge_fix_phase_invariance_and_idempotence():
    rng = np.random.default_rng(5)
    u = random_state(CUT, rng)
    q0 = red.gauge_fix(u)
    for theta in (0.0, 1.0, -2.5):
        q = red.gauge_fix(np.exp(1j * theta) * u)
        assert (q.rep - q0.rep).norm <= 1e-12
    again = red.gauge_fix(q0.rep)
    assert (again.rep - q0.rep).norm <= 1e-14
    # leading coefficient is real positive
    lead = next(c for _, c in q0.rep.items() if abs(c) > 1e-10)
    assert lead.imag == pytest.approx(0.0, abs=1e-14) and lead.real > 0


def test_gauge_fix_example_leading_negative_imaginary():
    s = (-0.6j) * bv((0,), (0,)) + 0.8 * bv((0,), (2,))
    rep = red.gauge_fix(s).rep
    coeffs = dict(rep.items())
    assert coeffs[fock.MultiIndex((0,), (0,))] == pytest.approx(0.6)
    assert coeffs[fock.MultiIndex((0,), (2,))] == pytest.approx(0.8j)


def test_gauge_fix_errors():
    with pytest.raises(NormalizationError):
        red.gauge_fix(fock.zero(CUT))
    with pytest.raises(NormalizationError):
        red.gauge_fix(0.5 * bv((0,), (0,)))


def test_quotient_distance_properties():
    rng = np.random.default_rng(6)
    u = random_state(CUT, rng)
    p = red.gauge_fix(u)
    assert red.quotient_distance(p, p) == 0.0
    q = red.gauge_fix(bv((0,), (3,)))
    p0 = red.gauge_fix(bv((0,), (0,)))
    assert red.quotient_distance(p0, q) == pytest.approx(math.sqrt(2))
    for theta in (0.4, 2.2):
        q2 = red.gauge_fix(np.exp(1j * theta) * u)
        assert red.quotient_distance(p, q2) <= 1e-12
    # agrees with the chordal formula on generic pairs
    v = random_state(CUT, rng)
    expected = math.sqrt(max(0.0, 2.0 - 2.0 * abs(fock.inner(u, v))))
    assert red.projective_distance(u, v) == pytest.approx(expected, abs=1e-12)


def test_quotient_distance_mismatch():
    with pytest.raises(BasisMismatchError):
        red.quotient_distance(
            red.gauge_fix(bv((0,), (0,))),
            red.gauge_fix(fock.basis_vector(Cutoff(k=4, d=1), (0,), (0,))),
        )

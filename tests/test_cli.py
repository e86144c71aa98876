import hashlib
import json
import math
import os
import resource
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from _support import random_centered_state
import harmonic_hartree
from harmonic_hartree import _render, cli, equilibria, fock, hamiltonian, integrate, orbits
from harmonic_hartree import pipeline as pl
from harmonic_hartree.fock import Cutoff

CUT = Cutoff(k=8, d=1)


def write_state(path, state):
    path.write_text(json.dumps(fock.to_json_dict(state)))
    return str(path)


@pytest.fixture
def ground(tmp_path):
    return write_state(tmp_path / "ground.json", fock.basis_vector(CUT, (0,), (0,)))


@pytest.fixture
def mix(tmp_path):
    s = (1 / math.sqrt(2)) * (
        fock.basis_vector(CUT, (0,), (0,)) + fock.basis_vector(CUT, (2,), (0,))
    )
    return write_state(tmp_path / "mix.json", s)


def test_simulate_outputs(tmp_path, ground):
    out = tmp_path / "sim.csv"
    report = tmp_path / "sim.json"
    rc = cli.main([
        "simulate", "--state", ground, "--t-end", "6.2832", "--tol", "1e-10",
        "--samples", "9", "--out", str(out), "--report", str(report),
    ])
    assert rc == 0
    lines = out.read_text().splitlines()
    header = lines[0].split(",")
    assert header[0] == "t" and header[-3:] == ["norm", "meanN", "energy"]
    assert len(header) == 1 + 2 * 45 + 3
    assert len(lines) == 10
    rep = json.loads(report.read_text())
    assert rep["norm_drift"] <= 1e-9
    assert rep["energy_drift"] <= 1e-9
    assert rep["max_renormalization"] <= 1e-9


@pytest.mark.parametrize(
    "command, suffixes",
    [(["simulate", "--t-end", "3.14159", "--tol", "1e-10", "--samples", "7",
       "--out", "{out}.csv", "--report", "{out}.json"], [".csv", ".json"]),
     (["pipeline", "--t", "0.5", "--grid-n", "128", "--grid-l", "6.0",
       "--out-prefix", "{out}"], ["_f.csv", "_rho.csv", "_report.json"])],
    ids=["simulate", "pipeline"],
)
def test_simulate_determinism(tmp_path, mix, command, suffixes):
    # two runs write byte-identical files
    for run in ("a", "b"):
        argv = [arg.format(out=tmp_path / run) for arg in command]
        assert cli.main([argv[0], "--state", mix, *argv[1:]]) == 0
    for suffix in suffixes:
        assert (tmp_path / f"a{suffix}").read_bytes() == (tmp_path / f"b{suffix}").read_bytes()


def test_spectrum_outputs(tmp_path):
    vac = write_state(
        tmp_path / "vac.json", fock.basis_vector(Cutoff(k=6, d=1), (0,), (0,))
    )
    jpath, cpath = tmp_path / "spec.json", tmp_path / "spec.csv"
    rc = cli.main(["spectrum", "--state", vac, "--json", str(jpath), "--csv", str(cpath)])
    assert rc == 0
    rep = json.loads(jpath.read_text())
    assert rep["perturbed_dim"] <= 4
    assert rep["integer_ok"] is True
    assert max(abs(e[0]) for e in rep["eigenvalues"]) <= 1e-9
    rows = cpath.read_text().splitlines()
    assert rows[0] == "re,im"
    assert len(rows) == 1 + len(rep["eigenvalues"])


def test_spectrum_takes_an_eigenvector_off_unit_norm_within_tolerance(tmp_path):
    # |0_8> at amplitude 1 + 4e-11 passes the unit check; its chart field,
    # 6.4e-10, measures that norm defect, not a distance from equilibrium
    path = tmp_path / "off.json"
    path.write_text(json.dumps({"K": 10, "d": 1, "terms": [
        {"a": [0], "b": [8], "re": 1.00000000004, "im": 0.0}]}))
    jpath, cpath = tmp_path / "s.json", tmp_path / "s.csv"
    rc = cli.main(["spectrum", "--state", str(path), "--json", str(jpath), "--csv", str(cpath)])
    assert rc == 0
    rep = json.loads(jpath.read_text())
    assert rep["integer_ok"] is True
    assert len(rep["eigenvalues"]) == 130


def test_spectrum_cutoff_override(tmp_path):
    vac = write_state(tmp_path / "vac8.json", fock.basis_vector(CUT, (0,), (0,)))
    jpath, cpath = tmp_path / "s.json", tmp_path / "s.csv"
    rc = cli.main([
        "spectrum", "--state", vac, "--cutoff", "6",
        "--json", str(jpath), "--csv", str(cpath),
    ])
    assert rc == 0
    rep = json.loads(jpath.read_text())
    # K=6, d=1: 28 basis states -> real chart dimension 54
    assert len(rep["eigenvalues"]) == 54


def test_spectrum_rejects_cutoff_zero(tmp_path, capsys):
    vac = write_state(tmp_path / "vac8.json", fock.basis_vector(CUT, (0,), (0,)))
    jpath = tmp_path / "s.json"
    rc = cli.main([
        "spectrum", "--state", vac, "--cutoff", "0",
        "--json", str(jpath), "--csv", str(tmp_path / "s.csv"),
    ])
    assert rc == 1
    assert "too close to cutoff K=0" in assert_one_line_error(capsys)
    assert not jpath.exists()


def test_classify_centered_state(tmp_path, mix):
    jpath = tmp_path / "cls.json"
    rc = cli.main([
        "classify", "--state", mix, "--json", str(jpath),
        "--rational-weights", "0=1/2,-2=1/2",
    ])
    assert rc == 0
    rep = json.loads(jpath.read_text())
    assert rep["centered"] is True
    assert rep["indices"] == [-2, 0]
    assert rep["oscillation_index"] == 2
    assert rep["relative_period"] == pytest.approx(math.pi)
    assert rep["velocity"] == pytest.approx(1.0)
    assert rep["classically_periodic"] is True
    assert rep["classical_period"] == pytest.approx(4 * math.pi)


def test_classify_uncentered_state(tmp_path):
    s = (1 / math.sqrt(2)) * (
        fock.basis_vector(CUT, (0,), (0,)) + fock.basis_vector(CUT, (0,), (1,))
    )
    path = write_state(tmp_path / "bad.json", s)
    jpath = tmp_path / "cls.json"
    assert cli.main(["classify", "--state", path, "--json", str(jpath)]) == 0
    rep = json.loads(jpath.read_text())
    assert rep["centered"] is False
    assert rep["relative_period"] is None


def test_classify_relatively_constant(tmp_path, ground):
    jpath = tmp_path / "cls.json"
    assert cli.main(["classify", "--state", ground, "--json", str(jpath)]) == 0
    rep = json.loads(jpath.read_text())
    assert rep["centered"] is True
    assert rep["oscillation_index"] == 1
    assert rep["relative_period"] is None  # relatively constant
    assert rep["velocity"] == pytest.approx(0.0)


def test_family_shared_period(tmp_path):
    jpath = tmp_path / "fam.json"
    rc = cli.main([
        "family", "--n", "0", "--m", "-2", "--gamma-steps", "8", "--out", str(jpath)
    ])
    assert rc == 0
    rep = json.loads(jpath.read_text())
    assert len(rep["members"]) == 8
    assert rep["period_is_shared"] is True
    assert rep["shared_period"] == pytest.approx(math.pi)


@pytest.mark.parametrize("steps", ["0", "-1"])
def test_family_rejects_empty_gamma_grid(tmp_path, capsys, steps):
    jpath = tmp_path / "fam.json"
    rc = cli.main([
        "family", "--n", "0", "--m", "-2", f"--gamma-steps={steps}", "--out", str(jpath)
    ])
    assert rc == 1
    assert steps in assert_one_line_error(capsys)
    assert not jpath.exists()


@pytest.mark.parametrize("steps", ["10001", str(10**18)])
def test_family_rejects_oversized_gamma_grid(tmp_path, capsys, steps):
    # rejected before any member is built: 10^18 members would not finish
    jpath = tmp_path / "fam.json"
    rc = cli.main([
        "family", "--n", "0", "--m", "-2", f"--gamma-steps={steps}", "--out", str(jpath)
    ])
    assert rc == 1
    err = assert_one_line_error(capsys)
    assert "--gamma-steps" in err and steps in err and "too large" in err
    assert not jpath.exists()


def test_pipeline_outputs(tmp_path, mix):
    prefix = tmp_path / "pipe"
    rc = cli.main([
        "pipeline", "--state", mix, "--t", "0.5",
        "--grid-n", "128", "--grid-l", "8.0", "--out-prefix", str(prefix),
    ])
    assert rc == 0
    rep = json.loads((tmp_path / "pipe_report.json").read_text())
    assert rep["mass"] == pytest.approx(1.0, abs=1e-6)
    # the residual from exact derivatives: rounding only, on any grid
    assert rep["vlasov_residual"] <= 1e-12
    assert "residual_dt" not in rep
    f_lines = (tmp_path / "pipe_f.csv").read_text().splitlines()
    assert f_lines[0] == "x,v,f"
    assert len(f_lines) == 1 + 128 * 128
    rho_lines = (tmp_path / "pipe_rho.csv").read_text().splitlines()
    assert rho_lines[0] == "x,rho"
    assert len(rho_lines) == 1 + 128


@pytest.mark.parametrize("n, extent", [(128, 6.0), (256, 8.0)])
def test_pipeline_grids_and_charges_are_those_of_one_closed_form_slice(tmp_path, mix, n, extent):
    # f.csv, rho.csv, the mass and the momentum are what the closed-form
    # slice, its density and noether_charges give, byte for byte
    prefix = str(tmp_path / "pipe")
    assert cli.main(["pipeline", "--state", mix, "--t", "0.5", "--grid-n", str(n),
                     "--grid-l", repr(extent), "--out-prefix", prefix]) == 0
    spec = pl.GridSpec(n=n, extent=extent)
    ax = spec.axis()
    state = orbits.analytic_solution(orbits.orbit_from_state(cli._load_state(mix)), 0.5)
    field = pl.state_to_classical(state, spec)
    f, rho = pl.density(field)
    cli._write_grid_csv(str(tmp_path / "want_f.csv"), ax, f)
    cli._write_csv(str(tmp_path / "want_rho.csv"), ["x", "rho"], np.column_stack([ax, rho]))
    for name in ("f.csv", "rho.csv"):
        assert (tmp_path / f"pipe_{name}").read_bytes() == (tmp_path / f"want_{name}").read_bytes()
    report = json.loads((tmp_path / "pipe_report.json").read_text())
    mass, _, momentum = pl.noether_charges(field)
    assert (report["mass"], report["momentum"]) == (mass, momentum)


def test_pipeline_rejects_unresolving_grid(tmp_path, capsys, ground):
    # n=32, L=16: a step of one oscillator length; the amplitude is exact at
    # the grid points, but the trapezoid (x, v) mass is 1.00021
    prefix = tmp_path / "pipe"
    rc = cli.main(["pipeline", "--state", ground, "--grid-n", "32",
                   "--grid-l", "16", "--out-prefix", str(prefix)])
    assert rc == 1
    err = assert_one_line_error(capsys)
    assert "(x, v)" in err and "mass 1.00021" in err
    assert "larger --grid-n" in err and "larger --grid-l" in err and "smaller" not in err
    assert not (tmp_path / "pipe_report.json").exists()


def test_pipeline_mass_error_advises_a_wider_grid(tmp_path, capsys):
    # L=2 cuts off the family state 0.8|0,0> + 0.6|2,0> (mass 0.937): only
    # a larger L resolves it
    state = write_state(tmp_path / "family.json", 0.8 * fock.basis_vector(CUT, (0,), (0,))
                        + 0.6 * fock.basis_vector(CUT, (2,), (0,)))
    prefix = tmp_path / "pipe"
    rc = cli.main(["pipeline", "--state", state, "--grid-n", "64",
                   "--grid-l", "2", "--out-prefix", str(prefix)])
    assert rc == 1
    err = assert_one_line_error(capsys)
    assert "mass 0.9365" in err and "larger --grid-l" in err and "smaller" not in err
    assert not (tmp_path / "pipe_report.json").exists()


@pytest.mark.parametrize("t, cause", [
    ("1e308", "time must be finite, with 2t finite too, got 1e+308"),
    ("5e307", "time 5e+307 is too large: the phase of excitation 4 overflows"),
])
def test_pipeline_names_an_overflowing_time(tmp_path, capsys, t, cause):
    # on |0,4> (N = <N> = 4), 2t overflows at 1e308 and the slice phase
    # (N + <N>/2) t at 5e307
    state = write_state(tmp_path / "n4.json", fock.basis_vector(CUT, (0,), (4,)))
    prefix = tmp_path / "pipe"
    assert cli.main(["pipeline", "--state", state, "--t", t, "--out-prefix", str(prefix)]) == 1
    assert cause in assert_one_line_error(capsys)
    assert not (tmp_path / "pipe_report.json").exists()


def test_energy_and_vector_field(tmp_path, mix):
    jpath = tmp_path / "e.json"
    assert cli.main(["energy", "--state", mix, "--json", str(jpath)]) == 0
    assert json.loads(jpath.read_text())["energy"] == pytest.approx(-0.5)

    vpath = tmp_path / "vf.json"
    rc = cli.main([
        "vector-field", "--state", mix, "--kind", "chart", "--json", str(vpath)
    ])
    assert rc == 0
    field = fock.from_json_dict(json.loads(vpath.read_text()))
    # gap-two mixture: field is the diagonal rotation, norm 1
    assert field.norm == pytest.approx(1.0, abs=1e-12)


def test_exit_code_one_on_domain_errors(tmp_path, capsys):
    assert cli.main(["classify", "--state", str(tmp_path / "missing.json"),
                     "--json", str(tmp_path / "x.json")]) == 1
    assert "error:" in capsys.readouterr().err


def test_exit_code_two_on_usage_errors():
    with pytest.raises(SystemExit) as exc:
        cli.main(["simulate"])  # missing required arguments
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        cli.main(["no-such-command"])
    assert exc.value.code == 2


@pytest.fixture(params=["nan", "inf"])
def nan_state(tmp_path, request):
    obj = fock.to_json_dict(fock.basis_vector(CUT, (0,), (0,)))
    obj["terms"].append({"a": [2], "b": [0], "re": 0.0, "im": float(request.param)})
    path = tmp_path / "nan.json"
    path.write_text(json.dumps(obj))  # json writes the NaN / Infinity literal
    return str(path)


def assert_one_line_error(capsys):
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert "Traceback" not in err
    return err


@pytest.mark.parametrize(
    "command",
    [
        ["simulate", "--t-end", "1.0", "--samples", "3"],
        ["energy"],
        ["classify"],
        ["vector-field", "--kind", "sphere"],
    ],
)
def test_non_finite_state_is_rejected(tmp_path, capsys, nan_state, command):
    out = tmp_path / "out"
    outputs = {
        "simulate": ["--out", f"{out}.csv", "--report", f"{out}.json"],
    }.get(command[0], ["--json", f"{out}.json"])
    assert cli.main(command + ["--state", nan_state] + outputs) == 1
    # the error names the fixture's bad term, as fock does
    err = assert_one_line_error(capsys)
    assert f"{nan_state}: state has a non-finite coefficient" in err
    assert err.rstrip().endswith(" at |2_0>")
    assert not (tmp_path / "out.json").exists()


def _ground_obj():
    return fock.to_json_dict(fock.basis_vector(CUT, (0,), (0,)))


def _without_k():
    obj = _ground_obj()
    del obj["K"]
    return obj


def _with_index(count):
    obj = _ground_obj()
    obj["terms"][0]["a"] = [count]
    return obj


def _with_cutoff(k, d):
    return dict(_ground_obj(), K=k, d=d)


def _with_term(**fields):
    obj = _ground_obj()
    obj["terms"].append(dict({"a": [1], "b": [0], "re": 0.0, "im": 0.0}, **fields))
    return obj


# 200000 nested arrays, past the JSON decoder's recursion limit, as file text:
# json.dumps cannot build it
_NESTED = "[" * 200000 + "]" * 200000


def _with_amplitude(**fields):
    """The ground state with its amplitude's parts replaced: a unit state
    if they were read as numbers."""
    obj = _ground_obj()
    obj["terms"][0].update(fields)
    return obj


@pytest.mark.parametrize(
    "obj",
    [_without_k(), [_ground_obj()], _with_index(0.5), _with_index(True),
     _with_cutoff(8.9, 1), _with_cutoff(True, True),
     _with_term(a=[2**70]), _with_term(b=[-1]), _with_term(a=[0, 0]),
     _with_term(a=[0, 0], b=[0, 0]), _with_term(a=[5], b=[4]), _with_term(a=["1"]),
     _with_term(b=[False]), _with_term(re=10**400),
     _with_amplitude(re=True), _with_amplitude(im=False), _with_amplitude(re="1"),
     _with_amplitude(re=" 1.0 "), _NESTED, '{"K": 8, "d": 1, "terms": %s}' % _NESTED,
     '{"K": 8, "d": 1, "terms": [}', b'{"K": 8, "d": 1, "terms": [], "x": "\xff"}'],
    ids=["missing-K", "top-level-list", "non-integer-index", "boolean-index",
         "K-float", "K-bool",
         "count-2**70", "negative-count", "a-b-length-mismatch", "length-not-d",
         "degree-above-K", "string-count", "bool-count", "amplitude-2**1329",
         "bool-re", "bool-im", "string-re", "padded-string-re",
         "nested-arrays", "nested-terms", "not-json", "not-utf-8"],
)
def test_malformed_state_is_rejected(tmp_path, capsys, obj):
    # every load failure names the file
    path = tmp_path / "bad.json"
    if isinstance(obj, bytes):
        path.write_bytes(obj)
    else:
        path.write_text(obj if isinstance(obj, str) else json.dumps(obj))
    out = tmp_path / "out.json"
    assert cli.main(["classify", "--state", str(path), "--json", str(out)]) == 1
    assert assert_one_line_error(capsys).startswith(f"error: {path}: ")
    assert not out.exists()


def test_integer_amplitudes_are_numbers(tmp_path):
    obj = _with_amplitude(re=1, im=0)  # JSON ints stay valid amplitudes
    path = tmp_path / "int.json"
    path.write_text(json.dumps(obj))
    out = tmp_path / "e.json"
    assert cli.main(["energy", "--state", str(path), "--json", str(out)]) == 0
    assert json.loads(out.read_text())["energy"] == pytest.approx(0.0)


@pytest.mark.parametrize(
    "command", [["vector-field", "--kind", "full"], ["energy"]], ids=["vector-field", "energy"]
)
def test_overflowing_state_is_rejected(tmp_path, capsys, command):
    # finite coefficients whose squared norm overflows: the field's cubic
    # terms would overflow too, with numpy warnings before the error
    obj = _with_term(a=[2], re=1e308)
    path = tmp_path / "big.json"
    path.write_text(json.dumps(obj))
    out = tmp_path / "out.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(command + ["--state", str(path), "--json", str(out)]) == 1
    err = assert_one_line_error(capsys)
    assert "squared norm overflows" in err
    assert not out.exists()


def _two_term_state(tmp_path, amplitude):
    """|0,1> + |1,0> with both amplitudes ``amplitude``: a finite squared
    norm and no mass on the cutoff boundary."""
    obj = {"d": 1, "K": 8, "terms": [
        {"a": [0], "b": [1], "re": amplitude, "im": 0.0},
        {"a": [1], "b": [0], "re": amplitude, "im": 0.0},
    ]}
    path = tmp_path / "big.json"
    path.write_text(json.dumps(obj))
    return str(path)


def test_full_field_of_a_large_state_checks_its_flux_without_nan(tmp_path, capsys):
    # the off-sphere prefactor is ~5e199, and its square overflowed to inf,
    # times a zero boundary mass: a NaN flux that passed the check
    path = _two_term_state(tmp_path, 1e100)
    out = tmp_path / "vf.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["vector-field", "--state", path, "--kind", "full",
                         "--json", str(out)]) == 0
    assert capsys.readouterr().err == ""
    state = cli._load_state(path)
    field = hamiltonian.vector_field(hamiltonian.FieldKind.FULL, state)
    assert np.isfinite(field.array).all()
    assert out.read_bytes() == stdlib_json(fock.to_json_dict(field))


def test_full_field_off_the_sphere_runs_the_pair_branch(tmp_path):
    # the d = 2, K = 8 state 0.8|0,0> + 0.36i|a=e_0> + 0.48|b=e_1> scaled to
    # norm 1.1: its full field adds the pair-lowering and double-raising
    # images to the 5 terms of its sphere field, 16 terms in all
    path = tmp_path / "uncentered_big.json"
    path.write_text(json.dumps({"K": 8, "d": 2, "terms": [
        {"a": [0, 0], "b": [0, 0], "re": 0.88, "im": 0.0},
        {"a": [1, 0], "b": [0, 0], "re": 0.0, "im": 0.396},
        {"a": [0, 0], "b": [0, 1], "re": 0.528, "im": 0.0},
    ]}))
    terms = {}
    for kind in ("sphere", "full"):
        out = tmp_path / f"{kind}.json"
        assert cli.main(["vector-field", "--state", str(path), "--kind", kind,
                         "--json", str(out)]) == 0
        terms[kind] = len(json.loads(out.read_text())["terms"])
    assert terms == {"sphere": 5, "full": 16}


@pytest.mark.parametrize("kind", [k.value for k in hamiltonian.FieldKind])
def test_overflowing_field_is_rejected(tmp_path, capsys, kind):
    path = _two_term_state(tmp_path, 1e150)
    out = tmp_path / "vf.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["vector-field", "--state", path, "--kind", kind,
                         "--json", str(out)]) == 1
    assert "overflows float64" in assert_one_line_error(capsys)
    assert not out.exists()


def test_full_field_that_overflows_to_nan_is_rejected_as_an_overflow(tmp_path, capsys):
    # its pair matmul overflows to nan without a FloatingPointError
    state = fock.FockVector(Cutoff(k=6, d=3),
                            {fock.MultiIndex((1, 0, 0), (0, 0, 1)): 1e150})
    path = write_state(tmp_path / "big.json", state)
    out = tmp_path / "vf.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["vector-field", "--state", path, "--kind", "full",
                         "--json", str(out)]) == 1
    assert assert_one_line_error(capsys) == (
        "error: the full vector field overflows float64 (non-finite value in the field)\n")
    assert not out.exists()


# address-space cap of the child: far above a normal run, far below the
# basis of any oversized cutoff below
OVERSIZED_AS_BYTES = 1 << 30


def _cap_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (OVERSIZED_AS_BYTES, OVERSIZED_AS_BYTES))


def run_capped(argv):
    """The CLI run in a child process capped in time and address space."""
    src = os.path.dirname(os.path.dirname(harmonic_hartree.__file__))
    return subprocess.run(
        [sys.executable, "-m", "harmonic_hartree.cli", *argv],
        env=dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1"),
        capture_output=True, text=True, timeout=60, preexec_fn=_cap_address_space,
    )


def assert_too_large(run):
    assert run.returncode == 1
    assert run.stderr.startswith("error:") and run.stderr.count("\n") == 1
    assert "too large" in run.stderr


@pytest.mark.parametrize(
    "command, state",
    [(["energy", "--json", "{out}.json"], _with_cutoff(100000, 1)),
     (["classify", "--json", "{out}.json"], _with_cutoff(100000, 1)),
     (["vector-field", "--json", "{out}.json"], _with_cutoff(100000, 1)),
     (["simulate", "--t-end", "1.0", "--out", "{out}.csv", "--report", "{out}.json"],
      _with_cutoff(100000, 1)),
     (["spectrum", "--json", "{out}.json", "--csv", "{out}.csv"], _with_cutoff(100000, 1)),
     (["pipeline", "--out-prefix", "{out}"], _with_cutoff(100000, 1)),
     (["energy", "--json", "{out}.json"], {"K": 8, "d": 1000, "terms": []}),
     (["classify", "--json", "{out}.json"], {"K": 0, "d": 10**6, "terms": []}),
     (["spectrum", "--cutoff", "100000", "--json", "{out}.json", "--csv", "{out}.csv"],
      _ground_obj()),
     (["family", "--n", "0", "--m", "2", "--cutoff", "100000", "--out", "{out}.json"],
      None)],
    ids=["energy", "classify", "vector-field", "simulate", "spectrum", "pipeline",
         "energy-d1000", "classify-d1e6", "spectrum-cutoff", "family-cutoff"],
)
def test_oversized_cutoff_exits_one_in_bounded_time(tmp_path, command, state):
    # in a child process capped in time and address space, so that a basis
    # enumeration of the oversized cutoff fails this test instead of the host
    argv = [arg.format(out=tmp_path / "out") for arg in command]
    if state is not None:
        path = tmp_path / "big.json"
        path.write_text(json.dumps(state))
        argv[1:1] = ["--state", str(path)]
    assert_too_large(run_capped(argv))
    assert list(tmp_path.iterdir()) == ([] if state is None else [tmp_path / "big.json"])


def test_simulate_rejects_oversized_sample_table(tmp_path, ground):
    # in a capped child like the test above: 10^8 samples of the 45-element
    # state would be a table of 72 GB
    assert_too_large(run_capped(
        ["simulate", "--state", ground, "--t-end", "1.0", "--samples", "100000000",
         "--out", str(tmp_path / "s.csv"), "--report", str(tmp_path / "s.json")]
    ))
    assert sorted(p.name for p in tmp_path.iterdir()) == ["ground.json"]


@pytest.mark.parametrize(
    "command",
    # 10^7 time units are 4e7 steps of at most 0.25, past the budget of
    # 100000 steps; one n x n grid of floats at n = 65536 is 32 GiB, and
    # at n = 2^46 the grid axis alone is 512 TiB
    [["simulate", "--t-end", "1e7", "--out", "{out}.csv", "--report", "{out}.json"],
     ["pipeline", "--grid-n", "65536", "--out-prefix", "{out}"],
     ["pipeline", "--grid-n", str(2**46), "--out-prefix", "{out}"]],
    ids=["simulate-t-end-1e7", "pipeline-grid-n-65536", "pipeline-grid-n-2**46"],
)
def test_oversized_run_exits_one_in_bounded_time(tmp_path, mix, command):
    # in a capped child like the tests above
    argv = [arg.format(out=tmp_path / "out") for arg in command]
    assert_too_large(run_capped([argv[0], "--state", mix, *argv[1:]]))
    assert sorted(p.name for p in tmp_path.iterdir()) == ["mix.json"]


def test_pipeline_tables_follow_the_state_degree(tmp_path):
    # in a capped child: Hermite tables of K + 1 = 301 rows over the n = 1024
    # grid would be 2 x 2.35 GiB; the state's degree 2 needs 3 rows
    cut = Cutoff(k=300, d=1)
    state = write_state(tmp_path / "k300.json", (1 / math.sqrt(2)) * (
        fock.basis_vector(cut, (0,), (0,)) + fock.basis_vector(cut, (2,), (0,))
    ))
    run = run_capped(["pipeline", "--state", state, "--grid-n", "1024",
                      "--out-prefix", str(tmp_path / "p")])
    assert run.returncode == 0, run.stderr
    report = json.loads((tmp_path / "p_report.json").read_text())
    assert report["grid_n"] == 1024 and abs(report["mass"] - 1.0) <= 1e-6


def test_classify_rejects_a_weight_exponent_in_bounded_time(tmp_path, mix):
    # in a capped child like the oversized tests: Fraction's cost grows
    # faster than the exponent of its text, so an exponent is refused
    # before any Fraction is made
    out = tmp_path / "out.json"
    run = run_capped(["classify", "--state", mix, "--json", str(out),
                      "--rational-weights=0=1e-100000000"])
    assert run.returncode == 1
    assert run.stderr.startswith("error:") and run.stderr.count("\n") == 1
    assert "exponent" in run.stderr
    assert not out.exists()


@pytest.mark.parametrize("weights", ["0=1/0,-2=1/2", "0=1/2,-2=1/4,-2=1/2",
                                     pytest.param("0=" + "0" * 64 + "1/2,-2=1/2", id="67-char-weight"),
                                     pytest.param("0=-1/2,-2=3/2", id="negative"),
                                     pytest.param("0=1,-2=0", id="zero"),
                                     pytest.param("0=1/3,-2=2/3", id="not-its-norms"),
                                     # each within 1e-9 of its norm, 1 + 5e-11 together
                                     pytest.param("0=0.50000000005,-2=1/2", id="sums-past-one")])
def test_classify_rejects_bad_rational_weights(tmp_path, capsys, mix, weights):
    out = tmp_path / "out.json"
    rc = cli.main(["classify", "--state", mix, "--json", str(out),
                   f"--rational-weights={weights}"])
    assert rc == 1
    assert_one_line_error(capsys)
    assert not out.exists()


def test_simulate_rejects_empty_sample_set(tmp_path, capsys, ground):
    rc = cli.main([
        "simulate", "--state", ground, "--t-end", "1.0", "--samples", "0",
        "--out", str(tmp_path / "s.csv"), "--report", str(tmp_path / "s.json"),
    ])
    assert rc == 1
    assert_one_line_error(capsys)


@pytest.mark.parametrize("t_end", ["nan", "inf", "1e-300"])
def test_simulate_rejects_bad_t_end(tmp_path, capsys, ground, t_end):
    rc = cli.main([
        "simulate", "--state", ground, f"--t-end={t_end}", "--samples", "3",
        "--out", str(tmp_path / "s.csv"), "--report", str(tmp_path / "s.json"),
    ])
    assert rc == 1
    assert_one_line_error(capsys)


# the word each option's error message must contain
PIPELINE_OPTION_WORD = {"--t": "time", "--grid-l": "extent"}


@pytest.mark.filterwarnings("error")  # a warning would be a second stderr line
@pytest.mark.parametrize(
    "option",
    [["--t", "inf"], ["--t", "nan"], ["--grid-l", "inf"], ["--grid-l", "nan"],
     ["--grid-l", "1e+200"],  # finite, but 2 L^2 overflows
     # 2 L^2 finite, but the charges' integrands overflow
     ["--grid-l", "1e+100"], ["--grid-l", "1e+150"]],
    ids=lambda opt: " ".join(opt),
)
def test_pipeline_rejects_non_finite_inputs(tmp_path, capsys, mix, option):
    prefix = tmp_path / "pipe"
    rc = cli.main(["pipeline", "--state", mix, "--grid-n", "32",
                   "--out-prefix", str(prefix)] + option)
    assert rc == 1
    err = assert_one_line_error(capsys)
    assert option[1] in err  # names the bad value
    assert PIPELINE_OPTION_WORD[option[0]] in err  # and what it was read as
    assert not (tmp_path / "pipe_report.json").exists()


def test_back_to_back_calls_match_separate_processes(tmp_path, capsys, ground):
    # the parser is built once per process; consecutive cli.main calls must
    # give what a fresh process gives for each command
    def commands(out):
        return [
            ["spectrum", "--state", ground, "--json", str(out / "spec.json"),
             "--csv", str(out / "spec.csv")],
            ["simulate", "--state", ground, "--t-end", "1.0", "--samples", "5",
             "--out", str(out / "sim.csv"), "--report", str(out / "sim.json")],
            ["energy", "--state", ground, "--no-such-option"],
        ]

    def outputs(out):
        return {p.name: p.read_bytes() for p in sorted(out.iterdir())}

    src = os.path.dirname(os.path.dirname(harmonic_hartree.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    separate = tmp_path / "separate"
    separate.mkdir()
    sep_codes, sep_errs = [], []
    for argv in commands(separate):
        run = subprocess.run(
            [sys.executable, "-m", "harmonic_hartree.cli", *argv],
            env=env, capture_output=True, text=True,
        )
        sep_codes.append(run.returncode)
        sep_errs.append(run.stderr)

    together = tmp_path / "together"
    together.mkdir()
    codes, errs = [], []
    for argv in commands(together):
        try:
            codes.append(cli.main(argv))
        except SystemExit as exc:
            codes.append(exc.code)
        errs.append(capsys.readouterr().err)
    assert codes == sep_codes == [0, 0, 2]
    assert errs == sep_errs
    assert "unrecognized arguments: --no-such-option" in errs[2]
    assert outputs(together) == outputs(separate)
    assert len(outputs(together)) == 4


def test_package_imports_only_declared_dependencies():
    # every third-party module the package loads must be a declared runtime
    # dependency; scipy and the other test oracles must stay out.  Modules
    # loaded at interpreter start-up (site hooks) are not the package's.
    src = os.path.dirname(os.path.dirname(harmonic_hartree.__file__))
    code = (
        "import importlib, pkgutil, sys\n"
        "before = set(sys.modules)\n"
        "import harmonic_hartree\n"
        "for m in pkgutil.iter_modules(harmonic_hartree.__path__):\n"
        "    importlib.import_module('harmonic_hartree.' + m.name)\n"
        "tops = {name.partition('.')[0] for name in set(sys.modules) - before}\n"
        "print(' '.join(sorted(tops - sys.stdlib_module_names)))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
        capture_output=True, text=True, check=True,
    )
    loaded = set(out.stdout.split()) - {"harmonic_hartree"}
    assert loaded == {"numpy"}


def per_value_csv(header, rows):
    """The CSV bytes of a formatter that prints one value at a time."""
    lines = [",".join(header)] + [",".join("%.17g" % x for x in row) for row in rows]
    return ("\n".join(lines) + "\n").encode()


def sha256(data):
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize(
    "state",
    [
        fock.basis_vector(CUT, (0,), (0,)),
        (1 / math.sqrt(2)) * (
            fock.basis_vector(Cutoff(k=4, d=2), (0, 0), (0, 0))
            + fock.basis_vector(Cutoff(k=4, d=2), (1, 1), (0, 0))
        ),
    ],
    ids=["d1", "d2"],
)
def test_simulate_csv_matches_per_value_formatter(tmp_path, state):
    path = write_state(tmp_path / "state.json", state)
    out = tmp_path / "sim.csv"
    rc = cli.main([
        "simulate", "--state", path, "--t-end", "1.0", "--samples", "5",
        "--out", str(out), "--report", str(tmp_path / "sim.json"),
    ])
    assert rc == 0
    # rows rebuilt one coefficient at a time from the same trajectory
    traj = integrate.integrate(state, 1.0, samples=5)
    header = ["t"]
    for idx in fock.basis(state.cutoff):
        header += [f"re_{idx.label()}", f"im_{idx.label()}"]
    header += ["norm", "meanN", "energy"]
    rows = []
    for j, t in enumerate(traj.times):
        row = [t]
        for c in fock.to_array(traj.states[j]):
            row += [c.real, c.imag]
        row += [traj.norm[j], traj.mean_n[j], traj.energy[j]]
        rows.append(row)
    assert sha256(out.read_bytes()) == sha256(per_value_csv(header, rows))


def test_spectrum_and_pipeline_csv_match_per_value_formatter(
    tmp_path, monkeypatch, mix
):
    vac = write_state(
        tmp_path / "vac.json", fock.basis_vector(Cutoff(k=6, d=1), (0,), (0,))
    )

    def run(tag):
        d = tmp_path / tag
        d.mkdir()
        assert cli.main(["spectrum", "--state", vac, "--json", str(d / "s.json"),
                         "--csv", str(d / "s.csv")]) == 0
        assert cli.main(["pipeline", "--state", mix, "--t", "0.5", "--grid-n", "32",
                         "--grid-l", "8.0", "--out-prefix", str(d / "pipe")]) == 0
        return [sha256((d / name).read_bytes())
                for name in ("s.csv", "pipe_f.csv", "pipe_rho.csv")]

    table = run("table")

    # the f grid is not written through _write_csv: rebuild its rows one
    # grid point at a time from the same chain
    state = cli._load_state(mix)
    spec = pl.GridSpec(n=32, extent=8.0)
    orbit = orbits.orbit_from_state(state)
    f, _ = pl.density(pl.state_to_classical(orbits.analytic_solution(orbit, 0.5), spec))
    ax = spec.axis()
    rows = [[ax[i], ax[j], f[i, j]] for i in range(spec.n) for j in range(spec.n)]
    assert table[1] == sha256(per_value_csv(["x", "v", "f"], rows))

    def write_per_value(path, header, rows):
        with open(path, "wb") as fh:
            fh.write(per_value_csv(header, rows))

    monkeypatch.setattr(cli, "_write_csv", write_per_value)
    assert table == run("per_value")


def test_spectrum_d3_k8_is_exact_integers(tmp_path):
    # n = 3003: the whole spectrum comes from a 16 x 16 block and exact
    # slice counts, not from a 6004 x 6004 eigensolve
    cut = Cutoff(k=8, d=3)
    state = write_state(tmp_path / "eq.json", fock.basis_vector(cut, (1, 0, 0), (0, 2, 0)))
    jpath, cpath = tmp_path / "s.json", tmp_path / "s.csv"
    rc = cli.main(["spectrum", "--state", state, "--json", str(jpath), "--csv", str(cpath)])
    assert rc == 0
    rep = json.loads(jpath.read_text())
    assert rep["integer_ok"] is True
    eig = np.array(rep["eigenvalues"])
    assert eig.shape == (6004, 2)
    assert np.all(eig[:, 0] == 0.0) and np.all(eig[:, 1] == np.round(eig[:, 1]))
    rows = np.loadtxt(cpath, delimiter=",", skiprows=1)
    assert np.array_equal(rows, eig)


def stdlib_json(obj):
    """The bytes of the stdlib encoder in the CLI's layout."""
    return (json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n").encode()


def seeded_state(cut, seed, terms=6):
    """Unit state on ``terms`` seeded basis vectors of degree <= K - 2."""
    rng = np.random.default_rng(seed)
    idxs = [idx for idx in fock.basis(cut) if idx.degree <= cut.k - 2]
    picks = rng.choice(len(idxs), size=terms, replace=False)
    amps = rng.normal(size=terms) + 1j * rng.normal(size=terms)
    amps /= np.linalg.norm(amps)
    return fock.FockVector(cut, {idxs[j]: complex(a) for j, a in zip(picks, amps)})


@pytest.mark.parametrize("kind", [k.value for k in hamiltonian.FieldKind])
@pytest.mark.parametrize(
    "state",
    [seeded_state(Cutoff(k=8, d=1), 1), seeded_state(Cutoff(k=6, d=2), 2),
     seeded_state(Cutoff(k=6, d=3), 3),
     fock.basis_vector(Cutoff(k=8, d=2), (1, 0), (0, 2)),
     random_centered_state(Cutoff(k=8, d=3), (-4, -2, 0, 2), np.random.default_rng(19))],
    ids=["d1", "d2", "d3", "d2-equilibrium", "d3-k8-centered"],
)
def test_vector_field_json_matches_stdlib(tmp_path, state, kind):
    path = write_state(tmp_path / "state.json", state)
    out = tmp_path / "vf.json"
    assert cli.main(["vector-field", "--state", path, "--kind", kind,
                     "--json", str(out)]) == 0
    field = hamiltonian.vector_field(hamiltonian.FieldKind(kind), state)
    assert out.read_bytes() == stdlib_json(fock.to_json_dict(field))
    if kind == "chart" and len(state.coeffs) == 1:  # zero field at an equilibrium
        assert not field.coeffs and '"terms": []' in out.read_text()


@pytest.mark.parametrize(
    "state",
    [fock.basis_vector(Cutoff(k=8, d=1), (1,), (2,)),
     fock.basis_vector(Cutoff(k=6, d=2), (1, 0), (0, 2))],
    ids=["d1", "d2"],
)
def test_spectrum_json_matches_stdlib(tmp_path, state):
    path = write_state(tmp_path / "eq.json", state)
    out = tmp_path / "s.json"
    assert cli.main(["spectrum", "--state", path, "--json", str(out),
                     "--csv", str(tmp_path / "s.csv")]) == 0
    report = equilibria.linearize(state)
    assert out.read_bytes() == stdlib_json({
        "eigenvalues": [[z.real, z.imag] for z in report.eigenvalues.tolist()],
        "perturbed_dim": report.perturbed_subspace_dim,
        "integer_ok": report.integer_spectrum_ok,
        "excitation": report.excitation,
    })


def test_d3_k8_full_field_has_tiny_parts():
    # the off-sphere term |y|^2 - 1 ~ 1e-16 leaves ~1e-18 coefficients,
    # which the state JSON of ``test_vector_field_json_matches_stdlib`` holds
    state = random_centered_state(Cutoff(k=8, d=3), (-4, -2, 0, 2), np.random.default_rng(19))
    field = hamiltonian.vector_field(hamiltonian.FieldKind.FULL, state).array
    parts = np.abs(np.concatenate([field.real, field.imag]))
    assert np.count_nonzero((parts > 0) & (parts < 1e-15)) > 1000


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_template_fill_rejects_non_finite_values(bad):
    with pytest.raises(ValueError):
        json.dumps([1.0, bad], allow_nan=False)
    with pytest.raises(ValueError):
        cli._fill(["[%r, %r]"], "", [1.0, bad])


# the ids stay as they were, so that test names compare across versions
@pytest.mark.parametrize("terms", [1, 200], ids=["template", "vector"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("part", ["re", "im"])
def test_state_json_rejects_non_finite_values(terms, bad, part):
    # the state loads through from_json_dict, which does not check
    # finiteness (from_array and the constructor reject such a state)
    cut = Cutoff(k=8, d=3)
    idxs = fock.basis(cut)[:terms]
    obj = {"K": 8, "d": 3, "terms": [
        {"a": list(idx.a), "b": list(idx.b), "re": 0.5, "im": 0.0} for idx in idxs]}
    term = obj["terms"][terms // 2]
    term["im"] = 0.5
    term[part] = bad
    with pytest.raises(ValueError, match="not JSON compliant"):
        cli._state_json(fock.from_json_dict(obj))


def sweep_values():
    """A seeded sweep of float64 values that stress the 17-digit renderer."""
    rng = np.random.default_rng(2024)
    powers = np.array([float(f"1e{k}") for k in range(-323, 309)])
    # the "%g" switch points and the 64 doubles either side of each
    switches = np.array([1e-5, 1e-4, 1e16, 1e17]).view(np.int64)
    around = (switches[:, None] + np.arange(-64, 65)).ravel().view(np.float64)
    values = np.concatenate([
        rng.integers(0, 2**64, size=200_000, dtype=np.uint64).view(np.float64),
        powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf),
        np.array([0.0, np.inf, np.nan]),
        np.ldexp(1.0, np.arange(-1074, 1024)),
        rng.integers(1, 2**52, size=10_000, dtype=np.uint64).view(np.float64),
        around,
        np.arange(1.0, 5001.0),
        np.arange(1, 4097) / 1024.0,
        rng.lognormal(sigma=30.0, size=30_000),
    ])
    return np.concatenate([values, -values])


def test_csv_renderer_matches_per_value_formatter_on_a_sweep(tmp_path):
    values = sweep_values()
    assert values.size >= 500_000
    out = tmp_path / "sweep.csv"
    cli._write_csv(str(out), ["v"], values[:, None])
    assert out.read_bytes() == per_value_csv(["v"], values[:, None].tolist())


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(), min_size=1, max_size=40))
def test_csv_renderer_matches_per_value_formatter(tmp_path_factory, values):
    out = tmp_path_factory.getbasetemp() / "renderer_row.csv"
    header = [f"c{j}" for j in range(len(values))]
    cli._write_csv(str(out), header, [values])
    assert out.read_bytes() == per_value_csv(header, [values])


def test_csv_renderer_falls_back_at_rounding_ties():
    # 10 * (1e15 + 0.25) ends in an exact half: a tie that the
    # double-double product cannot resolve, so "%.17g" itself writes it
    # (half to even); exact powers of ten need no fallback
    values = np.array([1e15 + 0.25, 1e15 + 0.375, 1e20, 1.0, 0.1])
    _, _, certain = _render.digits(values)
    assert certain.tolist() == [False, True, True, True, True]
    cells = _render.cells(values)
    cells[:, -1] = ord("\n")
    assert cells.tobytes().translate(None, b"\0") == (
        b"1000000000000000.2\n1000000000000000.4\n1e+20\n1\n0.10000000000000001\n"
    )


def grid_values():
    """Signed zeros, NaN, the infinities and rounding ties that go to the
    per-value format, then every twentieth value of the sweep."""
    special = [0.0, -0.0, np.nan, np.inf, -np.inf, 1e15 + 0.25, -(1e15 + 0.375),
               599914117288847.75, -599914117288847.75]
    return np.concatenate([special, sweep_values()[::20]])


@pytest.mark.parametrize("shortest", [False, True], ids=["%.17g", "repr"])
@pytest.mark.parametrize("offset", [0, 3, 18])
def test_renderer_writes_the_same_bytes_into_a_word_view(shortest, offset):
    # the cells of a row buffer whose rows are 50 bytes apart, from
    # ``offset``: strided and unaligned
    values = grid_values()
    if shortest:
        values = values[np.isfinite(values)]
    width = _render.CELL + 18
    buf = np.full(values.size * width + offset, 7, dtype=np.uint8)
    words = np.ndarray((values.size, _render.CELL // 8), dtype=np.uint64, buffer=buf,
                       offset=offset, strides=(width, 8))
    assert not words.flags.aligned
    cells = _render.cells(values, shortest, out=words)
    assert np.shares_memory(cells, buf)
    rows = buf[offset:].reshape(values.size, width)
    assert np.array_equal(rows[:, : _render.CELL], _render.cells(values, shortest))
    assert (rows[:, _render.CELL :] == 7).all()


def per_value_grid_csv(ax, f):
    rows = [[ax[i], ax[j], f[i, j]] for i in range(ax.size) for j in range(ax.size)]
    return per_value_csv(["x", "v", "f"], rows)


@pytest.mark.parametrize(
    "n, block, calls",
    [(64, None, 1), (128, None, 4), (128, 128, 128), (128, 128**2, 1)],
    ids=["n64", "n128", "n128-row-per-call", "n128-one-call"],
)
def test_pipeline_f_grid_matches_per_value_formatter(tmp_path, monkeypatch, mix, n, block,
                                                     calls):
    # at the default block, at one row per renderer call and with the
    # whole grid in one call
    if block is not None:
        monkeypatch.setattr(cli, "_BLOCK", block)
    sizes, cells = [], _render.cells

    def counted(values, *args, **kwargs):
        if "out" in kwargs:  # the grid writer's calls
            sizes.append(values.size)
        return cells(values, *args, **kwargs)

    monkeypatch.setattr(_render, "cells", counted)
    prefix = tmp_path / "pipe"
    assert cli.main(["pipeline", "--state", mix, "--t", "0.5", "--grid-n", str(n),
                     "--grid-l", "6.0", "--out-prefix", str(prefix)]) == 0
    assert sizes == [n * n // calls] * calls
    # rows rebuilt one grid point at a time from the same chain
    spec = pl.GridSpec(n=n, extent=6.0)
    orbit = orbits.orbit_from_state(cli._load_state(mix))
    f, _ = pl.density(pl.state_to_classical(orbits.analytic_solution(orbit, 0.5), spec))
    assert (tmp_path / "pipe_f.csv").read_bytes() == per_value_grid_csv(spec.axis(), f)


def test_grid_writer_matches_per_value_formatter(tmp_path):
    # any float64 grid, beyond the densities the pipeline writes: the
    # sweep's values, signed zeros, NaN, the infinities and rounding ties
    n = 64
    ax = pl.GridSpec(n=n, extent=6.0).axis()
    values = grid_values()
    f = np.random.default_rng(5).choice(values, size=(n, n))
    f.ravel()[:9] = values[:9]
    f.ravel()[9:16] = [12.5, 1e16, 123.0, -1234.5678, 10.0, 99.99, 5e-324]
    path = tmp_path / "f.csv"
    cli._write_grid_csv(str(path), ax, f)
    assert path.read_bytes() == per_value_grid_csv(ax, f)


def repr_cells(values):
    """The ``repr`` renderer's bytes of ``values``, one per line."""
    cells = _render.cells(values, shortest=True)
    cells[:, -1] = ord("\n")
    return cells.tobytes().translate(None, b"\0")


def per_value_repr(values):
    return "".join(repr(x) + "\n" for x in np.asarray(values).tolist()).encode()


def test_repr_renderer_matches_repr_on_a_sweep():
    values = sweep_values()
    values = values[np.isfinite(values)]
    assert (values < 0).any() and (values > 0).any()
    assert repr_cells(values) == per_value_repr(values)


def test_repr_renderer_matches_repr_at_its_edges():
    # every power of two (the interval below 2^k is half the one above),
    # the 512 doubles either side of the fixed-notation bounds, integers
    # (written with ".0") and the signed zeros
    bounds = np.array([1e-4, 1e16]).view(np.int64)
    values = np.concatenate([
        np.ldexp(1.0, np.arange(-1074, 1024)),
        (bounds[:, None] + np.arange(-512, 513)).ravel().view(np.float64),
        np.arange(-3000.0, 3001.0), 2.0 ** np.arange(53) - 1, 10.0 ** np.arange(23),
        [0.0, -0.0, 599914117288847.75],
    ])
    values = np.concatenate([values, -values])
    assert repr_cells(values) == per_value_repr(values)


def test_repr_renderer_picks_the_candidate_inside_the_interval():
    # 2^-1017: the nearer 16-digit decimal (...044e-307) lies outside the
    # half-width interval below the power of two, the farther one inside;
    # 599914117288847.75 is an exact tie of two 16-digit decimals, so repr
    # itself writes it (and breaks the tie to .8); 0.1 and 1e16 need neither
    values = np.array([2.0**-1017, 599914117288847.75, 0.1, 1e16, 1.0, -0.0])
    _, _, certain = _render.digits(np.abs(values[:4]), shortest=True)
    assert certain.tolist() == [True, False, True, True]
    assert repr_cells(values) == (
        b"7.120236347223045e-307\n599914117288847.8\n0.1\n1e+16\n1.0\n-0.0\n"
    )


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=40))
def test_repr_renderer_matches_repr(values):
    assert repr_cells(values) == per_value_repr(values)


def seeded_table(shape, zero_share, seed, specials=()):
    """Seeded values over twenty decades with round(zero_share * size)
    exact zeros in random places, which take the values of ``specials``
    in turn when it is given."""
    rng = np.random.default_rng(seed)
    size = math.prod(shape)
    values = rng.normal(size=size) * 10.0 ** rng.integers(-10, 10, size=size)
    zeros = rng.permutation(size)[: round(zero_share * size)]
    values[zeros] = 0.0
    for j, special in zip(zeros, list(specials) * size):
        values[j] = special
    return values.reshape(shape)


def written_csv(tmp_path, table):
    """Write ``table`` by ``_write_csv`` and compare its bytes with those of
    the per-value formatter."""
    header = [f"c{j}" for j in range(table.shape[1])]
    out = tmp_path / "table.csv"
    cli._write_csv(str(out), header, table)
    assert out.read_bytes() == per_value_csv(header, table.tolist())


@pytest.mark.parametrize(
    "zeros, mostly_zeros",
    # a 40 x 99 table holds 3960 values: from no zeros to all of them,
    # either side of half
    [(0, False), (1979, False), (1980, False), (1981, True), (3564, True), (3960, True)],
)
def test_csv_writer_matches_per_value_formatter_at_every_zero_share(
    tmp_path, zeros, mostly_zeros
):
    table = seeded_table((40, 99), zeros / 3960, seed=zeros)
    assert np.count_nonzero(table) == 3960 - zeros
    assert (2 * zeros > table.size) == mostly_zeros
    written_csv(tmp_path, table)


@pytest.mark.parametrize(
    "shape", [(300, 1), (1, 300), (0, 7), (20, 999)],
    ids=["column", "row", "empty", "blocks"],
)
@pytest.mark.parametrize("zero_share", [0.3, 0.9, 1.0])
def test_csv_writer_renders_signed_zeros_and_non_finite_values(tmp_path, shape, zero_share):
    # 20 x 999 is written in three blocks of whole rows, each holding
    # signed zeros, NaN and the infinities
    specials = (-0.0, np.nan, -0.0, np.inf, -np.inf, 0.0, -0.0)
    table = seeded_table(shape, zero_share, seed=len(shape), specials=specials)
    step = max(1, cli._TABLE // shape[1])
    blocks = [table[i : i + step] for i in range(0, shape[0], step)]
    assert len(blocks) == {(0, 7): 0, (20, 999): 3}.get(shape, 1)
    for block in blocks:
        zero = block == 0
        assert np.signbit(block[zero]).any() and (~np.signbit(block[zero])).any()
        assert np.isnan(block).any() and np.isinf(block).any()
    written_csv(tmp_path, table)


def test_simulate_csv_of_a_centered_d2_state_matches_per_value_formatter(tmp_path):
    # a centered state keeps its support: most coefficients are exact zeros,
    # written over several blocks
    cut = Cutoff(k=8, d=2)
    state = random_centered_state(cut, (-2, 0, 2), np.random.default_rng(18))
    path = write_state(tmp_path / "state.json", state)
    out = tmp_path / "sim.csv"
    assert cli.main([
        "simulate", "--state", path, "--t-end", repr(math.pi / 4), "--samples", "41",
        "--out", str(out), "--report", str(tmp_path / "sim.json"),
    ]) == 0
    traj = integrate.integrate(state, math.pi / 4, samples=41)
    header = ["t"]
    for idx in fock.basis(cut):
        header += [f"re_{idx.label()}", f"im_{idx.label()}"]
    header += ["norm", "meanN", "energy"]
    rows = [
        [t, *(x for c in st.array.tolist() for x in (c.real, c.imag)),
         traj.norm[j], traj.mean_n[j], traj.energy[j]]
        for j, (t, st) in enumerate(zip(traj.times.tolist(), traj.states))
    ]
    assert 2 * np.count_nonzero(rows) < np.size(rows)
    assert out.read_bytes() == per_value_csv(header, rows)

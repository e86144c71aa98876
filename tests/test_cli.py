import hashlib
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import harmonic_hartree
from harmonic_hartree import cli, fock, integrate
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


def test_simulate_determinism(tmp_path, mix):
    args = ["simulate", "--state", mix, "--t-end", "3.14159", "--tol", "1e-10",
            "--samples", "7"]
    a_csv, a_json = tmp_path / "a.csv", tmp_path / "a.json"
    b_csv, b_json = tmp_path / "b.csv", tmp_path / "b.json"
    assert cli.main(args + ["--out", str(a_csv), "--report", str(a_json)]) == 0
    assert cli.main(args + ["--out", str(b_csv), "--report", str(b_json)]) == 0
    assert a_csv.read_bytes() == b_csv.read_bytes()
    assert a_json.read_bytes() == b_json.read_bytes()


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


def test_pipeline_outputs(tmp_path, mix):
    prefix = tmp_path / "pipe"
    rc = cli.main([
        "pipeline", "--state", mix, "--t", "0.5",
        "--grid-n", "128", "--grid-l", "8.0", "--out-prefix", str(prefix),
    ])
    assert rc == 0
    rep = json.loads((tmp_path / "pipe_report.json").read_text())
    assert rep["mass"] == pytest.approx(1.0, abs=1e-6)
    assert rep["vlasov_residual"] <= 1e-3  # coarser 128-point grid
    f_lines = (tmp_path / "pipe_f.csv").read_text().splitlines()
    assert f_lines[0] == "x,v,f"
    assert len(f_lines) == 1 + 128 * 128
    rho_lines = (tmp_path / "pipe_rho.csv").read_text().splitlines()
    assert rho_lines[0] == "x,rho"
    assert len(rho_lines) == 1 + 128


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
    assert_one_line_error(capsys)
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


@pytest.mark.parametrize(
    "obj",
    [_without_k(), [_ground_obj()], _with_index(0.5), _with_index(True),
     _with_cutoff(8.9, 1), _with_cutoff(True, True)],
    ids=["missing-K", "top-level-list", "non-integer-index", "boolean-index",
         "K-float", "K-bool"],
)
def test_malformed_state_is_rejected(tmp_path, capsys, obj):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(obj))
    out = tmp_path / "out.json"
    assert cli.main(["classify", "--state", str(path), "--json", str(out)]) == 1
    assert_one_line_error(capsys)
    assert not out.exists()


@pytest.mark.parametrize("weights", ["0=1/0,-2=1/2", "0=1/2,-2=1/4,-2=1/2"])
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


@pytest.mark.filterwarnings("error")  # a warning would be a second stderr line
@pytest.mark.parametrize(
    "option",
    [["--t", "inf"], ["--t", "nan"], ["--residual-dt", "inf"],
     ["--residual-dt", "nan"], ["--grid-l", "inf"], ["--grid-l", "nan"]],
    ids=lambda opt: " ".join(opt),
)
def test_pipeline_rejects_non_finite_inputs(tmp_path, capsys, mix, option):
    prefix = tmp_path / "pipe"
    rc = cli.main(["pipeline", "--state", mix, "--grid-n", "32",
                   "--out-prefix", str(prefix)] + option)
    assert rc == 1
    assert option[1] in assert_one_line_error(capsys)  # names the bad value
    assert not (tmp_path / "pipe_report.json").exists()


def test_cli_import_leaves_out_the_spline_module():
    src = os.path.dirname(os.path.dirname(harmonic_hartree.__file__))
    code = "import sys, harmonic_hartree.cli; print('scipy.interpolate' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
        capture_output=True, text=True, check=True,
    )
    assert out.stdout.strip() == "False"


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
        row += [traj.conserved.norm[j], traj.conserved.mean_n[j],
                traj.conserved.energy[j]]
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

    def write_per_value(path, header, rows):
        with open(path, "wb") as fh:
            fh.write(per_value_csv(header, rows))

    monkeypatch.setattr(cli, "_write_csv", write_per_value)
    assert table == run("per_value")

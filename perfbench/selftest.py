"""Self-test of the benchmark's correctness gates.

    python3 perfbench/selftest.py

Runs one op of every kind, checks that its untouched outputs pass every
gate, then corrupts the outputs one way at a time (a flipped coefficient,
a changed density value, an injected NaN, ...) and checks that the named
gate then fails, so no gate is vacuous.  It also checks the sparse
brute-force ladder matrices of the oracle against the dense ones of
``tests/_support.brute_matrix``.  Exits 0 when every expectation holds.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import sys
import tempfile

import run

run.import_program()
sys.path.insert(0, str(run.ROOT / "tests"))

import numpy as np  # noqa: E402

import workloads  # noqa: E402
from _support import brute_matrix  # noqa: E402
from harmonic_hartree import fock  # noqa: E402


def edit_csv(name: str, row: int, col: int, fn):
    """Replace one value of a CSV output (data row ``row``, column ``col``)."""
    def mutate(op):
        path = os.path.join(op.outdir, name)
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        cells = lines[row + 1].split(",")
        cells[col] = repr(fn(float(cells[col])))
        lines[row + 1] = ",".join(cells)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
    return mutate


def edit_json(name: str, fn):
    def mutate(op):
        path = os.path.join(op.outdir, name)
        with open(path, encoding="utf-8") as fh:
            obj = json.load(fh)
        fn(obj)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(obj, fh)
    return mutate


def drop_last_row(name: str):
    def mutate(op):
        path = os.path.join(op.outdir, name)
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines[:-1]) + "\n")
    return mutate


def set_key(key, value):
    def fn(obj):
        obj[key] = value
    return fn


def set_result(value):
    def mutate(op):
        op.result = value
    return mutate


def flip_largest(name: str, row: int):
    """Negate the largest-magnitude coefficient column of one CSV row."""
    def mutate(op):
        table = np.loadtxt(os.path.join(op.outdir, name), delimiter=",", skiprows=1)
        col = 1 + int(np.argmax(np.abs(table[row, 1:-3])))
        edit_csv(name, row, col, lambda x: -x)(op)
    return mutate


def bump_term(name: str, by: float):
    def fn(obj):
        obj["terms"][0]["re"] += by
    return edit_json(name, fn)


def bump_member(key: str, by):
    def fn(obj):
        obj["members"][0][key] += by
    return fn


NAN = math.nan
GRID = workloads.ClassicalWorkload.grid_n
CENTER_ROW = GRID * GRID // 2 + GRID // 2  # the density peak at x = v = 0

# (workload, op index, corruption, mutation, gate that must fail)
CASES = [
    ("flow", 0, "flip one coefficient", flip_largest("simulate.csv", 20), "orbit_err"),
    ("flow", 0, "NaN coefficient", edit_csv("simulate.csv", 20, 1, lambda x: NAN),
     "orbit_err"),
    ("flow", 0, "norm column off by 1e-6",
     edit_csv("simulate.csv", 30, -3, lambda x: x + 1e-6), "drift_max"),
    ("flow", 0, "NaN norm", edit_csv("simulate.csv", 30, -3, lambda x: NAN),
     "drift_max"),
    ("flow", 0, "last sample missing", drop_last_row("simulate.csv"), "csv_layout"),
    ("classical", 0, "last grid row missing", drop_last_row("pipeline_f.csv"), "csv_layout"),
    ("classical", 0, "one density value +1e-5",
     edit_csv("pipeline_f.csv", CENTER_ROW, 2, lambda x: x + 1e-5), "density_err"),
    ("classical", 0, "NaN density value",
     edit_csv("pipeline_f.csv", 100, 2, lambda x: NAN), "density_err"),
    ("classical", 0, "residual 2e-4",
     edit_json("pipeline_report.json", set_key("vlasov_residual", 2e-4)), "vlasov_residual"),
    ("classical", 0, "NaN residual",
     edit_json("pipeline_report.json", set_key("vlasov_residual", NAN)), "vlasov_residual"),
    ("classical", 0, "mass 1 + 1e-5",
     edit_json("pipeline_report.json", set_key("mass", 1.0 + 1e-5)), "mass_err"),
    ("classical", 0, "momentum 1e-5",
     edit_json("pipeline_report.json", set_key("momentum", 1e-5)), "charge_err"),
    ("classical", 0, "NaN pseudo-momentum",
     edit_json("pipeline_report.json", set_key("pseudo_momentum", [NAN, 0.0])), "charge_err"),
    ("analysis", 0, "eigenvalue Re 1e-8", edit_csv("out.csv", 5, 0, lambda x: 1e-8),
     "spectrum_re"),
    ("analysis", 0, "eigenvalue Im 2.5", edit_csv("out.csv", 5, 1, lambda x: 2.5),
     "spectrum_int"),
    ("analysis", 0, "NaN eigenvalue", edit_csv("out.csv", 5, 0, lambda x: NAN),
     "spectrum_re"),
    ("analysis", 0, "integer_ok false", edit_json("out.json", set_key("integer_ok", False)),
     "integer_ok"),
    ("analysis", 0, "perturbed_dim 9", edit_json("out.json", set_key("perturbed_dim", 9)),
     "perturbed_dim"),
    ("analysis", 1, "velocity +1e-8",
     edit_json("out.json", lambda o: o.update(velocity=o["velocity"] + 1e-8)),
     "classify_velocity"),
    ("analysis", 1, "NaN velocity", edit_json("out.json", set_key("velocity", NAN)),
     "classify_velocity"),
    ("analysis", 1, "indices changed", edit_json("out.json", set_key("indices", [0])),
     "classify_indices"),
    ("analysis", 1, "period doubled",
     edit_json("out.json", lambda o: o.update(relative_period=2 * o["relative_period"])),
     "classify_period"),
    ("analysis", 2, "energy +1e-9",
     edit_json("out.json", lambda o: o.update(energy=o["energy"] + 1e-9)), "energy_err"),
    ("analysis", 2, "NaN energy", edit_json("out.json", set_key("energy", NAN)), "energy_err"),
    ("analysis", 3, "field term +1e-8", bump_term("out.json", 1e-8), "field_err"),
    ("analysis", 4, "NaN field term", bump_term("out.json", NAN), "field_err"),
    ("analysis", 6, "member velocity +1e-8",
     edit_json("out.json", bump_member("velocity", 1e-8)), "family_err"),
    ("analysis", 6, "period not shared",
     edit_json("out.json", set_key("period_is_shared", False)), "family_err"),
    ("analysis", 7, "same-class distance 1e-6", set_result((1e-6, 0.5)), "gauge_same"),
    ("analysis", 7, "NaN distance", set_result((0.0, NAN)), "gauge_other"),
]


def check_oracle_matrices() -> list[str]:
    problems = []
    for d in (1, 2):
        cut = fock.Cutoff(k=8, d=d)
        alg = workloads.OracleAlgebra(cut)
        for i in range(d):
            for kind, mat in (("lower_a", alg.lower_a[i]), ("raise_a", alg.raise_a[i]),
                              ("lower_b", alg.lower_b[i]), ("raise_b", alg.raise_b[i])):
                if not np.array_equal(mat.toarray(), brute_matrix(cut, kind, i)):
                    problems.append(f"ladder_matrix {kind} axis {i} d={d} != brute_matrix")
    return problems


def main() -> int:
    problems = check_oracle_matrices()
    all_workloads = workloads.make_workloads()
    for name in {w for w, *_ in CASES}:
        all_workloads[name].prepare_oracle()
    (run.ROOT / ".bench_out").mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="selftest-", dir=run.ROOT / ".bench_out")
    try:
        ops = {}
        for name, index in sorted({(w, i) for w, i, *_ in CASES}):
            workload = all_workloads[name]
            outdir = os.path.join(workdir, f"{name}-{index}")
            os.mkdir(outdir)
            op = workload.make_op(index, np.random.default_rng([0, index]), outdir)
            code = op.run()
            bad = workloads.failed_gates(op.check(op)) if code == 0 else ["exit"]
            if bad:
                problems.append(f"{name} op {index} ({op.kind}) fails untouched: {bad}")
            pristine = outdir + "-pristine"
            shutil.copytree(outdir, pristine)
            ops[name, index] = (op, pristine, op.result)

        for name, index, what, mutate, gate in CASES:
            op, pristine, result = ops[name, index]
            shutil.rmtree(op.outdir)
            shutil.copytree(pristine, op.outdir)
            op.result = result
            mutate(op)
            failed = workloads.failed_gates(op.check(op))
            status = "ok" if gate in failed else "MISSED"
            print(f"{status:6s} {name:10s} {op.kind:12s} {what:28s} -> {failed}")
            if gate not in failed:
                problems.append(f"{name} {op.kind}: '{what}' did not fail {gate}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for p in problems:
        print("FAIL", p)
    print(f"{len(CASES)} corruptions, {len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

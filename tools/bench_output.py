"""Time the CLI's writing of its large outputs on a fixed size ladder.

    PYTHONPATH=src python3 tools/bench_output.py

With PYTHONPATH pointing at another checkout's ``src`` it times that tree.

Each rung runs one CLI command through ``cli.main`` with the library calls
it makes replaced by their results, computed beforehand, so the timed call
is argument parsing plus rendering and writing the output files:

* state JSON: ``vector-field --kind full`` at d = 1, 2, 3, K = 8;
* spectrum JSON: ``spectrum`` at basis equilibria with n = 45, 495, 3003
  (its CSV writer is replaced by a no-op, so only the JSON is timed);
* f-grid CSV: ``pipeline`` on grids n = 64, 128, 256, 512, L = 6 (with the
  rho CSV and the small report, which are n lines and one object).

Every rung runs in its own process with one BLAS thread: one first call,
then the minimum wall time of 5 more.  Prints one JSON object with the
timings, the size and SHA-256 of each output file, and the host, Python
and numpy versions.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import platform
import subprocess
import sys
import tempfile
import time

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

# (output, size): d for state JSON, basis size for spectrum, grid n for CSV
LADDER = [
    ("state_json", 1), ("state_json", 2), ("state_json", 3),
    ("spectrum_json", 45), ("spectrum_json", 495), ("spectrum_json", 3003),
    ("f_csv", 64), ("f_csv", 128), ("f_csv", 256), ("f_csv", 512),
]
REPEATS = 5
SEED = 8
# basis size -> (K, d, a, b) of a basis-vector relative equilibrium
EQUILIBRIA = {
    45: (8, 1, (1,), (2,)),
    495: (8, 2, (1, 0), (0, 2)),
    3003: (8, 3, (1, 0, 0), (0, 2, 0)),
}


@contextlib.contextmanager
def replaced(module, **attrs):
    """Set attributes of ``module`` for the duration of the block."""
    saved = {name: getattr(module, name) for name in attrs}
    for name, value in attrs.items():
        setattr(module, name, value)
    try:
        yield
    finally:
        for name, value in saved.items():
            setattr(module, name, value)


def _centered_state(fock, k: int, d: int):
    """Seeded unit state on the excitations -4, -2, 0 and 2, degree <= K - 2."""
    import numpy as np

    cut = fock.Cutoff(k=k, d=d)
    idxs = [
        i for i in fock.basis(cut)
        if i.excitation in (-4, -2, 0, 2) and i.degree <= k - 2
    ]
    rng = np.random.default_rng(SEED)
    amps = rng.normal(size=len(idxs)) + 1j * rng.normal(size=len(idxs))
    amps /= np.linalg.norm(amps)
    return fock.FockVector(cut, {i: complex(a) for i, a in zip(idxs, amps)})


def prepare(output: str, size: int, outdir: str):
    """Return (argv, stubs, output files, description) for one rung."""
    from harmonic_hartree import cli, equilibria, fock, hamiltonian, orbits, pipeline

    def const(value):
        return lambda *args, **kwargs: value

    if output == "state_json":
        state = _centered_state(fock, 8, size)
        field = hamiltonian.vector_field(hamiltonian.FieldKind.FULL, state)
        out = os.path.join(outdir, "vf.json")
        argv = ["vector-field", "--state", "-", "--kind", "full", "--json", out]
        stubs = [(cli, {"_load_state": const(state)}),
                 (hamiltonian, {"vector_field": const(field)})]
        return argv, stubs, [out], {"K": 8, "d": size, "terms": len(field.coeffs)}
    if output == "spectrum_json":
        k, d, a, b = EQUILIBRIA[size]
        state = fock.basis_vector(fock.Cutoff(k=k, d=d), a, b)
        report = equilibria.classify_spectrum(equilibria.linearize(state))
        out = os.path.join(outdir, "s.json")
        argv = ["spectrum", "--state", "-", "--json", out, "--csv", os.devnull]
        stubs = [(cli, {"_load_state": const(state), "_write_csv": const(None)}),
                 (equilibria, {"linearize": const(report),
                               "classify_spectrum": const(report)})]
        return argv, stubs, [out], {"n": size, "K": k, "d": d,
                                    "eigenvalues": len(report.eigenvalues)}
    if output == "f_csv":
        spec = pipeline.GridSpec(n=size, extent=6.0)
        state = fock.FockVector(fock.Cutoff(k=8, d=1), {
            fock.MultiIndex((0,), (0,)): 0.8 + 0j, fock.MultiIndex((2,), (0,)): 0.6 + 0j,
        })
        orbit = orbits.orbit_from_state(state)
        field = pipeline.state_to_classical(orbits.analytic_solution(orbit, 0.5), spec)
        f, rho = pipeline.density(field)
        prefix = os.path.join(outdir, "pipe")
        argv = ["pipeline", "--state", "-", "--t", "0.5", "--grid-n", str(size),
                "--grid-l", "6.0", "--out-prefix", prefix]
        stubs = [
            (cli, {"_load_state": const(state)}),
            (orbits, {"orbit_from_state": const(orbit), "analytic_solution": const(state)}),
            (pipeline, {
                "state_to_classical": const(field),
                "density": const((f, rho)),
                "noether_charges": const(pipeline.noether_charges(field)),
                "vlasov_residual": const(0.0),
            }),
        ]
        outs = [prefix + "_f.csv", prefix + "_rho.csv", prefix + "_report.json"]
        return argv, stubs, outs, {"grid_n": size, "grid_l": 6.0}
    raise ValueError(f"unknown output {output!r}")


def time_rung(output: str, size: int) -> None:
    """Print the rung's figures as one JSON line."""
    from harmonic_hartree import cli

    with tempfile.TemporaryDirectory() as outdir:
        argv, stubs, outs, desc = prepare(output, size, outdir)
        times = []
        with contextlib.ExitStack() as stack:
            for module, attrs in stubs:
                stack.enter_context(replaced(module, **attrs))
            for _ in range(1 + REPEATS):
                t0 = time.perf_counter()
                rc = cli.main(argv)
                times.append(time.perf_counter() - t0)
                if rc:
                    raise RuntimeError(f"cli.main returned {rc}")
        files = {}
        for path in outs:
            with open(path, "rb") as fh:
                data = fh.read()
            files[os.path.basename(path)] = {
                "bytes": len(data), "sha256": hashlib.sha256(data).hexdigest(),
            }
    print(json.dumps(dict(desc, first_call_s=times[0], min_s=min(times[1:]),
                          files=files)))


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine()


def main() -> int:
    if sys.argv[1:2] == ["--rung"]:  # child: one rung
        output, size = LADDER[int(sys.argv[2])]
        time_rung(output, size)
        return 0
    import numpy as np

    rungs = []
    for i, (output, size) in enumerate(LADDER):
        out = subprocess.run([sys.executable, __file__, "--rung", str(i)],
                             capture_output=True, text=True)
        rung = {"output": output}
        if out.returncode:
            lines = out.stderr.strip().splitlines()
            rung["result"] = lines[-1] if lines else f"exit code {out.returncode}"
        else:
            rung.update(json.loads(out.stdout))
        rungs.append(rung)
    print(json.dumps({
        "host": {"cpu": _cpu_model(), "cpus": os.cpu_count()},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": 1,
        "repeats": REPEATS,
        "rungs": rungs,
    }, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())

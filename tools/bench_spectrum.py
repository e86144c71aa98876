"""Time ``linearize`` + ``classify_spectrum`` on a fixed size ladder.

    PYTHONPATH=src python3 tools/bench_spectrum.py [TIMEOUT_S]

With PYTHONPATH pointing at another checkout's ``src`` it times that tree.

Each rung is one basis-vector relative equilibrium, timed in its own
process with one BLAS thread: one first call (which also fills the
ladder-table cache), then the minimum wall time of 5 more calls.  A rung
that runs past TIMEOUT_S (default 600) is stopped and reported as not
finished, with its first call's time if that call returned.  Prints one
JSON object with the timings and the host, Python and numpy versions.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
import time

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

# (K, d, a, b): basis sizes 45, 210, 495, 3003
LADDER = [
    (8, 1, (1,), (2,)),
    (6, 2, (1, 0), (0, 2)),
    (8, 2, (1, 0), (0, 2)),
    (8, 3, (1, 0, 0), (0, 2, 0)),
]
REPEATS = 5


def time_rung(k: int, d: int, a, b) -> None:
    """Print the first call's figures, then the minimum of the repeats,
    each as one JSON line as soon as it is known."""
    from harmonic_hartree import equilibria, fock

    base = fock.basis_vector(fock.Cutoff(k=k, d=d), a, b)
    times = []
    for _ in range(1 + REPEATS):
        t0 = time.perf_counter()
        report = equilibria.classify_spectrum(equilibria.linearize(base))
        times.append(time.perf_counter() - t0)
        if len(times) == 1:
            print(json.dumps({
                "n": len(fock.basis(base.cutoff)),
                "first_call_s": times[0],
                "integer_ok": report.integer_spectrum_ok,
            }), flush=True)
    print(json.dumps({"min_s": min(times[1:])}), flush=True)


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
        time_rung(*LADDER[int(sys.argv[2])])
        return 0
    import numpy as np

    timeout = float(sys.argv[1]) if len(sys.argv) > 1 else 600.0
    rungs = []
    for i, (k, d, a, b) in enumerate(LADDER):
        rung = {"K": k, "d": d, "a": list(a), "b": list(b)}
        argv = [sys.executable, __file__, "--rung", str(i)]
        try:
            out = subprocess.run(argv, capture_output=True, text=True, timeout=timeout)
            stdout = out.stdout
            if out.returncode:
                lines = out.stderr.strip().splitlines()
                rung["result"] = lines[-1] if lines else f"exit code {out.returncode}"
        except subprocess.TimeoutExpired as exc:
            stdout = exc.stdout or ""
            if isinstance(stdout, bytes):
                stdout = stdout.decode()
            rung["result"] = f"did not finish in {timeout:g} s"
        for line in stdout.splitlines():
            rung.update(json.loads(line))
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

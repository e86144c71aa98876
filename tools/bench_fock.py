"""Time the state layer of ``fock`` and two of its callers on a size ladder.

    PYTHONPATH=src python3 tools/bench_fock.py

With PYTHONPATH pointing at another checkout's ``src`` it times that tree.

Each rung is one cutoff (d = 1, 2, 3 at K = 8, and d = 3 at K = 12) and
two seeded unit states whose support is every basis element of degree
<= K - 2.  ``build`` is the cold build of the cutoff's basis and ladder
table (every cache of ``fock`` cleared first); ``load`` is
``from_json_dict`` of the first state's JSON object.  Each op is called
up to CALLS times per run after one warm-up call (which also fills the
basis and ladder-table caches), fewer when the warm-up call shows that
CALLS calls would take longer than BUDGET_S; the figure is the minimum over
5 runs of the mean time per call, with one BLAS thread.  Prints one JSON
object with the timings, the calls per run and the host, Python and numpy
versions.
"""

from __future__ import annotations

import json
import os
import platform
import sys
import time

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

from harmonic_hartree import fock, hamiltonian, reduction  # noqa: E402

LADDER = [(8, 1), (8, 2), (8, 3), (12, 3)]  # basis sizes 45, 495, 3003, 18564
REPEATS = 5
CALLS = 100
BUDGET_S = 0.2


def _unit_state(cut: fock.Cutoff, rng) -> fock.FockVector:
    idxs = [idx for idx in fock.basis(cut) if idx.degree <= cut.k - 2]
    amps = rng.normal(size=len(idxs)) + 1j * rng.normal(size=len(idxs))
    amps /= np.linalg.norm(amps)
    return fock.FockVector(cut, {i: complex(a) for i, a in zip(idxs, amps)})


def _cold_build(cut: fock.Cutoff) -> None:
    for cached in vars(fock).values():
        if hasattr(cached, "cache_clear"):
            cached.cache_clear()
    fock.basis(cut)
    fock.ladder_table(cut)


def time_rung(k: int, d: int) -> dict:
    cut = fock.Cutoff(k=k, d=d)
    rng = np.random.default_rng(d)
    v, w = _unit_state(cut, rng), _unit_state(cut, rng)
    mapping, arr, z = v.coeffs, fock.to_array(v), complex(np.exp(0.7j))
    obj = json.loads(json.dumps(fock.to_json_dict(v)))
    ops = {
        "build": lambda: _cold_build(cut),
        "load": lambda: fock.from_json_dict(obj),
        "construct": lambda: fock.FockVector(cut, mapping),
        "to_array": lambda: fock.to_array(v),
        "from_array": lambda: fock.from_array(cut, arr),
        "add": lambda: v + w,
        "scalar_mul": lambda: z * v,
        "inner": lambda: fock.inner(v, w),
        "component_split": lambda: fock.component_split(v),
        "vector_field": lambda: hamiltonian.vector_field(hamiltonian.FieldKind.SPHERE, v),
        "gauge_fix": lambda: reduction.gauge_fix(v),
    }
    us_per_call, calls_per_run = {}, {}
    for name, op in ops.items():
        t0 = time.perf_counter()
        op()
        calls = max(1, min(CALLS, int(BUDGET_S / (time.perf_counter() - t0))))
        runs = []
        for _ in range(REPEATS):
            t0 = time.perf_counter()
            for _ in range(calls):
                op()
            runs.append((time.perf_counter() - t0) / calls)
        us_per_call[name] = 1e6 * min(runs)
        calls_per_run[name] = calls
    return {"K": k, "d": d, "n": len(fock.basis(cut)), "terms": len(mapping),
            "us_per_call": us_per_call, "calls_per_run": calls_per_run}


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
    print(json.dumps({
        "host": {"cpu": _cpu_model(), "cpus": os.cpu_count()},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": 1,
        "repeats": REPEATS,
        "max_calls_per_run": CALLS,
        "budget_s": BUDGET_S,
        "rungs": [time_rung(k, d) for k, d in LADDER],
    }, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())

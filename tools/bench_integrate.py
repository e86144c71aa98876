"""Time ``integrate`` on a fixed size ladder and measure its errors.

    PYTHONPATH=src python3 tools/bench_integrate.py [TIMEOUT_S]

With PYTHONPATH pointing at another checkout's ``src`` it times that tree.

Each rung integrates one seeded centered state (components on the
excitations -4, -2, 0 and 2, support degree <= K - 2) at tol = 1e-10 with
41 samples, in its own process with one BLAS thread: one first call
(which also fills the ladder-table cache), then the minimum wall time of
5 more calls.  Per rung it records the accepted and rejected steps, the
field evaluations (counted through ``integrate.sphere_field``), the worst
orbit error against ``orbits.analytic_solution`` at the samples and at 30
seeded interior times of the dense output, and the worst drift of norm,
excitation mean and energy.  A rung that runs past TIMEOUT_S (default
600) is stopped and reported as not finished.  Prints one JSON object
with the figures and the host, Python and numpy versions; exits 1 when a
rung failed or did not finish.
"""

from __future__ import annotations

import json
import math
import os
import platform
import subprocess
import sys
import time

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

# (K, d, t_end): basis sizes 45, 495, 3003
LADDER = [
    (8, 1, 2 * math.pi),
    (8, 2, math.pi / 4),
    (8, 3, math.pi / 4),
]
REPEATS = 5
SEED = 9
TOL = 1e-10
SAMPLES = 41
INTERIOR = 30


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


def time_rung(k: int, d: int, t_end: float) -> None:
    """Print the first call's figures, then the minimum of the repeats,
    each as one JSON line as soon as it is known."""
    import numpy as np

    from harmonic_hartree import fock, integrate, orbits

    state = _centered_state(fock, k, d)
    field = integrate.sphere_field
    calls = [0]

    def counted(*args):  # any signature, so that one harness times every tree
        calls[0] += 1
        return field(*args)

    integrate.sphere_field = counted
    t0 = time.perf_counter()
    traj = integrate.integrate(state, t_end, tol=TOL, samples=SAMPLES)
    first = time.perf_counter() - t0
    integrate.sphere_field = field

    orbit = orbits.orbit_from_state(state)
    interior = np.random.default_rng(SEED).uniform(0.0, t_end, INTERIOR)
    checks = list(zip(traj.times.tolist(), traj.states)) + [
        (t, traj.interpolate(t).normalized()) for t in interior.tolist()
    ]
    orbit_err = max(
        (st - orbits.analytic_solution(orbit, t)).norm for t, st in checks
    )
    drift = integrate.conserved_drift(traj)
    print(json.dumps({
        "n": len(fock.basis(state.cutoff)),
        "accepted_steps": traj.accepted_steps,
        "rejected_steps": traj.rejected_steps,
        "field_evals": calls[0],
        "first_call_s": first,
        "orbit_err": orbit_err,
        "drift": max(drift.norm, drift.mean_n, drift.energy),
    }), flush=True)
    times = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        integrate.integrate(state, t_end, tol=TOL, samples=SAMPLES)
        times.append(time.perf_counter() - t0)
    print(json.dumps({"min_s": min(times)}), flush=True)


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
    for i, (k, d, t_end) in enumerate(LADDER):
        rung = {"K": k, "d": d, "t_end": t_end}
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
        "tol": TOL,
        "samples": SAMPLES,
        "repeats": REPEATS,
        "rungs": rungs,
    }, indent=1))
    return 1 if any("result" in rung for rung in rungs) else 0


if __name__ == "__main__":
    sys.exit(main())

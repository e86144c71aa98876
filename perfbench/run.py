"""Closed-loop benchmark of the harmonic-hartree CLI and library.

    python3 perfbench/run.py --workload flow --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from
``src/`` there and nowhere else.  One client issues op ``i + 1`` only after
op ``i`` has returned and been checked.  Inputs come from ``--seed``; CLI
outputs go to a temporary directory under ``.bench_out/``.

A run first starts ``setup_probe.py`` several times (cold import plus cache
fill, reported as ``setup_s``), then fills the caches in its own process,
then times ops until ``--seconds`` have passed, at least the workload's
``min_ops`` are done and the last cycle of its op mix is complete, so
every run measures the same mix.  Op time is the ``cli.main`` call (or
library call) alone; reading outputs back and checking them is not timed.
Op times are scaled to a nominal machine speed by reference kernels timed
next to each op (see ``speed.py``); the raw wall-clock figures are in the
record line.  The prefix
(a fixed number of ops) is the part whose outputs are hashed into the
determinism digest and from which accuracy and per-layer figures come, so
those repeat exactly for a seed.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` wraps every
public function of the package (see ``spans.py``) and reports per-layer
metrics instead, with the traced run's own ``ops_per_s``.  The last line
of standard output is the result object; the line before it is a record
of the environment, digest, op counts and every gate's worst value, also
written to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# one BLAS thread: a single closed-loop client, and reductions in a fixed
# order so outputs are byte-identical between runs
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

SETUP_PROBES = 3
PROBE_TIMEOUT_S = 60.0
HARD_STOP_S = 150.0  # stay inside the 180 s a run may take
WORKLOAD_NAMES = ("flow", "classical", "analysis")


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_program():
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(1, str(HERE))
    import harmonic_hartree

    where = Path(harmonic_hartree.__file__).resolve().parent
    if where != ROOT / "src" / "harmonic_hartree":
        raise ImportError(f"harmonic_hartree imported from {where}, not this checkout")


def _probe(workload: str) -> tuple[float, float]:
    """Start and end of one cold set-up probe process.

    ``Popen.wait`` with a timeout polls in steps of up to 50 ms, which
    would quantize the figure; a timer kills a hung probe instead.
    """
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(HERE / "setup_probe.py"), workload], cwd=ROOT)
    timer = threading.Timer(PROBE_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        code = proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:  # interrupted while waiting
            proc.kill()
            proc.wait()
    t1 = time.perf_counter()
    if code != 0:
        raise RuntimeError(f"set-up probe for {workload} exited with {code}")
    return t0, t1


def _setup_samples(workload: str) -> list[float]:
    """Wall times of the cold set-up probes.  A first, untimed probe brings
    the package's files into the page cache, so every timed probe starts
    from the same state.  They are not scaled by the reference kernels:
    process start and imports did not follow either kernel when measured."""
    _probe(workload)
    return [t1 - t0 for t0, t1 in (_probe(workload) for _ in range(SETUP_PROBES))]


def _environment(workload) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]

    def sysconf(key: int):
        # glibc _SC_LEVEL2_CACHE_SIZE / _SC_LEVEL3_CACHE_SIZE
        try:
            return os.sysconf(key)
        except (ValueError, OSError):
            return None

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "l2_bytes": sysconf(191),
        "l3_bytes": sysconf(194),
        **workload.describe(),
    }


def _tail(times: list[float], pct: float) -> tuple[float, int]:
    """The op time at percentile ``pct`` (nearest rank) and the number of
    samples beyond it.  ``pct`` is fixed per workload, as the highest
    percentile with at least 10 samples beyond it in the shortest run the
    workload allows, so every run reports the same percentile."""
    ordered = sorted(times)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def _worse(prev: float, err: float) -> float:
    """The larger of two errors; NaN wins, so it cannot hide."""
    return err if not (err <= prev) else prev


def _json_number(x: float):
    """Finite floats as they are; inf and NaN as strings (strict JSON)."""
    return x if math.isfinite(x) else repr(x)


def _digits(accuracy: dict[str, float], figures) -> float:
    """Decimal digits to which every figure agrees: -log10 of the largest
    error, capped at 17; 0 when an error is not finite."""
    errs = [accuracy.get(g, math.nan) for g in figures]
    if not all(math.isfinite(e) for e in errs):
        return 0.0
    return -math.log10(max(max(errs), 1e-17))


def _digest_files(digest, outdir: str) -> int:
    """Hash an op's output files (not its input) into ``digest``; return
    their total size."""
    size = 0
    for name in sorted(os.listdir(outdir)):
        if name == "state.json":
            continue
        with open(os.path.join(outdir, name), "rb") as fh:
            data = fh.read()
        digest.update(name.encode() + b"\0" + data)
        size += len(data)
    return size


def main(argv=None) -> int:
    args = _parse_args(argv)
    # run the finally blocks (which stop a running probe) on SIGTERM too
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not args.seconds > 0:
        raise SystemExit("--seconds must be positive")
    import_program()
    import numpy as np

    import setup_probe
    import spans
    import speed
    import workloads

    setup = _setup_samples(args.workload)
    clock = speed.ReferenceClock()
    workload = workloads.make_workloads()[args.workload]
    tracer = spans.Tracer()
    if args.trace:
        tracer.install()
        tracer.enabled = True
    setup_probe.SETUPS[args.workload]()
    tracer.enabled = False
    workload.prepare_oracle()

    out_root = ROOT / ".bench_out"
    out_root.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=out_root)
    digest = hashlib.sha256()
    times, raw_times, shares, kinds, failures = [], [], [], [], []
    worst: dict[str, float] = {}  # per gate, largest err over the prefix
    bytes_prefix = 0
    began = time.perf_counter()
    try:
        i = 0
        while True:
            elapsed = time.perf_counter() - began
            done = i >= workload.min_ops and i % workload.cycle_len == 0
            if (done and elapsed >= args.seconds) or elapsed >= HARD_STOP_S:
                break
            clock.sample_if_due()
            outdir = os.path.join(workdir, f"op{i}")
            os.mkdir(outdir)
            op = workload.make_op(i, np.random.default_rng([args.seed, i]), outdir)
            tracer.current_op = i
            tracer.enabled = bool(args.trace)
            t0 = time.perf_counter()
            try:
                code = op.run()
            except (Exception, SystemExit) as exc:  # a failed op is counted
                code = f"{type(exc).__name__}: {exc}"
            t1 = time.perf_counter()

            tracer.enabled = False
            try:
                errors = op.check(op) if code == 0 else {"exit": (math.inf, 0.0)}
            except (Exception, SystemExit) as exc:
                errors = {"check": (math.inf, 0.0)}
                code = f"check {type(exc).__name__}: {exc}"
            bad = workloads.failed_gates(errors)
            if bad:
                failures.append({"op": i, "kind": op.kind, "exit": str(code), "gates": bad})
            if i < workload.prefix:
                bytes_prefix += _digest_files(digest, outdir)
                for gate, (err, _) in errors.items():
                    worst[gate] = _worse(worst.get(gate, 0.0), err)
            shutil.rmtree(outdir)
            raw_times.append((t0, t1))
            shares.append(op.memory_share)
            kinds.append(op.kind)
            i += 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    clock.bracket()
    times = [clock.scaled(t0, t1, w) for (t0, t1), w in zip(raw_times, shares)]
    raw_times = [t1 - t0 for t0, t1 in raw_times]

    n = len(times)
    tail, beyond_tail = _tail(times, workload.tail_pct)
    ops_per_s = n / sum(times)
    prefix = range(min(workload.prefix, n))
    oracle, invariant = workloads.ACCURACY[args.workload]
    accuracy = {g: worst[g] for g in oracle + invariant if g in worst}
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if args.trace:
        metrics = {
            name: {"value": value, "unit": spans.UNITS[name]}
            for name, value in spans.layer_metrics(tracer, prefix, bytes_prefix).items()
        }
        metrics["trace.ops_per_s"] = {"value": ops_per_s, "unit": "1/s"}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "ops_per_s": {"value": ops_per_s, "unit": "1/s"},
            "op_p50_s": {"value": statistics.median(times), "unit": "s"},
            "op_tail_s": {"value": tail, "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
            "oracle_digits": {"value": _digits(accuracy, oracle), "unit": "digits"},
            "invariant_digits": {"value": _digits(accuracy, invariant), "unit": "digits"},
        }

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": _environment(workload),
        "ops": n,
        "prefix_ops": len(prefix),
        "op_kinds": {k: kinds.count(k) for k in sorted(set(kinds))},
        "failed_frac": len(failures) / n,
        "failures": failures[:20],
        "op_tail_percentile": workload.tail_pct,
        "op_tail_samples_beyond": beyond_tail,
        "setup_samples_s": setup,
        "op_times_s": times,
        "op_times_wall_s": raw_times,
        "wall": {
            "ops_per_s": n / sum(raw_times),
            "op_p50_s": statistics.median(raw_times),
        },
        "reference_kernels": {
            kind: {
                "nominal_s": speed.NOMINAL_S[kind],
                "samples": len(d),
                "median_s": statistics.median(d),
                "q1_q3_s": statistics.quantiles(d, n=4)[::2],
            }
            for kind, d in clock.durations.items()
        },
        "digest_sha256": digest.hexdigest(),
        "prefix_bytes_written": bytes_prefix,
        "accuracy": {g: _json_number(v) for g, v in accuracy.items()},
        "worst_gate_values": {g: _json_number(v) for g, v in worst.items()},
    }
    stem = out_root / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump({"record": record, "metrics": metrics}, fh, indent=2, sort_keys=True)
    if args.trace:
        tracer.dump(f"{stem}-spans.csv.gz")
    print(json.dumps(record, sort_keys=True))
    print(json.dumps({
        "correct": not failures,
        "attempted": n,
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

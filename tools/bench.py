"""Time the library layer by layer on fixed size ladders.

    PYTHONPATH=src python3 tools/bench.py [--against SRC] [LAYER ...]

LAYER is one of ``fock``, ``integrate``, ``spectrum``, ``orbits``,
``pipeline``, ``output`` and ``digests``; without one every layer runs.
With PYTHONPATH pointing at another checkout's ``src`` it times that tree.

``digests`` times nothing: it runs the catalogue of CLI commands that
covers every command, and records the size and SHA-256 of each file they
write.  A JSON must be ``json.dumps(..., indent=2, sort_keys=True)`` plus a
newline and a CSV cell under the header its value's ``%.17g``, or the case
fails.  Two runs print the same bytes: run it twice and ``cmp`` the two
records to check that every output reruns byte for byte.

``--against SRC`` pairs this tree (the package the harness imports) with the
package under the directory SRC, another checkout's ``src``: each case's
child runs PAIRS times on each tree, alternately (this tree, then SRC, in
every repeat).  A rung then records each tree's figures under ``this`` and
``against``, its timing the minimum over the pairs, and under ``ratio``
the median and quartiles of the PAIRS ratios this / against of the
timing, pair by pair.  A case without timing (``digests``) runs once on
each tree and has no ratio.

Every case (a rung, or one op of a ``fock`` or ``pipeline`` rung) runs in its own process
with one BLAS thread and is stopped after TIMEOUT_S.  Its environment pins
glibc's allocator (GLIBC_TUNABLES = MALLOC_TUNABLES): a fixed mmap threshold
of 4 MiB and trim threshold of 256 MiB, so whether a grid-sized temporary
maps fresh pages no longer follows the allocation history of the process.
A layer marked ``unpinned`` (``integrate``, ``pipeline`` and ``output``)
also runs each case once more with the allocator's defaults and records
that run's minor page faults per call (``faults_per_call_default``)
beside the pinned run's (``faults_per_call``); the timings are the pinned
runs' alone.  The pinned threshold hides the heap churn of a temporary
between glibc's default mmap threshold (128 KiB) and 4 MiB, which the
default run shows.

Timing rule: one warm-up call, one more (warm) call that sizes the runs,
then REPEATS runs of up to CALLS calls each (fewer when the sizing call
shows that CALLS calls would take longer than BUDGET_S); the figure is the
minimum over the runs of the mean time per call.  Prints one JSON object:
the host, Python and numpy versions, then per layer its constants and
rungs.  A case that fails or does not finish is recorded as its rung's
``result``, and the exit code is then 1.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import itertools
import json
import math
import os
import platform
import resource
import subprocess
import sys
import tempfile
import time
from types import SimpleNamespace
from typing import Callable, Iterator, NamedTuple
from unittest import mock

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

import harmonic_hartree  # noqa: E402
from harmonic_hartree import (  # noqa: E402
    cli, equilibria, fock, hamiltonian, integrate, orbits, pipeline, reduction,
)

THIS_SRC = os.path.dirname(os.path.dirname(os.path.abspath(harmonic_hartree.__file__)))
PAIRS = 5
REPEATS = 5
CALLS = 100
BUDGET_S = 0.2
TIMEOUT_S = 300.0
MALLOC_TUNABLES = "glibc.malloc.mmap_threshold=4194304:glibc.malloc.trim_threshold=268435456"


def timed(op: Callable):
    """Wall time of one call of ``op``, and its result."""
    t0 = time.perf_counter()
    result = op()
    return time.perf_counter() - t0, result


def best_mean(op: Callable) -> dict:
    """The timing rule, after the warm-up call: the runs are sized from one
    more call, so a cold first call (a cache being filled) does not shrink
    them."""
    calls = max(1, min(CALLS, int(BUDGET_S / timed(op)[0])))
    runs = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        for _ in range(calls):
            op()
        runs.append((time.perf_counter() - t0) / calls)
    return {"min_s": min(runs), "calls_per_run": calls}


def faults_per_call(op: Callable, calls: int) -> float:
    """Minor page faults of this process per call of ``op``, over ``calls``
    calls made after the timed runs (the allocator at its steady state)."""
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(calls):
        op()
    return (resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / calls


def _seeded_state(cut: fock.Cutoff, rng, keep=lambda idx: True) -> fock.FockVector:
    """Unit state with seeded amplitudes on the basis elements of degree
    <= K - 2 that ``keep`` accepts."""
    idxs = [i for i in fock.basis(cut) if keep(i) and i.degree <= cut.k - 2]
    amps = rng.normal(size=len(idxs)) + 1j * rng.normal(size=len(idxs))
    amps /= np.linalg.norm(amps)
    return fock.FockVector(cut, {i: complex(a) for i, a in zip(idxs, amps)})


def _centered_state(k: int, d: int, seed: int) -> fock.FockVector:
    """Seeded unit state on the excitations -4, -2, 0 and 2, degree <= K - 2."""
    return _seeded_state(fock.Cutoff(k=k, d=d), np.random.default_rng(seed),
                         lambda i: i.excitation in (-4, -2, 0, 2))


# fock: the state layer and its callers, one case per op, on two seeded
# unit states supported on every basis element of degree <= K - 2.
# ``build`` is the cold build of the basis and ladder table (every cache of
# ``fock`` cleared first); ``load`` reads the first state's JSON object;
# ``energy`` is the energy's moment gather, and ``vector_field_full`` the
# full field of 1.3 times the first state, off the sphere, so that its
# pair-lowering and double-raising branch runs.

def _cold_build(cut: fock.Cutoff) -> None:
    for cached in vars(fock).values():
        if hasattr(cached, "cache_clear"):
            cached.cache_clear()
    fock.basis(cut)
    fock.ladder_table(cut)


FOCK_OPS = {
    "build": lambda s: _cold_build(s.cut),
    "load": lambda s: fock.from_json_dict(s.obj),
    "construct": lambda s: fock.FockVector(s.cut, s.mapping),
    "to_array": lambda s: fock.to_array(s.v),
    "from_array": lambda s: fock.from_array(s.cut, s.arr),
    "add": lambda s: s.v + s.w,
    "scalar_mul": lambda s: s.z * s.v,
    "inner": lambda s: fock.inner(s.v, s.w),
    "component_split": lambda s: fock.component_split(s.v),
    "vector_field": lambda s: hamiltonian.vector_field(hamiltonian.FieldKind.SPHERE, s.v),
    "gauge_fix": lambda s: reduction.gauge_fix(s.v),
    "energy": lambda s: hamiltonian.energy(s.v),
    "vector_field_full": lambda s: hamiltonian.vector_field(hamiltonian.FieldKind.FULL, s.big),
}


def fock_case(rung: dict, name: str) -> Iterator[dict]:
    cut = fock.Cutoff(k=rung["K"], d=rung["d"])
    rng = np.random.default_rng(cut.d)
    v, w = _seeded_state(cut, rng), _seeded_state(cut, rng)
    s = SimpleNamespace(cut=cut, v=v, w=w, mapping=v.coeffs, arr=fock.to_array(v),
                        z=complex(np.exp(0.7j)), big=1.3 * v,
                        obj=json.loads(json.dumps(fock.to_json_dict(v))))

    def op():
        return FOCK_OPS[name](s)

    op()  # warm-up
    best = best_mean(op)
    yield {"n": cut.size, "terms": len(s.mapping),
           "us_per_call": {name: 1e6 * best["min_s"]},
           "calls_per_run": {name: best["calls_per_run"]}}


# integrate: a seeded centered state at tol = TOL with SAMPLES samples,
# run forward and, on the last rung, backward; the field evaluations are
# counted through ``integrate.sphere_field``, and the orbit error against
# ``orbits.analytic_solution`` is the worst over the samples and INTERIOR
# seeded times of the dense output.  ``sha256`` hashes
# the bytes of the sample times, the sampled states' arrays and the three
# conserved columns, so two trees' trajectories compare bit for bit.
# ``faults_per_call`` counts minor page faults over one run of calls after
# the timed runs.

INTEGRATE_SEED = 9
TOL = 1e-10
SAMPLES = 41
INTERIOR = 30


def _trajectory_sha256(traj) -> str:
    digest = hashlib.sha256(traj.times.tobytes())
    for arr in [st.array for st in traj.states] + [traj.norm, traj.mean_n, traj.energy]:
        digest.update(arr.tobytes())
    return digest.hexdigest()


def integrate_case(rung: dict, _) -> Iterator[dict]:
    t_end = rung["t_end"]
    state = _centered_state(rung["K"], rung["d"], INTEGRATE_SEED)
    field, evals = integrate.sphere_field, [0]

    def counted(*args):  # any signature, so that one harness times every tree
        evals[0] += 1
        return field(*args)

    def op():
        return integrate.integrate(state, t_end, tol=TOL, samples=SAMPLES)

    with mock.patch.object(integrate, "sphere_field", counted):
        first, traj = timed(op)
    orbit = orbits.orbit_from_state(state)
    interior = np.random.default_rng(INTEGRATE_SEED).uniform(
        min(0.0, t_end), max(0.0, t_end), INTERIOR)
    checks = list(zip(traj.times.tolist(), traj.states)) + [
        (t, traj.interpolate(t).normalized()) for t in interior.tolist()
    ]
    drift = integrate.conserved_drift(traj)
    yield {
        "n": state.cutoff.size,
        "accepted_steps": traj.accepted_steps,
        "rejected_steps": traj.rejected_steps,
        "field_evals": evals[0],
        "first_call_s": first,
        "orbit_err": max((st - orbits.analytic_solution(orbit, t)).norm for t, st in checks),
        "drift": max(drift.norm, drift.mean_n, drift.energy),
        "sha256": _trajectory_sha256(traj),
    }
    best = best_mean(op)
    yield dict(best, faults_per_call=faults_per_call(op, best["calls_per_run"]))


# spectrum: ``linearize`` at basis-vector relative equilibria (basis sizes
# 45, 210, 495, 3003)

EQUILIBRIA = [
    {"K": 8, "d": 1, "a": [1], "b": [2]},
    {"K": 6, "d": 2, "a": [1, 0], "b": [0, 2]},
    {"K": 8, "d": 2, "a": [1, 0], "b": [0, 2]},
    {"K": 8, "d": 3, "a": [1, 0, 0], "b": [0, 2, 0]},
]


def _equilibrium(rung: dict) -> fock.FockVector:
    return fock.basis_vector(fock.Cutoff(k=rung["K"], d=rung["d"]), rung["a"], rung["b"])


def spectrum_case(rung: dict, _) -> Iterator[dict]:
    base = _equilibrium(rung)

    def op():
        return equilibria.linearize(base)

    first, report = timed(op)
    yield {"n": base.cutoff.size, "first_call_s": first,
           "integer_ok": report.integer_spectrum_ok}
    yield best_mean(op)


# orbits: ``orbit_from_state`` + ``orbit_velocity`` on a seeded centered
# unit state of degree <= K - 2 on the excitations ``indices``.  The
# ``analysis`` index sets pass by the gap criterion; in the ``adjacent``
# rung the components at -1 and 0 sit at degrees that no single ladder
# step joins, so the state is centered and its defect takes the per-slice
# sums.  ``c`` is the orbit's pair coupling, so two trees' values compare.

ORBIT_SEED = 4
ADJACENT_DEGREES = {-1: (1,), 0: (4, 6)}


def orbits_case(rung: dict, _) -> Iterator[dict]:
    cut = fock.Cutoff(k=rung["K"], d=rung["d"])
    degrees = ADJACENT_DEGREES if rung["adjacent"] else {}
    state = _seeded_state(cut, np.random.default_rng(ORBIT_SEED), lambda i: (
        i.excitation in rung["indices"] and i.degree in degrees.get(i.excitation, (i.degree,))))

    def op():
        return orbits.orbit_from_state(state), orbits.orbit_velocity(state)

    first, (orbit, velocity) = timed(op)
    yield {"n": cut.size, "terms": len(state.coeffs), "first_call_s": first,
           "c": [orbit.c.real, orbit.c.imag], "velocity": velocity}
    yield best_mean(op)


# pipeline: the classical chain on the state 0.8|0,0> + 0.6|2,0> at
# t = PIPELINE_T, L = PIPELINE_L, one case per op:
# ``tables`` builds the Hermite table of the state's degree on the grid
# axis, ``synthesis`` is one cold ``state_to_classical`` slice, ``dft``
# the inverse velocity transform of the slice's (x, xi) field, then
# ``density``, ``residual`` (the stencil over three slices dt = 1e-3
# apart) and ``charges``, the oracles that the tests check against; then
# what the ``pipeline`` command calls: ``classical_slice`` (the slice and
# its rate's coefficients, the rate the sphere field of the state),
# ``exact_charges`` and ``exact_residual`` of that slice; ``command`` is
# the whole ``pipeline`` command through ``cli.main``, each call writing
# to a fresh prefix, and records the size and SHA-256 of the files of its
# first call.  Only public functions are called, so one harness times
# every tree.  ``faults_per_call`` counts each op's minor page faults over
# one run of calls after the timed runs.

PIPELINE_T = 0.5
PIPELINE_L = 6.0


def _mix_state() -> fock.FockVector:
    return fock.FockVector(fock.Cutoff(k=8, d=1), {
        fock.MultiIndex((0,), (0,)): 0.8 + 0j, fock.MultiIndex((2,), (0,)): 0.6 + 0j,
    })


PIPELINE_OPS = {
    "tables": lambda s: pipeline.hermite_table(s.degree, s.spec.axis()),
    "synthesis": lambda s: pipeline.state_to_classical(s.state, s.spec),
    "dft": lambda s: pipeline.inverse_velocity_fourier(s.xxi),
    "density": lambda s: pipeline.density(s.field),
    "residual": lambda s: pipeline.vlasov_residual(s.f_series, 1e-3, s.spec),
    "charges": lambda s: pipeline.noether_charges(s.field),
    "classical_slice": lambda s: pipeline.classical_slice(s.state, s.rate, s.spec),
    "exact_charges": lambda s: pipeline.exact_charges(s.slice, *s.f_rho),
    "exact_residual": lambda s: pipeline.exact_residual(s.slice),
    "command": lambda s: s.command(),
}


def _fresh(argv: list[str]) -> Callable[[], None]:
    """A call of ``cli.main(argv)`` that writes to fresh paths: the text
    {call} in ``argv`` becomes the number of the call, from 0."""
    calls = itertools.count()

    def op():
        call = str(next(calls))
        if cli.main([arg.replace("{call}", call) for arg in argv]):
            raise RuntimeError(f"cli.main {argv[0]} returned nonzero")

    return op


def _files(paths: list[str]) -> dict:
    """The size and SHA-256 of the files of the first call of ``_fresh``."""
    files = {}
    for path in paths:
        with open(path.replace("{call}", "0"), "rb") as fh:
            data = fh.read()
        files[os.path.basename(path).replace("{call}", "")] = {
            "bytes": len(data), "sha256": hashlib.sha256(data).hexdigest(),
        }
    return files


def pipeline_case(rung: dict, name: str) -> Iterator[dict]:
    spec = pipeline.GridSpec(n=rung["grid_n"], extent=PIPELINE_L)
    orbit = orbits.orbit_from_state(_mix_state())
    slices = [orbits.analytic_solution(orbit, PIPELINE_T + dt) for dt in (-1e-3, 0.0, 1e-3)]
    field = pipeline.state_to_classical(slices[1], spec)
    rate = hamiltonian.vector_field(hamiltonian.FieldKind.SPHERE, slices[1])
    exact = pipeline.classical_slice(slices[1], rate, spec)
    with tempfile.TemporaryDirectory() as outdir:
        state_path = os.path.join(outdir, "state.json")
        with open(state_path, "w", encoding="utf-8") as fh:
            json.dump(fock.to_json_dict(_mix_state()), fh)
        prefix = os.path.join(outdir, "pipe{call}")
        s = SimpleNamespace(
            state=slices[1], spec=spec, degree=slices[1].max_degree(), field=field,
            rate=rate, slice=exact, f_rho=pipeline.density(exact.field),
            xxi=pipeline.velocity_fourier(field),
            f_series=[pipeline.density(pipeline.state_to_classical(st, spec))[0]
                      for st in slices],
            command=_fresh(["pipeline", "--state", state_path, "--t", repr(PIPELINE_T),
                            "--grid-n", str(spec.n), "--grid-l", repr(PIPELINE_L),
                            "--out-prefix", prefix]),
        )

        def op():
            return PIPELINE_OPS[name](s)

        op()  # warm-up
        best = best_mean(op)
        figures = {"us_per_call": {name: 1e6 * best["min_s"]},
                   "calls_per_run": {name: best["calls_per_run"]},
                   "faults_per_call": {name: faults_per_call(op, best["calls_per_run"])}}
        if name == "command":
            figures["files"] = _files([prefix + "_f.csv", prefix + "_rho.csv"])
    yield figures


# output: one CLI command through ``cli.main`` with the library calls it
# makes replaced by their results, so the timed call is argument parsing
# plus rendering and writing the output files: state JSON (``vector-field
# --kind full``), spectrum JSON (``spectrum``, its CSV writer a no-op),
# the simulate CSV (``simulate``, SAMPLES samples, with its report) and
# the f-grid CSV (``pipeline``, with the rho CSV and the report).  Each
# call writes to fresh paths, so no call truncates a file of the one
# before.  Records the size and SHA-256 of every file of the first call,
# and the minor page faults per call over one run of calls after the timed
# runs.

OUTPUT_SEED = 8


def _const(value):
    return lambda *args, **kwargs: value


def _output_setup(rung: dict, outdir: str):
    """Return (argv, stubs, output files, description) for one rung."""
    if rung["output"] == "state_json":
        state = _centered_state(8, rung["d"], OUTPUT_SEED)
        field = hamiltonian.vector_field(hamiltonian.FieldKind.FULL, state)
        out = os.path.join(outdir, "vf{call}.json")
        argv = ["vector-field", "--state", "-", "--kind", "full", "--json", out]
        stubs = [(cli, {"_load_state": _const(state)}),
                 (hamiltonian, {"vector_field": _const(field)})]
        return argv, stubs, [out], {"K": 8, "terms": len(field.coeffs)}
    if rung["output"] == "spectrum_json":
        state = _equilibrium(rung)
        report = equilibria.linearize(state)
        out = os.path.join(outdir, "s{call}.json")
        argv = ["spectrum", "--state", "-", "--json", out, "--csv", os.devnull]
        stubs = [(cli, {"_load_state": _const(state), "_write_csv": _const(None)}),
                 (equilibria, {"linearize": _const(report)})]
        return argv, stubs, [out], {"n": state.cutoff.size,
                                    "eigenvalues": len(report.eigenvalues)}
    if rung["output"] == "simulate_csv":
        state = _centered_state(8, rung["d"], OUTPUT_SEED)
        traj = integrate.integrate(state, math.pi / 4, tol=TOL, samples=SAMPLES)
        out = os.path.join(outdir, "sim{call}")
        argv = ["simulate", "--state", "-", "--t-end", repr(math.pi / 4),
                "--samples", str(SAMPLES), "--out", out + ".csv", "--report", out + ".json"]
        stubs = [(cli, {"_load_state": _const(state)}),
                 (integrate, {"integrate": _const(traj),
                              "conserved_drift": _const(integrate.conserved_drift(traj))})]
        return argv, stubs, [out + ".csv", out + ".json"], {
            "K": 8, "samples": SAMPLES, "columns": 2 * state.cutoff.size + 4}
    spec = pipeline.GridSpec(n=rung["grid_n"], extent=6.0)
    state = _mix_state()
    orbit = orbits.orbit_from_state(state)
    now = orbits.analytic_solution(orbit, 0.5)
    field = pipeline.state_to_classical(now, spec)
    prefix = os.path.join(outdir, "pipe{call}")
    argv = ["pipeline", "--state", "-", "--t", "0.5", "--grid-n", str(spec.n),
            "--grid-l", "6.0", "--out-prefix", prefix]
    # one slice with its exact diagnostics; the charges are those of the field
    rate = hamiltonian.vector_field(hamiltonian.FieldKind.SPHERE, now)
    library = {"classical_slice": _const(pipeline.classical_slice(now, rate, spec)),
               "density": _const(pipeline.density(field)),
               "exact_charges": _const(pipeline.noether_charges(field)),
               "exact_residual": _const(0.0)}
    stubs = [
        (cli, {"_load_state": _const(state)}),
        (orbits, {"orbit_from_state": _const(orbit), "analytic_solution": _const(state)}),
        (pipeline, library),
        (hamiltonian, {"vector_field": _const(rate)}),
    ]
    outs = [prefix + "_f.csv", prefix + "_rho.csv", prefix + "_report.json"]
    return argv, stubs, outs, {"grid_l": 6.0}


def output_case(rung: dict, _) -> Iterator[dict]:
    with tempfile.TemporaryDirectory() as outdir:
        argv, stubs, outs, desc = _output_setup(rung, outdir)
        op = _fresh(argv)
        with contextlib.ExitStack() as stack:
            for module, attrs in stubs:
                stack.enter_context(mock.patch.multiple(module, **attrs))
            first = timed(op)[0]
            best = best_mean(op)
            faults = faults_per_call(op, best["calls_per_run"])
        files = _files(outs)
    yield dict(desc, first_call_s=first, **best, faults_per_call=faults, files=files)


# digests: one case per (state, command), run in a fresh directory that
# holds the state as state.json; a state is its terms (a, b, amplitude) at K = 8.

DIGEST_STATES = {
    # excitations 0 and 2, at d = 1, 2 and 3
    "centered": [((0,), (0,), 0.6), ((1,), (1,), 0.48j), ((0,), (2,), 0.64)],
    "centered_d2": [((0, 0), (0, 0), 0.5), ((1, 0), (0, 1), 0.5j),
                    ((0, 0), (1, 1), 0.5), ((0, 1), (2, 1), 0.5j)],
    "centered_d3": [((0, 0, 0), (0, 0, 0), 0.5), ((1, 0, 0), (0, 0, 1), 0.5j),
                    ((0, 0, 0), (1, 0, 1), 0.5), ((0, 1, 0), (2, 0, 1), 0.5j)],
    "equilibrium": [((1,), (2,), 1.0)],
    # the d = 2 and d = 3, K = 8 equilibria of the spectrum layer
    "equilibrium_d2": [((1, 0), (0, 2), 1.0)],
    "equilibrium_d3": [((1, 0, 0), (0, 2, 0), 1.0)],
    "family": [((0,), (0,), 0.8), ((2,), (0,), 0.6)],
    "three": [((0,), (0,), 0.6), ((2,), (0,), 0.48j), ((0,), (2,), 0.64)],
    # nonzero first moments, so the fields gather the raising rows; the
    # second state is the first at norm 1.1, whose full field runs the pair branch
    "uncentered": [((0, 0), (0, 0), 0.8), ((1, 0), (0, 0), 0.36j), ((0, 0), (0, 1), 0.48)],
    "uncentered_big": [((0, 0), (0, 0), 0.88), ((1, 0), (0, 0), 0.396j),
                       ((0, 0), (0, 1), 0.528)],
    "uncentered_d1": [((0,), (0,), 0.6), ((2,), (0,), 0.7997499609j), ((1,), (0,), 0.02)],
}


def _both_ways(state: str, t_end: float, options: str) -> list[tuple[str, str]]:
    """The cases ``simulate --t-end=T options`` of ``state`` at T = t_end and -t_end."""
    return [(state, f"simulate --t-end={t} {options}") for t in (t_end, -t_end)]


DIGESTS = [
    *_both_ways("centered", 2 * math.pi, "--samples 65 --out sim.csv --report sim.json"),
    *_both_ways("centered_d2", 2 * math.pi, "--samples 65 --out sim.csv --report sim.json"),
    *_both_ways("centered_d3", math.pi / 8, "--samples 65 --out sim.csv --report sim.json"),
    *_both_ways("uncentered_d1", 0.4, "--out sim.csv --report sim.json"),
    ("centered", "simulate --t-end 6.283185307179586 --out small.csv --report small.json"),
    ("centered", "vector-field --kind full --json field.json"),
    ("centered_d3", "vector-field --kind full --json vf.json"),
    ("uncentered", "vector-field --kind chart --json vf.json"),
    ("uncentered", "vector-field --kind sphere --json vf.json"),
    ("uncentered_big", "vector-field --kind full --json vf.json"),
    ("equilibrium", "spectrum --json spectrum.json --csv spectrum.csv"),
    ("equilibrium", "spectrum --cutoff 10 --json spectrum.json --csv spectrum.csv"),
    ("equilibrium_d2", "spectrum --json spectrum.json --csv spectrum.csv"),
    ("equilibrium_d3", "spectrum --json spectrum.json --csv spectrum.csv"),
    ("family", "classify --json classify.json --rational-weights 0=16/25,-2=9/25"),
    ("three", "classify --json classify.json"),
    (None, "family --n 0 --m -2 --gamma-steps 3 --out family.json"),
    ("family", "energy --json energy.json"),
    ("family", "pipeline --t 0.5 --grid-n 64 --grid-l 6.0 --out-prefix pipe"),
    # the CLI default grid, whose f CSV takes several renderer calls
    ("family", "pipeline --t 0.5 --grid-n 256 --grid-l 8.0 --out-prefix pipe"),
]


def _check_format(path: str) -> None:
    """Raise ValueError unless the output file ``path`` is in its strict format."""
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    if path.endswith(".json"):
        bad = text != json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"
    else:
        cells = [c for line in text.splitlines()[1:] for c in line.split(",")]
        bad = not cells or any("%.17g" % float(c) != c for c in cells)
    if bad:
        raise ValueError(f"{path} is not in its strict format")


def digests_case(rung: dict, _) -> Iterator[dict]:
    argv, cwd = rung["command"].split(), os.getcwd()
    with tempfile.TemporaryDirectory() as outdir:
        os.chdir(outdir)
        try:
            if rung["state"] is not None:
                terms = [{"a": list(a), "b": list(b), "re": z.real, "im": z.imag}
                         for a, b, z in DIGEST_STATES[rung["state"]]]
                with open("state.json", "w", encoding="utf-8") as fh:
                    json.dump({"K": 8, "d": len(terms[0]["a"]), "terms": terms}, fh)
                argv[1:1] = ["--state", "state.json"]
            if cli.main(argv):
                raise RuntimeError(f"cli.main {argv[0]} returned nonzero")
            outputs = sorted(set(os.listdir()) - {"state.json"})
            yield {"files": _files(outputs)}
            for path in outputs:
                _check_format(path)
        finally:
            os.chdir(cwd)


class Layer(NamedTuple):
    ladder: list[dict]  # the rungs' parameters, which lead their records
    case: Callable[[dict, str | None], Iterator[dict]]  # figures as they are known
    constants: dict
    parts: tuple = (None,)  # the cases of one rung
    unpinned: bool = False  # one more run per case under the default allocator


LAYERS = {
    "fock": Layer(
        [{"K": 8, "d": 1}, {"K": 8, "d": 2}, {"K": 8, "d": 3}, {"K": 12, "d": 3}],
        fock_case, {}, tuple(FOCK_OPS),
    ),
    "integrate": Layer(
        [{"K": 8, "d": 1, "t_end": 2 * math.pi}, {"K": 8, "d": 2, "t_end": math.pi / 4},
         {"K": 8, "d": 3, "t_end": math.pi / 4}, {"K": 8, "d": 2, "t_end": -math.pi / 4}],
        integrate_case,
        {"seed": INTEGRATE_SEED, "tol": TOL, "samples": SAMPLES, "interior": INTERIOR},
        unpinned=True,
    ),
    "spectrum": Layer(EQUILIBRIA, spectrum_case, {}),
    "orbits": Layer(
        [{"K": 8, "d": 3, "indices": list(s), "adjacent": False}
         for s in ((0, -2), (1, -2), (-3, 0, 2), (-4, -2, 0, 2))]
        + [{"K": 8, "d": 3, "indices": [-1, 0, 2], "adjacent": True}],
        orbits_case, {"seed": ORBIT_SEED},
    ),
    "pipeline": Layer(
        [{"grid_n": n} for n in (128, 256)], pipeline_case,
        {"t": PIPELINE_T, "grid_l": PIPELINE_L}, tuple(PIPELINE_OPS), unpinned=True,
    ),
    "output": Layer(
        [{"output": "state_json", "d": d} for d in (1, 2, 3)]
        + [{"output": "spectrum_json", **EQUILIBRIA[i]} for i in (0, 2, 3)]
        + [{"output": "simulate_csv", "d": d} for d in (1, 2)]
        + [{"output": "f_csv", "grid_n": n} for n in (64, 128, 256, 512)],
        output_case, {"seed": OUTPUT_SEED, "samples": SAMPLES}, unpinned=True,
    ),
    "digests": Layer([{"state": s, "command": c} for s, c in DIGESTS], digests_case, {"K": 8}),
}


def child(layer: str, index: int, part: str | None, src: str | None = None) -> None:
    """Run one case, printing each figure dict as one JSON line when known;
    with ``src``, first check that the package was imported from there."""
    if src is not None and THIS_SRC != os.path.abspath(src):
        raise ImportError(f"harmonic_hartree imported from {THIS_SRC}, not from {src}")
    spec = LAYERS[layer]
    for figures in spec.case(spec.ladder[index], part):
        print(json.dumps(figures), flush=True)


def run_case(layer: str, index: int, part: str | None, src: str | None = None,
             pinned: bool = True) -> tuple[list[dict], str | None]:
    """Figures of one case run in its own process, and its failure if any.
    The child imports the package from ``src`` when given, else as this
    process was started; its allocator is pinned to MALLOC_TUNABLES unless
    ``pinned`` is false, when it runs with glibc's defaults."""
    tools = os.path.dirname(os.path.abspath(__file__))
    code = (f"import sys; sys.path.insert(0, {tools!r}); import bench; "
            f"bench.child({layer!r}, {index}, {part!r}, {src!r})")
    env = dict(os.environ)
    env.pop("GLIBC_TUNABLES", None)
    if pinned:
        env["GLIBC_TUNABLES"] = MALLOC_TUNABLES
    if src is not None:
        env["PYTHONPATH"] = src
    result = None
    try:
        out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                             text=True, timeout=TIMEOUT_S, env=env)
        stdout = out.stdout
        if out.returncode:
            lines = out.stderr.strip().splitlines()
            result = lines[-1] if lines else f"exit code {out.returncode}"
    except subprocess.TimeoutExpired as exc:
        stdout = exc.stdout or ""
        if isinstance(stdout, bytes):
            stdout = stdout.decode()
        result = f"did not finish in {TIMEOUT_S:g} s"
    return [json.loads(line) for line in stdout.splitlines()], result


def _merge(rung: dict, figures: list[dict]) -> None:
    for fig in figures:
        for key, value in fig.items():
            if isinstance(value, dict) and key in rung:
                rung[key].update(value)  # an op's entry
            else:
                rung[key] = value


def _timing(figures: list[dict]) -> tuple[str, float] | None:
    """The timed figure of one case: ``min_s``, or its op's ``us_per_call``."""
    for fig in figures:
        if "min_s" in fig:
            return "min_s", fig["min_s"]
        if "us_per_call" in fig:
            (name, value), = fig["us_per_call"].items()
            return f"us_per_call.{name}", value
    return None


def _quartiles(values: list[float]) -> dict:
    q1, median, q3 = np.percentile(values, [25, 50, 75]).tolist()
    return {"median": median, "q1": q1, "q3": q3, "pairs": values}


def _default_faults(name: str, index: int, part: str | None, src: str | None,
                    failures: list[str], label: str) -> dict:
    """``faults_per_call_default``: the ``faults_per_call`` of one run of
    the case under the default allocator, per op for a layer with parts
    (None when the run records none)."""
    figures, result = run_case(name, index, part, src, pinned=False)
    if result is not None:
        failures.append(f"{label}default allocator: {result}")
    faults = next((fig["faults_per_call"] for fig in figures if "faults_per_call" in fig), None)
    if faults is None and part is not None:
        faults = {part: None}
    return {"faults_per_call_default": faults}


def run_layer(name: str, against: str | None = None) -> dict:
    layer = LAYERS[name]
    rungs = []
    for index, params in enumerate(layer.ladder):
        rung, failures = dict(params), []
        for part in layer.parts:
            label = "" if part is None else f"{part}: "
            if against is None:
                figures, result = run_case(name, index, part)
                _merge(rung, figures)
                if result is not None:
                    failures.append(label + result)
                if layer.unpinned:
                    _merge(rung, [_default_faults(name, index, part, None, failures, label)])
                continue
            runs = {"this": [], "against": []}
            for _ in range(PAIRS):
                for tree, src in (("this", THIS_SRC), ("against", against)):
                    figures, result = run_case(name, index, part, src)
                    runs[tree].append(figures)
                    if result is not None:
                        failures.append(f"{label}{tree}: {result}")
                if _timing(runs["this"][0]) is None:
                    break  # nothing to pair: one run on each tree
            for tree, done in runs.items():
                _merge(rung.setdefault(tree, {}), done[0])
                if layer.unpinned:
                    _merge(rung[tree], [_default_faults(
                        name, index, part, THIS_SRC if tree == "this" else against,
                        failures, f"{label}{tree}: ")])
            if any(_timing(figures) is None for done in runs.values() for figures in done):
                continue  # a case without timing keeps its figures, and has no ratio
            timings = {}
            for tree, done in runs.items():
                key = _timing(done[0])[0]
                timings[tree] = [_timing(figures)[1] for figures in done]
                if key == "min_s":
                    rung[tree]["min_s"] = min(timings[tree])
                else:
                    rung[tree]["us_per_call"][key.split(".", 1)[1]] = min(timings[tree])
            rung.setdefault("ratio", {})[key] = _quartiles(
                [a / b for a, b in zip(timings["this"], timings["against"])])
        if failures:
            rung["result"] = "; ".join(failures)
        rungs.append(rung)
    return {"constants": layer.constants, "rungs": rungs}


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine()


def _tree(src: str) -> dict:
    """The git commit of the checkout holding ``src``, whether its files
    differ from that commit, and a sha256 that names the package's files
    also outside a checkout (a ``git archive`` copy): the digest of the
    ``sha256sum`` listing of ``harmonic_hartree/*.py`` in byte order of the
    names, so ``LC_ALL=C sha256sum *.py | sha256sum`` run in the package
    directory prints it."""
    def git(*args):
        out = subprocess.run(["git", "-C", src, *args], capture_output=True, text=True)
        return out.stdout.strip() if out.returncode == 0 else None

    package = os.path.join(src, "harmonic_hartree")
    listing = hashlib.sha256()
    for name in sorted(f for f in os.listdir(package) if f.endswith(".py")):
        with open(os.path.join(package, name), "rb") as fh:
            listing.update(f"{hashlib.sha256(fh.read()).hexdigest()}  {name}\n".encode())
    status = git("status", "--porcelain", "--untracked-files=no")
    return {"commit": git("rev-parse", "HEAD"),
            "modified": None if status is None else bool(status),
            "package_sha256": listing.hexdigest()}


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="bench.py", description=__doc__.splitlines()[0])
    parser.add_argument("--against", metavar="SRC",
                        help="another checkout's src directory to pair this tree with")
    parser.add_argument("layers", nargs="*", metavar="LAYER",
                        help=f"one of {', '.join(LAYERS)} (default: all)")
    args = parser.parse_args(argv)
    unknown = [name for name in args.layers if name not in LAYERS]
    if unknown:
        parser.error(f"unknown layer {unknown[0]!r}; choose from {', '.join(LAYERS)}")
    against = None if args.against is None else os.path.abspath(args.against)
    if against is not None and not os.path.isdir(os.path.join(against, "harmonic_hartree")):
        parser.error(f"--against {args.against}: no harmonic_hartree package there")
    layers = {name: run_layer(name, against) for name in args.layers or LAYERS}
    record = {
        "host": {"cpu": _cpu_model(), "cpus": os.cpu_count(), "glibc_tunables": MALLOC_TUNABLES},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": 1,
        "repeats": REPEATS,
        "max_calls_per_run": CALLS,
        "budget_s": BUDGET_S,
        "timeout_s": TIMEOUT_S,
    }
    if against is not None:
        record["pairs"] = PAIRS
        record["trees"] = {"this": _tree(THIS_SRC), "against": _tree(against)}
    print(json.dumps({**record, "layers": layers}, indent=1))
    failed = any("result" in rung for layer in layers.values() for rung in layer["rungs"])
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

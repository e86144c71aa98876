"""Spans around the public functions of every harmonic_hartree module.

Wrappers are installed by replacing module attributes.  Every call site in
the package resolves functions through module globals (``fock.to_array``,
or a bare name inside the defining module), so each call passes through a
wrapper without any change to the package.  A span records its function,
start and end (``perf_counter_ns``), the span that was open when it
started, and the op it belongs to (-1 for set-up).  Spans stay in memory
as flat arrays; ``layer_metrics`` derives the per-layer figures from them.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import time
from array import array

import numpy as np

MODULES = (
    "fock", "hamiltonian", "reduction", "equilibria",
    "orbits", "integrate", "pipeline", "cli",
)
SETUP_OP = -1

# units of the per-layer metrics; counts and times are totals over the
# run's prefix of ops, except the fock set-up layers, taken over set-up
UNITS = {
    "integrate.field_evals": "count",
    "integrate.evals_per_step": "count/step",
    "integrate.accepted_steps": "count",
    "integrate.rejected_steps": "count",
    "integrate.accept_ratio": "ratio",
    "integrate.field_s": "s",
    "integrate.field_us_per_eval": "us",
    "integrate.self_s_per_step": "s/step",
    "fock.operator_matrix_calls": "count",
    "fock.operator_matrix_s": "s",
    "fock.basis_s": "s",
    "fock.bridge_calls": "count",
    "fock.bridge_s": "s",
    "pipeline.synth_points": "count",
    "pipeline.synthesize_s": "s",
    "pipeline.rotate_s": "s",
    "pipeline.velocity_s": "s",
    "pipeline.density_s": "s",
    "pipeline.diagnostics_s": "s",
    "pipeline.slices": "count",
    "cli.self_s": "s",
    "cli.bytes_written": "bytes",
    "equilibria.assembly_s": "s",
    "equilibria.eig_s": "s",
    "equilibria.classify_s": "s",
    "hamiltonian.vector_field_calls": "count",
    "hamiltonian.vector_field_s": "s",
    "hamiltonian.energy_s": "s",
    "orbits.calls": "count",
    "orbits.s": "s",
    "reduction.calls": "count",
    "reduction.s": "s",
}


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.op = array("i")
        self.enabled = False
        self.current_op = SETUP_OP
        self._stack = [-1]
        # values read from what wrapped functions return, per op
        self.steps: dict[int, list[int]] = {}
        self.synth_points: dict[int, int] = {}

    def install(self) -> None:
        for short in MODULES:
            module = importlib.import_module(f"harmonic_hartree.{short}")
            for attr, obj in list(vars(module).items()):
                if (
                    not attr.startswith("_")
                    and callable(obj)
                    and not inspect.isclass(obj)
                    and getattr(obj, "__module__", None) == module.__name__
                ):
                    setattr(module, attr, self._wrap(obj, f"{short}.{attr}"))

    def _wrap(self, fn, qualname: str):
        nid = len(self.names)
        self.names.append(qualname)
        name, start, end, parent, op, stack = (
            self.name, self.start, self.end, self.parent, self.op, self._stack,
        )
        clock = time.perf_counter_ns
        on_return = {
            "integrate.integrate": self._record_steps,
            "pipeline.synthesize_position": self._record_synthesis,
        }.get(qualname)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            sid = len(start)
            name.append(nid)
            parent.append(stack[-1])
            op.append(self.current_op)
            end.append(0)
            stack.append(sid)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[sid] = clock()
                stack.pop()
            if on_return is not None:
                on_return(result)
            return result

        return wrapper

    def _record_steps(self, traj) -> None:
        acc = self.steps.setdefault(self.current_op, [0, 0])
        acc[0] += traj.accepted_steps
        acc[1] += traj.rejected_steps

    def _record_synthesis(self, field) -> None:
        op = self.current_op
        self.synth_points[op] = self.synth_points.get(op, 0) + field.values.size

    def dump(self, path) -> None:
        """Write every span as gzipped CSV, one row per span."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("span,name,start_ns,end_ns,parent,op\n")
            for sid in range(len(self.start)):
                fh.write(
                    f"{sid},{self.names[self.name[sid]]},{self.start[sid]},"
                    f"{self.end[sid]},{self.parent[sid]},{self.op[sid]}\n"
                )


def layer_metrics(tracer: Tracer, ops: range, bytes_written: int) -> dict[str, float]:
    """Per-layer totals over the ops in ``ops``; set-up layers over set-up.

    Self time of a span is its duration minus its direct children's; a
    layer's time counts only spans whose parent lies in another module, so
    nested calls inside one module are not counted twice.
    """
    names = np.array(tracer.names)
    nid = np.frombuffer(tracer.name, dtype=np.int32)
    dur = (np.frombuffer(tracer.end, dtype=np.int64)
           - np.frombuffer(tracer.start, dtype=np.int64)) * 1e-9
    parent = np.frombuffer(tracer.parent, dtype=np.int32)
    op = np.frombuffer(tracer.op, dtype=np.int32)
    qual = names[nid]
    module = np.array([q.split(".")[0] for q in tracer.names])[nid]
    has_parent = parent >= 0
    child_time = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
    self_time = dur - child_time
    parent_module = np.where(has_parent, module[np.maximum(parent, 0)], "")
    outer = parent_module != module
    in_ops = (op >= ops.start) & (op < ops.stop)
    in_setup = op == SETUP_OP

    def sel(*fns, window=in_ops):
        return window & np.isin(qual, fns)

    def total(mask) -> float:
        return float(dur[mask].sum())

    accepted = sum(tracer.steps.get(k, [0, 0])[0] for k in ops)
    rejected = sum(tracer.steps.get(k, [0, 0])[1] for k in ops)
    evals = int(sel("integrate.sphere_field").sum())
    field_s = total(sel("integrate.sphere_field"))
    integrate_self = float(self_time[sel("integrate.integrate")].sum())

    linearize = sel("equilibria.linearize")
    lin_children = np.isin(parent, np.flatnonzero(linearize)) & np.isin(
        qual, ["equilibria.spectrum", "equilibria.is_relative_equilibrium"]
    )

    def layer(short: str):
        mask = in_ops & (module == short) & outer
        return int(mask.sum()), total(mask)

    orbit_calls, orbit_s = layer("orbits")
    red_calls, red_s = layer("reduction")
    cli_mask = in_ops & (module == "cli")
    return {
        "integrate.field_evals": evals,
        "integrate.evals_per_step": evals / accepted if accepted else 0.0,
        "integrate.accepted_steps": accepted,
        "integrate.rejected_steps": rejected,
        "integrate.accept_ratio": accepted / (accepted + rejected) if accepted else 0.0,
        "integrate.field_s": field_s,
        "integrate.field_us_per_eval": 1e6 * field_s / evals if evals else 0.0,
        "integrate.self_s_per_step": integrate_self / accepted if accepted else 0.0,
        "fock.operator_matrix_calls": int(sel("fock.operator_matrix", window=in_setup).sum()),
        "fock.operator_matrix_s": total(sel("fock.operator_matrix", window=in_setup)),
        "fock.basis_s": total(sel("fock.basis", window=in_setup)),
        "fock.bridge_calls": int(sel("fock.to_array", "fock.from_array").sum()),
        "fock.bridge_s": total(sel("fock.to_array", "fock.from_array")),
        "pipeline.synth_points": sum(tracer.synth_points.get(k, 0) for k in ops),
        "pipeline.synthesize_s": total(sel("pipeline.synthesize_position")),
        "pipeline.rotate_s": total(sel("pipeline.tau_pullback")),
        "pipeline.velocity_s": total(
            sel("pipeline.inverse_velocity_fourier", "pipeline.velocity_fourier")
        ),
        "pipeline.density_s": total(sel("pipeline.density")),
        "pipeline.diagnostics_s": total(
            sel("pipeline.vlasov_residual", "pipeline.noether_charges")
        ),
        "pipeline.slices": int(sel("pipeline.state_to_classical").sum()),
        "cli.self_s": float(self_time[cli_mask].sum()),
        "cli.bytes_written": bytes_written,
        "equilibria.assembly_s": total(linearize) - total(lin_children),
        "equilibria.eig_s": total(sel("equilibria.spectrum")),
        "equilibria.classify_s": total(sel("equilibria.classify_spectrum")),
        "hamiltonian.vector_field_calls": int(sel("hamiltonian.vector_field").sum()),
        "hamiltonian.vector_field_s": total(sel("hamiltonian.vector_field")),
        "hamiltonian.energy_s": total(sel("hamiltonian.energy")),
        "orbits.calls": orbit_calls,
        "orbits.s": orbit_s,
        "reduction.calls": red_calls,
        "reduction.s": red_s,
    }

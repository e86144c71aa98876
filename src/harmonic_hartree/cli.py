"""Command-line surface: reproducible runs of the library, data out as
JSON reports and CSV tables.

Exit codes: 0 success, 1 domain errors (bad states, truncation, failed
preconditions), 2 usage errors.  Outputs are byte-identical across reruns
for identical inputs: iteration orders are fixed, CSV floats are printed
with 17 significant digits (``%.17g``), JSON floats as ``json`` prints
them, and no randomness is used.

``pipeline`` synthesizes one slice of the closed-form orbit at ``--t``
with its rate, the sphere field at that state, and reports the transport
residual and the pseudo-momentum from exact Hermite derivatives of it
(``pipeline.classical_slice``); the residual has no time step.

Every CSV (``simulate``, ``spectrum``, and the ``pipeline`` f grid and rho
table) goes through one block renderer (``_render.cells``), which writes
the bytes of the per-value ``%.17g`` format for whole arrays, a fixed block
of values at a time.  A table's nonzero values take the renderer and each
exact zero is written as ``0`` or ``-0`` directly (a ``simulate`` CSV of a
centered state, which keeps its support, is mostly zeros).  The f grid's
values are rendered straight into one row buffer, whose n axis labels are
formatted once by ``%`` and whose v labels are filled once.  A
``vector-field`` state JSON takes the same renderer in ``repr``'s form, the
shortest digits that read back: each term is a row of bytes from one
template, with its counts' digits looked up and its two floats' cells
copied in, and the pads of all rows are deleted in one pass.  The
``spectrum`` eigenvalue list (exact integers, which ``repr`` writes fast)
fills one text template by a single ``%`` call (``_fill``).  Every JSON is
the bytes of ``json.dumps(..., indent=2, sort_keys=True, allow_nan=False)``.
The tests compare every writer with the per-value formatters.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from fractions import Fraction
from typing import Sequence

import numpy as np

from . import _render, equilibria, fock, hamiltonian, integrate, orbits, pipeline
from .errors import IntegrationError, NotCenteredError, TruncationError
from .fock import Cutoff, FockVector

_MASS_TOL = 1e-6  # pipeline: the density tolerance of acceptance criterion 10
# family: 10^4 members take about 2 s and write 1.75 MB (45 MB peak RSS, one
# process on 2 cores); the cost is linear in the count
_MAX_GAMMA_STEPS = 10_000


def _load_state(path: str) -> FockVector:
    """The state in the JSON file ``path``; every failure to load it is a
    ValueError that names the file (an OSError names it already)."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            state = fock.from_json_dict(json.load(fh))
            fock._finite(state.cutoff, state.array)
            if not math.isfinite(state.norm_sq):  # norm_sq overflows to inf silently
                raise ValueError("state's squared norm overflows")
        except RecursionError:  # the decoder recurses once per nested array or object
            raise ValueError(f"{path}: malformed state (nested too deeply)") from None
        except (KeyError, TypeError, OverflowError) as exc:  # Overflow: float() of a huge int
            raise ValueError(f"{path}: malformed state ({type(exc).__name__}: {exc})") from None
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None
    return state


def _write_json(path: str, obj) -> None:
    text = json.dumps(obj, indent=2, sort_keys=True, allow_nan=False)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")


def _fill(items: list[str], sep: str, values: list) -> str:
    """Join the ``%``-templates ``items`` with ``sep`` and fill them with
    ``values`` in one ``%`` call.

    ``%d`` of a Python int and ``%r`` of a Python float print what ``json``
    prints, so a template in the indent=2, sort_keys layout renders the
    bytes of ``json.dumps``.  The values must be Python numbers (``%r`` of
    a numpy float prints ``np.float64(...)``).  As under
    ``json.dumps(..., allow_nan=False)``, a NaN or infinity raises
    ``ValueError``.
    """
    if not all(map(math.isfinite, values)):
        raise ValueError("Out of range float values are not JSON compliant")
    return sep.join(items) % tuple(values)


def _write_text(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


# values per renderer call: their cells are 128 KiB.  A pipeline command
# at n = 128 took a median 4.57-4.71 ms at 2048 values a call, 4.32-4.44
# ms at 4096 and 4.61-4.91 ms at 8192, whose temporaries pass glibc's
# default 128 KiB mmap threshold: minor faults per command 112-128,
# 178-194 and 655-751 (glibc defaults, 4 processes of 300 commands each,
# 2-core Xeon, numpy 2.4)
_BLOCK = 4096
_TABLE = 8192  # values per block of a CSV table: its cells are 256 KiB
# the first word of an exact zero's cell, by its sign bit: "0" or "-0"
_ZERO = np.frombuffer(b"0\0\0\0\0\0\0\0-0\0\0\0\0\0\0", dtype=np.uint64)


def _write_csv(path: str, header: Sequence[str], rows) -> None:
    """Write ``rows`` under ``header``, _TABLE values at a time: the nonzero
    values go through the renderer and each exact zero is written as "0" or
    "-0" from _ZERO."""
    table = np.asarray(rows, dtype=np.float64).reshape(-1, len(header))
    step = max(1, _TABLE // len(header))
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\n").encode())
        for i in range(0, len(table), step):
            flat = table[i : i + step].ravel()
            buf = bytearray(flat.size * _render.CELL)
            words = np.frombuffer(buf, dtype=np.uint64).reshape(flat.size, -1)
            words[:, 0] = _ZERO.take(np.signbit(flat).view(np.uint8))
            nz = np.flatnonzero(flat)
            for j in range(0, nz.size, _BLOCK):
                at = nz[j : j + _BLOCK]
                words[at] = _render.cells(flat[at]).view(np.uint64)
            lines = words.view(np.uint8).reshape(-1, len(header), _render.CELL)
            lines[:, :, -1] = ord(",")
            lines[:, -1, -1] = ord("\n")
            fh.write(buf.translate(None, b"\0"))


def _write_grid_csv(path: str, ax: np.ndarray, f: np.ndarray) -> None:
    """Row i * n + j of the CSV holds ax[i], ax[j], f[i, j].  The n axis
    labels are formatted once, padded to one width; the n^2 values of f are
    rendered a block of rows at a time straight into one row buffer, whose
    v labels are filled once."""
    n = ax.size
    labels = np.array([b"%.17g," % x for x in ax.tolist()])  # pads after each
    width = labels.dtype.itemsize
    labels = labels.view(np.uint8).reshape(n, width)
    step = min(n, max(1, _BLOCK // n))  # n is a power of two: step divides it
    buf = bytearray(step * n * (2 * width + _render.CELL))
    rows = np.frombuffer(buf, dtype=np.uint8).reshape(step, n, -1)
    rows[:, :, width : 2 * width] = labels
    # the f cells of the rows as words: strided, and unaligned for odd widths
    words = np.ndarray((step * n, _render.CELL // 8), dtype=np.uint64, buffer=buf,
                       offset=2 * width, strides=(rows.shape[2], 8))
    with open(path, "wb") as fh:
        fh.write(b"x,v,f\n")
        for i in range(0, n, step):
            rows[:, :, :width] = labels[i : i + step, None]
            _render.cells(f[i : i + step], out=words)
            rows[:, :, -1] = ord("\n")
            fh.write(buf.translate(None, b"\0"))


# ---------------------------------------------------------------------------
# JSON: the state JSON of ``vector-field``

def _state_json(v: FockVector) -> str:
    """The text ``_write_json`` writes for ``fock.to_json_dict(v)``, its
    terms rendered by ``_terms``."""
    cutoff = v.cutoff
    head = '{\n  "K": %d,\n  "d": %d,\n  "terms": ' % (cutoff.k, cutoff.d)
    nz = np.flatnonzero(v.array)
    if not nz.size:
        return head + "[]\n}\n"
    z = v.array[nz]
    if not np.isfinite(z).all():
        raise ValueError("Out of range float values are not JSON compliant")
    terms = _terms(cutoff, fock.counts(cutoff)[nz], z).decode()
    return "".join((head, "[\n", terms, "\n  ]\n}\n"))


def _terms(cutoff: Cutoff, counts: np.ndarray, z: np.ndarray) -> bytearray:
    """The terms of a state JSON, separated by ",\n": one row of bytes per
    term, from its template, its counts' digits looked up by count and the
    cells of its two floats in ``repr``'s form, with the pads of all rows
    deleted in one pass.  The cells come first, so the renderer's
    temporaries are freed before the rows exist, and the rows live in a
    bytearray, which is translated without a copy to bytes."""
    cells = _render.cells(np.column_stack((z.imag, z.real)), shortest=True)
    template, slots, starts, digits = _term_layout(cutoff)
    buf = bytearray(len(z) * template.size)
    rows = np.frombuffer(buf, dtype=np.uint8).reshape(len(z), template.size)
    rows[:] = template
    rows[-1, -2:] = 0  # the last term takes no separator
    rows[:, slots] = digits[counts]
    for j, col in enumerate(starts):
        rows[:, col : col + _render.CELL] = cells[j::2]
    return buf.translate(None, b"\0")


@functools.lru_cache(maxsize=None)
def _term_layout(cutoff: Cutoff) -> tuple[np.ndarray, np.ndarray, list[int], np.ndarray]:
    """A term of a state JSON and its separator ",\n" as a row of bytes
    with pads in the slots; the (2d, width) columns of the count slots; the
    first columns of the im and re cells; and the digits of each count
    0..K as a (K + 1, width) table, pads after them."""
    width = len(str(cutoff.k))
    cols = ",\n".join(["        " + "\1" * width] * cutoff.d)
    text = ('    {\n      "a": [\n%s\n      ],\n      "b": [\n%s\n      ],\n'
            '      "im": %s,\n      "re": %s\n    },\n'
            % (cols, cols, "\2" * _render.CELL, "\3" * _render.CELL))
    template = np.frombuffer(text.encode(), dtype=np.uint8).copy()
    slots = np.flatnonzero(template == 1).reshape(2 * cutoff.d, width)
    starts = [int(np.argmax(template == 2)), int(np.argmax(template == 3))]
    template[template <= 3] = 0
    digits = np.zeros((cutoff.k + 1, width), dtype=np.uint8)
    for c in range(cutoff.k + 1):
        digits[c, : len(str(c))] = np.frombuffer(str(c).encode(), dtype=np.uint8)
    return template, slots, starts, digits


@functools.lru_cache(maxsize=None)
def _simulate_header(cutoff: Cutoff) -> tuple[str, ...]:
    """The column names of a ``simulate`` CSV, built once per cutoff."""
    header = ["t"]
    for idx in fock.basis(cutoff):
        lab = idx.label()
        header += [f"re_{lab}", f"im_{lab}"]
    return (*header, "norm", "meanN", "energy")


def _cmd_simulate(args) -> int:
    state = _load_state(args.state)
    traj = integrate.integrate(state, args.t_end, tol=args.tol, samples=args.samples)
    header = _simulate_header(state.cutoff)

    # one table, the states copied straight into its columns: their
    # complex view interleaves re/im per coefficient
    table = np.empty((traj.times.size, len(header)))
    table[:, 0] = traj.times
    np.stack([st.array for st in traj.states], out=table[:, 1:-3].view(complex))
    table[:, -3] = traj.norm
    table[:, -2] = traj.mean_n
    table[:, -1] = traj.energy
    _write_csv(args.out, header, table)

    drift = integrate.conserved_drift(traj)
    _write_json(
        args.report,
        {
            "t_end": args.t_end,
            "tol": args.tol,
            "samples": int(args.samples),
            "norm_drift": drift.norm,
            "mean_excitation_drift": drift.mean_n,
            "energy_drift": drift.energy,
            "max_renormalization": traj.max_renormalization,
            "accepted_steps": traj.accepted_steps,
            "rejected_steps": traj.rejected_steps,
        },
    )
    return 0


def _cmd_spectrum(args) -> int:
    state = _load_state(args.state)
    cutoff = None if args.cutoff is None else Cutoff(k=args.cutoff, d=state.cutoff.d)
    report = equilibria.linearize(state, cutoff)
    # the small keys go through json, then the eigenvalue pairs are
    # rendered from one template into the "eigenvalues" slot
    text = json.dumps(
        {
            "eigenvalues": [],
            "perturbed_dim": report.perturbed_subspace_dim,
            "integer_ok": report.integer_spectrum_ok,
            "excitation": report.excitation,
        },
        indent=2, sort_keys=True, allow_nan=False,
    )
    pair = "    [\n      %r,\n      %r\n    ]"
    pairs = report.eigenvalues.view(np.float64).reshape(-1, 2)
    listed = "[]"
    if pairs.size:
        listed = "[\n" + _fill([pair] * len(pairs), ",\n", pairs.ravel().tolist()) + "\n  ]"
    slot = '"eigenvalues": []'
    _write_text(args.json, text.replace(slot, slot[:-2] + listed, 1) + "\n")
    _write_csv(args.csv, ["re", "im"], pairs)
    return 0


_MAX_WEIGHT_CHARS = 64  # Fraction's cost grows faster than an exponent in its text


def _parse_rational_weights(text: str) -> dict[int, Fraction]:
    out: dict[int, Fraction] = {}
    for item in text.split(","):
        key, _, val = item.partition("=")
        n = int(key.strip())
        if n in out:
            raise ValueError(f"rational weight for index {n} given twice")
        val = val.strip()
        if len(val) > _MAX_WEIGHT_CHARS or "e" in val.lower():
            raise ValueError(f"rational weight {val[:_MAX_WEIGHT_CHARS]!r} must be p/q or a "
                             f"decimal without exponent, of at most {_MAX_WEIGHT_CHARS} characters")
        try:
            out[n] = Fraction(val)
        except ZeroDivisionError:
            raise ValueError(f"rational weight {val!r} has a zero denominator") from None
    return out


def _cmd_classify(args) -> int:
    state = _load_state(args.state)
    indices = fock.excitations(state)
    result = {
        "indices": indices,
        "centered": True,
        "oscillation_index": None,
        "relative_period": None,
        "velocity": None,
        "classically_periodic": None,
        "classical_period": None,
    }
    try:
        orbit = orbits.orbit_from_state(state)
    except NotCenteredError:
        result["centered"] = False
        _write_json(args.json, result)
        return 0
    result["oscillation_index"] = orbit.oscillation_index
    if math.isfinite(orbit.relative_period):
        result["relative_period"] = orbit.relative_period
    result["velocity"] = orbit.velocity
    if args.rational_weights:
        weights = _parse_rational_weights(args.rational_weights)
        periodic, period = orbits.is_classically_periodic(orbit, weights)
        result["classically_periodic"] = periodic
        result["classical_period"] = period
    _write_json(args.json, result)
    return 0


def _cmd_pipeline(args) -> int:
    state = _load_state(args.state)
    orbit = orbits.orbit_from_state(state)
    spec = pipeline.GridSpec(n=args.grid_n, extent=args.grid_l)
    ax = spec.axis()

    # the slice's rate is the flow's vector field at the closed-form state,
    # so the residual tests the closed-form orbit against the dynamics
    now = orbits.analytic_solution(orbit, args.t)
    rate = hamiltonian.vector_field(hamiltonian.FieldKind.SPHERE, now)
    sl = pipeline.classical_slice(now, rate, spec)
    f_now, rho_now = pipeline.density(sl.field)
    mass, pseudo, momentum = pipeline.exact_charges(sl, f_now, rho_now)
    # the amplitude is exact at the grid points and of unit norm in the
    # continuum, so the (x, v) mass misses 1 only by the trapezoid rule's
    # error: the grid's step or extent does not resolve the state
    if not abs(mass - 1.0) <= _MASS_TOL:
        raise ValueError(
            f"(x, v) stage mass {mass:.6g} misses 1 by more than {_MASS_TOL:g}: "
            f"the grid n={spec.n}, L={spec.extent:g} does not resolve the state; "
            "use a larger --grid-l if the state reaches past -L or L, "
            "or a larger --grid-n if the step 2L/n is too coarse"
        )
    residual = pipeline.exact_residual(sl)

    _write_grid_csv(args.out_prefix + "_f.csv", ax, f_now)
    _write_csv(args.out_prefix + "_rho.csv", ["x", "rho"], np.column_stack([ax, rho_now]))
    _write_json(
        args.out_prefix + "_report.json",
        {
            "t": args.t,
            "grid_n": spec.n,
            "grid_l": spec.extent,
            "mass": mass,
            "pseudo_momentum": [pseudo.real, pseudo.imag],
            "momentum": momentum,
            "vlasov_residual": residual,
        },
    )
    return 0


def _minimal_eigenvector(cutoff: Cutoff, n: int) -> FockVector:
    if n >= 0:
        return fock.basis_vector(cutoff, (0,) * cutoff.d, (n,) + (0,) * (cutoff.d - 1))
    return fock.basis_vector(cutoff, (-n,) + (0,) * (cutoff.d - 1), (0,) * cutoff.d)


def _cmd_family(args) -> int:
    if args.gamma_steps < 1:
        raise ValueError(f"--gamma-steps must be >= 1, got {args.gamma_steps}")
    if args.gamma_steps > _MAX_GAMMA_STEPS:
        raise ValueError(
            f"--gamma-steps {args.gamma_steps} too large: at most {_MAX_GAMMA_STEPS} members"
        )
    cutoff = Cutoff(k=args.cutoff, d=1)
    v_n = _minimal_eigenvector(cutoff, args.n)
    v_m = _minimal_eigenvector(cutoff, args.m)
    gammas = [
        math.pi * j / (args.gamma_steps + 1) for j in range(1, args.gamma_steps + 1)
    ]
    members = []
    for gamma in gammas:
        state = orbits.interpolating_family(v_n, v_m, gamma)
        orbit = orbits.orbit_from_state(state)
        members.append(
            {
                "gamma": gamma,
                "relative_period": orbit.relative_period,
                "velocity": orbit.velocity,
                "mean_excitation": orbit.mean_n,
            }
        )
    periods = {m["relative_period"] for m in members}
    _write_json(
        args.out,
        {
            "n": args.n,
            "m": args.m,
            "cutoff": args.cutoff,
            "members": members,
            "shared_period": members[0]["relative_period"],
            "period_is_shared": len(periods) == 1,
        },
    )
    return 0


def _cmd_energy(args) -> int:
    state = _load_state(args.state)
    _write_json(args.json, {"energy": hamiltonian.energy(state)})
    return 0


def _cmd_vector_field(args) -> int:
    state = _load_state(args.state)
    kind = hamiltonian.FieldKind(args.kind)
    _write_text(args.json, _state_json(hamiltonian.vector_field(kind, state)))
    return 0


@functools.lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: ``parse_args`` returns a
    fresh namespace on every call and leaves the parser unchanged."""
    parser = argparse.ArgumentParser(
        prog="harmonic-hartree",
        description="Fock-basis dynamics of the harmonic Hartree system.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="integrate the sphere flow, export CSV")
    p.add_argument("--state", required=True)
    p.add_argument("--t-end", type=float, required=True)
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--samples", type=int, default=65)
    p.add_argument("--out", default="simulate.csv")
    p.add_argument("--report", default="simulate_report.json")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("spectrum", help="linearization spectrum at an equilibrium")
    p.add_argument("--state", required=True)
    p.add_argument("--cutoff", type=int, default=None)
    p.add_argument("--json", default="spectrum.json")
    p.add_argument("--csv", default="spectrum.csv")
    p.set_defaults(func=_cmd_spectrum)

    p = sub.add_parser("classify", help="centering, indices, period, velocity")
    p.add_argument("--state", required=True)
    p.add_argument("--json", default="classify.json")
    p.add_argument(
        "--rational-weights",
        default=None,
        help="exact squared component norms, e.g. '0=1/2,-2=1/2'",
    )
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("pipeline", help="classical density, charges, residual")
    p.add_argument("--state", required=True)
    p.add_argument("--t", type=float, default=0.0)
    p.add_argument("--grid-n", type=int, default=256)
    p.add_argument("--grid-l", type=float, default=8.0)
    p.add_argument("--out-prefix", default="pipeline")
    p.set_defaults(func=_cmd_pipeline)

    p = sub.add_parser("family", help="interpolating family between eigenvectors")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--gamma-steps", type=int, default=8)
    p.add_argument("--cutoff", type=int, default=8)
    p.add_argument("--out", default="family.json")
    p.set_defaults(func=_cmd_family)

    p = sub.add_parser("energy", help="energy of a unit state")
    p.add_argument("--state", required=True)
    p.add_argument("--json", default="energy.json")
    p.set_defaults(func=_cmd_energy)

    p = sub.add_parser("vector-field", help="Hamiltonian vector field as JSON")
    p.add_argument("--state", required=True)
    p.add_argument("--kind", choices=[k.value for k in hamiltonian.FieldKind],
                   default="sphere")
    p.add_argument("--json", default="vector_field.json")
    p.set_defaults(func=_cmd_vector_field)

    return parser


_DOMAIN_ERRORS = (IntegrationError, TruncationError, ValueError, OSError)


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except _DOMAIN_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

"""Command-line surface: reproducible runs of the library, data out as
JSON reports and CSV tables.

Exit codes: 0 success, 1 domain errors (bad states, truncation, failed
preconditions), 2 usage errors.  Outputs are byte-identical across reruns
for identical inputs: iteration orders are fixed, CSV floats are printed
with 17 significant digits (``%.17g``), JSON floats as ``json`` prints
them, and no randomness is used.

The large outputs (the ``vector-field`` state JSON, the ``spectrum``
eigenvalue list and the ``pipeline`` f grid) are rendered from one text
template per file filled by a single ``%`` call (``_fill``).  Their bytes
are those of ``json.dumps(..., indent=2, sort_keys=True, allow_nan=False)``
and of the per-value ``%.17g`` format; the tests compare them.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from fractions import Fraction

import numpy as np

from . import equilibria, fock, hamiltonian, integrate, orbits, pipeline
from .errors import (
    BasisMismatchError,
    IntegrationError,
    NormalizationError,
    NotCenteredError,
    TruncationError,
)
from .fock import Cutoff, FockVector

_FMT = "%.17g"
_MASS_TOL = 1e-6  # pipeline: the density tolerance of acceptance criterion 10


def _load_state(path: str) -> FockVector:
    with open(path, "r", encoding="utf-8") as fh:
        obj = json.load(fh)
    try:
        state = fock.from_json_dict(obj)
    except (KeyError, TypeError, OverflowError) as exc:  # Overflow: float() of a huge int
        raise ValueError(f"{path}: malformed state ({type(exc).__name__}: {exc})") from None
    if not np.isfinite(state.array).all():
        raise ValueError(f"{path}: state has a non-finite coefficient")
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


def _state_json(v: FockVector) -> str:
    """The text ``_write_json`` writes for ``fock.to_json_dict(v)``."""
    d = v.cutoff.d
    counts = ",\n".join(["        %d"] * d)
    term = (
        '    {\n      "a": [\n%s\n      ],\n      "b": [\n%s\n      ],\n'
        '      "im": %%r,\n      "re": %%r\n    }' % (counts, counts)
    )
    nz = np.flatnonzero(v.array)
    # one float row per term: the counts (which %d prints as integers), im, re
    rows = np.column_stack((fock.counts(v.cutoff)[nz], v.array[nz].imag, v.array[nz].real))
    listed = "[]"
    if nz.size:
        listed = "[\n" + _fill([term] * nz.size, ",\n", rows.ravel().tolist()) + "\n  ]"
    return '{\n  "K": %d,\n  "d": %d,\n  "terms": %s\n}\n' % (v.cutoff.k, d, listed)


def _write_csv(path: str, header: list[str], rows) -> None:
    line = ",".join([_FMT] * len(header)) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(line % tuple(row))


def _cmd_simulate(args) -> int:
    state = _load_state(args.state)
    traj = integrate.integrate(state, args.t_end, tol=args.tol, samples=args.samples)
    labels = [idx.label() for idx in fock.basis(state.cutoff)]
    header = ["t"]
    for lab in labels:
        header += [f"re_{lab}", f"im_{lab}"]
    header += ["norm", "meanN", "energy"]

    # a float64 view of the complex states interleaves re/im per coefficient
    states = np.array([st.array for st in traj.states])
    table = np.column_stack([
        traj.times,
        states.view(np.float64),
        traj.conserved.norm,
        traj.conserved.mean_n,
        traj.conserved.energy,
    ])
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
    report = equilibria.classify_spectrum(equilibria.linearize(state, cutoff))
    eigen = [[z.real, z.imag] for z in report.eigenvalues]
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
    values = [x for z in report.eigenvalues for x in (z.real, z.imag)]
    listed = "[]"
    if eigen:
        listed = "[\n" + _fill([pair] * len(eigen), ",\n", values) + "\n  ]"
    slot = '"eigenvalues": []'
    _write_text(args.json, text.replace(slot, slot[:-2] + listed, 1) + "\n")
    _write_csv(args.csv, ["re", "im"], eigen)
    return 0


def _parse_rational_weights(text: str) -> dict[int, Fraction]:
    out: dict[int, Fraction] = {}
    for item in text.split(","):
        key, _, val = item.partition("=")
        n = int(key.strip())
        if n in out:
            raise ValueError(f"rational weight for index {n} given twice")
        try:
            out[n] = Fraction(val.strip())
        except ZeroDivisionError:
            raise ValueError(f"rational weight {val.strip()!r} has a zero denominator") from None
    return out


def _cmd_classify(args) -> int:
    state = _load_state(args.state)
    indices = sorted(fock.component_split(state))
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
    result["oscillation_index"] = orbit.base.oscillation_index
    if math.isfinite(orbit.relative_period):
        result["relative_period"] = orbit.relative_period
    result["velocity"] = orbits.orbit_velocity(state)
    if args.rational_weights:
        weights = _parse_rational_weights(args.rational_weights)
        periodic, period = orbits.is_classically_periodic(orbit, weights)
        result["classically_periodic"] = periodic
        result["classical_period"] = period
    _write_json(args.json, result)
    return 0


def _cmd_pipeline(args) -> int:
    dt = args.residual_dt
    if not 0 < dt < math.inf:
        raise ValueError(f"--residual-dt must be finite and positive, got {dt}")
    state = _load_state(args.state)
    orbit = orbits.orbit_from_state(state)
    spec = pipeline.GridSpec(n=args.grid_n, extent=args.grid_l)
    ax = spec.axis()

    def field_at(t: float):
        return pipeline.state_to_classical(orbits.analytic_solution(orbit, t), spec)

    field_now = field_at(args.t)
    f_now, rho_now = pipeline.density(field_now)
    mass, pseudo, momentum = pipeline.noether_charges(field_now)
    # every stage is an isometry in the continuum; on the grid the (x, v)
    # mass also carries the velocity quadrature's aliasing, and it bounds
    # the (x, xi) stage's error in every measured case
    if not abs(mass - 1.0) <= _MASS_TOL:
        raise ValueError(
            f"(x, v) stage mass {mass:.6g} misses 1 by more than {_MASS_TOL:g}: "
            f"the grid n={spec.n}, L={spec.extent:g} does not resolve the state; "
            "use a larger --grid-n or a smaller --grid-l"
        )

    f_series = [
        pipeline.density(field_at(args.t - dt))[0],
        f_now,
        pipeline.density(field_at(args.t + dt))[0],
    ]
    residual = pipeline.vlasov_residual(f_series, dt, spec)

    # row i * n + j holds (ax[i], ax[j], f[i, j]); each axis value is
    # formatted once and the n^2 rows are filled in one %
    coords = [_FMT % x for x in ax.tolist()]
    tails = ["," + c + "," + _FMT + "\n" for c in coords]
    blocks = [c + c.join(tails) for c in coords]
    _write_text(args.out_prefix + "_f.csv",
                "x,v,f\n" + _fill(blocks, "", f_now.ravel().tolist()))
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
            "residual_dt": dt,
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
                "velocity": orbits.orbit_velocity(state),
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
    p.add_argument("--residual-dt", type=float, default=1e-3)
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


_DOMAIN_ERRORS = (
    BasisMismatchError,
    IntegrationError,
    NormalizationError,
    NotCenteredError,
    TruncationError,
    ValueError,
    OSError,
    json.JSONDecodeError,
)


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except _DOMAIN_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

"""Command-line surface: reproducible runs of the library, data out as
JSON reports and CSV tables.

Exit codes: 0 success, 1 domain errors (bad states, truncation, failed
preconditions), 2 usage errors.  Outputs are byte-identical across reruns
for identical inputs: iteration orders are fixed, CSV floats are printed
with 17 significant digits (``%.17g``), JSON floats as ``json`` prints
them, and no randomness is used.

Every CSV (``simulate``, ``spectrum``, and the ``pipeline`` f grid and rho
table) goes through one block renderer (``_cells``), which writes the bytes
of the per-value ``%.17g`` format for whole arrays, a fixed block of values
at a time.  In a table whose values are mostly exact zeros (a ``simulate``
CSV of a centered state, which keeps its support), the zeros skip that
digit pipeline: each is written as ``0`` or ``-0`` directly, and the bytes
are unchanged.  The large JSON outputs (the ``vector-field`` state JSON
and the ``spectrum`` eigenvalue list) are rendered from one text template
per file filled by a single ``%`` call (``_fill``); their bytes are those
of ``json.dumps(..., indent=2, sort_keys=True, allow_nan=False)``.  The
tests compare both with the per-value formatters.
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


# ---------------------------------------------------------------------------
# CSV: the bytes of "%.17g" % float(v) for whole float64 arrays
#
# A finite nonzero |v| = m 2^e (m in [0.5, 1)) has the 17 significant
# digits D = round(|v| 10^(16 - x10)), 10^16 <= D < 10^17, where x10 is its
# decimal exponent.  The product m 2^e 10^k is formed as a double-double
# (Dekker) from 10^k = (hi + lo) 2^s, with hi and lo correctly rounded from
# Python integers; its error is below 1e-14 in units of D.  A value whose
# scaled magnitude lies within _GUARD of a rounding tie or of a point where
# the rounded exponent changes, and NaN and the infinities, are written by
# "%.17g" itself, so every byte matches the per-value format.
#
# Each value is laid out in a cell of _CELL bytes, six 8-byte words in
# which 0 is a pad byte: word 0 holds the sign, the "0.000" lead-in of
# 1e-4 <= |v| < 1, the first digit and the slot after it; words 1-4 hold
# the other 16 digits in even slots with a '.'-or-pad slot after each;
# word 5 holds the exponent and, last, the separator.  Trailing zeros are
# pads.  The cells are written a block at a time with the pads deleted.

_CELL = 48
_BLOCK = 2048  # values per block: the cells of one block are 96 KiB
_SPARSE = 4 * _BLOCK  # values per block of a sparse table: its tokens are 64 KiB
_GUARD = 2.0**-20


def _words(table) -> np.ndarray:
    """Rows of 8 bytes as one uint64 each, for whole-word gathers."""
    return np.ascontiguousarray(table, dtype=np.uint8).view(np.uint64).ravel()


# by decimal exponent x10 + _X0 (finite doubles have -324 <= x10 <= 308)
_X0 = 330
_X10 = np.arange(-_X0, _X0 + 1)
_FIXED = (_X10 >= -4) & (_X10 < 17)  # "%g" writes these without an exponent
_POINT = np.where(_FIXED & (_X10 >= 0), _X10, 0)  # the '.' follows digit _POINT
_LEAD = np.where(_FIXED & (_X10 < 0), -_X10, 0)  # lead-in "0." and _LEAD - 1 zeros
_DOT0 = _POINT + _LEAD == 0  # the '.' follows the first digit: in word 0
_TAIL = np.zeros((_X10.size, 8), dtype=np.uint8)
_TAIL[:, 0] = ord("e")
_TAIL[:, 1] = np.where(_X10 < 0, ord("-"), ord("+"))
_TAIL[:, 2] = np.where(abs(_X10) >= 100, 48 + abs(_X10) // 100, 0)
_TAIL[:, 3] = 48 + abs(_X10) // 10 % 10
_TAIL[:, 4] = 48 + abs(_X10) % 10
_TAIL[_FIXED] = 0
_TAIL = _words(_TAIL)

# word 0 by 100 sign + 20 lead + 2 first digit + dot
_H = np.arange(200)
_HEAD = np.zeros((200, 8), dtype=np.uint8)
_HEAD[:, 0] = np.where(_H >= 100, ord("-"), 0)
_HEAD[:, 1:6] = np.frombuffer(
    b"\0\0\0\0\0" b"0.\0\0\0" b"0.0\0\0" b"0.00\0" b"0.000", dtype=np.uint8
).reshape(5, 5)[_H // 20 % 5]
_HEAD[:, 6] = 48 + _H // 2 % 10
_HEAD[:, 7] = np.where(_H % 2, ord("."), 0)
_HEAD = _words(_HEAD)

# a quad is four digits q = 0..9999, in the even slots of one word; quad g
# (0..3) holds digits 4g + 1 .. 4g + 4 of the 17
_QDIGITS = np.indices((10,) * 4, dtype=np.uint8).reshape(4, -1).T
_QUADS = np.zeros((10000, 8), dtype=np.uint8)
_QUADS[:, ::2] = 48 + _QDIGITS
_QUADS = _words(_QUADS)
_QMASK = _words(np.where(np.arange(8) < 2 * np.arange(5)[:, None], 255, 0))  # keep k digits
_QKEEP = np.clip(np.arange(17) - 4 * np.arange(4)[:, None], 0, 4)  # [g, last kept digit]
_QPOS = np.max((_QDIGITS > 0) * np.arange(1, 5, dtype=np.int8), axis=1)  # 0 for q = 0
_QLAST = np.where(_QPOS > 0, _QPOS + 4 * np.arange(4, dtype=np.int8)[:, None], 0).astype(np.int8)
_QBASE = 10000 * np.arange(4)[:, None]

# 10^k = (hi + lo) 2^s with 0.5 <= hi <= 1, row k + _K0; each row is filled
# when a value first needs it and is a pure function of k
_K0 = 300
_POW_HI = np.full(2 * _K0 + 50, np.nan)
_POW_LO = np.zeros_like(_POW_HI)
_POW_EXP = np.zeros(_POW_HI.size, dtype=np.int64)


def _fill_pow(k: int) -> None:
    s = (10**k).bit_length() if k >= 0 else 1 - (10**-k).bit_length()
    num = 10 ** max(k, 0) << max(-s, 0)
    den = 10 ** max(-k, 0) << max(s, 0)
    hi = num / den  # int / int is correctly rounded
    hn, hd = hi.as_integer_ratio()
    _POW_HI[k + _K0] = hi
    _POW_LO[k + _K0] = (num * hd - hn * den) / (den * hd)
    _POW_EXP[k + _K0] = s


def _split(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    c = 134217729.0 * a  # 2^27 + 1
    hi = c - (c - a)
    return hi, a - hi


def _scaled(m: np.ndarray, e: np.ndarray, x10: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """m 2^e 10^(16 - x10) as an integer-valued float64 and a small remainder."""
    row = 16 - x10 + _K0
    hi = _POW_HI[row]
    if np.isnan(hi).any():
        for k in np.unique(row[np.isnan(hi)] - _K0).tolist():
            _fill_pow(k)
        hi = _POW_HI[row]
    p = m * hi
    mh, ml = _split(m)
    hh, hl = _split(hi)
    err = ((mh * hh - p) + mh * hl + ml * hh) + ml * hl + m * _POW_LO[row]
    shift = e + _POW_EXP[row]
    return np.ldexp(p, shift), np.ldexp(err, shift)


def _digits(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """D, x10 and whether D is certain, for finite a > 0."""
    m, e = np.frexp(a)
    x10 = np.floor(np.log10(a)).astype(np.int64)  # may be off by one
    big, rem = _scaled(m, e, x10)
    # x10 is right when the scaled value rounds into [10^16, 10^17); just
    # below 10^16 it rounds to 10^16 at either exponent
    low = (big - 1e16) + rem + 0.05
    high = (big - 1e17) + rem + 0.5
    fix = np.flatnonzero((low < 0) | (high >= 0))
    if fix.size:
        x10[fix] += np.where(low[fix] < 0, -1, 1)
        big[fix], rem[fix] = _scaled(m[fix], e[fix], x10[fix])
        low[fix] = (big[fix] - 1e16) + rem[fix] + 0.05
        high[fix] = (big[fix] - 1e17) + rem[fix] + 0.5
    near = np.floor(rem + 0.5)
    ok = (low >= _GUARD) & (high <= -_GUARD) & (np.abs(rem - near) < 0.5 - _GUARD)
    return big.astype(np.int64) + near.astype(np.int64), x10, ok


def _cells(values) -> np.ndarray:
    """The (N, _CELL) uint8 cells of the N values, separators still pads."""
    v = np.asarray(values, dtype=np.float64).ravel()
    a = np.abs(v)
    plain = np.isfinite(a) & (a > 0)
    d, x10, ok = _digits(np.where(plain, a, 1.0))
    ok &= plain
    d[~ok] = 0  # zero is "0" (or "-0"); the other cells not ok are rewritten below
    x10[~ok] = 0
    ok |= a == 0
    hi8, lo8 = np.divmod(d, 10**8)
    first, rest = np.divmod(hi8, 10**8)
    q = np.empty((4, v.size), dtype=np.int64)
    np.divmod(rest, 10**4, out=(q[0], q[1]))
    np.divmod(lo8, 10**4, out=(q[2], q[3]))
    row = x10 + _X0
    point = _POINT[row]
    keep = np.maximum(np.take(_QLAST, q + _QBASE).max(axis=0), point)  # last digit kept
    words = np.empty((v.size, _CELL // 8), dtype=np.uint64)
    words[:, 0] = _HEAD[100 * np.signbit(v) + 20 * _LEAD[row] + 2 * first
                        + ((keep > 0) & _DOT0[row])]
    quads = np.take(_QUADS, q) & np.take(_QMASK, np.take(_QKEEP, keep, axis=1))
    for g in range(4):
        words[:, 1 + g] = quads[g]
    words[:, 5] = _TAIL[row]
    cells = words.view(np.uint8)
    dots = np.flatnonzero((keep > point) & (point > 0))
    cells[dots, 7 + 2 * point[dots]] = ord(".")
    for i in np.flatnonzero(~ok).tolist():
        text = (_FMT % v[i]).encode()
        cells[i] = 0
        cells[i, : len(text)] = np.frombuffer(text, dtype=np.uint8)
    return cells


def _write_cells(fh, cells: np.ndarray) -> None:
    fh.write(cells.tobytes().translate(None, b"\0"))


def _sparse_rows(table: np.ndarray) -> bytes:
    """The CSV rows of ``table`` built around its exact zeros: only the
    nonzero values go through ``_cells``, a block at a time, and every
    zero is written as "0" or "-0" with its separator."""
    cols = table.shape[1]
    flat = table.ravel()
    nz = np.flatnonzero(flat)
    pieces = []
    for i in range(0, nz.size, _BLOCK):
        at = nz[i : i + _BLOCK]
        cells = _cells(flat[at])
        # each text ends in its separator and a 1 byte, in the two slots
        # before the end that a cell never fills, so the translated bytes
        # split into the values' pieces
        cells[:, -2] = np.where(at % cols == cols - 1, ord("\n"), ord(","))
        cells[:, -1] = 1
        pieces += cells.tobytes().translate(None, b"\0").split(b"\1")[:-1]
    tokens = np.empty(table.shape, dtype=object)
    tokens[:, :-1] = b"0,"
    tokens[:, -1] = b"0\n"
    negative = np.signbit(table) & (table == 0)
    if negative.any():
        tokens[:, :-1][negative[:, :-1]] = b"-0,"
        tokens[:, -1][negative[:, -1]] = b"-0\n"
    tokens.ravel()[nz] = pieces
    return b"".join(tokens.ravel().tolist())


def _write_csv(path: str, header: Sequence[str], rows) -> None:
    """Write ``rows`` under ``header``.  A table with fewer nonzero values
    than zeros (a centered state's coefficients keep their support)
    takes ``_sparse_rows``, _SPARSE values at a time; the bytes are the
    same on either path."""
    table = np.asarray(rows, dtype=np.float64).reshape(-1, len(header))
    sparse = 2 * np.count_nonzero(table) < table.size
    step = max(1, (_SPARSE if sparse else _BLOCK) // len(header))
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\n").encode())
        for i in range(0, len(table), step):
            if sparse:
                fh.write(_sparse_rows(table[i : i + step]))
                continue
            cells = _cells(table[i : i + step]).reshape(-1, len(header), _CELL)
            cells[:, :, -1] = ord(",")
            cells[:, -1, -1] = ord("\n")
            _write_cells(fh, cells)


def _write_grid_csv(path: str, ax: np.ndarray, f: np.ndarray) -> None:
    """Row i * n + j of the CSV holds ax[i], ax[j], f[i, j]: the n axis
    values are rendered once, the n^2 values of f one block of rows at a
    time."""
    n = ax.size
    labels = _cells(ax)
    labels[:, -1] = ord(",")
    # each label's bytes to its front (a stable sort of the pad flags)
    labels = np.take_along_axis(labels, np.argsort(labels == 0, axis=1, kind="stable"), axis=1)
    width = np.count_nonzero(labels, axis=1).max()
    labels = labels[:, :width]
    step = max(1, _BLOCK // n)
    with open(path, "wb") as fh:
        fh.write(b"x,v,f\n")
        for i in range(0, n, step):
            block = f[i : i + step]
            cells = np.empty((len(block), n, 2 * width + _CELL), dtype=np.uint8)
            cells[:, :, :width] = labels[i : i + step, None]
            cells[:, :, width : 2 * width] = labels
            cells[:, :, 2 * width :] = _cells(block).reshape(len(block), n, _CELL)
            cells[:, :, -1] = ord("\n")
            _write_cells(fh, cells)


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
    if values:
        listed = "[\n" + _fill([pair] * (len(values) // 2), ",\n", values) + "\n  ]"
    slot = '"eigenvalues": []'
    _write_text(args.json, text.replace(slot, slot[:-2] + listed, 1) + "\n")
    _write_csv(args.csv, ["re", "im"], np.reshape(values, (-1, 2)))
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
    # the amplitude is exact at the grid points and of unit norm in the
    # continuum, so the (x, v) mass misses 1 only by the trapezoid rule's
    # error: the grid's step or extent does not resolve the state
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

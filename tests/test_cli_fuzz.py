"""Property test of the whole command line: every command, on state files
that mix valid unit states with malformed JSON, ends as a success with a
silent stderr, a one-line ``error:`` (exit 1) or a usage error (exit 2),
and raises no warning."""

import contextlib
import io
import json
import math
import os
import tempfile
import warnings

from hypothesis import HealthCheck, given, settings, strategies as st

from harmonic_hartree import cli

# option values per command: in-range and out-of-range numbers, text that
# is no number, and magnitudes that keep one run short
_FLOATS = st.sampled_from(["0", "0.3", "-0.3", "1e-14", "-1e9", "1e308", "nan", "inf", "x"])
_OPTIONS = {
    "simulate": [
        ("--t-end", st.one_of(_FLOATS, st.floats(-1.0, 1.0).map(repr))),
        ("--tol", st.sampled_from(["1e-10", "1e-8", "1e-6", "1e-3", "0", "nan"])),
        ("--samples", st.integers(-3, 40).map(lambda i: "1.5" if i == -3 else str(i))),
    ],
    "spectrum": [("--cutoff", st.integers(-1, 8).map(str))],
    "classify": [
        ("--rational-weights", st.one_of(
            st.sampled_from(["0=1/2,-2=1/2", "0=1", "0=16/25,-2=9/25", "0=1/0", "=", "0=1e9999"]),
            st.text(max_size=12))),
    ],
    "pipeline": [
        ("--t", _FLOATS),
        ("--grid-n", st.sampled_from(["16", "32", "64", "0", "-4", "x"])),
        ("--grid-l", st.sampled_from(["6.0", "0", "-1", "nan", "1e308"])),
    ],
    "family": [
        ("--n", st.integers(-4, 4).map(str)),
        ("--m", st.integers(-4, 4).map(str)),
        ("--gamma-steps", st.integers(-1, 4).map(str)),
        ("--cutoff", st.integers(-1, 8).map(str)),
    ],
    "energy": [],
    "vector-field": [("--kind", st.sampled_from(["full", "sphere", "chart", "bogus"]))],
}
# the output options, inside the example's directory
_OUTPUTS = {
    "simulate": ["--out", "sim.csv", "--report", "sim.json"],
    "spectrum": ["--json", "spectrum.json", "--csv", "spectrum.csv"],
    "classify": ["--json", "classify.json"],
    "pipeline": ["--out-prefix", "pipe"],
    "family": ["--out", "family.json"],
    "energy": ["--json", "energy.json"],
    "vector-field": ["--json", "vf.json"],
}


@st.composite
def _unit_states(draw):
    """A unit state of at most four terms at d = 1 or 2 and K <= 6: the
    amplitudes of its JSON object sum to norm one."""
    d, k = draw(st.integers(1, 2)), draw(st.integers(1, 6))
    count = st.integers(0, k)
    terms = []
    for _ in range(draw(st.integers(1, 4))):
        a, b = draw(st.lists(count, min_size=d, max_size=d)), draw(st.lists(count, min_size=d, max_size=d))
        if sum(a) + sum(b) <= k:
            terms.append({"a": a, "b": b, "re": draw(st.floats(-1.0, 1.0)),
                          "im": draw(st.floats(-1.0, 1.0))})
    norm = math.sqrt(sum(t["re"] ** 2 + t["im"] ** 2 for t in terms))
    if norm < 1e-3:
        terms = [{"a": [0] * d, "b": [0] * d, "re": 1.0, "im": 0.0}]
    else:
        for t in terms:
            t["re"], t["im"] = t["re"] / norm, t["im"] / norm
    return json.dumps({"K": k, "d": d, "terms": terms})


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=8,
)


@st.composite
def _mutated_states(draw):
    """A unit state's JSON object with one field, or one field of its
    first term, replaced by any JSON value or deleted."""
    obj = json.loads(draw(_unit_states()))
    target = obj if draw(st.booleans()) else obj["terms"][0]
    key = draw(st.sampled_from(sorted(target)))
    if draw(st.booleans()):
        del target[key]
    else:
        target[key] = draw(_JSON)
    return json.dumps(obj)


# centered unit states, which every command takes: the pipeline, the
# orbit and the spectrum commands have work to do on them
_CENTERED = [
    {"K": 6, "d": 1, "terms": [{"a": [0], "b": [0], "re": 1.0, "im": 0.0}]},
    {"K": 6, "d": 1, "terms": [{"a": [0], "b": [0], "re": 0.6, "im": 0.0},
                               {"a": [2], "b": [0], "re": 0.0, "im": 0.8}]},
    {"K": 6, "d": 1, "terms": [{"a": [1], "b": [1], "re": 0.6, "im": 0.0},
                               {"a": [0], "b": [2], "re": 0.48, "im": 0.64}]},
    {"K": 5, "d": 2, "terms": [{"a": [1, 0], "b": [0, 1], "re": 1.0, "im": 0.0}]},
]

_STATE_FILES = st.one_of(
    st.sampled_from(_CENTERED).map(json.dumps),
    _unit_states(),
    _mutated_states(),
    _JSON.map(json.dumps),
    st.text(max_size=40),
    st.binary(max_size=20),  # not always UTF-8
    _unit_states().map(lambda text: text[: len(text) // 2]),  # cut short
)


@st.composite
def _runs(draw):
    command = draw(st.sampled_from(sorted(_OPTIONS)))
    argv = [command]
    for flag, values in _OPTIONS[command]:
        if draw(st.integers(0, 5)):  # now and then left out: a default, or a usage error
            argv += [flag, draw(values)]
    if command != "family" and draw(st.integers(0, 15)):
        argv += ["--state", "state.json"]
    return argv + _OUTPUTS[command], draw(_STATE_FILES)


@settings(max_examples=80, deadline=5000, suppress_health_check=[HealthCheck.too_slow])
@given(_runs())
def test_every_command_ends_in_one_of_three_ways(run):
    argv, state = run
    err = io.StringIO()
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as outdir:
        os.chdir(outdir)
        try:
            with open("state.json", "wb") as fh:
                fh.write(state if isinstance(state, bytes) else state.encode("utf-8", "surrogatepass"))
            with warnings.catch_warnings(record=True) as caught, \
                    contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
                warnings.simplefilter("always")
                try:
                    code = cli.main(argv)
                except SystemExit as exc:
                    code = exc.code
        finally:
            os.chdir(cwd)
    assert not caught, [str(w.message) for w in caught]
    assert code in (0, 1, 2), code
    text = err.getvalue()
    if code == 0:
        assert text == ""
    elif code == 1:
        assert text.startswith("error: ") and text.count("\n") == 1, text

"""Property tests over generated argv for every ``yy`` subcommand, and of the report encoder.

Flag values come from three pools: valid ranges with small work sizes,
boundary values (0, negatives, NaN, infinities, 1e300, one above each cap),
and malformed ``--samples`` or ``--config`` files.  Whatever the argv, ``run``
returns 0, 1 or 2 without raising; exit 2 leaves stdout empty and puts a
message starting with ``error:`` on stderr; reports are strict JSON and every
SVG written parses as XML.  The report encoder writes what
``json.dumps(doc, indent=2, allow_nan=False)`` writes, byte for byte, on
generated documents, report-shaped ones whose profile values it splices in
among them, and refuses NaN and the infinities with its message.
"""

import json
import math
import tempfile
import warnings
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from yinyang.cli import _dumps, run
from yinyang.curves import FAMILIES, MAX_TURNS
from yinyang.geometry import MAX_PARTS
from yinyang.render import RENDER_PRESETS
from yinyang.verify import MAX_G_GRID, MAX_MC_SAMPLES, MAX_V_QUADRATURE

BOUNDARY_FLOATS = [0.0, -1.0, math.nan, math.inf, -math.inf, 1e300, -1e300]
BOUNDARY_INTS = [0, -1]

VALID_SAMPLES = {
    "half-turn.json": "[[0.25, 0.5], [0.5, 1.0]]",
    "one-turn.json": "[[0.0, 0.0], [0.125, 0.3], [0.25, 0.5], [0.375, 0.8], [0.5, 1.0]]",
    "two-turn.json": "[[0.5, 0.5], [1.0, 1.0]]",
}
MALFORMED_SAMPLES = {
    "flat.json": "[1, 2]",
    "null.json": "[[null, 1]]",
    "object.json": '{"samples": [[0.25, 0.5], [0.5, 1.0]]}',
    "empty.json": "[]",
    "bool.json": "[[true, 0.5], [0.5, 1.0]]",
    "string.json": '[["0.25", 0.5], [0.5, 1.0]]',
    "triple.json": "[[0.25, 0.5, 1.0], [0.5, 1.0]]",
    "nan.json": "[[0.1, NaN], [0.5, 1.0]]",
    "inf.json": "[[Infinity, 1.0]]",
    "tiny-turns.json": "[[1e-9, 1.0]]",
    "huge-turns.json": "[[1e300, 1.0]]",
    "short.json": "[[0.5, 0.9]]",
    "decreasing.json": "[[0.2, 0.5], [0.1, 1.0]]",
    "bare.json": '"text"',
    "not-json.json": "not json",
}

VALID_CONFIGS = {
    "empty.json": "{}",
    "chosun.json": '{"turn": 0.6, "rotate_deg": -8, "parts": 2}',
    "nulls.json": '{"parts": null, "interpol": null, "dark": [0.1, 0.2, 0.3]}',
    "ccw.json": '{"clockwise": false, "parts": 3}',
}
MALFORMED_CONFIGS = {
    "float-parts.json": '{"parts": 2.7}',
    "bool-parts.json": '{"parts": true}',
    "many-parts.json": json.dumps({"parts": MAX_PARTS + 1}),
    "int-dark.json": '{"dark": 5}',
    "short-dark.json": '{"dark": [0.1, 0.2]}',
    "null-dark.json": '{"dark": [null, 0, 0]}',
    "list-turn.json": '{"turn": [1]}',
    "bool-turn.json": '{"turn": true}',
    "nan-turn.json": '{"turn": NaN}',
    "string-radius.json": '{"radius_px": "200"}',
    "string-clockwise.json": '{"clockwise": "no"}',
    "unknown-key.json": '{"foo": 1}',
    "fine-step.json": '{"interpol": 1e-9}',
    "list.json": "[1, 2]",
    "null.json": "null",
    "not-json.json": "not json",
}

VALID_COLORS = ["0.1,0.2,0.3", "1,1,1", "0,0,0"]
MALFORMED_COLORS = ["nan,0,0", "inf,0,0", "2,0,0", "-1,0,0", "0.5,0.5", "0,0,0,0"]


@st.composite
def argvs(draw):
    """An argv for one subcommand; half of them draw every value from the valid pools."""
    command = draw(st.sampled_from(["verify", "oracle", "render", "presets"]))
    valid = draw(st.booleans())

    def pick(good, bad):
        return draw(good if valid else st.one_of(good, st.sampled_from(bad)))

    def flag(name, good, bad, optional=True):
        # the = form keeps a value such as "-inf" from reading as a flag
        return [] if optional and draw(st.booleans()) else [f"{name}={pick(good, bad)}"]

    def floats(name, lo, hi, above=None, **kw):
        return flag(name, st.floats(lo, hi), BOUNDARY_FLOATS + ([above] if above else []), **kw)

    def ints(name, lo, hi, above=None, **kw):
        return flag(name, st.integers(lo, hi), BOUNDARY_INTS + ([above] if above else []), **kw)

    def file(name, directory, good, bad, optional=True):
        if optional and draw(st.booleans()):
            return []
        return [name, f"{directory}/{pick(st.sampled_from(sorted(good)), [*bad, 'missing.json'])}"]

    argv = [command]
    if command in ("verify", "oracle"):
        family = draw(st.sampled_from(list(FAMILIES)))
        takes = FAMILIES[family][1] if valid else ("lam", "k", "samples")
        argv += ["--family", family]
        if family == "fermat" or not valid:
            argv += floats("--turns", 1.0 / MAX_TURNS, MAX_TURNS, above=2 * MAX_TURNS)
        if "lam" in takes:
            hi = 0.24 if family == "sine" else 4.0
            argv += floats("--lambda", 0.01, hi, optional=not valid)
        if "k" in takes:
            argv += ints("--k", 0, 3, optional=not valid)
        if "samples" in takes:
            argv += file("--samples", "SAMPLES", VALID_SAMPLES, MALFORMED_SAMPLES,
                         optional=not valid)
        argv += ints("--parts", 2, 6, above=MAX_PARTS + 1)
    if command == "verify":  # --g-grid and --v-quad always: the defaults are full-size work
        argv += ints("--g-grid", 1, 64, above=MAX_G_GRID + 1, optional=False)
        argv += ints("--v-quad", 2, 2001, above=MAX_V_QUADRATURE + 1, optional=False)
        argv += ints("--q-max", 2, 8)
        argv += floats("--tolerance", 0.0, 1.0)
        argv += ints("--seed", 0, 2**32)
        argv += flag("--axioms", st.sampled_from(["A1,A2,A3,A4", "A1,A3pp", "a1,a5"]), ["A9", ""])
    elif command == "oracle":  # --mc-samples always: the default is 1e6
        argv += floats("--g", 0.0, 1.0, optional=False)
        argv += ints("--mc-samples", 1, 10_000, above=MAX_MC_SAMPLES + 1, optional=False)
        argv += ints("--seed", 0, 2**32)
    elif command == "render":
        argv += flag("--preset", st.sampled_from(sorted(RENDER_PRESETS)), ["nope"])
        argv += file("--config", "CONFIGS", VALID_CONFIGS, MALFORMED_CONFIGS)
        argv += floats("--turn", 0.05, 8.0)
        argv += floats("--radius", 1.0, 500.0)
        argv += flag("--rotate", st.floats(-360.0, 360.0), [math.nan, math.inf, -math.inf])
        argv += draw(st.sampled_from([[], ["--counterclockwise"]]))
        argv += ints("--parts", 2, 6, above=MAX_PARTS + 1)
        argv += floats("--interpol", 1.0 / 2000, 0.5, above=1e-9)
        argv += floats("--stroke-width", 0.1, 10.0)
        argv += flag("--dark", st.sampled_from(VALID_COLORS), MALFORMED_COLORS)
        argv += draw(st.sampled_from([[], ["--evolution"]]))
    elif command == "presets":
        argv += draw(st.sampled_from([[], ["--json"]]))
    return argv


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("inputs")
    for sub, files in (("samples", {**VALID_SAMPLES, **MALFORMED_SAMPLES}),
                       ("configs", {**VALID_CONFIGS, **MALFORMED_CONFIGS})):
        (root / sub).mkdir()
        for name, text in files.items():
            (root / sub / name).write_text(text)
    return root


def _strict_json(text):
    def refuse(constant):
        raise AssertionError(f"non-strict JSON constant {constant}")
    return json.loads(text, parse_constant=refuse)


@settings(deadline=None, max_examples=150,
          suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
@given(argv=argvs())
def test_any_argv_exits_cleanly(argv, inputs, capsys):
    argv = [a.replace("SAMPLES/", f"{inputs}/samples/").replace("CONFIGS/", f"{inputs}/configs/")
            for a in argv]
    with tempfile.TemporaryDirectory() as out_dir:
        if argv[0] == "render":
            argv += ["--out", str(Path(out_dir) / "symbol.svg")]
        capsys.readouterr()  # capsys is shared by every example
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = run(argv)
        captured = capsys.readouterr()
        assert code in (0, 1, 2)
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        if code == 2:
            assert captured.out == ""
            assert captured.err.startswith("error:"), captured.err
        elif argv[0] in ("verify", "oracle") or argv[:2] == ["presets", "--json"]:
            _strict_json(captured.out)
        for svg in Path(out_dir).glob("*.svg"):
            ET.fromstring(svg.read_text())


# -- the report encoder against json.dumps -----------------------------------------

SPECIAL_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308, -1e308, 0.1, 1e16, 1e-7]
FINITE_FLOATS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from(SPECIAL_FLOATS),
    st.floats(allow_nan=False, allow_infinity=False).map(np.float64),
)
TEXT = st.text(st.characters(exclude_categories=()) | st.sampled_from("\x00\x1f\x7f\"\\/\n\ud7ff\U0001f600"))
KEYS = st.one_of(TEXT, st.integers(), FINITE_FLOATS, st.booleans(), st.none())
SCALARS = st.one_of(st.none(), st.booleans(), st.integers(), FINITE_FLOATS, TEXT)


def _containers(children):
    return st.one_of(
        st.lists(children, max_size=6),
        st.lists(children, max_size=6).map(tuple),
        st.lists(FINITE_FLOATS, max_size=12),  # the shape of a profile's values
        st.dictionaries(KEYS, children, max_size=6),
    )


NESTED = st.recursive(SCALARS, _containers, max_leaves=40)
NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf, np.float64(math.nan), np.float64(-math.inf)])
# strings that are, hold or end like the marker the encoder writes for a profile's values
MARKERS = st.sampled_from(["\x00values", "a\x00values", "\x00values!", '"\x00values', '\x00values"',
                           "\\u0000values", '"\\u0000values"'])
SIBLINGS = st.dictionaries(TEXT | MARKERS, NESTED | MARKERS, max_size=3)


def _reports(values):
    """Report-shaped dicts: ``{"profile": {..., "values": X}}`` among sibling keys, X from ``values``."""
    def build(t):
        before, inner_before, x, inner_after, after = t
        return {**before, "profile": {**inner_before, "values": x, **inner_after}, **after}
    inner = SIBLINGS.map(lambda d: {k: v for k, v in d.items() if k != "values"})
    outer = SIBLINGS.map(lambda d: {k: v for k, v in d.items() if k != "profile"})
    return st.tuples(outer, inner, values, inner, outer).map(build)


PROFILE_VALUES = st.one_of(
    st.lists(FINITE_FLOATS, min_size=1, max_size=12),
    st.just([]),
    st.lists(st.one_of(FINITE_FLOATS, st.integers(), st.booleans(), st.none()), min_size=1, max_size=8),
    MARKERS,
)
DOCUMENTS = NESTED | _reports(PROFILE_VALUES)


def _holding(value):
    """Documents with ``value`` somewhere inside: at the top, in a list among others, as a dict value,
    in a report's profile values among finite floats, or beside finite profile values."""
    def wrap(inner):
        return st.one_of(
            st.tuples(st.lists(DOCUMENTS, max_size=3), inner, st.lists(DOCUMENTS, max_size=3))
            .map(lambda t: t[0] + [t[1]] + t[2]),
            st.tuples(st.lists(FINITE_FLOATS, max_size=5), inner).map(lambda t: t[0] + [t[1]]),
            st.tuples(st.dictionaries(TEXT, DOCUMENTS, max_size=3), TEXT, inner)
            .map(lambda t: {**t[0], t[1]: t[2]}),
            _reports(st.tuples(st.lists(FINITE_FLOATS, max_size=5), inner, st.lists(FINITE_FLOATS, max_size=5))
                     .map(lambda t: t[0] + [t[1]] + t[2])),
            st.tuples(_reports(st.lists(FINITE_FLOATS, min_size=1, max_size=5)), inner)
            .map(lambda t: {**t[0], "sibling": t[1]}),
        )
    return st.recursive(value, wrap, max_leaves=8)


@settings(max_examples=200, deadline=None)
@given(doc=DOCUMENTS)
def test_report_encoder_writes_json_dumps_bytes(doc):
    assert _dumps(doc) == json.dumps(doc, indent=2, allow_nan=False) + "\n"


@settings(max_examples=60, deadline=None)
@given(doc=_holding(NON_FINITE))
def test_report_encoder_refuses_nan_and_infinities_anywhere(doc):
    with pytest.raises(ValueError) as json_error:
        json.dumps(doc, indent=2, allow_nan=False)
    with pytest.raises(ValueError) as error:
        _dumps(doc)
    assert str(error.value) == str(json_error.value)

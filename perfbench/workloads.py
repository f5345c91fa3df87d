"""Seeded request generators, request execution and output checks.

Each workload is a list of *cycles*.  A cycle is a fixed mix of request
kinds (family, smoothness order, ``--q-max``, arc count, render kind); the
seed only draws the parameters inside each kind and the order inside the
cycle.  Some kinds rotate from cycle to cycle, so the mix repeats exactly
every ``PERIODS[workload]`` cycles; timing statistics are taken over whole
periods, so every seed measures the same mix and the figures compare across
seeds.  A generator yields cycles one at a time from one seeded stream, so
a run draws only the cycles it executes and the same seed always gives the
same sequence.

Every request names its *cost class* (``Request.cls``): requests of one
class do about the same work on different numbers (an arc set of the same
size, a render with the same part count and sampling step, a verify spec
of the same family and order).  A workload's mix is the number of
requests of each class in a period.

The program under test receives only generated argv lists and JSON files:
the ``verify``, ``oracle`` and ``render`` requests go through
``yinyang.cli.run(argv)`` in-process, the arc-algebra requests through the
``CircleSet`` API on a JSON document.  Expected results (A4 verdicts,
oracle references, independent union lengths, golden SVG bytes) follow
from the theory or from code written here, never from running the program;
the costly ones are computed by the checks, outside every timed interval.
"""

from __future__ import annotations

import itertools
import json
import math
import xml.etree.ElementTree as ET
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator

import numpy as np

WORKLOADS = ("verify_requests", "oracle_requests", "arc_algebra", "render_requests")

VERIFY_AXIOMS = "A1,A2,A3,A4,A5"
ORACLE_SAMPLES = 100_000
ORACLE_Z = 5.0  # an estimate must lie within this many standard errors
IDENTITY_TOL = 1e-12
Q_MAX = 6
ROTATIONS = tuple((p, q) for q in range(2, Q_MAX + 1) for p in range(1, q) if math.gcd(p, q) == 1)
FERMAT_SPECS = tuple((t, p) for t in (1.0, 1.5, 2.0) for p in (2, 3, 4))

# Arc counts of one arc-algebra cycle; (count, q) with q > 1 marks a set
# that is a q-fold repeated motif, so its rotation-invariant parts are not
# empty.  Five 8-arc sets hold the median, so it is the middle of many
# samples of one kind; the 32-arc set, about half of a cycle's time, holds
# the ten slowest of a run, since a run lasts at least MIN_CYCLES cycles.
ARC_CYCLE = ((1, 1), (2, 1), (3, 1), (4, 2), (6, 3), *[(8, 1)] * 5, (12, 1), (16, 1), (20, 1),
             (32, 4))

# Render kinds of one cycle.  The first three reproduce tests/golden/*.svg.
# A "random" slot draws turn, rotation and mirroring; its part count is the
# slot's and its sampling step 1/n rotates through RENDER_STEPS from cycle to
# cycle (None: the default step, 1/(16 turn) at turn 8).  The evolution
# slot's part count rotates through 2-6.
GOLDEN_RENDERS = {
    "classic": ("render", "--preset", "classic"),
    "britannica": ("render", "--preset", "britannica"),
    "threepart": ("render", "--parts", "3"),
}
RENDER_CYCLE = ("classic", "britannica", "threepart", "preset", "evolution",
                "random2", "random3", "random4", "random5", "random6")
RENDER_STEPS = (8, 16, 32, 64, None)

# Cycles after which a workload's mix of cost classes repeats exactly, and
# the cycles a run completes at least, so that the eleven slowest requests
# of a run, where the tail is read, stay in one kind of request: 32-arc
# sets (one a cycle), ck requests of order 2 and 3 (two an oracle cycle).
# A run holds four or five verify cycles; taking its figures over whole
# periods of four keeps them to twenty requests, so its median and tail
# (p50) read the same ranks in every run.
PERIODS = {"verify_requests": 4, "oracle_requests": 2, "arc_algebra": 1, "render_requests": 10}
MIN_CYCLES = {"verify_requests": 4, "oracle_requests": 6, "arc_algebra": 11, "render_requests": 10}


@dataclass
class Request:
    """One generated request and what its output must satisfy."""

    kind: str               # "cli" or "arcs"
    key: str                # identity of the input, for the repeat share
    cls: str                # cost class: requests doing the same work
    tags: dict              # input properties (family, parts, arc count, ...)
    argv: tuple = ()        # cli requests: argv without the output flag
    out_name: str = ""      # cli requests: output file name inside the work dir
    expect: dict = field(default_factory=dict)
    payload: str = ""       # arcs requests: the JSON document


@dataclass
class Outcome:
    """What a request returned, gathered outside the timed interval."""

    rc: int | None = None
    files: dict = field(default_factory=dict)   # name -> bytes
    value: object = None                       # arcs requests: library results
    error: str = ""


# -- custom sample tables --------------------------------------------------------


def _quarter_shift_table(rng, knots: int) -> list[list[float]]:
    """One-turn table with alpha(u + 1/4) = alpha(u) + 1/2 at every knot: balanced for parts 2."""
    u = np.sort(rng.uniform(0.0, 0.25, knots - 1))
    u = np.concatenate([u, [0.25]])
    steps = rng.uniform(0.2, 1.0, knots)
    v = np.cumsum(steps) / steps.sum() * 0.5
    v[-1] = 0.5
    first = [[float(a), float(b)] for a, b in zip(u, v)]
    second = [[float(a + 0.25), float(b + 0.5)] for a, b in zip(u, v)]
    second[-1] = [0.5, 1.0]
    return first + second


def _linear_table(rng, knots: int, turns: float) -> list[list[float]]:
    """Knots on the Fermat line v = 2u/turns: balanced for every part count."""
    end = turns / 2.0
    u = np.sort(rng.uniform(0.0, end, knots - 1))
    return [[float(a), float(a / end)] for a in u] + [[end, 1.0]]


def _power_table(rng, knots: int, power: float) -> list[list[float]]:
    """Knots of v = (2u)^power, power in [1.5, 3]: clearly unbalanced."""
    u = np.sort(rng.uniform(0.0, 0.5, knots - 1))
    return [[float(a), float((2.0 * a) ** power)] for a in u] + [[0.5, 1.0]]


def _ck_lambda_max(k: int) -> float:
    """Largest lambda keeping the C^k profile increasing: 2 / max(-d/du bump)."""
    u = np.linspace(0.0, 0.25, 200_001)
    slope = (k + 1) * u**k * (0.25 - u) ** k * (0.25 - 2.0 * u)
    return float(2.0 / -slope.min())


CK_LAMBDA_MAX = {k: _ck_lambda_max(k) for k in range(4)}


def _reference_overlap(t_of_v, length: float, g: float, nodes: int = 20_000) -> float:
    """Reflection overlap at axis g by midpoint quadrature of the single-arc formula.

    Written here independently of the package: slice v is the arc
    [t(v), t(v) + length) and its overlap with its mirror image is
    max(0, length - d) + max(0, d + length - 1), d = (g - 2t - length) mod 1.
    """
    v = (np.arange(nodes) + 0.5) / nodes
    d = np.mod(g - 2.0 * t_of_v(v) - length, 1.0)
    return float(np.mean(np.maximum(0.0, length - d) + np.maximum(0.0, d + length - 1.0)))


class _Tables:
    """Writes custom sample tables as JSON files the CLI reads with --samples."""

    def __init__(self, directory: Path):
        self.directory = directory
        self.count = 0

    def write(self, table: list[list[float]]) -> str:
        self.directory.mkdir(parents=True, exist_ok=True)
        path = self.directory / f"table{self.count:05d}.json"
        self.count += 1
        path.write_text(json.dumps(table))
        return str(path)


def _custom(rng, tables: _Tables, parts: int, kind: str) -> tuple[list[str], bool, dict, list]:
    knots = int(rng.integers(8, 41))
    if kind == "quarter":
        table, balanced, turns = _quarter_shift_table(rng, knots), True, 1.0
    elif kind == "linear":
        turns = float(rng.choice([1.0, 2.0]))
        table, balanced = _linear_table(rng, knots, turns), True
    else:
        table, balanced, turns = _power_table(rng, knots, float(rng.uniform(1.5, 3.0))), False, 1.0
    flags = ["--family", "custom", "--parts", str(parts), "--samples", tables.write(table)]
    tags = {"family": "custom", "table": kind, "knots": len(table), "parts": parts, "turns": turns}
    return flags, balanced, tags, table


# -- verify_requests ------------------------------------------------------------


def verify_cycles(seed: int, workdir: Path) -> Iterator[list[Request]]:
    """``yy verify`` at the CLI defaults over all four families.

    Every cycle holds one fermat, one sine, one ck and two custom requests,
    and the sine request carries ``--q-max 6``.  Custom requests cost about
    as much as fermat ones and less than ck and q-max sine ones, so the
    median and the tail of four cycles (the tenth and eleventh of twenty
    requests) fall among the twelve fermat and custom requests.  The ck order k
    alternates between 0 and 1; ck orders 2 and 3, whose powers take
    numpy's general routine and double a request's cost, are left to
    oracle_requests.  The fermat family has nine specs (turns 1,
    1.5, 2 by parts 2-4); they are dealt in seeded permutations, so specs
    repeat only after nine cycles.
    """
    rng = np.random.default_rng([seed, 1])
    tables = _Tables(workdir / "inputs" / "verify")
    fermat_deck: list[int] = []
    for i in itertools.count():
        if not fermat_deck:
            fermat_deck = [int(x) for x in rng.permutation(len(FERMAT_SPECS))]
        turns, parts = FERMAT_SPECS[fermat_deck.pop()]
        slots = [(["--family", "fermat", "--turns", repr(turns), "--parts", str(parts)],
                  turns in (1.0, 2.0), {"family": "fermat", "turns": turns, "parts": parts})]
        parts = int(rng.integers(2, 5))
        lam = float(rng.uniform(0.02, 0.23))
        slots.append((["--family", "sine", "--lambda", repr(lam), "--parts", str(parts)],
                      parts == 2, {"family": "sine", "parts": parts}))
        k = i % 2
        parts = int(rng.integers(2, 5))
        lam = float(rng.uniform(0.2, 0.9) * CK_LAMBDA_MAX[k])
        slots.append((["--family", "ck", "--lambda", repr(lam), "--k", str(k), "--parts", str(parts)],
                      parts == 2, {"family": "ck", "k": k, "parts": parts}))
        for _ in range(2):
            kind = str(rng.choice(["quarter", "linear", "power"]))
            parts = 2 if kind == "quarter" else int(rng.integers(2, 5))
            flags, balanced, tags, _ = _custom(rng, tables, parts, kind)
            slots.append((flags, balanced, tags))
        cycle = []
        for j in rng.permutation(len(slots)):
            flags, balanced, tags = slots[j]
            q_max = tags["family"] == "sine"
            argv = ["verify", *flags, "--axioms", VERIFY_AXIOMS, "--seed", str(i)]
            if q_max:
                argv += ["--q-max", str(Q_MAX)]
            cls = tags["family"] + (str(tags["k"]) if "k" in tags else "") + (" q-max" if q_max else "")
            cycle.append(Request(
                kind="cli", key=json.dumps(flags), cls=cls, argv=tuple(argv), out_name="report.json",
                tags={**tags, "q_max": q_max},
                expect={"a4": balanced, "parts": tags["parts"], "family": tags["family"],
                        "q_max": q_max},
            ))
        yield cycle


def _warmup_flags(workdir: Path) -> list[list[str]]:
    """One spec of every family, for warm-up requests (not timed, not checked)."""
    tables = _Tables(workdir / "inputs" / "warmup")
    return [["--family", "fermat"], ["--family", "sine", "--lambda", "0.1"],
            ["--family", "ck", "--lambda", "1.0", "--k", "2"],
            _custom(np.random.default_rng(0), tables, 2, "power")[0]]


def verify_warmup(workdir: Path) -> list[Request]:
    return [Request(kind="cli", key="warmup", cls="warmup", tags={}, out_name="report.json",
                    argv=("verify", *f, "--g-grid", "8", "--v-quad", "101", "--q-max", "2"))
            for f in _warmup_flags(workdir)]


def check_verify(req: Request, out: Outcome) -> str:
    """Empty string when the report is right, else the reason it is not."""
    try:
        doc = json.loads(out.files["report.json"])
        axioms = doc["axioms"]
        a4 = axioms["A4"]["pass"]
        all_pass = all(axioms[a]["pass"] for a in VERIFY_AXIOMS.split(","))
        rotation = doc.get("rotation")
        profile = doc["profile"]
    except (KeyError, TypeError, ValueError) as exc:
        return f"unreadable report: {exc!r}"
    exp = req.expect
    if a4 is not exp["a4"]:
        return f"A4 verdict {a4}, expected {exp['a4']}"
    if doc["spec"]["family"] != exp["family"] or doc["spec"]["parts"] != exp["parts"]:
        return "report spec differs from the request"
    if profile["grid"] != 512 or len(profile["values"]) != 512 or profile["v_nodes"] != 100_001:
        return "profile not at the CLI default resolution"
    if abs(profile["target"] - 1.0 / exp["parts"] ** 2) > 1e-15:
        return "wrong flatness target"
    if not axioms["A2"]["pass"]:
        return "A2 failed on a strictly increasing profile"
    if exp["q_max"]:
        if rotation is None or rotation["pass"] is not True or len(rotation["integrals"]) != len(ROTATIONS):
            return "rotation check missing or failed"
    elif rotation is not None:
        return "unrequested rotation section"
    expected_rc = 0 if all_pass and (rotation is None or rotation["pass"]) else 1
    if out.rc != expected_rc:
        return f"exit code {out.rc}, report implies {expected_rc}"
    return ""


# -- oracle_requests ------------------------------------------------------------

# One oracle cycle.  A ck request with k >= 2 costs about 80 fermat ones:
# two per cycle (k = 2 and k = 3) keep the slowest ten of a run inside that
# kind, and eight fermat requests keep the median inside the fermat kind.
# The low-order ck request alternates k = 0 and k = 1 between cycles.
ORACLE_CYCLE = ("fermat",) * 8 + ("custom", "sine", "ck_low", "ck2", "ck3")


def oracle_cycles(seed: int, workdir: Path) -> Iterator[list[Request]]:
    """``yy oracle`` at ORACLE_SAMPLES samples with fresh axes and sampler seeds.

    Sine and ck requests use two parts (balanced, reference 1/4).  Fermat
    requests include 1.5 turns and custom requests include power tables,
    which are unbalanced; the check computes their reference overlap by
    independent quadrature from the sample table kept in ``expect``.
    """
    rng = np.random.default_rng([seed, 2])
    tables = _Tables(workdir / "inputs" / "oracle")
    for i in itertools.count():
        cycle = []
        for j in rng.permutation(len(ORACLE_CYCLE)):
            slot = ORACLE_CYCLE[j]
            g = float(rng.uniform(0.0, 1.0))
            if slot == "fermat":
                turns = float(rng.choice([1.0, 1.5, 2.0]))
                parts = int(rng.integers(2, 5))
                flags = ["--family", "fermat", "--turns", repr(turns), "--parts", str(parts)]
                tags = {"family": "fermat", "turns": turns, "parts": parts}
                balanced = turns != 1.5
                table = [[turns / 2.0, 1.0]]  # alpha is linear: one knot after the origin
            elif slot == "custom":
                kind = str(rng.choice(["quarter", "linear", "power"]))
                parts = 2 if kind == "quarter" else int(rng.integers(2, 5))
                flags, balanced, tags, table = _custom(rng, tables, parts, kind)
            elif slot == "sine":
                parts = 2
                flags = ["--family", "sine", "--lambda", repr(float(rng.uniform(0.02, 0.23)))]
                tags, balanced = {"family": "sine", "parts": 2}, True
            else:
                parts = 2
                k = i % 2 if slot == "ck_low" else int(slot[2])
                lam = float(rng.uniform(0.2, 0.9) * CK_LAMBDA_MAX[k])
                flags = ["--family", "ck", "--lambda", repr(lam), "--k", str(k)]
                tags, balanced = {"family": "ck", "k": k, "parts": 2}, True
            length = 1.0 / parts
            expect = ({"reference": length * length} if balanced
                      else {"table": table, "length": length, "g": g})
            mc_seed = int(rng.integers(0, 2**31))
            argv = ("oracle", *flags, "--g", repr(g), "--mc-samples", str(ORACLE_SAMPLES),
                    "--seed", str(mc_seed))
            cls = tags["family"] + (str(tags["k"]) if "k" in tags else "")
            cycle.append(Request(kind="cli", key=" ".join(argv), cls=cls, argv=argv, out_name="estimate.json",
                                 tags={**tags, "balanced": balanced}, expect=expect))
        yield cycle


def oracle_warmup(workdir: Path) -> list[Request]:
    return [Request(kind="cli", key="warmup", cls="warmup", tags={}, out_name="estimate.json",
                    argv=("oracle", *f, "--g", "0.3", "--mc-samples", "1000"))
            for f in _warmup_flags(workdir)]


def oracle_reference(expect: dict) -> float:
    """1/parts^2 for a balanced spec, else the reflection overlap of its sample table."""
    if "reference" in expect:
        return expect["reference"]
    knots = np.array([[0.0, 0.0]] + expect["table"])
    t_of_v = lambda v: np.interp(v, knots[:, 1], knots[:, 0])
    return _reference_overlap(t_of_v, expect["length"], expect["g"])


def check_oracle(req: Request, out: Outcome) -> str:
    if out.rc != 0:
        return f"exit code {out.rc}"
    try:
        doc = json.loads(out.files["estimate.json"])
        value, stderr, samples = float(doc["value"]), float(doc["stderr"]), int(doc["samples"])
    except (KeyError, TypeError, ValueError) as exc:
        return f"unreadable estimate: {exc!r}"
    if samples != ORACLE_SAMPLES:
        return f"{samples} samples, requested {ORACLE_SAMPLES}"
    if not stderr > 0.0:
        return "zero standard error"
    ref = oracle_reference(req.expect)
    if abs(value - ref) > ORACLE_Z * stderr:
        return f"estimate {value} is {abs(value - ref) / stderr:.1f} standard errors from {ref}"
    return ""


# -- arc_algebra ------------------------------------------------------------------


def _arc_set(rng, count: int, q: int) -> list[list[float]]:
    """`count` disjoint arcs; a q-fold repeated motif when q > 1.

    Endpoints keep gaps of at least 1e-6 so no two arcs touch at the
    algebra's 1e-12 merge tolerance, and the point 0 lies in a gap, so the
    canonical set has exactly `count` arcs (its cost grows as count^4).
    """
    per = count // q
    span = 1.0 / q
    while True:
        cuts = np.sort(rng.uniform(0.0, span, 2 * per))
        gaps = np.diff(np.concatenate([cuts, [cuts[0] + span]]))
        if gaps.min() > 1e-6:
            break
    gap = int(rng.integers(per)) * 2 + 1          # the gap after arc `gap // 2`
    origin = cuts[gap] + rng.uniform(0.25, 0.75) * gaps[gap]
    arcs = []
    for j in range(q):
        for a, b in zip(cuts[0::2], cuts[1::2]):
            arcs.append([float((a - origin) % span + j * span), float(b - a)])
    order = rng.permutation(len(arcs))
    return [arcs[i] for i in order]


def arc_cycles(seed: int, workdir: Path) -> Iterator[list[Request]]:
    """Circle sets with the arc counts of ARC_CYCLE, one of each per cycle."""
    rng = np.random.default_rng([seed, 3])
    while True:
        cycle = []
        for j in rng.permutation(len(ARC_CYCLE)):
            count, q = ARC_CYCLE[j]
            arcs = _arc_set(rng, count, q)
            text = json.dumps(arcs)
            cycle.append(Request(kind="arcs", key=text, cls=f"{count} arcs {q}-fold", payload=text,
                                 tags={"arcs": count, "symmetry": q}, expect={"symmetry": q}))
        yield cycle


def arc_warmup(workdir: Path) -> list[Request]:
    rng = np.random.default_rng(0)
    text = json.dumps(_arc_set(rng, 4, 2))
    return [Request(kind="arcs", key="warmup", cls="warmup", payload=text, tags={})]


def _union_length(arcs: list[list[float]]) -> float:
    """Measure of a union of arcs on R/Z, by sorting linear pieces (independent of the package)."""
    pieces = []
    for start, length in arcs:
        end = start + length
        if end <= 1.0:
            pieces.append((start, end))
        else:
            pieces += [(start, 1.0), (0.0, end - 1.0)]
    pieces.sort()
    total, cur_a, cur_b = 0.0, None, None
    for a, b in pieces:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def run_arc_request(circle_set_cls, text: str) -> dict:
    """The arc-algebra request, as a library user would write it."""
    s = circle_set_cls.from_json(json.loads(text))
    profile = s.overlap_profile()
    measure = s.measure()
    mean = s.mean_overlap()
    g_star, f_star = s.max_overlap()
    invariant = {f"{p}/{q}": s.rotation_invariant_part(p, q) for p, q in ROTATIONS}
    return {"set": s, "profile": profile, "measure": measure, "mean": mean,
            "max": (g_star, f_star), "invariant": invariant}


def check_arcs(req: Request, out: Outcome) -> str:
    r = out.value
    if not isinstance(r, dict):
        return "no result"
    m = r["measure"]
    union = _union_length(json.loads(req.payload))
    if abs(m - union) > IDENTITY_TOL:
        return f"measure {m}, independent union length {union}"
    if abs(r["mean"] - m * m) > IDENTITY_TOL:
        return f"averaging identity off by {abs(r['mean'] - m * m):.3e}"
    if not r["max"][1] - m * m > IDENTITY_TOL:
        return "no strict maximum above measure^2"
    s = r["set"]
    q0 = req.expect["symmetry"]
    for name, part in r["invariant"].items():
        p, q = (int(x) for x in name.split("/"))
        pm = part.measure()
        if abs(part.intersect(s).measure() - pm) > IDENTITY_TOL:
            return f"rotation-invariant part {name} is not a subset"
        if abs(part.intersect(part.translate(p / q)).measure() - pm) > IDENTITY_TOL:
            return f"rotation-invariant part {name} is not invariant"
        if q0 % q == 0 and abs(pm - m) > 1e-9:
            return f"{q0}-fold symmetric set lost measure under rotation {name}"
    return ""


# -- render_requests ----------------------------------------------------------------


def render_cycles(seed: int, workdir: Path) -> Iterator[list[Request]]:
    """``yy render``: golden presets and configs (repeating), other presets,
    evolution phases, and random configurations with parts 2-6, turn up to 8
    and varied sampling step (see RENDER_CYCLE)."""
    rng = np.random.default_rng([seed, 4])
    for i in itertools.count():
        cycle = []
        for j in rng.permutation(len(RENDER_CYCLE)):
            slot = RENDER_CYCLE[j]
            if slot in GOLDEN_RENDERS:
                argv, tags = GOLDEN_RENDERS[slot], {"render": "golden", "parts": 3 if slot == "threepart" else 2}
                expect, cls = {"golden": slot, "parts": tags["parts"]}, slot
            elif slot == "preset":
                cls = ("chosun", "korea1882")[i % 2]
                argv, tags = ("render", "--preset", cls), {"render": "preset", "parts": 2}
                expect = {"parts": 2}
            else:
                parts = 2 + i % 5 if slot == "evolution" else int(slot[-1])
                flags = ["--parts", str(parts), "--rotate", repr(round(float(rng.uniform(-180, 180)), 3))]
                if rng.random() < 0.5:
                    flags.append("--counterclockwise")
                if slot == "evolution":
                    flags.append("--evolution")
                    cls = f"evolution p{parts}"
                else:
                    step = RENDER_STEPS[(i + parts) % len(RENDER_STEPS)]
                    if step is None:
                        flags += ["--turn", "8"]
                    else:
                        flags += ["--turn", repr(round(float(rng.uniform(0.1, 8.0)), 4)),
                                  "--interpol", repr(1.0 / step)]
                    cls = f"random p{parts} step 1/{step or 128}"
                    slot = "random"
                argv, tags = ("render", *flags), {"render": slot, "parts": parts}
                expect = {"parts": parts, "evolution": slot == "evolution"}
            cycle.append(Request(kind="cli", key=" ".join(argv), cls=cls, argv=tuple(argv),
                                 out_name="symbol.svg", tags=tags, expect=expect))
        yield cycle


def render_warmup(workdir: Path) -> list[Request]:
    argvs = [("render", "--preset", "classic"), ("render", "--parts", "4", "--turn", "3"),
             ("render", "--evolution", "--counterclockwise")]
    return [Request(kind="cli", key="warmup", cls="warmup", tags={}, argv=a, out_name="symbol.svg")
            for a in argvs]


def render_output_names(req: Request) -> list[str]:
    if req.expect.get("evolution"):
        return [f"symbol-{c}.svg" for c in "abcd"]
    return ["symbol.svg"]


def check_render(req: Request, out: Outcome, golden: dict[str, bytes]) -> str:
    if out.rc != 0:
        return f"exit code {out.rc}"
    names = render_output_names(req)
    if sorted(out.files) != sorted(names):
        return f"wrote {sorted(out.files)}, expected {names}"
    if "golden" in req.expect:
        if out.files["symbol.svg"] != golden[req.expect["golden"]]:
            return f"differs from golden {req.expect['golden']}.svg"
        return ""
    parts = req.expect["parts"]
    for name in names:
        try:
            root = ET.fromstring(out.files[name])
        except ET.ParseError as exc:
            return f"{name} is not XML: {exc}"
        if root.tag != "{http://www.w3.org/2000/svg}svg":
            return f"{name} root is {root.tag}"
        paths = root.findall(".//{http://www.w3.org/2000/svg}path")
        circles = root.findall(".//{http://www.w3.org/2000/svg}circle")
        fills = 1 if parts == 2 else parts
        if len(paths) != fills + parts or len(circles) != 1:
            return f"{name} has {len(paths)} paths and {len(circles)} circles"
    return ""


def read_golden(root: Path) -> dict[str, bytes]:
    return {name: (root / "tests" / "golden" / f"{name}.svg").read_bytes() for name in GOLDEN_RENDERS}


# -- registry ---------------------------------------------------------------------

GENERATORS = {
    "verify_requests": (verify_cycles, verify_warmup),
    "oracle_requests": (oracle_cycles, oracle_warmup),
    "arc_algebra": (arc_cycles, arc_warmup),
    "render_requests": (render_cycles, render_warmup),
}


def take(workload: str, seed: int, n_cycles: int, workdir: Path) -> list[list[Request]]:
    """The first `n_cycles` cycles of a workload's generator."""
    generate, _ = GENERATORS[workload]
    return list(itertools.islice(generate(seed, workdir), n_cycles))


def input_properties(workload: str, run: list[Request]) -> dict:
    """Measured properties of the requests a run executed."""
    used = len(run)
    seen: set[str] = set()
    repeats = 0
    for r in run:
        repeats += r.key in seen
        seen.add(r.key)
    props: dict = {"requests": used, "repeat_share": repeats / used if used else 0.0}

    def shares(tag: str) -> dict:
        values = [str(r.tags.get(tag)) for r in run]
        return {v: values.count(v) / len(values) for v in sorted(set(values))}

    if workload in ("verify_requests", "oracle_requests"):
        props["family_share"] = shares("family")
        props["parts_share"] = shares("parts")
    if workload == "verify_requests":
        props["q_max_share"] = sum(r.tags["q_max"] for r in run) / used
        props["a4_expected_pass_share"] = sum(r.expect["a4"] for r in run) / used
    if workload == "oracle_requests":
        props["samples_per_request"] = ORACLE_SAMPLES
        props["balanced_share"] = sum(r.tags["balanced"] for r in run) / used
    if workload == "arc_algebra":
        props["arc_count_histogram"] = {str(c): sum(r.tags["arcs"] == c for r in run) for c, _ in sorted(set(ARC_CYCLE))}
        props["symmetric_share"] = sum(r.tags["symmetry"] > 1 for r in run) / used
    if workload == "render_requests":
        props["kind_share"] = shares("render")
        props["parts_share"] = shares("parts")
    return props

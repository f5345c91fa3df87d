"""``yy`` command line: render symbols, verify axioms, run the sampling oracle.

Subcommands
-----------
render    write an SVG symbol (``--preset`` or explicit generator flags)
verify    run the axiom checks on a curve and emit the JSON report;
          exit code 0 iff every requested axiom passes
oracle    Monte-Carlo estimate of the reflection overlap at one axis
presets   list built-in curve and render presets

Exit codes: 0 success, 1 verification failure, 2 flag/usage errors.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys
from dataclasses import replace
from pathlib import Path
from typing import NoReturn

from . import __version__
from .curves import CURVE_PRESET_NOTES, CURVE_PRESETS, FAMILIES, CurveSpec
from .geometry import _shown
from .render import EVOLUTION_TURNS, PRESET_NOTES, RENDER_PRESETS, RenderConfig, render
from .verify import (
    AXIOM_IDS,
    G_GRID,
    V_QUADRATURE,
    check_axioms,
    monte_carlo_overlap,
    rotation_check,
)

_AXIOM_ALIASES = {**{a.lower(): a for a in AXIOM_IDS}, "a3pp": "A3''"}

DEFAULT_AXIOMS = ("A1", "A2", "A3", "A4")

#: The reprs of NaN and the infinities, which strict JSON has no text for.
_NON_FINITE = frozenset(("nan", "inf", "-inf"))

#: Stands in for a report's ``profile.values`` while ``json`` writes the rest.
_MARKER = "\x00values"
_MARKER_TEXT = json.dumps(_MARKER)

#: A token of an argparse message: a quoted one, escapes kept whole (one left open runs to the
#: end, so every match succeeds from its first quote and the scan is linear), or a bare word.
_TOKEN = re.compile(r"""'(?:[^'\\]|\\.?)*(?:'|\Z)|"(?:[^"\\]|\\.?)*(?:"|\Z)|[^\s'"]+""", re.S)


class _Parser(argparse.ArgumentParser):
    """argparse, with each token of a usage error, quoted or bare, cut short by ``_shown``.

    argparse's ``invalid choice`` and ``invalid ... value`` messages quote the refused
    token whole, and ``unrecognized arguments`` lists the extra words whole, bare.
    Subparsers are made of the parent's class, so this covers every flag.
    """

    def error(self, message: str) -> NoReturn:
        super().error(_TOKEN.sub(lambda m: _shown(m.group()), message))


def _add_curve_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--family", choices=FAMILIES,
                        default="fermat", help="curve family (default fermat)")
    parser.add_argument("--turns", type=float, default=1.0,
                        help="turn count for the fermat family (default 1)")
    parser.add_argument("--lambda", dest="lam", type=float, default=None,
                        help="perturbation amplitude for sine/ck families")
    parser.add_argument("--k", type=int, default=None,
                        help="differentiability order for the ck family")
    parser.add_argument("--parts", type=int, default=2,
                        help="number of congruent parts (default 2)")
    parser.add_argument("--samples", type=Path, default=None,
                        help="JSON sample table [[u, v], ...] for the custom family")


def _read_json(path: Path):
    """The JSON document in a file; bytes that are not UTF-8 JSON are a ValueError naming the file."""
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:  # RecursionError: nesting too deep
        raise ValueError(f"{path} is not readable JSON: {exc}") from None


def _spec_from_args(args: argparse.Namespace) -> CurveSpec:
    return CurveSpec(
        family=args.family,
        turns=args.turns,
        lam=args.lam,
        k=args.k,
        parts=args.parts,
        samples=None if args.samples is None else _read_json(args.samples),
    )


def _parse_axioms(text: str) -> tuple[str, ...]:
    out = []
    for token in text.split(","):
        token = token.strip()
        if not token:
            continue
        key = _AXIOM_ALIASES.get(token.lower())
        if key is None:
            raise ValueError(f"unknown axiom id {_shown(repr(token))}")
        out.append(key)
    if not out:
        raise ValueError("no axioms requested")
    return tuple(out)


def _dumps(doc: dict) -> str:
    """A report as ``json.dumps(doc, indent=2, allow_nan=False)`` and a newline.

    With ``indent``, ``json`` leaves its C encoder for a pure-Python one that
    writes each float on its own, and a verify report's 512 ``profile.values``
    are most of its text.  When that list is non-empty and all finite floats,
    ``json`` writes a marker in its place and the list's text, one join of the
    reprs, indented as ``json`` indents it there, replaces the marker's: a
    verify report then takes 0.29-0.41 ms, against 0.45-0.65 ms for
    ``json`` alone (interleaved in-process medians, 2-vCPU Xeon VM).  Any
    other document, or one whose text holds the marker twice, is ``json``'s
    alone, its NaN and type errors included.
    """
    profile = doc.get("profile") if isinstance(doc, dict) else None
    values = profile.get("values") if isinstance(profile, dict) else None
    if isinstance(values, list) and values:
        try:
            reprs = list(map(float.__repr__, values))
        except TypeError:  # an item that is not a float
            reprs = None
        if reprs is not None and _NON_FINITE.isdisjoint(reprs):
            marked = {**doc, "profile": {**profile, "values": _MARKER}}
            head, _, tail = json.dumps(marked, indent=2, allow_nan=False).partition(_MARKER_TEXT)
            if _MARKER_TEXT not in tail:  # no other string reads as the marker
                return "".join((head, "[\n      ", ",\n      ".join(reprs), "\n    ]", tail, "\n"))
    return json.dumps(doc, indent=2, allow_nan=False) + "\n"


def _emit(text: str, out: Path | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        out.write_text(text)


def _cmd_verify(args: argparse.Namespace) -> int:
    spec = _spec_from_args(args)
    rc = None if args.q_max is None else rotation_check(spec, q_max=args.q_max)
    report = check_axioms(
        spec,
        g_grid=args.g_grid,
        v_quadrature=args.v_quad,
        flatness_tolerance=args.tolerance,
        seed=args.seed,
    )
    doc = report.to_json()
    ok = report.all_passed(_parse_axioms(args.axioms))
    if rc is not None:
        doc["rotation"] = rc
        ok = ok and rc["pass"]
    _emit(_dumps(doc), args.out)
    return 0 if ok else 1


def _cmd_oracle(args: argparse.Namespace) -> int:
    spec = _spec_from_args(args)
    est = monte_carlo_overlap(spec, g=args.g, samples=args.mc_samples, seed=args.seed)
    doc = {"version": 1, "tool_version": __version__, "spec": spec.to_json()}
    doc.update(est.to_json())
    _emit(_dumps(doc), args.out)
    return 0


#: The argparse destination of each render flag and the RenderConfig field it sets.
_RENDER_FLAGS = {"turn": "turn", "radius": "radius_px", "rotate": "rotate_deg",
                 "counterclockwise": "clockwise", "parts": "parts", "interpol": "interpol",
                 "stroke_width": "stroke_width_px", "dark": "dark"}


def _color(text: str) -> tuple[float, ...]:
    return tuple(float(c) for c in text.split(","))


def _render_config_from_args(args: argparse.Namespace) -> RenderConfig:
    if args.config is not None:
        config = RenderConfig.from_json(_read_json(args.config))
    elif args.preset is not None:
        if args.preset not in RENDER_PRESETS:
            raise ValueError(
                f"unknown preset {_shown(repr(args.preset))}; try: {', '.join(sorted(RENDER_PRESETS))}"
            )
        config = RENDER_PRESETS[args.preset]
    else:
        config = RenderConfig()
    overrides = {field: getattr(args, dest) for dest, field in _RENDER_FLAGS.items()
                 if getattr(args, dest) is not None}
    return replace(config, **overrides)


def _cmd_render(args: argparse.Namespace) -> int:
    config = _render_config_from_args(args)
    out: Path = args.out if args.out is not None else Path("yinyang.svg")
    if args.evolution:
        for label, turn in zip("abcd", EVOLUTION_TURNS):
            phase = replace(config, turn=turn)
            path = out.with_name(f"{out.stem}-{label}{out.suffix or '.svg'}")
            render(phase).write(path)
            sys.stderr.write(f"wrote {path}\n")
        return 0
    render(config).write(out)
    sys.stderr.write(f"wrote {out}\n")
    return 0


def _cmd_presets(args: argparse.Namespace) -> int:
    if args.json:
        doc = {
            "curves": {
                name: {**spec.to_json(), "note": CURVE_PRESET_NOTES[name]}
                for name, spec in CURVE_PRESETS.items()
            },
            "render": {
                name: {**cfg.to_json(), "note": PRESET_NOTES[name]}
                for name, cfg in RENDER_PRESETS.items()
            },
        }
        sys.stdout.write(_dumps(doc))
        return 0
    sys.stdout.write("curve presets:\n")
    for name, spec in CURVE_PRESETS.items():
        sys.stdout.write(
            f"  {name:<12} {json.dumps(spec.to_json())}  ({CURVE_PRESET_NOTES[name]})\n"
        )
    sys.stdout.write("render presets:\n")
    for name, cfg in RENDER_PRESETS.items():
        sys.stdout.write(
            f"  {name:<12} turn={cfg.turn:g} rotate={cfg.rotate_deg:g}  ({PRESET_NOTES[name]})\n"
        )
    return 0


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # parse_args keeps no state on the parser, so one serves every call
    parser = _Parser(
        prog="yy", description="construct, verify, and render yin-yang spiral symbols"
    )
    parser.add_argument("--version", action="version", version=f"yy {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="check the axioms of a curve, emit a JSON report")
    _add_curve_flags(p_verify)
    p_verify.add_argument("--g-grid", type=int, default=G_GRID,
                          help=f"number of reflection axes to sample (default {G_GRID})")
    p_verify.add_argument("--v-quad", type=int, default=V_QUADRATURE,
                          help="knots in t of the piecewise-linear profile whose A4 integral "
                               f"is exact (default {V_QUADRATURE}; sine and ck need more than 2 * parts * turns + 1)")
    p_verify.add_argument("--q-max", type=int, default=None,
                          help="also run the rotation-invariance check up to this order")
    p_verify.add_argument("--tolerance", type=float, default=None,
                          help="override the flat-profile pass tolerance")
    p_verify.add_argument("--seed", type=int, default=0, help="recorded in the report")
    p_verify.add_argument("--axioms", default=",".join(DEFAULT_AXIOMS),
                          help="comma list of axioms gating the exit code "
                               "(A1,A2,A3,A3pp,A4,A5; default A1,A2,A3,A4)")
    p_verify.add_argument("--out", type=Path, default=None, help="write the report here")
    p_verify.set_defaults(func=_cmd_verify)

    p_oracle = sub.add_parser("oracle", help="Monte-Carlo overlap estimate at one axis")
    _add_curve_flags(p_oracle)
    p_oracle.add_argument("--g", type=float, required=True, help="reflection axis in [0, 1)")
    p_oracle.add_argument("--mc-samples", type=int, default=1_000_000,
                          help="number of disk samples (default 1e6)")
    p_oracle.add_argument("--seed", type=int, default=0, help="RNG seed")
    p_oracle.add_argument("--out", type=Path, default=None, help="write the estimate here")
    p_oracle.set_defaults(func=_cmd_oracle)

    p_render = sub.add_parser("render", help="write an SVG symbol")
    p_render.add_argument("--preset", default=None,
                          help=f"one of: {', '.join(sorted(RENDER_PRESETS))}")
    p_render.add_argument("--config", type=Path, default=None,
                          help="JSON render configuration file")
    p_render.add_argument("--turn", type=float, default=None)
    p_render.add_argument("--radius", type=float, default=None, help="disk radius in px")
    p_render.add_argument("--rotate", type=float, default=None, help="extra rotation, degrees")
    p_render.add_argument("--counterclockwise", action="store_const", const=False,
                          help="mirror the symbol about the vertical axis")
    p_render.add_argument("--parts", type=int, default=None,
                          help="number of congruent parts (>= 3 shades every part)")
    p_render.add_argument("--interpol", type=float, default=None, help="spiral sampling step")
    p_render.add_argument("--stroke-width", type=float, default=None)
    p_render.add_argument("--dark", type=_color, help="fill color as r,g,b in [0,1]")
    p_render.add_argument("--evolution", action="store_true",
                          help="emit the four evolution phases as -a/-b/-c/-d files")
    p_render.add_argument("--out", type=Path, default=None, help="output SVG path")
    p_render.set_defaults(func=_cmd_render)

    p_presets = sub.add_parser("presets", help="list built-in curve and render presets")
    p_presets.add_argument("--json", action="store_true", help="machine-readable listing")
    p_presets.set_defaults(func=_cmd_presets)

    return parser


def run(argv: list[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:  # argparse uses 2 for usage errors, 0 for --help
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()

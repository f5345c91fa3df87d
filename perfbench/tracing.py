"""Spans around the package's public functions, installed from outside.

The tracer replaces public functions and methods of the ``yinyang``
modules with wrappers that record a span (name, start, end, parent span,
request id) or only count calls, and restores the originals afterwards.
A module-level function is replaced under every name that refers to it in
any ``yinyang`` module, so calls through ``from .x import f`` bindings are
seen too.  Spans stay in memory until the run writes them out.

A span's self time is its duration minus the durations of its direct
children; the per-layer metrics are sums over spans, divided by the number
of traced requests.
"""

from __future__ import annotations

import functools
import json
import math
import sys
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

ROOT = "request"


def _size(index: int):
    return lambda args, kwargs, result: np.size(args[index])


# (module, attribute, span name, inline counter or None).  Inline counters
# run after the span closes and must be O(1); they return the amount to add
# to "<span name>.<unit>".
SPANS = (
    ("yinyang.cli", "run", "cli.run", None),
    ("yinyang.verify", "check_axioms", "verify.check_axioms", None),
    ("yinyang.verify", "perfect_profile", "verify.perfect_profile",
     ("fiber_evals", lambda a, k, r: len(r.g) * r.v_nodes)),
    ("yinyang.verify", "rotation_check", "verify.rotation_check", None),
    ("yinyang.verify", "monte_carlo_overlap", "verify.monte_carlo_overlap",
     ("samples", lambda a, k, r: r.samples)),
    ("yinyang.circle_sets", "arc_reflection_overlap_into", "circle_sets.arc_reflection_overlap_into", None),
    ("yinyang.circle_sets", "CircleSet.from_json", "circle_sets.from_json", None),
    ("yinyang.circle_sets", "CircleSet.overlap_profile", "circle_sets.overlap_profile", None),
    ("yinyang.circle_sets", "CircleSet.mean_overlap", "circle_sets.mean_overlap", None),
    ("yinyang.circle_sets", "CircleSet.max_overlap", "circle_sets.max_overlap", None),
    ("yinyang.circle_sets", "CircleSet.rotation_invariant_part", "circle_sets.rotation_invariant_part", None),
    ("yinyang.curves", "AlphaProfile.inverse", "curves.inverse", ("points", _size(1))),
    ("yinyang.curves", "AlphaProfile.evaluate", "curves.evaluate", ("points", _size(1))),
    ("yinyang.curves", "beta_polyline", "curves.beta_polyline", None),
    # spiral samples before de-duplication (origin, steps + 1 radii, closing point) per branch
    ("yinyang.render", "render", "render.render",
     ("points", lambda a, k, r: (math.floor(1.0 / a[0].effective_interpol + 1e-9) + 3) * a[0].parts)),
    ("yinyang.render", "SvgDocument.to_xml", "render.to_xml", ("svg_bytes", lambda a, k, r: len(r))),
)

# Functions called too often for a span each: only their calls are counted.
COUNTED = (
    ("yinyang.circle_sets", "CircleSet.reflection_overlap", "circle_sets.reflection_overlap.calls"),
    ("yinyang.circle_sets", "CircleSet.from_arcs", "circle_sets.from_arcs.calls"),
    ("yinyang.geometry", "DiskPoint.__post_init__", "geometry.disk_point.calls"),
)


def _kinks(profile) -> tuple[int, int]:
    """(breakpoints where the slope really changes, breakpoints evaluated)."""
    bp = np.asarray(profile.breakpoints)
    vals = np.asarray(profile.values)
    n = len(bp)
    if n < 3:
        return 0, n
    dg = np.mod(np.roll(bp, -1) - bp, 1.0)  # breakpoints are sorted in [0, 1)
    with np.errstate(divide="ignore", invalid="ignore"):
        slope = np.where(dg > 1e-9, (np.roll(vals, -1) - vals) / dg, np.nan)
    prev = np.roll(slope, 1)
    same = np.abs(slope - prev) <= 1e-6 * (1.0 + np.abs(slope))
    return int(np.count_nonzero(~same)), n


class Tracer:
    """Records spans and counts while installed; inert otherwise."""

    def __init__(self):
        self.spans: list = []      # (name, start_ns, end_ns, parent index, request id)
        self.counts: dict[str, float] = defaultdict(float)
        self.profiles: list = []   # overlap profiles returned, for the kink ratio
        self.request_id = -1
        self._stack: list[int] = []
        self._restore: list = []

    # -- wrappers -------------------------------------------------------------

    def _span(self, name: str, fn, counter=None):
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter_ns
        calls = name + ".calls"
        keep_profile = name == "circle_sets.overlap_profile"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.request_id)
            counts[calls] += 1
            if counter is not None:
                counts[f"{name}.{counter[0]}"] += counter[1](args, kwargs, result)
            if keep_profile:
                self.profiles.append(result)
            return result

        return wrapper

    def _counted(self, key: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def traced(self, fn, *args):
        """Call fn(*args) inside the root span of one request."""
        return self._span(ROOT, fn)(*args)

    # -- installation -----------------------------------------------------------

    def _replace(self, module: str, attr: str, make) -> None:
        mod = sys.modules[module]
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(mod, cls_name)
            raw = cls.__dict__[meth]
            if isinstance(raw, classmethod):
                setattr(cls, meth, classmethod(make(raw.__func__)))
            else:
                setattr(cls, meth, make(raw))
            self._restore.append((cls, meth, raw))
            return
        original = getattr(mod, attr)
        wrapper = make(original)
        for name, other in list(sys.modules.items()):
            if other is None or not (name == "yinyang" or name.startswith("yinyang.")):
                continue
            for key, value in list(vars(other).items()):
                if value is original:
                    setattr(other, key, wrapper)
                    self._restore.append((other, key, original))

    def install(self) -> None:
        for module, attr, name, counter in SPANS:
            self._replace(module, attr, lambda fn, n=name, c=counter: self._span(n, fn, c))
        for module, attr, key in COUNTED:
            self._replace(module, attr, lambda fn, k=key: self._counted(k, fn))

    def uninstall(self) -> None:
        while self._restore:
            owner, key, value = self._restore.pop()
            setattr(owner, key, value)

    # -- results -----------------------------------------------------------------

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent, rid) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start_ns": start, "end_ns": end,
                                     "parent": parent, "request": rid}) + "\n")

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: inclusive ns, self ns, and ns of curves.inverse children."""
        child_ns = [0] * len(self.spans)
        inverse_child_ns = [0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
                if name == "curves.inverse":
                    inverse_child_ns[parent] += end - start
        out: dict[str, dict[str, float]] = defaultdict(lambda: {"incl": 0, "self": 0, "inverse_children": 0})
        for i, (name, start, end, _, _) in enumerate(self.spans):
            row = out[name]
            row["incl"] += end - start
            row["self"] += end - start - child_ns[i]
            row["inverse_children"] += inverse_child_ns[i]
        return out

    def kink_totals(self) -> tuple[int, int]:
        kinks = evaluated = 0
        for profile in self.profiles:
            k, n = _kinks(profile)
            kinks += k
            evaluated += n
        return kinks, evaluated


def layer_metrics(tracer: Tracer, requests: int, output_bytes: float) -> dict[str, tuple[float, str]]:
    """The per-layer metrics, per traced request unless the name says otherwise."""
    s = tracer.summary()
    c = tracer.counts
    per = 1.0 / requests

    def ms(name: str, kind: str = "incl") -> float:
        return s[name][kind] / 1e6 * per if name in s else 0.0

    def count(key: str) -> float:
        return c.get(key, 0.0) * per

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    pp = s.get("verify.perfect_profile", {"incl": 0, "inverse_children": 0})
    fibers = c.get("verify.perfect_profile.fiber_evals", 0.0)
    inv = s.get("curves.inverse", {"incl": 0})
    mc = s.get("verify.monte_carlo_overlap", {"self": 0})
    kinks, evaluated = tracer.kink_totals()
    return {
        "verify.perfect_profile.ms": (ms("verify.perfect_profile"), "ms"),
        "verify.perfect_profile.fiber_evals": (count("verify.perfect_profile.fiber_evals"), "count"),
        "verify.kernel_ns_per_fiber": (ratio(pp["incl"] - pp["inverse_children"], fibers), "ns"),
        "circle_sets.arc_reflection_overlap_into.ms": (ms("circle_sets.arc_reflection_overlap_into"), "ms"),
        "circle_sets.arc_reflection_overlap_into.calls": (count("circle_sets.arc_reflection_overlap_into.calls"), "count"),
        "verify.check_axioms.self_ms": (ms("verify.check_axioms", "self"), "ms"),
        "curves.beta_polyline.ms": (ms("curves.beta_polyline"), "ms"),
        "geometry.disk_point.calls": (count("geometry.disk_point.calls"), "count"),
        "verify.rotation_check.ms": (ms("verify.rotation_check"), "ms"),
        "circle_sets.rotation_invariant_part.ms": (ms("circle_sets.rotation_invariant_part"), "ms"),
        "circle_sets.rotation_invariant_part.calls": (count("circle_sets.rotation_invariant_part.calls"), "count"),
        "curves.inverse.ms": (ms("curves.inverse"), "ms"),
        "curves.inverse.points": (count("curves.inverse.points"), "count"),
        "curves.inverse.ns_per_point": (ratio(inv["incl"], c.get("curves.inverse.points", 0.0)), "ns"),
        "curves.evaluate.ms": (ms("curves.evaluate"), "ms"),
        "curves.evaluate.points": (count("curves.evaluate.points"), "count"),
        "verify.monte_carlo_overlap.self_ms": (mc["self"] / 1e6 * per, "ms"),
        "verify.monte_carlo_overlap.samples": (count("verify.monte_carlo_overlap.samples"), "count"),
        "circle_sets.overlap_profile.ms": (ms("circle_sets.overlap_profile"), "ms"),
        "circle_sets.overlap_profile.breakpoints": (evaluated * per, "count"),
        "circle_sets.overlap_profile.kink_ratio": (ratio(kinks, evaluated), "ratio"),
        "circle_sets.reflection_overlap.calls": (count("circle_sets.reflection_overlap.calls"), "count"),
        "circle_sets.from_arcs.calls": (count("circle_sets.from_arcs.calls"), "count"),
        "render.render.ms": (ms("render.render"), "ms"),
        "render.to_xml.ms": (ms("render.to_xml"), "ms"),
        "render.svg_bytes": (count("render.to_xml.svg_bytes"), "bytes"),
        "render.points": (count("render.render.points"), "count"),
        "cli.run.self_ms": (ms("cli.run", "self"), "ms"),
        "cli.output_bytes": (output_bytes * per, "bytes"),
    }

"""Exact algebra of finite unions of arcs on the circle R/Z.

A :class:`CircleSet` is its canonical pieces: sorted, disjoint half-open
intervals [start, end) of [0, 1) as float pairs.  Every set operation
(intersection, complement, translation, reflection) reads and writes those
pairs, so measures come out correct to float rounding rather than to some
sampling resolution, and complement is an exact involution.  :class:`Arc`
(start, length) is only outside input and the read-only ``arcs`` view.

The payoff is the reflection-overlap machinery: for a set S and a
reflection x -> g - x of the circle, the overlap

    f(g) = measure(S intersect (g - S))

is a piecewise-linear function of g whose kinks occur only at pairwise
sums of arc endpoints (mod 1).  It is sum_k sigma_k M(g - e_k) over the
endpoints e_k (sigma_k = +1 at a start, -1 at an end) of M(y) = integral_0^y 1_S:
the measure of S inside each reflected arc, which ``CircleSet`` reads at every
breakpoint from one prefix sum over its sorted endpoints.  A4's quadratic ramps
read sums binned on its axes.  Both take the sums below a point, copy terms
included, by one path, :func:`_sums_below`.  So the averaging identity

    integral of f over the circle  =  measure(S)^2

and the strict-maximum check max_g f(g) > measure(S)^2 become 1e-12
assertions instead of quadrature estimates.

Single points have measure zero and are ignored everywhere.  Every operation
hands raw pieces to one counting sweep, ``_merge(pieces, need)``, which sorts
their ends and keeps the points that at least ``need`` pieces cover: 1 for a
complement, translation, reflection or union of arcs, 2 for an intersection
over both sets' pieces, and q for the rotation-invariant part under p/q over
the q translates of a set by k/q.  The one set-algebra tolerance is
EPS = 1e-14, and only that sweep applies it to pieces: it ignores pieces no
longer than EPS, drops runs no longer than EPS, closes gaps no longer than
EPS, and snaps a first start within EPS of 0 and a last end within EPS of 1.
So a canonicalisation moves a measure by at most EPS per piece it ignores,
run it drops or gap it closes: a few EPS, 100x inside the 1e-12 identities
checked on top of it.  EPS still covers about 45 ulps of endpoint rounding
near 1.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .geometry import _shown, finite, integer, mod1

#: Absolute tolerance for endpoint comparisons when merging arcs.
EPS = 1e-14
#: Largest rotation order q: the rotation-invariant part sweeps q translates of a set at
#: once, and the rotation check's report holds about 0.3 * q^2 integrals.
MAX_Q = 1000
#: Values the overlap kernel, the A4 sweep and the oracle work on at a time: 128 KB arrays.
BLOCK = 16_384


@dataclass(frozen=True)
class Arc:
    """A half-open arc [start, start + length) on the circle.

    ``start`` is normalized into [0, 1); ``length`` must lie in (0, 1].
    A length of exactly 1 is the full circle.
    """

    start: float
    length: float

    def __post_init__(self):
        length = finite("arc length", self.length)
        if not 0.0 < length <= 1.0 + EPS:
            raise ValueError(f"arc length must lie in (0, 1], got {length}")
        object.__setattr__(self, "length", min(length, 1.0))
        object.__setattr__(self, "start", mod1(finite("arc start", self.start)))

    @property
    def end(self) -> float:
        return self.start + self.length


def _split_arc(start: float, length: float) -> list[tuple[float, float]]:
    """Split an arc into linear pieces (a, b) with 0 <= a < b <= 1."""
    start = mod1(start)
    end = start + length
    if end <= 1.0:
        return [(start, end)]
    return [(start, 1.0), (0.0, end - 1.0)]


def _merge(pieces: Iterable[tuple[float, float]], need: int = 1) -> tuple[tuple[float, float], ...]:
    """The canonical pieces of the points that at least ``need`` of ``pieces`` cover.

    One sweep over the sorted ends of the pieces longer than EPS counts the
    pieces over each point.  At a tie an end comes before a start, since the
    pieces are half-open.  A run of depth >= ``need`` is kept when it is longer
    than EPS, and joins the run before it across a gap of at most EPS.
    """
    events = sorted(e for a, b in pieces if b - a > EPS for e in ((a, 1), (b, -1)))
    merged: list[list[float]] = []
    depth = 0
    for x, step in events:
        depth += step
        if step > 0 and depth == need:
            start = x
        elif step < 0 and depth == need - 1 and x - start > EPS:
            if merged and start - merged[-1][1] <= EPS:
                merged[-1][1] = x
            else:
                merged.append([start, x])
    if not merged:
        return ()
    # every gap of at most EPS closes, inside [0, 1) or at either end, by the same difference
    # test as the piece filter, so the complement keeps each sliver and is an exact involution
    if merged[0][0] <= EPS:
        merged[0][0] = 0.0
    if 1.0 - merged[-1][1] <= EPS:
        merged[-1][1] = 1.0
    return tuple((a, b) for a, b in merged)


def _prefix_sums(x: np.ndarray) -> np.ndarray:
    """[0, x0, x0 + x1, ..., sum(x)] along the last axis, rounding O(sqrt(n)) additions deep.

    A plain running sum of n terms can drift by n roundings, and A4 sums its
    3G + 1 cells (196 609 at the axis cap) and must agree with the one-pass
    reference within 1e-14 max(1, sum |D|).  So the terms are summed in blocks
    of about sqrt(n) and the block totals are added on afterwards.  Each row
    of a 2-D ``x`` is summed on its own.
    """
    *rows_of, n = x.shape
    b = max(1, math.isqrt(n))
    rows = -(-n // b)
    out = np.zeros((*rows_of, rows * b + 1))
    out[..., 1 : n + 1] = x
    blocks = out[..., 1:].reshape(*rows_of, rows, b)
    np.cumsum(blocks, axis=-1, out=blocks)
    blocks[..., 1:, :] += np.cumsum(blocks[..., :-1, -1], axis=-1)[..., None]
    return out[..., : n + 1]


def _sums_below(x: np.ndarray, sums: np.ndarray, y: np.ndarray) -> list:
    """S_p = sum of w * x^p over the copies x + j of sorted points x in [0, 1] below y.

    Row p of ``sums`` holds the prefix sums of w * x^p over the points, totals
    last, for p < 3.  m = floor(y) is the copy that holds y, and copy 0 adds the
    points at or below y - m.  Copy j adds j to every point, and a copy below 0
    counts negatively, so S_p is copy 0's sum plus m-terms in the lower sums and
    the totals.
    """
    m = np.floor(y)
    c, w = np.take(sums, np.searchsorted(x, y - m, side="right"), axis=1), sums[:, -1]
    s = [c[0] + m * w[0], c[1] + m * c[0] + m * w[1] + 0.5 * m * (m - 1.0) * w[0]]
    if len(sums) > 2:
        s.append(c[2] + m * (2.0 * c[1] + m * c[0]) + m * w[2]
                 + m * (m - 1.0) * (w[1] + (2.0 * m - 1.0) / 6.0 * w[0]))
    return s


@dataclass(frozen=True)
class CircleSet:
    """Canonical finite union of disjoint half-open arcs on the circle.

    ``pieces`` holds exactly what ``_merge`` returns: sorted, disjoint
    (start, end) pairs with 0 <= start < end <= 1.  A set wrapping 1 -> 0 is
    kept split, e.g. an arc of length 0.2 starting at 0.9 is the two pieces
    (0.0, 0.1) and (0.9, 1.0).  Equal sets therefore have identical pieces.  The
    constructor refuses pieces whose ends do not rise strictly from >= 0 to <= 1.
    """

    pieces: tuple[tuple[float, float], ...]

    def __post_init__(self):
        flat = [x for piece in self.pieces for x in piece]
        if flat and not (flat[0] >= 0.0 and flat[-1] <= 1.0 and all(map(operator.lt, flat, flat[1:]))):
            raise ValueError(f"circle set pieces must be sorted, disjoint (start, end) pairs "
                             f"with 0 <= start < end <= 1, got {_shown(self.pieces)}")

    @classmethod
    def empty(cls) -> "CircleSet":
        return cls(())

    @classmethod
    def full(cls) -> "CircleSet":
        return cls(((0.0, 1.0),))

    @classmethod
    def from_arcs(cls, arcs: Iterable[Arc | tuple[float, float]]) -> "CircleSet":
        """Normalize arbitrary arcs (overlapping, wrapping, unsorted) to canonical form.

        A piece (a, b) whose end came from another arc ends at a + (b - a), which its
        arc in the ``arcs`` view reproduces, so ``from_arcs(s.arcs) == s``.
        """
        pieces: list[tuple[float, float]] = []
        for a in arcs:
            if not isinstance(a, Arc):
                a = Arc(*a)
            pieces.extend(_split_arc(a.start, a.length))
        return cls(tuple((a, a + (b - a)) for a, b in _merge(pieces)))

    @classmethod
    def from_json(cls, data: list[list[float]]) -> "CircleSet":
        """The set of a JSON list of [start, length] pairs; any other shape raises ValueError."""
        if not (isinstance(data, list) and all(isinstance(p, list) and len(p) == 2 for p in data)):
            raise ValueError("a circle set must be a JSON list of [start, length] pairs")
        return cls.from_arcs(data)

    @property
    def arcs(self) -> tuple[Arc, ...]:
        return tuple(Arc(a, b - a) for a, b in self.pieces)

    def to_json(self) -> list[list[float]]:
        return [[a, b - a] for a, b in self.pieces]

    # -- measure and membership ------------------------------------------

    def measure(self) -> float:
        return math.fsum(b - a for a, b in self.pieces)

    def contains(self, x: float) -> bool:
        x = mod1(finite("point", x))
        return any(a <= x < b for a, b in self.pieces)

    # -- set operations ---------------------------------------------------

    def intersect(self, other: "CircleSet") -> "CircleSet":
        # the pieces of one canonical set are disjoint, so the points of both are covered twice
        return CircleSet(_merge(self.pieces + other.pieces, need=2))

    def complement(self) -> "CircleSet":
        # the gaps run from each end to the next start: 0, a1, b1, ..., an, bn, 1 taken in pairs
        bounds = [0.0, *(x for piece in self.pieces for x in piece), 1.0]
        return CircleSet(_merge(zip(bounds[::2], bounds[1::2])))

    def translate(self, h: float) -> "CircleSet":
        h = mod1(finite("shift", h))
        return CircleSet(_merge(p for a, b in self.pieces for p in _split_arc(a + h, b - a)))

    def reflect(self, g: float) -> "CircleSet":
        """The reflected set {g - x : x in S}."""
        # [a, b) reflects to (g-b, g-a]; the endpoint flip is measure zero
        g = finite("axis", g)
        return CircleSet(_merge(p for a, b in self.pieces for p in _split_arc(g - b, b - a)))

    # -- reflection overlap -------------------------------------------------

    def _overlaps(self, g: np.ndarray) -> np.ndarray:
        """f(g) = sum_k sigma_k M(g - e_k) at every axis g, over the ends e_k of the pieces.

        M(y) = y S_0 - S_1 sums sigma_l (y - e_l)_+ over the copies e_l + m of the ends
        (negatively below 0), S_p from :func:`_sums_below`.  The constructor keeps the
        ends rising, so one prefix sum serves every axis.  The ramps take ``BLOCK / 4``
        values at a time: chunks of ``BLOCK`` made 1.3 MB of temporaries, which went
        back to the system and were faulted in again at every call.
        """
        ends = np.array(self.pieces).reshape(-1)
        signs = np.tile([1.0, -1.0], len(self.pieces))
        sums = _prefix_sums(np.stack((signs, signs * ends)))
        step = max(1, BLOCK // 4 // len(g))
        out = np.zeros(len(g))
        for i in range(0, len(ends), step):
            y = g - ends[i : i + step, None]
            s0, s1 = _sums_below(ends, sums, y)
            for sign, ramp in zip(signs[i : i + step], y * s0 - s1):
                out += sign * ramp
        return out

    def reflection_overlap(self, g: float) -> float:
        """measure(S intersect (g - S)): the largest subset symmetric under x -> g-x."""
        return float(self._overlaps(np.array([mod1(finite("axis", g))]))[0])

    def overlap_profile(self) -> "OverlapProfile":
        """The exact piecewise-linear profile g -> reflection_overlap(g).

        Kinks of the profile occur only at pairwise sums of arc endpoints
        (mod 1), so evaluating at those breakpoints determines the whole
        function.
        """
        endpoints = sorted({mod1(e) for piece in self.pieces for e in piece})
        sums = sorted({mod1(e1 + e2) for i, e1 in enumerate(endpoints) for e2 in endpoints[i:]})
        breakpoints: list[float] = []
        for s in sums:
            if not breakpoints or s - breakpoints[-1] > EPS:
                breakpoints.append(s)
        if len(breakpoints) > 1 and (breakpoints[0] + 1.0) - breakpoints[-1] <= EPS:
            breakpoints.pop()
        if not breakpoints:
            breakpoints = [0.0]
        values = self._overlaps(np.array(breakpoints))
        return OverlapProfile(breakpoints=tuple(breakpoints), values=tuple(values.tolist()))

    def mean_overlap(self) -> float:
        """Exact circle average of the reflection overlap; equals measure(S)^2."""
        return self.overlap_profile().integral()

    def max_overlap(self) -> tuple[float, float]:
        """Maximize the reflection overlap; returns (g*, overlap at g*).

        The profile is piecewise linear, so the maximum is attained at a
        breakpoint.  Requires 0 < measure < 1: for the empty set and the
        full circle the strict-maximum statement is vacuous.
        """
        m = self.measure()
        if m <= EPS or m >= 1.0 - EPS:
            raise ValueError(f"max_overlap requires 0 < measure < 1, got measure {m}")
        profile = self.overlap_profile()
        idx = max(range(len(profile.values)), key=profile.values.__getitem__)
        return profile.breakpoints[idx], profile.values[idx]

    # -- rotation invariance ------------------------------------------------

    def rotation_invariant_part(self, p: int, q: int) -> "CircleSet":
        """Largest subset of S invariant under rotation by p/q.

        Equals the intersection of all translates of S by multiples of p/q,
        which in lowest terms are the multiples k/q: the points that all q
        translates cover.  Only rational rotations in lowest terms with
        q <= MAX_Q are supported.
        """
        q = integer("rotation order q", q, 2, MAX_Q)
        p = integer("p", p, 1, q - 1)
        if math.gcd(p, q) != 1:
            raise ValueError(f"p/q must be in lowest terms, got {p}/{q}")
        # translate(0) would rebuild each end as a + (b - a), which can move it by an ulp
        pieces = self.pieces + tuple(x for k in range(1, q) for x in self.translate(k / q).pieces)
        return CircleSet(_merge(pieces, need=q))


@dataclass(frozen=True)
class OverlapProfile:
    """Piecewise-linear reflection-overlap profile f(g) on the circle.

    ``breakpoints`` are sorted in [0, 1); ``values`` holds f at the
    breakpoints; between consecutive breakpoints (wrapping from the last
    back to the first) f is affine.
    """

    breakpoints: tuple[float, ...]
    values: tuple[float, ...]

    def __call__(self, g: float) -> float:
        return float(np.interp(finite("axis", g), self.breakpoints, self.values, period=1.0))

    def integral(self) -> float:
        """Integral of f over the full circle (trapezoid over breakpoints, exact)."""
        bp, vals = self.breakpoints, self.values
        ends = bp[1:] + (bp[0] + 1.0,)
        return math.fsum(
            (b - a) * (v + w) / 2.0 for a, b, v, w in zip(bp, ends, vals, vals[1:] + vals[:1])
        )


def arc_reflection_overlap_into(
    neg_base: np.ndarray, length: float, g: float, out: np.ndarray
) -> np.ndarray:
    """Reflection overlap at axis g of many single arcs of one length <= 1/2, into ``out``.

    ``neg_base`` must hold -(2*start + length) for the arc starts; the
    overlap of the arc [start, start + length) at axis g is then
    max(0, |((g + neg_base) mod 1) - 1/2| + length - 1/2).  Nothing in the
    package calls it: the tests sum it over every fiber of the Simpson t-rule
    oracle, at every axis, as the reference for that oracle's ramps, and the
    benchmark's tracer wraps it by name.
    """
    if length > 0.5:
        raise ValueError(f"kernel requires arc length <= 1/2, got {length}")
    np.add(neg_base, g, out=out)
    np.mod(out, 1.0, out=out)
    np.subtract(out, 0.5, out=out)
    np.abs(out, out=out)
    np.add(out, length - 0.5, out=out)
    np.maximum(out, 0.0, out=out)
    return out

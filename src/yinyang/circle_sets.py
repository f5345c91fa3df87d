"""Exact algebra of finite unions of arcs on the circle R/Z.

A :class:`CircleSet` is a canonical, sorted union of half-open arcs
[start, start + length).  All endpoints are plain floats and all set
operations (intersection, complement, translation, reflection) produce
exact endpoint arithmetic, so measures come out correct to float rounding
rather than to some sampling resolution.

The payoff is the reflection-overlap machinery: for a set S and a
reflection x -> g - x of the circle, the overlap

    f(g) = measure(S intersect (g - S))

is a piecewise-linear function of g whose kinks occur only at pairwise
sums of arc endpoints (mod 1).  It is sum_k sigma_k M(g - e_k) over the
endpoints e_k (sigma_k = +1 at a start, -1 at an end) of M(y) = integral_0^y 1_S:
the measure of S inside each reflected arc, which the package's one overlap
kernel :func:`overlap_sums` reads at every breakpoint.  So the averaging identity

    integral of f over the circle  =  measure(S)^2

and the strict-maximum check max_g f(g) > measure(S)^2 become 1e-12
assertions instead of quadrature estimates.

Single points have measure zero and are ignored everywhere.  The one
set-algebra tolerance is EPS = 1e-14, and only the canonicalisation
(``_merge``) applies it to pieces: it drops pieces no longer than EPS,
closes gaps no longer than EPS, and snaps a first start within EPS of 0 and
a last end within EPS of 1.  Every operation hands it raw pieces, so a
canonicalisation moves a measure by at most EPS per piece it drops or gap it
closes: a few EPS, 100x inside the 1e-12 identities checked on top of it.
EPS still covers about 45 ulps of endpoint rounding near 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .geometry import finite, mod1

#: Absolute tolerance for endpoint comparisons when merging arcs.
EPS = 1e-14


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


def _merge(pieces: Iterable[tuple[float, float]]) -> tuple[tuple[float, float], ...]:
    """Sort linear pieces and merge overlaps/adjacencies (within EPS)."""
    items = sorted((a, b) for a, b in pieces if b - a > EPS)
    if not items:
        return ()
    merged: list[list[float]] = [list(items[0])]
    for a, b in items[1:]:
        if a <= merged[-1][1] + EPS:
            merged[-1][1] = max(merged[-1][1], b)
        else:
            merged.append([a, b])
    # a gap of at most EPS at either end of [0, 1) closes like an interior one,
    # so the complement never drops a sliver that the measure still counts
    if merged[0][0] <= EPS:
        merged[0][0] = 0.0
    if merged[-1][1] >= 1.0 - EPS:
        merged[-1][1] = 1.0
    return tuple((a, b) for a, b in merged)


def _prefix_sums(x: np.ndarray) -> np.ndarray:
    """[0, x0, x0 + x1, ..., sum(x)], rounding O(sqrt(n)) additions deep, not O(n).

    A plain running sum of n positive terms can drift by n roundings (it
    does for the periodic Simpson weights), so the terms are summed in
    blocks of about sqrt(n) and the block totals are added on afterwards.
    """
    n = len(x)
    b = max(1, math.isqrt(n))
    rows = -(-n // b)
    out = np.zeros(rows * b + 1)
    out[1 : n + 1] = x
    blocks = out[1:].reshape(rows, b)
    np.cumsum(blocks, axis=1, out=blocks)
    blocks[1:] += np.cumsum(blocks[:-1, -1])[:, None]
    return out[: n + 1]


def overlap_sums(points: np.ndarray, weights: np.ndarray, g, shifts, coefs) -> np.ndarray:
    """sum_j coefs_j * Q(g + shifts_j) at every g, for Q(y) = sum_l w_l * (y - x_l)_+.

    Q sums over the copies x_l + m of the points x_l in [0, 1], counted from the
    start of copy 0: Q(y) = y W(y) - C(y), where W and C sum w and w * x over the
    copies below y (negatively below 0), so on [0, 1) Q sums the points below y.
    One sort and the prefix sums of copy 0 give them; a shift costs one lookup per g.
    """
    order = np.argsort(points)
    x, w = points[order], weights[order]
    del order
    cum_w = _prefix_sums(w)
    cum_wx = _prefix_sums(np.multiply(w, x, out=w))
    out = np.zeros(len(g))
    for shift, coef in zip(shifts, coefs):
        y = g + shift
        m = np.floor(y)  # the copy that holds y
        k = np.searchsorted(x, y - m, side="right")
        sum_w = cum_w[k] + m * cum_w[-1]
        sum_wx = cum_wx[k] + m * cum_w[k] + m * cum_wx[-1] + 0.5 * m * (m - 1.0) * cum_w[-1]
        out += coef * (y * sum_w - sum_wx)
    return out


@dataclass(frozen=True)
class CircleSet:
    """Canonical finite union of disjoint half-open arcs on the circle.

    Stored arcs never cross the wrap point: a set wrapping 1 -> 0 is kept
    split, e.g. an arc of length 0.2 starting at 0.9 is represented as
    the two arcs [0.9, 1.0) and [0.0, 0.1).  Equal sets therefore have
    identical representations.
    """

    arcs: tuple[Arc, ...]

    @classmethod
    def empty(cls) -> "CircleSet":
        return cls(arcs=())

    @classmethod
    def full(cls) -> "CircleSet":
        return cls(arcs=(Arc(0.0, 1.0),))

    @classmethod
    def from_arcs(cls, arcs: Iterable[Arc | tuple[float, float]]) -> "CircleSet":
        """Normalize arbitrary arcs (overlapping, wrapping, unsorted) to canonical form."""
        pieces: list[tuple[float, float]] = []
        for a in arcs:
            if not isinstance(a, Arc):
                a = Arc(*a)
            pieces.extend(_split_arc(a.start, a.length))
        return cls._from_pieces(pieces)

    @classmethod
    def _from_pieces(cls, pieces: Iterable[tuple[float, float]]) -> "CircleSet":
        """Canonical set from linear pieces (a, b) with 0 <= a < b <= 1."""
        return cls(arcs=tuple(Arc(a, b - a) for a, b in _merge(pieces)))

    @classmethod
    def from_json(cls, data: list[list[float]]) -> "CircleSet":
        """The set of a JSON list of [start, length] pairs; any other shape raises ValueError."""
        if not (isinstance(data, list) and all(isinstance(p, list) and len(p) == 2 for p in data)):
            raise ValueError("a circle set must be a JSON list of [start, length] pairs")
        return cls.from_arcs(data)

    def to_json(self) -> list[list[float]]:
        return [[a.start, a.length] for a in self.arcs]

    def _bounds(self) -> list[tuple[float, float]]:
        return [(a.start, a.end) for a in self.arcs]

    # -- measure and membership ------------------------------------------

    def measure(self) -> float:
        return math.fsum(a.length for a in self.arcs)

    def contains(self, x: float) -> bool:
        x = mod1(x)
        return any(a.start <= x < a.end for a in self.arcs)

    # -- set operations ---------------------------------------------------

    def intersect(self, other: "CircleSet") -> "CircleSet":
        return CircleSet._from_pieces(
            (max(a1, a2), min(b1, b2)) for a1, b1 in self._bounds() for a2, b2 in other._bounds()
        )

    def complement(self) -> "CircleSet":
        starts = [a.start for a in self.arcs]
        ends = [a.end for a in self.arcs]
        return CircleSet._from_pieces(zip([0.0] + ends, starts + [1.0]))

    def translate(self, h: float) -> "CircleSet":
        h = mod1(float(h))
        pieces = []
        for a, b in self._bounds():
            pieces.extend(_split_arc(a + h, b - a))
        return CircleSet._from_pieces(pieces)

    def reflect(self, g: float) -> "CircleSet":
        """The reflected set {g - x : x in S}."""
        # [a, b) reflects to (g-b, g-a]; the endpoint flip is measure zero
        g = float(g)
        return self._from_pieces(p for a, b in self._bounds() for p in _split_arc(g - b, b - a))

    # -- reflection overlap -------------------------------------------------

    def _overlaps(self, g: np.ndarray) -> np.ndarray:
        ends = np.array([[a.start, a.end] for a in self.arcs]).reshape(-1)
        signs = np.tile([1.0, -1.0], len(self.arcs))
        return overlap_sums(ends, signs, g, -ends, signs)

    def reflection_overlap(self, g: float) -> float:
        """measure(S intersect (g - S)): the largest subset symmetric under x -> g-x."""
        return float(self._overlaps(np.array([mod1(float(g))]))[0])

    def overlap_profile(self) -> "OverlapProfile":
        """The exact piecewise-linear profile g -> reflection_overlap(g).

        Kinks of the profile occur only at pairwise sums of arc endpoints
        (mod 1), so evaluating at those breakpoints determines the whole
        function.
        """
        endpoints = sorted({a.start for a in self.arcs} | {mod1(a.end) for a in self.arcs})
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

        Equals the intersection of all translates of S by multiples of p/q.
        Only rational rotations in lowest terms are supported.
        """
        if not (isinstance(p, int) and isinstance(q, int)):
            raise ValueError("p and q must be integers")
        if q < 2:
            raise ValueError(f"rotation order q must be >= 2, got {q}")
        if not 0 < p < q:
            raise ValueError(f"need 0 < p < q, got p={p}, q={q}")
        if math.gcd(p, q) != 1:
            raise ValueError(f"p/q must be in lowest terms, got {p}/{q}")
        result = self
        for n in range(1, q):
            # reduce n*p mod q before dividing so repeated shifts stay exact
            result = result.intersect(self.translate(((n * p) % q) / q))
            if not result.arcs:
                return result
        return result


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
        return float(np.interp(float(g), self.breakpoints, self.values, period=1.0))

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
    package calls it: the tests sum it over every axis as the reference for
    ``perfect_profile``, which reads the same sums from :func:`overlap_sums`,
    and the benchmark's tracer wraps it by name.
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

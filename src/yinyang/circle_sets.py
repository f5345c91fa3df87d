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
sums of arc endpoints (mod 1).  Enumerating those breakpoints gives the
overlap profile exactly, which turns the averaging identity

    integral of f over the circle  =  measure(S)^2

and the strict-maximum check max_g f(g) > measure(S)^2 into 1e-12
assertions instead of quadrature estimates.

Single points have measure zero and are ignored everywhere: endpoint
bookkeeping uses an absolute epsilon of 1e-12 (EPS), the single source of
set-algebra tolerance in this module.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .geometry import mod1

#: Absolute tolerance for endpoint comparisons when merging arcs.
EPS = 1e-12


@dataclass(frozen=True)
class Arc:
    """A half-open arc [start, start + length) on the circle.

    ``start`` is normalized into [0, 1); ``length`` must lie in (0, 1].
    A length of exactly 1 is the full circle.
    """

    start: float
    length: float

    def __post_init__(self):
        if not 0.0 < self.length <= 1.0 + EPS:
            raise ValueError(f"arc length must lie in (0, 1], got {self.length}")
        object.__setattr__(self, "length", min(float(self.length), 1.0))
        object.__setattr__(self, "start", mod1(float(self.start)))

    @property
    def end(self) -> float:
        return self.start + self.length


def _split_arc(start: float, length: float) -> list[tuple[float, float]]:
    """Split an arc into linear pieces (a, b) with 0 <= a < b <= 1."""
    start = mod1(start)
    if length >= 1.0 - EPS:
        return [(0.0, 1.0)]
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
    if len(merged) == 1 and merged[0][0] <= EPS and merged[0][1] >= 1.0 - EPS:
        return ((0.0, 1.0),)
    return tuple((a, b) for a, b in merged)


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
        bounds = _merge(pieces)
        return cls(arcs=tuple(Arc(a, b - a) for a, b in bounds))

    @classmethod
    def from_json(cls, data: Sequence[Sequence[float]]) -> "CircleSet":
        return cls.from_arcs((float(s), float(l)) for s, l in data)

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
        out = []
        for a1, b1 in self._bounds():
            for a2, b2 in other._bounds():
                lo, hi = max(a1, a2), min(b1, b2)
                if hi - lo > EPS:
                    out.append((lo, hi))
        return CircleSet(arcs=tuple(Arc(a, b - a) for a, b in _merge(out)))

    def complement(self) -> "CircleSet":
        out = []
        prev = 0.0
        for a, b in self._bounds():
            if a - prev > EPS:
                out.append((prev, a))
            prev = b
        if 1.0 - prev > EPS:
            out.append((prev, 1.0))
        return CircleSet(arcs=tuple(Arc(a, b - a) for a, b in _merge(out)))

    def translate(self, h: float) -> "CircleSet":
        h = mod1(float(h))
        pieces = []
        for a, b in self._bounds():
            pieces.extend(_split_arc(a + h, b - a))
        return CircleSet(arcs=tuple(Arc(a, b - a) for a, b in _merge(pieces)))

    def reflect(self, g: float) -> "CircleSet":
        """The reflected set {g - x : x in S}."""
        g = float(g)
        pieces = []
        for a, b in self._bounds():
            # [a, b) reflects to (g-b, g-a]; the endpoint flip is measure zero
            pieces.extend(_split_arc(g - b, b - a))
        return CircleSet(arcs=tuple(Arc(a, b - a) for a, b in _merge(pieces)))

    # -- reflection overlap -------------------------------------------------

    def reflection_overlap(self, g: float) -> float:
        """measure(S intersect (g - S)): the largest subset symmetric under x -> g-x."""
        g = float(g)
        reflected = _merge(
            piece
            for a, b in self._bounds()
            for piece in _split_arc(g - b, b - a)
        )
        total = 0.0
        for a1, b1 in self._bounds():
            for a2, b2 in reflected:
                lo, hi = max(a1, a2), min(b1, b2)
                if hi > lo:
                    total += hi - lo
        return total

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
        values = [self.reflection_overlap(g) for g in breakpoints]
        return OverlapProfile(breakpoints=tuple(breakpoints), values=tuple(values))

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
        g = mod1(float(g))
        bp, vals = self.breakpoints, self.values
        n = len(bp)
        if n == 1:
            return vals[0]
        i = bisect_right(bp, g) - 1
        if i < 0:
            # g before the first breakpoint: wrap segment from bp[-1]
            g0, g1 = bp[-1] - 1.0, bp[0]
            v0, v1 = vals[-1], vals[0]
        elif i == n - 1:
            g0, g1 = bp[-1], bp[0] + 1.0
            v0, v1 = vals[-1], vals[0]
        else:
            g0, g1 = bp[i], bp[i + 1]
            v0, v1 = vals[i], vals[i + 1]
        if g1 == g0:
            return v0
        t = (g - g0) / (g1 - g0)
        return v0 + t * (v1 - v0)

    def integral(self) -> float:
        """Integral of f over the full circle (trapezoid over breakpoints, exact)."""
        bp, vals = self.breakpoints, self.values
        n = len(bp)
        if n == 1:
            return vals[0]
        terms = []
        for i in range(n):
            j = (i + 1) % n
            dg = bp[j] - bp[i] if j > 0 else bp[0] + 1.0 - bp[-1]
            terms.append(dg * (vals[i] + vals[j]) / 2.0)
        return math.fsum(terms)

    def max(self) -> tuple[float, float]:
        idx = max(range(len(self.values)), key=self.values.__getitem__)
        return self.breakpoints[idx], self.values[idx]


# -- module-level spellings of the core operations ---------------------------


def normalize(arcs: Iterable[Arc | tuple[float, float]]) -> CircleSet:
    """Canonicalize a list of arcs into a CircleSet (union semantics)."""
    return CircleSet.from_arcs(arcs)


def measure(s: CircleSet) -> float:
    return s.measure()


def intersect(s: CircleSet, t: CircleSet) -> CircleSet:
    return s.intersect(t)


def complement(s: CircleSet) -> CircleSet:
    return s.complement()


def translate(s: CircleSet, h: float) -> CircleSet:
    return s.translate(h)


def reflect(s: CircleSet, g: float) -> CircleSet:
    return s.reflect(g)


def reflection_overlap(s: CircleSet, g: float) -> float:
    return s.reflection_overlap(g)


def overlap_profile(s: CircleSet) -> OverlapProfile:
    return s.overlap_profile()


def mean_overlap(s: CircleSet) -> float:
    return s.mean_overlap()


def max_overlap(s: CircleSet) -> tuple[float, float]:
    return s.max_overlap()


def rotation_invariant_part(s: CircleSet, p: int, q: int) -> CircleSet:
    return s.rotation_invariant_part(p, q)


def arc_reflection_overlap(start, length: float, g):
    """Reflection overlap for a single arc [start, start+length), vectorized.

    This is the exact closed form of ``CircleSet.reflection_overlap`` when
    the set is one arc: with delta = (g - 2*start - length) mod 1 the
    overlap is max(0, length - delta) + max(0, delta + length - 1).
    ``start`` and ``g`` may be scalars or broadcastable numpy arrays.
    """
    delta = np.mod(np.asarray(g, dtype=float) - 2.0 * np.asarray(start, dtype=float) - length, 1.0)
    out = np.maximum(0.0, length - delta) + np.maximum(0.0, delta + length - 1.0)
    if np.ndim(out) == 0:
        return float(out)
    return out


def arc_reflection_overlap_into(
    neg_base: np.ndarray, length: float, g: float, out: np.ndarray
) -> np.ndarray:
    """Allocation-free form of :func:`arc_reflection_overlap` for length <= 1/2.

    ``neg_base`` must hold -(2*start + length) for the arc starts; the
    overlap at axis g is then max(0, |((g + neg_base) mod 1) - 1/2| + length - 1/2),
    which agrees with the two-term closed form whenever length <= 1/2.
    One call evaluates one axis g over many arcs; the tests sum it over
    every axis as the reference for the sorted sweep of ``perfect_profile``.
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

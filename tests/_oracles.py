"""Reference implementations used to pin expected test values.

These deliberately avoid the library's overlap kernel: membership is
counted on dense midpoint grids, a single arc's overlap is written in
closed form, or two arc lists are intersected pairwise, so any agreement
with the library is evidence, not tautology.  The A4 profile's reference is
the integral over heights v, each slice located by the profile's inverse,
which the library's integral over the curve parameter t replaces.
"""

from __future__ import annotations

import numpy as np

from yinyang.circle_sets import CircleSet, overlap_sums
from yinyang.verify import MAX_V_QUADRATURE


def grid_membership(arcs: list[tuple[float, float]], x: np.ndarray) -> np.ndarray:
    """Indicator of union of arcs [start, start+length) mod 1, evaluated at x."""
    inside = np.zeros_like(x, dtype=bool)
    for start, length in arcs:
        rel = np.mod(x - start, 1.0)
        inside |= rel < length
    return inside


def grid_reflection_overlap(arcs: list[tuple[float, float]], g: float, n: int = 4_000_000) -> float:
    """measure(S intersect (g - S)) by midpoint-grid counting."""
    x = (np.arange(n) + 0.5) / n
    hits = grid_membership(arcs, x) & grid_membership(arcs, np.mod(g - x, 1.0))
    return float(np.count_nonzero(hits)) / n


def pairwise_reflection_overlap(s: CircleSet, g: float) -> float:
    """measure(S intersect (g - S)) by intersecting every arc with every reflected arc.

    O(n^2) in the arc count; the library reads the same measure from the
    cumulative measure of S at the reflected endpoints.
    """
    reflected = []  # [a, b) reflects to (g - b, g - a], split at the wrap point, not merged
    for a in s.arcs:
        start = (g - a.end) % 1.0
        end = start + a.length
        reflected += [(start, end)] if end <= 1.0 else [(start, 1.0), (0.0, end - 1.0)]
    total = 0.0
    for a1 in s.arcs:
        for a2, b2 in reflected:
            lo, hi = max(a1.start, a2), min(a1.end, b2)
            if hi > lo:
                total += hi - lo
    return total


def grid_overlap_profile(
    arcs: list[tuple[float, float]], g_points: int = 10_000, n: int = 200_000
) -> tuple[np.ndarray, np.ndarray]:
    """Sampled overlap profile on a uniform g grid (coarse but independent)."""
    x = (np.arange(n) + 0.5) / n
    in_s = grid_membership(arcs, x)
    g = np.arange(g_points) / g_points
    values = np.empty(g_points)
    for i, gi in enumerate(g):
        values[i] = np.count_nonzero(in_s & grid_membership(arcs, np.mod(gi - x, 1.0))) / n
    return g, values


def grid_max_overlap(
    arcs: list[tuple[float, float]], g_points: int = 10_000, n: int = 200_000
) -> tuple[float, float]:
    g, values = grid_overlap_profile(arcs, g_points, n)
    i = int(np.argmax(values))
    return float(g[i]), float(values[i])


def arc_reflection_overlap(start, length: float, g):
    """Reflection overlap of the single arc [start, start+length), vectorized.

    With delta = (g - 2*start - length) mod 1 the overlap is
    max(0, length - delta) + max(0, delta + length - 1).  ``start`` and ``g``
    may be scalars or broadcastable numpy arrays.
    """
    delta = np.mod(np.asarray(g, dtype=float) - 2.0 * np.asarray(start, dtype=float) - length, 1.0)
    out = np.maximum(0.0, length - delta) + np.maximum(0.0, delta + length - 1.0)
    if np.ndim(out) == 0:
        return float(out)
    return out


def annular_sector_area(r1: float, r2: float, phi1: float, phi2: float) -> float:
    """Area of {r1 <= r <= r2, phi1 <= phi <= phi2} in the plane."""
    return 0.5 * (r2 * r2 - r1 * r1) * (phi2 - phi1)


def v_quadrature_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights integrating over v in (0, 1), endpoints excluded.

    Composite Simpson on a uniform grid offset half a step from the
    endpoints (the profile inverse can be ill-behaved at v -> 0 for table
    profiles); the two half-step tails are closed with rectangles.  The
    node count is rounded up to odd; weights sum to 1 exactly.
    """
    if not 2 <= n <= MAX_V_QUADRATURE:
        raise ValueError(f"need 2 to {MAX_V_QUADRATURE} quadrature nodes, got {n}")
    m = n if n % 2 == 1 else n + 1
    h = 1.0 / m
    nodes = (np.arange(m) + 0.5) * h
    w = np.full(m, 2.0 * h / 3.0)
    w[1::2] = 4.0 * h / 3.0
    w[0] = w[-1] = h / 3.0
    w[0] += h / 2.0
    w[-1] += h / 2.0
    return nodes, w


def v_path_profile_values(spec, g_grid: int, v_quadrature: int) -> np.ndarray:
    """f(g) integrated over heights: v on :func:`v_quadrature_rule`, slices at alpha^{-1}(v).

    The overlap kernel is shared with the library; it is checked against
    the G x V kernel on its own.
    """
    length = 1.0 / spec.parts
    nodes, w = v_quadrature_rule(v_quadrature)
    centres = np.mod(2.0 * spec.alpha_profile().inverse(nodes) + length, 1.0)
    g = np.arange(g_grid) / g_grid
    return overlap_sums(centres, w, g, (length, 0.0, -length), (1.0, -2.0, 1.0))

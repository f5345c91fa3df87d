"""Reference implementations used to pin expected test values.

These deliberately avoid the library's exact arc algebra: membership is
counted on dense midpoint grids, or a single arc's overlap is written in
closed form, so any agreement with the library is evidence, not tautology.
"""

from __future__ import annotations

import numpy as np


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

"""Spiral curve families on the unit-area disk, described by height profiles.

Every curve handled here is a spiral branch through the disk center plus
its rotated copies.  Under the disk-to-cylinder transform the first branch
becomes the graph of a strictly increasing function

    v = alpha(u),   0 < u <= turns/2,   alpha(turns/2) = 1,  alpha(0+) = 0,

and the whole symbol is determined by alpha, the turn count and the number
of congruent parts.  Each family is one subclass of :class:`AlphaProfile`:

* ``fermat``, ``Fermat(turns)`` -- alpha(u) = (2/turns) * u.  One turn gives
  the line v = 2u, whose disk preimage is the spiral pi^2 r^2 = phi; two
  turns give 2 pi^2 r^2 = phi.
* ``sine``, ``Sine(lam)`` -- alpha(u) = 2u + (lam/pi) sin(8 pi u), one turn,
  0 < lam < 1/4.  Satisfies the quarter-shift relation
  alpha(u + 1/4) = alpha(u) + 1/2 exactly.
* ``ck``, ``Ck(lam, k)`` -- one turn, alpha = f with
  f(u) = 2u + lam * u^(k+1) (1/4 - u)^(k+1) on [0, 1/4] and
  f(u) = 1/2 + f(u - 1/4) on [1/4, 1/2]; k times continuously
  differentiable at the seam.  lam must keep f strictly increasing,
  which is validated on a dense grid at construction.
* ``custom``, ``Table(samples)`` -- a monotone sample table, interpolated linearly.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .circle_sets import CircleSet
from .geometry import DiskPoint, check_parts, disk_to_cylinder, finite, mod1

#: Turn counts lie in [1/MAX_TURNS, MAX_TURNS]; at MAX_TURNS the A4 tent centres
#: (2t + L) mod 1 still resolve to about 1e-10.
MAX_TURNS = 1e6

_INVERSE_BISECTIONS = 64  # enough to exhaust float64 resolution on (0, turns/2]


class AlphaProfile(ABC):
    """Height profile v = alpha(u) of one spiral branch on the cylinder.

    ``evaluate`` and ``inverse`` accept scalars or numpy arrays.  The
    profile is strictly increasing from 0 (exclusive) at u -> 0 to 1 at
    u = domain_end = turns/2.  A family gives the formula ``_alpha`` and its
    ``derivative``, may list interior ``seams`` where the derivative is not
    smooth, and may replace the bisection ``_inverse`` by a closed form.
    """

    def __init__(self, turns: float):
        if not 1.0 / MAX_TURNS <= turns <= MAX_TURNS:
            raise ValueError(f"turns {turns} lies outside [{1 / MAX_TURNS:g}, {MAX_TURNS:g}]")
        self.turns = turns

    @property
    def domain_end(self) -> float:
        return self.turns / 2.0

    def evaluate(self, u):
        scalar = np.ndim(u) == 0
        out = self._alpha(np.asarray(u, dtype=float))
        return float(out) if scalar else out

    def inverse(self, v):
        """The unique u with alpha(u) = v, for v in (0, 1]."""
        scalar = np.ndim(v) == 0
        v = np.asarray(v, dtype=float)
        if not np.all((v >= 0.0) & (v <= 1.0 + 1e-12)):  # NaN fails both comparisons
            raise ValueError("inverse argument must lie in (0, 1]")
        out = self._inverse(v)
        return float(out) if scalar else out

    @abstractmethod
    def _alpha(self, u: np.ndarray) -> np.ndarray:
        """alpha(u) on an array of u."""

    @abstractmethod
    def derivative(self, u: np.ndarray) -> np.ndarray:
        """alpha'(u) on an array of u in [0, domain_end]; the left limit at a seam."""

    def seams(self) -> np.ndarray:
        """Ends of the pieces on which alpha is smooth: 0, interior seams, domain_end."""
        return np.array([0.0, self.domain_end])

    def _inverse(self, v: np.ndarray) -> np.ndarray:
        lo = np.zeros_like(v)
        hi = np.full_like(v, self.domain_end)
        for _ in range(_INVERSE_BISECTIONS):
            mid = 0.5 * (lo + hi)
            below = self.evaluate(mid) < v
            lo = np.where(below, mid, lo)
            hi = np.where(below, hi, mid)
        return 0.5 * (lo + hi)


class Fermat(AlphaProfile):
    """Linear profile alpha(u) = (2/turns) u for the turns-turn spiral."""

    def __init__(self, turns: float):
        super().__init__(finite("turns", turns))

    def _alpha(self, u):
        return (2.0 / self.turns) * u

    def derivative(self, u):
        return np.full_like(u, 2.0 / self.turns)

    def _inverse(self, v):
        return (self.turns / 2.0) * v


class Sine(AlphaProfile):
    """One-turn profile 2u + (lam/pi) sin(8 pi u); requires 0 < lam < 1/4."""

    def __init__(self, lam: float):
        super().__init__(1.0)
        self.lam = finite("lambda", lam)
        if not 0.0 < self.lam < 0.25:
            raise ValueError(f"sine variant requires 0 < lambda < 1/4, got {self.lam}")

    def _alpha(self, u):
        return 2.0 * u + (self.lam / math.pi) * np.sin(8.0 * math.pi * u)

    def derivative(self, u):
        return 2.0 + 8.0 * self.lam * np.cos(8.0 * math.pi * u)


class Ck(AlphaProfile):
    """One-turn piecewise-polynomial profile, k times differentiable at u=1/4.

    Rejects lam values for which the first half loses monotonicity; the
    error message reports a witness u with non-positive derivative.
    """

    def __init__(self, lam: float, k: int):
        super().__init__(1.0)
        lam = finite("lambda", lam)
        if not lam > 0:
            raise ValueError(f"ck variant requires lambda > 0, got {lam}")
        if isinstance(k, bool) or not (isinstance(k, int) and k >= 0):
            raise ValueError(f"smoothness order k must be a non-negative integer, got {k}")
        self.lam, self.k = lam, k
        grid = np.linspace(0.0, 0.25, 10_001)
        deriv = self.derivative(grid)
        worst = int(np.argmin(deriv))
        if deriv[worst] <= 0.0:
            raise ValueError(
                f"lambda={lam} breaks monotonicity: derivative {deriv[worst]:.6g} "
                f"at u={grid[worst]:.6g}"
            )

    def _half(self, u):
        return 2.0 * u + self.lam * u ** (self.k + 1) * (0.25 - u) ** (self.k + 1)

    def _half_derivative(self, u):
        return 2.0 + self.lam * (self.k + 1) * (u * (0.25 - u)) ** self.k * (0.25 - 2.0 * u)

    def _alpha(self, u):
        upper = u > 0.25  # reduce u once and add 1/2 on the upper half
        return 0.5 * upper + self._half(u - 0.25 * upper)

    def derivative(self, u):
        return self._half_derivative(np.where(u <= 0.25, u, u - 0.25))

    def seams(self):
        return np.array([0.0, 0.25, 0.5])


def _sample_table(samples) -> tuple[tuple[float, float], ...]:
    """A sample table as float pairs: a non-empty sequence of [u, v] pairs of finite numbers."""
    if not (isinstance(samples, (list, tuple)) and samples):
        raise ValueError(f"sample table must be a non-empty list of [u, v] pairs, got {samples}")
    for i, pair in enumerate(samples):
        if not (isinstance(pair, (list, tuple)) and len(pair) == 2):
            raise ValueError(f"sample table entry {i} must be a [u, v] pair, got {pair}")
    return tuple((finite(f"sample table entry {i}", u), finite(f"sample table entry {i}", v))
                 for i, (u, v) in enumerate(samples))


class Table(AlphaProfile):
    """Profile from a monotone (u, v) sample table, interpolated linearly.

    The table must be finite, strictly increasing in both coordinates and end at
    v = 1; a (0, 0) anchor is prepended when missing.  Violations are hard
    errors.  ``samples`` keeps the table as given, as float pairs.
    """

    def __init__(self, samples: Sequence[Sequence[float]]):
        self.samples = table = _sample_table(samples)
        if table[0][0] > 0.0 or table[0][1] > 0.0:
            table = ((0.0, 0.0), *table)
        u, v = np.array(table).T.copy()
        for name, step in (("u", np.diff(u)), ("v", np.diff(v))):
            if np.any(step <= 0.0):
                raise ValueError(f"sample {name} values must increase strictly "
                                 f"(violation near index {int(np.argmin(step))})")
        if abs(v[-1] - 1.0) > 1e-9:
            raise ValueError(f"profile must reach 1 at its last sample, got {v[-1]}")
        v[-1] = 1.0
        super().__init__(2.0 * float(u[-1]))
        self._u, self._v = u, v
        self._slopes = np.diff(v) / np.diff(u)

    def _alpha(self, u):
        return np.interp(u, self._u, self._v)

    def derivative(self, u):
        # segment s spans (knot s, knot s + 1]: a knot takes the slope on its left
        return self._slopes[np.searchsorted(self._u[1:-1], u)]

    def seams(self):
        return self._u.copy()

    def _inverse(self, v):
        return np.interp(v, self._v, self._u)


#: Each family's profile type and the CurveSpec fields its constructor takes, in order.
FAMILIES = {"fermat": (Fermat, ("turns",)), "sine": (Sine, ("lam",)),
            "ck": (Ck, ("lam", "k")), "custom": (Table, ("samples",))}


@dataclass(frozen=True)
class CurveSpec:
    """Declarative description of one symbol: family, parameters, part count.

    ``samples`` (for the custom family) is a tuple of (u, v) pairs so the
    spec stays hashable; ``lam`` appears as "lambda" in JSON.  A family refuses
    a parameter it does not take (FAMILIES); the profile is built once.
    """

    family: str
    turns: float = 1.0
    lam: float | None = None
    k: int | None = None
    parts: int = 2
    samples: tuple[tuple[float, float], ...] | None = None

    def __post_init__(self):
        if not (isinstance(self.family, str) and self.family in FAMILIES):
            raise ValueError(f"unknown family {self.family!r}, expected one of {tuple(FAMILIES)}")
        check_parts(self.parts)
        object.__setattr__(self, "turns", finite("turns", self.turns))
        kind, takes = FAMILIES[self.family]
        for field, name in (("lam", "lambda"), ("k", "k"), ("samples", "samples")):
            if (getattr(self, field) is None) == (field in takes):
                verb = "requires" if field in takes else "takes no"
                raise ValueError(f"{self.family} family {verb} {name}")
        profile = kind(*(getattr(self, field) for field in takes))
        # sine and ck span one turn and a table its own count; turns=1 takes the profile's
        if self.turns != 1.0 and abs(self.turns - profile.turns) > 1e-9:
            raise ValueError(f"{self.family} profile spans turns={profile.turns}, not {self.turns}")
        for field in ("turns", *takes):  # each value as the profile converted it
            object.__setattr__(self, field, getattr(profile, field))
        object.__setattr__(self, "_profile", profile)

    def alpha_profile(self) -> AlphaProfile:
        return self._profile

    def to_json(self) -> dict:
        out: dict = {"family": self.family, "turns": self.turns, "parts": self.parts}
        if self.lam is not None:
            out["lambda"] = self.lam
        if self.k is not None:
            out["k"] = self.k
        if self.samples is not None:
            out["samples"] = [[u, v] for u, v in self.samples]
        return out

    @classmethod
    def from_json(cls, data: dict) -> "CurveSpec":
        return cls(
            family=data.get("family"),
            turns=data.get("turns", 1.0),
            lam=data.get("lambda"),
            k=data.get("k"),
            parts=data.get("parts", 2),
            samples=data.get("samples"),
        )


def section(spec: CurveSpec, v: float) -> CircleSet:
    """The circle slice of the first part at height v: an arc of length 1/parts.

    The slice starts where the first branch crosses height v, i.e. at
    alpha^{-1}(v) mod 1.
    """
    start = mod1(spec.alpha_profile().inverse(v))
    return CircleSet.from_arcs([(start, 1.0 / spec.parts)])


def contains(spec: CurveSpec, p: DiskPoint) -> bool:
    """Membership of a disk point in the first part of the symbol."""
    c = disk_to_cylinder(p)
    t = spec.alpha_profile().inverse(c.v)
    return mod1(mod1(c.u) - t) < 1.0 / spec.parts


def branch_polylines(spec: CurveSpec, n: int) -> np.ndarray:
    """Polar samples of every branch: shape (parts, n, 2), rows (r, phi).

    Branch j is branch 0 rotated by 2 pi j / parts.  Points on branch 0 are
    taken at u = (i+1)/n * turns/2, so the last point sits on the disk rim.
    The angle is not reduced modulo 2 pi.
    """
    if n < 2:
        raise ValueError(f"need at least 2 points per branch, got {n}")
    profile = spec.alpha_profile()
    u = (np.arange(1, n + 1) / n) * profile.domain_end
    out = np.empty((spec.parts, n, 2))
    out[:, :, 0] = np.sqrt(profile.evaluate(u) / math.pi)
    out[:, :, 1] = 2.0 * math.pi * (u + (np.arange(spec.parts) / spec.parts)[:, None])
    return out


def beta_polyline(spec: CurveSpec, n: int) -> list[DiskPoint]:
    """Sample the symbol's boundary: n disk points per branch, all branches.

    The points of :func:`branch_polylines`, branch after branch.
    """
    return [DiskPoint(r=float(r), phi=float(phi))
            for r, phi in branch_polylines(spec, n).reshape(-1, 2)]


def polyline_turning_angles(polar: np.ndarray) -> np.ndarray:
    """Unsigned angles (radians) between consecutive chords of a polyline.

    ``polar`` is an (n, 2) array of (r, phi) vertices, as one branch of
    :func:`branch_polylines`.
    """
    r, phi = polar[:, 0], polar[:, 1]
    chords = np.diff(np.stack((r * np.cos(phi), r * np.sin(phi)), axis=1), axis=0)
    norms = np.linalg.norm(chords, axis=1)
    keep = norms > 1e-15
    chords = chords[keep]
    dots = np.sum(chords[:-1] * chords[1:], axis=1)
    cross = chords[:-1, 0] * chords[1:, 1] - chords[:-1, 1] * chords[1:, 0]
    return np.abs(np.arctan2(cross, dots))


CURVE_PRESETS: dict[str, CurveSpec] = {
    "classic": CurveSpec(family="fermat", turns=1.0),
    "two-turn": CurveSpec(family="fermat", turns=2.0),
    "sine-mild": CurveSpec(family="sine", lam=0.1),
    "ck-smooth": CurveSpec(family="ck", lam=1.0, k=1),
}

CURVE_PRESET_NOTES: dict[str, str] = {
    "classic": "one-turn spiral, the unique smooth balanced symbol",
    "two-turn": "crosses each radius twice; balanced like the one-turn form",
    "sine-mild": "analytic one-turn variant, balanced but not algebraic",
    "ck-smooth": "algebraic one-turn variant, exactly k times differentiable",
}

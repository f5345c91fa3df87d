"""Spiral curve families on the unit-area disk, described by height profiles.

Every curve handled here is a spiral branch through the disk center plus
its rotated copies.  Under the disk-to-cylinder transform the first branch
becomes the graph of a strictly increasing function

    v = alpha(u),   0 < u <= turns/2,   alpha(turns/2) = 1,  alpha(0+) = 0,

and the whole symbol is determined by alpha, the turn count and the number
of congruent parts.  Families:

* ``fermat``  -- alpha(u) = (2/turns) * u.  One turn gives the line v = 2u,
  whose disk preimage is the spiral pi^2 r^2 = phi; two turns give
  2 pi^2 r^2 = phi.
* ``sine``    -- alpha(u) = 2u + (lam/pi) sin(8 pi u), one turn,
  0 < lam < 1/4.  Satisfies the quarter-shift relation
  alpha(u + 1/4) = alpha(u) + 1/2 exactly.
* ``ck``      -- one turn, alpha = f with
  f(u) = 2u + lam * u^(k+1) (1/4 - u)^(k+1) on [0, 1/4] and
  f(u) = 1/2 + f(u - 1/4) on [1/4, 1/2]; k times continuously
  differentiable at the seam.  lam must keep f strictly increasing,
  which is validated on a dense grid at construction.
* ``custom``  -- a monotone sample table, interpolated piecewise-linearly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .circle_sets import CircleSet
from .geometry import DiskPoint, disk_to_cylinder, mod1

FAMILIES = ("fermat", "sine", "ck", "custom")

_INVERSE_BISECTIONS = 64  # enough to exhaust float64 resolution on (0, turns/2]


@dataclass(frozen=True, eq=False)
class AlphaProfile:
    """Height profile v = alpha(u) of one spiral branch on the cylinder.

    ``evaluate`` and ``inverse`` accept scalars or numpy arrays.  The
    profile is strictly increasing from 0 (exclusive) at u -> 0 to 1 at
    u = domain_end = turns/2.
    """

    family: str
    turns: float
    lam: float | None = None
    k: int | None = None
    u_table: np.ndarray | None = None
    v_table: np.ndarray | None = None

    @property
    def domain_end(self) -> float:
        return self.turns / 2.0

    def evaluate(self, u):
        scalar = np.ndim(u) == 0
        u = np.asarray(u, dtype=float)
        if self.family == "fermat":
            out = (2.0 / self.turns) * u
        elif self.family == "sine":
            out = 2.0 * u + (self.lam / math.pi) * np.sin(8.0 * math.pi * u)
        elif self.family == "ck":
            out = np.where(u <= 0.25, _ck_half(u, self.lam, self.k),
                           0.5 + _ck_half(u - 0.25, self.lam, self.k))
        else:
            out = np.interp(u, self.u_table, self.v_table)
        return float(out) if scalar else out

    def inverse(self, v):
        """The unique u with alpha(u) = v, for v in (0, 1]."""
        scalar = np.ndim(v) == 0
        v = np.asarray(v, dtype=float)
        if np.any(v < 0.0) or np.any(v > 1.0 + 1e-12):
            raise ValueError("inverse argument must lie in (0, 1]")
        if self.family == "fermat":
            out = (self.turns / 2.0) * v
        elif self.family == "custom":
            out = np.interp(v, self.v_table, self.u_table)
        else:
            out = _bisect_inverse(self.evaluate, v, self.domain_end)
        return float(out) if scalar else out


def _ck_half(u, lam: float, k: int):
    return 2.0 * u + lam * u ** (k + 1) * (0.25 - u) ** (k + 1)


def _ck_half_derivative(u, lam: float, k: int):
    return 2.0 + lam * (k + 1) * u**k * (0.25 - u) ** k * (0.25 - 2.0 * u)


def _bisect_inverse(fn, v: np.ndarray, domain_end: float) -> np.ndarray:
    lo = np.zeros_like(v)
    hi = np.full_like(v, domain_end)
    for _ in range(_INVERSE_BISECTIONS):
        mid = 0.5 * (lo + hi)
        below = fn(mid) < v
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    return 0.5 * (lo + hi)


def make_fermat(turns: float) -> AlphaProfile:
    """Linear profile alpha(u) = (2/turns) u for the turns-turn spiral."""
    if not (math.isfinite(turns) and turns > 0):
        raise ValueError(f"turns must be a finite positive number, got {turns}")
    return AlphaProfile(family="fermat", turns=float(turns))


def make_sine_variant(lam: float) -> AlphaProfile:
    """One-turn profile 2u + (lam/pi) sin(8 pi u); requires 0 < lam < 1/4."""
    if not 0.0 < lam < 0.25:
        raise ValueError(f"sine variant requires 0 < lambda < 1/4, got {lam}")
    return AlphaProfile(family="sine", turns=1.0, lam=float(lam))


def make_ck_variant(lam: float, k: int) -> AlphaProfile:
    """One-turn piecewise-polynomial profile, k times differentiable at u=1/4.

    Rejects lam values for which the first half loses monotonicity; the
    error message reports a witness u with non-positive derivative.
    """
    if not (math.isfinite(lam) and lam > 0):
        raise ValueError(f"ck variant requires a finite lambda > 0, got {lam}")
    if not (isinstance(k, int) and k >= 0):
        raise ValueError(f"smoothness order k must be a non-negative integer, got {k}")
    grid = np.linspace(0.0, 0.25, 10_001)
    deriv = _ck_half_derivative(grid, lam, k)
    worst = int(np.argmin(deriv))
    if deriv[worst] <= 0.0:
        raise ValueError(
            f"lambda={lam} breaks monotonicity: derivative {deriv[worst]:.6g} "
            f"at u={grid[worst]:.6g}"
        )
    return AlphaProfile(family="ck", turns=1.0, lam=float(lam), k=int(k))


def make_custom(samples: Sequence[Sequence[float]]) -> AlphaProfile:
    """Profile from a monotone (u, v) sample table, interpolated linearly.

    The table must be strictly increasing in both coordinates and end at
    v = 1; a (0, 0) anchor is prepended when missing.  Violations are hard
    errors.
    """
    pts = [(float(u), float(v)) for u, v in samples]
    if not pts:
        raise ValueError("custom profile needs at least one sample")
    if pts[0][0] > 0.0 or pts[0][1] > 0.0:
        pts.insert(0, (0.0, 0.0))
    u = np.array([p[0] for p in pts])
    v = np.array([p[1] for p in pts])
    if np.any(np.diff(u) <= 0.0):
        i = int(np.argmin(np.diff(u)))
        raise ValueError(f"sample u values must increase strictly (violation near index {i})")
    if np.any(np.diff(v) <= 0.0):
        i = int(np.argmin(np.diff(v)))
        raise ValueError(f"sample v values must increase strictly (violation near index {i})")
    if abs(v[-1] - 1.0) > 1e-9:
        raise ValueError(f"profile must reach 1 at its last sample, got {v[-1]}")
    v[-1] = 1.0
    return AlphaProfile(family="custom", turns=2.0 * float(u[-1]), u_table=u, v_table=v)


@dataclass(frozen=True)
class CurveSpec:
    """Declarative description of one symbol: family, parameters, part count.

    ``samples`` (for the custom family) is a tuple of (u, v) pairs so the
    spec stays hashable; ``lam`` appears as "lambda" in JSON.
    """

    family: str
    turns: float = 1.0
    lam: float | None = None
    k: int | None = None
    parts: int = 2
    samples: tuple[tuple[float, float], ...] | None = None

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}, expected one of {FAMILIES}")
        if not (isinstance(self.parts, int) and self.parts >= 2):
            raise ValueError(f"parts must be an integer >= 2, got {self.parts}")
        for name, value in (("turns", self.turns), ("lambda", self.lam)):
            if value is not None and not math.isfinite(value):
                raise ValueError(f"{name} must be a finite number, got {value}")
        if self.family in ("sine", "ck") and self.turns != 1.0:
            raise ValueError(f"{self.family} family is one-turn only, got turns={self.turns}")
        if self.family == "custom" and not self.samples:
            raise ValueError("custom family requires a sample table")
        if self.samples is not None:
            object.__setattr__(
                self, "samples", tuple((float(u), float(v)) for u, v in self.samples)
            )
        if self.family == "custom":
            # the table defines the turn count (domain end = turns/2)
            table_turns = 2.0 * self.samples[-1][0]
            if self.turns != 1.0 and abs(self.turns - table_turns) > 1e-9:
                raise ValueError(
                    f"sample table spans turns={table_turns}, spec says turns={self.turns}"
                )
            object.__setattr__(self, "turns", table_turns)
        _profile_for(self)  # enforce family parameter ranges eagerly

    def alpha_profile(self) -> AlphaProfile:
        return _profile_for(self)

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
        samples = data.get("samples")
        return cls(
            family=data["family"],
            turns=float(data.get("turns", 1.0)),
            lam=None if data.get("lambda") is None else float(data["lambda"]),
            k=None if data.get("k") is None else int(data["k"]),
            parts=int(data.get("parts", 2)),
            samples=None if samples is None else tuple((float(u), float(v)) for u, v in samples),
        )


@lru_cache(maxsize=64)
def _profile_for(spec: CurveSpec) -> AlphaProfile:
    if spec.family == "fermat":
        return make_fermat(spec.turns)
    if spec.family == "sine":
        if spec.lam is None:
            raise ValueError("sine family requires lambda")
        return make_sine_variant(spec.lam)
    if spec.family == "ck":
        if spec.lam is None or spec.k is None:
            raise ValueError("ck family requires lambda and k")
        return make_ck_variant(spec.lam, spec.k)
    return make_custom(spec.samples)


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

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
  f(u) = 2u + lam * (u (1/4 - u))^(k+1) on [0, 1/4] and
  f(u) = 1/2 + f(u - 1/4) on [1/4, 1/2].  Near the seam u = 1/4,
  f(u) = 2u + lam g(|u - 1/4|) with g(s) = (s (1/4 - s))^(k+1), and the
  first odd power of s in g, s^(k+1) for even k and s^(k+2) for odd k, is
  the first derivative that jumps there: f is C^k for even k and C^(k+1)
  for odd k.  lam must keep f strictly increasing:
  the constructor checks f' at its closed-form minimiser on [0, 1/4].
* ``custom``, ``Table(samples)`` -- a monotone sample table, interpolated linearly.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .circle_sets import CircleSet
from .geometry import MAX_PARTS, DiskPoint, _shown, disk_to_cylinder, finite, integer, mod1

#: Turn counts lie in [1/MAX_TURNS, MAX_TURNS]; at MAX_TURNS the A4 tent centres
#: (2t + L) mod 1 still resolve to about 1e-10.
MAX_TURNS = 1e6
#: Largest smoothness order k of the ck family, far above the orders 0-3 in use.
MAX_K = 1_000

_INVERSE_BISECTIONS = 64  # enough to exhaust float64 resolution on (0, turns/2]


class AlphaProfile(ABC):
    """Height profile v = alpha(u) of one spiral branch on the cylinder.

    ``evaluate`` and ``inverse`` accept scalars or numpy arrays and refuse
    an argument outside their domain; the package calls the unchecked
    ``_alpha`` and ``_inverse`` on the points it makes itself.  The
    profile is strictly increasing from 0 (exclusive) at u -> 0 to 1 at
    u = domain_end = turns/2.  A family gives the formula ``_alpha``, may list
    interior ``seams`` where alpha is not smooth and state its ``smoothness``
    there, and may replace the bisecting ``_inverse`` by a closed form.
    ``linear_pieces`` says alpha is linear between its seams, and that
    ``_inverse`` is closed; the oracle tests the other, curved, families
    forward, through ``_alpha`` alone.
    """

    linear_pieces = False

    def __init__(self, turns: float):
        if not 1.0 / MAX_TURNS <= turns <= MAX_TURNS:
            raise ValueError(f"turns {turns} lies outside [{1 / MAX_TURNS:g}, {MAX_TURNS:g}]")
        self.turns = turns

    @property
    def domain_end(self) -> float:
        return self.turns / 2.0

    def evaluate(self, u):
        """alpha(u) for u in [0, domain_end]."""
        scalar = np.ndim(u) == 0
        u = np.asarray(u, dtype=float)
        if not np.all((u >= 0.0) & (u <= self.domain_end)):  # NaN fails both comparisons
            raise ValueError(f"evaluate argument must lie in [0, domain_end = {self.domain_end!r}]")
        out = self._alpha(u)
        return float(out) if scalar else out

    def inverse(self, v):
        """The u in [0, domain_end] with alpha(u) = v, for v in [0, 1 + 1e-12].

        v = 0 gives u = 0 and v above alpha(domain_end) gives domain_end (the one
        clip; ``_inverse`` skips it and the check, for v in [0, 1)); the slack
        above 1 absorbs rounding in callers that compute v.
        """
        scalar = np.ndim(v) == 0
        v = np.asarray(v, dtype=float)
        if not np.all((v >= 0.0) & (v <= 1.0 + 1e-12)):  # NaN fails both comparisons
            raise ValueError("inverse argument must lie in [0, 1 + 1e-12]")
        out = np.minimum(self._inverse(v), self.domain_end)
        return float(out) if scalar else out

    @abstractmethod
    def _alpha(self, u: np.ndarray) -> np.ndarray:
        """alpha(u) on an array of u."""

    def seams(self) -> np.ndarray:
        """Ends of the pieces on which alpha is smooth: 0, interior seams, domain_end."""
        return np.array([0.0, self.domain_end])

    def smoothness(self) -> tuple[float, float | None]:
        """(order, seam): alpha is C^order and no smoother at u = seam; analytic is (inf, None)."""
        return math.inf, None

    def _inverse(self, v: np.ndarray) -> np.ndarray:
        """The root by 64 halvings of [0, domain_end]; a family with a closed form replaces it."""
        lo = np.zeros_like(v)
        hi = np.full_like(v, self.domain_end)
        for _ in range(_INVERSE_BISECTIONS):
            mid = 0.5 * (lo + hi)
            below = self._alpha(mid) < v
            lo = np.where(below, mid, lo)
            hi = np.where(below, hi, mid)
        return 0.5 * (lo + hi)


class Fermat(AlphaProfile):
    """Linear profile alpha(u) = (2/turns) u for the turns-turn spiral."""

    linear_pieces = True

    def __init__(self, turns: float):
        super().__init__(finite("turns", turns))

    def _alpha(self, u):
        return (2.0 / self.turns) * u

    def _inverse(self, v):
        return (self.turns / 2.0) * v


class Sine(AlphaProfile):
    """One-turn profile 2u + (lam/pi) sin(8 pi u); requires 0 < lam < 1/4.

    Computed alpha is within 1e-15 of alpha, so 1e-12, the oracle's margin
    ``verify.ALPHA_MARGIN`` for twice that error, has room to spare.  2u is
    exact.  8 pi u with pi rounded is off by at most 4 |pi - math.pi| plus half
    an ulp of 4 pi, under 1.4e-15, and sin moves no more than its argument,
    plus a few ulps of its own; lam/pi < 0.08 scales that below 2e-16.  The
    product and the sum add under 1.2e-16 of rounding.
    """

    def __init__(self, lam: float):
        super().__init__(1.0)
        self.lam = finite("lambda", lam)
        if not 0.0 < self.lam < 0.25:
            raise ValueError(f"sine variant requires 0 < lambda < 1/4, got {self.lam}")

    def _alpha(self, u):
        return 2.0 * u + (self.lam / math.pi) * np.sin(8.0 * math.pi * u)


class Ck(AlphaProfile):
    """One-turn piecewise-polynomial profile, C^k at u = 1/4 for even k and C^(k+1) for odd k.

    Rejects lam values for which the first half loses monotonicity; the
    error message reports a witness u with non-positive derivative.

    Computed alpha is within 1e-13 of alpha for every k <= MAX_K and every lam,
    so 1e-12, the oracle's margin ``verify.ALPHA_MARGIN`` for twice that error,
    has room to spare.  u - 1/4 on the upper half is exact, and b = w (1/4 - w)
    rounds twice.  Each squaring doubles the relative error of b^(2^i) and adds
    a rounding, so b^(k+1) and its product with lam carry at most 3 (k + 1) + 1
    roundings: a relative error under 3.4e-13.  alpha increases, so
    lam b^(k+1) <= alpha(1/8) - 1/4 <= 1/4, and that is 8.5e-14.  Below the
    normal range each of the at most 20 products may add 2^-1075 instead, and
    factors b <= 1/64 only shrink it; lam < 1.8e308 scales that to under 1e-14.
    The two sums add under 2e-16 of rounding.
    """

    def __init__(self, lam: float, k: int):
        super().__init__(1.0)
        lam = finite("lambda", lam)
        if not lam > 0:
            raise ValueError(f"ck variant requires lambda > 0, got {lam}")
        self.lam, self.k = lam, integer("smoothness order k", k, 0, MAX_K)
        # on [0, 1/4] the derivative is least at u*, where k (1/4 - 2u)^2 = 2u (1/4 - u)
        worst = 0.125 + 0.125 / math.sqrt(2 * k + 1)
        deriv = float(self._half_derivative(np.asarray(worst)))
        if not deriv > 0.0:  # a NaN proof fails
            raise ValueError(
                f"lambda={lam} breaks monotonicity: derivative {deriv:.6g} at u={worst:.6g}"
            )

    def _half(self, u):
        """2u + lam b^(k+1) with b = u (1/4 - u), the power by squaring in place on the fresh b.

        numpy's general ``**`` is slower, about 4x on a zero base.
        """
        b = u * (0.25 - u)
        n = self.k + 1
        p = None  # the product of b^(2^i) over the set bits i of n seen so far
        while True:
            if n & 1:
                if p is None:
                    p = b if n == 1 else b.copy()
                else:
                    p *= b
            n >>= 1
            if not n:
                break
            b *= b
        p *= self.lam
        p += 2.0 * u
        return p

    def _half_derivative(self, u):
        # lam multiplies last, so an overflowing lam never meets an underflowed power
        return 2.0 + self.lam * ((self.k + 1) * (u * (0.25 - u)) ** self.k * (0.25 - 2.0 * u))

    def _alpha(self, u):
        upper = u > 0.25  # reduce u once and add 1/2 on the upper half
        return 0.5 * upper + self._half(u - 0.25 * upper)

    def seams(self):
        return np.array([0.0, 0.25, 0.5])

    def smoothness(self):
        return self.k + self.k % 2, 0.25  # the parity rule of the module docstring


def _sample_table(samples) -> tuple[tuple[float, float], ...]:
    """A sample table as float pairs: a non-empty sequence of [u, v] pairs of finite numbers."""
    if not (isinstance(samples, (list, tuple)) and samples):
        raise ValueError(f"sample table must be a non-empty list of [u, v] pairs, got {_shown(samples)}")
    for i, pair in enumerate(samples):
        if not (isinstance(pair, (list, tuple)) and len(pair) == 2):
            raise ValueError(f"sample table entry {i} must be a [u, v] pair, got {_shown(pair)}")
    return tuple((finite(f"sample table entry {i}", u), finite(f"sample table entry {i}", v))
                 for i, (u, v) in enumerate(samples))


class Table(AlphaProfile):
    """Profile from a monotone (u, v) sample table, interpolated linearly.

    The table must be finite, strictly increasing in both coordinates and end at
    v = 1; a (0, 0) anchor is prepended when missing.  Violations are hard
    errors.  ``samples`` keeps the table as given, as float pairs.
    """

    linear_pieces = True

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

    def _alpha(self, u):
        return np.interp(u, self._u, self._v)

    def seams(self):
        return self._u.copy()

    def smoothness(self):
        """C^0 at the first interior knot whose two computed slopes differ; linear if none do."""
        slopes = np.diff(self._v) / np.diff(self._u)
        kinks = np.flatnonzero(slopes[1:] != slopes[:-1])
        return (0, float(self._u[kinks[0] + 1])) if len(kinks) else (math.inf, None)

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
            raise ValueError(f"unknown family {_shown(repr(self.family))}, expected one of {tuple(FAMILIES)}")
        object.__setattr__(self, "parts", integer("parts", self.parts, 2, MAX_PARTS))
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
        """A spec from a JSON object with keys from family, turns, lambda, k, parts, samples."""
        keys = ("family", "turns", "lambda", "k", "parts", "samples")
        if not isinstance(data, dict):
            raise ValueError(f"a curve spec must be a JSON object, got {type(data).__name__}")
        if unknown := sorted(map(str, set(data) - set(keys))):
            raise ValueError(f"unknown curve spec keys {_shown(unknown)}, expected keys from {', '.join(keys)}")
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
    """Membership of a disk point (u, v) in the first part: u in the part's slice at v."""
    c = disk_to_cylinder(p)
    return section(spec, c.v).contains(c.u)


def branch_polyline(spec: CurveSpec, n: int) -> np.ndarray:
    """Polar samples of branch 0: shape (n, 2), rows (r, phi).

    Points are taken at u = (i+1)/n * turns/2, so the last point sits on the
    disk rim.  The angle phi = 2 pi u is not reduced modulo 2 pi.
    """
    n = integer("points per branch", n, 2, math.inf)
    profile = spec.alpha_profile()
    u = (np.arange(1, n + 1) / n) * profile.domain_end
    return np.stack((np.sqrt(profile._alpha(u) / math.pi), 2.0 * math.pi * u), axis=1)


def beta_polyline(spec: CurveSpec, n: int) -> list[DiskPoint]:
    """Sample the symbol's boundary: n disk points per branch, all branches.

    Branch j is :func:`branch_polyline` rotated by 2 pi j / parts, branch after branch.
    """
    branch = branch_polyline(spec, n)
    return [DiskPoint(r=float(r), phi=float(phi + 2.0 * math.pi * j / spec.parts))
            for j in range(spec.parts) for r, phi in branch]


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
    "ck-smooth": "algebraic one-turn variant, C^2 at its seam (k = 1)",
}

"""Axiom checkers, relation residuals, and the Monte-Carlo cross-check.

The checks all live on the cylinder.  For a symbol split into ``parts``
congruent pieces by a spiral with height profile alpha, the slice of the
first piece at height v is an arc of length 1/parts starting at
alpha^{-1}(v).  The reflective-balance condition (axiom A4) says the
overlap

    f(g) = integral over v of  measure(slice_v intersect (g - slice_v))

is the constant 1/parts^2 for every reflection axis g.  With L = 1/parts
<= 1/2 and the slice starting at t = alpha^{-1}(v), the fiber overlap is
the circular tent max(0, L - dist(g, c)) centred at c = (2t + L) mod 1.
Substituting v = alpha(t), dv = alpha'(t) dt gives

    f(g) = integral over t in (0, turns/2) of  tent(g - (2t + L)) alpha'(t) dt,

whose tent centres are explicit in t, so no inverse is needed.
``perfect_profile`` takes it exactly for the piecewise-linear interpolant of
alpha on knots in t that hold every seam: each segment adds a difference of
the tent's antiderivative, so f is a second difference of quadratic ramps in
g.  Those ramps need only the sums of D, D c and D c^2 (slope jumps D, tent
centres c) over the centres below each of the 3G points g and g +- L mod 1.
Every knot set, three knots or two million, takes one path: its blocks of
knots are binned on the cells between those points, and the ramps are read
once, after the last knot.  Between two seams the knots are evenly spaced,
so a block makes them with one multiply-add per piece, the formula np.interp
applies, bit for bit; its centres rise with t, so only a block in which they
wrap past 1 sorts them.  Where alpha is linear between seams
(``linear_pieces``: fermat, tables) it walks only those.
``monte_carlo_overlap`` estimates the same quantity by throwing uniform points
at the cylinder, an independent check on that path.  For a curved profile it
tests membership forward, through alpha, and decides most samples from one
table per call: alpha on 4 097 knots brackets each of 8 192 height buckets,
so alpha is read only at the copy ends that fall inside a bracket, about
0.024% of them, four a sample (sine and ck at 1e5 samples).  Both walk their
input in blocks of ``BLOCK`` = 16 384 knots or samples, whose 128 KB arrays stay in
cache, so memory grows with neither count (4 096 and 32 768 were slower for
A4, 2 048 and 65 536 for the oracle).  The cell sums differ from one sum over
every knot only by rounding, within 1e-14 max(1, sum |D|).  The oracle's
estimate is the same at any block size.

``rotation_check`` gives the report's rotation section: the integral of the
largest rotation-invariant subset of each slice.  Its verdict is structural,
like A1's: a slice is one arc of length L = 1/parts <= 1/2, and for a rotation
p/q with q >= 2 its q translates by k/q share a point only if
L > (q-1)/q >= 1/2, so every integral is 0 whatever the curve.

Axioms checked by ``check_axioms``:

* A1   -- the parts are congruent (structural: rotated copies by construction).
* A2   -- each concentric circle is crossed twice (structural: alpha increases
          strictly, as each constructor proves: Fermat's slope is 2/turns, Sine's
          lam < 1/4 keeps alpha' >= 2 - 8 lam > 0, Ck checks alpha' at its minimiser).
* A3   -- each radius is crossed exactly once; A3'' asks for exactly twice.
          Exact from the closed form parts * turns / 2 (``radial_crossing_range``).
* A4   -- flat reflection-overlap profile at 1/parts^2.
* A5   -- each branch is smooth (structural: each family states the order of
          alpha at its first seam, ``AlphaProfile.smoothness``).  Exact, since
          alpha > 0 and alpha' > 0 on (0, domain_end] and phi = 2 pi u is a
          coordinate along the branch (sqrt(alpha/pi), 2 pi u), so the branch is
          exactly as smooth as alpha.  It passes only where alpha is C^inf, the
          paper's "smooth", so every ck profile and every kinked table fails.

Relation residuals (``RELATIONS``, keyed by report id) test A4's flatness
law.  Substituting s = 2t above gives f(g) = (tent * P)(g - L), the tent's
circular convolution with the density of the centres wrapped onto the circle,

    P(x) = sum over integers k >= 0 with x + k <= turns of  alpha'((x + k)/2) / 2,

which integrates to 1.  The tent's Fourier coefficients (sin(pi n L)/(pi n))^2
vanish exactly at the nonzero multiples of parts, so f == L^2 exactly when P
is 1/parts-periodic.  For two parts, integrating P(x) = P(x + 1/2) once gives
one relation per turn count: eq_alal, the quarter-shift law
alpha(u + 1/4) = alpha(u) + 1/2, at one turn, eq_al3 at 3/2 turns and
eq_alalal at two.  They are two-part laws, so a report carries them only at
two parts; at three or more its residuals are empty.  Each law is reported
once.  Two restatements are left out: the slice measure of the
half-compressed region, m(u) = alpha(u/2) + 1 - alpha(u/2 + 1/4) on
(0, 1/2] and alpha(u/2) - alpha(u/2 - 1/4) on (1/2, 1], has m(u) - m(u + 1/2)
equal to -2 times eq_alal's residual at u/2; and sigma(u) = alpha(u + 1/4) -
alpha(u) has sigma(u + 1/2) - (1/2 - sigma(u)) equal to eq_alalal's residual.
Each entry holds the turn count the relation applies to, the end of its
domain and its residual LHS - RHS; ``relation_residual`` takes the sup of
|residual| on a grid of it.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import asdict, dataclass

import numpy as np

from . import __version__
from .circle_sets import BLOCK, MAX_Q, _prefix_sums, _sums_below
from .curves import AlphaProfile, CurveSpec, Table
from .geometry import finite, integer, mod1

AXIOM_IDS = ("A1", "A2", "A3", "A3''", "A4", "A5")

#: A turn count within this of a relation's count takes that relation.
TURN_TOLERANCE = 1e-12

#: Flatness tolerance for A4: closed-form families vs interpolated tables.
FLATNESS_TOL_CLOSED_FORM = 1e-6
FLATNESS_TOL_TABLE = 1e-4
RESIDUAL_GRID = 10_000

#: Default reflection axes and interpolation knots of the A4 profile.
G_GRID = 512
V_QUADRATURE = 100_000

#: Largest work sizes accepted: reflection axes, interpolation knots, disk samples.
MAX_G_GRID = 65_536
MAX_V_QUADRATURE = 2_000_001
MAX_MC_SAMPLES = 10_000_000

#: The oracle's bracket table for a curved profile (``_brackets``): knot intervals
#: over [0, domain_end], height buckets of [0, 1), and the margin e that covers
#: twice the rounding error of computed alpha (see ``Sine`` and ``Ck``).
BRACKET_KNOTS = 4_096
BRACKET_BUCKETS = 8_192
ALPHA_MARGIN = 1e-12


def knot_count(profile: AlphaProfile, n: int) -> int:
    """How many knots A4 interpolates alpha on: n rounded up to odd, or the seams if more."""
    n = integer("quadrature nodes", n, 2, MAX_V_QUADRATURE)
    return max(n | 1, len(profile.seams()))


def _knot_map(profile: AlphaProfile, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Knot indices of the seams, and the seams: A4's knot i is np.interp(i, index, seams)."""
    seams = profile.seams()
    cum = np.cumsum(np.diff(seams))
    extra = knot_count(profile, n) - len(seams)
    ends = np.rint(extra * (cum / cum[-1])).astype(np.int64) + np.arange(1, len(cum) + 1)
    return np.append(0, ends), seams


@dataclass(frozen=True)
class PerfectProfile:
    """Sampled reflection-overlap profile f(g) with its flatness summary."""

    g: np.ndarray
    values: np.ndarray
    target: float
    max_deviation: float
    witness_g: float
    v_nodes: int


def perfect_profile(
    spec: CurveSpec, g_grid: int = G_GRID, v_quadrature: int = V_QUADRATURE
) -> PerfectProfile:
    """Sample f(g) exactly for the piecewise-linear interpolant of alpha on ``_knot_map``'s knots.

    A segment of slope s adds s/2 times the change across it of T, the
    antiderivative of the tent of half-width L = 1/parts, as its centres 2t + L
    move at speed 2.  T grows by L^2 per period, with periodic part
    P(u) = L^2 (1/2 - u) - (L - u)_+^2 / 2 + (u - 1 + L)_+^2 / 2 on [0, 1).  With
    the slope jumps D_i = (s_i - s_{i-1}) / 2 at the knots t_i (s_{-1} = s_N = 0),

        f(g) = L^2 (alpha_N - alpha_0) + sum_i D_i P(g - c_i),   c_i = (2 t_i + L) mod 1.

    For g, c in [0, 1) the second difference Q(g + L) - 2 Q(g) + Q(g - L) of the
    quadratic ramp Q(y) = (y - c)_+^2 / 2, summed over the copies c + j of the
    centres, is P(g - c) + L^2 (1/2 + g - c).  And Q(y) = (y^2 S_0 - 2 y S_1 + S_2) / 2,
    where S_p sums D c^p over the copies below y: the sums over the centres at
    or below y mod 1 plus the copy terms, both read by ``circle_sets._sums_below``.
    So the 3G points y mod 1 cut [0, 1) into 3G + 1 cells, and every knot count
    takes one path: each block of ``BLOCK`` knots finds each cell's first
    centre and adds the sums of D, D c and D c^2 over each cell into one
    (3, 3G + 1) array.  A block makes its knots between seams k and k + 1 as
    seams[k] + step * (i - index[k]), np.interp's multiply-add, so they and
    every seam are np.interp's knots on ``_knot_map`` bit for bit.  Its centres
    2 t + L mod 1 are sorted but where they wrap past 1, and only a block in
    which they wrap sorts them: one of the seven at the defaults.  At the end
    one prefix sum over the cells that hold a nonzero sum gives every S_p and,
    as its totals, sum D and sum D c; the ramps are read once, about ``BLOCK``
    queries at a time.  That is O((N + G ceil(N / BLOCK)) log BLOCK
    + G log G) time and O(BLOCK + G) memory.  A profile with ``linear_pieces``
    is also its interpolant on the knots of ``_knot_map(profile, 2)``, its seams (and a
    midpoint when there are two): N counts those, and ``v_nodes`` the knots of
    ``v_quadrature``.
    """
    g_grid = integer("reflection axes g_grid", g_grid, 2, MAX_G_GRID)
    profile = spec.alpha_profile()
    v_nodes = knot_count(profile, v_quadrature)
    index, seams = _knot_map(profile, 2 if profile.linear_pieces else v_quadrature)
    n = int(index[-1]) + 1
    length = 1.0 / spec.parts
    target = length * length
    g_values = np.arange(g_grid) / g_grid
    y = g_values + np.array([[length], [0.0], [-length]])  # the ramps' arguments
    # cell j holds the centres in (edges[j], edges[j + 1]]; y mod 1 is five sorted runs
    edges = np.concatenate(([-1.0], np.sort((y - np.floor(y)).ravel(), kind="stable"), [2.0]))
    moments = np.zeros((3, len(edges) - 1))  # row p: sum of D c^p over each cell
    buffer = np.empty((3, min(n, BLOCK)))  # D, D c, D c^2 of a block's sorted centres
    knots = np.empty(min(n, BLOCK) + 2)  # a block's knots, one beyond each side
    slopes = np.zeros(min(n, BLOCK) + 2)  # a block's half slopes, 0 before knot 0 and past the last
    ends, at = index.tolist(), seams.tolist()
    wide = [k for k in range(len(ends) - 1) if ends[k + 1] - ends[k] > 1]  # knots between seams
    rise = 0.0  # alpha_N - alpha_0
    for lo in range(0, n, BLOCK):
        first, hi = max(lo - 1, 0), min(lo + BLOCK, n)  # a knot beyond each side for the slopes
        stop = min(hi + 1, n)
        t = knots[: stop - first]
        # the seams are knots, and knot i between seams k and k + 1 is the multiply-add
        # seams[k] + step * (i - index[k]) with np.interp's slope, so bit for bit its value
        on = slice(bisect_left(ends, first), bisect_left(ends, stop))
        t[index[on] - first] = seams[on]
        for k in wide:
            a, b = max(ends[k] + 1, first), min(ends[k + 1], stop)
            if a < b:
                step = (at[k + 1] - at[k]) / (ends[k + 1] - ends[k])
                piece = t[a - first : b - first]
                np.multiply(np.arange(a - ends[k], b - ends[k], dtype=float), step, out=piece)
                piece += at[k]
        alpha = profile._alpha(t)
        rise += (alpha[-1] if hi == n else 0.0) - (alpha[0] if lo == 0 else 0.0)
        # slopes[j] is the half slope of the segment that ends at knot lo + j
        end = len(t) - (lo > 0)
        np.divide(np.diff(alpha), 2.0 * np.diff(t), out=slopes[int(lo == 0) : end])
        if hi == n:
            slopes[end] = 0.0
        terms = buffer[:, : hi - lo]
        np.subtract(slopes[1 : hi - lo + 1], slopes[: hi - lo], out=terms[0])  # the jumps D
        x = 2.0 * t[lo - first : hi - first] + length
        x -= np.floor(x)  # mod 1, exact for centres >= 0 and faster than np.mod
        if np.any(x[1:] < x[:-1]):  # sorted but where the centres wrap past 1
            sort = np.argsort(x, kind="stable")
            x, terms[0] = x[sort], terms[0][sort]
        np.multiply(terms[0], x, out=terms[1])
        np.multiply(terms[1], x, out=terms[2])
        # find each cell's first centre; reduceat would repeat a value for an empty cell
        bounds = np.searchsorted(x, edges, side="right")
        cell = np.flatnonzero(bounds[:-1] < bounds[1:])
        moments[:, cell] += np.add.reduceat(terms, bounds[cell], axis=1)
    occupied = moments.any(axis=0)
    moments = moments[:, occupied]
    x = edges[1:][occupied]  # a ramp sees the cells whose upper edge y mod 1 reaches
    del bounds, cell, edges  # the last block's bounds and the edges are 1.5 MB each at G = 65 536
    sums = _prefix_sums(moments)
    del moments  # 3 x (3G + 1) cell sums, 4.7 MB
    totals = sums[:, -1]  # sum D, sum D c, sum D c^2
    # S_p from the cells' sums and the copy terms; rows of y go about BLOCK values at a
    # time, so the largest grid holds one row's per-query sums
    ramps = np.empty_like(y)
    rows = max(1, BLOCK // g_grid)
    for i in range(0, len(y), rows):
        q = y[i : i + rows]
        s = _sums_below(x, sums, q)
        ramps[i : i + rows] = 0.5 * q * (q * s[0] - 2.0 * s[1]) + 0.5 * s[2]
    f = ramps[0] - 2.0 * ramps[1] + ramps[2]
    f += target * (rise + totals[1] - (0.5 + g_values) * totals[0])
    dev = np.abs(f - target)
    witness = int(np.argmax(dev))
    return PerfectProfile(
        g=g_values,
        values=f,
        target=target,
        max_deviation=float(dev[witness]),
        witness_g=float(g_values[witness]),
        v_nodes=v_nodes,
    )


# -- relation residuals -------------------------------------------------------


def _grid(lo: float, hi: float) -> np.ndarray:
    # RESIDUAL_GRID points in (lo, hi], endpoint included
    return lo + (hi - lo) * (np.arange(1, RESIDUAL_GRID + 1) / RESIDUAL_GRID)


#: Each relation, in report order: the turn count it applies to, the end of its
#: domain (0, end] and its residual LHS - RHS on a profile p at u.
RELATIONS = {
    "eq_alal": (1.0, 0.25, lambda p, u: p._alpha(u + 0.25) - p._alpha(u) - 0.5),
    "eq_alalal": (2.0, 0.25, lambda p, u: 0.5 + p._alpha(u) + p._alpha(u + 0.5)
                  - p._alpha(u + 0.25) - p._alpha(u + 0.75)),
    "eq_al3": (1.5, 0.25, lambda p, u: p._alpha(u) + p._alpha(u + 0.5) - p._alpha(u + 0.25) - 0.5),
}


def relation_residual(profile: AlphaProfile, relation: str) -> float:
    """Sup of |LHS - RHS| of the named relation over a dense grid of its domain."""
    if relation not in RELATIONS:
        raise ValueError(f"unknown relation {relation!r}, expected one of {tuple(RELATIONS)}")
    turns, end, residual = RELATIONS[relation]
    if abs(profile.turns - turns) > TURN_TOLERANCE:
        raise ValueError(f"relation {relation} applies to profiles with {turns} turns, got {profile.turns}")
    return float(np.max(np.abs(residual(profile, _grid(0.0, end)))))


def applicable_relations(turns: float, parts: int) -> tuple[str, ...]:
    """The relations a report carries: the turn count's two-part law, and none at other part counts."""
    if parts != 2:
        return ()
    return tuple(r for r, (t, _, _) in RELATIONS.items() if abs(turns - t) <= TURN_TOLERANCE)


# -- axiom verdicts -----------------------------------------------------------


@dataclass(frozen=True)
class AxiomVerdict:
    passed: bool
    detail: str
    witness: float | None = None

    def to_json(self) -> dict:
        out: dict = {"pass": self.passed, "detail": self.detail}
        if self.witness is not None:
            out["witness"] = self.witness
        return out


@dataclass(frozen=True)
class VerifyReport:
    """Everything one verification run measured, JSON-serializable."""

    spec: CurveSpec
    axioms: dict[str, AxiomVerdict]
    profile: PerfectProfile
    residuals: dict[str, float]
    tolerances: dict[str, float]
    seed: int
    notes: tuple[str, ...] = ()

    def all_passed(self, requested: tuple[str, ...]) -> bool:
        missing = [a for a in requested if a not in self.axioms]
        if missing:
            raise ValueError(f"no verdict for requested axioms {missing}")
        return all(self.axioms[a].passed for a in requested)

    def to_json(self) -> dict:
        profile_json = {
            "grid": len(self.profile.g),
            "v_nodes": self.profile.v_nodes,
            "target": self.profile.target,
            "max_dev": self.profile.max_deviation,
            "witness_g": self.profile.witness_g,
            "values": self.profile.values.tolist(),
        }
        return {
            "version": 1,
            "tool_version": __version__,
            "spec": self.spec.to_json(),
            "axioms": {name: v.to_json() for name, v in self.axioms.items()},
            "profile": profile_json,
            "residuals": dict(self.residuals),
            "tolerances": dict(self.tolerances),
            "seed": self.seed,
            "notes": list(self.notes),
        }


def radial_crossing_range(parts: int, turns: float) -> tuple[int, int]:
    """Fewest and most times the symbol's branches cross one radius.

    Branch j spans circle positions (j/parts, j/parts + turns/2], so the radius
    at position u0 is crossed #{k in Z : 0 < u0 + k/parts <= turns/2} times:
    c = parts * turns / 2 times on every radius when c is an integer, and else
    floor(c) times on some radii and ceil(c) on the rest.  A c within
    TURN_TOLERANCE of an integer counts as that integer.
    """
    c = parts * turns / 2.0
    if abs(c - round(c)) <= TURN_TOLERANCE:
        c = round(c)
    return math.floor(c), math.ceil(c)


def check_axioms(
    spec: CurveSpec,
    g_grid: int = G_GRID,
    v_quadrature: int = V_QUADRATURE,
    flatness_tolerance: float | None = None,
    seed: int = 0,
) -> VerifyReport:
    """Run every axiom check on one curve spec and collect a report.

    Verdicts use <= against their tolerance (a residual exactly at the
    tolerance passes).  ``flatness_tolerance`` overrides the A4 default,
    which is 1e-6 for closed-form families and 1e-4 for sampled tables
    (interpolation error dominates there); an override must be finite and >= 0.
    """
    seed = integer("seed", seed, 0, math.inf)
    if flatness_tolerance is not None and finite("flatness tolerance", flatness_tolerance) < 0:
        raise ValueError(f"flatness tolerance must be >= 0, got {flatness_tolerance}")
    profile = spec.alpha_profile()
    # centres step by turns/(knots - 1); two must fit in a tent side 1/parts for a curved
    # profile's interpolant to follow it (steps 1, 1/2, 1/4 land on 1, 2, 4 points); a
    # profile linear between its seams is its own interpolant at any knot count
    needed = 2 * spec.parts * profile.turns + 1
    if not profile.linear_pieces and knot_count(profile, v_quadrature) <= needed:
        raise ValueError(f"A4 quadrature too coarse for turns={profile.turns:g}: "
                         f"--v-quad must exceed 2 * parts * turns + 1 = {needed:g}")
    notes: list[str] = []
    axioms: dict[str, AxiomVerdict] = {}

    # A1: the parts are rotated copies of one branch by construction.
    detail = f"structural: {spec.parts} branches congruent by construction (rotated copies)"
    if isinstance(profile, Table):
        detail += "; table profiles can only describe spirals, so A1 is not independently checked"
    axioms["A1"] = AxiomVerdict(passed=True, detail=detail)

    # A2: alpha increases strictly, as every constructor proves (Table checks its samples), so
    # each branch crosses each circle once; a sampled check could only contradict it by rounding.
    axioms["A2"] = AxiomVerdict(passed=True, detail=f"each concentric circle crossed {spec.parts} times")

    # A3 / A3'': radial crossing counts.
    cmin, cmax = radial_crossing_range(spec.parts, profile.turns)
    count_detail = (
        f"every radius crossed {cmin} times" if cmin == cmax
        else f"radial crossings vary between {cmin} and {cmax}"
    )
    axioms["A3"] = AxiomVerdict(passed=(cmin == cmax == 1), detail=count_detail)
    axioms["A3''"] = AxiomVerdict(passed=(cmin == cmax == 2), detail=count_detail)

    # A4: flat reflection-overlap profile at 1/parts^2.
    if flatness_tolerance is None:
        flatness_tolerance = (
            FLATNESS_TOL_TABLE if isinstance(profile, Table) else FLATNESS_TOL_CLOSED_FORM
        )
    prof = perfect_profile(spec, g_grid=g_grid, v_quadrature=v_quadrature)
    axioms["A4"] = AxiomVerdict(
        passed=prof.max_deviation <= flatness_tolerance,
        detail=(
            f"max |f(g) - {prof.target:g}| = {prof.max_deviation:.3e} "
            f"over {len(prof.g)} axes"
        ),
        witness=prof.witness_g,
    )
    if spec.parts > 2:
        notes += [
            "A2/A3 are stated for two-part symbols; with parts != 2 the verdicts "
            "report per-branch behaviour",
            f"the flat-profile target 1/parts^2 = {prof.target:g} for parts > 2 "
            "extends the two-part balance criterion; treat the A4 verdict as advisory",
        ]

    # A5: smoothness per branch (the jump from one branch's rim to the next branch's
    # centre is not a turn); branch j is branch 0 rotated, so alpha's order is every branch's.
    order, seam = profile.smoothness()
    axioms["A5"] = AxiomVerdict(
        passed=seam is None,
        detail="structural: alpha is analytic" if seam is None
        else f"structural: alpha is C^{order} at u = {seam}, not C^inf",
        witness=seam,
    )

    residuals = {
        rel: relation_residual(profile, rel) for rel in applicable_relations(profile.turns, spec.parts)
    }

    tolerances = {
        "flatness": flatness_tolerance,
        "residual_grid": float(RESIDUAL_GRID),
    }
    return VerifyReport(
        spec=spec,
        axioms=axioms,
        profile=prof,
        residuals=residuals,
        tolerances=tolerances,
        seed=seed,
        notes=tuple(notes),
    )


# -- rotation immunity --------------------------------------------------------


def reduced_rotations(q_max: int) -> list[tuple[int, int]]:
    return [(p, q) for q in range(2, q_max + 1) for p in range(1, q) if math.gcd(p, q) == 1]


def rotation_check(spec: CurveSpec, q_max: int) -> dict:
    """The report's rotation section: the rotation-invariant part of each slice, integrated over all heights.

    For every reduced rotation p/q with 2 <= q <= q_max the integral

        integral over v of measure(largest p/q-rotation-invariant subset of slice_v)

    is reported under "integrals", keyed "p/q".  Every slice is one arc of
    length L = 1/parts <= 1/2, whose largest p/q-invariant subset is the points
    that all q of its translates by k/q cover: q arcs of length
    L - (q-1)/q <= 0, so none.  So every integral is exactly 0.0 and the check
    passes for every spiral symbol, whose parts contain no rotation-symmetric
    subset; like A1, it needs nothing of the curve.
    """
    q_max = integer("q_max", q_max, 2, MAX_Q)
    return {
        "integrals": {f"{p}/{q}": 0.0 for p, q in reduced_rotations(q_max)},
        "pass": True,
        "detail": "structural: every slice is one arc of length 1/parts <= 1/2, "
                  "which holds no subset invariant under a rotation p/q with q >= 2",
    }


# -- Monte-Carlo oracle -------------------------------------------------------


@dataclass(frozen=True)
class OracleEstimate:
    """Monte-Carlo estimate of the reflection overlap at one axis g."""

    value: float
    stderr: float
    samples: int
    seed: int
    g: float

    def to_json(self) -> dict:
        return asdict(self)


def _frac(x: np.ndarray) -> np.ndarray:
    """x mod 1, bit for bit as np.mod(x, 1.0), but without its sign fix-ups."""
    return x - np.floor(x)


def _brackets(profile: AlphaProfile) -> tuple[np.ndarray, np.ndarray]:
    """Per height bucket [j/B, (j + 1)/B), B = ``BRACKET_BUCKETS``, knots lo_j < hi_j with

        alpha(x) < v   for every x in [0, lo_j],   and   v <= alpha(x)   for every x in [hi_j, domain_end],

    for every v in the bucket, alpha as computed; -inf and +inf where no knot
    qualifies.  The knots are domain_end i / K, i = 0 .. K = ``BRACKET_KNOTS``.
    Computed alpha is within e/2 of the true alpha, which increases, with e =
    ``ALPHA_MARGIN`` (each curved family's docstring bounds its error).  So for
    x <= lo it is at most alpha(lo) + e as computed, and for x >= hi at least
    alpha(hi) - e: a knot whose computed alpha plus e lies below j/B can be lo_j,
    and one whose computed alpha minus e reaches (j + 1)/B can be hi_j.  Each
    bucket takes the last such knot from the left and the first from the right.
    Rounding need not keep the computed alphas sorted, so the knots are ranked
    by the running maximum of alpha from the left and its running minimum from
    the right, which bound every knot's own alpha from above and below.
    Adding e rounds by at most an ulp of 1, far inside its room.  And
    lo_j < hi_j: their computed alphas lie more than 1/B + 2 e apart, so the
    true alpha(hi) exceeds alpha(lo).
    """
    knots = profile.domain_end * (np.arange(BRACKET_KNOTS + 1) / BRACKET_KNOTS)
    alpha = profile._alpha(knots)
    below = _edge_counts(np.maximum.accumulate(alpha) + ALPHA_MARGIN)
    above = _edge_counts(np.minimum.accumulate(alpha[::-1])[::-1] - ALPHA_MARGIN)
    ends = np.concatenate(([-np.inf], knots, [np.inf]))
    # padded index of the last knot below each bucket's floor, and of the first at or over its ceiling
    return ends[below[:-2]], ends[above[1:-1] + 1]


def _edge_counts(x: np.ndarray) -> np.ndarray:
    """How many of x lie below each bucket edge j/B, j = 0 .. B + 1, B = ``BRACKET_BUCKETS``.

    x < j/B exactly when floor(x B) < j, and x B is exact, B being a power of 2.
    """
    cells = np.clip(np.floor(x * BRACKET_BUCKETS), -1, BRACKET_BUCKETS).astype(np.intp) + 1
    return np.cumsum(np.bincount(cells, minlength=BRACKET_BUCKETS + 2))


def _below(profile: AlphaProfile, y: np.ndarray, v: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """alpha(clip(y, 0, domain_end)) < v, with (lo, hi) the bracket of each v's bucket.

    y <= lo decides True and y >= hi decides False, also where the clip moves y,
    since lo and hi are knots in [0, domain_end] or infinite.  Only y inside
    the bracket reads alpha, on the clipped point.
    """
    below = y <= lo
    open_ = np.flatnonzero((y < hi) != below)  # lo < hi, so y <= lo implies y < hi
    below[open_] = profile._alpha(np.clip(y[open_], 0.0, profile.domain_end)) < v[open_]
    return below


def _forward(profile: AlphaProfile, x: np.ndarray, v: np.ndarray, length: float,
             lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Whether (x, v) lies in the first part, from alpha alone: no inverse.

    The part holds (x, v) when t = alpha^{-1}(v) lies in (x + j - L, x + j] for
    some integer j, and alpha increases, so that is
    alpha(clip(x + j - L)) < v <= alpha(clip(x + j)), the ends clipped to
    [0, domain_end].  Only 0 <= j < ceil(domain_end + L) can hold.  Every
    curved family spans one turn, so that is j = 0 alone, and a search for j
    is not needed.  ``_below`` settles each comparison from v's bracket
    (lo, hi) of ``_brackets`` where it can, and by alpha, as computed on the
    same clipped point, where it cannot, so every decision is the one alpha
    gives.
    """
    inside = np.zeros(x.shape, dtype=bool)
    for j in range(math.ceil(profile.domain_end + length)):
        inside |= _below(profile, x + (j - length), v, lo, hi) & ~_below(profile, x + j, v, lo, hi)
    return inside


def monte_carlo_overlap(spec: CurveSpec, g: float, samples: int, seed: int) -> OracleEstimate:
    """Estimate the overlap measure at axis g by uniform sampling of the disk.

    The disk-to-cylinder map is measure-preserving, so a uniform point of the
    disk is a uniform point (u, v) = (U', U) of the cylinder, and the points
    are drawn there directly.  It counts those lying in the first part
    together with their reflection: through the closed-form inverse where
    alpha is linear between its seams, and by :func:`_forward`, with alpha
    alone, for the curved families.  For those it builds one bracket table
    per call (``_brackets``), and a sample's height bucket settles its
    membership unless an end of a copy falls inside the bucket's bracket;
    only those ends read alpha, on the same clipped points as a test of every
    end would.  Reproducible for a fixed seed; the standard error is the
    sample standard deviation over sqrt(samples).

    The points are drawn and tested ``BLOCK`` at a time (see the module
    docstring for why that size), so memory stays at a few block-sized arrays
    whatever ``samples`` is.  The estimate does not depend on the block size:
    the (U, U') pairs come row by row from one stream, and every later step
    works element by element.
    """
    samples = integer("samples", samples, 1, MAX_MC_SAMPLES)
    seed = integer("seed", seed, 0, math.inf)
    g = mod1(finite("reflection axis g", g))
    profile = spec.alpha_profile()
    length = 1.0 / spec.parts
    if not profile.linear_pieces:
        table_lo, table_hi = _brackets(profile)
    rng = np.random.default_rng(seed)
    hits = 0
    for done in range(0, samples, BLOCK):
        n = min(BLOCK, samples - done)
        pair = rng.random((n, 2))  # row-major: the stream does not depend on the block size
        v, u = pair[:, 0], pair[:, 1]
        if profile.linear_pieces:  # a closed-form inverse
            t = profile._inverse(v)  # v in [0, 1): nothing for the public range check to refuse
            in_first = _frac(u - t) < length
            in_reflected = _frac(_frac(g - u) - t) < length
        else:
            bucket = (v * BRACKET_BUCKETS).astype(np.intp)  # exact: the bucket count is a power of 2
            lo, hi = table_lo[bucket], table_hi[bucket]
            in_first = _forward(profile, u, v, length, lo, hi)
            in_reflected = _forward(profile, _frac(g - u), v, length, lo, hi)
        hits += int(np.count_nonzero(in_first & in_reflected))
    p_hat = hits / samples
    stderr = math.sqrt(p_hat * (1.0 - p_hat) / max(samples - 1, 1))
    return OracleEstimate(value=p_hat, stderr=stderr, samples=samples, seed=seed, g=g)

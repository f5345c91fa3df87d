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
``perfect_profile`` takes composite-Simpson nodes in t, split at the
profile's seams, with weights w * alpha'(t).  A tent is a second difference
of a ramp: f(g) = Q(g + L) - 2 Q(g) + Q(g - L) for Q(y) = sum w (y - c)_+,
which ``circle_sets.overlap_sums`` reads at every axis from one sort of the
centres; ``monte_carlo_overlap`` estimates the same quantity by throwing
uniform points at the disk, an independent check on the quadrature path.

``rotation_check`` integrates the largest rotation-invariant subset of
each slice.  A slice is one arc of length L <= 1/2, so for a rotation p/q
that subset has the closed-form measure q * max(0, L - (q-1)/q), which is
the same at every height.

Axioms checked by ``check_axioms``:

* A1   -- the parts are congruent (structural: rotated copies by construction).
* A2   -- each concentric circle is crossed twice (monotone alpha: each
          branch crosses each height exactly once).
* A3   -- each radius is crossed exactly once; A3'' asks for exactly twice.
* A4   -- flat reflection-overlap profile at 1/parts^2.
* A5   -- sampling-regularity surrogate for smoothness: bounded turning
          angles of the sampled boundary polyline.  Not a certificate.

Relation residuals (ids are the report keys):

* eq_alal   -- alpha(u + 1/4) = alpha(u) + 1/2            (one turn)
* eq_mm     -- m(u) = m(u + 1/2) for the slice measure m  (one turn)
* eq_alalal -- 1/2 + alpha(u) + alpha(u+1/2) = alpha(u+1/4) + alpha(u+3/4)
               (two turns)
* eq_sigma  -- sigma(u+1/2) = 1/2 - sigma(u) with sigma(u) = alpha(u+1/4) - alpha(u)
               (two turns)
* eq_al3    -- alpha(u) + alpha(u+1/2) = alpha(u+1/4) + 1/2  (3/2 turns)
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from . import __version__
from .circle_sets import overlap_sums
from .curves import AlphaProfile, CurveSpec, Table, branch_polylines, polyline_turning_angles
from .geometry import finite, mod1

AXIOM_IDS = ("A1", "A2", "A3", "A3''", "A4", "A5")

#: Turn count each relation applies to, in report order.
RELATION_TURNS = {
    "eq_alal": 1.0,
    "eq_mm": 1.0,
    "eq_alalal": 2.0,
    "eq_sigma": 2.0,
    "eq_al3": 1.5,
}
RELATION_IDS = tuple(RELATION_TURNS)

#: Flatness tolerance for A4: closed-form families vs interpolated tables.
FLATNESS_TOL_CLOSED_FORM = 1e-6
FLATNESS_TOL_TABLE = 1e-4
TURNING_ANGLE_TOL = 0.2  # radians, A5 sampling surrogate
RESIDUAL_GRID = 10_000

#: Default reflection axes and quadrature nodes of the A4 profile.
G_GRID = 512
V_QUADRATURE = 100_000

#: Largest work sizes accepted: reflection axes, quadrature nodes, disk samples.
MAX_G_GRID = 65_536
MAX_V_QUADRATURE = 2_000_001
MAX_MC_SAMPLES = 10_000_000
#: Largest rotation order of the rotation check; its report holds about 0.3 * q_max^2 integrals.
MAX_Q = 1000


def _spread(total: int, lengths: np.ndarray) -> np.ndarray:
    """Interval counts, at least 1 each, summing to ``total`` and otherwise in proportion to
    ``lengths``; pieces of equal length get equal counts whenever the counts allow it.

    With more pieces than ``total`` every piece gets one interval.
    """
    extra = max(total - len(lengths), 0)
    cum = np.cumsum(lengths)
    ends = np.rint(extra * (cum / cum[-1])).astype(np.int64)
    return np.diff(ends, prepend=0) + 1


def t_quadrature_rule(profile: AlphaProfile, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes t in [0, domain_end] and weights w * alpha'(t) for integrals over heights.

    A sum over the rule approximates integral_0^1 F(v) dv = integral F(alpha(t)) alpha'(t) dt.
    The node count is rounded up to odd, m, and the m - 1 intervals are spread
    over the pieces between the profile's seams by length, at least one each
    (so with more pieces than intervals the rule has more nodes).  Intervals
    are numbered through all pieces; interval i pairs with interval i + 1 for
    composite Simpson when i is even and both lie in one piece, and is a
    trapezoid when its partner lies in another piece.  Neighbouring pieces
    share the node at their seam, and each side weights it with its own
    one-sided alpha', so a jump of alpha' there costs no accuracy.
    """
    if not 2 <= n <= MAX_V_QUADRATURE:
        raise ValueError(f"need 2 to {MAX_V_QUADRATURE} quadrature nodes, got {n}")
    seams = profile.seams()
    lengths = np.diff(seams)
    count = _spread((n | 1) - 1, lengths)
    ends = np.cumsum(count)
    starts = ends - count  # first interval of each piece
    nodes = np.interp(np.arange(ends[-1] + 1.0), np.append(starts, ends[-1]), seams)
    # in units of h/6 an interval weighs its left node 2 or 4 as the first or second
    # of a Simpson pair and 3 as a trapezoid; its right node takes the rest of 6
    left = np.empty(ends[-1])
    left[0::2], left[1::2] = 2.0, 4.0
    left[starts[starts % 2 == 1]] = 3.0
    left[ends[ends % 2 == 1] - 1] = 3.0
    right = np.repeat(lengths / (6.0 * count), count)  # h/6 of every interval
    left *= right
    right *= 6.0
    right -= left
    slope = profile.derivative(nodes)  # the left limit at a seam
    w = np.empty_like(nodes)
    np.multiply(left, slope[:-1], out=w[:-1])
    w[-1] = 0.0
    seam = starts[1:]  # an interval starting at a seam takes alpha' one ulp to its right
    w[seam] += left[seam] * (profile.derivative(np.nextafter(seams[1:-1], np.inf)) - slope[seam])
    right *= slope[1:]
    w[1:] += right
    return nodes, w


@dataclass(frozen=True)
class PerfectProfile:
    """Sampled reflection-overlap profile f(g) with its flatness summary."""

    g: np.ndarray
    values: np.ndarray
    target: float
    max_deviation: float
    witness_g: float
    v_nodes: int

    @property
    def mean(self) -> float:
        return float(np.mean(self.values))


def perfect_profile(
    spec: CurveSpec, g_grid: int = G_GRID, v_quadrature: int = V_QUADRATURE
) -> PerfectProfile:
    """Sample f(g) = integral_v of the slice reflection overlap, exactly per fiber.

    Each fiber contributes the exact single-arc overlap, a tent of half-width
    L = 1/parts around c = (2t + L) mod 1; only the integral is quadrature,
    taken over the curve parameter t by :func:`t_quadrature_rule`.  The tents
    are second differences of ramps, which ``overlap_sums`` sums at all axes
    in O((V + G) log V) for V quadrature nodes and G axes.
    """
    if not 2 <= g_grid <= MAX_G_GRID:
        raise ValueError(f"need 2 to {MAX_G_GRID} reflection axes, got {g_grid}")
    t, w = t_quadrature_rule(spec.alpha_profile(), v_quadrature)
    length = 1.0 / spec.parts
    g_values = np.arange(g_grid) / g_grid
    centres = 2.0 * t + length
    centres -= np.floor(centres)  # mod 1, exact for centres >= 0 and faster than np.mod
    f = overlap_sums(centres, w, g_values, (length, 0.0, -length), (1.0, -2.0, 1.0))
    target = length * length
    dev = np.abs(f - target)
    witness = int(np.argmax(dev))
    return PerfectProfile(
        g=g_values,
        values=f,
        target=target,
        max_deviation=float(dev[witness]),
        witness_g=float(g_values[witness]),
        v_nodes=len(t),
    )


# -- relation residuals -------------------------------------------------------


def _require_turns(profile: AlphaProfile, relation: str, turns: float) -> None:
    if abs(profile.turns - turns) > 1e-12:
        raise ValueError(
            f"relation {relation} applies to profiles with {turns} turns, "
            f"got {profile.turns}"
        )


def m_function(profile: AlphaProfile, u):
    """Slice measure of the half-compressed region at circle position u.

    With abar(u) = alpha(u/2) on (0, 1], the region between the graph of
    abar and its half-turn image has vertical slice measure

        m(u) = abar(u) + 1 - abar(u + 1/2)   for 0 < u <= 1/2,
        m(u) = abar(u) - abar(u - 1/2)       for 1/2 < u <= 1.
    """
    _require_turns(profile, "m_function", 1.0)
    scalar = np.ndim(u) == 0
    u = np.atleast_1d(np.asarray(u, dtype=float))
    if np.any(u <= 0.0) or np.any(u > 1.0):
        raise ValueError("m_function argument must lie in (0, 1]")
    abar = lambda x: profile.evaluate(x / 2.0)
    out = np.empty_like(u)
    low = u <= 0.5
    out[low] = abar(u[low]) + 1.0 - abar(u[low] + 0.5)
    out[~low] = abar(u[~low]) - abar(u[~low] - 0.5)
    return float(out[0]) if scalar else out


def _grid(lo: float, hi: float, n: int = RESIDUAL_GRID) -> np.ndarray:
    # n points in (lo, hi], endpoint included
    return lo + (hi - lo) * (np.arange(1, n + 1) / n)


def relation_residual(profile: AlphaProfile, relation: str) -> float:
    """Sup of |LHS - RHS| of the named relation over a dense grid of its domain."""
    if relation not in RELATION_TURNS:
        raise ValueError(f"unknown relation {relation!r}, expected one of {RELATION_IDS}")
    _require_turns(profile, relation, RELATION_TURNS[relation])
    a = profile.evaluate
    if relation == "eq_alal":
        u = _grid(0.0, 0.25)
        res = a(u + 0.25) - a(u) - 0.5
    elif relation == "eq_mm":
        u = _grid(0.0, 0.5)
        res = m_function(profile, u) - m_function(profile, u + 0.5)
    elif relation == "eq_alalal":
        u = _grid(0.0, 0.25)
        res = 0.5 + a(u) + a(u + 0.5) - a(u + 0.25) - a(u + 0.75)
    elif relation == "eq_sigma":
        u = _grid(0.0, 0.25)
        sigma = lambda x: a(x + 0.25) - a(x)
        res = sigma(u + 0.5) - (0.5 - sigma(u))
    else:  # eq_al3
        u = _grid(0.0, 0.25)
        res = a(u) + a(u + 0.5) - a(u + 0.25) - 0.5
    return float(np.max(np.abs(res)))


def applicable_relations(turns: float) -> tuple[str, ...]:
    return tuple(r for r, t in RELATION_TURNS.items() if abs(turns - t) <= 1e-12)


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
            "values": [float(x) for x in self.profile.values],
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


def radial_crossings(turns: float, parts: int, u0) -> np.ndarray:
    """How many times the symbol's branches cross the radius at angle 2*pi*u0.

    Branch j spans circle positions (j/parts, j/parts + turns/2]; a radius
    at position u0 is crossed once per integer n with u0 + n in that range.
    """
    u0 = np.asarray(u0, dtype=float)
    total = np.zeros_like(u0)
    for j in range(parts):
        lo = j / parts
        hi = lo + turns / 2.0
        total += np.floor(hi - u0) - np.floor(lo - u0)
    return total.astype(int)


def check_axioms(
    spec: CurveSpec,
    g_grid: int = G_GRID,
    v_quadrature: int = V_QUADRATURE,
    flatness_tolerance: float | None = None,
    polyline_points: int = 512,
    seed: int = 0,
) -> VerifyReport:
    """Run every axiom check on one curve spec and collect a report.

    Verdicts use <= against their tolerance (a residual exactly at the
    tolerance passes).  ``flatness_tolerance`` overrides the A4 default,
    which is 1e-6 for closed-form families and 1e-4 for sampled tables
    (interpolation error dominates there); an override must be finite and >= 0.
    """
    if flatness_tolerance is not None and finite("flatness tolerance", flatness_tolerance) < 0:
        raise ValueError(f"flatness tolerance must be >= 0, got {flatness_tolerance}")
    profile = spec.alpha_profile()
    notes: list[str] = []
    axioms: dict[str, AxiomVerdict] = {}

    # A1: the parts are rotated copies of one branch by construction.
    detail = f"structural: {spec.parts} branches congruent by construction (rotated copies)"
    if isinstance(profile, Table):
        detail += "; table profiles can only describe spirals, so A1 is not independently checked"
    axioms["A1"] = AxiomVerdict(passed=True, detail=detail)

    # A2: strict monotonicity of alpha means each branch crosses each
    # concentric circle exactly once.
    u = _grid(0.0, profile.domain_end)
    values = profile.evaluate(u)
    diffs = np.diff(values)
    monotone = bool(np.all(diffs > 0.0))
    witness = None if monotone else float(u[int(np.argmin(diffs)) + 1])
    axioms["A2"] = AxiomVerdict(
        passed=monotone,
        detail=(
            f"each concentric circle crossed {spec.parts} times"
            if monotone
            else "height profile is not strictly increasing"
        ),
        witness=witness,
    )
    if spec.parts != 2:
        notes.append(
            "A2/A3 are stated for two-part symbols; with parts != 2 the verdicts "
            "report per-branch behaviour"
        )

    # A3 / A3'': radial crossing counts.
    m = 2048
    u0 = (np.arange(m) + 0.382) / m  # offset avoids branch-boundary lattice points
    counts = radial_crossings(profile.turns, spec.parts, u0)
    cmin, cmax = int(counts.min()), int(counts.max())
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
    # centres step by turns/(nodes - 1); a Simpson pair must fit in a tent side 1/parts, or
    # the rule misses the tents (at steps 1, 1/2, 1/4 all centres land on 1, 2, 4 points)
    needed = 2 * spec.parts * profile.turns + 1
    if prof.v_nodes <= needed:
        raise ValueError(f"A4 quadrature too coarse for turns={profile.turns:g}: "
                         f"--v-quad must exceed 2 * parts * turns + 1 = {needed:g}")
    axioms["A4"] = AxiomVerdict(
        passed=prof.max_deviation <= flatness_tolerance,
        detail=(
            f"max |f(g) - {prof.target:g}| = {prof.max_deviation:.3e} "
            f"over {len(prof.g)} axes"
        ),
        witness=prof.witness_g,
    )
    if spec.parts > 2:
        notes.append(
            f"the flat-profile target 1/parts^2 = {prof.target:g} for parts > 2 "
            "extends the two-part balance criterion; treat the A4 verdict as advisory"
        )

    # A5: sampling-regularity surrogate for smoothness, per branch (the
    # jump from one branch's rim to the next branch's center is not a turn).
    max_angle = 0.0
    for branch in branch_polylines(spec, polyline_points):
        angles = polyline_turning_angles(branch)
        if len(angles):
            max_angle = max(max_angle, float(np.max(angles)))
    axioms["A5"] = AxiomVerdict(
        passed=max_angle <= TURNING_ANGLE_TOL,
        detail=(
            f"max turning angle {max_angle:.4f} rad over {polyline_points} samples "
            "per branch (sampling check, not a smoothness certificate)"
        ),
        witness=max_angle,
    )

    residuals = {rel: relation_residual(profile, rel) for rel in applicable_relations(profile.turns)}

    tolerances = {
        "flatness": flatness_tolerance,
        "turning_angle": TURNING_ANGLE_TOL,
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


@dataclass(frozen=True)
class RotationCheck:
    """Integrated measures of rotation-invariant parts, per reduced rotation p/q."""

    integrals: dict[str, float]
    tolerance: float
    passed: bool

    def to_json(self) -> dict:
        return {
            "integrals": dict(self.integrals),
            "tolerance": self.tolerance,
            "pass": self.passed,
            "detail": "closed form, single-arc slices: q * max(0, 1/parts - (q-1)/q)",
        }


def reduced_rotations(q_max: int) -> list[tuple[int, int]]:
    return [(p, q) for q in range(2, q_max + 1) for p in range(1, q) if math.gcd(p, q) == 1]


def single_arc_invariant_measure(length: float, q: int) -> float:
    """Measure of the largest subset of one arc invariant under rotation by 1/q.

    That subset is the intersection of the arc's q translates by k/q: q arcs
    of length ``length - (q-1)/q`` when that is positive, else empty.  Every
    p/q in lowest terms generates the same rotations as 1/q.
    """
    return q * max(0.0, length - (q - 1) / q)


def rotation_check(spec: CurveSpec, q_max: int, *, tolerance: float = 1e-12) -> RotationCheck:
    """Integrate the rotation-invariant part of each slice over all heights.

    For every reduced rotation p/q with 2 <= q <= q_max the integral

        integral over v of measure(largest p/q-rotation-invariant subset of slice_v)

    is reported.  Every slice is one arc of length L = 1/parts <= 1/2, so
    the integrand is :func:`single_arc_invariant_measure` of L at every
    height and the integral equals it exactly, with no quadrature in v; it
    is 0 for every spiral symbol, whose parts contain no rotation-symmetric
    subset.
    """
    if not 2 <= q_max <= MAX_Q:
        raise ValueError(f"q_max must lie in [2, {MAX_Q}], got {q_max}")
    length = 1.0 / spec.parts
    integrals = {
        f"{p}/{q}": single_arc_invariant_measure(length, q) for p, q in reduced_rotations(q_max)
    }
    passed = all(v <= tolerance for v in integrals.values())
    return RotationCheck(integrals=integrals, tolerance=tolerance, passed=passed)


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


def monte_carlo_overlap(
    spec: CurveSpec, g: float, samples: int, seed: int, chunk: int = 2_000_000
) -> OracleEstimate:
    """Estimate the overlap measure at axis g by uniform sampling of the disk.

    Draws points r = sqrt(U)/sqrt(pi), phi = 2 pi U' (uniform in area),
    and counts those lying in the first part together with their
    reflection.  Reproducible for a fixed seed; the standard error is
    the sample standard deviation over sqrt(samples).
    """
    if not 1 <= samples <= MAX_MC_SAMPLES:
        raise ValueError(f"need 1 to {MAX_MC_SAMPLES} samples, got {samples}")
    g = mod1(finite("reflection axis g", g))
    profile = spec.alpha_profile()
    length = 1.0 / spec.parts
    rng = np.random.default_rng(seed)
    hits = 0
    remaining = samples
    while remaining > 0:
        n = min(chunk, remaining)
        pair = rng.random((n, 2))  # row-major: results do not depend on chunk size
        u_rand, u_prime = pair[:, 0], pair[:, 1]
        r = np.sqrt(u_rand) / math.sqrt(math.pi)
        phi = 2.0 * math.pi * u_prime
        u = phi / (2.0 * math.pi)
        v = math.pi * r * r
        t = profile.inverse(v)
        in_first = _frac(u - t) < length
        in_reflected = _frac(_frac(g - u) - t) < length
        hits += int(np.count_nonzero(in_first & in_reflected))
        remaining -= n
    p_hat = hits / samples
    stderr = math.sqrt(p_hat * (1.0 - p_hat) / max(samples - 1, 1))
    return OracleEstimate(value=p_hat, stderr=stderr, samples=samples, seed=seed, g=g)

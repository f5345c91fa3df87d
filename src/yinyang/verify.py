"""Axiom checkers, relation residuals, and the Monte-Carlo cross-check.

The checks all live on the cylinder.  For a symbol split into ``parts``
congruent pieces by a spiral with height profile alpha, the slice of the
first piece at height v is an arc of length 1/parts starting at
alpha^{-1}(v).  The reflective-balance condition (axiom A4) says the
overlap

    f(g) = integral over v of  measure(slice_v intersect (g - slice_v))

is the constant 1/parts^2 for every reflection axis g.  With L = 1/parts
<= 1/2 and the slice starting at t = alpha^{-1}(v), the fiber overlap is
the circular tent max(0, L - dist(g, c)) centred at c = (2t + L) mod 1, so
f is a weighted sum of tents.  ``perfect_profile`` takes composite-Simpson
nodes and weights in v, sorts the tent centres once, and reads f at every
axis of the g-grid from prefix sums of w and w*c in one sorted sweep;
``monte_carlo_overlap`` estimates the same quantity by throwing uniform
points at the disk, giving an independent check on the quadrature path.

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
from dataclasses import dataclass

import numpy as np

from . import __version__
from .curves import AlphaProfile, CurveSpec, branch_polylines, polyline_turning_angles
from .geometry import mod1

AXIOM_IDS = ("A1", "A2", "A3", "A3''", "A4", "A5")
RELATION_IDS = ("eq_alal", "eq_mm", "eq_alalal", "eq_sigma", "eq_al3")

#: Flatness tolerance for A4: closed-form families vs interpolated tables.
FLATNESS_TOL_CLOSED_FORM = 1e-6
FLATNESS_TOL_TABLE = 1e-4
TURNING_ANGLE_TOL = 0.2  # radians, A5 sampling surrogate
RESIDUAL_GRID = 10_000

#: Default reflection axes and v-quadrature nodes of the A4 profile.
G_GRID = 512
V_QUADRATURE = 100_000


def v_quadrature_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights integrating over v in (0, 1), endpoints excluded.

    Composite Simpson on a uniform grid offset half a step from the
    endpoints (the profile inverse can be ill-behaved at v -> 0 for table
    profiles); the two half-step tails are closed with rectangles.  The
    node count is rounded up to odd; weights sum to 1 exactly.
    """
    if n < 2:
        raise ValueError(f"need at least 2 quadrature nodes, got {n}")
    m = n if n % 2 == 1 else n + 1
    h = 1.0 / m
    nodes = (np.arange(m) + 0.5) * h
    w = np.full(m, 2.0 * h / 3.0)
    w[1::2] = 4.0 * h / 3.0
    w[0] = w[-1] = h / 3.0
    w[0] += h / 2.0
    w[-1] += h / 2.0
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


def _tent_sweep(centres: np.ndarray, w: np.ndarray, length: float, g: np.ndarray) -> np.ndarray:
    """sum_i w_i * max(0, length - dist(g, centres_i)) at every g, for length <= 1/2.

    ``centres`` and ``g`` lie in [0, 1) and dist is the distance on the circle.
    The tents around g come from the windows [g - length, g] (weight
    w * (length - g + c)) and (g, g + length] (weight w * (length + g - c)) of
    the sorted centres.  A window edge x outside [0, 1) is located in the
    shifted copy c + floor(x) of the centres, whose prefix sums follow from
    the prefix sums of one copy and its totals, so the centres are sorted and
    summed once, never copied.
    """
    order = np.argsort(centres)
    c = centres[order]
    ws = w[order]
    del order
    cum_w = _prefix_sums(ws)
    cum_wc = _prefix_sums(np.multiply(ws, c, out=ws))
    total_w, total_wc = cum_w[-1], cum_wc[-1]

    def prefix(x: np.ndarray, side: str) -> tuple[np.ndarray, np.ndarray]:
        # sums of w and w*c over the centres of every copy c + m below x,
        # counted from the start of copy 0
        m = np.floor(x)
        k = np.searchsorted(c, x - m, side=side)
        pw = cum_w[k] + m * total_w
        pwc = cum_wc[k] + m * cum_w[k] + m * total_wc + 0.5 * m * (m - 1.0) * total_w
        return pw, pwc

    lo_w, lo_wc = prefix(g - length, "left")
    mid_w, mid_wc = prefix(g, "right")
    hi_w, hi_wc = prefix(g + length, "right")
    left = (length - g) * (mid_w - lo_w) + (mid_wc - lo_wc)
    right = (length + g) * (hi_w - mid_w) - (hi_wc - mid_wc)
    return left + right


def perfect_profile(
    spec: CurveSpec, g_grid: int = G_GRID, v_quadrature: int = V_QUADRATURE
) -> PerfectProfile:
    """Sample f(g) = integral_v of the slice reflection overlap, exactly per fiber.

    Each fiber contributes the exact single-arc overlap, a tent of half-width
    L = 1/parts around c = (2t + L) mod 1; only the v-integral is quadrature.
    One sort of the tent centres and prefix sums of w and w*c give f at all
    axes in O((V + G) log V) for V quadrature nodes and G axes.
    """
    if g_grid < 2:
        raise ValueError(f"need at least 2 reflection axes, got {g_grid}")
    profile = spec.alpha_profile()
    length = 1.0 / spec.parts
    nodes, w = v_quadrature_rule(v_quadrature)
    g_values = np.arange(g_grid) / g_grid
    f = _tent_sweep(np.mod(2.0 * profile.inverse(nodes) + length, 1.0), w, length, g_values)
    target = length * length
    dev = np.abs(f - target)
    witness = int(np.argmax(dev))
    return PerfectProfile(
        g=g_values,
        values=f,
        target=target,
        max_deviation=float(dev[witness]),
        witness_g=float(g_values[witness]),
        v_nodes=len(nodes),
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
    a = profile.evaluate
    if relation == "eq_alal":
        _require_turns(profile, relation, 1.0)
        u = _grid(0.0, 0.25)
        res = a(u + 0.25) - a(u) - 0.5
    elif relation == "eq_mm":
        _require_turns(profile, relation, 1.0)
        u = _grid(0.0, 0.5)
        res = m_function(profile, u) - m_function(profile, u + 0.5)
    elif relation == "eq_alalal":
        _require_turns(profile, relation, 2.0)
        u = _grid(0.0, 0.25)
        res = 0.5 + a(u) + a(u + 0.5) - a(u + 0.25) - a(u + 0.75)
    elif relation == "eq_sigma":
        _require_turns(profile, relation, 2.0)
        u = _grid(0.0, 0.25)
        sigma = lambda x: a(x + 0.25) - a(x)
        res = sigma(u + 0.5) - (0.5 - sigma(u))
    elif relation == "eq_al3":
        _require_turns(profile, relation, 1.5)
        u = _grid(0.0, 0.25)
        res = a(u) + a(u + 0.5) - a(u + 0.25) - 0.5
    else:
        raise ValueError(f"unknown relation {relation!r}, expected one of {RELATION_IDS}")
    return float(np.max(np.abs(res)))


def applicable_relations(turns: float) -> tuple[str, ...]:
    if abs(turns - 1.0) <= 1e-12:
        return ("eq_alal", "eq_mm")
    if abs(turns - 2.0) <= 1e-12:
        return ("eq_alalal", "eq_sigma")
    if abs(turns - 1.5) <= 1e-12:
        return ("eq_al3",)
    return ()


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
    if flatness_tolerance is not None and not (
        math.isfinite(flatness_tolerance) and flatness_tolerance >= 0.0
    ):
        raise ValueError(
            f"flatness tolerance must be a finite number >= 0, got {flatness_tolerance}"
        )
    profile = spec.alpha_profile()
    notes: list[str] = []
    axioms: dict[str, AxiomVerdict] = {}

    # A1: the parts are rotated copies of one branch by construction.
    detail = f"structural: {spec.parts} branches congruent by construction (rotated copies)"
    if spec.family == "custom":
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
            FLATNESS_TOL_TABLE if spec.family == "custom" else FLATNESS_TOL_CLOSED_FORM
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
    if q_max < 2:
        raise ValueError(f"q_max must be >= 2, got {q_max}")
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
        return {
            "value": self.value,
            "stderr": self.stderr,
            "samples": self.samples,
            "seed": self.seed,
            "g": self.g,
        }


def monte_carlo_overlap(
    spec: CurveSpec, g: float, samples: int, seed: int, chunk: int = 2_000_000
) -> OracleEstimate:
    """Estimate the overlap measure at axis g by uniform sampling of the disk.

    Draws points r = sqrt(U)/sqrt(pi), phi = 2 pi U' (uniform in area),
    and counts those lying in the first part together with their
    reflection.  Reproducible for a fixed seed; the standard error is
    the sample standard deviation over sqrt(samples).
    """
    if samples < 1:
        raise ValueError(f"need at least one sample, got {samples}")
    if not math.isfinite(g):
        raise ValueError(f"reflection axis g must be a finite number, got {g}")
    profile = spec.alpha_profile()
    length = 1.0 / spec.parts
    g = mod1(float(g))
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
        in_first = np.mod(u - t, 1.0) < length
        in_reflected = np.mod(np.mod(g - u, 1.0) - t, 1.0) < length
        hits += int(np.count_nonzero(in_first & in_reflected))
        remaining -= n
    p_hat = hits / samples
    stderr = math.sqrt(p_hat * (1.0 - p_hat) / max(samples - 1, 1))
    return OracleEstimate(value=p_hat, stderr=stderr, samples=samples, seed=seed, g=g)

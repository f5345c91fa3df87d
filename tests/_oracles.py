"""Reference implementations used to pin expected test values.

These deliberately avoid the library's overlap kernels: membership is
counted on dense midpoint grids, a single arc's overlap is written in
closed form, or two arc lists are intersected pairwise, so any agreement
with the library is evidence, not tautology.  Intersections and
rotation-invariant parts are formed piece by piece and merged by a sorted
greedy loop, where the library counts the pieces over each point in one
sweep.  The A4 profile has three references: the integral over heights v,
each slice located by a plain bisection of the profile; composite Simpson
over the curve parameter t, weighted by alpha' from each family's closed
form, the library's rule before it took the exact integral of the
profile's piecewise-linear interpolant; and that exact
integral summed segment by segment at every axis, with no sort or prefix
sum.  For one turn and two parts the paper's quarter-shift law gives A4
independently, f(g) - 1/4 = -2 integral_0^1/4 rho(t) tent'(g - 2t - 1/2) dt
with rho(t) = alpha(t + 1/4) - alpha(t) - 1/2: exactly, from trapezoids of
rho, for a table, and as the bound max |f - 1/4| <= sup |rho| / 2 for any
profile.  The v-path and t-rule references sum their ramps with the one-pass
kernel below, not the library's.  Radial
crossing counts are sampled radius by radius, where the library reads their
range from the closed form parts * turns / 2.  The library's A4
sums the knots' moments on the cells between its axes and reads the ramps
once; the one-pass kernel and A4 profile that this replaced, one sort over
every point and degree-2 ramps at every axis, are kept here as references
that it must match to rounding, 1e-14 max(1, sum |D_i|).  A profile that
is linear between its seams walks only those; the one-pass profile over the
knots of ``--v-quad``, the path it replaced there, must match it to rounding.
The renderer drops a spiral sample that repeats the one before it in one
vectorised pass; the loop it replaced, which compared each sample with the
last one kept, is kept here as the reference it must equal.  Ck raises its
power by squaring; numpy's general power, which it replaced, is kept here
as the reference it must match to a few ulps.  The Monte-Carlo oracle decides
most sine and ck memberships from a table of alpha's brackets; the forward
test it replaced, alpha at both copy ends of every sample, is kept here as the
reference it must equal.  ``m_function`` reads alpha on whole arrays; the
masked gathers and scatters it replaced are kept here as the reference it
must equal bit for bit.  The table's margin must cover twice the rounding
error of computed alpha, which is measured against alpha in 50-digit decimal
arithmetic.  Sine's A4 profile has a closed form, from the Fourier series of
the centres' density, against which the library's profile and the oracle's
estimate are both tested.
"""

from __future__ import annotations

from decimal import Decimal, localcontext

import numpy as np

from yinyang.circle_sets import EPS, CircleSet, _prefix_sums
from yinyang.curves import Ck, Fermat, Sine, Table
from yinyang.verify import MAX_V_QUADRATURE, _knot_map


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


def greedy_merge(pieces) -> tuple[tuple[float, float], ...]:
    """Canonical pieces of a union: sort by start, extend the last piece across gaps <= EPS."""
    items = sorted((a, b) for a, b in pieces if b - a > EPS)
    if not items:
        return ()
    merged = [list(items[0])]
    for a, b in items[1:]:
        if a - merged[-1][1] <= EPS:
            merged[-1][1] = max(merged[-1][1], b)
        else:
            merged.append([a, b])
    if merged[0][0] <= EPS:
        merged[0][0] = 0.0
    if 1.0 - merged[-1][1] <= EPS:
        merged[-1][1] = 1.0
    return tuple((a, b) for a, b in merged)


def pairwise_intersection(s: CircleSet, t: CircleSet) -> CircleSet:
    """S intersect T from the product of every piece of S with every piece of T, O(n m)."""
    pairs = ((max(a1, a2), min(b1, b2)) for a1, b1 in s.pieces for a2, b2 in t.pieces)
    return CircleSet(greedy_merge(pairs))


def iterated_rotation_invariant_part(s: CircleSet, q: int) -> CircleSet:
    """S intersected with its translates by k/q, k = 1 .. q - 1, one at a time.

    The translates are the library's; only the intersections are the oracle's.
    """
    result = s
    for k in range(1, q):
        result = pairwise_intersection(result, s.translate(k / q))
        if not result.pieces:
            break
    return result


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


def bisect_inverse(profile, v) -> np.ndarray:
    """alpha^{-1}(v) by 64 halvings of [0, domain_end] on ``profile.evaluate``.

    The library bisects the same way on the unchecked ``_alpha``, or uses a
    family's closed form; this oracle goes through the checked ``evaluate``.
    """
    v = np.asarray(v, dtype=float)
    lo = np.zeros_like(v)
    hi = np.full_like(v, profile.domain_end)
    for _ in range(64):
        mid = 0.5 * (lo + hi)
        below = profile.evaluate(mid) < v
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    return 0.5 * (lo + hi)


def v_path_profile_values(spec, g_grid: int, v_quadrature: int) -> np.ndarray:
    """f(g) integrated over heights: v on :func:`v_quadrature_rule`, slices at alpha^{-1}(v).

    Each slice's tent is read from :func:`one_pass_overlap_sums`, which the
    tests check against the G x V kernel on its own.
    """
    length = 1.0 / spec.parts
    nodes, w = v_quadrature_rule(v_quadrature)
    centres = np.mod(2.0 * bisect_inverse(spec.alpha_profile(), nodes) + length, 1.0)
    g = np.arange(g_grid) / g_grid
    return one_pass_overlap_sums(centres, w, g, (length, 0.0, -length), (1.0, -2.0, 1.0))


def profile_knots(profile, n: int) -> np.ndarray:
    """Knots t in [0, domain_end] of the piecewise-linear interpolant of alpha in A4.

    n is rounded up to odd, m, and the m - 1 intervals go to the pieces between
    the profile's seams in proportion to length, at least one each (so more
    pieces than intervals make more knots); pieces of equal length get equal
    counts whenever the counts allow it.  Every seam is a knot: for fermat and
    tables the interpolant is alpha, which A4 reads on the seams alone.  A4
    makes its knots block by block, and they must equal these bit for bit.
    """
    index, seams = _knot_map(profile, n)
    return np.interp(np.arange(index[-1] + 1.0), index, seams)


def alpha_prime(profile, u) -> np.ndarray:
    """alpha'(u) on u in [0, domain_end] from the closed forms of each family; the left limit at a seam.

    Written from the formulas in the docstring of ``yinyang.curves``, not read
    from the library, and only for its four families exactly: a subclass may
    change alpha, so it raises TypeError rather than inherit a parent's alpha'.
    """
    u = np.asarray(u, dtype=float)
    kind = type(profile)
    if kind is Fermat:  # (2/turns) u
        return np.full_like(u, 2.0 / profile.turns)
    if kind is Sine:  # 2u + (lam/pi) sin(8 pi u)
        return 2.0 + 8.0 * profile.lam * np.cos(8.0 * np.pi * u)
    if kind is Ck:  # f(u) = 2u + lam (u (1/4 - u))^(k+1) on [0, 1/4], 1/2 + f(u - 1/4) above
        x = np.where(u <= 0.25, u, u - 0.25)
        return 2.0 + profile.lam * (profile.k + 1) * (x * (0.25 - x)) ** profile.k * (0.25 - 2.0 * x)
    if kind is Table:  # linear between its knots: piece s spans (knot s, knot s + 1]
        knots = profile.seams()
        slopes = np.diff(profile.evaluate(knots)) / np.diff(knots)
        return slopes[np.searchsorted(knots[1:-1], u)]
    raise TypeError(f"no closed-form alpha' for {kind.__name__}")


def ck_alpha_pow(profile: Ck, u: np.ndarray) -> np.ndarray:
    """Ck's alpha with numpy's general power, the form the library replaced by squaring.

    The same arithmetic as the library's ``_alpha`` before: reduce u once, add
    1/2 on the upper half, and take 2u + lam (u (1/4 - u)) ** (k + 1).
    """
    upper = u > 0.25
    x = u - 0.25 * upper
    return 0.5 * upper + (2.0 * x + profile.lam * (x * (0.25 - x)) ** (profile.k + 1))


def t_quadrature_rule(profile, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes t in [0, domain_end] and weights w * alpha'(t) for integrals over heights.

    A sum over the rule approximates integral_0^1 F(v) dv = integral F(alpha(t)) alpha'(t) dt.
    The nodes are :func:`profile_knots`, which hold every seam, and alpha' is
    :func:`alpha_prime`, not the library's.
    Intervals are numbered through all pieces between seams; interval i pairs
    with interval i + 1 for composite Simpson when i is even and both lie in
    one piece, and is a trapezoid when its partner lies in another piece.
    Neighbouring pieces share the node at their seam, and each side weights it
    with its own one-sided alpha', so a jump of alpha' there costs no accuracy.
    """
    nodes = profile_knots(profile, n)
    seams = profile.seams()
    lengths = np.diff(seams)
    cuts = np.searchsorted(nodes, seams)  # interpolation puts each seam on a node exactly
    starts, ends = cuts[:-1], cuts[1:]  # first interval of each piece, and one past its last
    count = ends - starts
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
    slope = alpha_prime(profile, nodes)  # the left limit at a seam
    w = np.empty_like(nodes)
    np.multiply(left, slope[:-1], out=w[:-1])
    w[-1] = 0.0
    seam = starts[1:]  # an interval starting at a seam takes alpha' one ulp to its right
    w[seam] += left[seam] * (alpha_prime(profile, np.nextafter(seams[1:-1], np.inf)) - slope[seam])
    right *= slope[1:]
    w[1:] += right
    return nodes, w


def t_rule_profile_values(spec, g_grid: int, v_quadrature: int) -> np.ndarray:
    """f(g) by :func:`t_quadrature_rule`, each fiber's tent read from :func:`one_pass_overlap_sums`."""
    length = 1.0 / spec.parts
    nodes, w = t_quadrature_rule(spec.alpha_profile(), v_quadrature)
    centres = np.mod(2.0 * nodes + length, 1.0)
    g = np.arange(g_grid) / g_grid
    return one_pass_overlap_sums(centres, w, g, (length, 0.0, -length), (1.0, -2.0, 1.0))


def _tent_integral(u, length: float):
    """integral_0^u of the circular tent max(0, L - dist(s, 0)), for any real u."""
    n = np.floor(u)
    r = u - n
    return (n * length * length + 0.5 * length * length - 0.5 * np.maximum(length - r, 0.0) ** 2
            + 0.5 * np.maximum(r - 1.0 + length, 0.0) ** 2)


def interpolant_profile_values(spec, knots: np.ndarray, g_grid: int) -> np.ndarray:
    """f(g) for the piecewise-linear interpolant of alpha on ``knots``, one segment at a time.

    Segment [t_s, t_s+1] of slope sigma_s adds sigma_s / 2 times the tent
    integral between g - (2 t_s+1 + L) and g - (2 t_s + L); each axis is a full
    pass over the segments (G x N), with no sort, prefix sum or slope jumps.
    """
    length = 1.0 / spec.parts
    alpha = spec.alpha_profile().evaluate(knots)
    half_slopes = np.diff(alpha) / np.diff(knots) / 2.0
    lo, hi = 2.0 * knots[:-1] + length, 2.0 * knots[1:] + length
    out = np.empty(g_grid)
    for i, g in enumerate(np.arange(g_grid) / g_grid):
        upper = g - lo  # the segment spans [g - hi, g - lo] in tent coordinates
        top = upper - np.floor(upper)
        ints = _tent_integral(top, length) - _tent_integral(top - (hi - lo), length)
        out[i] = np.sum(half_slopes * ints)
    return out


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


def one_pass_overlap_sums(points: np.ndarray, weights: np.ndarray, g, shifts, coefs,
                          degree: int = 1) -> np.ndarray:
    """The overlap kernel in one pass: one stable sort of every point, prefix sums, ramps per shift."""
    order = np.argsort(points, kind="stable")
    x, wx = points[order], weights[order]
    cum = [_prefix_sums(wx)]  # cum[p] sums w * x^p over copy 0
    for _ in range(degree):
        wx *= x
        cum.append(_prefix_sums(wx))
    w0, w1 = cum[0][-1], cum[1][-1]
    out = np.zeros(len(g))
    for shift, coef in zip(shifts, coefs):
        y = g + shift
        m = np.floor(y)  # the copy that holds y; copy j adds j to every point
        k = np.searchsorted(x, y - m, side="right")
        c0, c1 = cum[0][k], cum[1][k]
        s0 = c0 + m * w0
        s1 = c1 + m * c0 + m * w1 + 0.5 * m * (m - 1.0) * w0
        if degree == 1:
            out += coef * (y * s0 - s1)
            continue
        s2 = (cum[2][k] + m * (2.0 * c1 + m * c0) + m * cum[2][-1]
              + m * (m - 1.0) * (w1 + (2.0 * m - 1.0) / 6.0 * w0))
        out += coef * (0.5 * y * (y * s0 - 2.0 * s1) + 0.5 * s2)
    return out


def one_pass_profile_values(spec, g_grid: int, v_quadrature: int) -> np.ndarray:
    """f(g) of ``perfect_profile`` from every knot at once: one sort of all the tent centres."""
    profile = spec.alpha_profile()
    t = profile_knots(profile, v_quadrature)
    alpha = profile.evaluate(t)
    rise = alpha[-1] - alpha[0]
    jumps = np.diff(np.diff(alpha) / (2.0 * np.diff(t)), prepend=0.0, append=0.0)
    length = 1.0 / spec.parts
    g = np.arange(g_grid) / g_grid
    centres = 2.0 * t + length
    centres -= np.floor(centres)
    f = one_pass_overlap_sums(centres, jumps, g, (length, 0.0, -length), (1.0, -2.0, 1.0), degree=2)
    f += length * length * (rise + np.sum(jumps * centres) - (0.5 + g) * np.sum(jumps))
    return f


def quarter_shift_sup(profile, grid: int = 1001) -> float:
    """sup |rho| over t in [0, 1/4] of rho(t) = alpha(t + 1/4) - alpha(t) - 1/2, for one turn.

    rho is read at the seams u_i and at u_i - 1/4 that lie in [0, 1/4], and on a
    uniform grid there.  For a table rho is linear between those breakpoints,
    so this is its sup exactly; for a curved profile it is a lower bound, which
    only makes ``max_dev <= sup|rho| / 2`` harder to pass.
    """
    seams = profile.seams()
    t = np.concatenate((seams, seams - 0.25, np.linspace(0.0, 0.25, grid)))
    t = t[(t >= 0.0) & (t <= 0.25)]
    return float(np.max(np.abs(profile.evaluate(t + 0.25) - profile.evaluate(t) - 0.5)))


def quarter_shift_profile_values(profile, g_grid: int) -> np.ndarray:
    """f(g) of a one-turn, two-part table from the quarter-shift law, with no sort of centres.

    With L = 1/2 the tent is 1/2 - dist(x, Z), so tent(x) + tent(x + 1/2) = 1/2.
    Pairing t with t + 1/4 and integrating by parts gives

        f(g) - 1/4 = -2 integral_0^1/4 rho(t) tent'(g - 2t - 1/2) dt,
        rho(t) = alpha(t + 1/4) - alpha(t) - 1/2.

    tent' is -1 where the fractional part of its argument lies in (0, 1/2) and +1
    where it lies in (1/2, 1).  On [0, 1/4] it flips once, at t* = (g mod 1/2) / 2,
    and it is s = +1 on (0, t*) when floor(2g) is even, s = -1 when it is odd.  So
    with R(t) = integral_0^t rho, f(g) = 1/4 - 2 s (2 R(t*) - R(1/4)).  For a table
    rho is linear between the seams u_i and u_i - 1/4 in [0, 1/4], so R is a sum of
    exact trapezoids.
    """
    seams = profile.seams()
    rho = lambda t: profile.evaluate(t + 0.25) - profile.evaluate(t) - 0.5
    t = np.concatenate((seams, seams - 0.25, [0.0, 0.25]))
    t = np.unique(t[(t >= 0.0) & (t <= 0.25)])
    r = rho(t)
    area = np.concatenate(([0.0], np.cumsum(np.diff(t) * (r[:-1] + r[1:]) / 2.0)))
    g = np.arange(g_grid) / g_grid
    flip = np.mod(g, 0.5) / 2.0
    k = np.searchsorted(t, flip, side="right") - 1
    below = area[k] + (flip - t[k]) * (r[k] + rho(flip)) / 2.0  # R(t*)
    sign = np.where(np.floor(2.0 * g) % 2 == 0, 1.0, -1.0)
    return 0.25 - 2.0 * sign * (2.0 * below - area[-1])


def sine_profile_values(spec, g) -> np.ndarray:
    """A sine spec's true A4 profile, f(g) = L^2 + 4 lam (sin(2 pi L) / 2 pi)^2 cos(4 pi (g - L)).

    Substituting s = 2t makes f the tent of half-width L = 1/parts convolved
    with the centres' wrapped density P(x) = alpha'(x/2)/2 = 1 + 4 lam cos(4 pi x),
    at g - L.  The tent's Fourier coefficient at n is (sin(pi n L) / pi n)^2, and
    P has the frequencies 0 and 2 alone.
    """
    length = 1.0 / spec.parts
    amplitude = 4.0 * spec.lam * (np.sin(2.0 * np.pi * length) / (2.0 * np.pi)) ** 2
    return length**2 + amplitude * np.cos(4.0 * np.pi * (np.asarray(g, dtype=float) - length))


_PI = Decimal("3.14159265358979323846264338327950288419716939937510582097494459")


def decimal_alpha(profile, u: float) -> Decimal:
    """Sine's or Ck's alpha at the float u in 50-digit decimal arithmetic, with pi to 60 digits.

    Written from the formulas in the docstring of ``yinyang.curves``; sine's
    sin is its Taylor series after reduction into [-pi, pi].
    """
    with localcontext() as ctx:
        ctx.prec = 50
        u = Decimal(u)
        if type(profile) is Sine:  # 2u + (lam/pi) sin(8 pi u)
            x = 8 * _PI * u
            x -= 2 * _PI * (x / (2 * _PI)).to_integral_value()
            term, total, n = x, x, 1
            while abs(term) > Decimal("1e-55"):
                term *= -x * x / ((n + 1) * (n + 2))
                total += term
                n += 2
            return 2 * u + Decimal(profile.lam) / _PI * total
        if type(profile) is Ck:  # 2w + lam (w (1/4 - w))^(k+1), w = u less 1/4 and 1/2 more above 1/4
            quarter = Decimal("0.25")
            w = u - quarter if u > quarter else u
            return (Decimal("0.5") if u > quarter else 0) + 2 * w \
                + Decimal(profile.lam) * (w * (quarter - w)) ** (profile.k + 1)
    raise TypeError(f"no decimal alpha for {type(profile).__name__}")


def forward_membership(profile, x: np.ndarray, v: np.ndarray, length: float) -> np.ndarray:
    """Whether (x, v) lies in the first part, from alpha at both copy ends of every sample.

    The oracle's forward test before its bracket table: alpha(clip(x + j - L))
    < v <= alpha(clip(x + j)) for some copy 0 <= j < ceil(domain_end + L), the
    ends clipped to [0, domain_end], with alpha evaluated at every end.  The
    library settles most comparisons from the table and must decide each one
    as this does.
    """
    end = profile.domain_end
    inside = np.zeros(x.shape, dtype=bool)
    for j in range(int(np.ceil(end + length))):
        below = profile._alpha(np.clip(x + (j - length), 0.0, end)) < v
        inside |= below & (v <= profile._alpha(np.clip(x + j, 0.0, end)))
    return inside


def masked_m_function(profile, u: np.ndarray) -> np.ndarray:
    """The slice measure m(u), u in (0, 1], through the masked gathers and scatters of its two sides.

    m(u) = alpha(u/2) + 1 - alpha((u + 1/2)/2) up to 1/2 and alpha(u/2) - alpha((u - 1/2)/2) past it.
    """
    abar = lambda x: profile._alpha(x / 2.0)
    out = np.empty_like(u)
    low = u <= 0.5
    out[low] = abar(u[low]) + 1.0 - abar(u[low] + 0.5)
    out[~low] = abar(u[~low]) - abar(u[~low] - 0.5)
    return out


def loop_dedupe(points: np.ndarray) -> np.ndarray:
    """Drop each point within 1e-12 of the last point kept: the renderer's former loop."""
    keep = [0]
    for i in range(1, len(points)):
        if np.hypot(*(points[i] - points[keep[-1]])) > 1e-12:
            keep.append(i)
    return points[keep]

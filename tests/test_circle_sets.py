import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from yinyang.circle_sets import (
    EPS,
    MAX_Q,
    Arc,
    CircleSet,
    _prefix_sums,
    _sums_below,
    arc_reflection_overlap_into,
)

from _oracles import (
    arc_reflection_overlap,
    grid_max_overlap,
    grid_overlap_profile,
    grid_reflection_overlap,
    iterated_rotation_invariant_part,
    one_pass_overlap_sums,
    pairwise_intersection,
    pairwise_reflection_overlap,
)

TOL = 1e-12
#: Bound between the cumulative-measure overlap and the pairwise double loop.
KERNEL_TOL = 1e-14


@st.composite
def circle_sets(draw, max_arcs=8, min_len=0.005, max_len=0.35):
    n = draw(st.integers(min_value=1, max_value=max_arcs))
    arcs = [
        (
            draw(st.floats(min_value=0.0, max_value=1.0, exclude_max=True)),
            draw(st.floats(min_value=min_len, max_value=max_len)),
        )
        for _ in range(n)
    ]
    return CircleSet.from_arcs(arcs)


@st.composite
def symmetric_circle_sets(draw):
    """A set that rotation by 1/q maps onto itself, q in 2..6: q copies of up to three arcs."""
    q = draw(st.integers(min_value=2, max_value=6))
    arcs = [
        (
            draw(st.floats(min_value=0.0, max_value=1.0, exclude_max=True)),
            draw(st.floats(min_value=0.005, max_value=1.0 / q)),
        )
        for _ in range(draw(st.integers(min_value=1, max_value=3)))
    ]
    return CircleSet.from_arcs([(a + k / q, length) for a, length in arcs for k in range(q)])


def _sym_diff_measure(s: CircleSet, t: CircleSet) -> float:
    return s.intersect(t.complement()).measure() + t.intersect(s.complement()).measure()


# -- normalization ------------------------------------------------------------


def test_wrap_split_is_canonical():
    s = CircleSet.from_arcs([(0.9, 0.2)])
    assert len(s.arcs) == 2
    assert s.arcs[0].start == pytest.approx(0.0)
    assert s.arcs[0].length == pytest.approx(0.1)
    assert s.arcs[1].start == pytest.approx(0.9)
    assert s.arcs[1].length == pytest.approx(0.1)
    assert s.measure() == pytest.approx(0.2, abs=TOL)


def test_adjacent_arcs_merge():
    s = CircleSet.from_arcs([(0.0, 0.3), (0.3, 0.2)])
    assert s.to_json() == [[0.0, 0.5]]


def test_empty_set():
    s = CircleSet.from_arcs([])
    assert s.measure() == 0.0
    assert s.arcs == ()


def test_full_circle_canonical():
    s = CircleSet.from_arcs([(0.25, 1.0)])
    assert s.to_json() == [[0.0, 1.0]]
    t = CircleSet.from_arcs([(0.0, 0.6), (0.6, 0.4)])
    assert t.to_json() == [[0.0, 1.0]]


def test_arc_validation():
    with pytest.raises(ValueError):
        Arc(0.0, 0.0)
    with pytest.raises(ValueError):
        Arc(0.0, 1.5)


@given(circle_sets())
def test_normalize_idempotent(s):
    again = CircleSet.from_arcs(s.arcs)
    assert again == s


def test_arcs_view_rebuilds_a_piece_whose_end_came_from_another_arc():
    # the union ends at 0.5 + 0.475 = 0.975, but no length from its start a rounds
    # a + length to 0.975, so from_arcs ends the piece where its arc view does
    a = 0.43313387982969825
    s = CircleSet.from_arcs([(a, 0.1), (0.5, 0.475)])
    assert CircleSet.from_arcs(s.arcs) == s
    assert s.measure() == pytest.approx(0.975 - a, abs=TOL)


# -- measures of basic sets ----------------------------------------------------


def test_measure_examples():
    assert CircleSet.from_arcs([(0.0, 0.5)]).measure() == pytest.approx(0.5)
    assert CircleSet.full().measure() == 1.0
    s = CircleSet.from_arcs([(0.0, 0.1), (0.5, 0.2)])
    assert s.measure() == pytest.approx(0.3, abs=TOL)


@pytest.mark.parametrize(
    "method, value",
    [("translate", math.nan), ("translate", math.inf), ("reflect", math.nan),
     ("reflection_overlap", math.nan), ("contains", math.nan)],
)
def test_non_finite_shift_axis_or_point_raises(method, value):
    with pytest.raises(ValueError, match="must be a finite number"):
        getattr(CircleSet.from_arcs([(0.1, 0.2)]), method)(value)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_overlap_profile_refuses_a_non_finite_axis(value):
    # np.interp read nan at nan and inf (with a RuntimeWarning at inf), a silent number
    with pytest.raises(ValueError, match="axis must be a finite number"):
        CircleSet.from_arcs([(0.1, 0.2)]).overlap_profile()(value)


def test_intersect_complement_reflect_examples():
    half = CircleSet.from_arcs([(0.0, 0.5)])
    quarter = CircleSet.from_arcs([(0.25, 0.25)])
    assert half.intersect(quarter).to_json() == [[0.25, 0.25]]
    assert half.complement().to_json() == [[0.5, 0.5]]
    # the semicircle is fixed by reflection through g = 1/2 (up to measure zero)
    assert _sym_diff_measure(half.reflect(0.5), half) <= TOL


@given(circle_sets())
def test_complement_measure(s):
    assert s.complement().measure() == pytest.approx(1.0 - s.measure(), abs=TOL)


def test_complement_keeps_measure_with_sliver_gaps_at_zero():
    # gaps of at most EPS at 0 and 1 close in the canonical form, as interior ones do
    s = CircleSet.from_arcs([(EPS, 0.25), (0.26, 0.25)])
    assert s.arcs[0].start == 0.0
    assert s.complement().measure() == pytest.approx(1.0 - s.measure(), abs=TOL)
    t = CircleSet.from_arcs([(EPS / 2, 0.4), (0.5, 0.5 - EPS / 2)])
    assert t.arcs[-1].end == 1.0
    assert t.complement().measure() == pytest.approx(1.0 - t.measure(), abs=TOL)


@given(circle_sets())
def test_complement_is_an_involution(s):
    assert s.complement().complement() == s


def test_complement_of_complement_keeps_every_endpoint():
    # a + (b - a) need not equal b: an end rebuilt from a stored length moved the
    # start 0.854 to 0.8539999999999999 here
    s = CircleSet.from_arcs([(0.854, 0.056), (0.052, 0.132)])
    assert s.complement().complement() == s
    assert s.complement().complement().to_json() == s.to_json()


@given(circle_sets(), st.floats(0.0, 1.0))
def test_translate_preserves_measure(s, h):
    assert s.translate(h).measure() == pytest.approx(s.measure(), abs=TOL)


@given(circle_sets(), st.floats(0.0, 1.0))
def test_reflect_preserves_measure(s, g):
    assert s.reflect(g).measure() == pytest.approx(s.measure(), abs=TOL)


# A 1e-12 sliver at 0 or 1 must survive canonicalisation: snapping or dropping
# it would move a measure by the full tolerance of the checks above.


def test_translate_by_tolerance_keeps_measure():
    s = CircleSet.from_arcs([(0.0, 0.125)])
    assert abs(s.translate(1e-12).measure() - s.measure()) <= TOL


def test_reflect_with_tolerance_wrap_keeps_measure():
    s = CircleSet.from_arcs([(0.0, 0.125)])
    assert abs(s.reflect(0.125 - 1e-12).measure() - s.measure()) <= TOL


@given(circle_sets(), st.floats(0.0, 1.0))
def test_reflect_is_involutive_as_set(s, g):
    assert _sym_diff_measure(s.reflect(g).reflect(g), s) <= 1e-9


# -- reflection overlap ---------------------------------------------------------


def test_reflection_overlap_semicircle_fixed_axis():
    s = CircleSet.from_arcs([(0.0, 0.5)])
    assert s.reflection_overlap(0.5) == pytest.approx(0.5, abs=TOL)
    assert s.reflection_overlap(0.0) == pytest.approx(0.0, abs=TOL)


def test_reflection_overlap_quarter_axis_matches_grid_oracle():
    arcs = [(0.0, 0.5)]
    s = CircleSet.from_arcs(arcs)
    exact = s.reflection_overlap(0.25)
    brute = grid_reflection_overlap(arcs, 0.25)
    assert brute == pytest.approx(exact, abs=1e-6)
    assert exact == pytest.approx(0.25, abs=TOL)  # frozen from the oracle


def test_overlap_profile_semicircle_triangle():
    s = CircleSet.from_arcs([(0.0, 0.5)])
    prof = s.overlap_profile()
    assert prof(0.0) == pytest.approx(0.0, abs=TOL)
    assert prof(0.5) == pytest.approx(0.5, abs=TOL)
    # brute-force sampled profile agrees everywhere (frozen triangle shape)
    g, values = grid_overlap_profile([(0.0, 0.5)], g_points=256, n=100_000)
    interp = np.array([prof(x) for x in g])
    assert np.max(np.abs(interp - values)) < 1e-4


def test_overlap_profile_constants():
    assert CircleSet.full().overlap_profile()(0.37) == pytest.approx(1.0)
    assert CircleSet.empty().overlap_profile()(0.37) == pytest.approx(0.0)


@given(circle_sets())
@settings(max_examples=60, deadline=None)
def test_profile_matches_pointwise_overlap(s):
    prof = s.overlap_profile()
    m = s.measure()
    assert all(-TOL <= v <= m + TOL for v in prof.values)  # f(g) in [0, measure]
    rng = np.random.RandomState(7)
    for g in rng.uniform(0.0, 1.0, 25):
        assert prof(g) == pytest.approx(s.reflection_overlap(g), abs=TOL)


@given(circle_sets(max_arcs=32), st.floats(0.0, 1.0, exclude_max=True))
@settings(max_examples=60, deadline=None)
def test_overlaps_equal_the_one_pass_kernel_bit_for_bit(s, g):
    # a circle set is one block of the overlap kernel, so nothing may move by an ulp
    ends = np.array(s.pieces).reshape(-1)
    signs = np.tile([1.0, -1.0], len(s.pieces))
    prof = s.overlap_profile()
    one_pass = one_pass_overlap_sums(ends, signs, np.array(prof.breakpoints), -ends, signs)
    assert prof.values == tuple(one_pass.tolist())
    assert s.reflection_overlap(g) == one_pass_overlap_sums(ends, signs, np.array([g]), -ends, signs)[0]


def _brute_sums_below(x, w, y, p):
    """sum of w * (x + j)^p over the copies x + j at or below y, counted from the start of
    copy 0: the copies 0 .. floor(y) add their points, the copies below 0 subtract theirs."""
    m = math.floor(y)
    terms = [wl * (xl + j) ** p if j >= 0 else -wl * (xl + j) ** p
             for j in range(min(m, 0), max(m, -1) + 1) for xl, wl in zip(x, w)
             if (xl + j <= y) == (j >= 0)]
    return math.fsum(terms), math.fsum(abs(t) for t in terms)


@pytest.mark.parametrize("rows", [2, 3])
def test_sums_below_match_a_sum_over_the_copies(rows):
    # y in [-2, 3) reaches the copies -2 .. 2; the points hold both ends of [0, 1]
    rng = np.random.RandomState(3)
    x = np.sort(np.concatenate(([0.0, 1.0], rng.uniform(0.0, 1.0, 40))))
    w = rng.uniform(-1.0, 1.0, len(x))
    sums = _prefix_sums(np.stack([w * x**p for p in range(rows)]))
    y = np.concatenate((np.arange(-2.0, 3.0, 0.25), rng.uniform(-2.0, 3.0, 200)))
    got = _sums_below(x, sums, y)
    assert len(got) == rows
    for p in range(rows):
        for yi, s in zip(y, got[p]):
            want, scale = _brute_sums_below(x, w, yi, p)
            assert abs(s - want) <= 1e-13 * max(1.0, scale), (p, yi)


def test_overlap_profile_memory_does_not_grow_with_ends_times_breakpoints():
    # 64 disjoint arcs give 128 ends and about 8 300 breakpoints: a kernel that held a
    # value per end and breakpoint would trace 8.5 MB per array
    rng = np.random.RandomState(1)
    s = CircleSet.from_arcs([(k / 64 + rng.uniform(0.0, 1 / 128), 1 / 256) for k in range(64)])
    assert len(s.pieces) == 64
    s.overlap_profile()  # imports and caches come before the trace
    tracemalloc.start()
    try:
        s.overlap_profile()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 1024 * 1024, f"overlap_profile traced {peak / 1e6:.1f} MB at 64 arcs"


def test_profile_matches_pointwise_at_1000_random_axes():
    rng = np.random.RandomState(42)
    arcs = [(rng.uniform(0, 1), rng.uniform(0.01, 0.2)) for _ in range(6)]
    s = CircleSet.from_arcs(arcs)
    prof = s.overlap_profile()
    for g in rng.uniform(0.0, 1.0, 1000):
        assert abs(prof(g) - s.reflection_overlap(g)) <= TOL


@given(circle_sets(), st.floats(0.0, 1.0))
def test_overlap_symmetry_under_base_reflection(s, g):
    assert s.reflection_overlap(g) == pytest.approx(
        s.reflect(0.0).reflection_overlap((-g) % 1.0), abs=TOL
    )


def _disjoint_arcs(seed: int, count: int) -> list[tuple[float, float]]:
    """`count` disjoint arcs between sorted uniform cuts, shifted so that some wrap."""
    rng = np.random.default_rng(seed)
    cuts = np.sort(rng.uniform(0.0, 1.0, 2 * count)) + rng.uniform(0.0, 1.0)
    return [(float(a % 1.0), float(b - a)) for a, b in zip(cuts[0::2], cuts[1::2])]


@given(circle_sets(), st.floats(0.0, 1.0))
def test_reflection_overlap_matches_pairwise_oracle(s, g):
    assert abs(s.reflection_overlap(g) - pairwise_reflection_overlap(s, g)) <= KERNEL_TOL


EDGE_SETS = {
    "empty": CircleSet.empty(),
    "full": CircleSet.full(),
    "wrapping": CircleSet.from_arcs([(0.9, 0.2), (0.4, 0.05), (0.7, 0.15)]),
    # endpoints within EPS of 0 and 1 snap; those a little further do not
    "snapped-ends": CircleSet.from_arcs([(EPS / 2, 0.3), (0.6, 0.4 - EPS / 2)]),
    "near-ends": CircleSet.from_arcs([(3 * EPS, 0.3), (0.6, 0.4 - 3 * EPS)]),
    "near-end-slivers": CircleSet.from_arcs([(2 * EPS, 0.25), (0.5, 0.5 - 2 * EPS), (0.3, 3 * EPS)]),
    **{f"32-arcs-seed{seed}": CircleSet.from_arcs(_disjoint_arcs(seed, 32)) for seed in range(3)},
}


@pytest.mark.parametrize("name", EDGE_SETS)
def test_reflection_overlap_matches_pairwise_oracle_on_edge_sets(name):
    s = EDGE_SETS[name]
    bp = s.overlap_profile().breakpoints
    axes = [0.0, EPS / 2, 2 * EPS, 0.5, 1.0 - 2 * EPS, 1.0 - EPS / 2, *bp[:: max(1, len(bp) // 64)]]
    axes += list(np.random.default_rng(3).uniform(0.0, 1.0, 64))
    for g in axes:
        assert abs(s.reflection_overlap(g) - pairwise_reflection_overlap(s, g)) <= KERNEL_TOL, g


def test_overlap_symmetry_under_base_reflection_at_tolerance_axis():
    s = CircleSet.from_arcs([(0.0, 0.25)])
    g = 1e-12
    assert abs(s.reflection_overlap(g) - s.reflect(0.0).reflection_overlap((-g) % 1.0)) <= TOL


# -- averaging identity and strict maximum --------------------------------------


def test_mean_overlap_examples():
    assert CircleSet.from_arcs([(0.0, 0.5)]).mean_overlap() == pytest.approx(0.25, abs=TOL)
    assert CircleSet.from_arcs([(0.0, 0.3)]).mean_overlap() == pytest.approx(0.09, abs=TOL)
    s = CircleSet.from_arcs([(0.13, 0.25), (0.61, 0.15)])
    assert s.mean_overlap() == pytest.approx(s.measure() ** 2, abs=TOL)


@given(circle_sets())
def test_mean_overlap_equals_measure_squared(s):
    assert abs(s.mean_overlap() - s.measure() ** 2) <= TOL


@pytest.mark.parametrize("count", [32, 128])
def test_mean_overlap_equals_measure_squared_for_many_arcs(count):
    # about 33 000 profile breakpoints at 128 arcs; the bound is 10x inside TOL
    s = CircleSet.from_arcs(_disjoint_arcs(count, count))
    assert len(s.arcs) >= count
    assert abs(s.mean_overlap() - s.measure() ** 2) <= 1e-13


@given(circle_sets())
@settings(max_examples=60, deadline=None)
def test_max_overlap_strictly_beats_average(s):
    m = s.measure()
    assume(0.05 <= m <= 0.95)
    g_star, value = s.max_overlap()
    assert value - m * m > 0.0
    assert value == pytest.approx(s.reflection_overlap(g_star), abs=TOL)


def test_max_overlap_examples():
    g, v = CircleSet.from_arcs([(0.0, 0.5)]).max_overlap()
    assert (g, v) == (pytest.approx(0.5), pytest.approx(0.5))
    assert v > 0.25
    g, v = CircleSet.from_arcs([(0.0, 0.25)]).max_overlap()
    assert (g, v) == (pytest.approx(0.25), pytest.approx(0.25))
    assert v > 0.0625
    # frozen against the grid oracle
    g_brute, v_brute = grid_max_overlap([(0.0, 0.25)], g_points=2000, n=100_000)
    assert v_brute == pytest.approx(0.25, abs=1e-3)
    assert g_brute == pytest.approx(0.25, abs=1e-3)


def test_max_overlap_rejects_trivial_sets():
    with pytest.raises(ValueError):
        CircleSet.full().max_overlap()
    with pytest.raises(ValueError):
        CircleSet.empty().max_overlap()


# -- rotation-invariant part -----------------------------------------------------


def test_rotation_invariant_part_semicircle():
    s = CircleSet.from_arcs([(0.0, 0.5)])
    assert s.rotation_invariant_part(1, 2).measure() == 0.0
    # explicit three-arc intersection: [0,1/2) & [1/3,5/6) & [2/3,7/6) is empty
    assert s.rotation_invariant_part(1, 3).measure() == 0.0


def test_rotation_invariant_part_full_circle():
    for p, q in ((1, 2), (1, 3), (2, 3), (3, 4)):
        assert CircleSet.full().rotation_invariant_part(p, q).to_json() == [[0.0, 1.0]]


def test_rotation_invariant_part_large_arc():
    # arc of length 0.8 under half-turn rotation: overlap has measure 2*0.8-1
    s = CircleSet.from_arcs([(0.1, 0.8)])
    inv = s.rotation_invariant_part(1, 2)
    assert inv.measure() == pytest.approx(0.6, abs=TOL)
    x = (np.arange(1_000_000) + 0.5) / 1_000_000
    member = ((x - 0.1) % 1.0 < 0.8) & ((x - 0.6) % 1.0 < 0.8)
    assert np.count_nonzero(member) / 1_000_000 == pytest.approx(0.6, abs=1e-5)


def test_rotation_invariant_part_validation():
    s = CircleSet.from_arcs([(0.0, 0.5)])
    with pytest.raises(ValueError):
        s.rotation_invariant_part(1, 1)
    with pytest.raises(ValueError):
        s.rotation_invariant_part(2, 4)
    with pytest.raises(ValueError):
        s.rotation_invariant_part(3, 2)


def test_rotation_invariant_part_refuses_bools_and_orders_past_max_q(monkeypatch):
    s = CircleSet.from_arcs([(0.0, 0.5)])
    for p, q in ((True, 3), (1, True)):
        with pytest.raises(ValueError, match="must be an integer in"):
            s.rotation_invariant_part(p, q)

    def no_work(*args, **kwargs):
        raise AssertionError("a refused rotation order must not build translates")

    monkeypatch.setattr(CircleSet, "translate", no_work)
    with pytest.raises(ValueError, match=f"\\[2, {MAX_Q}\\]"):
        s.rotation_invariant_part(1, MAX_Q + 1)


def test_constructor_refuses_non_canonical_pieces():
    # these read measures -0.3 and 0.6 (for a set of measure 0.5) when the constructor took them
    many = tuple((k / 2e5, (k + 0.5) / 2e5) for k in reversed(range(100_000)))
    for pieces in (((0.5, 0.2),), ((0.1, 0.4), (0.3, 0.6)), ((0.1, 0.3), (0.3, 0.6)),
                   ((0.6, 0.8), (0.1, 0.2)), ((-0.1, 0.2),), ((0.5, 1.5),), ((0.2, 0.2),), many):
        with pytest.raises(ValueError, match="circle set pieces must be sorted") as error:
            CircleSet(pieces)
        assert len(str(error.value)) < 1024  # a long refused value is cut short
    assert CircleSet(((0.0, 0.1), (0.3, 1.0))).measure() == pytest.approx(0.8, abs=1e-15)


def test_rotation_invariant_part_accepts_max_q():
    assert CircleSet.full().rotation_invariant_part(1, MAX_Q) == CircleSet.full()
    assert CircleSet.from_arcs([(0.0, 0.5)]).rotation_invariant_part(1, MAX_Q) == CircleSet.empty()


@given(st.one_of(circle_sets(), symmetric_circle_sets()), circle_sets())
@settings(deadline=None)
def test_sweep_pieces_equal_pairwise_and_iterated_oracles(s, t):
    # bit for bit: the counting sweep must keep every endpoint the product and loop kept
    c = s.complement()
    for a, b in ((s, t), (t, s), (c, s), (s, c), (c, t)):
        assert a.intersect(b).pieces == pairwise_intersection(a, b).pieces
    for q in range(2, 7):
        for part in (s, c):
            expected = iterated_rotation_invariant_part(part, q).pieces
            for p in range(1, q):
                if math.gcd(p, q) == 1:
                    assert part.rotation_invariant_part(p, q).pieces == expected, (p, q)


# -- single-arc closed forms -------------------------------------------------------


@given(
    st.floats(0.0, 1.0, exclude_max=True),
    st.floats(0.01, 1.0),
    st.floats(0.0, 1.0),
)
def test_arc_closed_form_matches_set_algebra(start, length, g):
    s = CircleSet.from_arcs([(start, length)])
    assert arc_reflection_overlap(start, length, g) == pytest.approx(
        s.reflection_overlap(g), abs=TOL
    )


def test_arc_closed_form_matches_set_algebra_at_tolerance_start():
    s = CircleSet.from_arcs([(1e-12, 0.5)])
    assert abs(arc_reflection_overlap(1e-12, 0.5, 0.5) - s.reflection_overlap(0.5)) <= TOL


@given(
    st.floats(0.0, 1.0, exclude_max=True),
    st.floats(0.01, 0.5),
    st.floats(0.0, 1.0),
)
def test_overlap_kernel_matches_closed_form(start, length, g):
    neg_base = np.array([-(2.0 * start + length)])
    out = np.empty(1)
    arc_reflection_overlap_into(neg_base, length, g, out)
    assert out[0] == pytest.approx(arc_reflection_overlap(start, length, g), abs=TOL)


def test_overlap_kernel_rejects_long_arcs():
    with pytest.raises(ValueError):
        arc_reflection_overlap_into(np.zeros(1), 0.75, 0.0, np.empty(1))


# -- serialization ------------------------------------------------------------------


def test_json_round_trip():
    s = CircleSet.from_arcs([(0.9, 0.2), (0.4, 0.1)])
    t = CircleSet.from_json(json.loads(json.dumps(s.to_json())))
    assert t == s


@pytest.mark.parametrize(
    "text, match",
    [
        ("[[NaN, 0.5]]", "arc start must be a finite number"),
        ("[[Infinity, 0.25], [0.5, 0.1]]", "arc start must be a finite number"),
        ("[[true, 0.5]]", "arc start must be a finite number"),
        ('[["0.5", 0.1]]', "arc start must be a finite number"),
        ("[[0.1, true]]", "arc length must be a finite number"),
        ("[[0.1, -Infinity]]", "arc length must be a finite number"),
        ("[[0.0, 0.5, 1.0]]", "circle set must be a JSON list"),
        ('{"arcs": [[0.0, 0.5]]}', "circle set must be a JSON list"),
        ("[0.5]", "circle set must be a JSON list"),
    ],
)
def test_from_json_rejects_malformed_sets(text, match):
    with pytest.raises(ValueError, match=match):
        CircleSet.from_json(json.loads(text))

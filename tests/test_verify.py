import dataclasses
import json
import math
import tracemalloc
from decimal import Decimal
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from _oracles import (
    alpha_prime,
    bisect_inverse,
    decimal_alpha,
    eq_mm_residual,
    eq_sigma_residual,
    forward_membership,
    interpolant_profile_values,
    m_function,
    masked_m_function,
    one_pass_profile_values,
    polyline_turning_angles,
    profile_knots,
    quarter_shift_profile_values,
    quarter_shift_sup,
    radial_crossings,
    sine_profile_values,
    t_quadrature_rule,
    t_rule_profile_values,
    v_path_profile_values,
    v_quadrature_rule,
)
from yinyang import verify
from yinyang.circle_sets import MAX_Q, CircleSet, arc_reflection_overlap_into
from yinyang.curves import (
    AlphaProfile,
    Ck,
    CurveSpec,
    Fermat,
    Sine,
    Table,
    beta_polyline,
    branch_polyline,
)
from yinyang.geometry import MAX_PARTS, mod1
from yinyang.render import RenderConfig
from yinyang.verify import (
    ALPHA_MARGIN,
    BLOCK,
    BRACKET_BUCKETS,
    BRACKET_KNOTS,
    FLATNESS_TOL_CLOSED_FORM,
    FLATNESS_TOL_TABLE,
    G_GRID,
    MAX_G_GRID,
    MAX_MC_SAMPLES,
    MAX_V_QUADRATURE,
    V_QUADRATURE,
    AxiomVerdict,
    _frac,
    _grid,
    applicable_relations,
    check_axioms,
    knot_count,
    monte_carlo_overlap,
    perfect_profile,
    radial_crossing_range,
    reduced_rotations,
    relation_residual,
    rotation_check,
)

FAST = dict(g_grid=64, v_quadrature=5001)


def quad_table(n=2001):
    u = np.linspace(0.0, 0.5, n)
    return tuple((float(x), float(4.0 * x * x)) for x in u)


# -- knots, and the t-rule oracle on the same nodes ------------------------------

PROFILES = [Fermat(1.0), Fermat(1.5), Sine(0.24), Ck(7.9, 0), Ck(1.0, 2), Table(quad_table(33))]


def test_quadrature_weights_sum_to_one():
    # the weights integrate alpha' over [0, domain_end], which is alpha(domain_end) = 1
    for profile in PROFILES:
        for n in (2, 3, 101, 4096, 99_999):
            nodes, w = t_quadrature_rule(profile, n)
            assert len(nodes) == max(n + 1 - n % 2, len(profile.seams()))
            if n > 3:  # three nodes alias the sine profile's period of 1/4
                assert np.sum(w) == pytest.approx(1.0, abs=1e-13)
            assert nodes[0] == 0.0 and nodes[-1] == profile.domain_end
            assert np.all(np.diff(nodes) > 0.0) and np.all(w > 0.0)


def test_quadrature_integrates_smooth_functions():
    # sum w F(alpha(t)) approximates the integral of F over v in (0, 1)
    for profile in PROFILES[:5]:
        nodes, w = t_quadrature_rule(profile, 10_001)
        v = profile.evaluate(nodes)
        assert w @ v**2 == pytest.approx(1.0 / 3.0, abs=1e-12)
        assert w @ np.sin(2 * math.pi * v) == pytest.approx(0.0, abs=1e-12)


def test_quadrature_seams_take_one_sided_slopes():
    # a table's slope jumps at every knot: the rule is exact for piecewise-linear integrands
    table = Table(quad_table(33))
    nodes, w = t_quadrature_rule(table, 101)
    assert set(table.seams()) <= set(nodes)
    knots = table.seams()
    slopes = np.diff(table.evaluate(knots)) / np.diff(knots)
    assert w @ nodes == pytest.approx(np.sum(np.diff(knots**2) * slopes) / 2.0, abs=1e-15)


def test_quadrature_rejects_tiny_n():
    with pytest.raises(ValueError):
        knot_count(Fermat(1.0), 1)


def test_quadrature_node_budget():
    # the CLI default is exactly 100 001 nodes for every family and for every
    # table with fewer knots than nodes; more pieces than intervals get one each
    for spec in SWEEP_SPECS:
        assert len(profile_knots(spec.alpha_profile(), V_QUADRATURE)) == 100_001
    u = np.linspace(0.0, 0.5, 100_000)
    big = Table([(float(a), float(2.0 * a)) for a in u])
    assert len(profile_knots(big, V_QUADRATURE)) == 100_001
    nodes, w = t_quadrature_rule(big, 101)
    assert len(nodes) == 100_000 and np.sum(w) == pytest.approx(1.0, abs=1e-12)
    assert perfect_profile(CurveSpec(family="custom", samples=big.samples), g_grid=8).v_nodes == 100_001


def _traced_peak(fn, *args, **kwargs):
    # peak bytes allocated while fn runs, numpy arrays included
    tracemalloc.start()
    try:
        fn(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _raises_without_allocating(match, fn, *args, **kwargs):
    # the size check must come before the work it bounds
    def refuse():
        with pytest.raises(ValueError, match=match):
            fn(*args, **kwargs)

    assert _traced_peak(refuse) < 64 * 1024


def test_work_sizes_are_capped():
    spec = CurveSpec(family="fermat")
    _raises_without_allocating("quadrature nodes", knot_count, Fermat(1.0), MAX_V_QUADRATURE + 1)
    _raises_without_allocating(
        "quadrature nodes", perfect_profile, spec, g_grid=8, v_quadrature=MAX_V_QUADRATURE + 1
    )
    _raises_without_allocating(
        "reflection axes", perfect_profile, spec, g_grid=MAX_G_GRID + 1, v_quadrature=101
    )
    _raises_without_allocating(
        "samples", monte_carlo_overlap, spec, g=0.3, samples=MAX_MC_SAMPLES + 1, seed=1
    )
    assert len(profile_knots(Fermat(1.0), MAX_V_QUADRATURE)) == MAX_V_QUADRATURE
    assert len(perfect_profile(spec, g_grid=MAX_G_GRID, v_quadrature=101).g) == MAX_G_GRID


SPEC = CurveSpec(family="fermat")
SIZE_ARGUMENTS = [  # (name in the message, call with the size or seed argument set to x)
    ("parts", lambda x: CurveSpec(family="fermat", parts=x)),
    ("parts", lambda x: RenderConfig(parts=x)),
    ("smoothness order k", lambda x: Ck(1.0, x)),
    ("rotation order q", lambda x: CircleSet.full().rotation_invariant_part(1, x)),
    ("p", lambda x: CircleSet.full().rotation_invariant_part(x, 5)),
    ("reflection axes g_grid", lambda x: perfect_profile(SPEC, g_grid=x)),
    ("quadrature nodes", lambda x: perfect_profile(SPEC, g_grid=8, v_quadrature=x)),
    ("quadrature nodes", lambda x: knot_count(Fermat(1.0), x)),
    ("samples", lambda x: monte_carlo_overlap(SPEC, g=0.3, samples=x, seed=1)),
    ("q_max", lambda x: rotation_check(SPEC, x)),
    ("points per branch", lambda x: branch_polyline(SPEC, x)),
    # numpy took True as 1 and refused 4.5 with a TypeError; check_axioms recorded any seed
    ("seed", lambda x: monte_carlo_overlap(SPEC, g=0.3, samples=10, seed=x)),
    ("seed", lambda x: check_axioms(SPEC, seed=x)),
]


@pytest.mark.parametrize("name, call", SIZE_ARGUMENTS, ids=[n for n, _ in SIZE_ARGUMENTS])
def test_size_arguments_refuse_floats_and_bools(name, call):
    for bad in (4.5, 6.0, True, "6"):
        _raises_without_allocating(f"^{name} must be an integer in \\[\\d+, (\\d+|inf)\\], got {bad}$", call, bad)


def test_knot_count_matches_the_knots():
    big = Table([(float(a), float(2.0 * a)) for a in np.linspace(0.0, 0.5, 3000)])
    for profile in (Fermat(1.0), Fermat(7.5), Sine(0.1), Ck(1.0, 3), Table(quad_table()), big):
        for n in (2, 3, 100, 101, 2001, 5000):
            assert knot_count(profile, n) == len(profile_knots(profile, n)), (profile, n)


# -- perfect profile -----------------------------------------------------------


def test_fermat_profile_is_flat():
    prof = perfect_profile(CurveSpec(family="fermat", turns=1.0), **FAST)
    assert prof.target == 0.25
    assert prof.max_deviation <= 1e-7


def test_sine_profile_is_flat():
    prof = perfect_profile(CurveSpec(family="sine", lam=0.1), **FAST)
    assert prof.max_deviation <= 1e-7


def test_three_part_fermat_profile_is_flat_at_one_ninth():
    prof = perfect_profile(CurveSpec(family="fermat", turns=1.0, parts=3), **FAST)
    assert prof.target == pytest.approx(1.0 / 9.0)
    assert prof.max_deviation <= 1e-7


def test_quadratic_profile_deviates():
    spec = CurveSpec(family="custom", samples=quad_table())
    prof = perfect_profile(spec, **FAST)
    assert prof.max_deviation >= 1e-2


def test_profile_mean_matches_measure_squared():
    for spec in (
        CurveSpec(family="fermat", turns=1.0),
        CurveSpec(family="fermat", turns=1.0, parts=3),
        CurveSpec(family="custom", samples=quad_table()),
    ):
        prof = perfect_profile(spec, **FAST)
        assert np.mean(prof.values) == pytest.approx((1.0 / spec.parts) ** 2, abs=1e-7)


def gxv_profile_values(spec, g_grid, v_quadrature):
    """The t-rule oracle's f(g) the slow way: one full pass over every fiber per axis (G x V)."""
    length = 1.0 / spec.parts
    nodes, w = t_quadrature_rule(spec.alpha_profile(), v_quadrature)
    neg_base = -(2.0 * nodes + length)
    buf = np.empty_like(nodes)
    return np.array([
        float(w @ arc_reflection_overlap_into(neg_base, length, g, buf))
        for g in np.arange(g_grid) / g_grid
    ])


SWEEP_SPECS = [
    CurveSpec(family="fermat", turns=1.0),
    CurveSpec(family="fermat", turns=1.5),
    CurveSpec(family="fermat", turns=2.0),
    CurveSpec(family="fermat", turns=1.5, parts=3),
    CurveSpec(family="fermat", turns=1.0, parts=4),
    CurveSpec(family="fermat", turns=2.0, parts=5),
    CurveSpec(family="sine", lam=0.2, parts=6),
    CurveSpec(family="sine", lam=0.1),
    CurveSpec(family="ck", lam=1.0, k=0),
    CurveSpec(family="ck", lam=1.0, k=1, parts=3),
    CurveSpec(family="ck", lam=1.0, k=2),
    CurveSpec(family="ck", lam=1.0, k=3, parts=5),
    CurveSpec(family="custom", samples=quad_table()),
    CurveSpec(family="custom", samples=quad_table(), parts=4),
]


def _spec_id(spec):
    k = "" if spec.k is None else f"-k{spec.k}"
    return f"{spec.family}{k}-turns{spec.turns:g}-parts{spec.parts}"


def _assert_sweeps_match_brute_force(spec, g_grid, v_quadrature):
    # the library's ramps from axis cells against the segment-by-segment integral of the
    # interpolant, and the linear ramps of the t-rule oracle against its G x V kernel; 1e-12 is far
    # inside the 1e-6 and 1e-4 A4 tolerances
    prof = perfect_profile(spec, g_grid=g_grid, v_quadrature=v_quadrature)
    ref = interpolant_profile_values(spec, profile_knots(spec.alpha_profile(), v_quadrature), g_grid)
    assert np.max(np.abs(prof.values - ref)) <= 1e-12
    t_rule = t_rule_profile_values(spec, g_grid, v_quadrature)
    assert np.max(np.abs(t_rule - gxv_profile_values(spec, g_grid, v_quadrature))) <= 1e-12
    return prof


@pytest.mark.parametrize("spec", SWEEP_SPECS, ids=_spec_id)
def test_sweep_matches_gxv_kernel(spec):
    for g_grid, v_quadrature in ((128, 20_001), (500, 5001)):
        _assert_sweeps_match_brute_force(spec, g_grid, v_quadrature)


def test_sweep_rounding_does_not_grow_with_v_nodes():
    # a running sum over a million periodic Simpson weights drifts past 1e-12
    spec = CurveSpec(family="fermat", turns=1.0, parts=3)
    assert _assert_sweeps_match_brute_force(spec, 37, 1_000_000).v_nodes == 1_000_001


def test_sweep_axes_between_nodes_and_on_window_edges():
    # with 2 parts and an even grid, every g +- 1/2 is another axis of the grid
    for spec in (CurveSpec(family="fermat", turns=1.0), CurveSpec(family="fermat", turns=1.5)):
        _assert_sweeps_match_brute_force(spec, 6, 3)


# -- the t-path against the v-path oracle ----------------------------------------

# At 512 axes and 1e5 nodes, 100x inside the 1e-6 closed-form tolerance.  Most of the
# difference is the oracle's own error: on the 2001-knot table the v-path is 7.4e-9 off
# a 2e6-node reference and the t-path 3.3e-11, as the t-rule has a seam at every knot.
V_PATH_BOUND = 1e-8


def _perturbed_table(eps, knots):
    """A one-turn table on the Fermat line bent by eps sin(4 pi u): A4 deviates by about 0.63 eps."""
    table = [(float(u), float(2.0 * u + eps * math.sin(4.0 * math.pi * u))) for u in knots]
    return tuple(table[:-1]) + ((0.5, 1.0),)


_UNEVEN = np.concatenate([[0.0], np.sort(np.random.default_rng(7).uniform(0.0, 0.5, 23)), [0.5]])
QUADRATIC_33 = CurveSpec(family="custom", samples=json.loads(
    (Path(__file__).parent / "fixtures" / "quadratic_33.json").read_text()))
ORACLE_SPECS = SWEEP_SPECS + [
    QUADRATIC_33,
    *(CurveSpec(family="custom", samples=_perturbed_table(eps, knots))
      for eps in (1.3e-4, 1.55e-4, 1.9e-4) for knots in (np.linspace(0.0, 0.5, 33), _UNEVEN)),
]


@pytest.mark.parametrize("spec", ORACLE_SPECS, ids=lambda s: _spec_id(s) + f"-{len(s.samples or ())}")
def test_t_path_matches_v_path_oracle(spec):
    prof = perfect_profile(spec)
    ref = v_path_profile_values(spec, G_GRID, V_QUADRATURE)
    assert np.max(np.abs(prof.values - ref)) <= V_PATH_BOUND
    tol = FLATNESS_TOL_TABLE if spec.family == "custom" else FLATNESS_TOL_CLOSED_FORM
    ref_dev = np.max(np.abs(ref - prof.target))
    assert (prof.max_deviation <= tol) == (ref_dev <= tol)


# At 512 axes and 1e5 knots the Simpson t-rule is at most 8.4e-11 off the exact integral
# of the interpolant on these specs, most on the unbalanced ones; 10x inside V_PATH_BOUND.
T_RULE_BOUND = 1e-9


@pytest.mark.parametrize("spec", ORACLE_SPECS, ids=lambda s: _spec_id(s) + f"-{len(s.samples or ())}")
def test_exact_interpolant_matches_t_rule_oracle(spec):
    prof = perfect_profile(spec)
    assert np.max(np.abs(prof.values - t_rule_profile_values(spec, G_GRID, V_QUADRATURE))) <= T_RULE_BOUND


@pytest.mark.parametrize("turns", [10_000.0, 24_000.0])
def test_many_turn_fermat_passes_a4_at_the_defaults(turns):
    # the Simpson t-rule's tent centres aliased onto a few points here: max_dev 3.3e-3 and 4.0e-4
    report = check_axioms(CurveSpec(family="fermat", turns=turns))
    assert report.profile.max_deviation <= 1e-14
    assert report.axioms["A4"].passed


def test_three_part_fermat_is_flat_to_rounding():
    # the Simpson t-rule read 1.56e-8 here
    spec = CurveSpec(family="fermat", turns=1.0, parts=3)
    assert perfect_profile(spec, g_grid=64, v_quadrature=5001).max_deviation <= 1e-15


@pytest.mark.parametrize("spec, deviation", [
    (CurveSpec(family="fermat", turns=1.5), 1.0 / 24.0),
    (QUADRATIC_33, 1.0 / 16.0),
], ids=["fermat-1.5", "quadratic_33"])
def test_exact_interpolant_keeps_the_counterexamples_failing(spec, deviation):
    # the zero of a balanced spiral comes from the sum, not from knowing the family
    report = check_axioms(spec)
    assert report.profile.max_deviation == pytest.approx(deviation, abs=1e-12)
    assert not report.axioms["A4"].passed


def test_perturbed_tables_straddle_the_table_tolerance():
    # the corpus above holds tables that pass and tables that fail A4
    devs = [perfect_profile(spec, **FAST).max_deviation for spec in ORACLE_SPECS[-6:]]
    assert min(devs) < 0.9 * FLATNESS_TOL_TABLE and max(devs) > 1.1 * FLATNESS_TOL_TABLE


def test_ck_seam_split_keeps_the_profile_flat():
    # alpha' jumps by lambda/2 at t = 1/4 for k = 0; integrated across the jump
    # the profile is about 7e-5 off at 5001 nodes, split there it is flat to rounding
    lam = 7.99  # the profile is increasing for lambda < 8
    spec = CurveSpec(family="ck", lam=lam, k=0)
    assert alpha_prime(Ck(lam, 0), np.array([0.25]))[0] == pytest.approx(2.0 - lam / 4.0)
    assert perfect_profile(spec, v_quadrature=5001).max_deviation <= 1e-12


# -- knot blocks against the one-pass sweep ----------------------------------------

BLOCK_SPECS = [
    CurveSpec(family="fermat", turns=1.0),
    CurveSpec(family="fermat", turns=1.5, parts=3),
    CurveSpec(family="sine", lam=0.1),
    CurveSpec(family="ck", lam=1.0, k=3),
    CurveSpec(family="ck", lam=7.99, k=0),
    CurveSpec(family="custom", samples=quad_table()),
    CurveSpec(family="custom", samples=quad_table(33), parts=3),
    QUADRATIC_33,
]


def _rounding_bound(spec, knots):
    """1e-14 max(1, sum |D_i|) over the slope jumps of the interpolant on ``knots`` knots."""
    profile = spec.alpha_profile()
    t = profile_knots(profile, knots)
    alpha = profile.evaluate(t)
    jumps = np.diff(np.diff(alpha) / (2.0 * np.diff(t)), prepend=0.0, append=0.0)
    return 1e-14 * max(1.0, float(np.sum(np.abs(jumps))))


@pytest.mark.parametrize("spec", BLOCK_SPECS, ids=lambda s: _spec_id(s) + f"-{len(s.samples or ())}")
def test_knot_blocks_match_the_one_pass_sweep(spec):
    # at every knot count the library sums the knots by axis cell before one prefix sum,
    # and takes sum D and sum D c from its totals, where the one-pass sweep prefix-sums
    # each knot: only rounding may move.
    # fermat and tables walk their seams, the same function as every interpolant on
    # more knots, so against the one-pass sum over those knots only rounding may move
    linear = spec.alpha_profile().linear_pieces
    for knots in (3, 2001, 5001, BLOCK - 1):
        prof = perfect_profile(spec, g_grid=64, v_quadrature=knots)
        assert prof.v_nodes == knot_count(spec.alpha_profile(), knots)
        error = np.max(np.abs(prof.values - one_pass_profile_values(spec, 64, knots)))
        assert error <= (1e-14 if linear else _rounding_bound(spec, knots)), knots
    for knots in (BLOCK + 1, 3 * BLOCK + 7, 1_000_001):
        prof = perfect_profile(spec, g_grid=64, v_quadrature=knots)
        assert prof.v_nodes == knots
        assert np.max(np.abs(prof.values - one_pass_profile_values(spec, 64, knots))) <= 1e-14, knots


@st.composite
def tables(draw, turns=None):
    """A random sample table of 1 to 40 knots; it spans ``turns`` turns, else 0.1 to 6."""
    n = draw(st.integers(1, 40))
    steps = st.lists(st.floats(0.01, 1.0), min_size=n, max_size=n)
    u, v = np.cumsum(draw(steps)), np.cumsum(draw(steps))
    end = turns / 2.0 if turns else draw(st.floats(0.05, 3.0))
    u, v = u * (end / u[-1]), v / v[-1]
    return tuple((float(a), float(b)) for a, b in zip(u[:-1], v[:-1])) + ((end, 1.0),)


def _dyadic_table():
    """16 knots at u = j / 32: with two or four parts every tent centre 2u + L is a multiple of 1/64."""
    u = np.arange(1, 17) / 32.0
    return tuple((float(a), float((a / 0.5) ** 1.5)) for a in u)


CELL_SPECS = [
    CurveSpec(family="sine", lam=0.24),
    CurveSpec(family="ck", lam=1.0, k=1, parts=4),
    CurveSpec(family="custom", samples=_dyadic_table()),
    CurveSpec(family="custom", samples=_dyadic_table(), parts=4),
]


@pytest.mark.parametrize("g_grid", [2, 64])
@pytest.mark.parametrize("spec", CELL_SPECS, ids=lambda s: _spec_id(s) + f"-{len(s.samples or ())}")
def test_tied_and_empty_axis_cells_match_the_one_pass_sweep(spec, g_grid, monkeypatch):
    # with two or four parts g + L and g - L (and at 64 axes g too) share their values, so
    # cells lie between equal edges and stay empty; the tables put every centre on an edge.
    # Blocks of 7 knots take the tables and 2 001 sine or ck knots through the shared cells
    g = np.arange(g_grid) / g_grid
    length = 1.0 / spec.parts
    assert np.array_equal(np.sort(np.mod(g + length, 1.0)), np.sort(np.mod(g - length, 1.0)))
    if spec.samples:
        centres = np.mod(2.0 * spec.alpha_profile().seams() + length, 1.0)
        assert np.all(np.isin(centres, np.arange(64) / 64))
    for block, knots in ((BLOCK, 2001), (BLOCK, V_QUADRATURE), (7, 2001)):
        monkeypatch.setattr(verify, "BLOCK", block)
        prof = perfect_profile(spec, g_grid=g_grid, v_quadrature=knots)
        error = np.max(np.abs(prof.values - one_pass_profile_values(spec, g_grid, knots)))
        assert error <= _rounding_bound(spec, knots), (block, knots)


def test_sums_over_the_most_axis_cells_match_the_one_pass_sweep():
    # 3 * 65 536 cells: a plain running sum over them drifted by 3.9e-14 here, the
    # blocked prefix sums by 2.4e-15; the bound is 1.2e-13, so hold them to 1e-14
    spec = CurveSpec(family="sine", lam=0.24)
    prof = perfect_profile(spec, g_grid=MAX_G_GRID)
    one_pass = one_pass_profile_values(spec, MAX_G_GRID, V_QUADRATURE)
    assert np.max(np.abs(prof.values - one_pass)) <= 1e-14 <= _rounding_bound(spec, V_QUADRATURE)


@settings(max_examples=25, deadline=None)
@given(samples=tables(), parts=st.integers(2, 6))
def test_table_seams_match_the_one_pass_sweep_at_the_defaults(samples, parts):
    # both sums round at about 1e-16 of sum |D_i|, the total of the slope jumps: on 360
    # random tables they differed by at most 8e-16 of it (1.9e-13 at sum |D_i| = 5 800),
    # and the one-pass sum was the further from the segment-by-segment integral
    spec = CurveSpec(family="custom", samples=samples, parts=parts)
    seams = spec.alpha_profile().seams()
    alpha = spec.alpha_profile().evaluate(seams)
    jumps = np.diff(np.diff(alpha) / (2.0 * np.diff(seams)), prepend=0.0, append=0.0)
    prof = perfect_profile(spec, g_grid=64)
    assert prof.v_nodes == 100_001
    bound = 1e-14 * max(1.0, float(np.sum(np.abs(jumps))))
    assert np.max(np.abs(prof.values - one_pass_profile_values(spec, 64, V_QUADRATURE))) <= bound


@pytest.mark.parametrize("spec", [CurveSpec(family="fermat", turns=1.5), QUADRATIC_33], ids=["fermat", "table"])
def test_linear_profiles_evaluate_only_their_seams(spec, monkeypatch):
    # the 2 000 001-knot interpolant of --v-quad is the same function as the one on the seams
    profile = spec.alpha_profile()
    points = []
    alpha = type(profile)._alpha
    monkeypatch.setattr(type(profile), "_alpha", lambda self, u: points.append(np.size(u)) or alpha(self, u))
    prof = perfect_profile(spec, g_grid=64, v_quadrature=MAX_V_QUADRATURE)
    assert prof.v_nodes == MAX_V_QUADRATURE
    assert sum(points) <= len(profile.seams()) + 1


QUARTER_SHIFT_SPECS = [s for s in ORACLE_SPECS if s.turns == 1.0 and s.parts == 2]


def _assert_quarter_shift_bound(spec):
    # f - 1/4 = -2 integral_0^1/4 rho(t) tent'(g - 2t - 1/2) dt, and |tent'| <= 1
    prof = perfect_profile(spec)
    assert prof.max_deviation <= quarter_shift_sup(spec.alpha_profile()) / 2.0 + 1e-12


@pytest.mark.parametrize("spec", QUARTER_SHIFT_SPECS, ids=lambda s: _spec_id(s) + f"-{len(s.samples or ())}")
def test_a4_within_the_quarter_shift_bound(spec):
    _assert_quarter_shift_bound(spec)


@settings(max_examples=25, deadline=None)
@given(samples=tables(turns=1.0))
def test_a4_within_the_quarter_shift_bound_on_random_tables(samples):
    _assert_quarter_shift_bound(CurveSpec(family="custom", samples=samples))


def _assert_quarter_shift_reference(spec):
    # for a table the law's integral is exact, so only rounding may part the two
    reference = quarter_shift_profile_values(spec.alpha_profile(), G_GRID)
    assert np.max(np.abs(perfect_profile(spec).values - reference)) <= 1e-12


@pytest.mark.parametrize("spec", [s for s in QUARTER_SHIFT_SPECS if s.alpha_profile().linear_pieces],
                         ids=lambda s: _spec_id(s) + f"-{len(s.samples or ())}")
def test_a4_equals_the_quarter_shift_reference(spec):
    _assert_quarter_shift_reference(spec)


@settings(max_examples=25, deadline=None)
@given(samples=tables(turns=1.0))
def test_a4_equals_the_quarter_shift_reference_on_random_tables(samples):
    _assert_quarter_shift_reference(CurveSpec(family="custom", samples=samples))


@pytest.mark.parametrize("block", [1, 2, 7])
def test_seams_and_table_knots_on_block_edges(block, monkeypatch):
    # 225 knots: ck's seam at t = 1/4 is knot 112, and every 7th knot is one of the
    # 33-knot table's, so blocks of 1, 2 and 7 start on seams and table knots
    assert profile_knots(Ck(1.0, 0), 225)[112] == 0.25
    assert np.array_equal(profile_knots(Table(quad_table(33)), 225)[::7], Table(quad_table(33)).seams())
    monkeypatch.setattr(verify, "BLOCK", block)
    for spec in BLOCK_SPECS:
        values = perfect_profile(spec, g_grid=64, v_quadrature=225).values
        assert np.max(np.abs(values - one_pass_profile_values(spec, 64, 225))) <= 1e-14, _spec_id(spec)


def _evaluated_knots(spec, monkeypatch, **kwargs):
    """The knots ``perfect_profile`` evaluates alpha at, one array per block, and its profile."""
    profile = spec.alpha_profile()
    blocks = []
    alpha = type(profile)._alpha
    monkeypatch.setattr(type(profile), "_alpha", lambda self, u: blocks.append(u.copy()) or alpha(self, u))
    return blocks, perfect_profile(spec, g_grid=64, **kwargs)


@pytest.mark.parametrize("knots", [101, 2001, BLOCK - 1, BLOCK + 2, 2 * BLOCK + 1, 32_767, V_QUADRATURE])
@pytest.mark.parametrize("spec", [CurveSpec(family="sine", lam=0.1), CurveSpec(family="ck", lam=7.99, k=0)],
                         ids=_spec_id)
def test_block_knots_are_the_interpolated_knots(spec, knots, monkeypatch):
    # each block makes its knots by a multiply-add on its piece; they are np.interp's knots
    # bit for bit, every seam is one, and the last is domain_end exactly.  Block b > 0
    # starts one knot before b * BLOCK, where block b - 1 ends one knot after it
    blocks, _ = _evaluated_knots(spec, monkeypatch, v_quadrature=knots)
    t = np.concatenate([blocks[0]] + [b[2:] for b in blocks[1:]])
    profile = spec.alpha_profile()
    assert t[-1] == profile.domain_end
    assert np.all(np.isin(profile.seams(), t))
    assert np.array_equal(t, profile_knots(profile, knots))


@pytest.mark.parametrize("knots", [32_767, 32_769])
def test_ck_blocks_that_end_or_start_on_the_quarter_seam(knots, monkeypatch):
    # the seam t = 1/4 is knot (knots - 1) / 2: at 32 767 knots the last of the first
    # block, whose slopes reach one knot past it; at 32 769 the first of the second
    spec = CurveSpec(family="ck", lam=7.99, k=0)
    seam = (knots - 1) // 2
    assert profile_knots(spec.alpha_profile(), knots)[seam] == 0.25 and seam in (BLOCK - 1, BLOCK)
    blocks, prof = _evaluated_knots(spec, monkeypatch, v_quadrature=knots)
    assert (blocks[0][-1] == 0.25) == (seam == BLOCK) and (blocks[0][-2] == 0.25) == (seam == BLOCK - 1)
    assert np.max(np.abs(prof.values - one_pass_profile_values(spec, 64, knots))) <= 1e-14


@pytest.mark.parametrize("block, knots", [(7, 2005), (BLOCK, V_QUADRATURE + 1)])
def test_blocks_that_straddle_the_quarter_seam(block, knots, monkeypatch):
    # the seam is knot 1 002 = 7 * 143 + 1, and 50 000 = 3 * BLOCK + 848: inside a block,
    # whose knots come from both pieces
    spec = CurveSpec(family="ck", lam=7.99, k=0)
    seam = (knots - 1) // 2
    assert profile_knots(spec.alpha_profile(), knots)[seam] == 0.25 and 0 < seam % block < block - 1
    monkeypatch.setattr(verify, "BLOCK", block)
    prof = perfect_profile(spec, g_grid=64, v_quadrature=knots)
    assert np.max(np.abs(prof.values - one_pass_profile_values(spec, 64, knots))) <= 1e-14


def test_a_many_turn_table_whose_every_block_wraps(monkeypatch):
    # 20 turns on 41 knots: the centres 2t + 1/2 step by 1/2, so each block of 7 wraps past
    # 1 three times and only its sort puts the centres in order
    u = np.arange(1, 41) / 4.0
    spec = CurveSpec(family="custom", samples=tuple((float(a), float((a / 10.0) ** 1.5)) for a in u))
    seams = spec.alpha_profile().seams()
    centres = np.mod(2.0 * seams + 0.5, 1.0)
    assert all(np.any(np.diff(centres[lo : lo + 7]) < 0.0) for lo in range(0, len(seams), 7)[:-1])
    monkeypatch.setattr(verify, "BLOCK", 7)
    prof = perfect_profile(spec, g_grid=64, v_quadrature=len(seams))
    error = np.max(np.abs(prof.values - one_pass_profile_values(spec, 64, len(seams))))
    assert error <= _rounding_bound(spec, len(seams))


# -- relation residuals ----------------------------------------------------------


def test_residuals_fermat_one_turn():
    p = Fermat(1.0)
    assert relation_residual(p, "eq_alal") <= 1e-12
    assert eq_mm_residual(p) <= 1e-12


def test_residuals_fermat_two_turns():
    p = Fermat(2.0)
    assert eq_sigma_residual(p) <= 1e-12
    assert relation_residual(p, "eq_alalal") <= 1e-12


def test_residual_eq_al3_fermat_three_halves():
    # the 3/2-turn linear profile violates the 3/2-turn balance relation
    p = Fermat(1.5)
    assert relation_residual(p, "eq_al3") == pytest.approx(1.0 / 6.0, abs=1e-9)


def test_residual_domain_mismatch():
    with pytest.raises(ValueError, match="1.0 turns"):
        relation_residual(Fermat(2.0), "eq_alal")
    with pytest.raises(ValueError, match="2.0 turns"):
        relation_residual(Fermat(1.0), "eq_alalal")
    with pytest.raises(ValueError, match="1.5 turns"):
        relation_residual(Fermat(1.0), "eq_al3")


def test_applicable_relations_follow_turns():
    assert applicable_relations(1.0, 2) == ("eq_alal",)
    assert applicable_relations(2.0, 2) == ("eq_alalal",)
    assert applicable_relations(1.5, 2) == ("eq_al3",)
    assert applicable_relations(1.25, 2) == ()
    # each relation is a two-part law
    for parts in (3, 4, MAX_PARTS):
        assert all(applicable_relations(turns, parts) == () for turns in (1.0, 1.5, 2.0))


def test_a_report_carries_the_two_part_laws_at_two_parts_only():
    # three-part sine read eq_alal 2.2e-16 while A4 failed with max_dev 7.6e-3
    three = check_axioms(CurveSpec(family="sine", lam=0.1, parts=3))
    assert three.residuals == {} and not three.axioms["A4"].passed
    assert list(check_axioms(CurveSpec(family="sine", lam=0.1)).residuals) == ["eq_alal"]


@pytest.mark.parametrize("turns", [1.0, 2.0])
def test_relations_read_alpha_past_a_domain_end_within_the_turn_tolerance(turns):
    # a table ending 4e-13 short of turns/2 takes the relations, whose shifted arguments
    # (u + 1/4, u + 3/4) then pass its domain_end: they read alpha unchecked
    end = turns / 2.0 - 4e-13
    profile = Table([[end / 2.0, 0.5], [end, 1.0]])
    assert applicable_relations(profile.turns, 2) == applicable_relations(turns, 2) != ()
    for relation in applicable_relations(turns, 2):
        assert relation_residual(profile, relation) <= 1e-9


@settings(max_examples=50, deadline=None)
@given(one=tables(turns=1.0), two=tables(turns=2.0))
def test_restated_relations_read_the_relations_they_restate(one, two):
    # m(u) - m(u + 1/2) = -2 (alpha(u/2 + 1/4) - alpha(u/2) - 1/2), on eq_alal's grid points,
    # and sigma's law is eq_alalal rearranged: a relation wired to another's formula fails here
    one, two = (CurveSpec(family="custom", samples=s).alpha_profile() for s in (one, two))
    assert abs(eq_mm_residual(one) - 2.0 * relation_residual(one, "eq_alal")) <= 1e-14
    assert abs(eq_sigma_residual(two) - relation_residual(two, "eq_alalal")) <= 1e-14


def test_residual_unknown_relation():
    with pytest.raises(ValueError, match="unknown relation"):
        relation_residual(Fermat(1.0), "eq_bogus")


def test_residual_quadratic_profile_breaks_quarter_shift():
    p = Table(quad_table())
    # alpha = 4u^2: alpha(u+1/4) - alpha(u) - 1/2 = 2u - 1/4, sup 1/4 on (0, 1/4]
    assert relation_residual(p, "eq_alal") == pytest.approx(0.25, abs=1e-3)


# -- m function ---------------------------------------------------------------------


def test_m_function_constant_for_fermat():
    p = Fermat(1.0)
    u = np.linspace(0.01, 1.0, 57)
    assert np.max(np.abs(m_function(p, u) - 0.5)) <= 1e-12
    assert m_function(p, 0.3) == pytest.approx(m_function(p, 0.8), abs=1e-12)


def test_m_function_periodicity_tracks_quarter_shift():
    sine = Sine(0.1)
    u = np.linspace(0.001, 0.5, 400)
    assert np.max(np.abs(m_function(sine, u) - m_function(sine, u + 0.5))) <= 1e-12
    quad = Table(quad_table())
    assert np.max(np.abs(m_function(quad, u) - m_function(quad, u + 0.5))) > 1e-3


#: 1/2 and the floats either side of it, where m_function changes sides, 1, and the smallest u
M_EDGES = [0.5, math.nextafter(0.5, 0.0), math.nextafter(0.5, 1.0), 1.0, math.nextafter(1.0, 0.0), 1e-300, 5e-324]


@settings(max_examples=50, deadline=None)
@given(profile=st.one_of(
    st.builds(Sine, st.sampled_from([1e-3, 0.2499])),
    st.builds(lambda share, k: _ck_spec(share, k, 2).alpha_profile(), st.floats(1e-3, 0.999), st.integers(0, 7)),
    tables(turns=1.0).map(Table), st.just(Fermat(1.0))),
    u=st.lists(st.floats(0.0, 1.0, exclude_min=True) | st.sampled_from(M_EDGES), min_size=1, max_size=64))
def test_m_function_equals_the_masked_reference(profile, u):
    # one alpha read per side on whole arrays, against the masked gathers and scatters, bit for bit
    u = np.array(u + M_EDGES)
    assert m_function(profile, u).tobytes() == masked_m_function(profile, u).tobytes()


def test_m_function_domain():
    p = Fermat(1.0)
    with pytest.raises(ValueError):
        m_function(p, 0.0)
    with pytest.raises(ValueError):
        m_function(p, 1.1)
    with pytest.raises(ValueError, match="1.0 turns"):
        m_function(Fermat(2.0), 0.5)
    for u in (math.nan, [0.5, math.nan]):  # u <= 0 and u > 1 are both False at NaN
        with pytest.raises(ValueError, match=r"must lie in \(0, 1\]"):
            m_function(p, u)


# -- radial crossings -----------------------------------------------------------------


def test_radial_crossings_basic():
    u0 = (np.arange(512) + 0.382) / 512
    assert set(radial_crossings(1.0, 2, u0)) == {1}
    assert set(radial_crossings(2.0, 2, u0)) == {2}
    assert set(radial_crossings(1.5, 2, u0)) == {1, 2}
    assert set(radial_crossings(1.0, 3, u0)) == {1, 2}


RADIAL_TURNS = sorted({k / d for d in (2, 3, 4) for k in range(1, 13)} | {0.3, 0.7, 1.3, 2.45, 3.9})


@pytest.mark.parametrize("parts", [2, 3, 4, 5, 6])
def test_radial_crossing_range_matches_sampled_counts(parts):
    # frac(parts * turns / 2) is 0 or in [0.05, 0.95] here: a share of radii far above the grid step
    u0 = (np.arange(100_000) + 0.382) / 100_000
    for turns in RADIAL_TURNS:
        counts = radial_crossings(turns, parts, u0)
        expected = (int(counts.min()), int(counts.max()))
        assert radial_crossing_range(parts, turns) == expected, (parts, turns)
    assert radial_crossing_range(parts, 2.0 / parts + 1e-13) == (1, 1)  # within the turn tolerance


@pytest.mark.parametrize("turns, axiom", [
    (1.0001, "A3"), (1.000001, "A3"), (0.999999, "A3"), (2.0000001, "A3''"),
])
def test_turns_just_off_an_integer_crossing_count_fail_a3(turns, axiom):
    # a 2048-radius sample reported "every radius crossed 1 (2) times" for these
    report = check_axioms(CurveSpec(family="fermat", turns=turns), g_grid=8, v_quadrature=101)
    assert not report.axioms[axiom].passed
    assert report.axioms[axiom].detail.startswith("radial crossings vary between")


# -- check_axioms ------------------------------------------------------------------------


def test_check_axioms_fermat_one_turn():
    report = check_axioms(CurveSpec(family="fermat", turns=1.0), **FAST)
    expected = {"A1": True, "A2": True, "A3": True, "A3''": False, "A4": True, "A5": True}
    assert {k: v.passed for k, v in report.axioms.items()} == expected
    assert report.all_passed(("A1", "A2", "A3", "A4"))
    assert report.residuals["eq_alal"] <= 1e-12


def test_check_axioms_fermat_two_turns():
    report = check_axioms(CurveSpec(family="fermat", turns=2.0), **FAST)
    expected = {"A1": True, "A2": True, "A3": False, "A3''": True, "A4": True, "A5": True}
    assert {k: v.passed for k, v in report.axioms.items()} == expected
    assert list(report.residuals) == ["eq_alalal"]
    assert report.residuals["eq_alalal"] <= 1e-12


def test_check_axioms_three_halves_turns():
    # 3/2-turn spiral: the balance relation for its turn count is violated
    # and the profile is visibly non-flat
    report = check_axioms(CurveSpec(family="fermat", turns=1.5), **FAST)
    assert report.residuals["eq_al3"] == pytest.approx(1.0 / 6.0, abs=1e-9)
    assert not report.axioms["A4"].passed
    assert report.profile.max_deviation == pytest.approx(1.0 / 24.0, abs=1e-6)
    assert not report.axioms["A3"].passed
    assert not report.axioms["A3''"].passed


def test_check_axioms_quadratic_counterexample():
    spec = CurveSpec(family="custom", samples=quad_table())
    report = check_axioms(spec, **FAST)
    verdicts = {k: v.passed for k, v in report.axioms.items()}
    assert verdicts["A1"] and verdicts["A2"] and verdicts["A3"]
    assert not verdicts["A4"]
    assert report.axioms["A4"].witness is not None
    assert not report.all_passed(("A1", "A2", "A3", "A4"))


NEAR_FLAT = json.loads((Path(__file__).parent / "fixtures" / "near_flat.json").read_text())


def test_a2_passes_a_table_that_rises_less_than_an_ulp_per_grid_step():
    # Table accepts this strictly increasing table; a 10 000-point A2 grid read its
    # second piece as flat and reported "not strictly increasing"
    report = check_axioms(CurveSpec(family="custom", samples=NEAR_FLAT), **FAST)
    assert report.axioms["A2"].passed
    assert report.axioms["A2"].to_json() == {"pass": True, "detail": "each concentric circle crossed 2 times"}


@settings(max_examples=50, deadline=None)
@given(samples=tables())
def test_table_profiles_never_decrease_on_the_a2_grid(samples):
    # the grid the A2 check sampled: a table's interpolant may repeat a value, never fall
    profile = Table(samples)
    assert np.all(np.diff(profile.evaluate(_grid(0.0, profile.domain_end))) >= 0.0)


def test_flatness_iff_quarter_shift_relation():
    """Both directions: flat profile <-> vanishing quarter-shift residual."""
    flat_specs = [
        CurveSpec(family="fermat", turns=1.0),
        CurveSpec(family="sine", lam=0.1),
        CurveSpec(family="ck", lam=1.0, k=1),
    ]
    crooked_specs = [
        CurveSpec(family="custom", samples=quad_table()),
        CurveSpec(
            family="custom",
            samples=tuple(
                (float(x), float(math.sin(math.pi * x))) for x in np.linspace(0.0, 0.5, 2001)
            ),
        ),
    ]
    for spec in flat_specs:
        residual = relation_residual(spec.alpha_profile(), "eq_alal")
        prof = perfect_profile(spec, **FAST)
        assert residual <= 1e-9
        assert prof.max_deviation <= 1e-6
    for spec in crooked_specs:
        residual = relation_residual(spec.alpha_profile(), "eq_alal")
        prof = perfect_profile(spec, **FAST)
        assert residual > 1e-9
        assert prof.max_deviation > 1e-4


def test_tolerance_tie_passes():
    spec = CurveSpec(family="fermat", turns=1.0)
    prof = perfect_profile(spec, **FAST)
    report = check_axioms(spec, flatness_tolerance=prof.max_deviation, **FAST)
    assert report.axioms["A4"].passed  # residual exactly at tolerance passes


def test_report_json_schema_and_determinism():
    spec = CurveSpec(family="fermat", turns=1.0)
    a = json.dumps(check_axioms(spec, seed=5, **FAST).to_json(), indent=2)
    b = json.dumps(check_axioms(spec, seed=5, **FAST).to_json(), indent=2)
    assert a == b
    doc = json.loads(a)
    assert doc["version"] == 1
    assert doc["seed"] == 5
    assert set(doc["axioms"]) == {"A1", "A2", "A3", "A3''", "A4", "A5"}
    assert doc["profile"]["grid"] == 64
    assert len(doc["profile"]["values"]) == 64
    assert "eq_alal" in doc["residuals"]
    assert "flatness" in doc["tolerances"]


def test_report_requires_known_axioms():
    report = check_axioms(CurveSpec(family="fermat", turns=1.0), **FAST)
    with pytest.raises(ValueError):
        report.all_passed(("A7",))


# -- rotation check -------------------------------------------------------------------------


def test_rotation_check_fermat():
    rc = rotation_check(CurveSpec(family="fermat", turns=1.0), q_max=6)
    assert rc["pass"]
    assert len(rc["integrals"]) == len(reduced_rotations(6)) == 11
    assert all(v <= 1e-12 for v in rc["integrals"].values())


def test_rotation_check_three_parts():
    rc = rotation_check(CurveSpec(family="fermat", turns=1.0, parts=3), q_max=3)
    assert rc["integrals"]["1/3"] == 0.0  # length-1/3 arcs kill the 1/3 rotation


def test_rotation_fiber_full_circle_degenerate():
    # a degenerate "whole disk" fiber keeps measure 1 under every rotation
    nodes, w = v_quadrature_rule(301)
    full = CircleSet.full()
    for p, q in reduced_rotations(4):
        fibers = np.array([full.rotation_invariant_part(p, q).measure() for _ in nodes])
        assert w @ fibers == pytest.approx(1.0, abs=1e-12)


@settings(max_examples=50, deadline=None)
@given(start=st.floats(-1e6, 1e6), parts=st.integers(2, MAX_PARTS), q=st.integers(2, 12), data=st.data())
def test_slice_arcs_hold_no_rotation_invariant_part(start, parts, q, data):
    # an arc of length 1/parts <= 1/2 <= (q - 1)/q: its q translates by k/q share no point
    p = data.draw(st.sampled_from([p for p in range(1, q) if math.gcd(p, q) == 1]))
    assert CircleSet.from_arcs([(start, 1.0 / parts)]).rotation_invariant_part(p, q).pieces == ()
    rc = rotation_check(CurveSpec(family="fermat", turns=1.0, parts=parts), q_max=q)
    assert list(rc) == ["integrals", "pass", "detail"]
    assert list(rc["integrals"]) == [f"{a}/{b}" for a, b in reduced_rotations(q)]
    assert all(v == 0.0 for v in rc["integrals"].values()) and rc["pass"] is True


def test_rotation_check_matches_slice_algebra():
    # the structural zeros against the per-slice CircleSet integral they replace
    for spec in (CurveSpec(family="fermat", turns=1.5, parts=2), CurveSpec(family="sine", lam=0.1, parts=3)):
        nodes, w = v_quadrature_rule(101)
        slices = [CircleSet.from_arcs([(float(t) % 1.0, 1.0 / spec.parts)])
                  for t in bisect_inverse(spec.alpha_profile(), nodes)]
        rc = rotation_check(spec, q_max=5)
        for p, q in reduced_rotations(5):
            fibers = np.array([s.rotation_invariant_part(p, q).measure() for s in slices])
            assert rc["integrals"][f"{p}/{q}"] == pytest.approx(float(w @ fibers), abs=1e-12)
    assert rc["detail"].startswith("structural: every slice is one arc")


def test_check_axioms_validates_flatness_tolerance():
    spec = CurveSpec(family="fermat", turns=1.0)
    for bad in (math.nan, math.inf, -1.0):
        with pytest.raises(ValueError, match="tolerance"):
            check_axioms(spec, flatness_tolerance=bad, **FAST)
    assert check_axioms(spec, flatness_tolerance=0.0, **FAST).tolerances["flatness"] == 0.0


@pytest.mark.parametrize("parts", [2, 3, 4])
def test_check_axioms_refuses_a_t_rule_too_coarse_for_the_tents(parts):
    # 2 * parts + 1 knots of a one-turn curve step the tent centres by 1/(2 parts),
    # half a tent side, too coarse for the interpolant to follow a curved profile
    spec = CurveSpec(family="sine", lam=0.1, parts=parts)
    with pytest.raises(ValueError, match="--v-quad") as exc:
        check_axioms(spec, v_quadrature=2 * parts + 1)
    assert "turns=1" in str(exc.value)


def test_check_axioms_refuses_a_coarse_t_rule_before_the_sweep(monkeypatch):
    # the knot count is known from the spec: A4 refuses before it evaluates alpha
    points = []
    monkeypatch.setattr(Sine, "_alpha", lambda self, u: points.append(np.size(u)))
    with pytest.raises(ValueError, match="--v-quad"):
        check_axioms(CurveSpec(family="sine", lam=0.1, parts=4), v_quadrature=9)
    assert points == []


def test_check_axioms_accepts_a_t_rule_just_fine_enough():
    # 2 * parts * turns = 8 < 10 intervals
    report = check_axioms(CurveSpec(family="sine", lam=0.1, parts=4), v_quadrature=11)
    assert report.profile.v_nodes == 11


@pytest.mark.parametrize("turns, parts", [(100_000.0, 2), (50_000.0, 3), (25_000.0, 4)])
def test_linear_profiles_pass_a4_at_any_t_rule(turns, parts):
    # the interpolant of fermat is fermat at any knot count: at the default 100 001
    # knots these tent centres step by 1, 1/2 or 1/4, and A4 is still flat
    report = check_axioms(CurveSpec(family="fermat", turns=turns, parts=parts))
    assert report.profile.v_nodes == 100_001
    assert report.profile.max_deviation <= 1e-14
    assert report.axioms["A4"].passed


def test_rotation_check_validation():
    with pytest.raises(ValueError):
        rotation_check(CurveSpec(family="fermat", turns=1.0), q_max=1)
    with pytest.raises(ValueError, match=f"q_max must be an integer in \\[2, {MAX_Q}\\]"):
        rotation_check(CurveSpec(family="fermat", turns=1.0), q_max=MAX_Q + 1)


# -- Monte-Carlo oracle ------------------------------------------------------------------------


def test_oracle_flat_for_fermat():
    spec = CurveSpec(family="fermat", turns=1.0)
    for g in (0.3, 0.8):
        est = monte_carlo_overlap(spec, g=g, samples=1_000_000, seed=123)
        assert abs(est.value - 0.25) <= 3.0 * est.stderr
        assert est.stderr == pytest.approx(math.sqrt(est.value * (1 - est.value) / 999_999), rel=1e-9)


def test_oracle_is_deterministic():
    spec = CurveSpec(family="fermat", turns=1.0)
    a = monte_carlo_overlap(spec, g=0.37, samples=200_000, seed=9)
    b = monte_carlo_overlap(spec, g=0.37, samples=200_000, seed=9)
    assert a == b
    c = monte_carlo_overlap(spec, g=0.37, samples=200_000, seed=10)
    assert c.value != a.value  # different seed, different draw


def _oracle_in_blocks(monkeypatch, block, spec, **kwargs):
    with monkeypatch.context() as m:
        m.setattr(verify, "BLOCK", block)
        return monte_carlo_overlap(spec, **kwargs)


def test_oracle_chunking_matches_single_pass(monkeypatch):
    spec = CurveSpec(family="fermat", turns=1.0)
    a = _oracle_in_blocks(monkeypatch, 70_000, spec, g=0.2, samples=300_000, seed=4)
    b = _oracle_in_blocks(monkeypatch, 300_000, spec, g=0.2, samples=300_000, seed=4)
    assert a.value == b.value


ORACLE_BLOCK_SPECS = [
    CurveSpec(family="fermat", turns=1.0),
    CurveSpec(family="sine", lam=0.1),
    CurveSpec(family="ck", lam=1.0, k=3),
    CurveSpec(family="custom", samples=quad_table()),
]


@pytest.mark.parametrize("spec", ORACLE_BLOCK_SPECS, ids=lambda s: s.family)
def test_oracle_blocks_match_one_pass_across_block_edges(spec, monkeypatch):
    for samples in (1, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 7):
        one_pass = _oracle_in_blocks(monkeypatch, samples, spec, g=0.3, samples=samples, seed=5)
        assert monte_carlo_overlap(spec, g=0.3, samples=samples, seed=5) == one_pass, samples


def _public_inverse_overlap(spec, g, samples, seed):
    """The oracle's estimate with every block sent through the checked public ``inverse``."""
    g, length = mod1(g), 1.0 / spec.parts
    rng = np.random.default_rng(seed)
    hits, remaining = 0, samples
    while remaining > 0:
        n = min(BLOCK, remaining)
        pair = rng.random((n, 2))
        v, u = pair[:, 0], pair[:, 1]
        t = spec.alpha_profile().inverse(v)
        hits += int(np.count_nonzero((_frac(u - t) < length) & (_frac(_frac(g - u) - t) < length)))
        remaining -= n
    return hits / samples


@pytest.mark.parametrize("spec", ORACLE_SPECS, ids=lambda s: _spec_id(s) + f"-{len(s.samples or ())}")
def test_oracle_equals_the_estimate_through_the_public_inverse(spec):
    # the oracle draws v in [0, 1) and skips inverse's range check and clip
    for g in (0.3, 0.71):
        for seed in (1, 2):
            est = monte_carlo_overlap(spec, g=g, samples=3 * BLOCK + 7, seed=seed)
            assert est.value == _public_inverse_overlap(spec, g, 3 * BLOCK + 7, seed), (g, seed)


def _ck_spec(share, k, parts):
    """A ck spec at ``share`` of the largest lambda its constructor accepts for order k."""
    worst = 0.125 + 0.125 / math.sqrt(2 * k + 1)
    lam_max = 2.0 / ((k + 1) * (worst * (0.25 - worst)) ** k * (2.0 * worst - 0.25))
    return CurveSpec(family="ck", lam=share * lam_max, k=k, parts=parts)


@settings(max_examples=25, deadline=None)
@given(spec=st.one_of(
    st.builds(lambda lam, parts: CurveSpec(family="sine", lam=lam, parts=parts),
              st.floats(1e-3, 0.249), st.integers(2, 6)),
    st.builds(_ck_spec, st.floats(1e-3, 0.999), st.integers(0, 3), st.integers(2, 6))),
    g=st.floats(0.0, 1.0), seed=st.integers(0, 2**32 - 1))
def test_forward_oracle_equals_the_public_inverse_on_curved_profiles(spec, g, seed):
    # sine and ck test membership through alpha alone; the public inverse bisects
    samples = BLOCK + 7
    assert monte_carlo_overlap(spec, g=g, samples=samples, seed=seed).value == \
        _public_inverse_overlap(spec, g, samples, seed)


class _TwoTurnWave(Sine):
    """A curved test profile over two turns, u + (0.05/pi) sin(4 pi u) on [0, 1].

    It derives from Sine, so the package's families stay AlphaProfile's only
    direct subclasses (test_curves checks them by name for the tracer).
    """

    def __init__(self):
        AlphaProfile.__init__(self, 2.0)

    def _alpha(self, u):
        return u + (0.05 / math.pi) * np.sin(4.0 * math.pi * u)


def _table_membership(profile, x, v, length):
    """The oracle's membership of (x, v), v in [0, 1), through the bracket table of ``profile``."""
    lo, hi = verify._brackets(profile)
    bucket = (v * BRACKET_BUCKETS).astype(np.intp)
    return verify._forward(profile, x, v, length, lo[bucket], hi[bucket])


@pytest.mark.parametrize("parts", range(2, 7))
def test_forward_membership_over_every_copy_of_a_two_turn_profile(parts):
    # domain_end + L > 1, so the copy loop runs twice; no family in the package spans two turns
    profile, length = _TwoTurnWave(), 1.0 / parts
    u, v = np.random.default_rng(parts).random((2, 100_000))
    inside = _table_membership(profile, u, v, length)
    assert np.array_equal(inside, _frac(u - profile.inverse(v)) < length)
    assert 0.0 < inside.mean() < 1.0


def _membership_edge_cases(profile, length, rng):
    """Points (x, v) where a bracket could decide wrongly, v in [0, 1) as the oracle draws it.

    The copy ends x + j - L and x + j fall on the table's knots, an ulp either
    side of them, on 0 and domain_end, and at random; v is the computed alpha at
    either clipped end and an ulp either side of it, or lies in the first or
    the last bucket.
    """
    end = profile.domain_end
    knots = end * (np.arange(BRACKET_KNOTS + 1) / BRACKET_KNOTS)
    ends = np.concatenate((knots, np.nextafter(knots, -1.0), np.nextafter(knots, 2.0 * end),
                           [0.0, end], rng.uniform(-0.1, end + 0.1, 2_000)))
    copies = np.arange(math.ceil(end + length))[:, None]
    x = np.concatenate(((ends - copies).ravel(), (ends + length - copies).ravel()))
    alphas = [profile._alpha(np.clip(x + (j - length), 0.0, end)) for j in copies.ravel()]
    alphas += [profile._alpha(np.clip(x + j, 0.0, end)) for j in copies.ravel()]
    heights = [h for a in alphas for h in (a, np.nextafter(a, -1.0), np.nextafter(a, 2.0))]
    bucket = 1.0 / BRACKET_BUCKETS
    heights += [rng.uniform(0.0, bucket, len(x)), rng.uniform(1.0 - bucket, 1.0, len(x)),
                np.zeros(len(x)), np.full(len(x), np.nextafter(1.0, 0.0)), rng.random(len(x))]
    v = np.clip(np.concatenate(heights), 0.0, np.nextafter(1.0, 0.0))
    return np.tile(x, len(heights)), v


@pytest.mark.parametrize("profile", [
    Sine(1e-3), Sine(0.2499), *(_ck_spec(0.999, k, 2).alpha_profile() for k in (0, 3, 7, 100)),
    Ck(1.8e305, 999)], ids=lambda p: f"{type(p).__name__}-{p.lam:g}-{getattr(p, 'k', '')}")
def test_alpha_margin_covers_twice_the_rounding_of_computed_alpha(profile):
    # the table's knots and random points, against alpha in 50-digit decimal arithmetic
    u = np.concatenate((profile.domain_end * (np.arange(BRACKET_KNOTS + 1) / BRACKET_KNOTS),
                        np.random.default_rng(3).uniform(0.0, profile.domain_end, 500)))
    error = max(abs(decimal_alpha(profile, float(x)) - Decimal(float(a))) for x, a in zip(u, profile._alpha(u)))
    assert 2 * error <= ALPHA_MARGIN


@settings(max_examples=25, deadline=None)
@given(profile=st.one_of(
    st.builds(Sine, st.sampled_from([1e-3, 0.2499]) | st.floats(1e-3, 0.2499)),
    st.builds(lambda share, k: _ck_spec(share, k, 2).alpha_profile(), st.floats(1e-3, 0.999), st.integers(0, 7)),
    st.just(Ck(1.8e305, 999)), st.builds(_TwoTurnWave)),
    parts=st.integers(2, 6), seed=st.integers(0, 2**32 - 1))
def test_bracket_membership_equals_the_forward_reference(profile, parts, seed):
    # every decision, from the table or from alpha inside a bracket, is alpha's at the clipped end
    length = 1.0 / parts
    x, v = _membership_edge_cases(profile, length, np.random.default_rng(seed))
    assert np.array_equal(_table_membership(profile, x, v, length), forward_membership(profile, x, v, length))


@pytest.mark.parametrize("lam", [0.1, 0.24])
@pytest.mark.parametrize("parts", [3, 4, 5])
@pytest.mark.parametrize("v_quadrature", [1_001, V_QUADRATURE])
def test_sine_profile_within_the_interpolation_bound_of_its_closed_form(lam, parts, v_quadrature):
    # |f - f_h| <= turns h^2 max|alpha''| / 8 for the interpolant on knots h apart; sine's alpha'' <= 64 pi lam
    spec = CurveSpec(family="sine", lam=lam, parts=parts)
    prof = perfect_profile(spec, v_quadrature=v_quadrature)
    h = spec.alpha_profile().domain_end / (prof.v_nodes - 1)
    bound = h * h * 64.0 * math.pi * lam / 8.0
    assert np.max(np.abs(prof.values - sine_profile_values(spec, prof.g))) <= bound


@pytest.mark.parametrize("parts", [3, 4, 5])
@pytest.mark.parametrize("seed", [1, 2])
def test_sine_oracle_within_five_standard_errors_of_its_closed_form(parts, seed):
    # at g = L and L + 1/4 the profile is L^2 +- its amplitude, 18 standard errors from L^2 at
    # parts 3, so an oracle whose brackets decide wrongly in bulk falls outside
    spec = CurveSpec(family="sine", lam=0.24, parts=parts)
    for g in (1.0 / parts, 1.0 / parts + 0.25):
        est = monte_carlo_overlap(spec, g=g, samples=100_000, seed=seed)
        assert abs(est.value - float(sine_profile_values(spec, g))) <= 5.0 * est.stderr


def test_alpha_prime_refuses_a_family_subclass():
    # a subclass may change alpha, as this one does, so it gets no parent's alpha'
    with pytest.raises(TypeError, match="_TwoTurnWave"):
        alpha_prime(_TwoTurnWave(), np.array([0.1]))


@pytest.mark.parametrize("spec", ORACLE_BLOCK_SPECS, ids=lambda s: s.family)
def test_oracle_memory_does_not_grow_with_samples(spec):
    # one 1e6-sample pass would hold a 16 MB sample pair and 8 MB temporaries
    assert _traced_peak(monte_carlo_overlap, spec, g=0.3, samples=1_000_000, seed=2) < 4 * 1024 * 1024


@pytest.mark.parametrize("spec", ORACLE_BLOCK_SPECS, ids=lambda s: s.family)
def test_a4_memory_does_not_grow_with_v_quad(spec):
    # one pass over 2e6 knots holds about seven 16 MB arrays
    assert _traced_peak(perfect_profile, spec, v_quadrature=2_000_000) < 4 * 1024 * 1024


def test_a4_memory_at_the_axis_cap():
    # the 3G + 1 cells' prefix sums are 4.5 MiB at 65 536 axes; reading the ramps of all
    # 3G queries at once next to them, the last block's bounds and the edges peaked at
    # 23 MiB, and one row of queries at a time after freeing those peaks at 13 MiB
    spec = CurveSpec(family="sine", lam=0.24)
    assert _traced_peak(perfect_profile, spec, g_grid=MAX_G_GRID, v_quadrature=MAX_V_QUADRATURE) < 16 * 2**20


def test_oracle_agrees_with_quadrature_on_counterexample():
    spec = CurveSpec(family="custom", samples=quad_table())
    prof = perfect_profile(spec, **FAST)
    g = prof.witness_g
    est = monte_carlo_overlap(spec, g=g, samples=1_000_000, seed=77)
    quad_value = prof.values[int(round(g * len(prof.g))) % len(prof.g)]
    assert abs(est.value - quad_value) <= 3.0 * est.stderr


def test_frac_matches_np_mod_bit_for_bit():
    tiny = np.nextafter(0.0, 1.0)
    adversarial = [-0.0, 0.0, -tiny, tiny, -1e-300, -1e-17, -np.nextafter(1.0, 0.0), -1.0,
                   -np.nextafter(1.0, 2.0), -2.0, -3.0, 3.0, -2.5, np.nextafter(-3.0, 0.0)]
    x = np.concatenate([adversarial, np.random.default_rng(0).uniform(-3.0, 3.0, 200_000)])
    assert np.array_equal(_frac(x).view(np.int64), np.mod(x, 1.0).view(np.int64))


def test_oracle_validation():
    with pytest.raises(ValueError):
        monte_carlo_overlap(CurveSpec(family="fermat"), g=0.1, samples=0, seed=1)


def test_oracle_rejects_non_finite_axis():
    for g in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="finite"):
            monte_carlo_overlap(CurveSpec(family="fermat"), g=g, samples=10, seed=1)


# -- A5: smoothness from each family's closed form, and the sampled turning angles -------------

#: Samples per branch of the sampled turning-angle cross-check.
POLYLINE_POINTS = 512


def _disk_point_turning_angles(points):
    # the polyline as DiskPoint objects, chords in Cartesian coordinates
    xy = np.array([(p.r * math.cos(p.phi), p.r * math.sin(p.phi)) for p in points])
    chords = np.diff(xy, axis=0)
    chords = chords[np.linalg.norm(chords, axis=1) > 1e-15]
    dots = np.sum(chords[:-1] * chords[1:], axis=1)
    cross = chords[:-1, 0] * chords[1:, 1] - chords[:-1, 1] * chords[1:, 0]
    return np.abs(np.arctan2(cross, dots))


def _max_turning_angle(spec, n):
    return float(np.max(polyline_turning_angles(branch_polyline(spec, n))))


@pytest.mark.parametrize("spec", [
    CurveSpec(family="fermat", turns=1.0),
    CurveSpec(family="fermat", turns=2.0, parts=5),
    CurveSpec(family="sine", lam=0.2, parts=3),
    CurveSpec(family="ck", lam=1.0, k=0, parts=6),
    CurveSpec(family="custom", samples=quad_table()),
], ids=_spec_id)
def test_a5_max_angle_matches_disk_point_polyline(spec):
    # the sampled oracle on branch 0's (r, phi) array against every branch as DiskPoint objects
    n = POLYLINE_POINTS
    points = beta_polyline(spec, n)
    expected = max(
        float(np.max(_disk_point_turning_angles(points[j * n : (j + 1) * n])))
        for j in range(spec.parts)
    )
    assert _max_turning_angle(spec, n) == pytest.approx(expected, abs=1e-12)


@pytest.mark.parametrize("parts", range(2, 8))
@pytest.mark.parametrize("spec", [
    CurveSpec(family="fermat", turns=1.0),
    CurveSpec(family="fermat", turns=2.5),
    CurveSpec(family="sine", lam=0.2),
    CurveSpec(family="ck", lam=1.0, k=3),
    CurveSpec(family="custom", samples=quad_table()),
], ids=lambda s: _spec_id(s).removesuffix("-parts2"))
def test_a5_witness_is_the_largest_angle_over_every_branch(spec, parts):
    # A5 is per branch: branch j is branch 0 turned by j/parts, which moves the sampled
    # angles only by rounding, so branch 0's seam is every branch's, at any part count
    spec = dataclasses.replace(spec, parts=parts)
    branch = branch_polyline(spec, POLYLINE_POINTS)
    expected = 0.0
    for j in range(parts):
        angles = polyline_turning_angles(branch + [0.0, 2.0 * math.pi * j / parts])
        if len(angles):
            expected = max(expected, float(np.max(angles)))
    assert abs(_max_turning_angle(spec, POLYLINE_POINTS) - expected) <= 1e-13
    report = check_axioms(spec, g_grid=8, v_quadrature=101)
    assert report.axioms["A5"].witness == spec.alpha_profile().smoothness()[1]


@pytest.mark.parametrize("spec", [
    CurveSpec(family="fermat", turns=1.0),
    CurveSpec(family="fermat", turns=2.5),
    CurveSpec(family="sine", lam=0.24),
    CurveSpec(family="ck", lam=1.0, k=1),
    CurveSpec(family="ck", lam=1.0, k=3),
], ids=_spec_id)
def test_sampled_turning_angle_falls_as_one_over_n_where_alpha_is_c1(spec):
    # a C^1 curve turns by about its curvature times the chord, so 8x the samples read 1/8 the angle
    assert spec.alpha_profile().smoothness()[0] >= 1
    ratio = _max_turning_angle(spec, 512) / _max_turning_angle(spec, 4096)
    assert ratio >= 6.0, ratio


@pytest.mark.parametrize("spec, seam", [
    (CurveSpec(family="ck", lam=1.0, k=0), 0.25),
    (CurveSpec(family="ck", lam=4.0, k=0), 0.25),
    (CurveSpec(family="custom", samples=((0.125, 0.2), (0.5, 1.0))), 0.125),
], ids=["ck-k0-lam1", "ck-k0-lam4", "custom-one-knot"])
def test_sampled_turning_angle_tends_to_the_exact_kink_angle_at_a_c0_seam(spec, seam):
    # the branch (sqrt(alpha/pi), 2 pi u) meets the radius at atan(r dphi/dr) = atan(4 pi alpha / alpha'),
    # so a slope jump turns it by the difference of the two sides; the seam is a sample, so one
    # vertex takes the whole turn
    profile = spec.alpha_profile()
    assert profile.smoothness() == (0, seam)
    height = 4.0 * math.pi * profile.evaluate(seam)
    left, right = (float(alpha_prime(profile, u)) for u in (seam, np.nextafter(seam, 1.0)))
    kink = abs(math.atan(height / right) - math.atan(height / left))
    assert abs(_max_turning_angle(spec, 262_144) - kink) <= 1e-4


@pytest.mark.parametrize("k", range(8))
def test_a5_fails_every_ck_profile_at_its_seam(k):
    report = check_axioms(CurveSpec(family="ck", lam=1.0, k=k), g_grid=8, v_quadrature=101)
    a5 = report.axioms["A5"]
    assert not a5.passed and a5.witness == 0.25
    assert a5.detail == f"structural: alpha is C^{k + k % 2} at u = 0.25, not C^inf"


@pytest.mark.parametrize("spec", [
    *(CurveSpec(family="fermat", turns=t, parts=p) for t in (1.0, 1.5, 2.0, 2.5) for p in range(2, 6)),
    CurveSpec(family="sine", lam=0.1),
    CurveSpec(family="sine", lam=0.24),
    CurveSpec(family="custom", samples=((0.5, 1.0),)),
    CurveSpec(family="custom", samples=((0.25, 0.5), (0.5, 1.0))),
], ids=lambda s: _spec_id(s) + f"-{len(s.samples or ())}")
def test_a5_passes_analytic_profiles(spec):
    a5 = check_axioms(spec, g_grid=8, v_quadrature=101).axioms["A5"]
    assert a5.to_json() == {"pass": True, "detail": "structural: alpha is analytic"}


def test_a5_fails_a_table_at_its_first_kink():
    samples = quad_table()
    a5 = check_axioms(CurveSpec(family="custom", samples=samples), g_grid=8, v_quadrature=101).axioms["A5"]
    assert not a5.passed
    assert a5.witness == samples[1][0]
    assert a5.detail == f"structural: alpha is C^0 at u = {samples[1][0]}, not C^inf"

import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from _oracles import v_path_profile_values, v_quadrature_rule
from yinyang.circle_sets import CircleSet, arc_reflection_overlap_into
from yinyang.curves import (
    Ck,
    CurveSpec,
    Fermat,
    Sine,
    Table,
    beta_polyline,
)
from yinyang.verify import (
    FLATNESS_TOL_CLOSED_FORM,
    FLATNESS_TOL_TABLE,
    G_GRID,
    MAX_G_GRID,
    MAX_MC_SAMPLES,
    MAX_V_QUADRATURE,
    V_QUADRATURE,
    AxiomVerdict,
    _frac,
    applicable_relations,
    check_axioms,
    m_function,
    monte_carlo_overlap,
    perfect_profile,
    radial_crossings,
    reduced_rotations,
    relation_residual,
    rotation_check,
    single_arc_invariant_measure,
    t_quadrature_rule,
)

FAST = dict(g_grid=64, v_quadrature=5001)


def quad_table(n=2001):
    u = np.linspace(0.0, 0.5, n)
    return tuple((float(x), float(4.0 * x * x)) for x in u)


# -- quadrature rule -----------------------------------------------------------

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
        t_quadrature_rule(Fermat(1.0), 1)


def test_quadrature_node_budget():
    # the CLI default is exactly 100 001 nodes for every family and for every
    # table with fewer knots than nodes; more pieces than intervals get one each
    for spec in SWEEP_SPECS:
        assert len(t_quadrature_rule(spec.alpha_profile(), V_QUADRATURE)[0]) == 100_001
    u = np.linspace(0.0, 0.5, 100_000)
    big = Table([(float(a), float(2.0 * a)) for a in u])
    assert len(t_quadrature_rule(big, V_QUADRATURE)[0]) == 100_001
    nodes, w = t_quadrature_rule(big, 101)
    assert len(nodes) == 100_000 and np.sum(w) == pytest.approx(1.0, abs=1e-12)
    assert perfect_profile(CurveSpec(family="custom", samples=big.samples), g_grid=8).v_nodes == 100_001


def _raises_without_allocating(match, fn, *args, **kwargs):
    # the size check must come before the work it bounds
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=match):
            fn(*args, **kwargs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024


def test_work_sizes_are_capped():
    spec = CurveSpec(family="fermat")
    _raises_without_allocating("quadrature nodes", t_quadrature_rule, Fermat(1.0), MAX_V_QUADRATURE + 1)
    _raises_without_allocating(
        "quadrature nodes", perfect_profile, spec, g_grid=8, v_quadrature=MAX_V_QUADRATURE + 1
    )
    _raises_without_allocating(
        "reflection axes", perfect_profile, spec, g_grid=MAX_G_GRID + 1, v_quadrature=101
    )
    _raises_without_allocating(
        "samples", monte_carlo_overlap, spec, g=0.3, samples=MAX_MC_SAMPLES + 1, seed=1
    )
    assert len(t_quadrature_rule(Fermat(1.0), MAX_V_QUADRATURE)[0]) == MAX_V_QUADRATURE
    assert len(perfect_profile(spec, g_grid=MAX_G_GRID, v_quadrature=101).g) == MAX_G_GRID


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
        assert prof.mean == pytest.approx((1.0 / spec.parts) ** 2, abs=1e-7)


def gxv_profile_values(spec, g_grid, v_quadrature):
    """f(g) the slow way: one full pass over every fiber of the t-rule per axis (G x V)."""
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


@pytest.mark.parametrize("spec", SWEEP_SPECS, ids=_spec_id)
def test_sweep_matches_gxv_kernel(spec):
    # 1e-12 is far inside the 1e-6 and 1e-4 A4 tolerances
    for g_grid, v_quadrature in ((128, 20_001), (500, 5001)):
        prof = perfect_profile(spec, g_grid=g_grid, v_quadrature=v_quadrature)
        ref = gxv_profile_values(spec, g_grid, v_quadrature)
        assert np.max(np.abs(prof.values - ref)) <= 1e-12


def test_sweep_rounding_does_not_grow_with_v_nodes():
    # a running sum over a million periodic Simpson weights drifts past 1e-12
    spec = CurveSpec(family="fermat", turns=1.0, parts=3)
    prof = perfect_profile(spec, g_grid=37, v_quadrature=1_000_000)
    assert prof.v_nodes == 1_000_001
    assert np.max(np.abs(prof.values - gxv_profile_values(spec, 37, 1_000_000))) <= 1e-12


def test_sweep_axes_between_nodes_and_on_window_edges():
    # with 2 parts and an even grid, every g +- 1/2 is another axis of the grid
    for spec in (CurveSpec(family="fermat", turns=1.0), CurveSpec(family="fermat", turns=1.5)):
        prof = perfect_profile(spec, g_grid=6, v_quadrature=3)
        assert np.max(np.abs(prof.values - gxv_profile_values(spec, 6, 3))) <= 1e-12


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
ORACLE_SPECS = SWEEP_SPECS + [
    CurveSpec(family="custom", samples=json.loads(
        (Path(__file__).parent / "fixtures" / "quadratic_33.json").read_text())),
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


def test_perturbed_tables_straddle_the_table_tolerance():
    # the corpus above holds tables that pass and tables that fail A4
    devs = [perfect_profile(spec, **FAST).max_deviation for spec in ORACLE_SPECS[-6:]]
    assert min(devs) < 0.9 * FLATNESS_TOL_TABLE and max(devs) > 1.1 * FLATNESS_TOL_TABLE


def test_ck_seam_split_keeps_the_profile_flat():
    # alpha' jumps by lambda/2 at t = 1/4 for k = 0; integrated across the jump
    # the profile is about 7e-5 off at 5001 nodes, split there it is flat to rounding
    lam = 7.99  # the profile is increasing for lambda < 8
    spec = CurveSpec(family="ck", lam=lam, k=0)
    assert Ck(lam, 0).derivative(np.array([0.25]))[0] == pytest.approx(2.0 - lam / 4.0)
    assert perfect_profile(spec, v_quadrature=5001).max_deviation <= 1e-12


# -- relation residuals ----------------------------------------------------------


def test_residuals_fermat_one_turn():
    p = Fermat(1.0)
    assert relation_residual(p, "eq_alal") <= 1e-12
    assert relation_residual(p, "eq_mm") <= 1e-12


def test_residuals_fermat_two_turns():
    p = Fermat(2.0)
    assert relation_residual(p, "eq_sigma") <= 1e-12
    assert relation_residual(p, "eq_alalal") <= 1e-12


def test_residual_eq_al3_fermat_three_halves():
    # the 3/2-turn linear profile violates the 3/2-turn balance relation
    p = Fermat(1.5)
    assert relation_residual(p, "eq_al3") == pytest.approx(1.0 / 6.0, abs=1e-9)


def test_residual_domain_mismatch():
    with pytest.raises(ValueError, match="1.0 turns"):
        relation_residual(Fermat(2.0), "eq_alal")
    with pytest.raises(ValueError, match="2.0 turns"):
        relation_residual(Fermat(1.0), "eq_sigma")
    with pytest.raises(ValueError, match="1.5 turns"):
        relation_residual(Fermat(1.0), "eq_al3")


def test_applicable_relations_follow_turns():
    assert applicable_relations(1.0) == ("eq_alal", "eq_mm")
    assert applicable_relations(2.0) == ("eq_alalal", "eq_sigma")
    assert applicable_relations(1.5) == ("eq_al3",)
    assert applicable_relations(1.25) == ()


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


def test_m_function_domain():
    p = Fermat(1.0)
    with pytest.raises(ValueError):
        m_function(p, 0.0)
    with pytest.raises(ValueError):
        m_function(p, 1.1)
    with pytest.raises(ValueError, match="1.0 turns"):
        m_function(Fermat(2.0), 0.5)


# -- radial crossings -----------------------------------------------------------------


def test_radial_crossings_basic():
    u0 = (np.arange(512) + 0.382) / 512
    assert set(radial_crossings(1.0, 2, u0)) == {1}
    assert set(radial_crossings(2.0, 2, u0)) == {2}
    assert set(radial_crossings(1.5, 2, u0)) == {1, 2}
    assert set(radial_crossings(1.0, 3, u0)) == {1, 2}


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
    assert report.residuals["eq_sigma"] <= 1e-12
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
    assert rc.passed
    assert len(rc.integrals) == len(reduced_rotations(6)) == 11
    assert all(v <= 1e-12 for v in rc.integrals.values())


def test_rotation_check_three_parts():
    rc = rotation_check(CurveSpec(family="fermat", turns=1.0, parts=3), q_max=3)
    assert rc.integrals["1/3"] == 0.0  # length-1/3 arcs kill the 1/3 rotation


def test_rotation_fiber_full_circle_degenerate():
    # a degenerate "whole disk" fiber keeps measure 1 under every rotation
    nodes, w = v_quadrature_rule(301)
    full = CircleSet.full()
    for p, q in reduced_rotations(4):
        fibers = np.array([full.rotation_invariant_part(p, q).measure() for _ in nodes])
        assert w @ fibers == pytest.approx(1.0, abs=1e-12)


def test_single_arc_invariant_measure_matches_circle_sets():
    rng = np.random.default_rng(20261018)
    lengths = np.concatenate([rng.uniform(0.0, 0.5, 20), rng.uniform(0.5, 1.0, 40)])
    nonzero = 0
    for start, length in zip(rng.random(len(lengths)), lengths):
        arc = CircleSet.from_arcs([(float(start), float(length))])
        for p, q in reduced_rotations(7):
            expected = arc.rotation_invariant_part(p, q).measure()
            assert single_arc_invariant_measure(float(length), q) == pytest.approx(expected, abs=1e-12)
            nonzero += expected > 1e-9
    assert nonzero >= 20  # long arcs keep a part, so the formula is really exercised


def test_rotation_check_matches_slice_algebra():
    # the closed form against the per-slice CircleSet integral it replaces
    for spec in (CurveSpec(family="fermat", turns=1.5, parts=2), CurveSpec(family="sine", lam=0.1, parts=3)):
        nodes, w = v_quadrature_rule(101)
        slices = [CircleSet.from_arcs([(float(t) % 1.0, 1.0 / spec.parts)])
                  for t in spec.alpha_profile().inverse(nodes)]
        rc = rotation_check(spec, q_max=5)
        for p, q in reduced_rotations(5):
            fibers = np.array([s.rotation_invariant_part(p, q).measure() for s in slices])
            assert rc.integrals[f"{p}/{q}"] == pytest.approx(float(w @ fibers), abs=1e-12)
    assert "closed form, single-arc slices" in rc.to_json()["detail"]


def test_check_axioms_validates_flatness_tolerance():
    spec = CurveSpec(family="fermat", turns=1.0)
    for bad in (math.nan, math.inf, -1.0):
        with pytest.raises(ValueError, match="tolerance"):
            check_axioms(spec, flatness_tolerance=bad, **FAST)
    assert check_axioms(spec, flatness_tolerance=0.0, **FAST).tolerances["flatness"] == 0.0


@pytest.mark.parametrize("turns, parts", [(100_000.0, 2), (50_000.0, 3), (25_000.0, 4)])
def test_check_axioms_refuses_a_t_rule_too_coarse_for_the_tents(turns, parts):
    # at the default 100 001 nodes the tent centres step by 1, 1/2 or 1/4 and land on
    # 1, 2 or 4 points: these balanced spirals used to fail A4 by up to 0.25
    spec = CurveSpec(family="fermat", turns=turns, parts=parts)
    with pytest.raises(ValueError, match="--v-quad") as exc:
        check_axioms(spec)
    assert f"turns={turns:g}" in str(exc.value)


def test_check_axioms_accepts_a_t_rule_just_fine_enough():
    # 2 * parts * turns = 99 996 < 100 000 intervals
    report = check_axioms(CurveSpec(family="fermat", turns=24_999.0))
    assert report.axioms["A4"].passed


def test_rotation_check_validation():
    with pytest.raises(ValueError):
        rotation_check(CurveSpec(family="fermat", turns=1.0), q_max=1)


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


def test_oracle_chunking_matches_single_pass():
    spec = CurveSpec(family="fermat", turns=1.0)
    a = monte_carlo_overlap(spec, g=0.2, samples=300_000, seed=4, chunk=70_000)
    b = monte_carlo_overlap(spec, g=0.2, samples=300_000, seed=4, chunk=300_000)
    assert a.value == b.value


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


# -- A5 polyline ------------------------------------------------------------------------------


def _disk_point_turning_angles(points):
    # the polyline as DiskPoint objects, chords in Cartesian coordinates
    xy = np.array([(p.r * math.cos(p.phi), p.r * math.sin(p.phi)) for p in points])
    chords = np.diff(xy, axis=0)
    chords = chords[np.linalg.norm(chords, axis=1) > 1e-15]
    dots = np.sum(chords[:-1] * chords[1:], axis=1)
    cross = chords[:-1, 0] * chords[1:, 1] - chords[:-1, 1] * chords[1:, 0]
    return np.abs(np.arctan2(cross, dots))


@pytest.mark.parametrize("spec", [
    CurveSpec(family="fermat", turns=1.0),
    CurveSpec(family="fermat", turns=2.0, parts=5),
    CurveSpec(family="sine", lam=0.2, parts=3),
    CurveSpec(family="ck", lam=1.0, k=0, parts=6),
    CurveSpec(family="custom", samples=quad_table()),
], ids=_spec_id)
def test_a5_max_angle_matches_disk_point_polyline(spec):
    n = 512
    points = beta_polyline(spec, n)
    expected = max(
        float(np.max(_disk_point_turning_angles(points[j * n : (j + 1) * n])))
        for j in range(spec.parts)
    )
    report = check_axioms(spec, g_grid=8, v_quadrature=101, polyline_points=n)
    assert report.axioms["A5"].witness == pytest.approx(expected, abs=1e-12)

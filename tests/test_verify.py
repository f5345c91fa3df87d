import json
import math

import numpy as np
import pytest

from yinyang.circle_sets import CircleSet, arc_reflection_overlap_into
from yinyang.curves import (
    CurveSpec,
    beta_polyline,
    make_custom,
    make_fermat,
    make_sine_variant,
)
from yinyang.verify import (
    AxiomVerdict,
    check_axioms,
    m_function,
    monte_carlo_overlap,
    perfect_profile,
    radial_crossings,
    reduced_rotations,
    relation_residual,
    rotation_check,
    single_arc_invariant_measure,
    v_quadrature_rule,
)

FAST = dict(g_grid=64, v_quadrature=5001)


def quad_table(n=2001):
    u = np.linspace(0.0, 0.5, n)
    return tuple((float(x), float(4.0 * x * x)) for x in u)


# -- quadrature rule -----------------------------------------------------------


def test_quadrature_weights_sum_to_one():
    for n in (2, 3, 101, 4096, 99_999):
        nodes, w = v_quadrature_rule(n)
        assert len(nodes) % 2 == 1
        assert np.sum(w) == pytest.approx(1.0, abs=1e-13)
        assert nodes[0] > 0.0 and nodes[-1] < 1.0


def test_quadrature_integrates_smooth_functions():
    nodes, w = v_quadrature_rule(10_001)
    # the rectangle half-cells at the skipped endpoints cost O(h^2)
    assert w @ nodes**2 == pytest.approx(1.0 / 3.0, abs=1e-7)
    assert w @ np.sin(2 * math.pi * nodes) == pytest.approx(0.0, abs=1e-10)
    nodes, w = v_quadrature_rule(100_000)
    assert w @ nodes**2 == pytest.approx(1.0 / 3.0, abs=1e-9)


def test_quadrature_rejects_tiny_n():
    with pytest.raises(ValueError):
        v_quadrature_rule(1)


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
    """f(g) the slow way: one full pass over every fiber per axis (G x V)."""
    length = 1.0 / spec.parts
    nodes, w = v_quadrature_rule(v_quadrature)
    neg_base = -(2.0 * spec.alpha_profile().inverse(nodes) + length)
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


# -- relation residuals ----------------------------------------------------------


def test_residuals_fermat_one_turn():
    p = make_fermat(1.0)
    assert relation_residual(p, "eq_alal") <= 1e-12
    assert relation_residual(p, "eq_mm") <= 1e-12


def test_residuals_fermat_two_turns():
    p = make_fermat(2.0)
    assert relation_residual(p, "eq_sigma") <= 1e-12
    assert relation_residual(p, "eq_alalal") <= 1e-12


def test_residual_eq_al3_fermat_three_halves():
    # the 3/2-turn linear profile violates the 3/2-turn balance relation
    p = make_fermat(1.5)
    assert relation_residual(p, "eq_al3") == pytest.approx(1.0 / 6.0, abs=1e-9)


def test_residual_domain_mismatch():
    with pytest.raises(ValueError, match="1.0 turns"):
        relation_residual(make_fermat(2.0), "eq_alal")
    with pytest.raises(ValueError, match="2.0 turns"):
        relation_residual(make_fermat(1.0), "eq_sigma")
    with pytest.raises(ValueError, match="1.5 turns"):
        relation_residual(make_fermat(1.0), "eq_al3")


def test_residual_unknown_relation():
    with pytest.raises(ValueError, match="unknown relation"):
        relation_residual(make_fermat(1.0), "eq_bogus")


def test_residual_quadratic_profile_breaks_quarter_shift():
    p = make_custom(quad_table())
    # alpha = 4u^2: alpha(u+1/4) - alpha(u) - 1/2 = 2u - 1/4, sup 1/4 on (0, 1/4]
    assert relation_residual(p, "eq_alal") == pytest.approx(0.25, abs=1e-3)


# -- m function ---------------------------------------------------------------------


def test_m_function_constant_for_fermat():
    p = make_fermat(1.0)
    u = np.linspace(0.01, 1.0, 57)
    assert np.max(np.abs(m_function(p, u) - 0.5)) <= 1e-12
    assert m_function(p, 0.3) == pytest.approx(m_function(p, 0.8), abs=1e-12)


def test_m_function_periodicity_tracks_quarter_shift():
    sine = make_sine_variant(0.1)
    u = np.linspace(0.001, 0.5, 400)
    assert np.max(np.abs(m_function(sine, u) - m_function(sine, u + 0.5))) <= 1e-12
    quad = make_custom(quad_table())
    assert np.max(np.abs(m_function(quad, u) - m_function(quad, u + 0.5))) > 1e-3


def test_m_function_domain():
    p = make_fermat(1.0)
    with pytest.raises(ValueError):
        m_function(p, 0.0)
    with pytest.raises(ValueError):
        m_function(p, 1.1)
    with pytest.raises(ValueError, match="1.0 turns"):
        m_function(make_fermat(2.0), 0.5)


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

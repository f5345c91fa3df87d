import json
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from yinyang.curves import (
    CurveSpec,
    beta_polyline,
    contains,
    make_ck_variant,
    make_custom,
    make_fermat,
    make_sine_variant,
    section,
)
from yinyang.geometry import DISK_RADIUS, DiskPoint, cylinder_to_disk, CylinderPoint


def _profile_invariants(profile, tol=1e-9):
    u = np.linspace(0.0, profile.domain_end, 10_001)[1:]
    v = profile.evaluate(u)
    assert np.all(np.diff(v) > 0.0), "profile must be strictly increasing"
    assert v[-1] == pytest.approx(1.0, abs=tol)
    assert profile.evaluate(profile.domain_end * 1e-9) < 1e-6


# -- fermat -------------------------------------------------------------------


def test_fermat_one_turn_is_line():
    p = make_fermat(1.0)
    assert p.evaluate(0.25) == pytest.approx(0.5)
    assert p.evaluate(0.5) == pytest.approx(1.0)


def test_fermat_two_turns_is_identity():
    p = make_fermat(2.0)
    assert p.evaluate(0.5) == pytest.approx(0.5)
    assert p.evaluate(1.0) == pytest.approx(1.0)


def test_fermat_quarter_shift_linearity():
    p = make_fermat(1.0)
    u = np.linspace(1e-6, 0.25, 100)
    assert np.allclose(p.evaluate(u + 0.25) - p.evaluate(u), 0.5, atol=1e-12)


def test_fermat_rejects_nonpositive_turns():
    with pytest.raises(ValueError):
        make_fermat(0.0)
    with pytest.raises(ValueError):
        make_fermat(-1.0)


def test_fermat_profile_invariants():
    for turns in (0.5, 1.0, 1.5, 2.0, 3.0):
        _profile_invariants(make_fermat(turns))


# -- sine variant ---------------------------------------------------------------


def test_sine_variant_values():
    p = make_sine_variant(0.1)
    assert p.evaluate(0.125) == pytest.approx(0.25, abs=1e-15)  # sine term vanishes
    u = np.linspace(1e-9, 0.25, 500)
    assert np.max(np.abs(p.evaluate(u + 0.25) - p.evaluate(u) - 0.5)) <= 1e-12


def test_sine_variant_rejects_big_lambda():
    with pytest.raises(ValueError):
        make_sine_variant(0.3)
    with pytest.raises(ValueError):
        make_sine_variant(0.0)
    with pytest.raises(ValueError):
        make_sine_variant(0.25)


@given(st.floats(0.001, 0.249))
def test_sine_variant_profile_invariants(lam):
    _profile_invariants(make_sine_variant(lam))


# -- ck variant ------------------------------------------------------------------


def test_ck_values_at_seam():
    for lam, k in ((1.0, 0), (1.0, 1), (2.0, 2)):
        p = make_ck_variant(lam, k)
        assert p.evaluate(0.25) == pytest.approx(0.5, abs=1e-15)
        assert p.evaluate(0.5) == pytest.approx(1.0, abs=1e-15)


def test_ck_direct_substitution():
    p = make_ck_variant(1.0, 0)
    assert p.evaluate(0.125) == pytest.approx(0.265625, abs=1e-15)


def test_ck_quarter_shift():
    for lam, k in ((1.0, 0), (0.5, 1), (3.0, 2)):
        p = make_ck_variant(lam, k)
        u = np.linspace(1e-9, 0.25, 500)
        assert np.max(np.abs(p.evaluate(u + 0.25) - p.evaluate(u) - 0.5)) <= 1e-12


def test_ck_rejects_nonmonotone_lambda_with_witness():
    with pytest.raises(ValueError, match="u="):
        make_ck_variant(10.0, 0)
    with pytest.raises(ValueError, match="monotonicity"):
        make_ck_variant(2000.0, 1)


def test_ck_rejects_bad_k():
    with pytest.raises(ValueError):
        make_ck_variant(1.0, -1)


def test_ck_profile_invariants():
    for lam, k in ((1.0, 0), (1.0, 1), (1.0, 2), (7.9, 0)):
        _profile_invariants(make_ck_variant(lam, k))


# -- custom tables ------------------------------------------------------------------


def _quadratic_table(n=801):
    u = np.linspace(0.0, 0.5, n)
    return tuple((float(x), float(4.0 * x * x)) for x in u)


def test_custom_table_interpolates():
    p = make_custom(_quadratic_table())
    assert p.evaluate(0.5) == pytest.approx(1.0)
    assert p.evaluate(0.25) == pytest.approx(0.25, abs=1e-5)
    assert p.turns == pytest.approx(1.0)


def test_custom_table_validation():
    with pytest.raises(ValueError):
        make_custom([])
    with pytest.raises(ValueError, match="increase strictly"):
        make_custom([(0.0, 0.0), (0.2, 0.5), (0.2, 0.7), (0.5, 1.0)])
    with pytest.raises(ValueError, match="increase strictly"):
        make_custom([(0.0, 0.0), (0.2, 0.6), (0.3, 0.5), (0.5, 1.0)])
    with pytest.raises(ValueError, match="reach 1"):
        make_custom([(0.0, 0.0), (0.5, 0.9)])


# -- inversion ------------------------------------------------------------------------


def test_alpha_inverse_closed_forms():
    assert make_fermat(1.0).inverse(0.5) == pytest.approx(0.25)
    assert make_fermat(2.0).inverse(0.7) == pytest.approx(0.7)


def test_alpha_inverse_round_trips():
    sine = make_sine_variant(0.1)
    assert sine.inverse(sine.evaluate(0.2)) == pytest.approx(0.2, abs=1e-10)
    ck = make_ck_variant(1.0, 1)
    for u in (0.05, 0.2, 0.3, 0.45):
        v = ck.evaluate(u)
        assert ck.inverse(v) == pytest.approx(u, abs=1e-10)
        assert abs(ck.evaluate(ck.inverse(v)) - v) <= 1e-12
    table = make_custom(_quadratic_table())
    for v in (0.1, 0.5, 0.9):
        assert table.evaluate(table.inverse(v)) == pytest.approx(v, abs=1e-12)


# -- curve specs ----------------------------------------------------------------------


def test_spec_validation():
    with pytest.raises(ValueError):
        CurveSpec(family="unknown")
    with pytest.raises(ValueError):
        CurveSpec(family="fermat", parts=1)
    with pytest.raises(ValueError):
        CurveSpec(family="sine", turns=2.0, lam=0.1)
    with pytest.raises(ValueError):
        CurveSpec(family="custom")
    # family parameter ranges are enforced at construction
    with pytest.raises(ValueError):
        CurveSpec(family="sine", lam=0.3)
    with pytest.raises(ValueError):
        CurveSpec(family="ck", lam=10.0, k=0)
    with pytest.raises(ValueError):
        CurveSpec(family="ck", lam=1.0)  # k missing


@pytest.mark.parametrize(
    "kwargs, name",
    [
        (dict(family="fermat", turns=math.inf), "turns"),
        (dict(family="fermat", turns=math.nan), "turns"),
        (dict(family="custom", turns=math.nan, samples=((0.25, 0.5), (0.5, 1.0))), "turns"),
        (dict(family="ck", lam=math.nan, k=1), "lambda"),
        (dict(family="ck", lam=math.inf, k=1), "lambda"),
        (dict(family="sine", lam=math.nan), "lambda"),
        (dict(family="fermat", lam=math.inf), "lambda"),
    ],
)
def test_spec_rejects_non_finite_parameters(kwargs, name):
    with pytest.raises(ValueError, match=name):
        CurveSpec(**kwargs)


def test_makers_reject_non_finite_parameters():
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="turns"):
            make_fermat(bad)
        with pytest.raises(ValueError, match="lambda"):
            make_sine_variant(bad)
        with pytest.raises(ValueError, match="lambda"):
            make_ck_variant(bad, 1)


def test_spec_custom_turns_follow_table():
    table = ((0.0, 0.0), (0.375, 0.4), (0.75, 1.0))  # spans 1.5 turns
    spec = CurveSpec(family="custom", samples=table)
    assert spec.turns == pytest.approx(1.5)
    with pytest.raises(ValueError, match="turns"):
        CurveSpec(family="custom", samples=table, turns=2.0)


def test_spec_json_round_trip():
    specs = [
        CurveSpec(family="fermat", turns=2.0, parts=3),
        CurveSpec(family="sine", lam=0.05),
        CurveSpec(family="ck", lam=1.0, k=2),
        CurveSpec(family="custom", samples=((0.0, 0.0), (0.25, 0.3), (0.5, 1.0))),
    ]
    for spec in specs:
        assert CurveSpec.from_json(json.loads(json.dumps(spec.to_json()))) == spec


# -- sections and membership ------------------------------------------------------------


def test_section_examples():
    spec = CurveSpec(family="fermat", turns=1.0)
    near_zero = section(spec, 1e-12)
    assert near_zero.measure() == pytest.approx(0.5)
    assert near_zero.arcs[0].start == pytest.approx(0.0, abs=1e-9)
    mid = section(spec, 0.5)
    assert mid.to_json() == [[0.25, 0.5]]
    three = section(CurveSpec(family="fermat", turns=1.0, parts=3), 0.5)
    assert three.arcs[0].start == pytest.approx(0.25)
    assert three.measure() == pytest.approx(1.0 / 3.0)


def test_contains_examples():
    spec = CurveSpec(family="fermat", turns=1.0)
    inside = cylinder_to_disk(CylinderPoint(u=0.5, v=0.5))
    outside = cylinder_to_disk(CylinderPoint(u=0.9, v=0.5))
    assert contains(spec, inside)
    assert not contains(spec, outside)


def test_contains_flips_under_half_turn():
    spec = CurveSpec(family="fermat", turns=1.0)
    rng = np.random.RandomState(3)
    for _ in range(200):
        u, v = rng.uniform(0.01, 0.99), rng.uniform(0.01, 0.99)
        p = cylinder_to_disk(CylinderPoint(u=u, v=v))
        q = DiskPoint(r=p.r, phi=p.phi + math.pi)
        assert contains(spec, p) != contains(spec, q)


def test_contains_consistent_with_section_100k():
    spec = CurveSpec(family="fermat", turns=1.0)
    rng = np.random.RandomState(11)
    u = rng.uniform(0.001, 0.999, 100_000)
    v = rng.uniform(0.001, 0.999, 100_000)
    member = np.array([
        contains(spec, cylinder_to_disk(CylinderPoint(u=float(ui), v=float(vi))))
        for ui, vi in zip(u, v)
    ])
    # same decision as explicit section membership, full circle-set route
    # on a subsample, vectorized arc formula on all points
    t = spec.alpha_profile().inverse(v)
    assert np.array_equal(member, np.mod(u - t, 1.0) < 0.5)
    for i in rng.choice(100_000, size=2000, replace=False):
        assert member[i] == section(spec, float(v[i])).contains(float(u[i]))


def test_contains_consistent_with_section_sine():
    spec = CurveSpec(family="sine", lam=0.1, parts=2)
    rng = np.random.RandomState(12)
    for _ in range(300):
        u, v = float(rng.uniform(0.001, 0.999)), float(rng.uniform(0.001, 0.999))
        p = cylinder_to_disk(CylinderPoint(u=u, v=v))
        assert contains(spec, p) == section(spec, v).contains(u)


# -- boundary polyline --------------------------------------------------------------------


def test_polyline_endpoint_on_rim():
    spec = CurveSpec(family="fermat", turns=1.0)
    pts = beta_polyline(spec, 64)
    rim = pts[63]
    assert rim.r == pytest.approx(DISK_RADIUS, abs=1e-12)
    assert rim.phi == pytest.approx(math.pi, abs=1e-12)


def test_polyline_midpoint():
    spec = CurveSpec(family="fermat", turns=1.0)
    pts = beta_polyline(spec, 64)
    mid = pts[31]  # u = 1/4, v = 1/2
    assert mid.r == pytest.approx(1.0 / math.sqrt(2.0 * math.pi), abs=1e-12)
    assert mid.phi == pytest.approx(math.pi / 2.0, abs=1e-12)


def test_polyline_satisfies_polar_equation_fermat():
    # for 1 or 2 turns the first branch's angle never wraps, so the
    # emitted points satisfy turns * pi^2 r^2 = phi directly
    for turns in (1.0, 2.0):
        spec = CurveSpec(family="fermat", turns=turns)
        pts = beta_polyline(spec, 128)[:128]  # first branch
        for p in pts:
            assert turns * math.pi**2 * p.r**2 == pytest.approx(p.phi, abs=1e-10)


def test_polyline_satisfies_polar_equation_sine():
    lam = 0.1
    spec = CurveSpec(family="sine", lam=lam)
    pts = beta_polyline(spec, 256)[:256]
    for p in pts:
        lhs = math.pi**2 * p.r**2
        rhs = p.phi + lam * math.sin(4.0 * p.phi)
        assert lhs == pytest.approx(rhs, abs=1e-10)


def test_polyline_branch_count_and_rotation():
    spec = CurveSpec(family="fermat", turns=1.0, parts=3)
    pts = beta_polyline(spec, 32)
    assert len(pts) == 96
    for i in range(32):
        assert pts[i + 32].r == pytest.approx(pts[i].r, abs=1e-12)
        d = (pts[i + 32].phi - pts[i].phi) % (2.0 * math.pi)
        assert d == pytest.approx(2.0 * math.pi / 3.0, abs=1e-9)


def test_polyline_needs_two_points():
    with pytest.raises(ValueError):
        beta_polyline(CurveSpec(family="fermat"), 1)

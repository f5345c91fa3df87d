import functools
import json
import math
import re
import struct
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from _oracles import alpha_prime, bisect_inverse, ck_alpha_pow
from yinyang.curves import (
    MAX_K,
    MAX_TURNS,
    AlphaProfile,
    Ck,
    CurveSpec,
    Fermat,
    Sine,
    Table,
    beta_polyline,
    contains,
    section,
)
from yinyang.geometry import DISK_RADIUS, DiskPoint, cylinder_to_disk, CylinderPoint
from yinyang.verify import _grid


def _profile_invariants(profile, tol=1e-9):
    u = np.linspace(0.0, profile.domain_end, 10_001)[1:]
    v = profile.evaluate(u)
    assert np.all(np.diff(v) > 0.0), "profile must be strictly increasing"
    assert v[-1] == pytest.approx(1.0, abs=tol)
    assert profile.evaluate(profile.domain_end * 1e-9) < 1e-6


# -- fermat -------------------------------------------------------------------


def test_fermat_one_turn_is_line():
    p = Fermat(1.0)
    assert p.evaluate(0.25) == pytest.approx(0.5)
    assert p.evaluate(0.5) == pytest.approx(1.0)


def test_fermat_two_turns_is_identity():
    p = Fermat(2.0)
    assert p.evaluate(0.5) == pytest.approx(0.5)
    assert p.evaluate(1.0) == pytest.approx(1.0)


def test_fermat_quarter_shift_linearity():
    p = Fermat(1.0)
    u = np.linspace(1e-6, 0.25, 100)
    assert np.allclose(p.evaluate(u + 0.25) - p.evaluate(u), 0.5, atol=1e-12)


def test_fermat_rejects_nonpositive_turns():
    with pytest.raises(ValueError):
        Fermat(0.0)
    with pytest.raises(ValueError):
        Fermat(-1.0)


def test_fermat_profile_invariants():
    for turns in (0.5, 1.0, 1.5, 2.0, 3.0):
        _profile_invariants(Fermat(turns))


# -- sine variant ---------------------------------------------------------------


def test_sine_variant_values():
    p = Sine(0.1)
    assert p.evaluate(0.125) == pytest.approx(0.25, abs=1e-15)  # sine term vanishes
    u = np.linspace(1e-9, 0.25, 500)
    assert np.max(np.abs(p.evaluate(u + 0.25) - p.evaluate(u) - 0.5)) <= 1e-12


def test_sine_variant_rejects_big_lambda():
    with pytest.raises(ValueError):
        Sine(0.3)
    with pytest.raises(ValueError):
        Sine(0.0)
    with pytest.raises(ValueError):
        Sine(0.25)


@given(st.floats(0.001, 0.249))
def test_sine_variant_profile_invariants(lam):
    _profile_invariants(Sine(lam))


# -- ck variant ------------------------------------------------------------------


def test_ck_values_at_seam():
    for lam, k in ((1.0, 0), (1.0, 1), (2.0, 2)):
        p = Ck(lam, k)
        assert p.evaluate(0.25) == pytest.approx(0.5, abs=1e-15)
        assert p.evaluate(0.5) == pytest.approx(1.0, abs=1e-15)


def test_ck_direct_substitution():
    p = Ck(1.0, 0)
    assert p.evaluate(0.125) == pytest.approx(0.265625, abs=1e-15)


def test_ck_quarter_shift():
    for lam, k in ((1.0, 0), (0.5, 1), (3.0, 2)):
        p = Ck(lam, k)
        u = np.linspace(1e-9, 0.25, 500)
        assert np.max(np.abs(p.evaluate(u + 0.25) - p.evaluate(u) - 0.5)) <= 1e-12


def test_ck_rejects_nonmonotone_lambda_with_witness():
    with pytest.raises(ValueError, match="u="):
        Ck(10.0, 0)
    with pytest.raises(ValueError, match="monotonicity"):
        Ck(2000.0, 1)


def test_ck_rejects_bad_k():
    # an unbounded k reached math.sqrt(2k + 1) and raised OverflowError, not ValueError
    for k in (-1, MAX_K + 1, 10**400):
        with pytest.raises(ValueError, match="smoothness order k"):
            Ck(1.0, k)
    assert Ck(1.0, MAX_K).k == MAX_K


def test_ck_profile_invariants():
    for lam, k in ((1.0, 0), (1.0, 1), (1.0, 2), (7.9, 0)):
        _profile_invariants(Ck(lam, k))


def test_ck_proves_monotonicity_where_lambda_times_k_overflows():
    # lam (k + 1) overflowed to inf while x^k underflowed to 0, so the proof read
    # NaN with a RuntimeWarning, and NaN <= 0 let the profile through unproved
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert Ck(1.8e305, 999).lam == 1.8e305


def test_ck_refuses_a_nan_monotonicity_proof(monkeypatch):
    monkeypatch.setattr(Ck, "_half_derivative", lambda self, u: np.float64(math.nan))
    with pytest.raises(ValueError, match="derivative nan"):
        Ck(1.0, 1)


def _float_at(bits: int) -> float:
    return struct.unpack("<d", struct.pack("<q", bits))[0]


@functools.lru_cache(maxsize=None)
def _largest_ck_lambda(k: int) -> float:
    """The largest float lambda that Ck(lambda, k) accepts, by bisection on the float's bits.

    Positive floats order as their bits, and the proof 2 + lam * c with c < 0
    falls as lam grows, so the accepted lambdas are one interval (0, top].
    """
    def accepts(bits):
        try:
            Ck(_float_at(bits), k)
        except ValueError:
            return False
        return True

    lo, hi = 1, struct.unpack("<q", struct.pack("<d", math.inf))[0]  # 5e-324 passes, inf never
    while hi - lo > 1:  # accepts(lo) and not accepts(hi)
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if accepts(mid) else (lo, mid)
    return _float_at(lo)


@st.composite
def _ck_profiles_and_points(draw):
    # k from 168 to 176 puts the largest power b^(k+1) near the subnormal range
    k = draw(st.integers(0, MAX_K) | st.integers(168, 176))
    lam = draw(st.floats(0.0, _largest_ck_lambda(k), exclude_min=True))
    u = draw(st.lists(st.floats(0.0, 0.5), max_size=40))
    return Ck(lam, k), np.array([0.0, 0.25, 0.5, *u])


@settings(deadline=None)
@given(_ck_profiles_and_points())
def test_ck_alpha_by_squaring_matches_the_pow_reference(case):
    """Ck's alpha, its power raised by squaring, against numpy's general power.

    Bit-identical for k <= 1, where b^1 is b and numpy's b ** 2 is b * b.  For
    k >= 2 the squares round differently: within 4 ulps of alpha, plus
    lam * 2^-1074 where the power falls below the normal range and both round
    it to the subnormal grid.  Measured over k = 2-1000 at lambda up to the
    largest accepted, 400 000 points each: at most 4 ulps where the power is
    normal; at k = 171 and lambda = 1.8e308, 32 ulps, which is 4 ulps plus
    0.88 lam * 2^-1074.
    """
    profile, u = case
    before = u.copy()
    got = profile._alpha(u)
    want = ck_alpha_pow(profile, u)
    assert u.tobytes() == before.tobytes()
    if profile.k <= 1:
        assert got.tobytes() == want.tobytes()
    else:
        assert np.all(np.abs(got - want) <= 4.0 * np.spacing(want) + profile.lam * 2.0**-1074)
    value = profile.evaluate(float(u[-1]))
    assert type(value) is float and value == got[-1]


# -- custom tables ------------------------------------------------------------------


def _quadratic_table(n=801):
    u = np.linspace(0.0, 0.5, n)
    return tuple((float(x), float(4.0 * x * x)) for x in u)


def test_custom_table_interpolates():
    p = Table(_quadratic_table())
    assert p.evaluate(0.5) == pytest.approx(1.0)
    assert p.evaluate(0.25) == pytest.approx(0.25, abs=1e-5)
    assert p.turns == pytest.approx(1.0)


def test_custom_table_validation():
    with pytest.raises(ValueError):
        Table([])
    with pytest.raises(ValueError, match="increase strictly"):
        Table([(0.0, 0.0), (0.2, 0.5), (0.2, 0.7), (0.5, 1.0)])
    with pytest.raises(ValueError, match="increase strictly"):
        Table([(0.0, 0.0), (0.2, 0.6), (0.3, 0.5), (0.5, 1.0)])
    with pytest.raises(ValueError, match="reach 1"):
        Table([(0.0, 0.0), (0.5, 0.9)])
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="sample table"):
            Table([(0.1, bad), (0.25, 0.5), (0.5, 1.0)])
        with pytest.raises(ValueError, match="sample table"):
            Table([(0.1, 0.2), (bad, 0.5), (0.5, 1.0)])


# -- inversion ------------------------------------------------------------------------


def test_alpha_inverse_closed_forms():
    assert Fermat(1.0).inverse(0.5) == pytest.approx(0.25)
    assert Fermat(2.0).inverse(0.7) == pytest.approx(0.7)


def test_alpha_inverse_round_trips():
    sine = Sine(0.1)
    assert sine.inverse(sine.evaluate(0.2)) == pytest.approx(0.2, abs=1e-10)
    ck = Ck(1.0, 1)
    for u in (0.05, 0.2, 0.3, 0.45):
        v = ck.evaluate(u)
        assert ck.inverse(v) == pytest.approx(u, abs=1e-10)
        assert abs(ck.evaluate(ck.inverse(v)) - v) <= 1e-12
    table = Table(_quadratic_table())
    for v in (0.1, 0.5, 0.9):
        assert table.evaluate(table.inverse(v)) == pytest.approx(v, abs=1e-12)


def test_inverse_and_section_refuse_nan():
    # NaN fails every comparison, so a range check written as "v < 0 or v > 1" let it through
    for profile in (Fermat(1.0), Sine(0.1), Table(_quadratic_table())):
        with pytest.raises(ValueError, match="inverse"):
            profile.inverse(math.nan)
        with pytest.raises(ValueError, match="inverse"):
            profile.inverse(np.array([0.5, math.nan]))
    with pytest.raises(ValueError, match="inverse"):
        section(CurveSpec(family="sine", lam=0.1), math.nan)


def test_inverse_states_the_range_it_accepts():
    for profile in (Fermat(1.0), Fermat(1.5), Sine(0.1), Ck(1.0, 1), Table(_quadratic_table())):
        assert profile.inverse(0.0) == pytest.approx(0.0, abs=1e-15)
        # the public inverse clips fermat's product, which passes domain_end above v = 1
        assert profile.inverse(1.0 + 1e-12) == profile.domain_end
        assert np.all(profile.inverse(np.array([1.0, 1.0 + 1e-12])) == profile.domain_end)
        for bad in (-1e-300, 1.0 + 2e-12):
            with pytest.raises(ValueError, match=r"\[0, 1 \+ 1e-12\]"):
                profile.inverse(bad)


@pytest.mark.parametrize("profile, u", [(Fermat(1.0), math.nan), (Fermat(1.0), 5.0),
                                        (Table([[0.5, 1.0]]), math.inf), (Sine(0.1), math.inf),
                                        (Ck(1.0, 1), -1e-300), (Sine(0.1), np.array([0.25, math.nan]))],
                         ids=["fermat-nan", "fermat-5", "table-inf", "sine-inf", "ck-below-0", "sine-nan-array"])
def test_evaluate_refuses_u_outside_its_domain(profile, u):
    # without a check these read nan, 10.0 and 1.0, and sine warned at inf
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=re.escape(f"[0, domain_end = {profile.domain_end!r}]")):
            profile.evaluate(u)


def test_evaluate_accepts_its_closed_domain():
    for profile in (Fermat(1.5), Sine(0.1), Ck(1.0, 1), Table(_quadratic_table())):
        assert profile.evaluate(0.0) == pytest.approx(0.0, abs=1e-15)
        assert profile.evaluate(profile.domain_end) == pytest.approx(1.0, abs=1e-15)
        assert profile.evaluate(np.array([0.0, profile.domain_end])).shape == (2,)


def _ck_lambda_max(k):
    """Largest lambda keeping the C^k profile increasing: 2 / max(-d/du bump).

    The bump's slope is falling, then rising on [1/8, 1/4] (falling throughout
    for k = 0), so a ternary search finds its minimum there.
    """
    def slope(u):
        return (k + 1) * (u * (0.25 - u)) ** k * (0.25 - 2.0 * u)

    lo, hi = 0.125, 0.25
    for _ in range(200):
        m1, m2 = lo + (hi - lo) / 3.0, hi - (hi - lo) / 3.0
        if slope(m1) < slope(m2):
            hi = m2
        else:
            lo = m1
    return 2.0 / -slope(0.5 * (lo + hi))


CK_LAMBDA_MAX = {k: _ck_lambda_max(k) for k in range(5)}


@pytest.mark.parametrize("k", range(5))
def test_ck_refuses_every_lambda_past_the_monotonicity_limit(k):
    # for k >= 1 alpha' is least inside (1/8, 1/4), where a check on grid points
    # misses it: 1e-10 past the limit alpha' is only about -2e-10 there
    Ck(CK_LAMBDA_MAX[k] * (1.0 - 1e-10), k)
    with pytest.raises(ValueError, match=r"derivative -.* at u="):
        Ck(CK_LAMBDA_MAX[k] * (1.0 + 1e-10), k)


@pytest.mark.parametrize("profile", [pytest.param(Sine(0.2499), id="sine-0.2499")] + [
    pytest.param(Ck(0.999 * CK_LAMBDA_MAX[k], k), id=f"ck{k}-0.999max") for k in range(4)] + [
    pytest.param(Fermat(turns), id=f"fermat-{turns}") for turns in (0.5, 1.0, 1.5, 2.0, 3.0, 7.0)])
def test_constructors_prove_the_monotonicity_a2_relies_on(profile):
    # A2 takes strict increase from the constructors; this is the grid it once sampled
    u = _grid(0.0, profile.domain_end)
    assert np.all(np.diff(profile.evaluate(u)) > 0.0)


INVERSE_BOUND = 1e-14  # both bisect [0, domain_end] to rounding, on _alpha and on evaluate


@pytest.mark.parametrize("profile", [pytest.param(Sine(0.2499), id="sine-0.2499")] + [
    pytest.param(Ck(0.999 * CK_LAMBDA_MAX[k], k), id=f"ck{k}-0.999max") for k in range(4)])
def test_inverse_matches_bisection_near_the_monotonicity_limit(profile):
    # alpha' falls to about 1e-3 here, where a rounding error in v moves the root most
    v = np.random.default_rng(20261018).random(100_000)
    assert np.max(np.abs(profile.inverse(v) - bisect_inverse(profile, v))) <= INVERSE_BOUND


@pytest.mark.parametrize("profile", [
    pytest.param(Sine(lam), id=f"sine-{lam}") for lam in (0.01, 0.08, 0.16, 0.24)] + [
    pytest.param(Ck(share * CK_LAMBDA_MAX[k], k), id=f"ck{k}-{share}max")
    for k in range(4) for share in (0.2, 0.5, 0.9)])
def test_inverse_matches_bisection_sweep(profile):
    ends = (0.0, 1.0, 1.0 + 1e-13)
    for v in ends:
        u = profile.inverse(v)
        assert type(u) is float
        assert abs(u - float(bisect_inverse(profile, v))) <= INVERSE_BOUND
    for v in (np.array(ends), np.random.default_rng(7).random(100_000).reshape(250, 400)):
        u = profile.inverse(v)
        assert u.shape == v.shape
        assert np.max(np.abs(u - bisect_inverse(profile, v))) <= INVERSE_BOUND


# -- derivatives and seams ------------------------------------------------------------


@pytest.mark.parametrize("profile", [
    Fermat(1.0), Fermat(1.5), Sine(0.24), Ck(7.9, 0), Ck(1.0, 1), Ck(1.0, 3), Table(_quadratic_table(33)),
], ids=lambda p: type(p).__name__)
def test_derivative_matches_difference_quotients(profile):
    # the t-rule oracle weights by alpha_prime: central differences of evaluate
    # on each smooth piece, away from its seams
    seams = profile.seams()
    assert seams[0] == 0.0 and seams[-1] == profile.domain_end and np.all(np.diff(seams) > 0.0)
    h = 1e-6
    for a, b in zip(seams[:-1], seams[1:]):
        u = np.linspace(a + 2 * h, b - 2 * h, 7)
        quotient = (profile.evaluate(u + h) - profile.evaluate(u - h)) / (2 * h)
        assert np.max(np.abs(alpha_prime(profile, u) - quotient)) <= 1e-6


def test_seams_and_one_sided_derivatives():
    assert list(Fermat(2.0).seams()) == [0.0, 1.0]
    assert list(Sine(0.1).seams()) == [0.0, 0.5]
    assert list(Ck(1.0, 2).seams()) == [0.0, 0.25, 0.5]
    table = Table([(0.1, 0.3), (0.25, 0.5), (0.5, 1.0)])
    assert list(table.seams()) == [0.0, 0.1, 0.25, 0.5]  # the (0, 0) anchor is a knot
    # a seam takes the slope of the piece on its left
    assert list(alpha_prime(table, [0.0, 0.1, 0.2, 0.25, 0.5])) == pytest.approx([3.0, 3.0, 4 / 3, 4 / 3, 2.0])
    ck = Ck(4.0, 0)
    assert list(alpha_prime(ck, [0.0, 0.25, 0.5])) == pytest.approx([3.0, 1.0, 1.0])
    assert alpha_prime(ck, np.nextafter(0.25, 1.0)) == pytest.approx(3.0)


# -- family types ---------------------------------------------------------------------


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: Fermat(0.0), "turns"),
        (lambda: Sine(0.9), "lambda"),
        (lambda: Ck(10.0, 0), "monotonicity"),
        (lambda: Table([(0.1, 0.5), (0.2, 0.4), (0.5, 1.0)]), "increase strictly"),
        (lambda: Table([(0.25, 0.5), (MAX_TURNS, 1.0)]), "turns"),
    ],
    ids=["fermat", "sine", "ck", "table-not-monotone", "table-too-many-turns"],
)
def test_family_types_refuse_bad_parameters(build, message):
    with pytest.raises(ValueError, match=message):
        build()


def test_alpha_profile_takes_no_family_string():
    # a family name with unchecked parameters used to build a non-monotone profile
    with pytest.raises(TypeError):
        AlphaProfile(family="sine", turns=1.0, lam=0.9)
    with pytest.raises(TypeError):
        AlphaProfile(1.0)  # the base has no formula


def test_families_share_the_base_evaluate_and_inverse():
    # perfbench/tracing.py wraps AlphaProfile.evaluate and .inverse by name
    assert set(AlphaProfile.__subclasses__()) == {Fermat, Sine, Ck, Table}
    for kind in AlphaProfile.__subclasses__():
        assert "evaluate" not in kind.__dict__ and "inverse" not in kind.__dict__, kind


# -- curve specs ----------------------------------------------------------------------


def test_spec_validation():
    with pytest.raises(ValueError):
        CurveSpec(family="unknown")
    with pytest.raises(ValueError, match="unknown family"):
        CurveSpec.from_json({"family": ["fermat"]})
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
            Fermat(bad)
        with pytest.raises(ValueError, match="lambda"):
            Sine(bad)
        with pytest.raises(ValueError, match="lambda"):
            Ck(bad, 1)


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


@pytest.mark.parametrize("data, match", [
    ([1, 2], "must be a JSON object, got list"),
    ("fermat", "must be a JSON object, got str"),
    (None, "must be a JSON object, got NoneType"),
    ({"family": "fermat", "part": 3}, r"unknown curve spec keys \['part'\]"),
    ({"family": "sine", "lam": 0.1}, r"unknown curve spec keys \['lam'\]"),
])
def test_spec_from_json_refuses_what_it_cannot_read(data, match):
    # a misspelt key must not fall back to its default: "part": 3 would read as 2 parts
    with pytest.raises(ValueError, match=match):
        CurveSpec.from_json(data)


@pytest.mark.parametrize("build", [
    lambda: CurveSpec.from_json({str(i): 0 for i in range(100_000)}),
    lambda: CurveSpec(family="x" * 100_000),
], ids=["unknown-keys", "unknown-family"])
def test_spec_errors_stay_short_on_huge_input(build):
    # the full key list read 888 975 characters, the family's repr 100 069
    with pytest.raises(ValueError, match="unknown") as error:
        build()
    assert len(str(error.value)) < 200


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


def test_contains_accepts_a_point_in_the_rim_slack():
    # DiskPoint allows radii up to DISK_RADIUS * (1 + 1e-12); they map onto the rim
    spec = CurveSpec(family="fermat")
    on_rim = contains(spec, DiskPoint(r=DISK_RADIUS, phi=1.0))
    for r in (DISK_RADIUS * (1.0 + 1e-13), DISK_RADIUS * (1.0 + 1e-12)):
        assert contains(spec, DiskPoint(r=r, phi=1.0)) == on_rim


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

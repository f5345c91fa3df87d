"""Acceptance suite: one test per criterion, printing one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
Criteria cover: flat overlap profiles for the built-in families, the
quadratic counterexample, the exact averaging identity and strict maximum
on random circle sets, rotation immunity, the two-turn axiom vector,
renderer fidelity, and quadrature/Monte-Carlo agreement.
"""

import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

from yinyang.circle_sets import CircleSet
from yinyang.cli import run
from yinyang.curves import Ck, CurveSpec
from yinyang.render import RENDER_PRESETS, RenderConfig, render, spiral_points
from yinyang.verify import (
    check_axioms,
    monte_carlo_overlap,
    perfect_profile,
    relation_residual,
    rotation_check,
)

FIXTURES = Path(__file__).parent / "fixtures"
GOLDEN = Path(__file__).parent / "golden"


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num:2d}: {'PASS' if ok else 'FAIL'} - {detail}")


def _quadratic_spec() -> CurveSpec:
    samples = tuple(
        (float(u), float(v)) for u, v in json.loads((FIXTURES / "bad_alpha.json").read_text())
    )
    return CurveSpec(family="custom", samples=samples)


def test_criterion_01_fermat_perfectness_via_cli(tmp_path):
    out = tmp_path / "report.json"
    t0 = time.perf_counter()
    code = run(["verify", "--family", "fermat", "--turns", "1",
                "--g-grid", "512", "--v-quad", "100000", "--out", str(out)])
    elapsed = time.perf_counter() - t0
    doc = json.loads(out.read_text())
    max_dev = doc["profile"]["max_dev"]
    ok = code == 0 and max_dev <= 1e-6 and elapsed < 10.0
    _report(1, ok, f"exit={code} max|f(g)-1/4|={max_dev:.3e} in {elapsed:.2f}s")
    assert code == 0
    assert max_dev <= 1e-6
    assert elapsed < 10.0


def test_criterion_02_sine_variants_flat():
    worst_dev, worst_res = 0.0, 0.0
    for lam in (0.05, 0.1, 0.2):
        spec = CurveSpec(family="sine", lam=lam)
        prof = perfect_profile(spec, g_grid=512, v_quadrature=100_000)
        res = relation_residual(spec.alpha_profile(), "eq_alal")
        worst_dev = max(worst_dev, prof.max_deviation)
        worst_res = max(worst_res, res)
    ok = worst_dev <= 1e-6 and worst_res <= 1e-12
    _report(2, ok, f"max flatness dev {worst_dev:.3e}, max quarter-shift residual {worst_res:.3e}")
    assert worst_dev <= 1e-6
    assert worst_res <= 1e-12


def test_criterion_03_ck_variants_flat_and_reject():
    worst_dev = 0.0
    for k in (0, 1, 2):
        spec = CurveSpec(family="ck", lam=1.0, k=k)
        prof = perfect_profile(spec, g_grid=512, v_quadrature=100_000)
        worst_dev = max(worst_dev, prof.max_deviation)
    rejected = 0
    for k, lam in ((0, 10.0), (1, 2000.0), (2, 200_000.0)):
        with pytest.raises(ValueError, match="u="):
            Ck(lam, k)
        rejected += 1
    ok = worst_dev <= 1e-6 and rejected == 3
    _report(3, ok, f"max flatness dev {worst_dev:.3e}; {rejected}/3 bad lambdas rejected with witness u")
    assert worst_dev <= 1e-6


def test_criterion_04_quadratic_counterexample_separates():
    spec = _quadratic_spec()
    report = check_axioms(spec, g_grid=512, v_quadrature=100_000)
    dev = report.profile.max_deviation
    verdicts = {k: v.passed for k, v in report.axioms.items()}
    # threshold 1e-2 pinned beforehand against the sampling oracle at 1e7 draws
    est = monte_carlo_overlap(spec, g=report.profile.witness_g, samples=1_000_000, seed=2024)
    witness_value = report.profile.values[
        int(round(report.profile.witness_g * len(report.profile.g))) % len(report.profile.g)
    ]
    oracle_ok = abs(est.value - witness_value) <= 3.0 * est.stderr
    ok = (
        dev >= 1e-2
        and not verdicts["A4"]
        and verdicts["A1"] and verdicts["A2"] and verdicts["A3"]
        and oracle_ok
    )
    _report(4, ok, f"max dev {dev:.4f} >= 1e-2, A4 fail, A1-A3 pass, oracle within 3 stderr")
    assert dev >= 1e-2
    assert not verdicts["A4"]
    assert verdicts["A1"] and verdicts["A2"] and verdicts["A3"]
    assert oracle_ok


def _random_sets(count: int = 100, seed: int = 505) -> list[CircleSet]:
    rng = np.random.default_rng(seed)
    sets = []
    for _ in range(count):
        n = int(rng.integers(1, 9))
        arcs = [
            (float(rng.uniform(0.0, 1.0)), float(rng.uniform(0.01, 0.3)))
            for _ in range(n)
        ]
        sets.append(CircleSet.from_arcs(arcs))
    return sets


def test_criterion_05_averaging_identity_exact():
    sets = _random_sets()
    t0 = time.perf_counter()
    worst = max(abs(s.mean_overlap() - s.measure() ** 2) for s in sets)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-12 and elapsed < 1.0
    _report(5, ok, f"100 sets, max |mean - measure^2| = {worst:.2e}, {elapsed*1000:.0f} ms")
    assert worst <= 1e-12
    assert elapsed < 1.0


def test_criterion_06_strict_maximum():
    sets = [s for s in _random_sets() if 0.05 <= s.measure() <= 0.95]
    assert len(sets) >= 50  # the generator produces mid-measure sets
    margins = [s.max_overlap()[1] - s.measure() ** 2 for s in sets]
    ok = all(m > 0.0 for m in margins)
    _report(6, ok, f"{len(sets)} sets, min strict margin {min(margins):.3e}")
    assert all(m > 0.0 for m in margins)


def test_criterion_07_rotation_immunity():
    rc = rotation_check(CurveSpec(family="fermat", turns=1.0), q_max=6)
    worst = max(rc["integrals"].values())
    ok = rc["pass"] and worst <= 1e-12
    _report(7, ok, f"{len(rc['integrals'])} reduced rotations, max integral {worst:.2e}")
    assert rc["pass"]
    assert worst <= 1e-12


def test_criterion_08_two_turn_profile():
    spec = CurveSpec(family="fermat", turns=2.0)
    report = check_axioms(spec)
    verdicts = {k: v.passed for k, v in report.axioms.items()}
    res_alalal = report.residuals["eq_alalal"]
    ok = (
        verdicts["A1"] and verdicts["A2"] and verdicts["A3''"] and verdicts["A4"]
        and not verdicts["A3"]
        and res_alalal <= 1e-12
    )
    _report(8, ok, f"A1,A2,A3'',A4 pass, A3 fails; eq_alalal residual {res_alalal:.1e}")
    assert verdicts["A1"] and verdicts["A2"] and verdicts["A3''"] and verdicts["A4"]
    assert not verdicts["A3"]
    assert res_alalal <= 1e-12


def test_criterion_09_renderer_fidelity():
    pts = spiral_points(1.0, 1.0 / 16.0)
    count_ok = len(pts) == 19
    worst_angle = 0.0
    for p in pts[1:]:
        r = math.hypot(*p)
        if r < 1e-12:
            continue
        ang = math.degrees(math.atan2(p[1], p[0])) % 360.0
        expect = (180.0 * r * r) % 360.0
        worst_angle = max(worst_angle, min(abs(ang - expect), 360.0 - abs(ang - expect)))
    xml_a = render(RenderConfig()).to_xml().encode()
    xml_b = render(RenderConfig()).to_xml().encode()
    golden_ok = xml_a == xml_b == (GOLDEN / "classic.svg").read_bytes()
    presets_ok = (
        RENDER_PRESETS["britannica"].turn == pytest.approx(2.0 / 9.0)
        and RENDER_PRESETS["chosun"].turn == pytest.approx(0.6)
        and RENDER_PRESETS["korea1882"].turn == pytest.approx(1.5)
    )
    ok = count_ok and worst_angle <= 1e-9 and golden_ok and presets_ok
    _report(9, ok, f"19 samples, angle err {worst_angle:.1e} deg, golden stable, presets embed turns")
    assert count_ok
    assert worst_angle <= 1e-9
    assert golden_ok
    assert presets_ok


def test_criterion_10_oracle_agreement():
    spec = CurveSpec(family="fermat", turns=1.0)
    prof = perfect_profile(spec, g_grid=512, v_quadrature=100_000)
    rng = np.random.default_rng(1234)
    axes = rng.uniform(0.0, 1.0, 16)
    agreements = 0
    for i, g in enumerate(axes):
        est = monte_carlo_overlap(spec, g=float(g), samples=1_000_000, seed=9000 + i)
        quad_value = float(np.interp(est.g, prof.g, prof.values, period=1.0))
        if abs(est.value - quad_value) <= 3.0 * est.stderr:
            agreements += 1
    ok = agreements >= 15
    _report(10, ok, f"{agreements}/16 axes agree within 3 stderr")
    assert agreements >= 15

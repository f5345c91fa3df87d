import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

from yinyang.render import (
    EVOLUTION_TURNS,
    PRESET_NOTES,
    RENDER_PRESETS,
    MAX_SPIRAL_STEPS,
    RenderConfig,
    default_interpol,
    render,
    spiral_points,
)

GOLDEN = Path(__file__).parent / "golden"


def _stroke_paths(xml: str) -> list[str]:
    return re.findall(r'<path d="([^"]+)" fill="none"', xml)


def _path_points(d: str) -> np.ndarray:
    """All coordinate pairs appearing in an M/C-only path string."""
    floats = [float(tok) for tok in re.findall(r"-?\d+\.\d+", d)]
    return np.array(floats).reshape(-1, 2)


# -- sampling ------------------------------------------------------------------


def test_point_count_turn1():
    pts = spiral_points(1.0, 1.0 / 16.0)
    assert len(pts) == 19  # origin + 17 loop samples (r=0..1) + closing point


def test_point_count_formula():
    for interpol in (1.0 / 16.0, 1.0 / 48.0, 1.0 / 10.0):
        pts = spiral_points(1.0, interpol)
        assert len(pts) == 3 + round(1.0 / interpol)


def test_points_satisfy_angle_rule():
    for turn in (1.0, 2.0 / 9.0, 1.5, 3.0):
        pts = spiral_points(turn, default_interpol(turn))
        for p in pts[1:]:
            r = math.hypot(*p)
            if r < 1e-12:
                continue
            ang = math.degrees(math.atan2(p[1], p[0])) % 360.0
            expect = (180.0 * r * r * turn) % 360.0
            err = min(abs(ang - expect), 360.0 - abs(ang - expect))
            assert err <= 1e-9


def test_default_interpol_rule():
    assert default_interpol(1.0) == pytest.approx(1.0 / 16.0)
    assert default_interpol(2.0) == pytest.approx(1.0 / 16.0)
    assert default_interpol(3.0) == pytest.approx(1.0 / 48.0)


def test_spiral_points_validation():
    with pytest.raises(ValueError):
        spiral_points(0.0, 0.1)
    with pytest.raises(ValueError):
        spiral_points(1.0, 0.0)


# -- documents -----------------------------------------------------------------


def test_classic_matches_golden():
    xml = render(RenderConfig()).to_xml()
    assert xml.encode() == (GOLDEN / "classic.svg").read_bytes()


def test_britannica_matches_golden():
    xml = render(RenderConfig(turn=2.0 / 9.0, parts=2)).to_xml()
    assert xml.encode() == (GOLDEN / "britannica.svg").read_bytes()


def test_three_part_matches_golden():
    xml = render(RenderConfig(parts=3)).to_xml()
    assert xml.encode() == (GOLDEN / "threepart.svg").read_bytes()


def test_output_byte_stable():
    cfg = RenderConfig(turn=1.5, rotate_deg=-60.0)
    assert render(cfg).to_xml() == render(cfg).to_xml()


def test_classic_structure():
    xml = render(RenderConfig()).to_xml()
    assert xml.count('stroke="none"') == 1  # one filled region
    assert len(_stroke_paths(xml)) == 2  # two spiral branches
    assert xml.count("<circle") == 1


def test_kpartite_structure():
    for parts in (3, 4):
        xml = render(RenderConfig(parts=parts)).to_xml()
        assert xml.count('stroke="none"') == parts
        assert len(_stroke_paths(xml)) == parts


def test_kpartite_branch_rotation():
    xml = render(RenderConfig(parts=3, stroke_width_px=1.0)).to_xml()
    paths = [_path_points(d) for d in _stroke_paths(xml)]
    a = math.radians(120.0)
    rot = np.array([[math.cos(a), -math.sin(a)], [math.sin(a), math.cos(a)]])
    for i in range(3):
        expect = paths[i] @ rot.T
        assert np.allclose(expect, paths[(i + 1) % 3], atol=1e-4)


def test_rotate_deg_is_affine_equivariance():
    base = render(RenderConfig(rotate_deg=0.0))
    turned = render(RenderConfig(rotate_deg=33.0))
    a = math.radians(33.0)
    rot = np.array([[math.cos(a), -math.sin(a)], [math.sin(a), math.cos(a)]])
    for d0, d1 in zip(_stroke_paths(base.to_xml()), _stroke_paths(turned.to_xml())):
        p0, p1 = _path_points(d0), _path_points(d1)
        assert np.allclose(p0 @ rot.T, p1, atol=1e-4)


def test_counterclockwise_mirrors():
    cw = render(RenderConfig(turn=1.0, rotate_deg=0.0))
    ccw = render(RenderConfig(turn=1.0, rotate_deg=0.0, clockwise=False))
    # with turn=1 the orientation angle is -90; conjugating the vertical-axis
    # mirror through that rotation flips emitted points about the x axis
    p_cw = _path_points(_stroke_paths(cw.to_xml())[0])
    p_ccw = _path_points(_stroke_paths(ccw.to_xml())[0])
    expect = np.column_stack([p_cw[:, 0], -p_cw[:, 1]])
    assert np.allclose(expect, p_ccw, atol=1e-4)


def test_presets_embed_expected_turns():
    assert RENDER_PRESETS["britannica"].turn == pytest.approx(2.0 / 9.0)
    assert RENDER_PRESETS["chosun"].turn == pytest.approx(0.6)
    assert RENDER_PRESETS["chosun"].rotate_deg == pytest.approx(-8.0)
    assert RENDER_PRESETS["korea1882"].turn == pytest.approx(1.5)
    assert RENDER_PRESETS["korea1882"].rotate_deg == pytest.approx(-60.0)
    assert set(PRESET_NOTES) == set(RENDER_PRESETS)
    assert len(EVOLUTION_TURNS) == 4 and EVOLUTION_TURNS[2] == 1.0 and EVOLUTION_TURNS[3] == 2.0


def test_config_json_round_trip():
    cfg = RenderConfig(turn=0.6, rotate_deg=-8.0, parts=3, dark=(0.2, 0.3, 0.4), interpol=0.05)
    assert RenderConfig.from_json(json.loads(json.dumps(cfg.to_json()))) == cfg


def test_config_validation():
    with pytest.raises(ValueError):
        RenderConfig(turn=0.0)
    with pytest.raises(ValueError):
        RenderConfig(parts=1)
    with pytest.raises(ValueError):
        RenderConfig(dark=(1.5, 0.0, 0.0))
    with pytest.raises(ValueError):
        RenderConfig(interpol=-0.1)


@pytest.mark.parametrize("field", ["turn", "radius_px", "rotate_deg", "stroke_width_px", "interpol"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_config_rejects_non_finite_numbers(field, bad):
    with pytest.raises(ValueError, match=f"{field} must be a finite number"):
        RenderConfig(**{field: bad})


def test_config_caps_spiral_steps():
    RenderConfig(interpol=1.0 / MAX_SPIRAL_STEPS)
    RenderConfig(turn=MAX_SPIRAL_STEPS / 16.0)  # default step 1/(16*turn)
    for cfg in ({"interpol": 1e-9}, {"interpol": 0.5 / MAX_SPIRAL_STEPS}, {"turn": 1e5}):
        with pytest.raises(ValueError, match="MAX_SPIRAL_STEPS"):
            RenderConfig(**cfg)


def test_svg_is_well_formed():
    import xml.etree.ElementTree as ET

    for cfg in (RenderConfig(), RenderConfig(parts=5), RenderConfig(turn=3.0)):
        ET.fromstring(render(cfg).to_xml())

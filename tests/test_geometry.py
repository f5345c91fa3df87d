import math

import pytest
from hypothesis import given, strategies as st

from yinyang.geometry import (
    DISK_RADIUS,
    CylinderPoint,
    DiskPoint,
    cylinder_to_disk,
    disk_to_cylinder,
    mod1,
    reflect_disk,
    reflect_u,
)

from _oracles import annular_sector_area

TOL = 1e-12


def test_disk_to_cylinder_boundary():
    c = disk_to_cylinder(DiskPoint(r=DISK_RADIUS, phi=2 * math.pi))
    assert c.u == pytest.approx(1.0, abs=TOL)
    assert c.v == pytest.approx(1.0, abs=TOL)


def test_disk_to_cylinder_maps_the_rim_slack_onto_the_rim():
    # DiskPoint allows radii up to DISK_RADIUS * (1 + 1e-12) to absorb rounding
    for r in (DISK_RADIUS * (1.0 + 1e-13), DISK_RADIUS * (1.0 + 1e-12)):
        assert disk_to_cylinder(DiskPoint(r=r, phi=1.0)).v == 1.0


def test_disk_to_cylinder_half_angle():
    c = disk_to_cylinder(DiskPoint(r=DISK_RADIUS, phi=math.pi))
    assert c.u == pytest.approx(0.5, abs=TOL)
    assert c.v == pytest.approx(1.0, abs=TOL)


def test_disk_to_cylinder_half_area():
    c = disk_to_cylinder(DiskPoint(r=1.0 / math.sqrt(2 * math.pi), phi=math.pi / 2))
    assert c.u == pytest.approx(0.25, abs=TOL)
    assert c.v == pytest.approx(0.5, abs=TOL)


def test_cylinder_to_disk_examples():
    p = cylinder_to_disk(CylinderPoint(u=1.0, v=1.0))
    assert p.r == pytest.approx(DISK_RADIUS, abs=TOL)
    assert p.phi == pytest.approx(2 * math.pi, abs=TOL)
    p = cylinder_to_disk(CylinderPoint(u=0.5, v=1.0))
    assert p.phi == pytest.approx(math.pi, abs=TOL)
    p = cylinder_to_disk(CylinderPoint(u=0.25, v=0.25))
    assert p.r == pytest.approx(1.0 / (2 * math.sqrt(math.pi)), abs=TOL)
    assert p.phi == pytest.approx(math.pi / 2, abs=TOL)


def test_center_rejected():
    with pytest.raises(ValueError):
        DiskPoint(r=0.0, phi=1.0)


def test_radius_outside_disk_rejected():
    with pytest.raises(ValueError):
        DiskPoint(r=DISK_RADIUS * 1.001, phi=1.0)


def test_reflect_u_examples():
    assert reflect_u(0.0, CylinderPoint(0.25, 1.0)).u == pytest.approx(0.75)
    fixed = reflect_u(0.5, CylinderPoint(0.25, 0.3))
    assert fixed.u == pytest.approx(0.25)
    assert fixed.v == 0.3


@given(st.floats(0.0, 1.0), st.floats(1e-6, 1.0 - 1e-9), st.floats(1e-6, 1.0))
def test_reflect_u_involutive(g, u, v):
    p = CylinderPoint(u, v)
    q = reflect_u(g, reflect_u(g, p))
    assert mod1(q.u) == pytest.approx(mod1(p.u), abs=TOL)
    assert q.v == p.v


@given(
    st.floats(1e-6, 1.0),
    st.floats(1e-6, 1.0),
    st.floats(0.0, 2 * math.pi),
    st.floats(0.0, 2 * math.pi),
)
def test_measure_preservation_on_annular_sectors(a, b, p1, p2):
    r1, r2 = sorted((a * DISK_RADIUS, b * DISK_RADIUS))
    phi1, phi2 = sorted((p1, p2))
    disk_area = annular_sector_area(r1, r2, phi1, phi2)
    u1, u2 = phi1 / (2 * math.pi), phi2 / (2 * math.pi)
    v1, v2 = math.pi * r1 * r1, math.pi * r2 * r2
    assert (u2 - u1) * (v2 - v1) == pytest.approx(disk_area, abs=TOL)


def _circle_distance(a: float, b: float) -> float:
    d = abs(mod1(a) - mod1(b))
    return min(d, 1.0 - d)


@given(
    st.floats(0.01, 1.0),
    st.floats(0.0, 2 * math.pi),
    st.floats(0.0, 1.0),
)
def test_reflection_conjugation(scale, phi, g):
    """Reflecting the disk in the diameter at angle pi*g commutes with the transform."""
    p = DiskPoint(r=scale * DISK_RADIUS, phi=phi)
    via_disk = disk_to_cylinder(reflect_disk(g, p))
    via_cyl = reflect_u(g, disk_to_cylinder(p))
    assert _circle_distance(via_disk.u, via_cyl.u) < TOL
    assert via_disk.v == pytest.approx(via_cyl.v, abs=TOL)


@given(st.floats(0.01, 1.0), st.floats(0.0, 2 * math.pi))
def test_round_trip_disk(scale, phi):
    p = DiskPoint(r=scale * DISK_RADIUS, phi=phi)
    q = cylinder_to_disk(disk_to_cylinder(p))
    assert q.r == pytest.approx(p.r, abs=TOL)
    # angles are circle coordinates: compare mod 2*pi
    d = abs(q.phi - p.phi) % (2 * math.pi)
    assert min(d, 2 * math.pi - d) < TOL


@given(st.floats(1e-9, 1.0), st.floats(1e-9, 1.0))
def test_round_trip_cylinder(u, v):
    p = CylinderPoint(u, v)
    q = disk_to_cylinder(cylinder_to_disk(p))
    assert q.u == pytest.approx(p.u, abs=TOL)
    assert q.v == pytest.approx(p.v, abs=TOL)


def test_mod1_normalizes():
    assert mod1(1.25) == pytest.approx(0.25)
    assert mod1(-0.25) == pytest.approx(0.75)
    assert mod1(-1e-17) == 0.0  # mod must not return 1.0

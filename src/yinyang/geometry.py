"""Coordinates on the unit-area disk and the cylinder, and the transform between them.

The disk of unit area (radius 1/sqrt(pi), center removed) maps onto the
cylinder S^1 x (0,1] by

    (r, phi)  ->  (u, v) = (phi / 2pi, pi r^2)

This map is a measure-preserving diffeomorphism: the area of any region of
the disk equals the area of its image in (u, v) coordinates.  It also turns
disk rotations into u-translations and disk reflections (in a diameter) into
u-reflections, which is what makes the cylinder the convenient place to do
all the measure bookkeeping.

Circle coordinates are normalized to [0, 1) throughout; the v and disk
coordinates keep their natural half-open ranges (0, 1].
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Integral, Real

TWO_PI = 2.0 * math.pi
DISK_RADIUS = 1.0 / math.sqrt(math.pi)  # radius of the unit-area disk

#: Most congruent parts of one symbol; work grows linearly with the count.
MAX_PARTS = 1_000


#: Characters of a refused value that an error message repeats.
SHOWN_CHARS = 40


def _shown(value) -> str:
    """A refused value for an error message: a long integer by its digit count, else cut short."""
    if isinstance(value, Integral) and not isinstance(value, bool) and abs(int(value)) >= 10**SHOWN_CHARS:
        n = abs(int(value))
        digits = int((n.bit_length() - 1) * math.log10(2.0)) + 1  # the digits of 2^(bits - 1)
        digits += n >= 10**digits
        return f"an integer of {digits} digits"
    text = str(value)
    return text if len(text) <= SHOWN_CHARS else text[: SHOWN_CHARS - 3] + "..."


def finite(name: str, value) -> float:
    """``value`` as a float; a bool, a non-number, NaN, an infinity or a too large integer raises ValueError."""
    # float first: arc algebra builds many arcs, and the Real check alone costs about 1 us
    try:
        ok = not isinstance(value, bool) and isinstance(value, (float, Real)) and math.isfinite(value)
    except OverflowError:  # an integer too large for a float
        ok = False
    if not ok:
        raise ValueError(f"{name} must be a finite number, got {_shown(value)}")
    return float(value)


def integer(name: str, value, lo: int, hi: float) -> int:
    """``value`` as an int in [lo, hi]; a bool, a non-integer or a value outside raises ValueError."""
    if isinstance(value, bool) or not isinstance(value, (int, Integral)) or not lo <= value <= hi:
        raise ValueError(f"{name} must be an integer in [{lo}, {hi}], got {_shown(value)}")
    return int(value)


def mod1(x: float) -> float:
    """Reduce x into [0, 1).  Guards against float mod returning exactly 1.0."""
    y = x % 1.0
    return 0.0 if y >= 1.0 else y


def _mod_half_open_high(x: float, period: float) -> float:
    """Reduce x into (0, period]: the representative 0 becomes period."""
    y = x % period
    return period if y <= 0.0 or y > period else y


@dataclass(frozen=True)
class CylinderPoint:
    """A point (u, v) of the cylinder, both coordinates in (0, 1]."""

    u: float
    v: float

    def __post_init__(self):
        if not 0.0 < self.u <= 1.0:
            raise ValueError(f"u must lie in (0, 1], got {self.u}")
        if not 0.0 < self.v <= 1.0:
            raise ValueError(f"v must lie in (0, 1], got {self.v}")


@dataclass(frozen=True)
class DiskPoint:
    """A point of the punctured unit-area disk in polar form.

    The radius lies in (0, 1/sqrt(pi)]; the center is excluded because the
    disk-to-cylinder map is undefined there.  The angle is stored modulo
    2pi, normalized into (0, 2pi].
    """

    r: float
    phi: float

    def __post_init__(self):
        if not 0.0 < self.r <= DISK_RADIUS * (1.0 + 1e-12):
            raise ValueError(
                f"radius must lie in (0, {DISK_RADIUS:.12g}] (unit-area disk), got {self.r}"
            )
        object.__setattr__(self, "phi", _mod_half_open_high(float(self.phi), TWO_PI))


def disk_to_cylinder(p: DiskPoint) -> CylinderPoint:
    """Map a disk point to cylinder coordinates (phi/2pi, pi r^2).

    v is clamped to 1, so a radius in the rounding slack that DiskPoint allows
    above DISK_RADIUS maps onto the rim.
    """
    v = min(math.pi * p.r * p.r, 1.0)
    return CylinderPoint(u=_mod_half_open_high(p.phi / TWO_PI, 1.0), v=v)


def cylinder_to_disk(p: CylinderPoint) -> DiskPoint:
    """Inverse of :func:`disk_to_cylinder`."""
    return DiskPoint(r=math.sqrt(p.v / math.pi), phi=TWO_PI * p.u)


def reflect_u(g: float, p: CylinderPoint) -> CylinderPoint:
    """Reflection of the cylinder: (u, v) -> (g - u, v).

    Corresponds to reflecting the disk in the diameter at angle pi*g.
    Involutive for any axis g.
    """
    return CylinderPoint(u=_mod_half_open_high(float(g) - p.u, 1.0), v=p.v)


def reflect_disk(g: float, p: DiskPoint) -> DiskPoint:
    """Reflect a disk point in the diameter at angle pi*g."""
    return DiskPoint(r=p.r, phi=TWO_PI * float(g) - p.phi)

"""SVG renderer for spiral yin-yang symbols.

The geometry follows the classic generator recipe: sample the unit spiral
at radii r = 0, interpol, 2*interpol, ..., placing each sample (r, 0)
rotated by 180 * r^2 * turn degrees, close with (1, 0) rotated by
180 * turn, draw the sampled branch together with its rotated copies, a
bounding circle, and fill the region swept between consecutive branches.
The whole symbol is finally rotated by (0.5 - turn) * 180 + rotate_deg
(mirrored first about the vertical axis when clockwise is off).

Output paths are Catmull-Rom splines converted to cubic Beziers, so they
interpolate exactly the sampled on-curve points; spline control points are
renderer-private.  All coordinates are emitted with 6 fixed decimals,
making the output byte-stable for a given configuration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

_FMT_ZERO = 5e-7  # snap tiny magnitudes so -0.000000 never appears

#: Most sampling steps along the spiral, 1 / effective_interpol (the presets take 16).
MAX_SPIRAL_STEPS = 100_000


def default_interpol(turn: float) -> float:
    """Sampling step for the spiral: 1/16, refined to 1/(16*turn) past 2 turns."""
    return 1.0 / (16.0 * turn) if turn > 2.0 else 1.0 / 16.0


@dataclass(frozen=True)
class RenderConfig:
    """Knobs of the symbol generator; field names follow the generator's."""

    turn: float = 1.0
    radius_px: float = 200.0
    rotate_deg: float = 0.0
    clockwise: bool = True
    parts: int = 2
    dark: tuple[float, float, float] = (0.5, 0.5, 0.5)
    stroke_width_px: float = 2.0
    interpol: float | None = None

    def __post_init__(self):
        for name in ("turn", "radius_px", "rotate_deg", "stroke_width_px", "interpol"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ValueError(f"{name} must be a finite number, got {value}")
        if not self.turn > 0:
            raise ValueError(f"turn must be positive, got {self.turn}")
        if not self.radius_px > 0:
            raise ValueError(f"radius_px must be positive, got {self.radius_px}")
        if not (isinstance(self.parts, int) and self.parts >= 2):
            raise ValueError(f"parts must be an integer >= 2, got {self.parts}")
        if self.interpol is not None and not self.interpol > 0:
            raise ValueError(f"interpol must be positive, got {self.interpol}")
        if 1.0 / self.effective_interpol > MAX_SPIRAL_STEPS:
            raise ValueError(
                f"sampling step {self.effective_interpol:g} needs more than "
                f"MAX_SPIRAL_STEPS = {MAX_SPIRAL_STEPS} spiral steps; raise interpol or lower turn"
            )
        if not self.stroke_width_px > 0:
            raise ValueError(f"stroke_width_px must be positive, got {self.stroke_width_px}")
        object.__setattr__(self, "dark", tuple(float(c) for c in self.dark))
        if any(not 0.0 <= c <= 1.0 for c in self.dark):
            raise ValueError(f"dark components must lie in [0, 1], got {self.dark}")

    @property
    def effective_interpol(self) -> float:
        return self.interpol if self.interpol is not None else default_interpol(self.turn)

    def to_json(self) -> dict:
        return {
            "turn": self.turn,
            "radius_px": self.radius_px,
            "rotate_deg": self.rotate_deg,
            "clockwise": self.clockwise,
            "parts": self.parts,
            "dark": list(self.dark),
            "stroke_width_px": self.stroke_width_px,
            "interpol": self.interpol,
        }

    @classmethod
    def from_json(cls, data: dict) -> "RenderConfig":
        kwargs = {}
        for key in ("turn", "radius_px", "rotate_deg", "stroke_width_px", "interpol"):
            if data.get(key) is not None:
                kwargs[key] = float(data[key])
        if "clockwise" in data:
            kwargs["clockwise"] = bool(data["clockwise"])
        if "parts" in data:
            kwargs["parts"] = int(data["parts"])
        if "dark" in data:
            kwargs["dark"] = tuple(float(c) for c in data["dark"])
        return cls(**kwargs)


@dataclass(frozen=True)
class SvgDocument:
    """A rendered symbol: canvas size plus the ordered SVG elements."""

    width: float
    height: float
    elements: tuple[str, ...]

    def to_xml(self) -> str:
        w, h = _fmt(self.width), _fmt(self.height)
        cx, cy = _fmt(self.width / 2.0), _fmt(self.height / 2.0)
        lines = [
            '<?xml version="1.0" encoding="UTF-8"?>',
            f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
            f'width="{w}" height="{h}" viewBox="0 0 {w} {h}">',
            f'<g transform="translate({cx},{cy}) scale(1,-1)">',
            *self.elements,
            "</g>",
            "</svg>",
            "",
        ]
        return "\n".join(lines)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_xml())


def spiral_points(turn: float, interpol: float) -> np.ndarray:
    """On-curve samples of the unit spiral, exactly as the generator loop emits them.

    Origin first, then (r, 0) rotated by 180*r^2*turn degrees for
    r = 0, interpol, 2*interpol, ... while r <= 1, then the closing point
    (1, 0) rotated by 180*turn degrees.  Duplicate consecutive points (at
    the origin, and at r=1 when interpol divides 1) are preserved.
    """
    if not turn > 0:
        raise ValueError(f"turn must be positive, got {turn}")
    if not interpol > 0:
        raise ValueError(f"interpol must be positive, got {interpol}")
    steps = int(math.floor(1.0 / interpol + 1e-9))
    pts = [(0.0, 0.0)]
    for i in range(steps + 1):
        r = i * interpol
        theta = math.radians(180.0 * r * r * turn)
        pts.append((r * math.cos(theta), r * math.sin(theta)))
    theta = math.radians(180.0 * turn)
    pts.append((math.cos(theta), math.sin(theta)))
    return np.array(pts)


# -- path construction helpers ------------------------------------------------


def _fmt(x: float) -> str:
    if abs(x) < _FMT_ZERO:
        x = 0.0
    return f"{x:.6f}"


def _dedupe(points: np.ndarray) -> np.ndarray:
    keep = [0]
    for i in range(1, len(points)):
        if np.hypot(*(points[i] - points[keep[-1]])) > 1e-12:
            keep.append(i)
    return points[keep]


def _catmull_rom_segments(points: np.ndarray) -> str:
    """Cubic Bezier 'C' commands interpolating the points (first point is the pen)."""
    n = len(points)
    if n < 2:
        return ""
    tangents = np.empty_like(points)
    tangents[0] = points[1] - points[0]
    tangents[-1] = points[-1] - points[-2]
    if n > 2:
        tangents[1:-1] = (points[2:] - points[:-2]) / 2.0
    cmds = []
    for i in range(n - 1):
        c1 = points[i] + tangents[i] / 3.0
        c2 = points[i + 1] - tangents[i + 1] / 3.0
        cmds.append(
            f"C {_fmt(c1[0])} {_fmt(c1[1])} {_fmt(c2[0])} {_fmt(c2[1])} "
            f"{_fmt(points[i + 1][0])} {_fmt(points[i + 1][1])}"
        )
    return " ".join(cmds)


class _SymbolTransform:
    """Mirror about the vertical axis (optional), then rotate about the origin."""

    def __init__(self, angle_deg: float, mirror: bool):
        self.mirror = mirror
        a = math.radians(angle_deg)
        self.cos, self.sin = math.cos(a), math.sin(a)

    def apply(self, points: np.ndarray) -> np.ndarray:
        pts = np.array(points, dtype=float, copy=True)
        if self.mirror:
            pts[:, 0] = -pts[:, 0]
        x = pts[:, 0] * self.cos - pts[:, 1] * self.sin
        y = pts[:, 0] * self.sin + pts[:, 1] * self.cos
        return np.column_stack([x, y])

    @property
    def sweep_ccw(self) -> str:
        # arc sweep flag for a counterclockwise arc, after possible mirroring
        return "0" if self.mirror else "1"


def _gray(luminance: float) -> str:
    c = round(255 * luminance)
    return f"rgb({c},{c},{c})"


def _rgb(color: tuple[float, float, float]) -> str:
    r, g, b = (round(255 * c) for c in color)
    return f"rgb({r},{g},{b})"


def render(config: RenderConfig) -> SvgDocument:
    """Render the symbol: fills, spiral branches, bounding circle.

    With parts == 2 this is the classic generator output: one region
    filled with ``config.dark``.  With parts >= 3 every region is filled,
    region i at gray luminance i/parts.
    """
    radius = config.radius_px
    interpol = config.effective_interpol
    transform = _SymbolTransform(
        angle_deg=(0.5 - config.turn) * 180.0 + config.rotate_deg,
        mirror=not config.clockwise,
    )
    base = _dedupe(spiral_points(config.turn, interpol)) * radius
    branch_angle = 360.0 / config.parts
    branches = []
    for j in range(config.parts):
        a = math.radians(branch_angle * j)
        rot = np.array([[math.cos(a), -math.sin(a)], [math.sin(a), math.cos(a)]])
        branches.append(transform.apply(base @ rot.T))

    def region_path(i: int) -> str:
        """Region swept from branch i to branch i+1 (counterclockwise)."""
        j = (i + 1) % config.parts
        out = branches[i]
        back = branches[j][::-1]
        arc_end = back[0]
        d = (
            f"M {_fmt(out[0][0])} {_fmt(out[0][1])} "
            + _catmull_rom_segments(out)
            + f" A {_fmt(radius)} {_fmt(radius)} 0 0 {transform.sweep_ccw} "
            + f"{_fmt(arc_end[0])} {_fmt(arc_end[1])} "
            + _catmull_rom_segments(back)
            + " Z"
        )
        return d

    elements: list[str] = []
    if config.parts == 2:
        elements.append(f'<path d="{region_path(1)}" fill="{_rgb(config.dark)}" stroke="none"/>')
    else:
        for i in range(config.parts):
            elements.append(
                f'<path d="{region_path(i)}" fill="{_gray(i / config.parts)}" stroke="none"/>'
            )

    spiral_width = config.stroke_width_px * 0.5
    for branch in branches:
        d = f"M {_fmt(branch[0][0])} {_fmt(branch[0][1])} " + _catmull_rom_segments(branch)
        elements.append(
            f'<path d="{d}" fill="none" stroke="black" '
            f'stroke-width="{_fmt(spiral_width)}"/>'
        )
    elements.append(
        f'<circle cx="0" cy="0" r="{_fmt(radius)}" fill="none" stroke="black" '
        f'stroke-width="{_fmt(config.stroke_width_px)}"/>'
    )

    pad = 0.05 * radius + config.stroke_width_px
    size = 2.0 * (radius + pad)
    return SvgDocument(width=size, height=size, elements=tuple(elements))


RENDER_PRESETS: dict[str, RenderConfig] = {
    "classic": RenderConfig(turn=1.0),
    "britannica": RenderConfig(turn=2.0 / 9.0),
    "chosun": RenderConfig(turn=0.6, rotate_deg=-8.0),
    "korea1882": RenderConfig(turn=1.5, rotate_deg=-60.0),
}

PRESET_NOTES: dict[str, str] = {
    "classic": "one-turn spiral, the axiomatically canonical symbol",
    "britannica": "turn=2/9, matching the classical encyclopedia rendering",
    "chosun": "turn=0.6 rotate=-8, flag of Korea's Chosun Dynasty",
    "korea1882": "turn=1.5 rotate=-60, earliest Korean national flag (1882)",
}

#: Turn counts for the four evolution phases emitted by the CLI.
EVOLUTION_TURNS: tuple[float, ...] = (0.25, 0.5, 1.0, 2.0)

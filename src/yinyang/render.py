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
from dataclasses import asdict, dataclass, fields

import numpy as np

from .geometry import MAX_PARTS, _shown, finite, integer

_FMT_ZERO = 5e-7  # snap tiny magnitudes so -0.000000 never appears

#: Most sampling steps along the spiral, floor(1 / interpol) (the presets take 16).
MAX_SPIRAL_STEPS = 100_000
#: Most spiral steps times parts in one render: a render's cost grows with both.
MAX_RENDER_STEPS = 2 * MAX_SPIRAL_STEPS


def spiral_steps(interpol: float) -> int:
    """Sampling steps of the spiral at step ``interpol``; above MAX_SPIRAL_STEPS is an error."""
    steps = 1.0 / interpol + 1e-9  # inf for a subnormal step
    if not steps < MAX_SPIRAL_STEPS + 1:
        raise ValueError(
            f"sampling step {interpol:g} needs more than "
            f"MAX_SPIRAL_STEPS = {MAX_SPIRAL_STEPS} spiral steps; raise interpol or lower turn"
        )
    return int(math.floor(steps))


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
            if name == "interpol" and self.interpol is None:
                continue  # the default step follows turn
            value = finite(name, getattr(self, name))
            if name != "rotate_deg" and not value > 0:
                raise ValueError(f"{name} must be positive, got {value}")
            object.__setattr__(self, name, value)
        object.__setattr__(self, "parts", integer("parts", self.parts, 2, MAX_PARTS))
        if not isinstance(self.clockwise, bool):
            raise ValueError(f"clockwise must be true or false, got {_shown(self.clockwise)}")
        # finite values can overflow: a turn the rotation (and 16 * turn the default step)
        if not math.isfinite(self.angle_deg):
            raise ValueError(f"turn = {self.turn:g} and rotate_deg = {self.rotate_deg:g} overflow "
                             f"the symbol's rotation (0.5 - turn) * 180 + rotate_deg")
        if not math.isfinite(self.size_px):
            raise ValueError(f"radius_px = {self.radius_px:g} and stroke_width_px = "
                             f"{self.stroke_width_px:g} overflow the canvas size "
                             f"2 * (1.05 * radius_px + stroke_width_px)")
        steps = spiral_steps(self.effective_interpol)
        if steps * self.parts > MAX_RENDER_STEPS:
            raise ValueError(
                f"{steps} spiral steps times {self.parts} parts exceeds "
                f"MAX_RENDER_STEPS = {MAX_RENDER_STEPS}; raise interpol or lower parts"
            )
        if not (isinstance(self.dark, (tuple, list)) and len(self.dark) == 3):
            raise ValueError(f"dark must hold three numbers r, g, b, got {_shown(self.dark)}")
        object.__setattr__(self, "dark", tuple(finite("dark", c) for c in self.dark))
        if any(not 0.0 <= c <= 1.0 for c in self.dark):
            raise ValueError(f"dark components must lie in [0, 1], got {self.dark}")

    @property
    def effective_interpol(self) -> float:
        return self.interpol if self.interpol is not None else default_interpol(self.turn)

    @property
    def angle_deg(self) -> float:
        """Rotation of the whole symbol, in degrees."""
        return (0.5 - self.turn) * 180.0 + self.rotate_deg

    @property
    def size_px(self) -> float:
        """Width and height of the square canvas: the disk, a 5% margin and the stroke."""
        return 2.0 * (self.radius_px + (0.05 * self.radius_px + self.stroke_width_px))

    def to_json(self) -> dict:
        return {**asdict(self), "dark": list(self.dark)}

    @classmethod
    def from_json(cls, data: dict) -> "RenderConfig":
        """A config from a JSON object keyed by field name; a null value keeps the default."""
        names = [f.name for f in fields(cls)]
        if not (isinstance(data, dict) and set(data) <= set(names)):
            raise ValueError(f"a render configuration must be a JSON object with keys from "
                             f"{', '.join(names)}; got {_shown(data)}")
        return cls(**{key: value for key, value in data.items() if value is not None})


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
    if not math.isfinite(180.0 * turn):
        raise ValueError(f"turn = {turn:g} overflows the spiral's last angle, 180 * turn degrees")
    if not interpol > 0:
        raise ValueError(f"interpol must be positive, got {interpol}")
    steps = spiral_steps(interpol)
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
    # spiral samples lie interpol >= 1 / MAX_SPIRAL_STEPS apart: only the one before can repeat
    step = np.diff(points, axis=0)
    return points[np.concatenate(([True], np.hypot(step[:, 0], step[:, 1]) > 1e-12))]


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


def _turned(points: np.ndarray, degrees: float) -> np.ndarray:
    """The points rotated counterclockwise about the origin by ``degrees``."""
    a = math.radians(degrees)
    cos, sin = math.cos(a), math.sin(a)
    x, y = points[:, 0], points[:, 1]
    return np.column_stack([x * cos - y * sin, x * sin + y * cos])


def _path(points: np.ndarray) -> str:
    """'M' to the first point, then the Bezier segments through the rest."""
    return f"M {_fmt(points[0][0])} {_fmt(points[0][1])} " + _catmull_rom_segments(points)


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
    base = _dedupe(spiral_points(config.turn, interpol)) * radius
    branch_angle = 360.0 / config.parts
    branches = []
    for j in range(config.parts):
        branch = _turned(base, branch_angle * j)
        if not config.clockwise:  # mirror about the vertical axis
            branch[:, 0] = -branch[:, 0]
        branches.append(_turned(branch, config.angle_deg))
    sweep = "1" if config.clockwise else "0"  # the rim arc runs counterclockwise until mirrored

    def region_path(i: int) -> str:
        """Region swept from branch i to branch i+1 (counterclockwise)."""
        back = branches[(i + 1) % config.parts][::-1]
        return (
            _path(branches[i])
            + f" A {_fmt(radius)} {_fmt(radius)} 0 0 {sweep} {_fmt(back[0][0])} {_fmt(back[0][1])} "
            + _catmull_rom_segments(back)
            + " Z"
        )

    elements: list[str] = []
    if config.parts == 2:
        elements.append(f'<path d="{region_path(1)}" fill="{_rgb(config.dark)}" stroke="none"/>')
    else:
        for i in range(config.parts):
            elements.append(
                f'<path d="{region_path(i)}" fill="{_rgb((i / config.parts,) * 3)}" stroke="none"/>'
            )

    spiral_width = config.stroke_width_px * 0.5
    for branch in branches:
        elements.append(
            f'<path d="{_path(branch)}" fill="none" stroke="black" '
            f'stroke-width="{_fmt(spiral_width)}"/>'
        )
    elements.append(
        f'<circle cx="0" cy="0" r="{_fmt(radius)}" fill="none" stroke="black" '
        f'stroke-width="{_fmt(config.stroke_width_px)}"/>'
    )

    return SvgDocument(width=config.size_px, height=config.size_px, elements=tuple(elements))


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

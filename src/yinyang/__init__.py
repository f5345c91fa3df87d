"""Yin-yang symbols on the unit-area disk: construction, verification, rendering.

The package is organized around one change of coordinates: the punctured
unit-area disk maps onto the cylinder S^1 x (0,1] preserving measure and
symmetry, spiral symbols become graphs of monotone height profiles there,
and all balance properties reduce to exact arc arithmetic on the circle.

Modules
-------
geometry      disk/cylinder coordinates and the transform between them
circle_sets   exact unions of circle arcs, reflection overlaps, profiles
curves        one profile type per spiral family: Fermat, Sine, Ck, Table
verify        axiom checks, relation residuals, Monte-Carlo cross-check
render        deterministic SVG output of the symbols
cli           the ``yy`` command-line tool
"""

__version__ = "0.1.0"

from .circle_sets import Arc, CircleSet, OverlapProfile
from .curves import (
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
from .geometry import (
    CylinderPoint,
    DiskPoint,
    cylinder_to_disk,
    disk_to_cylinder,
    reflect_u,
)
from .render import RenderConfig, SvgDocument, render, spiral_points
from .verify import (
    OracleEstimate,
    VerifyReport,
    check_axioms,
    monte_carlo_overlap,
    perfect_profile,
    relation_residual,
    rotation_check,
)

__all__ = [
    "__version__",
    "Arc",
    "CircleSet",
    "OverlapProfile",
    "AlphaProfile",
    "Ck",
    "CurveSpec",
    "Fermat",
    "Sine",
    "Table",
    "beta_polyline",
    "contains",
    "section",
    "CylinderPoint",
    "DiskPoint",
    "cylinder_to_disk",
    "disk_to_cylinder",
    "reflect_u",
    "RenderConfig",
    "SvgDocument",
    "render",
    "spiral_points",
    "OracleEstimate",
    "VerifyReport",
    "check_axioms",
    "monte_carlo_overlap",
    "perfect_profile",
    "relation_residual",
    "rotation_check",
]

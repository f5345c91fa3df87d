"""The built-in spiral families and the height profiles behind them.

Each symbol is determined by a strictly increasing profile v = alpha(u).
The one-turn balance condition is the quarter-shift relation
alpha(u + 1/4) = alpha(u) + 1/2; the linear profile (Fermat's spiral) is
its simplest solution, the sine and piecewise-polynomial variants solve
it too, and generic profiles do not.
"""

import numpy as np

from yinyang import Ck, CurveSpec, Fermat, Sine, Table
from yinyang import beta_polyline, relation_residual, section

profiles = {
    "fermat (1 turn)": Fermat(1.0),
    "sine lam=0.1": Sine(0.1),
    "ck lam=1 k=2": Ck(1.0, 2),
    "table 4u^2": Table([(u, 4 * u * u) for u in np.linspace(0, 0.5, 801)]),
}

print("quarter-shift residual sup |alpha(u+1/4) - alpha(u) - 1/2|:")
for name, profile in profiles.items():
    print(f"  {name:<16} {relation_residual(profile, 'eq_alal'):.3e}")

print()
print("slices of the first part (arcs of length 1/parts):")
spec = CurveSpec(family="fermat", turns=1.0)
for v in (0.1, 0.5, 0.9):
    print(f"  v={v}: {section(spec, v).to_json()}")

spec3 = CurveSpec(family="fermat", turns=1.0, parts=3)
print(f"  three parts, v=0.5: {section(spec3, 0.5).to_json()}")

print()
print("boundary samples (last point of branch 0 sits on the rim):")
pts = beta_polyline(spec, 8)
for p in pts[:8]:
    print(f"  r={p.r:.4f}  phi={p.phi:.4f}")

print()
print("invalid parameters are rejected:")
for build in (lambda: Sine(0.3), lambda: Ck(10.0, 0)):
    try:
        build()
    except ValueError as exc:
        print("  ValueError:", exc)

"""Two independent routes to the same number.

The profile route integrates exact per-slice overlaps along the curve;
the sampling route throws uniform points at the disk and counts.  They
must agree within statistical error at every reflection axis, for flat
and non-flat profiles alike.
"""

import numpy as np

from yinyang import CurveSpec, monte_carlo_overlap, perfect_profile

spec = CurveSpec(family="fermat", turns=1.0)
prof = perfect_profile(spec, g_grid=256, v_quadrature=50_001)
print("one-turn spiral (profile should be flat at 0.25):")
for i, g in enumerate((0.12, 0.3, 0.8)):
    est = monte_carlo_overlap(spec, g=g, samples=500_000, seed=100 + i)
    quad = float(np.interp(g, prof.g, prof.values, period=1.0))
    sigma = abs(est.value - quad) / est.stderr
    print(f"  g={g:.2f}: profile={quad:.5f}  sampled={est.value:.5f} "
          f"+- {est.stderr:.5f}  ({sigma:.1f} stderr apart)")

print()
quad_table = tuple((float(u), float(4 * u * u)) for u in np.linspace(0.0, 0.5, 2001))
crooked = CurveSpec(family="custom", samples=quad_table)
prof2 = perfect_profile(crooked, g_grid=256, v_quadrature=50_001)
print("quadratic profile (not flat; the two routes still agree pointwise):")
for i, g in enumerate((0.0, 0.25, 0.6)):
    est = monte_carlo_overlap(crooked, g=g, samples=500_000, seed=200 + i)
    quad = float(np.interp(g, prof2.g, prof2.values, period=1.0))
    sigma = abs(est.value - quad) / est.stderr
    print(f"  g={g:.2f}: profile={quad:.5f}  sampled={est.value:.5f} "
          f"+- {est.stderr:.5f}  ({sigma:.1f} stderr apart)")

"""Axiom checks across curves: the canonical spiral, variants, a counterexample.

A4 (reflective balance) is the discriminating check: the overlap profile
f(g) must be flat at 1/parts^2.  The one-turn spiral, the sine variant and
the ck variant all pass it.  A5 asks for a smooth curve: the analytic sine
variant passes, and ck, algebraic but only C^2 at u = 1/4, fails.  The
quadratic profile passes A1-A3 but fails A4 by a wide, quantified margin,
and A5, since a sample table kinks at its knots.  The two-turn spiral swaps
A3 for its two-crossing version and passes everything else.
"""

import numpy as np

from yinyang import CurveSpec, check_axioms, rotation_check

FAST = dict(g_grid=128, v_quadrature=20_001)


def show(title, spec, **kwargs):
    report = check_axioms(spec, **kwargs)
    verdicts = "  ".join(
        f"{name}={'ok' if v.passed else 'FAIL'}" for name, v in report.axioms.items()
    )
    print(f"{title}:")
    print("  " + verdicts)
    print(f"  flatness: max |f(g) - {report.profile.target:g}| = {report.profile.max_deviation:.2e}")
    if report.residuals:
        residuals = "  ".join(f"{k}={v:.1e}" for k, v in report.residuals.items())
        print(f"  residuals: {residuals}")
    print()
    return report


show("one-turn spiral", CurveSpec(family="fermat", turns=1.0), **FAST)
show("two-turn spiral", CurveSpec(family="fermat", turns=2.0), **FAST)
show("sine variant lam=0.2", CurveSpec(family="sine", lam=0.2), **FAST)
ck = show("ck variant lam=1, k=1", CurveSpec(family="ck", lam=1.0, k=1), **FAST)
print(f"  A5: {ck.axioms['A5'].detail}")
print("  balanced and algebraic, but not smooth: the paper's theorem, that Fermat's spiral is the")
print("  only balanced smooth curve algebraic in polar coordinates, needs smoothness to exclude it")
print()
show("three-part symbol", CurveSpec(family="fermat", turns=1.0, parts=3), **FAST)

quad_table = tuple((float(u), float(4 * u * u)) for u in np.linspace(0.0, 0.5, 2001))
quad = show("quadratic profile 4u^2 (counterexample)",
            CurveSpec(family="custom", samples=quad_table), **FAST)

print("quarter-shift law (one turn, two parts): with rho(t) = alpha(t + 1/4) - alpha(t) - 1/2,")
print("  f(g) - 1/4 = -2 * integral_0^1/4 rho(t) tent'(g - 2t - 1/2) dt,")
print("  so A4 is flat exactly when eq_alal holds, and max |f - 1/4| <= sup |rho| / 2:")
print(f"  quadratic profile: max |f - 1/4| = {quad.profile.max_deviation:.4f} "
      f"<= {quad.residuals['eq_alal'] / 2:.4f}")
print()

print("rotation immunity (structural: a slice is one arc of length 1/parts <= 1/2,")
print("so every integral is 0):")
rc = rotation_check(CurveSpec(family="fermat", turns=1.0), q_max=6)
print(" ", rc["integrals"])

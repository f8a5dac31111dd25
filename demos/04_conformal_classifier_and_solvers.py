"""Constant curvature in a conformal class and the P/Z/N trichotomy
====================================================================

The conformal class decides which functions it can realize as scalar
curvatures.  A warped product is conformal to a cylinder of constant scalar
curvature c_F, so the class is the sign of c_F; the classifier also reports
the discrete first eigenvalue of u -> -4 b_n lap(u) + scal u, which has
that sign up to an O(h^2) error.  The constrained descent solver produces
positive-constant conformal factors in the positive class; the bordered
Newton solver produces negative constants in the negative class, the only
class where they exist, and reports the others as obstructed before any
step.
"""

import numpy as np

from curvlab import (ConformalProblem, ObstructionError, SolverConfig,
                     WarpedProductMetric, classify_conformal_class,
                     conformal_scal, get_preset, minimize_on_constraint,
                     solve_negative_constant)

for name in ("round-fiber", "flat-torus", "hyperbolic-fiber"):
    verdict, lam1 = classify_conformal_class(get_preset(name))
    print(f"{name:17s} verdict = {verdict.value}   lambda_1 = {lam1:+.3e}")

# Positive regime on the round-fiber product: minimize the constrained
# energy from a non-constant start, recover the multiplier, and verify the
# conformal metric really has the reported constant curvature.
metric = get_preset("round-fiber")
problem = ConformalProblem(metric, c=6.0)
sol = minimize_on_constraint(problem, SolverConfig(tol_residual=1e-9),
                             u0=1.0 + 0.2 * np.sin(metric.mesh.nodes))
print("\npositive regime:")
print("  iterations       :", sol.iterations)
print("  multiplier 1+lam :", 1.0 + sol.lagrange)
print("  achieved c'      :", sol.achieved_constant)
print("  residual         :", sol.residual_norm)
out = conformal_scal(metric, sol.u)
print("  scal spread      :", out.max() - out.min())

# Negative regime on a bumpy hyperbolic-fiber background.
bumpy = WarpedProductMetric.from_profile(64, 2 * np.pi, 3, -2.0,
                                         lambda r: 1.0 + 0.1 * np.sin(r))
sol, c_used = solve_negative_constant(bumpy, u0=np.ones(64))
print("\nnegative regime (bumpy hyperbolic fiber):")
print("  achieved -c'     :", -sol.achieved_constant)
print("  residual         :", sol.residual_norm)
print("  min of factor    :", sol.u.min())

# The flat model is of class Z_G, which admits no negative constant: the
# solve reads the class first and reports the obstruction without a step.
try:
    solve_negative_constant(get_preset("flat-torus"))
except ObstructionError as exc:
    print(f"\nflat model obstruction ({exc.condition}):", exc)

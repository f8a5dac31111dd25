"""Shrinking a metric along group orbits
=========================================

The deformed scalar curvature is evaluated pointwise from structure
constants, the orbit tensor, and (at singular points) the isotropy
representation.  On a group manifold the whole machinery collapses to an
exact identity with the deformed left-invariant metric, which we verify, and
the large-time growth rate is governed by bracket norms plus an isotropy
term; the ratio of extremes over the manifold is the pinching limit.
"""

import numpy as np

from curvlab import (IsotropyData, OrbitData, deformed_group_metric,
                     homogeneous_scal, isotropy_term, pinching_limit,
                     scal_cheeger, scal_left_invariant, su2_metric)

# Start from a squashed metric with negative scalar curvature.
metric = su2_metric(np.diag([5.0, 1.0, 1.0]))
orbit = OrbitData(algebra=metric)
print("undeformed scal    :", scal_cheeger(orbit, None, 0.0))

# One call evaluates the whole sweep: scal_cheeger takes an array of times.
print("\nsweep: deformed curvature vs the group-metric oracle")
print(f"{'t':>10s} {'scal_t':>12s} {'oracle':>12s} {'scal_t / t':>12s}")
ts = np.array([0.0, 0.1, 1.0, 10.0, 100.0, 1e4])
for t, value in zip(ts, scal_cheeger(orbit, None, ts)):
    oracle = scal_left_invariant(deformed_group_metric(metric, t))
    over_t = value / t if t else float("nan")
    print(f"{t:10.4g} {value:12.6f} {oracle:12.6f} {over_t:12.6f}")
print("growth-rate limit  :", homogeneous_scal(orbit), "(quarter bracket-norm sum)")

# A synthetic singular point: one isotropy direction rotates a normal
# 2-plane at rate alpha, raising the large-t rate by 3 xi = 3 * 2 alpha^2.
alpha = 0.9
rho = np.zeros((2, 2, 1))
rho[0, :, 0] = [0.0, alpha]
rho[1, :, 0] = [-alpha, 0.0]
iso = IsotropyData(isotropy_dim=1, rho_maps=rho)
singular = OrbitData(algebra=su2_metric(), normal_dim=2,
                     normal_sectionals=np.zeros((2, 2)),
                     mixed_sectionals=np.zeros((2, 3)))
t = 1e4
print("\nsingular point, t = 1e4:")
print("  scal_t / t       :", scal_cheeger(singular, iso, t) / t)
print("  predicted limit  :", homogeneous_scal(singular) + 3 * isotropy_term(iso))

# Pinching of the deformed manifold: a free point and the singular point.
free = OrbitData(algebra=su2_metric())
print("\npinching limit (free + singular):",
      pinching_limit([(free, None), (singular, iso)]))
print("pinching limit (semi-free)      :",
      pinching_limit([(free, None), (OrbitData(algebra=su2_metric(np.diag([0.7, 1, 1.3]))), None)]))

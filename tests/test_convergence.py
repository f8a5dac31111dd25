"""Observed order of convergence under mesh refinement.

The stencils are second order, so each halving of the cell should shrink the
change of a converged quantity by about 4.  The ratio of successive
differences estimates that factor without knowing the limit (Richardson).
"""

import numpy as np

from curvlab import (ConformalProblem, WarpedProductMetric, classify_conformal_class,
                     full_prescribe, get_preset, minimize_on_constraint)


def assert_second_order(changes):
    d = np.asarray(changes)
    ratios = d[:-1] / d[1:]
    assert np.all((3.5 <= ratios) & (ratios <= 4.5)), ratios


def test_classifier_eigenvalue_converges_at_second_order():
    lam1 = [classify_conformal_class(get_preset("bumpy", n=n))[1] for n in (128, 256, 512, 1024)]
    assert_second_order(np.diff(lam1))


def test_positive_constant_converges_at_second_order():
    constants = [minimize_on_constraint(ConformalProblem(get_preset("bumpy", n=n), c=6.0))
                 .achieved_constant for n in (64, 128, 256, 512, 1024)]
    assert_second_order(np.diff(constants))


def test_prescription_converges_at_second_order():
    # the window constant c is the grid value 1.0 at every N, so it has no
    # order; the metric and the potential, read on the N = 64 nodes, do
    coarse = []
    for n in (64, 128, 256, 512, 1024):
        metric = WarpedProductMetric.from_profile(n, 2 * np.pi, 3, 6.0,
                                                  lambda r: 1.0 + 0.02 * np.sin(r))
        result = full_prescribe(metric, 6.0 * (1.0 + 0.2 * np.sin(2 * metric.mesh.nodes + 0.3)))
        assert result.path == "identity" and result.c == 1.0
        on64 = slice(None, None, n // 64)
        coarse.append((result.metric_out.radial[on64], result.metric_out.fiber[on64],
                       result.u[on64]))
    for field in zip(*coarse):
        assert_second_order([np.max(np.abs(b - a)) for a, b in zip(field, field[1:])])

"""Observed order of convergence under mesh refinement.

The stencils are second order, so each halving of the cell should shrink the
change of a converged quantity by about 4.  The ratio of successive
differences estimates that factor without knowing the limit (Richardson).
"""

import numpy as np

from curvlab import ConformalProblem, classify_conformal_class, get_preset, minimize_on_constraint


def assert_second_order(values):
    d = np.diff(values)
    ratios = d[:-1] / d[1:]
    assert np.all((3.5 <= ratios) & (ratios <= 4.5)), ratios


def test_classifier_eigenvalue_converges_at_second_order():
    lam1 = [classify_conformal_class(get_preset("bumpy", n=n))[1] for n in (128, 256, 512, 1024)]
    assert_second_order(lam1)


def test_positive_constant_converges_at_second_order():
    constants = [minimize_on_constraint(ConformalProblem(get_preset("bumpy", n=n), c=6.0))
                 .achieved_constant for n in (64, 128, 256, 512, 1024)]
    assert_second_order(constants)

"""Fiber-scaled submersion curvature: plane formulas, assembly, thresholds."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from curvlab import (PreconditionError, SubmersionPointData, cv_scal,
                     cv_sectional, positivity_threshold)


def product_data(base_scal=0.0, fiber_scal=2.0, base_dim=2, fiber_dim=2):
    """Riemannian-product data: base and total HH curvatures agree, no mixing."""
    K = np.zeros((base_dim, base_dim))
    if base_scal:
        K[:] = base_scal / (base_dim * (base_dim - 1))
        np.fill_diagonal(K, 0.0)
    return SubmersionPointData(base_dim=base_dim, fiber_dim=fiber_dim,
                               K_base=K, K_tot_hh=K.copy(),
                               K_mixed=np.zeros((base_dim, fiber_dim)),
                               fiber_scal=fiber_scal)


def generic_data(rng, base_dim=3, fiber_dim=2):
    K_base = rng.normal(size=(base_dim, base_dim))
    K_base = 0.5 * (K_base + K_base.T)
    np.fill_diagonal(K_base, 0.0)
    K_tot = K_base - np.abs(rng.normal(size=1)) * (np.ones((base_dim, base_dim)) - np.eye(base_dim))
    K_mixed = rng.normal(size=(base_dim, fiber_dim))
    return SubmersionPointData(base_dim=base_dim, fiber_dim=fiber_dim, K_base=K_base,
                               K_tot_hh=K_tot, K_mixed=K_mixed, fiber_scal=2.0)


def test_sectional_undeformed_at_one():
    rng = np.random.default_rng(137)
    d = generic_data(rng)
    for i in range(3):
        for j in range(3):
            if i != j:
                assert cv_sectional(d, 1.0, "hh", i, j) == pytest.approx(d.K_tot_hh[i, j])
    for i in range(3):
        for j in range(2):
            assert cv_sectional(d, 1.0, "hv", i, j) == pytest.approx(d.K_mixed[i, j])
    assert cv_sectional(d, 1.0, "vv", fiber_k=0.7) == pytest.approx(0.7)


def test_sectional_product_mixed_planes_flat():
    d = product_data(base_scal=-4.0)
    for s in (0.1, 0.5, 2.0):
        assert cv_sectional(d, s, "hv", 0, 1) == 0.0


def test_sectional_hh_substitution():
    d = SubmersionPointData(base_dim=2, fiber_dim=1,
                            K_base=np.array([[0.0, 1.0], [1.0, 0.0]]),
                            K_tot_hh=np.array([[0.0, 1.0], [1.0, 0.0]]),
                            K_mixed=np.zeros((2, 1)), fiber_scal=1.0)
    assert cv_sectional(d, 0.5, "hh", 0, 1) == pytest.approx(1.0)


def test_scal_product_flat_base():
    d = product_data(base_scal=0.0, fiber_scal=2.0)
    assert cv_scal(d, 0.5) == pytest.approx(4.0)
    for s in (0.1, 1.0, 3.0):
        assert cv_scal(d, s) == pytest.approx(2.0 / s)


def test_scal_negative_base_substitution():
    d = product_data(base_scal=-4.0, fiber_scal=2.0)
    assert cv_scal(d, 1.0) == pytest.approx(-2.0)
    for s in (0.2, 0.7, 1.5):
        assert cv_scal(d, s) == pytest.approx(-4.0 + 2.0 / s)


def test_scal_consistency_at_one_with_basis_double_sum():
    rng = np.random.default_rng(139)
    for _ in range(5):
        d = generic_data(rng)
        k = d.fiber_dim
        fiber_pairs = d.fiber_scal  # vertical block of the double sum
        double_sum = float(np.sum(d.K_tot_hh)) + 2.0 * float(np.sum(d.K_mixed)) + fiber_pairs
        assert cv_scal(d, 1.0) == pytest.approx(double_sum, abs=1e-12)


def test_scal_affine_in_table_entries():
    rng = np.random.default_rng(149)
    d = generic_data(rng)
    s = 0.37
    base = cv_scal(d, s)
    bump = np.zeros((3, 3))
    bump[0, 1] = bump[1, 0] = 1.0
    d2 = SubmersionPointData(base_dim=3, fiber_dim=2, K_base=d.K_base + bump,
                             K_tot_hh=d.K_tot_hh, K_mixed=d.K_mixed, fiber_scal=d.fiber_scal)
    d3 = SubmersionPointData(base_dim=3, fiber_dim=2, K_base=d.K_base + 2 * bump,
                             K_tot_hh=d.K_tot_hh, K_mixed=d.K_mixed, fiber_scal=d.fiber_scal)
    first = cv_scal(d2, s) - base
    second = cv_scal(d3, s) - cv_scal(d2, s)
    assert first == pytest.approx(second, rel=1e-12)


def test_scal_diverges_for_positive_fiber():
    rng = np.random.default_rng(151)
    d = generic_data(rng)
    assert cv_scal(d, 1e-6) > 1e5 * d.fiber_scal / 2.0


def test_threshold_unbounded_for_flat_base():
    d = product_data(base_scal=0.0, fiber_scal=2.0)
    assert positivity_threshold(d) == float("inf")


def test_threshold_analytic_root():
    d = product_data(base_scal=-4.0, fiber_scal=2.0)
    assert positivity_threshold(d) == pytest.approx(0.5, abs=1e-9)


def test_threshold_rejects_nonpositive_fiber():
    d = product_data(base_scal=-4.0, fiber_scal=0.0)
    with pytest.raises(PreconditionError):
        positivity_threshold(d)


def test_threshold_brackets_positive_region():
    d = product_data(base_scal=-4.0, fiber_scal=2.0)
    s_star = positivity_threshold(d)
    for s in np.linspace(1e-4, s_star * 0.999, 40):
        assert cv_scal(d, float(s)) > 0


def test_threshold_finds_narrow_negative_dip():
    # s cv_scal(s) = (s - 1)(s - 1.001)(s + 1): negative only on (1, 1.001)
    K_base = np.array([[0.0, -0.5], [-0.5, 0.0]])
    d = SubmersionPointData(base_dim=2, fiber_dim=2, K_base=K_base,
                            K_tot_hh=np.zeros((2, 2)), K_mixed=np.diag([-0.25025, -0.25025]),
                            fiber_scal=1.001)
    assert cv_scal(d, 1.0005) < 0
    assert positivity_threshold(d) == pytest.approx(1.0, rel=1e-12)


def cubic_data(a3, a2, a1, a0):
    """2+2 data whose s cv_scal(s) is a3 s^3 + a2 s^2 + a1 s + a0."""
    off = np.array([[0.0, 1.0], [1.0, 0.0]])
    return SubmersionPointData(base_dim=2, fiber_dim=2, K_base=0.5 * a1 * off,
                               K_tot_hh=0.5 * (a3 + a1) * off,
                               K_mixed=np.full((2, 2), a2 / 8.0), fiber_scal=a0)


root = st.floats(0.05, 5.0) | st.floats(-5.0, -0.05)


@settings(max_examples=300, deadline=None)
@given(root, st.none() | st.floats(1e-4, 0.5), st.none() | root,
       st.none() | st.tuples(st.floats(-5.0, 5.0), st.floats(0.05, 5.0)), st.floats(0.1, 10.0))
def test_threshold_is_smallest_positive_root_of_random_cubics(r, twin_gap, other, pair, scale):
    # real roots r, optionally a twin r (1 + gap) (a narrow dip when r > 0),
    # then a third real root or a complex pair while the degree stays <= 3
    roots = [r] + ([r * (1.0 + twin_gap)] if twin_gap is not None else [])
    if other is not None and min(abs(other - x) for x in roots) > 1e-3 and len(roots) < 3:
        roots.append(other)
    if pair is not None and len(roots) == 1:
        roots += [complex(*pair), complex(pair[0], -pair[1])]
    poly = np.real(np.poly(roots))
    # the sign makes the constant term (the fiber scalar curvature) positive
    coeffs = np.zeros(4)
    coeffs[4 - poly.size:] = poly * scale * np.sign(poly[-1])
    d = cubic_data(*coeffs)
    positive = [x.real for x in roots if x.imag == 0 and x.real > 0]
    s_star = positivity_threshold(d)
    if not positive:
        assert s_star == float("inf")
        return
    assert s_star == pytest.approx(min(positive), rel=1e-8)
    for s in np.linspace(0.01, 0.99, 25) * s_star:
        assert cv_scal(d, float(s)) > 0


def test_rejects_nonpositive_scale():
    d = product_data()
    with pytest.raises(ValueError):
        cv_scal(d, 0.0)
    with pytest.raises(ValueError):
        cv_sectional(d, -1.0, "hh", 0, 1)
    # each used to return NaN
    with pytest.raises(ValueError, match="^fiber scale must be positive$"):
        cv_scal(d, np.nan)
    with pytest.raises(ValueError, match="^fiber scale must be positive$"):
        cv_sectional(d, np.nan, "hv", 0, 1)

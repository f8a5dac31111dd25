"""Warped-product and left-invariant curvature against independent oracles."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from curvlab import (DiagonalInvariantMetric, LeftInvariantMetric, WarpedProductMetric,
                     YamabeConstants, abelian_metric, as_diagonal, get_preset, ricci_warped,
                     scal_diagonal, scal_left_invariant, scal_warped,
                     sectional_left_invariant, su2_metric, su2_structure)
from curvlab.mesh import INTERVAL, build_mesh
from curvlab.models import WARPED_PRESETS

from oracles import curvature_tensor_scal, scal_warped_formula


def bumpy(amplitude=0.1, n=64):
    return WarpedProductMetric.from_profile(
        n, 2 * np.pi, 3, 6.0, lambda r: 1.0 + amplitude * np.sin(r))


# ---------------------------------------------------------------------------
# constants
# ---------------------------------------------------------------------------


def test_yamabe_constants_are_the_rational_functions():
    for n in (3, 4, 7):
        c = YamabeConstants.for_dimension(n)
        assert c.b_n == (n - 1) / (n - 2)
        assert c.gamma_n == (n + 2) / (n - 2)
        assert c.two_star == 2 * n / (n - 2)


def test_dimension_three_required():
    with pytest.raises(ValueError):
        YamabeConstants.for_dimension(2)


# ---------------------------------------------------------------------------
# warped products
# ---------------------------------------------------------------------------


def test_round_fiber_product_scal_six():
    metric = get_preset("round-fiber")
    assert np.allclose(scal_warped(metric), 6.0, atol=1e-12)


def test_flat_torus_scal_zero():
    metric = get_preset("flat-torus")
    assert np.allclose(scal_warped(metric), 0.0, atol=1e-12)


def test_warped_scal_matches_analytic_derivative_oracle():
    # closed form evaluated with exact derivatives of f = 1 + 0.1 sin r
    errs = []
    for n in (64, 128, 256):
        metric = bumpy(n=n)
        r = metric.mesh.nodes
        f = 1.0 + 0.1 * np.sin(r)
        df = 0.1 * np.cos(r)
        d2f = -0.1 * np.sin(r)
        exact = 6.0 / f**2 - 6.0 * d2f / f - 6.0 * (df / f) ** 2
        errs.append(np.max(np.abs(scal_warped(metric) - exact)))
    assert errs[0] / errs[1] == pytest.approx(4.0, abs=0.5)
    assert errs[1] / errs[2] == pytest.approx(4.0, abs=0.5)


def _assert_warped_formula(metric):
    formula = scal_warped_formula(metric)
    assert np.max(np.abs(scal_warped(metric) - formula)) <= 1e-12 * np.max(np.abs(formula))


@pytest.mark.parametrize("name", WARPED_PRESETS)
@pytest.mark.parametrize("n", [64, 257])
def test_scal_warped_is_the_warped_formula_on_presets(name, n):
    _assert_warped_formula(get_preset(name, n=n))


@settings(max_examples=60, deadline=None)
@given(n=st.integers(16, 300), fiber_dim=st.integers(2, 5),
       fiber_scal=st.sampled_from([-2.0, 0.0, 6.0]), seed=st.integers(0, 2**32 - 1))
def test_scal_warped_is_the_warped_formula_on_random_warpings(n, fiber_dim, fiber_scal, seed):
    # a positive trigonometric polynomial of degree 3, periodic on [0, length)
    rng = np.random.default_rng(seed)
    coef = rng.uniform(-0.15, 0.15, size=(2, 3))
    scale, length = rng.uniform(0.3, 3.0), rng.uniform(1.0, 10.0)
    freq = 2 * np.pi / length * np.arange(1, 4)[:, None]
    metric = WarpedProductMetric.from_profile(
        n, length, fiber_dim, fiber_scal,
        lambda r: scale * (1.0 + coef[0] @ np.sin(freq * r) + coef[1] @ np.cos(freq * r)))
    _assert_warped_formula(metric)


def test_ricci_round_product_values():
    metric = get_preset("round-fiber")
    ric_rr, ric_fiber = ricci_warped(metric)
    assert np.allclose(ric_rr, 0.0, atol=1e-12)
    assert np.allclose(ric_fiber, 2.0, atol=1e-12)


def test_ricci_flat_model_vanishes():
    metric = get_preset("flat-torus")
    ric_rr, ric_fiber = ricci_warped(metric)
    assert np.allclose(ric_rr, 0.0, atol=1e-12)
    assert np.allclose(ric_fiber, 0.0, atol=1e-12)


def test_ricci_trace_identity_random_warping():
    rng = np.random.default_rng(23)
    coef = rng.normal(scale=0.05, size=3)
    metric = WarpedProductMetric.from_profile(
        96, 2 * np.pi, 3, 6.0,
        lambda r: 1.0 + coef[0] * np.sin(r) + coef[1] * np.cos(2 * r) + coef[2] * np.sin(3 * r))
    ric_rr, ric_fiber = ricci_warped(metric)
    assert np.max(np.abs(ric_rr + 3 * ric_fiber - scal_warped(metric))) < 1e-8


def test_scal_invariant_under_reflection():
    metric = bumpy(amplitude=0.2)
    n = metric.mesh.node_count
    reflected_profile = metric.warping[(-np.arange(n)) % n]
    reflected = WarpedProductMetric.from_profile(n, 2 * np.pi, 3, 6.0, reflected_profile)
    assert np.allclose(scal_warped(reflected),
                       scal_warped(metric)[(-np.arange(n)) % n], atol=1e-11)


def test_scal_scaling_law():
    metric = bumpy(amplitude=0.15)
    for c in (0.5, 4.0):
        scaled = metric.scaled(c)
        assert np.allclose(scal_warped(scaled), scal_warped(metric) / c, rtol=1e-10, atol=1e-12)


def test_warping_must_be_positive():
    with pytest.raises(ValueError):
        WarpedProductMetric.from_profile(64, 2 * np.pi, 3, 6.0, lambda r: np.sin(r))


def test_from_profile_samples_once_on_the_mesh_nodes():
    calls = []

    def profile(r):
        calls.append(r.copy())
        return 1.0 + 0.1 * np.sin(r)

    metric = WarpedProductMetric.from_profile(64, 2 * np.pi, 3, 6.0, profile)
    assert len(calls) == 1
    assert calls[0].tobytes() == metric.mesh.nodes.tobytes()
    assert metric.warping.tobytes() == profile(metric.mesh.nodes).tobytes()


def test_from_profile_broadcasts_a_scalar_profile():
    metric = WarpedProductMetric.from_profile(64, 2 * np.pi, 3, 6.0, lambda r: 1.2)
    ref = WarpedProductMetric.from_profile(64, 2 * np.pi, 3, 6.0, lambda r: np.full_like(r, 1.2))
    assert metric.warping.tobytes() == ref.warping.tobytes()
    assert metric.mesh.weights.tobytes() == ref.mesh.weights.tobytes()


@pytest.mark.parametrize("profile", [lambda r: np.ones(len(r) + 1),
                                     lambda r: np.ones((len(r), 1)), np.ones(63)],
                         ids=["longer", "column", "array"])
def test_from_profile_rejects_a_profile_of_another_shape(profile):
    with pytest.raises(ValueError, match="profile has shape"):
        WarpedProductMetric.from_profile(64, 2 * np.pi, 3, 6.0, profile)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_warped_metric_rejects_nonfinite_warping(bad):
    f = np.ones(64)
    f[7] = bad
    with pytest.raises(ValueError, match="warping must be finite"):
        WarpedProductMetric.from_profile(64, 2 * np.pi, 3, 6.0, f)
    mesh = bumpy().mesh
    with pytest.raises(ValueError, match="warping must be finite"):
        WarpedProductMetric(mesh=mesh, fiber_dim=3, fiber_scal=6.0, warping=f)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_warped_metric_rejects_nonfinite_fiber_scal(bad):
    with pytest.raises(ValueError, match="^fiber scalar curvature must be finite$"):
        WarpedProductMetric.from_profile(64, 2 * np.pi, 3, bad, np.ones(64))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("name", ["radial", "fiber"])
def test_diagonal_metric_rejects_nonfinite_components(name, bad):
    # each used to build a metric whose scal() is NaN
    components = {"radial": np.ones(64), "fiber": np.ones(64)}
    components[name][7] = bad
    with pytest.raises(ValueError, match=f"^{name} component must be finite and positive$"):
        DiagonalInvariantMetric(bumpy().mesh, 3, 6.0, **components)


def test_diagonal_metric_lives_over_a_circle():
    mesh = build_mesh(INTERVAL, 33, np.pi, np.sin)
    with pytest.raises(ValueError, match="circle"):
        DiagonalInvariantMetric(mesh, 3, 6.0, radial=np.ones(33), fiber=np.full(33, 2.0))


@pytest.mark.parametrize("metric", [bumpy(), as_diagonal(bumpy())], ids=["warped", "diagonal"])
def test_scaled_rejects_a_nan_factor(metric):
    # the diagonal metric used to scale to one whose scal() is NaN; the
    # warped one failed later, with "length must be finite and positive"
    with pytest.raises(ValueError, match="^scale factor must be positive$"):
        metric.scaled(np.nan)


@pytest.mark.parametrize("name", ["A", "B"])
def test_scal_diagonal_rejects_nan_components(name):
    # it used to return NaN
    components = {"A": np.ones(64), "B": np.ones(64)}
    components[name][7] = np.nan
    with pytest.raises(ValueError, match="^metric components must be positive$"):
        scal_diagonal(bumpy().mesh, components["A"], components["B"], 3, 6.0)


def test_from_profile_rejects_a_profile_that_divides_by_zero_without_warning():
    # 1 + 1/r is infinite at the node r = 0; the runner used to print numpy's
    # RuntimeWarning above its configuration error
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="warping must be finite"):
            WarpedProductMetric.from_profile(64, 2 * np.pi, 3, 6.0, lambda r: 1.0 + r**-1.0)


def test_mesh_weight_consistency_enforced():
    metric = bumpy()
    assert np.allclose(metric.mesh.weights, metric.warping**3)


# ---------------------------------------------------------------------------
# left-invariant metrics
# ---------------------------------------------------------------------------


def test_su2_biinvariant_scal():
    assert scal_left_invariant(su2_metric()) == pytest.approx(1.5, rel=1e-14)


def test_abelian_scal_zero():
    rng = np.random.default_rng(29)
    A = rng.normal(size=(4, 4))
    P = A @ A.T + 4 * np.eye(4)
    assert scal_left_invariant(abelian_metric(4, P)) == 0.0


def test_su2_diagonal_matches_curvature_tensor_oracle():
    for lam in (0.5, 2.0):
        m = su2_metric(np.diag([lam, 1.0, 1.0]))
        assert scal_left_invariant(m) == pytest.approx(curvature_tensor_scal(m), abs=1e-10)


def test_su2_berger_closed_form():
    # diag(lam, 1, 1) has scal = 2 - lam/2 in these conventions
    for lam in (0.5, 1.0, 2.0, 3.5):
        m = su2_metric(np.diag([lam, 1.0, 1.0]))
        assert scal_left_invariant(m) == pytest.approx(2.0 - lam / 2.0, rel=1e-12)


def test_sectional_degenerate_plane_is_zero():
    m = su2_metric(np.diag([0.7, 1.3, 2.0]))
    X = np.array([1.0, 2.0, -0.5])
    assert sectional_left_invariant(m, X, 3.0 * X) == pytest.approx(0.0, abs=1e-14)


def test_sectional_biinvariant_quarter_bracket_norm():
    m = su2_metric()
    rng = np.random.default_rng(31)
    for _ in range(20):
        X = rng.normal(size=3)
        Y = rng.normal(size=3)
        expected = 0.25 * np.dot(m.bracket(X, Y), m.bracket(X, Y))
        assert sectional_left_invariant(m, X, Y) == pytest.approx(expected, rel=1e-11, abs=1e-12)


def test_sectional_orthonormal_sum_reproduces_scal():
    rng = np.random.default_rng(37)
    for _ in range(5):
        lam = rng.uniform(0.5, 2.0, 3)
        B = rng.normal(size=(3, 3))
        O = np.linalg.qr(B)[0]
        P = O @ np.diag(lam) @ O.T
        m = su2_metric(P)
        lam_e, O_e = np.linalg.eigh(P)
        total = 0.0
        for i in range(3):
            for j in range(3):
                if i != j:
                    bi = O_e[:, i] / np.sqrt(lam_e[i])
                    bj = O_e[:, j] / np.sqrt(lam_e[j])
                    total += sectional_left_invariant(m, bi, bj)
        assert total == pytest.approx(scal_left_invariant(m), abs=1e-10)


def test_biinvariant_nonnegative_abelian_zero():
    assert scal_left_invariant(su2_metric()) > 0
    so3_plus_line = np.zeros((4, 4, 4))
    so3_plus_line[:3, :3, :3] = su2_structure()
    m = LeftInvariantMetric(so3_plus_line, np.eye(4))
    assert scal_left_invariant(m) > 0
    assert scal_left_invariant(abelian_metric(3)) == 0.0


def test_structure_constant_validation():
    bad = np.zeros((3, 3, 3))
    bad[0, 1, 2] = 1.0  # not antisymmetric
    with pytest.raises(ValueError):
        LeftInvariantMetric(bad, np.eye(3))
    with pytest.raises(ValueError):
        LeftInvariantMetric(su2_structure(), np.diag([1.0, -1.0, 1.0]))
    # an infinite entry used to construct, and a NaN read as "not symmetric"
    for bad_entry in (np.inf, np.nan):
        with pytest.raises(ValueError, match="^tensor must be finite$"):
            LeftInvariantMetric(su2_structure(), np.diag([bad_entry, 1.0, 1.0]))


# ---------------------------------------------------------------------------
# catalogue
# ---------------------------------------------------------------------------


def test_preset_catalogue():
    assert isinstance(get_preset("round-fiber"), WarpedProductMetric)
    assert isinstance(get_preset("flat-torus"), WarpedProductMetric)
    assert np.allclose(scal_warped(get_preset("hyperbolic-fiber")), -2.0, atol=1e-12)
    berger = get_preset("su2-berger(0.5)")
    assert isinstance(berger, LeftInvariantMetric)
    assert berger.tensor[0, 0] == 0.5
    assert isinstance(get_preset("su2-biinvariant"), LeftInvariantMetric)
    with pytest.raises(KeyError):
        get_preset("nonexistent")

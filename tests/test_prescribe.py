"""Linearization, exact adjoint, Newton prescription, reparametrizations."""

import re
import sys
import warnings
from fractions import Fraction

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from curvlab import (DiagonalInvariantMetric, Diffeo1D, MetricPerturbation,
                     PreconditionError, PrescribeConfig, SolverError,
                     WarpedProductMetric, approximate_by_diffeo, circle_mesh,
                     full_prescribe, get_preset, kernel_min_singular,
                     linearize_scal_adjoint, linearize_scal_matrix,
                     newton_prescribe, ricci_warped,
                     scal_warped, tensor_inner)
from curvlab.mesh import INTERVAL, build_mesh
from curvlab._newton import condensed_solver
from curvlab.prescribe import (_KERNEL_FLOOR, _SUP_TOL, _greedy_walk, _monotone_runs,
                               _newton_step, _periodic_interp, _window_constant)

from oracles import (adjoint_formula, adjoint_matrix, adjoint_norm1, dense_kernel_min_singular,
                     dense_scal_jacobian, exact_window, fine_circle_norm, greedy_walk_loop,
                     linearize_scal, monotone_runs_loop, periodic_interp_mod, perturbed_scal,
                     pinching_check, scal_operator, sparse_product_jacobian,
                     sparse_product_newton_step, window_constant_loop)


def bumpy(amplitude=0.2, n=64):
    return WarpedProductMetric.from_profile(
        n, 2 * np.pi, 3, 6.0, lambda r: 1.0 + amplitude * np.sin(r))


def random_perturbation(rng, n):
    def trig(scale):
        return (scale * rng.normal() * np.sin(np.arange(n) * 2 * np.pi / n)
                + scale * rng.normal() * np.cos(np.arange(n) * 2 * np.pi / n * 2)
                + scale * rng.normal())
    return MetricPerturbation(a=trig(0.5), b=trig(0.5))


# ---------------------------------------------------------------------------
# the curvature operator and its linearization
# ---------------------------------------------------------------------------


def test_scal_operator_delegates():
    metric = bumpy()
    assert np.array_equal(scal_operator(metric), scal_warped(metric))
    flat = get_preset("flat-torus")
    assert np.allclose(scal_operator(flat), 0.0, atol=1e-12)


def test_linearization_of_zero_is_zero():
    metric = bumpy()
    n = metric.mesh.node_count
    out = linearize_scal(metric, MetricPerturbation(np.zeros(n), np.zeros(n)))
    assert np.array_equal(out, np.zeros(n))


def test_linearization_homothety_direction():
    # d/dt scal((1 + 2t) g) at t = 0 equals -2 scal
    metric = bumpy()
    n = metric.mesh.node_count
    h = MetricPerturbation(np.full(n, 2.0), np.full(n, 2.0))
    out = linearize_scal(metric, h)
    assert np.allclose(out, -2.0 * scal_warped(metric), atol=1e-7)


def test_linearization_is_linear():
    rng = np.random.default_rng(109)
    metric = bumpy()
    n = metric.mesh.node_count
    for _ in range(5):
        h1 = random_perturbation(rng, n)
        h2 = random_perturbation(rng, n)
        combined = MetricPerturbation(h1.a + h2.a, h1.b + h2.b)
        lhs = linearize_scal(metric, combined)
        rhs = linearize_scal(metric, h1) + linearize_scal(metric, h2)
        assert np.max(np.abs(lhs - rhs)) < 1e-6 * max(1.0, np.max(np.abs(lhs)))


def test_linearization_matrix_matches_differencing():
    rng = np.random.default_rng(113)
    metric = bumpy()
    n = metric.mesh.node_count
    A_mat = linearize_scal_matrix(metric)
    for _ in range(5):
        h = random_perturbation(rng, n)
        fd = linearize_scal(metric, h)
        exact = A_mat @ h.flat()
        assert np.max(np.abs(fd - exact)) < 1e-7 * max(1.0, np.max(np.abs(exact)))


@pytest.mark.parametrize("n", [16, 17, 64])
def test_sparse_jacobian_matches_dense_chain_rule(n):
    metric = bumpy(n=n)
    r = metric.mesh.nodes
    A = 1.0 + 0.1 * np.cos(r)
    B = metric.warping**2 * (1.0 + 0.05 * np.sin(2 * r))
    diagonal = DiagonalInvariantMetric(metric.mesh, 3, 6.0, radial=A, fiber=B)
    for args in ((metric,), (metric, A, B), (diagonal,)):
        J = linearize_scal_matrix(*args)
        ref = dense_scal_jacobian(*args)
        assert isinstance(J, sp.csr_array) and J.shape == (n, 2 * n)
        assert np.max(np.abs(J.toarray() - ref)) <= 1e-13 * np.max(np.abs(ref))
        for block in (J[:, :n], J[:, n:]):
            assert np.max(np.diff(block.tocsr().indptr)) <= 5


def jacobian_arguments(n, topology):
    """Arguments of `linearize_scal_matrix` whose chain-rule terms vanish in
    different places: a warped base, a constant warping, random A and B, and
    diagonal metrics on circle and interval meshes."""
    rng = np.random.default_rng(n)
    A = 1.0 + 0.2 * rng.uniform(size=n)
    B = 0.5 + rng.uniform(size=n)
    if topology == "interval":
        mesh = build_mesh(INTERVAL, n, np.pi, np.sin)
        return [(DiagonalInvariantMetric(mesh, 3, 6.0, radial=A, fiber=B),),
                (DiagonalInvariantMetric(mesh, 2, -2.0, radial=np.ones(n), fiber=np.full(n, 2.0)),)]
    metric = bumpy(n=n)
    return [(metric,), (get_preset("round-fiber", n=n),), (get_preset("flat-torus", n=n),),
            (metric, A, metric.warping**2 * B),
            (DiagonalInvariantMetric(metric.mesh, 3, 6.0, radial=A, fiber=B),)]


@pytest.mark.parametrize("topology", ["circle", "interval"])
@pytest.mark.parametrize("n", [16, 17, 64])
def test_pattern_jacobian_matches_dense_chain_rule(n, topology):
    layouts = set()
    for args in jacobian_arguments(n, topology):
        J = linearize_scal_matrix(*args)
        ref = dense_scal_jacobian(*args)
        assert isinstance(J, sp.csr_array) and J.shape == (n, 2 * n)
        assert J.has_sorted_indices
        assert np.max(np.abs(J.toarray() - ref)) <= 1e-13 * np.max(np.abs(ref))
        assert np.array_equal(J.toarray(), sparse_product_jacobian(*args).toarray())
        layouts.add((J.indices.tobytes(), J.indptr.tobytes()))
    assert len(layouts) == 1  # the index arrays do not depend on A and B


def test_huge_perturbation_rejected():
    metric = bumpy()
    n = metric.mesh.node_count
    bad = MetricPerturbation(np.full(n, -1e12), np.zeros(n))
    with pytest.raises(PreconditionError):
        perturbed_scal(metric, bad, 1.0)


# ---------------------------------------------------------------------------
# adjoint
# ---------------------------------------------------------------------------


def test_adjoint_vanishes_on_ricci_flat_constants():
    flat = get_preset("flat-torus")
    out = linearize_scal_adjoint(flat, np.ones(64))
    assert np.max(np.abs(out.a)) < 1e-12
    assert np.max(np.abs(out.b)) < 1e-12


def test_adjoint_of_one_is_minus_ricci():
    # -(lap 1) g + Hess 1 - Ric = -Ric; round product: radial 0, fiber -2
    errs = []
    for n in (64, 128, 256):
        metric = get_preset("round-fiber", n=n)
        out = linearize_scal_adjoint(metric, np.ones(n))
        ric_rr, ric_fiber = ricci_warped(metric)
        errs.append(max(np.max(np.abs(out.a + ric_rr)), np.max(np.abs(out.b + ric_fiber))))
    assert errs[0] < 1e-10  # constant-coefficient background: exact
    assert np.allclose(linearize_scal_adjoint(get_preset("round-fiber"), np.ones(64)).b,
                       -2.0, atol=1e-10)


def test_adjoint_matches_formula_to_second_order():
    errs = []
    for n in (64, 128, 256):
        metric = bumpy(n=n)
        r = metric.mesh.nodes
        u = 1.0 + 0.3 * np.cos(r)
        exact_adjoint = linearize_scal_adjoint(metric, u)
        formula = adjoint_formula(metric, u)
        errs.append(max(np.max(np.abs(exact_adjoint.a - formula.a)),
                        np.max(np.abs(exact_adjoint.b - formula.b))))
    assert errs[0] / errs[1] == pytest.approx(4.0, abs=1.0)
    assert errs[1] / errs[2] == pytest.approx(4.0, abs=1.0)


def test_adjointness_identity():
    rng = np.random.default_rng(127)
    metric = bumpy(n=256)
    n = 256
    mesh = metric.mesh
    for _ in range(20):
        h = random_perturbation(rng, n)
        u = 1.0 + 0.5 * rng.normal(size=3) @ np.array(
            [np.sin(mesh.nodes), np.cos(2 * mesh.nodes), np.ones(n)])
        lhs = mesh.inner(linearize_scal(metric, h), u)
        rhs = tensor_inner(mesh, 3, h, linearize_scal_adjoint(metric, u))
        hnorm = np.sqrt(tensor_inner(mesh, 3, h, h))
        unorm = mesh.lp_norm(u, 2)
        assert abs(lhs - rhs) < 1e-6 * hnorm * unorm


def test_kernel_dichotomy_quantified():
    flat = get_preset("flat-torus", n=256)
    assert kernel_min_singular(flat) < 1e-10
    generic = bumpy(n=256)
    assert kernel_min_singular(generic) > 1e-3


def test_round_product_constants_not_kernel():
    # A*(1) = -Ric != 0: the smallest singular value is bounded by the
    # constant direction's image, and the trace of A*(1) recovers -scal,
    # matching (n-1)(-lap u) = scal u having no constant solution
    metric = get_preset("round-fiber", n=128)
    out = linearize_scal_adjoint(metric, np.ones(128))
    trace = out.a + 3 * out.b
    assert np.allclose(trace, -6.0, atol=1e-9)
    mesh = metric.mesh
    norm_ratio = np.sqrt(tensor_inner(mesh, 3, out, out)) / mesh.lp_norm(np.ones(128), 2)
    sigma = kernel_min_singular(metric)
    assert 0 < sigma <= norm_ratio + 1e-12


@st.composite
def warped_backgrounds(draw):
    """Warpings 1 + a1 sin r + a2 cos 2r + a3 sin 3r on round, flat and
    hyperbolic fibers; each amplitude is 0 or at least 0.02 in size, so a
    background is either exactly a kernel one or far from the floor."""
    amplitude = st.one_of(st.just(0.0), st.floats(0.02, 0.3), st.floats(-0.3, -0.02))
    a1, a2, a3 = draw(amplitude), draw(amplitude), draw(amplitude)
    return WarpedProductMetric.from_profile(
        draw(st.integers(16, 512)), 2 * np.pi, draw(st.sampled_from([2, 3])),
        draw(st.sampled_from([-2.0, 0.0, 6.0])),
        lambda r: 1.0 + a1 * np.sin(r) + a2 * np.cos(2 * r) + a3 * np.sin(3 * r))


@settings(max_examples=60, deadline=None)
@given(warped_backgrounds())
def test_kernel_min_singular_matches_dense_svd(metric):
    sparse, dense = kernel_min_singular(metric), dense_kernel_min_singular(metric)
    floor = _KERNEL_FLOOR * adjoint_norm1(metric)
    assert (sparse < floor) == (dense < floor)
    if dense >= floor:
        assert abs(sparse - dense) <= 1e-9 * dense


@pytest.mark.parametrize("n", [16, 17, 32, 33])
@pytest.mark.parametrize("name", ["round-fiber", "hyperbolic-fiber", "bumpy"])
def test_kernel_min_singular_matches_dense_svd_at_both_parities(name, n):
    # the middle of the fold order differs for odd and even N
    metric = get_preset(name, n=n)
    dense = dense_kernel_min_singular(metric)
    assert abs(kernel_min_singular(metric) - dense) <= 1e-9 * dense


@pytest.mark.parametrize("name", ["round-fiber", "hyperbolic-fiber", "flat-torus", "bumpy"])
def test_kernel_min_singular_repeats_bit_for_bit(name):
    metric = get_preset(name, n=256)
    first = kernel_min_singular(metric).hex()
    assert kernel_min_singular(metric).hex() == first
    # a fresh metric of the same N reads the band layout built by the first
    assert kernel_min_singular(get_preset(name, n=256)).hex() == first


def forbid_dense_matrices(monkeypatch, *routines):
    """Make `toarray` on every sparse array, and each (module, name) routine
    given, raise."""
    def dense_route(*args, **kwargs):
        raise AssertionError("a dense matrix was formed")
    for array in (sp.csr_array, sp.csc_array, sp.coo_array):
        monkeypatch.setattr(array, "toarray", dense_route)
    for module, name in routines:
        monkeypatch.setattr(module, name, dense_route)


def test_kernel_min_singular_forms_no_dense_matrix(monkeypatch):
    forbid_dense_matrices(monkeypatch, (np.linalg, "svd"))
    assert kernel_min_singular(bumpy(n=4096)) > 1e-3


@pytest.mark.parametrize("n", [1024, 4096])
def test_flat_torus_is_a_kernel_background_at_large_n(n):
    flat = get_preset("flat-torus", n=n)
    assert kernel_min_singular(flat) < _KERNEL_FLOOR * adjoint_norm1(flat)
    with pytest.raises(PreconditionError) as info:
        newton_prescribe(flat, 0.05 * np.sin(flat.mesh.nodes))
    assert info.value.condition == "kernel-dichotomy"


@pytest.mark.parametrize("name,bumped,lower,upper", [
    ("flat-torus", False, 0.0, 1e-16), ("flat-torus", True, 1.1e-11, np.inf),
    ("round-fiber", False, 6e-9, np.inf), ("hyperbolic-fiber", False, 6e-9, np.inf),
    ("bumpy", False, 6e-9, np.inf)])
def test_kernel_floor_table_at_n_4096(name, bumped, lower, upper):
    # the relative margins the README states for N up to 32768
    metric = get_preset(name, n=4096)
    metric = escape_bumped(metric) if bumped else metric
    assert lower <= kernel_min_singular(metric) / adjoint_norm1(metric) < upper


def test_kernel_min_singular_of_an_exactly_singular_system_is_zero():
    # at N = 17 the band LU of the flat torus's augmented matrix meets an
    # exact zero pivot, its last one
    flat = get_preset("flat-torus", n=17)
    assert kernel_min_singular(flat) == 0.0
    assert dense_kernel_min_singular(flat) < _KERNEL_FLOOR * adjoint_norm1(flat)


def test_kernel_min_singular_without_lanczos_convergence_is_a_solver_error(monkeypatch):
    import scipy.sparse.linalg as spla

    def no_convergence(*args, **kwargs):
        raise spla.ArpackNoConvergence("ARPACK error -1: No convergence",
                                       np.empty(0), np.empty((0, 0)))
    monkeypatch.setattr(spla, "eigsh", no_convergence)
    with pytest.raises(SolverError, match="^kernel test: Lanczos did not converge"):
        kernel_min_singular(bumpy())


# ---------------------------------------------------------------------------
# Newton prescription
# ---------------------------------------------------------------------------


def test_newton_fixed_point_at_current_curvature():
    metric = bumpy()
    result = newton_prescribe(metric, scal_warped(metric))
    assert np.max(np.abs(result.u)) == 0.0
    assert result.residuals[-1] < 1e-10


def test_newton_small_perturbation_quadratic_decay():
    metric = bumpy(n=128)
    r = metric.mesh.nodes
    target = scal_warped(metric) + 0.01 * np.sin(r)
    result = newton_prescribe(metric, target, PrescribeConfig(newton_tol=1e-8))
    assert result.residuals[-1] < 1e-8
    out = result.metric_out.scal()
    assert np.max(np.abs(out - target)) < 1e-7
    hist = [x for x in result.residuals if x > 1e-13]
    ratios = [b / a for a, b in zip(hist, hist[1:])]
    assert any(rho < 0.3 for rho in ratios[1:] if True)


def test_newton_budget_admits_a_converging_last_step():
    # the budget once raised when the last step it allowed converged
    metric = get_preset("hyperbolic-fiber", n=64)
    target = scal_warped(metric) * (1.0 + 0.05 * np.sin(metric.mesh.nodes))
    free = newton_prescribe(metric, target)
    steps = len(free.residuals) - 1
    assert steps == 3
    exact = newton_prescribe(metric, target, PrescribeConfig(newton_max_iter=steps))
    assert exact.residuals == free.residuals
    for got, want in ((exact.u, free.u), (exact.metric_out.radial, free.metric_out.radial),
                      (exact.metric_out.fiber, free.metric_out.fiber)):
        assert got.tobytes() == want.tobytes()
    with pytest.raises(SolverError, match=f"after {steps - 1} iterations"):
        newton_prescribe(metric, target, PrescribeConfig(newton_max_iter=steps - 1))


SETTING_REJECTIONS = {"newton_tol": "newton_tol and newton_max_iter must be positive",
                      "newton_max_iter": "newton_tol and newton_max_iter must be positive",
                      "p": "p must be >= 1", "eps": "eps must be positive"}


@pytest.mark.parametrize("name,value", [("newton_tol", np.nan), ("newton_tol", 0.0),
                                        ("newton_max_iter", 0), ("newton_max_iter", -1),
                                        ("p", np.nan), ("p", 0.5), ("eps", np.nan), ("eps", 0.0)])
def test_prescribe_config_rejects_nan_and_out_of_range_settings(name, value):
    # newton_max_iter = -1 used to reach the Newton driver, which returned
    # None from an empty step loop
    with pytest.raises(ValueError, match=f"^{SETTING_REJECTIONS[name]}$"):
        PrescribeConfig(**{name: value})


def test_newton_rejects_flat_kernel():
    flat = get_preset("flat-torus")
    with pytest.raises(PreconditionError):
        newton_prescribe(flat, np.full(64, 0.01))


def test_newton_contraction_in_quadratic_regime():
    metric = bumpy(n=128)
    r = metric.mesh.nodes
    target = scal_warped(metric) + 0.05 * np.cos(2 * r)
    result = newton_prescribe(metric, target, PrescribeConfig(newton_tol=1e-8))
    hist = list(result.residuals)
    small = [i for i, v in enumerate(hist) if v < 1e-2]
    for i in small[:-1]:
        if hist[i] > 1e-12:
            assert hist[i + 1] / hist[i] < 0.3


@settings(max_examples=40, deadline=None)
@given(n=st.integers(16, 512), fiber_scal=st.sampled_from([-2.0, 2.0, 6.0]),
       amplitude=st.floats(0.0, 0.3), harmonic=st.integers(1, 3), phase=st.floats(0.0, 6.3),
       scale=st.sampled_from([0.0, 1e-6, 1e-3, 1.0]), offset=st.floats(-1.0, 1.0),
       seed=st.integers(0, 2**32 - 1))
def test_cyclic_solve_matches_the_dense_system(n, fiber_scal, amplitude, harmonic, phase,
                                               scale, offset, seed):
    # J.Q of a random warping minus a random diagonal shift of either sign,
    # relative to J.Q's largest entry.  The flat torus, whose J.Q is
    # singular, is left out (fiber_scal 0 and a constant warping).
    rng = np.random.default_rng(seed)
    metric = WarpedProductMetric.from_profile(
        n, 2 * np.pi, 3, fiber_scal, lambda r: 1.0 + amplitude * np.sin(harmonic * r + phase))
    JQ = linearize_scal_matrix(metric) @ adjoint_matrix(metric).tocsr()
    shift = scale * np.max(np.abs(JQ.data)) * (offset + rng.uniform(-1.0, 1.0, n))
    A = (JQ - sp.diags_array(shift)).tocsr()
    rhs = rng.normal(size=n)
    dense = A.toarray()
    expected = np.linalg.solve(dense, rhs)
    x = condensed_solver(np.repeat(np.arange(n), np.diff(A.indptr)), A.indices, n, (0, 1))(
        A.data, rhs)
    # both solves err by about eps times a condition number: the dense one by
    # A's, the condensation also by the interior block's on nodes 2..N-1
    kappa = max(np.linalg.cond(dense), np.linalg.cond(dense[2:, 2:]))
    bound = max(1e-10, 4.0 * np.finfo(float).eps * kappa)
    assert np.linalg.norm(x - expected) <= bound * np.linalg.norm(expected)


def test_newton_prescribe_singular_schur_complement_is_a_solver_error(monkeypatch):
    # each step Jacobian gets a zero row 0, so J.Q has a zero separator row
    # and a singular 2x2 Schur complement, while its block on nodes 2..N-1
    # stays regular; the entries are zeroed in place, as the step's plan
    # fixes J's pattern
    import curvlab.prescribe as prescribe
    jacobian = prescribe.linearize_scal_matrix

    def zero_separator_row(metric, A=None, B=None):
        J = jacobian(metric, A=A, B=B)
        if A is not None:
            J.data[J.indptr[0]:J.indptr[1]] = 0.0
        return J

    monkeypatch.setattr(prescribe, "linearize_scal_matrix", zero_separator_row)
    metric = get_preset("hyperbolic-fiber", n=64)
    target = scal_warped(metric) * (1.0 + 0.05 * np.sin(metric.mesh.nodes))
    with pytest.raises(SolverError, match="^singular .*rank-deficient Schur complement"):
        newton_prescribe(metric, target)


def test_newton_prescribe_nan_trial_point_is_inadmissible(monkeypatch):
    # a NaN metric used to pass the positivity test of evaluate, so scal_diagonal
    # saw it; a NaN trial point is outside the admissible set, like a negative
    # one.  Every step the driver is handed is replaced by NaNs.
    import curvlab._newton as newton
    driver = newton.damped_newton

    def nan_steps(x, evaluate, solve, *args):
        return driver(x, evaluate, lambda x, state: np.full_like(x, np.nan), *args)

    monkeypatch.setattr(newton, "damped_newton", nan_steps)
    metric = get_preset("hyperbolic-fiber", n=64)
    target = scal_warped(metric) * (1.0 + 0.05 * np.sin(metric.mesh.nodes))
    with pytest.raises(SolverError, match="^prescription Newton step has no admissible trial"):
        newton_prescribe(metric, target)


def test_newton_prescribe_forms_no_dense_n_by_n_system(monkeypatch):
    # every SVD and dense solve of a step is on the 2x2 Schur complement, one
    # of each per step
    shapes = {"svd": [], "solve": []}

    def recording(name):
        routine = getattr(np.linalg, name)

        def record(a, *args, **kwargs):
            shapes[name].append(np.shape(a))
            return routine(a, *args, **kwargs)
        return record

    for name in shapes:
        monkeypatch.setattr(np.linalg, name, recording(name))
    forbid_dense_matrices(monkeypatch)
    metric = get_preset("round-fiber", n=4096)
    result = newton_prescribe(metric, 6.0 * (1.0 + 0.1 * np.sin(metric.mesh.nodes)))
    steps = len(result.residuals) - 1
    assert steps > 0
    assert shapes == {"svd": [(2, 2)] * steps, "solve": [(2, 2)] * steps}


@settings(max_examples=60, deadline=None)
@given(n=st.integers(16, 512), fiber_scal=st.sampled_from([-2.0, 0.0, 6.0]),
       amplitude=st.floats(0.0, 0.3), harmonic=st.integers(1, 3), phase=st.floats(0.0, 6.3),
       size=st.sampled_from([0.0, 1e-3, 0.1]), seed=st.integers(0, 2**32 - 1))
def test_planned_newton_step_is_the_sparse_product_step(n, fiber_scal, amplitude, harmonic,
                                                         phase, size, seed):
    # the step at a random admissible iterate (A, B), bit for bit the one the
    # sparse products J @ Q and a condensed solve on J.Q's own pattern give
    rng = np.random.default_rng(seed)
    metric = WarpedProductMetric.from_profile(
        n, 2 * np.pi, 3, fiber_scal, lambda r: 1.0 + amplitude * np.sin(harmonic * r + phase))
    A = 1.0 + size * rng.uniform(-1.0, 1.0, n)
    B = metric.warping**2 * (1.0 + size * rng.uniform(-1.0, 1.0, n))
    r = rng.normal(size=n)
    norm, step = _newton_step(metric)
    try:
        expected_norm, expected = sparse_product_newton_step(metric, A, B, r)
    except np.linalg.LinAlgError as err:  # the flat torus: J.Q is singular
        with pytest.raises(np.linalg.LinAlgError, match=re.escape(str(err))):
            step(None, (r, A, B))
        return
    assert norm.hex() == expected_norm.hex()
    assert step(None, (r, A, B)).tobytes() == expected.tobytes()


def test_newton_prescribe_builds_one_sparse_array_per_jacobian(monkeypatch):
    # k steps: the base-point Jacobian, the kernel test's and one per step,
    # and no other CSR or CSC array (the adjoint, J.Q and B are plain arrays)
    built = []
    for array in (sp.csr_array, sp.csc_array):
        init = array.__init__

        def counting(self, *args, _init=init, **kwargs):
            built.append(type(self).__name__)
            _init(self, *args, **kwargs)
        monkeypatch.setattr(array, "__init__", counting)
    metric = get_preset("hyperbolic-fiber", n=64)
    target = scal_warped(metric) * (1.0 + 0.05 * np.sin(metric.mesh.nodes))
    newton_prescribe(metric, target)  # the mesh builds its stencil pattern once
    built.clear()
    result = newton_prescribe(metric, target)
    steps = len(result.residuals) - 1
    assert steps > 0
    assert built == ["csr_array"] * (steps + 2)


# ---------------------------------------------------------------------------
# pinching window
# ---------------------------------------------------------------------------


def window_rejection(target, scal):
    with pytest.raises(PreconditionError) as info:
        _window_constant(target, scal)
    return info.value.condition


def test_pinching_strictness():
    scal = np.full(64, 6.0)
    assert not pinching_check(np.full(64, 6.0), scal, 1.0)
    assert window_rejection(np.full(64, 6.0), scal) == "pinching-window"


def test_pinching_window_holds():
    r = np.linspace(0, 2 * np.pi, 64, endpoint=False)
    assert pinching_check(6.0 + np.sin(r), np.full(64, 6.0), 1.0)
    assert _window_constant(6.0 + np.sin(r), np.full(64, 6.0)) == 1.0


def test_pinching_negative_target_fails():
    scal = np.full(64, 6.0)
    target = -1.0 - 0.1 * np.sin(np.linspace(0, 2 * np.pi, 64, endpoint=False))
    for c in np.logspace(-3, 3, 61):
        assert not pinching_check(target, scal, float(c))
    assert window_rejection(target, scal) == "pinching-window"


window_samples = st.lists(st.floats(-50.0, 50.0), min_size=1, max_size=40)


@settings(max_examples=300, deadline=None)
@given(window_samples, window_samples)
def test_pinching_window_matches_pinching_check(target, scal):
    # `_window_constant` returns a grid constant that passes pinching_check
    # when there is one; otherwise it rejects, or returns a constant off the
    # grid that passes.  The window depends on target and scal only through
    # their extremes, so the two-point stand-ins below probe it while the
    # lengths may differ.
    grid = np.logspace(-3.0, 3.0, 61)
    window = [float(c) for c in grid if pinching_check(target, scal, c)]
    probe = [min(target), max(target)]
    bounds = [min(scal), max(scal)]
    try:
        c = _window_constant(probe, bounds)
    except PreconditionError as err:
        assert err.condition == "pinching-window" and not window
    else:
        assert c in window if window else c not in grid
        assert pinching_check(target, scal, c)


@st.composite
def window_pairs(draw, values=st.floats(-50.0, 50.0)):
    """A target and a curvature sampled at the same nodes."""
    n = draw(st.integers(1, 40))
    sample = st.lists(values, min_size=n, max_size=n)
    return draw(sample), draw(sample)


@settings(max_examples=300, deadline=None)
@given(window_pairs())
def test_window_constant_matches_per_candidate_loop(pair):
    # the loop's constant, bit for bit, whenever a grid constant passes
    # pinching_check; otherwise a rejection, or a constant off the grid that
    # passes
    target, scal = pair
    expected = window_constant_loop(target, scal)
    if expected is not None:
        assert _window_constant(target, scal).hex() == expected.hex()
        return
    try:
        c = _window_constant(target, scal)
    except PreconditionError as err:
        assert err.condition == "pinching-window"
    else:
        assert c not in np.logspace(-3.0, 3.0, 61) and pinching_check(target, scal, c)


@settings(max_examples=500, deadline=None)
@given(window_pairs(st.floats(-50.0, 50.0, allow_subnormal=False)))
def test_pinching_window_is_rejected_only_when_the_exact_window_is_empty(pair):
    # whenever the constant is rejected, the exact window, from the oracle's
    # rational arithmetic, is empty, too thin for floating point (relative
    # width below 1e-12) or beyond the largest double; a returned constant
    # passes the strict test.  Subnormal samples are left out: their
    # products with a constant keep too few digits for a strict test near
    # the window's ends.
    target, scal = pair
    window = exact_window(target, scal)
    try:
        c = _window_constant(target, scal)
    except PreconditionError as err:
        assert err.condition == "pinching-window"
        assert (window is None or window[0] >= Fraction(sys.float_info.max)
                or (window[1] is not None and window[1] <= window[0] * (1 + Fraction(1, 10**12))))
    else:
        assert window is not None
        assert pinching_check(target, scal, c)


def test_window_constant_between_grid_points_is_the_geometric_midpoint():
    # the window (1, 1.1) holds no grid constant: 1 is its open end, and the
    # next one is 10^0.1 = 1.26
    target = np.array([1.0, 1.05, 1.1])
    c = _window_constant(target, np.full(3, 1.1))
    assert c == pytest.approx(np.sqrt(1.1), rel=1e-15)
    assert pinching_check(target, np.full(3, 1.1), c)
    # unbounded above, from 2e3: twice its lower end
    assert _window_constant(np.array([-1.0, 1e-3]), np.array([1.0, 2.0])) == pytest.approx(4e3)


def test_full_prescribe_solves_in_a_window_between_grid_points():
    # round fiber, scal = 6: the window (1.12 / 1.02, 1.12 / 0.98) lies
    # between the grid constants 1 and 1.26, so the grid alone rejected it
    metric = get_preset("round-fiber", n=64)
    target = 6.0 / 1.12 * (1.0 + 0.02 * np.sin(metric.mesh.nodes))
    result = full_prescribe(metric, target)
    assert 1.12 / 1.02 < result.c < 1.12 / 0.98
    assert result.path == "identity"
    assert np.max(np.abs(result.metric_out.scal() - target)) <= _SUP_TOL


def test_pinching_window_on_sign_changing_targets():
    r = np.linspace(0, 2 * np.pi, 64, endpoint=False)
    for target, scal in ((0.05 * np.sin(r), np.zeros(64)), (np.sin(r), 0.3 * np.cos(r)),
                         (np.sin(r) - 0.5, np.full(64, 0.2)), (6.0 + np.sin(r), np.full(64, 6.0))):
        expected = window_constant_loop(target, scal)
        assert expected is not None
        assert _window_constant(target, scal).hex() == expected.hex()


# ---------------------------------------------------------------------------
# monotone reparametrizations
# ---------------------------------------------------------------------------


def test_identity_when_target_equals_source():
    metric = bumpy()
    f = scal_warped(metric)
    result = approximate_by_diffeo(metric.mesh, f, f.copy())
    assert result.achieved_error == 0.0
    assert np.allclose(result.phi.node_values, metric.mesh.nodes)


def test_sine_to_zero_concentrates_at_roots():
    mesh = get_preset("round-fiber").mesh
    f = np.sin(mesh.nodes)
    target = np.zeros(64)
    result = approximate_by_diffeo(mesh, f, target, p=2.0, eps=1e-2)
    assert result.achieved_error < 1e-2
    composed = np.interp(np.mod(result.phi.node_values, mesh.length),
                         np.append(mesh.nodes, mesh.length), np.append(f, f[0]))
    assert np.max(np.abs(composed)) < 0.05


@pytest.mark.parametrize("name,value", [("p", np.nan), ("p", 0.5), ("eps", np.nan),
                                        ("eps", -1.0)])
def test_approximation_rejects_nan_and_out_of_range_settings(name, value):
    # a NaN eps or p used to return achieved_error = nan
    mesh = get_preset("round-fiber").mesh
    f = np.sin(mesh.nodes)
    with pytest.raises(ValueError, match=f"^{SETTING_REJECTIONS[name]}$"):
        approximate_by_diffeo(mesh, f, 0.5 * f, **{name: value})


def nonfinite_call(call, argument):
    """Run ``call`` with warnings as errors; it must raise the ValueError that
    says ``argument`` must be finite."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"^{argument} must be finite$"):
            call()


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_prescription_rejects_a_nonfinite_target(bad):
    # a NaN target was refused as pinching-window, an infinite one ran Newton
    # to "no admissible trial point (residual inf)"; newton_prescribe ended a
    # NaN target in "(residual nan)"
    metric = get_preset("round-fiber", n=64)
    target = scal_warped(metric) * (1.0 + 0.05 * np.sin(metric.mesh.nodes))
    target[7] = bad
    nonfinite_call(lambda: full_prescribe(metric, target), "target")
    nonfinite_call(lambda: newton_prescribe(metric, target), "target K")


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("argument", ["source", "target"])
def test_approximation_rejects_a_nonfinite_function(argument, bad):
    # a NaN source was refused as winding-obstruction and an infinite one
    # returned a map; a NaN target ended in the internal "cell 3 has no
    # candidate position", an infinite one in range-hypothesis
    mesh = get_preset("round-fiber", n=64).mesh
    functions = {"source": np.sin(mesh.nodes), "target": 0.5 * np.sin(mesh.nodes)}
    functions[argument][4] = bad
    nonfinite_call(lambda: approximate_by_diffeo(mesh, **functions), argument)


def test_range_hypothesis_rejected():
    mesh = get_preset("round-fiber").mesh
    f = np.sin(mesh.nodes)
    with pytest.raises(PreconditionError):
        approximate_by_diffeo(mesh, f, np.full(64, 2.0))


def test_diffeo_monotone_winding_one():
    mesh = get_preset("round-fiber").mesh
    rng = np.random.default_rng(131)
    f = 1.0 + np.sin(mesh.nodes) + 0.4 * np.sin(2 * mesh.nodes + 0.7)
    g = 1.0 + 0.6 * np.sin(mesh.nodes + rng.uniform(0, 2 * np.pi))
    result = approximate_by_diffeo(mesh, f, g, p=2.0, eps=1e-2)
    phi = result.phi
    assert np.all(np.diff(phi.node_values) > 0)
    assert np.all(phi.node_derivatives > 0)
    assert phi(np.array([mesh.length])) - phi(np.array([0.0])) == pytest.approx(mesh.length)
    independent = fine_circle_norm(phi, mesh.nodes, f, g, mesh.weights, mesh.length, 2.0)
    assert independent < 1e-2


@st.composite
def increasing_lifts(draw):
    """A circle mesh and a strictly increasing lift over one period starting at
    break_x = 0, as `approximate_by_diffeo` builds them; the inner breakpoints
    are drawn anywhere or on mesh nodes."""
    n = draw(st.integers(16, 96))
    L = draw(st.sampled_from([1.0, 2 * np.pi, 37.5]))
    mesh = circle_mesh(n, L)
    if draw(st.booleans()):
        inner = np.cumsum(draw(st.lists(st.floats(0.01, 1.0), min_size=2, max_size=40)))
        bx = np.append(L * inner[:-1] / inner[-1], L)
    else:
        on_nodes = draw(st.sets(st.integers(1, n - 1), max_size=n - 1))
        bx = np.append(mesh.nodes[sorted(on_nodes)], L)
    rises = np.cumsum(draw(st.lists(st.floats(0.01, 1.0), min_size=len(bx), max_size=len(bx))))
    y0 = draw(st.floats(-L, L))
    by = np.append(y0, y0 + L * rises / rises[-1])
    by[-1] = y0 + L
    return mesh, np.append(0.0, bx), by


@settings(max_examples=300, deadline=None)
@given(increasing_lifts())
def test_diffeo_node_samples_are_read_from_the_lift(lift):
    mesh, bx, by = lift
    phi = Diffeo1D(mesh=mesh, break_x=bx, break_y=by)
    assert phi.node_values.tobytes() == np.interp(mesh.nodes, bx, by).tobytes()
    for x, derivative in zip(mesh.nodes, phi.node_derivatives):
        j = int(np.flatnonzero(bx <= x)[-1])  # the piece the node starts or lies in
        assert derivative == (by[j + 1] - by[j]) / (bx[j + 1] - bx[j])
    identity = Diffeo1D.identity(mesh)
    assert identity.node_values.tobytes() == mesh.nodes.tobytes()
    assert identity.node_derivatives.tobytes() == np.ones(mesh.node_count).tobytes()
    for samples in (phi.node_values, phi.node_derivatives, identity.node_values):
        assert not samples.flags.writeable


def test_diffeo_winding_obstruction_detected():
    # a single-run source cannot follow a faster-oscillating target
    mesh = get_preset("round-fiber").mesh
    f = np.sin(mesh.nodes)
    g = 0.9 * np.sin(2 * mesh.nodes)
    with pytest.raises(PreconditionError) as info:
        approximate_by_diffeo(mesh, f, g, p=2.0, eps=1e-2)
    assert info.value.condition in ("winding-obstruction", "resolution-bound")


@pytest.mark.parametrize("shift", range(17))
@pytest.mark.parametrize("p", [1.0, 2.0, 4.0])
def test_approximation_follows_a_rotation_of_the_source(shift, p):
    # a rotation by whole node steps is a monotone degree-one map with error 0;
    # shifts 9 and 10 were refused as winding-obstruction while the candidate
    # table came from fine resamples of the source, which miss its node extrema
    mesh = circle_mesh(17, 2 * np.pi)
    r = mesh.nodes
    f = 0.99 * np.sin(r + 0.403) + 0.552 * np.sin(2 * r + 4.267)
    result = approximate_by_diffeo(mesh, f, np.roll(f, shift), p=p)
    assert result.achieved_error < result.requested_eps


@settings(max_examples=200, deadline=None)
@given(n=st.integers(16, 400), shift=st.integers(0, 399), p=st.sampled_from([1.0, 2.0, 4.0]),
       amplitudes=st.tuples(st.floats(0.2, 1.5), st.floats(0.0, 1.0)),
       phases=st.tuples(st.floats(0.0, 2 * np.pi), st.floats(0.0, 2 * np.pi)),
       offset=st.floats(-2.0, 2.0))
def test_node_step_rotations_of_the_source_are_never_refused(n, shift, p, amplitudes, phases,
                                                             offset):
    mesh = circle_mesh(n, 2 * np.pi)
    r = mesh.nodes
    f = (amplitudes[0] * np.sin(r + phases[0]) + amplitudes[1] * np.sin(2 * r + phases[1])
         + offset)
    g = np.roll(f, shift % n)
    result = approximate_by_diffeo(mesh, f, g, p=p)
    assert result.achieved_error < result.requested_eps
    assert fine_circle_norm(result.phi, mesh.nodes, f, g, mesh.weights, mesh.length,
                            p) < result.requested_eps


def test_interval_quotient_uses_double_cover():
    from curvlab import INTERVAL, build_mesh
    mesh = build_mesh(INTERVAL, 33, np.pi, lambda r: np.ones_like(r))
    f = np.cos(mesh.nodes)
    g = np.zeros(33)
    result = approximate_by_diffeo(mesh, f, g, p=2.0, eps=2e-2)
    assert result.achieved_error < 2e-2
    assert result.phi.mesh.topology == "circle"
    assert result.phi.mesh.length == pytest.approx(2 * np.pi)


def criterion9_pair(draw, rotation_steps, n=64):
    """Draw `draw` of acceptance criterion 9's generator, rotated on the nodes."""
    rng = np.random.default_rng(2027)
    for _ in range(draw + 1):
        a1, a2 = rng.uniform(0.8, 1.5), rng.uniform(0.2, 0.6)
        p1, p2 = rng.uniform(0, 2 * np.pi, 2)
        offset = rng.normal()
        amp, phase = rng.uniform(0.3, 0.75), rng.uniform(0, 2 * np.pi)
    mesh = circle_mesh(n, 2 * np.pi)
    r = mesh.nodes + 2 * np.pi / 64 * rotation_steps
    f = a1 * np.sin(r + p1) + a2 * np.sin(2 * r + p2) + offset
    lo, hi = float(np.min(f)), float(np.max(f))
    g = 0.5 * (lo + hi) + amp * 0.5 * (hi - lo) * np.sin(r + phase)
    return mesh, f, g


def test_criterion9_draw3_rotated_has_no_obstruction():
    mesh, f, g = criterion9_pair(draw=3, rotation_steps=38)
    result = approximate_by_diffeo(mesh, f, g, p=1.0, eps=1e-2)
    assert result.achieved_error < 1e-2
    assert fine_circle_norm(result.phi, mesh.nodes, f, g, mesh.weights, mesh.length, 1.0) < 1e-2


def test_criterion9_draw3_rotated_succeeds_below_4096_cells(monkeypatch):
    # at p = 1 the slope rule asks for more cells than the cap, so the cap is
    # the cell count; the reserve mu per cell leaves the walk room at any cap
    import curvlab.prescribe as prescribe
    mesh, f, g = criterion9_pair(draw=3, rotation_steps=38)
    for max_cells, bound in ((2048, 1e-3), (256, 1e-2)):
        monkeypatch.setattr(prescribe, "_MAX_CELLS", max_cells)
        result = approximate_by_diffeo(mesh, f, g, p=1.0, eps=1e-2)
        assert result.cells == max_cells
        assert result.achieved_error < bound


@pytest.mark.parametrize("n", [17, 333])
def test_rotated_copy_of_the_source_is_approximable(n):
    # cell values near the source's maximum lie above every resample of the
    # source between its nodes; the runs of the polyline reach its node values
    mesh = circle_mesh(n, 2 * np.pi)
    f = np.sin(mesh.nodes)
    g = np.roll(f, 5)
    result = approximate_by_diffeo(mesh, f, g, p=2.0, eps=1e-2)
    assert fine_circle_norm(result.phi, mesh.nodes, f, g, mesh.weights, mesh.length, 2.0) < 1e-2


def test_resolution_bound_quotes_the_computed_error():
    mesh, f, g = criterion9_pair(draw=0, rotation_steps=5)
    with pytest.raises(PreconditionError) as info:
        approximate_by_diffeo(mesh, f, g, p=2.0, eps=1e-6)
    assert info.value.condition == "resolution-bound"
    achieved = float(re.search(r"achieved (\S+)$", str(info.value)).group(1))
    assert 1e-6 <= achieved < np.inf


def test_cell_count_is_the_slope_rule():
    mesh, f, g = criterion9_pair(draw=0, rotation_steps=5)
    p, eps = 2.0, 1e-2
    slope = np.max(np.abs(np.diff(np.append(g, g[0])))) / mesh.h
    budget = eps * mesh.total_volume() ** (-1.0 / p) / 2.0
    cells = 64
    while cells < 4096 and slope * mesh.length / cells > 1.2 * budget:
        cells *= 2
    assert 64 < cells < 4096
    assert approximate_by_diffeo(mesh, f, g, p=p, eps=eps).cells == cells


@st.composite
def candidate_tables(draw):
    """Candidate tables as `approximate_by_diffeo` builds them, and harder ones.

    Rows are either monotone runs that split the circle, each holding the
    point where it attains a cell value that rises and falls once or twice
    over the cells (NaN where the value leaves the run's range), or uniform
    at random with scattered NaNs.  Whole columns may repeat the previous one
    exactly or within 1e-12 L (the clamp and the ceil lift) or be all NaN,
    and a large mu binds the spacing or makes walks infeasible.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    L = draw(st.sampled_from([1.0, 2 * np.pi, 10.0]))
    monotone_runs = draw(st.sampled_from([True, True, False]))
    runs = draw(st.integers(2 if monotone_runs else 1, 5))
    m = draw(st.integers(1, 70) | st.integers(65, 400))
    if monotone_runs:
        cuts = np.sort(rng.uniform(0, L, runs))
        widths = np.diff(np.append(cuts, cuts[0] + L))
        waves = draw(st.sampled_from([1, 1, 2])) * 2 * np.pi / m * np.arange(m)
        value = 0.5 + rng.uniform(0.2, 0.5) * np.sin(waves + rng.uniform(0, 2 * np.pi))
        lo, hi = np.zeros(runs), np.ones(runs)
        if draw(st.booleans()):  # the two runs at the global minimum span the range
            lo[2:] = rng.uniform(0.0, 0.3, runs - 2)
            hi[2:] = rng.uniform(0.7, 1.0, runs - 2)
        frac = (value - lo[:, None]) / (hi - lo)[:, None]
        rising = (np.arange(runs) + rng.integers(2)) % 2 == 0
        frac = np.where(rising[:, None], frac, 1.0 - frac)
        frac[(frac < 0) | (frac > 1)] = np.nan
        table = np.mod(cuts[:, None] + widths[:, None] * frac, L)
    else:
        table = rng.uniform(0, L, (runs, m))
        table[rng.uniform(size=(runs, m)) < draw(st.sampled_from([0.0, 0.05, 0.3]))] = np.nan
    p_repeat = draw(st.sampled_from([0.0, 0.05, 0.3]))
    p_near = draw(st.sampled_from([0.0, 0.01, 0.1]))
    for i in range(1, m):
        u = rng.uniform()
        if u < p_repeat:
            table[:, i] = table[:, i - 1]
        elif u < p_repeat + p_near:
            shift = rng.choice([-2e-12, -1e-12, -5e-13, 0.0, 5e-13, 1e-12], runs)
            table[:, i] = np.mod(table[:, i - 1] + shift * L, L)
    table[:, rng.integers(0, m, draw(st.sampled_from([0, 0, 0, 0, 1, 2])))] = np.nan
    mu = draw(st.sampled_from([0.0, 1e-9 * m, 1e-9 * m, 0.05, 0.3])) * L / m
    if draw(st.sampled_from([True, True, True, False])):
        starts = sorted(set(np.round(table[~np.isnan(table[:, 0]), 0], 12)))[:16]
    else:
        starts = draw(st.lists(st.floats(0.0, L, exclude_max=True), min_size=1, max_size=4))
    return table, L, mu, starts


def walk_outcome(walk, table, L, mu, starts):
    try:
        chosen = walk(table, L, mu, starts)
    except ValueError as exc:
        return type(exc)
    return None if chosen is None else (chosen.shape, chosen.dtype, chosen.tobytes())


@settings(max_examples=300, deadline=None)
@given(candidate_tables())
def test_greedy_walk_matches_per_cell_loop_bit_for_bit(case):
    assert walk_outcome(_greedy_walk, *case) == walk_outcome(greedy_walk_loop, *case)


def test_greedy_walk_matches_per_cell_loop_on_approximation_tables(monkeypatch):
    import curvlab.prescribe as prescribe
    walk, calls = prescribe._greedy_walk, []
    monkeypatch.setattr(prescribe, "_greedy_walk", lambda *args: calls.append(args) or walk(*args))
    mesh = get_preset("round-fiber").mesh
    pairs = [(*criterion9_pair(draw, rotation_steps), p)
             for draw, rotation_steps, p in ((0, 5, 2.0), (3, 38, 1.0), (7, 20, 4.0))]
    # a source that oscillates less than its target: a true obstruction
    pairs.append((mesh, np.sin(mesh.nodes), 0.9 * np.sin(2 * mesh.nodes), 2.0))
    for mesh, f, g, p in pairs:
        try:
            approximate_by_diffeo(mesh, f, g, p=p, eps=1e-2)
        except PreconditionError:
            pass
    outcomes = [walk_outcome(walk, *args) for args in calls]
    assert None in outcomes  # the obstruction's walk
    assert outcomes == [walk_outcome(greedy_walk_loop, *args) for args in calls]


periodic_samples = st.one_of(
    st.lists(st.sampled_from([-1.0, 0.0, 0.5, 2.0]), min_size=1, max_size=80),  # plateaus
    st.lists(st.floats(-10.0, 10.0), min_size=1, max_size=80),
    st.builds(lambda n, v: [v] * n, st.integers(1, 40), st.floats(-10.0, 10.0)),
    st.builds(lambda n, a, b: [a, b] * n, st.integers(1, 40),
              st.floats(-10.0, 10.0), st.floats(-10.0, 10.0)),
    st.lists(st.floats(-10.0, 10.0), min_size=2, max_size=2),
)


@settings(max_examples=300, deadline=None)
@given(periodic_samples)
def test_monotone_runs_matches_per_sample_loop(values):
    values = np.array(values)
    assert _monotone_runs(values) == monotone_runs_loop(values)


@st.composite
def periodic_lookups(draw):
    """A periodic table on a uniform grid and arguments in [-3L, 3L], with the
    exact points 0, -0, L and -L and the neighbours of 0 and L among them."""
    L = draw(st.sampled_from([1.0, 2 * np.pi, 37.5, 0.1])) * draw(st.floats(0.5, 2.0))
    n = draw(st.integers(2, 64))
    values = draw(st.lists(st.floats(-10.0, 10.0), min_size=n, max_size=n))
    special = [0.0, -0.0, L, -L, np.nextafter(L, 0.0), np.nextafter(0.0, -1.0), 3 * L, -3 * L]
    x = draw(st.lists(st.one_of(st.floats(-3 * L, 3 * L), st.sampled_from(special)),
                      min_size=1, max_size=60))
    return np.array(x), L / n * np.arange(n), np.array(values), L


@settings(max_examples=300, deadline=None)
@given(periodic_lookups())
def test_periodic_interp_matches_whole_array_mod_bit_for_bit(case):
    got, want = _periodic_interp(*case), periodic_interp_mod(*case)
    assert got.tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# full pipeline
# ---------------------------------------------------------------------------


def test_full_prescribe_trivial_target():
    metric = bumpy()
    result = full_prescribe(metric, scal_warped(metric))
    assert result.path == "trivial"
    assert result.c == 1.0
    assert np.allclose(result.metric_out.radial, 1.0)
    assert result.residuals["sup_error"] == 0.0


def test_full_prescribe_round_product_sine_target():
    metric = get_preset("round-fiber", n=256)
    r = metric.mesh.nodes
    target = 6.0 * (1.0 + 0.1 * np.sin(r))
    result = full_prescribe(metric, target)
    assert result.c == pytest.approx(1.0)
    assert result.path == "identity"
    assert np.array_equal(result.scal_out, result.metric_out.scal())
    assert result.residuals["sup_error"] < 1e-3
    hist = [x for x in result.residuals["newton_history"] if x > 1e-13]
    assert any(b / a < 0.3 for a, b in zip(hist, hist[1:]))


@pytest.mark.parametrize("background", ["round-fiber", "hyperbolic-fiber"])
@pytest.mark.parametrize("n", [64, 256, 1024, 4096])
def test_full_prescribe_takes_the_identity_path_up_to_n_4096(background, n):
    # Newton accumulates the metric perturbation, not only the potential u,
    # whose rounding the fourth-order J.Q amplifies by its norm, about N^4:
    # with u alone the round fiber from N = 512 and the hyperbolic fiber from
    # 1024 stalled and fell back to reparametrization
    metric = get_preset(background, n=n)
    target = scal_warped(metric) * (1.0 + 0.1 * np.sin(metric.mesh.nodes))
    result = full_prescribe(metric, target)
    assert result.path == "identity"
    assert np.max(np.abs(result.metric_out.scal() - target)) <= _SUP_TOL


def test_full_prescribe_negative_target_rejected():
    metric = get_preset("round-fiber")
    with pytest.raises(PreconditionError) as info:
        full_prescribe(metric, -np.ones(64))
    assert info.value.condition == "pinching-window"


def fail_identity_path(monkeypatch):
    """Make the direct (identity) solve of `full_prescribe` fail, so the
    reparametrized path runs."""
    import curvlab.prescribe as prescribe
    verified_solve = prescribe._verified_solve

    def solve(metric, c, expected, phi, path, cfg, **extra):
        if path == "identity":
            raise SolverError("identity path failed on purpose")
        return verified_solve(metric, c, expected, phi, path, cfg, **extra)

    monkeypatch.setattr(prescribe, "_verified_solve", solve)


@pytest.mark.parametrize("n", [128, 256])
def test_full_prescribe_reparametrized_path(n, monkeypatch):
    # the returned metric realizes target o phi in the Newton chart, checked
    # by its own stencil curvature
    metric = bumpy(amplitude=0.2, n=n)
    mesh = metric.mesh
    scal0 = scal_warped(metric)
    r = mesh.nodes
    target = np.mean(scal0) + 2.0 * np.sin(r) + 0.8 * np.sin(2 * r + 0.3)
    fail_identity_path(monkeypatch)
    result = full_prescribe(metric, target, PrescribeConfig(eps=5e-2))
    assert result.path == "reparametrized"
    target_at_phi = np.interp(np.mod(result.phi.node_values, mesh.length),
                              np.append(r, mesh.length), np.append(target, target[0]))
    assert np.max(np.abs(result.metric_out.scal() - target_at_phi)) < 1e-6
    assert result.residuals["sup_error"] < 1e-6
    assert result.residuals["approximation"] < 5e-2


def test_full_prescribe_raises_above_sup_tol(monkeypatch):
    # the verified error is never zero: the direct path falls back, and the
    # reparametrized path raises
    import curvlab.prescribe as prescribe
    metric = get_preset("round-fiber", n=64)
    target = 6.0 * (1.0 + 0.1 * np.sin(metric.mesh.nodes))
    monkeypatch.setattr(prescribe, "_SUP_TOL", 1e-300)
    with pytest.raises(SolverError, match="reparametrized .*sup_tol"):
        full_prescribe(metric, target)


def escape_bumped(flat):
    """The background `full_prescribe` solves on after the escape bump."""
    mesh = flat.mesh
    return WarpedProductMetric.from_profile(
        mesh.node_count, mesh.length, flat.fiber_dim, flat.fiber_scal,
        flat.warping * (1.0 + 1e-3 * np.sin(2 * np.pi * mesh.nodes / mesh.length)))


def test_newton_prescribe_reports_stalled_line_search(monkeypatch):
    # a tolerance below the rounding floor: on the hyperbolic fiber at N = 64
    # the residual stops near 1.5e-13, and no step lowers it further
    metric = get_preset("hyperbolic-fiber", n=64)
    target = scal_warped(metric) * (1.0 + 0.05 * np.sin(metric.mesh.nodes))
    svd, steps = np.linalg.svd, []
    monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: steps.append(a) or svd(*a, **k))
    cfg = PrescribeConfig(newton_tol=1e-16)
    with pytest.raises(SolverError, match="line search stalled"):
        newton_prescribe(metric, target, cfg)
    assert len(steps) < cfg.newton_max_iter


def singular_solve(*args, **kwargs):
    raise np.linalg.LinAlgError("Singular matrix")


def test_newton_prescribe_singular_system_is_a_solver_error(monkeypatch):
    metric = get_preset("hyperbolic-fiber", n=64)
    target = scal_warped(metric) * (1.0 + 0.05 * np.sin(metric.mesh.nodes))
    monkeypatch.setattr(np.linalg, "solve", singular_solve)
    with pytest.raises(SolverError, match="^singular .*: Singular matrix$"):
        newton_prescribe(metric, target)


def test_full_prescribe_falls_back_from_a_singular_direct_system():
    # escape-bumped flat torus, second harmonic at amplitude 0.2: the direct
    # Newton reaches a J.Q that is singular in double precision (smallest
    # singular value 5e-11 at norm 8e6), whose 2x2 Schur complement fails
    # the rank test, and the reparametrized path realizes the target
    flat = get_preset("flat-torus", n=128)
    target = 0.2 * np.sin(2 * flat.mesh.nodes + 0.3)
    bumped = escape_bumped(flat)
    with pytest.raises(SolverError, match="^singular .*rank-deficient Schur complement"):
        newton_prescribe(bumped, _window_constant(target, scal_warped(bumped)) * target)
    result = full_prescribe(flat, target)
    assert result.path == "reparametrized"
    assert result.residuals["sup_error"] <= _SUP_TOL


def test_full_prescribe_escapes_flat_kernel():
    # the flat background has a nontrivial kernel; a small warping bump
    # escapes the exceptional case and the sign-changing target is realized
    flat = get_preset("flat-torus", n=128)
    r = flat.mesh.nodes
    target = 0.05 * np.sin(r)
    result = full_prescribe(flat, target)
    assert result.path == "identity"
    assert result.residuals["sup_error"] < 1e-3


def count_kernel_tests(monkeypatch):
    """Record the metric of every `kernel_min_singular` call in the module."""
    import curvlab.prescribe as prescribe
    kernel, metrics = prescribe.kernel_min_singular, []
    monkeypatch.setattr(prescribe, "kernel_min_singular",
                        lambda metric: metrics.append(metric) or kernel(metric))
    return metrics


def test_full_prescribe_tests_the_kernel_once_per_metric(monkeypatch):
    metrics = count_kernel_tests(monkeypatch)
    for background, k in (("round-fiber", 1), ("hyperbolic-fiber", 2)):
        metric = get_preset(background, n=64)
        target = scal_warped(metric) * (1.0 + 0.05 * np.sin(k * metric.mesh.nodes + 0.3))
        metrics.clear()
        result = full_prescribe(metric, target)
        assert result.path == "identity"
        assert len(metrics) == 1 and metrics[0] is metric


def test_full_prescribe_flat_background_tests_original_and_bumped(monkeypatch):
    metrics = count_kernel_tests(monkeypatch)
    flat = get_preset("flat-torus", n=128)
    target = 0.05 * np.sin(flat.mesh.nodes)
    for force in (False, True):
        if force:
            fail_identity_path(monkeypatch)
        metrics.clear()
        result = full_prescribe(flat, target)
        assert result.path == ("reparametrized" if force else "identity")
        assert len(metrics) == 2 and metrics[0] is flat
        bump = metrics[1].warping / flat.warping - 1.0
        assert np.allclose(bump, 1e-3 * np.sin(flat.mesh.nodes), rtol=0, atol=1e-15)
        assert result.residuals["sup_error"] < 1e-3


def test_newton_prescribe_rejects_flat_at_large_n_as_kernel_dichotomy():
    # the flat torus's smallest adjoint singular value grows with N (1.3e-8 at
    # N = 32768) but stays below 1e-16 of the adjoint's norm
    flat = get_preset("flat-torus", n=32768)
    with pytest.raises(PreconditionError) as info:
        newton_prescribe(flat, 0.05 * np.sin(flat.mesh.nodes), PrescribeConfig(newton_tol=1e300))
    assert info.value.condition == "kernel-dichotomy"


def test_newton_prescribe_rejects_flat_as_kernel_dichotomy():
    # the kernel test that makes full_prescribe escape the flat background
    flat = get_preset("flat-torus", n=128)
    target = 0.05 * np.sin(flat.mesh.nodes)
    with pytest.raises(PreconditionError) as info:
        newton_prescribe(flat, target)
    assert info.value.condition == "kernel-dichotomy"

"""Conformal solvers, classifier, and the constrained energy machinery."""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from curvlab import (ConformalClass, ConformalProblem, ObstructionError,
                     PreconditionError, SolverConfig, SolverError,
                     WarpedProductMetric, classify_conformal_class,
                     conformal_energy, conformal_scal,
                     el_residual, energy_gradient, get_preset,
                     minimize_on_constraint, negative_constant_bound,
                     project_to_constraint, scal_warped, solve_negative_constant)
from curvlab import _newton
from curvlab.mesh import build_mesh
from curvlab._newton import condensed_solver
from curvlab.yamabe import _bordered_newton

from oracles import (bordered_entries, coercive_energy, conformal_warped_metric,
                     cylinder_length, dense_generalized_lambda1, negative_newton_loop)


def round_problem(c=6.0, n=64, eps=1.0):
    return ConformalProblem(get_preset("round-fiber", n=n), c=c, epsilon=eps)


def hyperbolic_bumpy(n=64, amplitude=0.1):
    return WarpedProductMetric.from_profile(
        n, 2 * np.pi, 3, -2.0, lambda r: 1.0 + amplitude * np.sin(r))


# ---------------------------------------------------------------------------
# energy and gradient
# ---------------------------------------------------------------------------


def test_energy_zero_at_zero():
    assert conformal_energy(round_problem(), np.zeros(64)) == 0.0


def test_energy_constant_closed_form():
    p = round_problem(c=2.0)
    a = 1.3
    vol = p.mesh.total_volume()
    expected = 0.5 * 6.0 * a**2 * vol - (2.0 / p.constants.two_star) * a**p.constants.two_star * vol
    assert conformal_energy(p, np.full(64, a)) == pytest.approx(expected, rel=1e-12)


def test_energy_gradient_matches_finite_differences():
    rng = np.random.default_rng(97)
    p = round_problem(c=3.0)
    u = 1.0 + 0.3 * rng.random(64)
    for _ in range(5):
        v = rng.normal(size=64)
        eps = 1e-6
        fd = (conformal_energy(p, u + eps * v) - conformal_energy(p, u - eps * v)) / (2 * eps)
        analytic = p.mesh.inner(energy_gradient(p, u), v)
        assert fd == pytest.approx(analytic, rel=1e-6, abs=1e-8)


def test_energy_gradient_analytic_form():
    # dJ(u)(v) = 4 b_n <u', v'> + <scal u, v> - c <u^gamma, v> in the mesh forms
    rng = np.random.default_rng(101)
    p = round_problem(c=2.5)
    u = 1.0 + 0.2 * rng.random(64)
    v = rng.normal(size=64)
    g = p.constants
    scal = scal_warped(p.metric)
    direct = (4 * g.b_n * p.mesh.dirichlet_form(u, v)
              + p.mesh.inner(scal * u, v) - p.c * p.mesh.inner(u**g.gamma_n, v))
    assert p.mesh.inner(energy_gradient(p, u), v) == pytest.approx(direct, rel=1e-10)


# ---------------------------------------------------------------------------
# constraint projection
# ---------------------------------------------------------------------------


def test_project_fixed_point():
    # c = 2* and eps = vol make the constant profile already feasible
    p = ConformalProblem(get_preset("round-fiber"), c=4.0, epsilon=2 * np.pi)
    u = np.ones(64)
    assert np.max(np.abs(project_to_constraint(p, u) - u)) < 1e-14


def test_project_lands_on_constraint():
    rng = np.random.default_rng(103)
    p = round_problem(c=2.0, eps=0.7)
    u = rng.normal(size=64)  # sign-indefinite; clamp then scale
    proj = project_to_constraint(p, u)
    assert np.all(proj >= 0)
    mass = (p.c / p.constants.two_star) * p.mesh.integrate(proj**p.constants.two_star)
    assert mass == pytest.approx(p.epsilon, rel=1e-12)


def test_project_rejects_zero_profile():
    p = round_problem()
    with pytest.raises(PreconditionError):
        project_to_constraint(p, -np.ones(64))


def test_project_idempotent():
    p = round_problem(eps=1.3)
    u = project_to_constraint(p, 1.0 + 0.5 * np.sin(p.mesh.nodes))
    again = project_to_constraint(p, u)
    assert np.max(np.abs(again - u)) < 1e-14


# ---------------------------------------------------------------------------
# Euler-Lagrange residual
# ---------------------------------------------------------------------------


def test_el_residual_algebraic_root():
    p = round_problem(c=2.0)
    g = p.constants
    root = (6.0 / 2.0) ** (1.0 / (g.gamma_n - 1.0))
    res = el_residual(p, np.full(64, root), 2.0)
    assert np.max(np.abs(res)) < 1e-12


def test_el_residual_matching_constant():
    p = round_problem(c=6.0)
    assert np.max(np.abs(el_residual(p, np.ones(64), 6.0))) < 1e-12


def test_el_residual_is_definition():
    rng = np.random.default_rng(107)
    p = round_problem(c=1.7)
    u = 1.0 + 0.4 * rng.random(64)
    g = p.constants
    scal = scal_warped(p.metric)
    expected = 4 * g.b_n * p.mesh.laplacian(u) - scal * u + 1.3 * u**g.gamma_n
    assert np.allclose(el_residual(p, u, 1.3), expected, atol=0)


def test_el_residual_no_positive_constant_root_for_flat():
    # scal = 0 with c != 0: the algebraic root (scal/c)^(1/(gamma-1)) is zero,
    # not positive, so no positive constant solves the equation
    flat = get_preset("flat-torus")
    p = ConformalProblem(flat, c=2.0)
    root = 0.0 / 2.0
    assert root == 0.0
    res = el_residual(p, np.full(64, 1.0), 2.0)
    assert np.min(np.abs(res)) > 0.1


def test_el_residual_requires_positive_profile():
    p = round_problem()
    with pytest.raises(PreconditionError):
        el_residual(p, np.zeros(64), 1.0)


def nan_at_node_3(n=64):
    u = np.ones(n)
    u[3] = np.nan
    return u


def test_conformal_layer_rejects_a_nan_factor():
    # each of these returned NaN near node 3 (or raised "SVD did not converge")
    p = round_problem()
    checks = ((lambda u: conformal_scal(p.metric, u), "positive-factor"),
              (lambda u: el_residual(p, u, 6.0), "positive-factor"),
              (lambda u: project_to_constraint(p, u), "nontrivial-profile"),
              (lambda u: minimize_on_constraint(p, u0=u), "nontrivial-profile"),
              (lambda u: solve_negative_constant(get_preset("hyperbolic-fiber"), u0=u),
               "positive-start"))
    for call, condition in checks:
        with pytest.raises(PreconditionError) as info:
            call(nan_at_node_3())
        assert info.value.condition == condition


# ---------------------------------------------------------------------------
# constrained minimization (positive regime)
# ---------------------------------------------------------------------------


def test_minimize_constant_start_round():
    p = round_problem(c=6.0)
    sol = minimize_on_constraint(p, SolverConfig(tol_residual=1e-8), u0=np.full(64, 1.3))
    assert sol.residual_norm < 1e-8
    assert 1.0 + sol.lagrange > 0
    assert np.max(sol.u) - np.min(sol.u) < 1e-10
    assert np.all(sol.u > 0)


def test_minimize_rescaled_constant():
    # c = 1: the constant still solves, with the scale absorbed into c'
    p = round_problem(c=1.0)
    sol = minimize_on_constraint(p, u0=np.ones(64))
    assert sol.residual_norm < 1e-8
    assert sol.achieved_constant > 0
    out = conformal_scal(p.metric, sol.u)
    assert np.allclose(out, sol.achieved_constant, atol=1e-8)


def test_minimize_bumpy_start_descends_to_critical_point():
    p = round_problem(c=6.0, n=64)
    cfg = SolverConfig(tol_residual=1e-7, max_iter=400_000)
    sol = minimize_on_constraint(p, cfg, u0=1.0 + 0.2 * np.sin(p.mesh.nodes))
    assert sol.residual_norm < 1e-7
    assert np.all(sol.u > 0)
    assert 1.0 + sol.lagrange > 0
    energies = np.array(sol.energy_history)
    assert np.all(np.diff(energies) <= 1e-12)


def test_polish_converges_in_few_newton_solves(monkeypatch):
    # the polish once tested the constraint at rounding level (1e-13), so on
    # this start it ran all 40 dense solves and ended unconverged, unreported
    calls = []
    solve = np.linalg.solve

    def counting_solve(*args, **kwargs):
        calls.append(1)
        return solve(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "solve", counting_solve)
    p = round_problem(c=6.0, n=64)
    sol = minimize_on_constraint(p, SolverConfig(tol_residual=1e-7),
                                 u0=1.0 + 0.2 * np.sin(p.mesh.nodes))
    assert len(calls) <= 5
    assert p.mesh.lp_norm(el_residual(p, sol.u, sol.achieved_constant), 2) <= 1e-7


def test_bordered_newton_raises_on_singular_border():
    p = round_problem(c=6.0)

    def flat_border(u):
        return 1.0, np.zeros_like(u)

    with pytest.raises(SolverError, match="singular"):
        _bordered_newton(p, 1.0 + 0.2 * np.sin(p.mesh.nodes), 6.0, flat_border, 1e-10, 1.0)


def test_bordered_newton_rank_tests_its_schur_complement():
    # the constraint border of the positive regime with its gradient row
    # scaled by 1e-20: the system is singular to double precision, and was
    # once solved anyway, ending in "step has no admissible trial point"
    p = round_problem(c=6.0)
    g, m = p.constants, p.mesh.mass_vector()

    def faint_constraint(u):
        return ((p.c / g.two_star) * float(np.dot(u**g.two_star, m)) - p.epsilon,
                1e-20 * p.c * u**g.gamma_n * m)

    with pytest.raises(SolverError, match="rank-deficient Schur complement"):
        _bordered_newton(p, 1.0 + 0.2 * np.sin(p.mesh.nodes), 6.0, faint_constraint, 1e-10,
                         1.0)


@pytest.mark.parametrize("n", [64, 512])
def test_minimize_step_count_does_not_grow_with_n(n):
    # the weighted-L2 descent direction needed about N^2 steps on this
    # background (993 at N = 64; the 20000-step budget ran out at N = 512)
    p = ConformalProblem(get_preset("bumpy", n=n), c=6.0)
    sol = minimize_on_constraint(p, SolverConfig())
    assert sol.iterations <= 50
    assert p.mesh.lp_norm(el_residual(p, sol.u, sol.achieved_constant), 2) <= 1e-9
    assert np.all(np.diff(sol.energy_history) <= 0)


def test_descent_budget_is_honoured():
    # the budget was once min(max_iter, 20000), and a spent budget reported
    # max_iter; iterations is accepted steps + 1 on both exits
    p = ConformalProblem(get_preset("bumpy", n=64), c=6.0)
    free = minimize_on_constraint(p, SolverConfig())
    assert (len(free.energy_history) - 1, free.iterations) == (15, 16)
    cfg = SolverConfig(max_iter=3)
    sol = minimize_on_constraint(p, cfg)
    assert len(sol.energy_history) - 1 == 3
    assert sol.iterations == 4
    assert sol.residual_norm <= cfg.tol_residual


def test_problem_caches_background_scal():
    p = ConformalProblem(get_preset("bumpy"), c=6.0)
    assert p.scal is p.scal
    assert np.array_equal(p.scal, scal_warped(p.metric))
    assert not p.scal.flags.writeable


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_problem_rejects_nonfinite_c(bad):
    with pytest.raises(ValueError, match="^the functional constant c must be finite$"):
        ConformalProblem(get_preset("bumpy"), c=bad)


@pytest.mark.parametrize("settings", [dict(tol_residual=np.nan), dict(tol_residual=-1.0),
                                      dict(tol_residual=0.0), dict(max_iter=0)])
def test_solver_config_rejects_nan_and_nonpositive_settings(settings):
    with pytest.raises(ValueError, match="must be positive"):
        SolverConfig(**settings)


def test_solver_config_rejects_an_infinite_tolerance():
    # it used to stop the descent after one iteration
    with pytest.raises(ValueError, match="^tol_residual must be finite$"):
        SolverConfig(tol_residual=np.inf)


def test_minimize_rejects_flat_background():
    p = ConformalProblem(get_preset("flat-torus"), c=1.0)
    with pytest.raises(PreconditionError):
        minimize_on_constraint(p)


def test_minimize_rejects_nonpositive_c():
    p = round_problem(c=-1.0)
    with pytest.raises(PreconditionError):
        minimize_on_constraint(p)


def test_multiplier_identity():
    # at convergence J'(u)(u) = (1 + lam) c int u^{2*}, and 1 + lam > 0
    p = round_problem(c=6.0)
    sol = minimize_on_constraint(p, u0=np.full(64, 0.9))
    g = p.constants
    scal = scal_warped(p.metric)
    lhs = 4 * g.b_n * p.mesh.dirichlet_form(sol.u, sol.u) + p.mesh.integrate(scal * sol.u**2)
    rhs = (1 + sol.lagrange) * p.c * p.mesh.integrate(sol.u ** g.two_star)
    assert lhs == pytest.approx(rhs, rel=1e-9)
    assert 1 + sol.lagrange > 0


def test_coercivity_witness_amplitude_growth():
    # the all-plus functional grows without bound under amplitude scaling
    p = round_problem(c=2.0)
    u0 = project_to_constraint(p, 1.0 + 0.3 * np.sin(p.mesh.nodes))
    values = [coercive_energy(p, a * u0) for a in (1.0, 10.0, 100.0, 1000.0)]
    assert all(b > a for a, b in zip(values, values[1:]))


def test_coercivity_witness_constrained_frequency_growth():
    # on the constraint set the energy grows with the Dirichlet content
    p = round_problem(c=2.0)
    r = p.mesh.nodes
    values = []
    for freq in (1, 2, 4, 8):
        u = project_to_constraint(p, 1.0 + 0.5 * np.sin(freq * r))
        values.append(conformal_energy(p, u))
    assert all(b > a for a, b in zip(values, values[1:]))


# ---------------------------------------------------------------------------
# negative-constant solve
# ---------------------------------------------------------------------------


def test_negative_constant_exact_background():
    metric = get_preset("hyperbolic-fiber")  # scal = -2
    sol, c_used = solve_negative_constant(metric, u0=np.ones(64))
    assert sol.residual_norm < 1e-10
    assert np.allclose(sol.u, 1.0, atol=1e-9)
    assert sol.achieved_constant == pytest.approx(2.0, rel=1e-9)
    assert (1 + sol.lagrange) * c_used == pytest.approx(sol.achieved_constant, rel=1e-12)


def test_negative_constant_bumpy_background():
    metric = hyperbolic_bumpy()
    sol, _ = solve_negative_constant(metric, u0=np.ones(64))
    assert sol.residual_norm < 1e-6
    assert np.all(sol.u > 0)
    assert sol.achieved_constant > 0
    out = conformal_scal(metric, sol.u)
    assert np.allclose(out, -sol.achieved_constant, atol=1e-7)


def test_negative_constant_flat_obstruction():
    metric = get_preset("flat-torus")
    r = metric.mesh.nodes
    with pytest.raises(ObstructionError) as info:
        solve_negative_constant(metric, u0=1.0 + 0.2 * np.cos(r))
    assert info.value.condition == "negative-class-obstruction"


def test_negative_solve_obstructs_a_positive_class_before_its_newton_budget():
    # a bumped start on a round fiber once spent all 40 Newton steps and
    # raised SolverError ("did not converge, residual 4.5e-2")
    metric = WarpedProductMetric.from_profile(32, 2 * np.pi, 3, 6.0,
                                              lambda r: 1.0 + 0.221 * np.sin(r + 0.221))
    with pytest.raises(ObstructionError) as info:
        solve_negative_constant(metric, u0=1.0 + 0.221 * np.cos(metric.mesh.nodes))
    assert info.value.condition == "negative-class-obstruction"
    assert "P_G" in str(info.value)


@pytest.mark.parametrize("n", [64, 1024])
def test_negative_solve_obstructs_a_flat_fiber_warping_as_zero_class(n):
    metric = WarpedProductMetric.from_profile(n, 2 * np.pi, 3, 0.0,
                                              lambda r: 1.0 + 0.2 * np.sin(r))
    with pytest.raises(ObstructionError) as info:
        solve_negative_constant(metric)
    assert info.value.condition == "negative-class-obstruction"
    assert "Z_G" in str(info.value)


def test_negative_solve_reports_an_unresolved_negative_class_as_a_solver_error():
    # class N_G, but at N = 64 the O(h^2) error outweighs c_F = -1e-4 and the
    # Newton iteration converges to c' = -2.1e-4; that was once reported as
    # "no negative constant exists in this conformal class"
    metric = WarpedProductMetric.from_profile(64, 2 * np.pi, 3, -1e-4,
                                              lambda r: 1.0 + 0.2 * np.sin(r))
    with pytest.raises(SolverError, match="c_F"):
        solve_negative_constant(metric)


@pytest.mark.parametrize("fiber_scal", [0.0, 1e-4, 6.0])
def test_negative_solve_takes_no_newton_step_outside_class_n(fiber_scal, monkeypatch):
    def no_step(*args):
        raise AssertionError("a Newton step was taken")

    monkeypatch.setattr(_newton, "condensed_solver", no_step)
    metric = WarpedProductMetric.from_profile(64, 2 * np.pi, 3, fiber_scal,
                                              lambda r: 1.0 + 0.2 * np.sin(r))
    with pytest.raises(ObstructionError) as info:
        # c = 0 is below the coercivity bound where scal < 0: the class comes first
        solve_negative_constant(metric, c=0.0)
    assert info.value.condition == "negative-class-obstruction"


def test_negative_solve_rejects_a_start_at_the_positivity_floor():
    # min u0 = 1e-12 is positive but below the floor every Newton iterate keeps
    metric = hyperbolic_bumpy()
    u0 = np.ones(metric.mesh.node_count)
    u0[7] = 1e-12
    with pytest.raises(PreconditionError) as info:
        solve_negative_constant(metric, u0=u0)
    assert info.value.condition == "positive-start"


def test_negative_constant_bound_reported():
    metric = get_preset("hyperbolic-fiber")
    bound = negative_constant_bound(metric)
    assert bound > 0
    with pytest.raises(PreconditionError) as info:
        solve_negative_constant(metric, c=bound / 2)
    assert f"{bound:.6g}" in str(info.value)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(32, 256), fiber_scal=st.sampled_from([-2.0, 0.0, 6.0]),
       harmonic=st.integers(1, 3), amplitude=st.floats(0.05, 0.3),
       phase=st.floats(0.0, 2 * np.pi), start=st.floats(0.0, 0.3))
def test_negative_solve_matches_hand_written_loop(n, fiber_scal, harmonic, amplitude,
                                                 phase, start):
    metric = WarpedProductMetric.from_profile(
        n, 2 * np.pi, 3, fiber_scal, lambda r: 1.0 + amplitude * np.sin(harmonic * r + phase))
    u0 = 1.0 + start * np.cos(harmonic * metric.mesh.nodes)
    if fiber_scal >= 0:
        # the loop reads no class; the library obstructs before any step
        with pytest.raises(ObstructionError) as info:
            solve_negative_constant(metric, u0=u0)
        assert info.value.condition == "negative-class-obstruction"
        return
    # the loop's budget was cfg.max_iter; it gets the helper's 40 steps here
    outcomes = []
    for solve, cfg in ((solve_negative_constant, None),
                       (negative_newton_loop, SolverConfig(tol_residual=1e-8, max_iter=40))):
        try:
            outcomes.append(solve(metric, cfg, u0=u0))
        except SolverError as exc:
            outcomes.append(exc)
    new, old = outcomes
    assert type(new) is type(old)
    if not isinstance(old, SolverError):
        (sol, c_used), (ref, ref_c) = new, old
        assert sol.u.tobytes() == ref.u.tobytes()
        assert (sol.lagrange, sol.achieved_constant, sol.residual_norm, sol.iterations, c_used) \
            == (ref.lagrange, ref.achieved_constant, ref.residual_norm, ref.iterations, ref_c)


@settings(max_examples=60, deadline=None)
@given(topology=st.sampled_from(["circle", "interval"]), n=st.integers(16, 256),
       amplitude=st.floats(0.0, 0.5), scale=st.sampled_from([0.0, 1.0, 30.0, 1e3]),
       offset=st.floats(-1.0, 1.0), seed=st.integers(0, 2**32 - 1))
def test_bordered_solve_matches_the_dense_bordered_system(topology, n, amplitude, scale,
                                                          offset, seed):
    # L - diag(shift) with L the mesh Laplacian; shifts of either sign make
    # it indefinite, as in the positive-regime polish
    rng = np.random.default_rng(seed)
    mesh = build_mesh(topology, n, 2 * np.pi, lambda r: 1.0 + amplitude * np.sin(r))
    shift = scale * (offset + rng.uniform(-1.0, 1.0, n))
    column, row, rhs = rng.normal(size=n), rng.normal(size=n), rng.normal(size=n + 1)
    dense = np.zeros((n + 1, n + 1))
    dense[:n, :n] = mesh.laplacian_matrix().toarray() - np.diag(shift)
    dense[:n, n], dense[n, :n] = column, row
    expected = np.linalg.solve(dense, rhs)
    i, j, a = bordered_entries(mesh.laplacian_matrix() - sp.diags_array(shift), column, row)
    x = condensed_solver(i, j, n + 1, (0, n))(a, rhs)
    # both solves err by about eps times a condition number: the dense one by
    # the bordered matrix's, the condensation also by the interior block's
    # (at most 0.26 eps kappa on 8000 draws); 1e-10 holds while kappa < 1.1e5
    kappa = max(np.linalg.cond(dense), np.linalg.cond(dense[1:n, 1:n]))
    bound = max(1e-10, 4.0 * np.finfo(float).eps * kappa)
    assert np.linalg.norm(x - expected) <= bound * np.linalg.norm(expected)


def test_bordered_solve_raises_on_a_singular_interior_block():
    # the zero operator: the block on nodes 1..N-1 has no pivot at all
    with pytest.raises(np.linalg.LinAlgError):
        i, j, a = bordered_entries(sp.csr_array((16, 16)), np.ones(16), np.ones(16))
        condensed_solver(i, j, 17, (0, 16))(a, np.ones(17))


def test_negative_solve_makes_only_2x2_dense_solves(monkeypatch):
    # each Newton step condenses onto node 0 and c': no (N+1)^2 system is left
    shapes = []
    solve = np.linalg.solve

    def recording_solve(a, b):
        shapes.append(np.shape(a))
        return solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", recording_solve)
    sol, _ = solve_negative_constant(hyperbolic_bumpy(n=4096))
    assert shapes and set(shapes) == {(2, 2)}
    assert len(shapes) == sol.iterations


def test_flat_torus_obstruction_holds_at_n_4096():
    # at c' = 0 the Newton matrix's Laplacian block is singular; its Dirichlet
    # block on nodes 1..N-1 is not, so the condensed solve reaches c' = 0
    metric = get_preset("flat-torus", n=4096)
    p, m = ConformalProblem(metric, 1.0), metric.mesh.mass_vector()
    u0 = 1.0 + 0.2 * np.cos(metric.mesh.nodes)
    mass0 = float(np.dot(u0 * u0, m))

    def normalization(u):
        return np.dot(u * u, m) - mass0, 2.0 * u * m

    _, s, _ = _bordered_newton(p, u0, -1.0, normalization, 1e-8, mass0)
    assert abs(s) <= 1e-8


def test_negative_solve_converges_at_n_8192():
    metric = hyperbolic_bumpy(n=8192)
    sol, c = solve_negative_constant(metric)
    p = ConformalProblem(metric, c)
    assert metric.mesh.lp_norm(el_residual(p, sol.u, -sol.achieved_constant), 2) <= 1e-8


# ---------------------------------------------------------------------------
# conformal curvature and resampling
# ---------------------------------------------------------------------------


def test_conformal_scal_identity_factor():
    metric = get_preset("round-fiber")
    assert np.allclose(conformal_scal(metric, np.ones(64)), 6.0, atol=1e-12)


def test_conformal_scal_constant_factor_homothety():
    metric = get_preset("round-fiber")
    a = 1.7
    n = metric.dim
    expected = 6.0 / a ** (4.0 / (n - 2))
    assert np.allclose(conformal_scal(metric, np.full(64, a)), expected, rtol=1e-12)


def test_conformal_scal_matches_resampled_warped_metric():
    errs = []
    for n in (64, 128, 256):
        metric = get_preset("round-fiber", n=n)
        r = metric.mesh.nodes
        u = 1.0 + 0.3 * np.sin(r)
        direct = conformal_scal(metric, u)
        resampled = conformal_warped_metric(metric, u, n_out=4 * n)
        import scipy.interpolate
        v = u ** (2.0 / (metric.dim - 2))
        nodes = np.append(metric.mesh.nodes, metric.mesh.length)
        spline_v = scipy.interpolate.CubicSpline(nodes, np.append(v, v[0]), bc_type="periodic")
        phi = spline_v.antiderivative()(metric.mesh.nodes)
        scal_new = scal_warped(resampled)
        grid = np.append(resampled.mesh.nodes, resampled.mesh.length)
        vals = np.append(scal_new, scal_new[0])
        at_phi = np.interp(np.mod(phi, resampled.mesh.length), grid, vals)
        errs.append(np.max(np.abs(at_phi - direct)))
    assert errs[0] / errs[1] == pytest.approx(4.0, abs=0.6)
    assert errs[1] / errs[2] == pytest.approx(4.0, abs=0.6)


# ---------------------------------------------------------------------------
# classifier
# ---------------------------------------------------------------------------


def test_classifier_three_verdicts():
    verdict, lam = classify_conformal_class(get_preset("round-fiber"))
    assert verdict is ConformalClass.POSITIVE and lam > 0
    verdict, lam = classify_conformal_class(get_preset("flat-torus"))
    assert verdict is ConformalClass.ZERO and abs(lam) < 1e-8
    verdict, lam = classify_conformal_class(get_preset("hyperbolic-fiber"))
    assert verdict is ConformalClass.NEGATIVE and lam < 0


@pytest.mark.parametrize("n", [64, 256, 1024])
@pytest.mark.parametrize("preset", ["round-fiber", "hyperbolic-fiber", "bumpy", "flat-torus"])
def test_classifier_matches_the_generalized_dense_problem(preset, n):
    metric = get_preset(preset, n=n)
    _, lam = classify_conformal_class(metric)
    expected = dense_generalized_lambda1(metric)
    assert abs(lam - expected) <= 1e-9 * max(1.0, abs(expected))


def test_classifier_flat_torus_zero_mode_at_n_2048():
    verdict, lam = classify_conformal_class(get_preset("flat-torus", n=2048))
    assert verdict is ConformalClass.ZERO and abs(lam) < 1e-8


@pytest.mark.parametrize("n", [64, 256, 1024])
@pytest.mark.parametrize("amplitude", [0.05, 0.2])
def test_classifier_flat_fiber_warping_is_zero_class(amplitude, n):
    # g = dr^2 + f^2 g_F is conformal to the flat cylinder f^-2 g; the verdict
    # used to compare lambda_1, whose O(h^2) error exceeds 1e-8, with 1e-8
    metric = WarpedProductMetric.from_profile(n, 2 * np.pi, 3, 0.0,
                                              lambda r: 1.0 + amplitude * np.sin(r))
    assert classify_conformal_class(metric)[0] is ConformalClass.ZERO


def test_classifier_verdict_is_exact_where_lambda1_has_the_other_sign():
    # at N = 64 the discretization error of lambda_1 outweighs c_F = -1e-4;
    # the verdict used to be P_G
    metric = WarpedProductMetric.from_profile(64, 2 * np.pi, 3, -1e-4,
                                              lambda r: 1.0 + 0.2 * np.sin(r))
    verdict, lam = classify_conformal_class(metric)
    assert verdict is ConformalClass.NEGATIVE and lam > 0


@settings(max_examples=100, deadline=None)
@given(n=st.integers(16, 512), fiber_dim=st.integers(2, 5),
       amplitude=st.floats(0.0, 0.3), wavenumber=st.integers(1, 4),
       phase=st.floats(0.0, 2 * np.pi), fiber_scal=st.sampled_from([-2.0, -1e-4, 0.0, 1e-4, 6.0]))
def test_classifier_verdict_is_the_sign_of_fiber_scal(n, fiber_dim, amplitude, wavenumber, phase,
                                                      fiber_scal):
    metric = WarpedProductMetric.from_profile(
        n, 2 * np.pi, fiber_dim, fiber_scal,
        lambda r: 1.0 + amplitude * np.sin(wavenumber * r + phase))
    verdict, lam = classify_conformal_class(metric)
    assert verdict is {-2.0: ConformalClass.NEGATIVE, -1e-4: ConformalClass.NEGATIVE,
                       0.0: ConformalClass.ZERO, 1e-4: ConformalClass.POSITIVE,
                       6.0: ConformalClass.POSITIVE}[fiber_scal]
    expected = dense_generalized_lambda1(metric)
    assert abs(lam - expected) <= 1e-9 * max(1.0, abs(expected))


@pytest.mark.parametrize("n", [64, 256, 1024])
@pytest.mark.parametrize("amplitude", [0.05, 0.2, 0.5])
def test_cylinder_length_of_a_sine_warping_is_its_closed_form(n, amplitude):
    # int_0^{2 pi} dr / (1 + a sin r) = 2 pi / sqrt(1 - a^2); the periodic
    # trapezoid rule converges geometrically in N
    metric = WarpedProductMetric.from_profile(n, 2 * np.pi, 3, 6.0,
                                              lambda r: 1.0 + amplitude * np.sin(r))
    exact = 2 * np.pi / np.sqrt(1.0 - amplitude**2)
    assert abs(cylinder_length(metric) - exact) <= 1e-13 * exact


@pytest.mark.parametrize("length", [1.0, 2 * np.pi, 17.5])
@pytest.mark.parametrize("scale", [0.25, 1.0, 3.0])
def test_cylinder_length_of_a_constant_warping_is_length_over_scale(length, scale):
    metric = WarpedProductMetric.from_profile(64, length, 2, 0.0, lambda r: scale)
    assert abs(cylinder_length(metric) - length / scale) <= 1e-14 * length / scale


def test_classifier_invariant_under_scaling():
    for preset in ("round-fiber", "flat-torus", "hyperbolic-fiber"):
        metric = get_preset(preset)
        base_verdict, _ = classify_conformal_class(metric)
        for c in (0.1, 1.0, 10.0):
            verdict, _ = classify_conformal_class(metric.scaled(c))
            assert verdict is base_verdict


def test_negative_constant_positive_class_obstructed():
    # a positively curved background admits no negative-constant conformal
    # metric; the solve reports the obstruction
    metric = get_preset("round-fiber")
    with pytest.raises(ObstructionError) as info:
        solve_negative_constant(metric, u0=np.ones(64))
    assert info.value.condition == "negative-class-obstruction"

"""Acceptance gate: every criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -s`` to see one line per
criterion.  Each test prints PASS on success and FAIL before re-raising on
any assertion failure.
"""

import functools

import numpy as np
import pytest

import curvlab as cl
from oracles import (conformal_warped_metric, fine_circle_norm, linearize_scal, pinching_check,
                     ratio_max_sampled_refined)


def criterion(number, description):
    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"FAIL  criterion {number:2d}: {description}")
                raise
            print(f"PASS  criterion {number:2d}: {description}")
        return run
    return wrap


# ---------------------------------------------------------------------------


@criterion(1, "deformed curvature equals the group-metric oracle to 1e-6 relative")
def test_cheeger_oracle_equivalence():
    rng = np.random.default_rng(2024)
    for _ in range(20):
        lam = rng.uniform(0.6, 1.8, 3)
        metric = cl.su2_metric(np.diag(lam))
        orbit = cl.OrbitData(algebra=metric)
        for t in (0.0, 0.1, 1.0, 10.0, 100.0):
            expected = cl.scal_left_invariant(cl.deformed_group_metric(metric, t))
            got = cl.scal_cheeger(orbit, None, t)
            assert abs(got - expected) / abs(expected) < 1e-6


@criterion(2, "twist-term maximum matches the 1e5-sample refined bound to 1e-6; zero at t=0")
def test_twist_term_exactness():
    rng = np.random.default_rng(2025)
    for _ in range(50):
        lam = rng.uniform(0.5, 2.0, 3)
        orbit = cl.OrbitData(algebra=cl.su2_metric(np.diag(lam)))
        P = orbit.algebra.tensor
        U, V = rng.normal(size=3), rng.normal(size=3)
        t = float(10 ** rng.uniform(-1.3, 1.3))
        x = cl.TangentSplit(np.zeros(0), U)
        y = cl.TangentSplit(np.zeros(0), V)
        det = cl.twist_term(orbit, t, x, y)
        alg = orbit.algebra
        lvec = (0.5 * (alg.bracket(P @ U, V) + alg.bracket(U, P @ V)
                       - P @ alg.bracket(U, V))
                + 0.5 * t * alg.bracket(P @ U, P @ V))
        raw, refined = ratio_max_sampled_refined(lvec, P, t, samples=100_000, rng=rng)
        assert det >= raw * (1 - 1e-12)
        assert abs(det - refined) / max(abs(det), 1e-300) < 1e-6
        assert cl.twist_term(orbit, 0.0, x, y) == 0.0


@criterion(3, "large-t growth rate matches the limit parameters; semi-free ratio exactly 1")
def test_pinching_asymptotics():
    t = 1e4
    free = cl.OrbitData(algebra=cl.su2_metric(np.diag([0.8, 1.0, 1.3])))
    predicted = cl.homogeneous_scal(free)
    assert abs(cl.scal_cheeger(free, None, t) / t - predicted) / predicted < 1e-2

    rho = np.zeros((2, 2, 1))
    rho[0, :, 0] = [0.0, 0.9]
    rho[1, :, 0] = [-0.9, 0.0]
    iso = cl.IsotropyData(isotropy_dim=1, rho_maps=rho)
    singular = cl.OrbitData(algebra=cl.su2_metric(), normal_dim=2,
                            normal_sectionals=np.array([[0.0, 0.25], [0.25, 0.0]]),
                            mixed_sectionals=np.zeros((2, 3)))
    predicted = cl.homogeneous_scal(singular) + 3.0 * cl.isotropy_term(iso)
    got = cl.scal_cheeger(singular, iso, t) / t
    assert abs(got - predicted) / predicted < 1e-2

    a = cl.OrbitData(algebra=cl.su2_metric())
    b = cl.OrbitData(algebra=cl.su2_metric(np.diag([0.7, 1.0, 1.2])))
    assert cl.pinching_limit([(a, None), (b, None)]) == 1.0


@criterion(4, "positive regime: residual < 1e-8, 1 + multiplier > 0, curvature matches c'")
def test_yamabe_positive_regime():
    metric = cl.get_preset("round-fiber")
    problem = cl.ConformalProblem(metric, c=6.0)
    cfg = cl.SolverConfig(tol_residual=1e-8)
    sol = cl.minimize_on_constraint(problem, cfg, u0=np.full(64, 1.3))
    assert sol.residual_norm < 1e-8
    assert 1.0 + sol.lagrange > 0
    assert np.max(sol.u) - np.min(sol.u) < 1e-9
    out = cl.conformal_scal(metric, sol.u)
    assert np.max(np.abs(out - sol.achieved_constant)) < 1e-6


@criterion(5, "negative constant: residual < 1e-6, positive factor, output classifies N_G")
def test_negative_constant_solve():
    metric = cl.WarpedProductMetric.from_profile(
        64, 2 * np.pi, 3, -2.0, lambda r: 1.0 + 0.1 * np.sin(r))
    cfg = cl.SolverConfig(tol_residual=1e-8)
    sol, c_used = cl.solve_negative_constant(metric, cfg, u0=np.ones(64))
    assert sol.residual_norm < 1e-6
    assert np.all(sol.u > 0)
    assert sol.achieved_constant > 0
    rescaled = conformal_warped_metric(metric, sol.u)
    verdict, _ = cl.classify_conformal_class(rescaled)
    assert verdict is cl.ConformalClass.NEGATIVE


@criterion(6, "trichotomy verdicts with exact zero mode, invariant under scaling")
def test_trichotomy_classifier():
    verdict, lam1 = cl.classify_conformal_class(cl.get_preset("flat-torus"))
    assert verdict is cl.ConformalClass.ZERO and abs(lam1) < 1e-8
    verdict, _ = cl.classify_conformal_class(cl.get_preset("round-fiber"))
    assert verdict is cl.ConformalClass.POSITIVE
    verdict, _ = cl.classify_conformal_class(cl.get_preset("hyperbolic-fiber"))
    assert verdict is cl.ConformalClass.NEGATIVE
    for preset in ("flat-torus", "round-fiber", "hyperbolic-fiber"):
        metric = cl.get_preset(preset)
        base, _ = cl.classify_conformal_class(metric)
        for c in (0.1, 10.0):
            scaled_verdict, _ = cl.classify_conformal_class(metric.scaled(c))
            assert scaled_verdict is base


@criterion(7, "adjoint identity to 1e-6 over 100 pairs; kernel dichotomy quantified")
def test_adjointness_and_kernel():
    rng = np.random.default_rng(2026)
    metric = cl.WarpedProductMetric.from_profile(
        256, 2 * np.pi, 3, 6.0, lambda r: 1.0 + 0.2 * np.sin(r))
    mesh = metric.mesh
    r = mesh.nodes
    modes = np.stack([np.ones(256), np.sin(r), np.cos(r), np.sin(2 * r), np.cos(3 * r)])
    for _ in range(100):
        h = cl.MetricPerturbation(a=rng.normal(size=5) @ modes, b=rng.normal(size=5) @ modes)
        u = rng.normal(size=5) @ modes
        lhs = mesh.inner(linearize_scal(metric, h), u)
        rhs = cl.tensor_inner(mesh, 3, h, cl.linearize_scal_adjoint(metric, u))
        hnorm = np.sqrt(cl.tensor_inner(mesh, 3, h, h))
        assert abs(lhs - rhs) < 1e-6 * hnorm * mesh.lp_norm(u, 2)
    flat = cl.get_preset("flat-torus", n=256)
    assert cl.kernel_min_singular(flat) < 1e-10
    assert cl.kernel_min_singular(metric) > 1e-3


@criterion(8, "prescription pipeline reaches the target within 1e-3 sup with quadratic decay")
def test_prescription_pipeline():
    metric = cl.get_preset("round-fiber", n=256)
    r = metric.mesh.nodes
    target = 6.0 * (1.0 + 0.1 * np.sin(r))
    result = cl.full_prescribe(metric, target)
    assert result.c == pytest.approx(1.0)
    assert pinching_check(target, cl.scal_warped(metric), 1.0)
    assert result.residuals["sup_error"] < 1e-3
    hist = [x for x in result.residuals["newton_history"] if x > 1e-12]
    assert any(b / a < 0.3 for a, b in zip(hist, hist[1:]))


@criterion(9, "reparametrizations reach 1e-2 in L1, L2, L4 on 50 random pairs, winding 1")
def test_approximation_lemma():
    rng = np.random.default_rng(2027)
    mesh = cl.circle_mesh(64, 2 * np.pi)
    r = mesh.nodes
    for _ in range(50):
        a1 = rng.uniform(0.8, 1.5)
        a2 = rng.uniform(0.2, 0.6)
        p1, p2 = rng.uniform(0, 2 * np.pi, 2)
        f = a1 * np.sin(r + p1) + a2 * np.sin(2 * r + p2) + rng.normal()
        lo, hi = float(np.min(f)), float(np.max(f))
        mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        g = mid + rng.uniform(0.3, 0.75) * half * np.sin(r + rng.uniform(0, 2 * np.pi))
        for p in (1.0, 2.0, 4.0):
            result = cl.approximate_by_diffeo(mesh, f, g, p=p, eps=1e-2)
            phi = result.phi
            assert result.achieved_error < 1e-2
            assert np.all(np.diff(phi.node_values) > 0)
            assert np.all(phi.node_derivatives > 0)
            winding_advance = (phi(np.array([mesh.length])) - phi(np.array([0.0])))[0]
            assert winding_advance == pytest.approx(mesh.length, rel=1e-12)
            independent = fine_circle_norm(phi, mesh.nodes, f, g,
                                           mesh.weights, mesh.length, p)
            assert independent < 1e-2


@criterion(10, "conformal curvature agrees with the resampled metric at second order")
def test_conformal_oracle_convergence():
    import scipy.interpolate
    errs = []
    for n in (64, 128, 256):
        metric = cl.get_preset("round-fiber", n=n)
        u = 1.0 + 0.3 * np.sin(metric.mesh.nodes)
        direct = cl.conformal_scal(metric, u)
        resampled = conformal_warped_metric(metric, u, n_out=4 * n)
        v = u ** (2.0 / (metric.dim - 2))
        nodes = np.append(metric.mesh.nodes, metric.mesh.length)
        spline = scipy.interpolate.CubicSpline(nodes, np.append(v, v[0]), bc_type="periodic")
        phi = spline.antiderivative()(metric.mesh.nodes)
        scal_new = cl.scal_warped(resampled)
        grid = np.append(resampled.mesh.nodes, resampled.mesh.length)
        at_phi = np.interp(np.mod(phi, resampled.mesh.length), grid,
                           np.append(scal_new, scal_new[0]))
        errs.append(np.max(np.abs(at_phi - direct)))
    assert 3.5 <= errs[0] / errs[1] <= 4.5
    assert 3.5 <= errs[1] / errs[2] <= 4.5


@criterion(11, "fiber-scaled curvature: s=1 consistency, threshold 0.5, small-s blowup")
def test_canonical_variation():
    rng = np.random.default_rng(2028)
    K_base = rng.normal(size=(3, 3))
    K_base = 0.5 * (K_base + K_base.T)
    np.fill_diagonal(K_base, 0.0)
    K_mixed = rng.normal(size=(3, 2))
    data = cl.SubmersionPointData(base_dim=3, fiber_dim=2, K_base=K_base,
                                  K_tot_hh=K_base - 0.3 * (np.ones((3, 3)) - np.eye(3)),
                                  K_mixed=K_mixed, fiber_scal=2.0)
    double_sum = (float(np.sum(data.K_tot_hh)) + 2.0 * float(np.sum(K_mixed))
                  + data.fiber_scal)
    assert abs(cl.cv_scal(data, 1.0) - double_sum) < 1e-12

    pair = -4.0 / 2.0
    K = np.array([[0.0, pair], [pair, 0.0]])
    negative_base = cl.SubmersionPointData(base_dim=2, fiber_dim=2, K_base=K,
                                           K_tot_hh=K.copy(), K_mixed=np.zeros((2, 2)),
                                           fiber_scal=2.0)
    assert abs(cl.positivity_threshold(negative_base) - 0.5) < 1e-9
    assert cl.cv_scal(data, 1e-6) > 1e5 * data.fiber_scal / 2.0


@criterion(12, "Laplacian and warped curvature converge at second order")
def test_discretization_convergence():
    lap_errs, scal_errs = [], []
    for n in (64, 128, 256):
        mesh = cl.circle_mesh(n, 2 * np.pi)
        lap_errs.append(np.max(np.abs(mesh.laplacian(np.sin(mesh.nodes)) + np.sin(mesh.nodes))))
        metric = cl.WarpedProductMetric.from_profile(
            n, 2 * np.pi, 3, 6.0, lambda r: 1.0 + 0.1 * np.sin(r))
        r = metric.mesh.nodes
        f = 1.0 + 0.1 * np.sin(r)
        exact = 6.0 / f**2 + 0.6 * np.sin(r) / f - 6.0 * (0.1 * np.cos(r) / f) ** 2
        scal_errs.append(np.max(np.abs(cl.scal_warped(metric) - exact)))
    for errs in (lap_errs, scal_errs):
        assert 3.5 <= errs[0] / errs[1] <= 4.5
        assert 3.5 <= errs[1] / errs[2] <= 4.5

"""Independent oracles used by the test suite.

These deliberately re-derive quantities along different routes than the
library: full index-level curvature tensor contraction for group metrics,
dense sampling plus derivative-free subspace ascent for the constrained
twist-term maximum, plain high-resolution quadrature, a dense
column-by-column assembly of the discrete curvature Jacobian, the
sparse-product assembly `linearize_scal_matrix` once ran, a Richardson-
extrapolated difference quotient of the curvature, the continuum formula of
the Jacobian's adjoint, the dense SVD `kernel_min_singular` once ran and
the adjoint's 1-norm from the orthonormal adjoint itself, the per-candidate
loop `_window_constant` once ran, the per-cell loops that
`approximate_by_diffeo` once ran for its greedy walk and its monotone-run
split, the whole-array wrap `_periodic_interp` once took, the hand-written
Newton loop `solve_negative_constant` once ran (on the library's condensed
solve), the generalized dense eigenproblem `classify_conformal_class` once
solved, the roll-and-slice stencils `QuotientMesh` once evaluated its
derivatives, Laplacian and Dirichlet form with, and the closed-form
warped-product curvature `scal_warped` once evaluated.
Nine small functions that only tests read live here too: the nodewise
pinching test of a window constant, the exact window of such constants in
rational arithmetic, the entries of a bordered matrix, the coercive energy
of the negative regime, the representation-independent curvature operator,
the shrink map C_t of a Cheeger deformation, the spline resampling of a
conformal warped metric over its own arclength circle (the independent
route of acceptance criteria 5 and 10), the closed-form conformal factor
that flattens a warped product onto its cylinder, and the closed-form
constant of the negative regime that factor gives.
"""

from fractions import Fraction

import numpy as np
import scipy.interpolate
import scipy.linalg
import scipy.sparse as sp

from curvlab._newton import condensed_solve
from curvlab.cheeger import OrbitData, TangentSplit
from curvlab.errors import PreconditionError, SolverError
from curvlab.mesh import CIRCLE
from curvlab.models import (DiagonalInvariantMetric, WarpedProductMetric,
                            YamabeConstants, ricci_warped, scal_diagonal, scal_warped)
from curvlab.prescribe import (MetricPerturbation, _scal_jacobian_components, _scaled_transpose,
                               linearize_scal_matrix)
from curvlab.yamabe import (_POSITIVITY_FLOOR, ConformalProblem, ConformalSolution,
                            SolverConfig, negative_constant_bound)


def curvature_tensor_scal(m) -> float:
    """Scalar curvature by contracting the full curvature tensor.

    Works entirely with index tables in a metric-orthonormal basis: bracket
    coefficients alpha_ijk, connection coefficients from the Koszul cycle,
    then R_{ijji} summed over all pairs.
    """
    lam, O = np.linalg.eigh(m.tensor)
    d = m.dim
    basis = O / np.sqrt(lam)[None, :]  # columns are g-orthonormal
    alpha = np.zeros((d, d, d))
    for i in range(d):
        for j in range(d):
            br = m.bracket(basis[:, i], basis[:, j])
            for k in range(d):
                alpha[i, j, k] = (m.tensor @ br) @ basis[:, k]
    # Koszul cycle: 2 gamma_ijk = alpha_ijk - alpha_jki + alpha_kij
    gamma = 0.5 * (alpha - np.transpose(alpha, (2, 0, 1)) + np.transpose(alpha, (1, 2, 0)))
    scal = 0.0
    for i in range(d):
        for j in range(d):
            if i == j:
                continue
            # R(b_i, b_j) b_j paired with b_i
            term = 0.0
            for mm in range(d):
                term += gamma[j, j, mm] * gamma[i, mm, i]
                term -= gamma[i, j, mm] * gamma[j, mm, i]
                term -= alpha[i, j, mm] * gamma[mm, j, i]
            scal += term
    return float(scal)


def twist_term_sampled(orbit, t, x, y, iso=None, samples=100_000, rng=None) -> float:
    """Dense-sampling lower bound for `curvlab.cheeger.twist_term`.

    Evaluates the twist ratio 3t (l.Z)^2 / (t Z.S.Z + 1) at random unit
    vectors Z instead of the library's closed-form maximum.  The coefficient
    vector l is built here from the definitions of dw_Z: the bracket formula
    on the orbit parts, the ``dw_normal`` tables on the normal parts, and
    g(X, rho_Y(z)) against the isotropy basis.
    """
    if t < 0:
        raise ValueError("deformation time must be nonnegative")
    if t == 0:
        return 0.0
    rng = np.random.default_rng(rng)
    alg = orbit.algebra
    P = alg.tensor
    U, V, Xn, Yn = x.orbit, y.orbit, x.normal, y.normal
    # dw_Z(U*, V*) + (t/2) <[PU, PV], Z> on the orbit algebra
    lvec = 0.5 * (alg.bracket(P @ U, V) + alg.bracket(U, P @ V) - P @ alg.bracket(U, V)
                  + t * alg.bracket(P @ U, P @ V))
    if orbit.dw_normal is not None:
        lvec += np.array([Xn @ table @ Yn for table in orbit.dw_normal])
    d_iso = 0
    if iso is not None and iso.isotropy_dim and orbit.normal_dim:
        rho_y = np.tensordot(Yn, iso.rho_maps, axes=1)  # column b is rho_Y(z_b)
        lvec = np.concatenate([lvec, Xn @ rho_y])
        d_iso = iso.isotropy_dim
    k = orbit.orbit_dim
    Z = rng.normal(size=(samples, k + d_iso))
    Z /= np.linalg.norm(Z, axis=1, keepdims=True)
    num = (Z @ lvec) ** 2
    den = t * np.einsum('si,ij,sj->s', Z[:, :k], orbit.algebra.tensor, Z[:, :k]) + 1.0
    return 3.0 * t * float(np.max(num / den))


def isotropy_term_loop(iso, m) -> float:
    """`curvlab.cheeger.isotropy_term` with one unit vector e_j at a time:
    |rho rho^+ e_j|^4 / |rho^+ e_j|^2 over the first m rho maps and the
    normal indices j, skipping all-zero maps and |rho rho^+ e_j|^2 < 1e-26."""
    total = 0.0
    for rho in iso.rho_maps[:m]:
        if np.max(np.abs(rho)) == 0.0:
            continue
        pinv = np.linalg.pinv(rho)
        for j in range(m):
            pre = pinv @ np.eye(m)[j]
            h = rho @ pre
            h2 = float(h @ h)
            if h2 >= 1e-26:
                total += h2**2 / float(pre @ pre)
    return total


def ratio_max_sampled_refined(lvec, S, t, samples=100_000, rng=None, iters=80):
    """Max of 3t (l.Z)^2 / (t Z.S.Z + 1) over the unit sphere.

    Dense sampling gives a lower bound; the best sample is polished by exact
    maximization over two-dimensional subspaces spanned by the iterate and
    the ratio gradient (a derivative-free route independent of the library's
    closed form).  Returns (raw_lower_bound, refined_value).
    """
    rng = np.random.default_rng(rng)
    d = len(lvec)
    M = t * S + np.eye(d)

    def value(z):
        return (lvec @ z) ** 2 / (z @ M @ z)

    Z = rng.normal(size=(samples, d))
    Z /= np.linalg.norm(Z, axis=1, keepdims=True)
    vals = (Z @ lvec) ** 2 / np.einsum('si,ij,sj->s', Z, M, Z)
    best = int(np.argmax(vals))
    raw = 3.0 * t * float(vals[best])
    z = Z[best]

    for _ in range(iters):
        grad = 2.0 * (lvec @ z) * lvec * (z @ M @ z) - (lvec @ z) ** 2 * 2.0 * (M @ z)
        grad -= (grad @ z) * z
        gn = np.linalg.norm(grad)
        if gn < 1e-18:
            break
        w = grad / gn
        B = np.column_stack([z, w])
        A2 = np.outer(B.T @ lvec, B.T @ lvec)
        M2 = B.T @ M @ B
        eigvals, eigvecs = np.linalg.eigh(np.linalg.solve(M2, A2))
        coeff = eigvecs[:, np.argmax(eigvals)]
        z_new = B @ coeff
        z_new /= np.linalg.norm(z_new)
        if value(z_new) <= value(z):
            break
        z = z_new
    refined = 3.0 * t * float(value(z))
    return raw, refined


def fine_circle_norm(phi, source_nodes, source_vals, target_vals, weights, length, p,
                     resolution=120_000):
    """||source o phi - target||_p on a fine grid, independent quadrature."""
    x = length / resolution * np.arange(resolution)
    nodes_ext = np.append(source_nodes, length)

    def interp(vals, pts):
        return np.interp(np.mod(pts, length), nodes_ext, np.append(vals, vals[0]))

    err = interp(source_vals, phi(x)) - interp(target_vals, x)
    w = interp(weights, x)
    return float(np.sum(np.abs(err) ** p * w * (length / resolution)) ** (1.0 / p))


def _jacobian_partials(metric, A, B):
    """Base factor and pointwise partials, resolved as `linearize_scal_matrix` does."""
    mesh = metric.mesh
    if isinstance(metric, WarpedProductMetric):
        base_fiber = metric.warping**2
        A = np.ones(mesh.node_count) if A is None else A
        B = base_fiber if B is None else B
    else:
        if A is None or B is None:
            A, B = metric.radial, metric.fiber
        base_fiber = B
    return base_fiber, _scal_jacobian_components(mesh, A, B, metric.fiber_dim, metric.fiber_scal)


def dense_scal_jacobian(metric, A=None, B=None):
    """Jacobian of the discrete scal in (a, b) coordinates, dense, (N, 2N).

    The chain rule of the library's `linearize_scal_matrix`, assembled the
    slow way: the derivative matrices are built column by column by applying
    the mesh stencils to unit vectors, and every product is a dense matrix
    product.  Same arguments as `linearize_scal_matrix`.
    """
    mesh = metric.mesh
    base_fiber, (dA, dAr, dB, dF, dFr, dFrr, F) = _jacobian_partials(metric, A, B)
    eye = np.eye(mesh.node_count)
    D1 = np.column_stack([mesh.derivative(col) for col in eye.T])
    D2 = np.column_stack([mesh.second_derivative(col) for col in eye.T])
    block_a = np.diag(dA) + np.diag(dAr) @ D1
    chain = (np.diag(dF) + np.diag(dFr) @ D1 + np.diag(dFrr) @ D2) @ np.diag(0.5 / F)
    block_b = (np.diag(dB) + chain) @ np.diag(base_fiber)
    return np.hstack([block_a, block_b])


def sparse_product_jacobian(metric, A=None, B=None):
    """The same Jacobian as scipy.sparse products of diagonal scalings with D1 and D2.

    This is how `linearize_scal_matrix` assembled it before it filled the
    mesh's stencil pattern directly: each entry goes through the same IEEE
    operations, and scipy prunes the entries that come out exactly zero.
    """
    base_fiber, (dA, dAr, dB, dF, dFr, dFrr, F) = _jacobian_partials(metric, A, B)
    D1, D2 = metric.mesh.d1_matrix(), metric.mesh.d2_matrix()
    diag = sp.diags_array
    block_a = diag(dA) + diag(dAr) @ D1
    chain = (diag(dF) + diag(dFr) @ D1 + diag(dFrr) @ D2) @ diag(0.5 / F)
    block_b = (diag(dB) + chain) @ diag(base_fiber)
    return sp.hstack([block_a, block_b], format="csr")


def perturbed_scal(metric: WarpedProductMetric, h: MetricPerturbation, t: float) -> np.ndarray:
    A = 1.0 + t * h.a
    B = metric.warping**2 * (1.0 + t * h.b)
    if np.any(A <= 0) or np.any(B <= 0):
        raise PreconditionError("perturbation leaves the positive-definite cone",
                                condition="positive-cone")
    return scal_diagonal(metric.mesh, A, B, metric.fiber_dim, metric.fiber_scal)


def linearize_scal(metric: WarpedProductMetric, h: MetricPerturbation,
                   step: float | None = None) -> np.ndarray:
    """Directional derivative of F at g by symmetric differencing, Richardson once.

    Differences the curvature operator itself, without the chain rule of
    `linearize_scal_matrix`; one implementation for every model.
    """
    hnorm = max(float(np.max(np.abs(h.a))), float(np.max(np.abs(h.b))))
    if hnorm == 0.0:
        return np.zeros(metric.mesh.node_count)
    tau = step if step is not None else min(1e-3, 0.125 / hnorm)
    while tau > 1e-9:
        try:
            d_tau = (perturbed_scal(metric, h, tau) - perturbed_scal(metric, h, -tau)) / (2 * tau)
            d_half = (perturbed_scal(metric, h, tau / 2) - perturbed_scal(metric, h, -tau / 2)) / tau
            return (4.0 * d_half - d_tau) / 3.0
        except PreconditionError:
            tau *= 0.25
    raise PreconditionError("perturbation too large for any admissible difference step",
                            condition="positive-cone")


def adjoint_formula(metric, u):
    """The continuum adjoint formula discretized directly.

    Radial component -lap(u) + u'' - u Ric_rr; fiber component
    -lap(u) + (f'/f) u' - u Ric_fiber.
    """
    u = np.asarray(u, dtype=float)
    mesh = metric.mesh
    f = metric.warping
    lap = mesh.laplacian(u)
    du = mesh.derivative(u)
    d2u = mesh.second_derivative(u)
    ric_rr, ric_fiber = ricci_warped(metric)
    df = mesh.derivative(f)
    return MetricPerturbation(
        a=-lap + d2u - u * ric_rr,
        b=-lap + (df / f) * du - u * ric_fiber,
    )


def _orthonormal_adjoint(metric: WarpedProductMetric) -> sp.csc_array:
    """B = M_h^{-1/2} J^T M^{1/2}, the (2N, N) adjoint in orthonormal coordinates."""
    m = metric.mesh.mass_vector()
    mh = np.concatenate([m, metric.fiber_dim * m])
    return _scaled_transpose(linearize_scal_matrix(metric), 1.0 / np.sqrt(mh), np.sqrt(m))


def dense_kernel_min_singular(metric: WarpedProductMetric) -> float:
    """Smallest singular value of the adjoint between the weighted spaces, by
    the dense SVD of B = M_h^{-1/2} J^T M^{1/2}, a (2N, N) matrix."""
    return float(np.linalg.svd(_orthonormal_adjoint(metric).toarray(), compute_uv=False)[-1])


def adjoint_norm1(metric: WarpedProductMetric) -> float:
    """||B||_1, the largest column sum of |B|, for the relative kernel floor."""
    return float(np.max(abs(_orthonormal_adjoint(metric)).sum(axis=0)))


def pinching_check(target, scal, c: float) -> bool:
    """Strict nodewise window c min(target) < scal < c max(target)."""
    if c <= 0:
        raise ValueError("the window constant must be positive")
    target = np.asarray(target, dtype=float)
    scal = np.asarray(scal, dtype=float)
    return bool(np.all(c * np.min(target) < scal) and np.all(scal < c * np.max(target)))


def exact_window(target, scal):
    """The window {c > 0 : c min(target) < scal < c max(target)} in exact
    rational arithmetic: (lo, hi) with hi None when unbounded, or None when
    empty.  Both conditions are linear in c, so each holds on whole pieces
    between the breakpoints 0, min(scal)/min(target) and
    max(scal)/max(target); the window is the union of the pieces whose
    midpoint passes, and it is convex."""
    t_min, t_max = Fraction(float(np.min(target))), Fraction(float(np.max(target)))
    s_min, s_max = Fraction(float(np.min(scal))), Fraction(float(np.max(scal)))
    cuts = sorted({Fraction(0)} | {s / t for s, t in ((s_min, t_min), (s_max, t_max))
                                   if t != 0 and s / t > 0})

    def holds(c):
        return c * t_min < s_min and s_max < c * t_max

    pieces = [(a, b) for a, b in zip(cuts, cuts[1:] + [None])
              if holds(a + 1 if b is None else (a + b) / 2)]
    if not pieces:
        return None
    return pieces[0][0], pieces[-1][1]


def window_constant_loop(target, scal) -> float | None:
    """`curvlab.prescribe._window_constant` with one `pinching_check` and one
    distance per grid constant, the first smallest winning; None when no grid
    constant passes."""
    target = np.asarray(target, dtype=float)
    window = [float(c) for c in np.logspace(-3.0, 3.0, 61) if pinching_check(target, scal, c)]
    return min(window, key=lambda cc: float(np.max(np.abs(cc * target - scal))), default=None)


def greedy_walk_loop(table, L, mu, starts):
    """The greedy walk of `approximate_by_diffeo`, one numpy call per cell.

    Same contract as `curvlab.prescribe._greedy_walk`: positions of the
    first start whose walk fits in one period, pushed mu apart, or None.
    """
    m_cells = table.shape[1]
    chosen = None
    for start in starts:
        X = np.empty(m_cells)
        X[0] = start
        feasible = True
        for i in range(1, m_cells):
            # nearest candidate at or ahead of the current position;
            # repeated target values reuse the same point
            cands = table[:, i]
            cands = cands[~np.isnan(cands)]
            lifted = cands + L * np.ceil((X[i - 1] - cands) / L - 1e-12)
            nxt = max(float(np.min(lifted)), X[i - 1])
            if nxt - X[0] > L - (m_cells + 2) * mu:
                feasible = False
                break
            X[i] = nxt
        if feasible:
            chosen = X
            break
    if chosen is not None:
        for i in range(1, m_cells):
            chosen[i] = max(chosen[i], chosen[i - 1] + mu)
    return chosen


def monotone_runs_loop(values):
    """Maximal monotone runs of a periodic sample, found by a Python loop."""
    n = len(values)
    ext = np.concatenate([values, values[:1]])
    d = np.diff(ext)
    sign = np.sign(d)
    sign[sign == 0] = 1.0
    turns = [0]
    for i in range(1, n):
        if sign[i] != sign[i - 1]:
            turns.append(i)
    runs = []
    for idx, start in enumerate(turns):
        stop = turns[idx + 1] if idx + 1 < len(turns) else n
        runs.append((start, stop))
    return runs


def periodic_interp_mod(x, nodes, values, length):
    """Periodic interpolation with every argument wrapped by np.mod into
    [0, length), on the nodes and values closed at ``length``."""
    return np.interp(np.mod(x, length), np.append(nodes, length), np.append(values, values[0]))


def scal_operator(metric) -> np.ndarray:
    """The curvature operator F(g) on either metric representation."""
    if isinstance(metric, WarpedProductMetric):
        return scal_warped(metric)
    if isinstance(metric, DiagonalInvariantMetric):
        return metric.scal()
    raise TypeError(f"unsupported metric type {type(metric)!r}")


def coercive_energy(p: ConformalProblem, u) -> float:
    """The all-plus functional of the negative regime (grows in every direction)."""
    g = p.constants
    mesh = p.mesh
    u = np.asarray(u, dtype=float)
    return (2.0 * g.b_n * mesh.dirichlet_form(u, u)
            + 0.5 * mesh.integrate(p.scal * u**2)
            + (p.c / g.two_star) * mesh.integrate(np.abs(u) ** g.two_star))


def bordered_entries(A, column, row):
    """Entries (i, j, a) of the bordered matrix [[A, column], [row, 0]], A sparse."""
    A = sp.coo_array(A)
    n = A.shape[0]
    return (np.concatenate((A.row, np.arange(n), np.full(n, n))),
            np.concatenate((A.col, np.full(n, n), np.arange(n))),
            np.concatenate((A.data, column, row)))


def negative_newton_loop(metric: WarpedProductMetric, cfg: SolverConfig | None = None,
                         c: float | None = None, u0=None):
    """`solve_negative_constant` as it was before its loop became `_bordered_newton`.

    A hand-written bordered Newton iteration in (u, c') with the mass
    normalization as the border, a budget of `cfg.max_iter` steps and a line
    search that accepts any step below tau = 1e-8.  Each step solves with the
    library's `condensed_solve` on the same entries, so the comparison is bit
    for bit.  Same arguments, return value and exceptions as
    `solve_negative_constant` on a class N_G background; it does not read the
    class.
    """
    cfg = cfg or SolverConfig(tol_residual=1e-8)
    mesh = metric.mesh
    g = YamabeConstants.for_dimension(metric.dim)
    scal = scal_warped(metric)
    bound = negative_constant_bound(metric)
    if c is None:
        c = bound + 1.0
    elif c < bound:
        raise PreconditionError(
            f"functional constant {c:.6g} below the coercivity bound {bound:.6g}",
            condition="coercivity-bound")

    n = mesh.node_count
    m = mesh.mass_vector()
    u = np.ones(n) if u0 is None else np.asarray(u0, dtype=float).copy()
    if np.any(u <= 0):
        raise PreconditionError("start profile must be positive", condition="positive-start")
    mass0 = float(np.dot(u * u, m))
    cprime = float(c)
    scaled_lap = 4.0 * g.b_n * mesh.laplacian_matrix()

    def residual_vec(u_, cp_):
        r = 4.0 * g.b_n * mesh.laplacian(u_) - scal * u_ - cp_ * u_**g.gamma_n
        return np.concatenate([r, [np.dot(u_ * u_, m) - mass0]])

    res = residual_vec(u, cprime)
    res_norm = np.linalg.norm(res)
    converged = False
    newton_iterations = 0
    for newton_iterations in range(1, cfg.max_iter + 1):
        shift = scal + cprime * g.gamma_n * u**(g.gamma_n - 1)
        try:
            delta = condensed_solve(*bordered_entries(scaled_lap - sp.diags_array(shift),
                                                      -(u**g.gamma_n), 2.0 * u * m),
                                    -res, (0, n))
        except np.linalg.LinAlgError as exc:
            raise SolverError(f"singular Newton system: {exc}") from exc
        tau = 1.0
        while tau >= 1e-10:
            u_new = u + tau * delta[:n]
            cp_new = cprime + tau * delta[n]
            if np.min(u_new) > _POSITIVITY_FLOOR:
                res_new = residual_vec(u_new, cp_new)
                if np.linalg.norm(res_new) <= (1.0 - 0.25 * tau) * res_norm or tau < 1e-8:
                    break
            tau *= 0.5
        else:
            raise SolverError("Newton line search stalled")
        u, cprime, res, res_norm = u_new, cp_new, res_new, np.linalg.norm(res_new)
        if np.max(np.abs(u)) < _POSITIVITY_FLOOR:
            raise SolverError("profile collapsed toward the trivial solution")
        pde_norm = mesh.lp_norm(res[:n], 2)
        if pde_norm < cfg.tol_residual and abs(res[n]) < cfg.tol_residual * max(1.0, mass0):
            converged = True
            break
    if not converged:
        raise SolverError(f"negative-constant Newton did not converge (residual {res_norm:.3e})")

    if not cprime > 0:
        raise SolverError(f"converged to c' = {cprime:.3e}")
    pde_norm = mesh.lp_norm(res[:n], 2)
    lam = cprime / c - 1.0
    solution = ConformalSolution(u=u, lagrange=lam, achieved_constant=cprime,
                                 residual_norm=pde_norm, iterations=newton_iterations)
    return solution, float(c)


def dense_generalized_lambda1(metric: WarpedProductMetric) -> float:
    """The first eigenvalue `classify_conformal_class` once computed: the
    generalized dense problem (4 b_n S + M scal) x = lambda M x, with M as a
    dense diagonal matrix."""
    g = YamabeConstants.for_dimension(metric.dim)
    mesh = metric.mesh
    m = mesh.mass_vector()
    A = (4.0 * g.b_n * mesh.stiffness_matrix() + sp.diags_array(m * scal_warped(metric))).toarray()
    return float(scipy.linalg.eigh(A, np.diag(m), eigvals_only=True, subset_by_index=[0, 0])[0])


# ---------------------------------------------------------------------------
# mesh stencils, written out with np.roll and slices
# ---------------------------------------------------------------------------


def derivative_stencil(mesh, u) -> np.ndarray:
    """Second-order first derivative; one-sided at interval endpoints.

    The closures sum their terms in column order, as a CSR row does.
    """
    u = np.asarray(u, dtype=float)
    h = mesh.h
    if mesh.topology == CIRCLE:
        return (np.roll(u, -1) - np.roll(u, 1)) / (2.0 * h)
    du = np.empty_like(u)
    du[1:-1] = (u[2:] - u[:-2]) / (2.0 * h)
    du[0] = (-3.0 * u[0] + 4.0 * u[1] - u[2]) / (2.0 * h)
    du[-1] = (u[-3] - 4.0 * u[-2] + 3.0 * u[-1]) / (2.0 * h)
    return du


def second_derivative_stencil(mesh, u) -> np.ndarray:
    """Compact second-order second derivative; one-sided at endpoints.

    Every row sums its terms in column order, as a CSR row does: on the
    circle the wrapped neighbor comes last in the first row and first in the
    last row.
    """
    u = np.asarray(u, dtype=float)
    d2 = np.empty_like(u)
    d2[1:-1] = u[:-2] - 2.0 * u[1:-1] + u[2:]
    if mesh.topology == CIRCLE:
        d2[0] = -2.0 * u[0] + u[1] + u[-1]
        d2[-1] = u[0] + u[-2] - 2.0 * u[-1]
    else:
        d2[0] = 2.0 * u[0] - 5.0 * u[1] + 4.0 * u[2] - u[3]
        d2[-1] = -u[-4] + 4.0 * u[-3] - 5.0 * u[-2] + 2.0 * u[-1]
    return d2 / (mesh.h * mesh.h)


def _face_differences(mesh, u) -> np.ndarray:
    """u_{j+1} - u_j at each face, circularly on circles."""
    u = np.asarray(u, dtype=float)
    return np.roll(u, -1) - u if mesh.topology == CIRCLE else u[1:] - u[:-1]


def face_weights(mesh) -> np.ndarray:
    """Weight at face j+1/2, the average of its two nodes."""
    w = mesh.weights
    if mesh.topology == CIRCLE:
        return 0.5 * (w + np.roll(w, -1))
    return 0.5 * (w[:-1] + w[1:])


def cell_volumes(mesh) -> np.ndarray:
    """Quadrature masses, with the face-average half cell at a vanishing
    interval endpoint weight."""
    vol = mesh.mass_vector()
    if mesh.topology != CIRCLE:
        face = face_weights(mesh)
        for j in (0, -1):
            if mesh.weights[j] == 0:
                vol[j] = 0.25 * mesh.h * face[j]
    return vol


def laplacian_flux(mesh, u) -> np.ndarray:
    """(1/w)(w u')' as the difference of face fluxes, zero flux past an
    interval's ends."""
    flux = face_weights(mesh) * _face_differences(mesh, u) / mesh.h
    if mesh.topology == CIRCLE:
        div = flux - np.roll(flux, 1)
    else:
        div = np.diff(flux, prepend=0.0, append=0.0)
    return div / cell_volumes(mesh)


def dirichlet_form_sum(mesh, u, v) -> float:
    """sum over faces of w_face (du)(dv) / h."""
    du, dv = _face_differences(mesh, u), _face_differences(mesh, v)
    return float(np.sum(face_weights(mesh) * du * dv) / mesh.h)


def scal_warped_formula(metric: WarpedProductMetric) -> np.ndarray:
    """c_F/f^2 - 2k f''/f - k(k-1)(f'/f)^2 on the mesh stencils."""
    f = metric.warping
    k = metric.fiber_dim
    df = metric.mesh.derivative(f)
    d2f = metric.mesh.second_derivative(f)
    return metric.fiber_scal / f**2 - 2.0 * k * d2f / f - k * (k - 1) * (df / f) ** 2


def shrink_map_apply(orbit: OrbitData, t: float, vec: TangentSplit) -> TangentSplit:
    """Apply C_t: identity on the normal part, (1 + tP)^{-1} on the orbit part."""
    if t < 0:
        raise ValueError("deformation time must be nonnegative")
    P = orbit.algebra.tensor
    M = np.eye(orbit.orbit_dim) + t * P
    return TangentSplit(vec.normal, np.linalg.solve(M, vec.orbit))


def conformal_warped_metric(metric: WarpedProductMetric, u, n_out: int | None = None
                            ) -> WarpedProductMetric:
    """Resample u^(4/(n-2)) g as a warped product over its own arclength circle.

    With v = u^(2/(n-2)), the conformal metric is (v dr)^2 + (v f)^2 g_F; the
    new arclength is the antiderivative of v and the new warping is v f
    re-sampled on a uniform grid through periodic splines.
    """
    u = np.asarray(u, dtype=float)
    if np.any(u <= 0):
        raise PreconditionError("conformal factor must be strictly positive",
                                condition="positive-factor")
    mesh = metric.mesh
    n = metric.dim
    v = u ** (2.0 / (n - 2))
    nodes = np.append(mesh.nodes, mesh.length)
    v_ext = np.append(v, v[0])
    spline_v = scipy.interpolate.CubicSpline(nodes, v_ext, bc_type="periodic")
    phi = spline_v.antiderivative()(nodes)
    new_length = float(phi[-1])
    ftil = v * metric.warping
    spline_f = scipy.interpolate.CubicSpline(phi, np.append(ftil, ftil[0]), bc_type="periodic")
    n_out = n_out or mesh.node_count
    new_nodes = new_length / n_out * np.arange(n_out)
    return WarpedProductMetric.from_profile(
        n_out, new_length, metric.fiber_dim, metric.fiber_scal, spline_f(new_nodes))


def flattened_solution(metric: WarpedProductMetric) -> np.ndarray:
    """The conformal factor u = f^{-(n-2)/2} at the nodes.

    u^(4/(n-2)) g = f^-2 (dr^2 + f^2 g_F) = ds^2 + g_F with ds = dr/f, a
    cylinder of constant scalar curvature c_F.  So it solves the conformal
    equation in the continuum, and in the classes Z and N every solution is a
    constant multiple of it.
    """
    return metric.warping ** (-(metric.dim - 2) / 2.0)


def negative_constant_exact(metric: WarpedProductMetric) -> float:
    """The constant c' of `solve_negative_constant` from the start u0 = 1.

    In class N the solution is u = a f^{-(n-2)/2} (`flattened_solution`),
    whose metric a^(4/(n-2)) (ds^2 + g_F) has scalar curvature
    c_F a^(-4/(n-2)) = -c'.  The mass normalization int u^2 f^k dr =
    int f^k dr fixes a^2 = int f^k dr / int f dr, with n = k + 1.  The
    integrals are plain means over the uniform circle nodes, a periodic
    trapezoid rule that is exact to rounding for these smooth warpings.
    """
    f = metric.warping
    ratio = np.mean(f) / np.mean(f**metric.fiber_dim)
    return -metric.fiber_scal * ratio ** (2.0 / (metric.dim - 2))

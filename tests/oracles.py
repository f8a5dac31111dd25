"""Independent oracles used by the test suite.

These deliberately re-derive quantities along different routes than the
library: full index-level curvature tensor contraction for group metrics,
dense sampling plus derivative-free subspace ascent for the constrained
twist-term maximum, plain high-resolution quadrature, a dense
column-by-column assembly of the discrete curvature Jacobian, and the
continuum formula of its adjoint, and the per-cell loops that
`approximate_by_diffeo` once ran for its greedy walk and its monotone-run
split.
"""

import numpy as np

from curvlab.cheeger import _twist_vector
from curvlab.models import WarpedProductMetric, ricci_warped
from curvlab.prescribe import MetricPerturbation, _scal_jacobian_components


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
    vectors Z instead of the library's closed-form maximum.
    """
    if t < 0:
        raise ValueError("deformation time must be nonnegative")
    if t == 0:
        return 0.0
    rng = np.random.default_rng(rng)
    lvec, d_iso = _twist_vector(orbit, t, x, y, iso)
    k = orbit.orbit_dim
    Z = rng.normal(size=(samples, k + d_iso))
    Z /= np.linalg.norm(Z, axis=1, keepdims=True)
    num = (Z @ lvec) ** 2
    den = t * np.einsum('si,ij,sj->s', Z[:, :k], orbit.algebra.tensor, Z[:, :k]) + 1.0
    return 3.0 * t * float(np.max(num / den))


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


def dense_scal_jacobian(metric, A=None, B=None):
    """Jacobian of the discrete scal in (a, b) coordinates, dense, (N, 2N).

    The chain rule of the library's `linearize_scal_matrix`, assembled the
    slow way: the derivative matrices are built column by column by applying
    the mesh stencils to unit vectors, and every product is a dense matrix
    product.  Same arguments as `linearize_scal_matrix`.
    """
    mesh = metric.mesh
    if isinstance(metric, WarpedProductMetric):
        base_fiber = metric.warping**2
        A = np.ones(mesh.node_count) if A is None else A
        B = base_fiber if B is None else B
    else:
        if A is None or B is None:
            A, B = metric.radial, metric.fiber
        base_fiber = B
    dA, dAr, dB, dF, dFr, dFrr, F = _scal_jacobian_components(
        mesh, A, B, metric.fiber_dim, metric.fiber_scal)
    eye = np.eye(mesh.node_count)
    D1 = np.column_stack([mesh.derivative(col) for col in eye.T])
    D2 = np.column_stack([mesh.second_derivative(col) for col in eye.T])
    block_a = np.diag(dA) + np.diag(dAr) @ D1
    chain = (np.diag(dF) + np.diag(dFr) @ D1 + np.diag(dFrr) @ D2) @ np.diag(0.5 / F)
    block_b = (np.diag(dB) + chain) @ np.diag(base_fiber)
    return np.hstack([block_a, block_b])


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

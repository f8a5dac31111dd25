"""Prescribing scalar curvature on the warped family by direct linearization.

The quasilinear curvature operator F(g) = scal_g is differentiated in the
invariant diagonal directions h = a dr^2 + b f^2 g_F.  `linearize_scal_matrix`
assembles the exact Jacobian of the discrete operator by the chain rule
through the difference stencils, as a sparse CSR array filled in O(N) numpy
work on the mesh's cached stencil pattern.  The formal adjoint
`linearize_scal_adjoint` is the exact transpose of that Jacobian in the mesh
inner products, so adjointness holds at the level of matrices; the continuum
expression -(lap u) g + Hess u - u Ric becomes an O(h^2) consistency check
instead of the implementation.  Every sparsity pattern here depends on N
only; its index side is built once per N, in bounded caches of read-only
tables, and a call does only gathers, scatters and solves.

A metric is locally surjective onto nearby curvature functions whenever the
adjoint has trivial kernel (quantified by `kernel_min_singular`: exactly zero
on the flat model, where constants are annihilated, and bounded away from
zero on generic backgrounds).  That test forms no dense matrix: Lanczos
iterates on the inverse Gram operator of the adjoint, applied through the
augmented system.  Numbered in fold order 0, N-1, 1, N-2, ..., that system
is a band without corners: one banded LU (`dgbtrf`) factors it, and each
Lanczos step is one banded solve (`dgbtrs`), in O(N) work and memory.
`newton_prescribe` tests the kernel once per metric, then solves
F(g + adjoint(u)) = K by Newton iterations whose linear systems use the
composition jacobian . adjoint.  That composition is cyclic pentadiagonal,
so each step is O(N): one `np.bincount` forms it, and a planned condensed
solve makes one banded LU (`scipy.linalg`) and a 2x2 Schur complement.
`full_prescribe` chains the pinching window, the escape from a kernel
background, an optional measure-concentrating reparametrization phi, and
the Newton solve.

The result is a statement in the Newton chart, as in the Kazdan-Warner route
through an approximation lemma and local surjectivity: the returned metric
realizes target o phi on the uniform mesh, so ``target`` is the curvature of
(phi^{-1})^* metric_out.  Every reported error is the stencil curvature of the
returned metric against target o phi, and an error above ``_SUP_TOL`` is a
`SolverError`.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import TYPE_CHECKING

import numpy as np

from . import _frozen, _newton
from .errors import PreconditionError, SolverError
from .mesh import CIRCLE, INTERVAL, QuotientMesh, _as_values, _stencils, build_mesh
from .models import (DiagonalInvariantMetric, WarpedProductMetric, as_diagonal,
                     scal_diagonal, scal_warped)

if TYPE_CHECKING:
    import scipy.sparse as sp


@dataclass(frozen=True)
class MetricPerturbation:
    """Invariant diagonal 2-tensor a dr^2 + b f^2 g_F (sign-indefinite)."""

    a: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        _frozen.store(self, "b", _frozen.store(self, "a", (None,)).shape)

    def flat(self) -> np.ndarray:
        return np.concatenate([self.a, self.b])


def tensor_inner(mesh: QuotientMesh, fiber_dim: int, h1: MetricPerturbation,
                 h2: MetricPerturbation) -> float:
    """Inner product induced by g on diagonal 2-tensors: a.a' + k b.b' weighted."""
    m = mesh.mass_vector()
    return float(np.dot(h1.a * h2.a, m) + fiber_dim * np.dot(h1.b * h2.b, m))


# ---------------------------------------------------------------------------
# linearization and its exact adjoint
# ---------------------------------------------------------------------------


def _scal_jacobian_components(mesh: QuotientMesh, A, B, fiber_dim: int, fiber_scal: float):
    """Pointwise partials of scal_diagonal in its arclength form.

    Differentiates through F = sqrt(B): returns the partials with respect to
    (A, A_r) and (B, F, F_r, F_rr) together with F itself for the chain rule
    dF = dB / (2F).
    """
    k = fiber_dim
    F = np.sqrt(B)
    Ar = mesh.derivative(A)
    Fr = mesh.derivative(F)
    Frr = mesh.second_derivative(F)
    dA = (2 * k * Frr / (A**2 * F) - 2 * k * Fr * Ar / (A**3 * F)
          + k * (k - 1) * Fr**2 / (A**2 * F**2))
    dAr = k * Fr / (A**2 * F)
    dB = -fiber_scal / B**2
    dF = (2 * k * Frr / (A * F**2) - k * Fr * Ar / (A**2 * F**2)
          + 2 * k * (k - 1) * Fr**2 / (A * F**3))
    dFr = k * Ar / (A**2 * F) - 2 * k * (k - 1) * Fr / (A * F**2)
    dFrr = -2 * k / (A * F)
    return dA, dAr, dB, dF, dFr, dFrr, F


def linearize_scal_matrix(metric, A=None, B=None) -> sp.csr_array:
    """Exact Jacobian of the discrete F in (a, b) coordinates, a CSR array (N, 2N).

    Accepts a warped base (A=1, B=f^2) or explicit diagonal components; the b
    block carries the base factor f^2 because perturbations are measured
    against the warped background.  The chain rule through D1 and D2 is
    evaluated entry by entry on the mesh's cached `StencilPattern`: O(N) numpy
    work on one data array.  The indices are sorted and depend on the mesh
    alone; pattern entries a block does not reach hold exact zeros.
    """
    import scipy.sparse as sp

    mesh, n, k, c_f = metric.mesh, metric.mesh.node_count, metric.fiber_dim, metric.fiber_scal
    if isinstance(metric, WarpedProductMetric):
        base_fiber = metric.warping**2
        A = np.ones(n) if A is None else A
        B = base_fiber if B is None else B
    else:
        if A is None or B is None:
            A, B = metric.radial, metric.fiber
        base_fiber = B
    dA, dAr, dB, dF, dFr, dFrr, F = _scal_jacobian_components(mesh, A, B, k, c_f)
    pattern = mesh.stencil_pattern
    row, col, diagonal = pattern.row, pattern.col, pattern.diagonal
    # a: diag(dA) + diag(dAr) D1; b: (diag(dB) + (diag(dF) + diag(dFr) D1 +
    # diag(dFrr) D2) diag(1/2F)) diag(base_fiber), summed in that order, so
    # every entry is bit for bit the one the sparse products give
    block_a = dAr[row] * pattern.d1
    block_a[diagonal] += dA
    block_b = dFr[row] * pattern.d1
    block_b[diagonal] += dF
    block_b += dFrr[row] * pattern.d2
    block_b *= (0.5 / F)[col]
    block_b[diagonal] += dB
    block_b *= base_fiber[col]
    indices, indptr, gather, _, _ = _jacobian_layout(mesh.topology, n)
    data = np.concatenate([block_a, block_b])[gather]
    return sp.csr_array((data, indices, indptr), shape=(n, 2 * n))


@lru_cache(maxsize=32)
def _jacobian_layout(topology: str, n: int):
    """J's CSR indices and indptr (int32, as scipy keeps them), the order that
    gathers its a block's entries, then its b block's, into CSR order, and
    each entry's row and column.  Both blocks have D2's `StencilPattern`."""
    d2 = _stencils(topology, n).diff2.cols.T
    row, term = np.nonzero(d2 < n)
    keys = np.concatenate([2 * n * row + d2[row, term], 2 * n * row + d2[row, term] + n])
    gather = np.argsort(keys)
    rows, indices = np.divmod(keys[gather], 2 * n)
    indptr = np.searchsorted(rows, np.arange(n + 1))
    layout = indices.astype(np.int32), indptr.astype(np.int32), gather, rows, indices
    for arr in layout:
        arr.setflags(write=False)
    return layout


_Plan = namedtuple("_Plan", "rows cols first partner slot solve k ldab unit pair x_at start")


@lru_cache(maxsize=32)
def _plan(n: int) -> _Plan:
    """The read-only index side of `newton_prescribe` and `kernel_min_singular`
    on a circle of ``n`` nodes, with Q = M_h^{-1} J^T M and B as their entries
    in J's order.  J.Q's entry slot[t], of the pattern `solve` is planned for,
    sums J[first[t]] Q[partner[t]] in the order of scipy's csr_matmat; the
    kernel test's band holds 1.0 at `unit` and B's entries at `pair`, twice."""
    _, _, _, rows, cols = _jacobian_layout(CIRCLE, n)
    # J[e] meets the entries of Q's row cols[e], which are the 3 entries of
    # J's column cols[e] on a circle; csr_matmat takes the e in order
    first = np.repeat(np.arange(len(cols)), 3)
    partner = np.argsort(cols, kind="stable").reshape(2 * n, 3)[cols].ravel()
    keys, slot = np.unique(n * rows[first] + rows[partner], return_inverse=True)
    # fold order 0, N-1, 1, N-2, ...: stencil neighbours are at most 2 places
    # apart, and node j's y_a, y_b and x are rows 3p, 3p + 1, 3p + 2 of K
    place = np.minimum(2 * np.arange(n), 2 * (n - np.arange(n)) - 1)
    y_at, x_at = np.concatenate([3 * place, 3 * place + 1]), 3 * place + 2
    i, j = y_at[cols], x_at[rows]
    k = int(np.abs(i - j).max())
    # LAPACK band storage of K, column-major with k more rows for the fill
    # of pivoting: K[a, b] is entry 2k + a + b (ldab - 1) of the flat array
    ldab = 3 * k + 1
    plan = _Plan(rows, cols, first, partner, slot,
                 _newton.condensed_solver(keys // n, keys % n, n, (0, 1)), k, ldab,
                 2 * k + y_at * ldab, 2 * k + np.concatenate([i + j * ldab - j, j + i * ldab - i]),
                 x_at, np.random.default_rng(0).standard_normal(n))
    for arr in plan[:5] + plan[-4:]:
        arr.setflags(write=False)
    return plan


def linearize_scal_adjoint(metric: WarpedProductMetric, u) -> MetricPerturbation:
    """Formal adjoint of the linearization applied to a function.

    Exact transpose of the discrete Jacobian; agrees with the invariant
    reduction of -(lap u) g + Hess u - u Ric to second order in h.
    """
    n, m, plan = metric.mesh.node_count, metric.mesh.mass_vector(), _plan(metric.mesh.node_count)
    mh = np.concatenate([m, metric.fiber_dim * m])
    Q = (1.0 / mh)[plan.cols] * linearize_scal_matrix(metric).data * m[plan.rows]
    full = np.bincount(plan.cols, Q * _as_values(u, n)[plan.rows], 2 * n)
    return MetricPerturbation(a=full[:n], b=full[n:])


def kernel_min_singular(metric: WarpedProductMetric) -> float:
    """Smallest singular value of the adjoint between the weighted spaces.

    Vanishes exactly when constants are annihilated (flat background: zero
    curvature and zero Ricci); bounded away from zero on generic backgrounds,
    which is the quantitative form of the kernel dichotomy.

    With B = M_h^{-1/2} J^T M^{1/2}, the (2N, N) adjoint in orthonormal
    coordinates, the augmented matrix K = [[I, B], [B^T, 0]] is factored
    once: the solve of K (y, x) = (0, -v) gives x = (B^T B)^{-1} v (Bjorck,
    *Numerical Methods for Least Squares Problems*, 1996, on the augmented
    system).  Numbered in fold order 0, N-1, 1, N-2, ..., with node j's
    unknowns (y_a, y_b, x) side by side, K is a band of half-bandwidth 8
    without corner entries, so one `dgbtrf` (banded LU with partial
    pivoting) factors it and each solve is one `dgbtrs`; where B's entries go
    in the band is read from a table built once per N.  Lanczos (`eigsh`,
    ARPACK; Lehoucq, Sorensen and Yang, *ARPACK Users' Guide*, 1998) finds
    the largest eigenvalue of that inverse, starting from a fixed seeded
    vector so that two calls return the same float, and the value returned
    is ||B x|| / ||x|| at its eigenvector x.  O(N) work and memory; no dense
    matrix is formed.  An exact zero pivot means K has a kernel and returns
    0.0; a Lanczos run that does not converge is a `SolverError`.
    """
    from scipy.linalg.lapack import dgbtrf, dgbtrs
    from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, eigsh

    n, m, plan = metric.mesh.node_count, metric.mesh.mass_vector(), _plan(metric.mesh.node_count)
    mh = np.concatenate([m, metric.fiber_dim * m])
    B = (1.0 / np.sqrt(mh))[plan.cols] * linearize_scal_matrix(metric).data * np.sqrt(m)[plan.rows]
    k, size = plan.k, 3 * n
    band = np.zeros(size * plan.ldab)
    band[plan.unit] = 1.0
    band[plan.pair] = np.concatenate([B, B])
    lu, pivots, info = dgbtrf(band.reshape(size, plan.ldab).T, k, k, overwrite_ab=True)
    if info > 0:  # an exact zero pivot: K is singular
        return 0.0
    rhs = np.zeros(size)

    def inverse_gram(v):
        rhs[plan.x_at] = -v.ravel()
        return dgbtrs(lu, k, k, rhs, pivots)[0][plan.x_at]

    # a constant start is an exact eigenvector of B^T B on the homogeneous
    # backgrounds, not the extreme one.  "LM", not "LA": near a kernel the
    # rounding of the solve can give the huge eigenvalue either sign.  ncv = 6,
    # not scipy's 20: the larger basis measured slower, and slowed the dense
    # SVDs run after it.
    try:
        _, vectors = eigsh(LinearOperator((n, n), matvec=inverse_gram, dtype=float),
                           k=1, which="LM", v0=plan.start, ncv=6)
    except ArpackNoConvergence as err:
        raise SolverError(f"kernel test: Lanczos did not converge ({err})") from err
    x = vectors[:, 0]
    return float(np.linalg.norm(np.bincount(plan.cols, B * x[plan.rows])) / np.linalg.norm(x))


# ---------------------------------------------------------------------------
# Newton prescription
# ---------------------------------------------------------------------------


_KERNEL_FLOOR = 1e-12  # smallest adjoint singular value of a non-kernel background, per ||B||_1
_SUP_TOL = 1e-3  # largest sup distance of a returned curvature from target o phi
_ESCAPE_BUMP = 1e-3  # relative warping bump that escapes a kernel background


def _check_lp_tolerance(p, eps) -> None:
    """Reject an L^p tolerance that is out of range or NaN."""
    if not p >= 1:
        raise ValueError("p must be >= 1")
    if not eps > 0:
        raise ValueError("eps must be positive")


@dataclass(frozen=True)
class PrescribeConfig:
    """Settings of the prescription: ``newton_tol`` and ``newton_max_iter``
    are the residual and step budget of `newton_prescribe`; ``p`` and ``eps``
    set the L^p tolerance that `approximate_by_diffeo` meets on the
    reparametrized path.  A NaN or out-of-range setting is a `ValueError`."""

    newton_tol: float = 1e-8
    newton_max_iter: int = 40
    p: float = 2.0
    eps: float = 1e-2

    def __post_init__(self):
        if not (self.newton_tol > 0 and self.newton_max_iter > 0):
            raise ValueError("newton_tol and newton_max_iter must be positive")
        _check_lp_tolerance(self.p, self.eps)


@dataclass(frozen=True)
class NewtonResult:
    metric_out: DiagonalInvariantMetric
    u: np.ndarray
    residuals: tuple


def _nodal(values, n: int, name: str) -> np.ndarray:
    """``values`` as n floats; another length, a NaN or an infinity is a `ValueError`."""
    values = np.asarray(values, dtype=float)
    if values.shape != (n,):
        raise ValueError(f"{name} length mismatch")
    if not np.all(np.isfinite(values)):
        raise ValueError(f"{name} must be finite")
    return values


def _newton_step(metric: WarpedProductMetric):
    """||B||_1 (largest column sum) of the adjoint B that `kernel_min_singular`
    tests, and the step (x, (r, A, B)) -> (delta, Q delta) of `newton_prescribe`
    solving (J Q) delta = -r, J the Jacobian at (A, B), Q the base adjoint."""
    n, m, plan = metric.mesh.node_count, metric.mesh.mass_vector(), _plan(metric.mesh.node_count)
    mh = np.concatenate([m, metric.fiber_dim * m])
    Q = (1.0 / mh)[plan.cols] * linearize_scal_matrix(metric).data * m[plan.rows]
    norm = float(np.max(np.bincount(plan.rows, abs(Q) * np.sqrt(mh)[plan.cols], n) / np.sqrt(m)))
    Q_partner = Q[plan.partner]

    def step(x, state):
        J = linearize_scal_matrix(metric, A=state[1], B=state[2])
        delta = plan.solve(np.bincount(plan.slot, J.data[plan.first] * Q_partner), -state[0])
        return np.concatenate((delta, np.bincount(plan.cols, Q * delta[plan.rows], 2 * n)))

    return norm, step


def newton_prescribe(metric: WarpedProductMetric, K, cfg: PrescribeConfig | None = None
                     ) -> NewtonResult:
    """Solve F(g + adjoint(u)) = K for the potential u by damped Newton.

    The merit is the weighted-L2 residual; an iterate is admissible while the
    metric is positive definite.  The Newton unknown is the pair (u, h) with
    h = adjoint(u) the metric perturbation: each step adds tau (delta,
    adjoint(delta)), and the metric is read from h.  Recomputing h from u
    instead would amplify the rounding of u by the fourth-order J.Q, whose
    norm grows like N^4, and stall the iteration from N ~ 512.  Each system,
    the current Jacobian composed with the base-point adjoint, is cyclic
    pentadiagonal, its corners touching nodes 0 and 1 only: one `np.bincount`
    over the mesh size's `_Plan` forms it, as scipy's sparse product would,
    and the planned `_newton.condensed_solver` with separator (0, 1) solves it
    in O(N).  A step makes exactly one `np.linalg.svd` (the rank test) and
    one `np.linalg.solve`, both on the 2x2 Schur complement, so the
    benchmark's per-step counts of those calls still equal the Newton steps.
    A NaN or infinite ``K`` is a `ValueError`.
    """
    cfg = cfg or PrescribeConfig()
    mesh, n = metric.mesh, metric.mesh.node_count
    K = _nodal(K, n, "target K")

    norm, step = _newton_step(metric)
    sigma = kernel_min_singular(metric)
    if sigma < _KERNEL_FLOOR * norm:
        raise PreconditionError(
            f"adjoint kernel is not trivial (min singular value {sigma:.3e}, "
            f"{sigma / norm:.1e} of the adjoint's norm); "
            "the exceptional backgrounds are flat or positive-constant ones",
            condition="kernel-dichotomy")

    base_fiber = metric.warping**2

    def evaluate(x):
        A = 1.0 + x[n:2 * n]
        B = base_fiber * (1.0 + x[2 * n:])
        if not (np.all(A > 0) and np.all(B > 0)):
            return None
        r = scal_diagonal(mesh, A, B, metric.fiber_dim, metric.fiber_scal) - K
        return (r, A, B), mesh.lp_norm(r, 2)

    x, (_, A, B), history = _newton.damped_newton(
        np.zeros(3 * n), evaluate, step, lambda state, merit: merit < cfg.newton_tol,
        cfg.newton_max_iter, "prescription Newton")
    out = DiagonalInvariantMetric(mesh=mesh, fiber_dim=metric.fiber_dim,
                                  fiber_scal=metric.fiber_scal, radial=A, fiber=B)
    return NewtonResult(metric_out=out, u=x[:n], residuals=tuple(history))


# ---------------------------------------------------------------------------
# monotone reparametrizations of the circle
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Diffeo1D:
    """Monotone degree-one circle map, stored as a piecewise-linear lift.

    ``break_x`` / ``break_y`` are the lift's breakpoints over one period
    (break_y[-1] = break_y[0] + length) and all the map stores; node_values and
    node_derivatives are its read-only samples on the owning mesh, computed on
    first use.  Calling the object evaluates the lift at arbitrary coordinates
    with the equivariance phi(x + L) = phi(x) + L.
    """

    mesh: QuotientMesh
    break_x: np.ndarray
    break_y: np.ndarray

    def __post_init__(self):
        bx = _frozen.store(self, "break_x", (None,))
        by = _frozen.store(self, "break_y", bx.shape)
        if bx.size < 2:
            raise ValueError(f"break_x must hold at least two breakpoints, got {bx.size}")
        if np.any(np.diff(bx) <= 0) or np.any(np.diff(by) <= 0):
            raise ValueError("lift breakpoints must be strictly increasing")
        L = self.mesh.length
        if abs((bx[-1] - bx[0]) - L) > 1e-9 * L or abs((by[-1] - by[0]) - L) > 1e-9 * L:
            raise ValueError("lift must advance by exactly one period (winding 1)")

    @cached_property
    def node_values(self) -> np.ndarray:
        """phi at the mesh nodes, read from the lift."""
        values = np.interp(self.mesh.nodes, self.break_x, self.break_y)
        values.setflags(write=False)
        return values

    @cached_property
    def node_derivatives(self) -> np.ndarray:
        """phi' at the mesh nodes: the slope of the piece each node starts or lies in."""
        slopes = np.diff(self.break_y) / np.diff(self.break_x)
        piece = np.searchsorted(self.break_x, self.mesh.nodes, side="right") - 1
        derivatives = slopes[np.minimum(piece, len(slopes) - 1)]
        derivatives.setflags(write=False)
        return derivatives

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        L = self.mesh.length
        x0 = self.break_x[0]
        wraps = np.floor((x - x0) / L)
        base = x - wraps * L
        return np.interp(base, self.break_x, self.break_y) + wraps * L

    def compose(self, values) -> np.ndarray:
        """values o phi at the nodes, ``values`` interpolated periodically between nodes."""
        return _periodic_interp(self.node_values, self.mesh.nodes, values, self.mesh.length)

    @classmethod
    def identity(cls, mesh: QuotientMesh) -> "Diffeo1D":
        bx = [0.0, mesh.length]
        return cls(mesh=mesh, break_x=bx, break_y=bx)


@dataclass(frozen=True)
class ApproximationResult:
    phi: Diffeo1D
    achieved_error: float
    requested_eps: float
    p: float
    cells: int


def _wrap(x, length) -> np.ndarray:
    """x reduced into [0, length) by np.mod, applied only to the entries outside
    that interval: np.mod returns the others unchanged, up to the sign of a
    zero, which np.interp does not see."""
    x = np.asarray(x, dtype=float)
    outside = (x < 0) | (x >= length)
    if outside.any():
        x = x.copy()
        x[outside] = np.mod(x[outside], length)
    return x


def _periodic_interp(x, nodes, values, length):
    """``values`` at ``nodes`` interpolated at x with period ``length``."""
    return np.interp(_wrap(x, length), np.append(nodes, length), np.append(values, values[0]))


def _monotone_runs(values: np.ndarray):
    """Split a periodic sample into maximal monotone runs (index pairs)."""
    sign = np.sign(np.diff(values, append=values[:1]))
    sign[sign == 0] = 1.0
    bounds = [0, *(np.flatnonzero(np.diff(sign)) + 1).tolist(), len(values)]
    return list(zip(bounds[:-1], bounds[1:]))


def _greedy_walk(table: np.ndarray, L: float, mu: float, starts):
    """Winding-one walk through the candidate table, or None if none fits.

    From each start in turn, every cell takes the nearest candidate at or
    ahead of the previous position (repeated target values reuse the same
    point); a start fails once the walk spans more than L - (m + 2) mu.  The
    first walk that fits is returned with its positions pushed at least mu
    apart.

    The walk advances in windows of cells.  Each window is first walked with
    the position held at its start, which is right while the walk stays on
    one monotone run of the source, then every cell is recomputed from the
    guessed previous position; the cells up to the first disagreement are
    exact, and the next window starts there.  A window does the same IEEE
    operations per cell as the one-cell-at-a-time walk, on all R runs at
    once.  Windows double while they hold and restart at twice the exact
    stretch, so a walk costs O(m R) array work in about log m windows plus
    one per change of run or of lift.
    """
    m = table.shape[1]
    limit = L - (m + 2) * mu
    no_candidate = np.flatnonzero(np.all(np.isnan(table[:, 1:]), axis=0))
    reach = int(no_candidate[0]) + 1 if len(no_candidate) else m

    def step(prev, lo, hi):
        cands = table[:, lo:hi]
        lifted = cands + L * np.ceil((prev - cands) / L - 1e-12)
        return np.maximum(np.fmin.reduce(lifted, axis=0), prev)

    for start in starts:
        X = np.empty(m)
        X[0] = start
        i, width = 1, 64
        while i < reach:
            hi = min(i + width, reach)
            guess = np.maximum.accumulate(np.append(X[i - 1], step(X[i - 1], i, hi)))
            exact = step(guess[:-1], i, hi)
            wrong = np.flatnonzero(exact != guess[1:])
            done = int(wrong[0]) + 1 if len(wrong) else hi - i
            X[i:i + done] = exact[:done]
            i += done
            width = max(64, 2 * done)
            if X[i - 1] - X[0] > limit:
                break
        else:
            if reach < m:
                raise ValueError(f"cell {reach} has no candidate position")
            # mu spacing: X[i] = max(X[i], X[i-1] + mu) binds only after
            # near-repeats, and each bound stretch ends where X catches up
            for i in np.flatnonzero(X[:-1] + mu > X[1:]) + 1:
                while i < m and X[i - 1] + mu > X[i]:
                    X[i] = X[i - 1] + mu
                    i += 1
            return X
    return None


_FINE_FACTOR = 16  # the grid that checks the error has at least this many points per node
_MAX_CELLS = 4096  # cap on the cell count of the slope rule


def approximate_by_diffeo(mesh: QuotientMesh, source, target, p: float = 2.0,
                          eps: float = 1e-2) -> ApproximationResult:
    """Monotone reparametrization with ||source o phi - target||_p < eps.

    Constructive intermediate-value argument on the circle: partition into
    cells on which the target is nearly constant, pick for each cell a point
    where the source attains that value, and concentrate the cell's measure
    near that point, spending only a thin transition set on the moves between
    points.  The cell count is the smallest power of two from 64 to
    ``_MAX_CELLS`` at which the target, at its steepest node slope, changes
    by at most 0.6 eps V^(-1/p) across one cell (V the total volume), and
    the only one evaluated.  The monotone runs of the source polyline cover
    [min f, max f], so every cell value has a candidate; a fine grid only
    checks the error.  The forward greedy pick keeps the lift within one
    period, so the map has winding one; when the source oscillates less than
    the target that is impossible and a winding obstruction is reported.  An
    error not below eps is a resolution bound that quotes it.  The walk
    costs O(m R) for m cells and R monotone runs of the source, per start
    tried.

    Interval quotients are handled on the mirrored double cover and the
    returned map lives there.
    """
    _check_lp_tolerance(p, eps)
    n = mesh.node_count
    f, g = _nodal(source, n, "source"), _nodal(target, n, "target")

    if mesh.topology == INTERVAL:
        doubled = build_mesh(CIRCLE, 2 * (n - 1), 2 * mesh.length,
                             np.concatenate([mesh.weights[:-1], mesh.weights[:0:-1]]))
        return approximate_by_diffeo(doubled,
                                     np.concatenate([f[:-1], f[:0:-1]]),
                                     np.concatenate([g[:-1], g[:0:-1]]),
                                     p=p, eps=eps)

    min_f, max_f = float(np.min(f)), float(np.max(f))
    span = max(max_f - min_f, 1e-300)
    tol = 1e-12 * max(1.0, abs(min_f), abs(max_f))
    if np.any(g < min_f - tol) or np.any(g > max_f + tol):
        raise PreconditionError("target leaves the range of the source "
                                "(need min f <= target <= max f)",
                                condition="range-hypothesis")
    g = np.clip(g, min_f, max_f)

    L = mesh.length
    if np.allclose(f, g, atol=1e-13 * max(1.0, span)):
        phi = Diffeo1D.identity(mesh)
        return ApproximationResult(phi=phi, achieved_error=0.0, requested_eps=eps, p=p, cells=0)

    V = mesh.total_volume()
    w_max = float(np.max(mesh.weights))

    # cell count from the target's slope against the plateau budget
    g_slope = float(np.max(np.abs(np.diff(np.append(g, g[0]))))) / mesh.h
    plateau_budget = eps * V ** (-1.0 / p) / 2.0
    m_cells = 64
    if g_slope > 0:
        while m_cells < _MAX_CELLS and g_slope * (L / m_cells) > 1.2 * plateau_budget:
            m_cells *= 2
    ell = L / m_cells
    mu = 1e-9 * ell  # the walk's reserve (m + 2) mu stays about 1e-9 L

    # positions (n_runs, m) where each run of the source polyline attains each
    # cell value; the runs cover [min f, max f], which holds the clipped target
    x_closed, f_closed = np.append(mesh.nodes, L), np.append(f, f[0])
    centers = ell * (np.arange(m_cells) + 0.5)
    gbar = _periodic_interp(centers, mesh.nodes, g, L)
    table = []
    for start, stop in _monotone_runs(f):
        seg, xseg = f_closed[start:stop + 1], x_closed[start:stop + 1]
        if seg[0] > seg[-1]:
            seg, xseg = seg[::-1], xseg[::-1]
        if seg[-1] - seg[0] > 0:
            row = np.full(m_cells, np.nan)
            ok = (gbar >= seg[0] - tol) & (gbar <= seg[-1] + tol)
            row[ok] = np.mod(np.interp(np.clip(gbar[ok], seg[0], seg[-1]), seg, xseg), L)
            table.append(row)
    table = np.array(table)

    starts = sorted(set(np.round(table[~np.isnan(table[:, 0]), 0], 12)))[:16]
    X = _greedy_walk(table, L, mu, starts)
    if X is None:
        raise PreconditionError(
            "the source oscillates less than the target: no monotone "
            "degree-one reparametrization exists at this tolerance",
            condition="winding-obstruction")

    Xc = np.append(X, X[0] + L)
    gaps = np.diff(Xc)
    eps1 = eps * V ** (-1.0 / p) / 6.0
    # |f'| on the polyline piece that holds each position
    piece = np.minimum(_wrap(X, L) // mesh.h, n - 1).astype(int)
    slope_at = np.abs(np.diff(f_closed))[piece] / mesh.h + 1e-12
    eta = np.minimum.reduce([
        np.full(m_cells, ell / 8.0),
        eps1 / slope_at,
        np.append(gaps[:-1], gaps[-1]) / 4.0,
        np.concatenate([[gaps[-1]], gaps[:-1]]) / 4.0,
    ])
    eta = np.maximum(eta, mu / 16.0)
    trans_budget = min(0.25 * L, (0.5 * eps) ** p / (span ** p * max(w_max, 1e-300)))
    delta = min(trans_budget / m_cells, 0.4 * ell)
    delta = max(delta, 1e-13 * L)

    bx = np.empty(2 * m_cells + 1)
    by = np.empty(2 * m_cells + 1)
    eta_c = np.append(eta, eta[0])
    bx[0::2] = ell * np.arange(m_cells + 1)
    bx[1::2] = ell * np.arange(1, m_cells + 1) - delta
    bx[-1] = L
    by[0::2] = Xc - eta_c
    by[1::2] = Xc[:-1] + eta_c[:-1]

    m_fine = max(4096, _FINE_FACTOR * n, 8 * m_cells)
    hf = L / m_fine
    xf = hf * np.arange(m_fine)
    phi_fine = np.interp(xf, bx, by)
    err_fine = (_periodic_interp(phi_fine, mesh.nodes, f, L)
                - _periodic_interp(xf, mesh.nodes, g, L))
    w_fine = _periodic_interp(xf, mesh.nodes, mesh.weights, L)
    achieved = float(np.sum(np.abs(err_fine) ** p * w_fine * hf) ** (1.0 / p))
    if not achieved < eps:
        raise PreconditionError(
            f"requested tolerance {eps:.3e} not reachable with {m_cells} cells; "
            f"achieved {achieved:.3e}",
            condition="resolution-bound")
    return ApproximationResult(phi=Diffeo1D(mesh=mesh, break_x=bx, break_y=by),
                               achieved_error=achieved, requested_eps=eps, p=p, cells=m_cells)


# ---------------------------------------------------------------------------
# the full pipeline: scale, approximate, solve, verify
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PrescriptionResult:
    """A metric realizing target o phi in the Newton chart.

    ``scal_out`` is the stencil curvature of ``metric_out`` on the uniform
    mesh and equals target o phi there up to ``residuals["sup_error"]``, so
    ``target`` itself is the curvature of (phi^{-1})^* metric_out.  On the
    identity and trivial paths phi is the identity.
    """

    metric_out: DiagonalInvariantMetric
    phi: Diffeo1D
    c: float
    u: np.ndarray
    scal_out: np.ndarray
    residuals: dict
    path: str          # "identity" | "reparametrized" | "trivial"


def _window_interval(t_min, t_max, s_min, s_max) -> tuple[float, float]:
    """The open interval (lo, hi) of the constants c > 0 with
    c t_min < s_min and s_max < c t_max; empty when lo >= hi.

    Each condition bounds c by one ratio of the extremes of the target and
    the curvature, on the side set by the sign of the target's extreme.  A
    ratio that overflows is infinite, which is the bound it stands for.
    """
    lo, hi = 0.0, np.inf
    # c t_min < s_min
    if t_min > 0:    # c < s_min / t_min, empty unless s_min > 0
        hi = min(hi, s_min / t_min)
    elif t_min < 0:  # c > s_min / t_min, every c > 0 when s_min >= 0
        lo = max(lo, s_min / t_min)
    elif not s_min > 0:  # 0 < s_min fails for every c
        hi = 0.0
    # s_max < c t_max
    if t_max > 0:    # c > s_max / t_max, every c > 0 when s_max <= 0
        lo = max(lo, s_max / t_max)
    elif t_max < 0:  # c < s_max / t_max, empty unless s_max < 0
        hi = min(hi, s_max / t_max)
    elif not s_max < 0:  # s_max < 0 fails for every c
        hi = 0.0
    return lo, hi


def _window_constant(target, scal) -> float:
    """A constant c with c min(target) < scal < c max(target) at every node.

    Of the grid constants logspace(-3, 3, 61) in that window, the one whose
    c*target is nearest scal in sup distance.  When the window holds none,
    its geometric midpoint, or twice its lower end when it is unbounded
    above.  Only an empty window, or one too thin for the midpoint
    to pass the strict test in floating point, is a `pinching-window` error.
    """
    target = np.asarray(target, dtype=float)
    t_min, t_max = np.min(target), np.max(target)
    s_min, s_max = np.min(scal), np.max(scal)

    def inside(c):
        return c[(c * t_min < s_min) & (s_max < c * t_max)]

    window = inside(np.logspace(-3.0, 3.0, 61))
    if not len(window):
        with np.errstate(over="ignore"):
            lo, hi = _window_interval(t_min, t_max, s_min, s_max)
            if lo < hi:
                mid = np.sqrt(lo) * np.sqrt(hi) if hi < np.inf else 2.0 * lo
                window = inside(np.array([mid]))
    if not len(window):
        raise PreconditionError(
            "no window constant satisfies c min(target) < scal < c max(target)",
            condition="pinching-window")
    distance = np.max(np.abs(window[:, None] * target - scal), axis=1)
    return float(window[np.argmin(distance)])


def full_prescribe(metric: WarpedProductMetric, target,
                   cfg: PrescribeConfig | None = None) -> PrescriptionResult:
    """Realize the target as the scalar curvature of an invariant metric, up to a map.

    Choose a window constant c with c min(target) < scal < c max(target) at
    every node, and solve F(g + adjoint(u)) = c * target o phi: directly
    with phi the identity when the scaled target lies in the Newton basin,
    otherwise with phi a measure-concentrating reparametrization from
    `approximate_by_diffeo`.
    When the kernel test that `newton_prescribe` makes first finds an
    exceptional background, the solve starts over on the warping times
    1 + ``_ESCAPE_BUMP`` sin(2 pi r / L).  The returned ``metric_out`` is the
    Newton metric scaled by c, in the Newton chart: it realizes target o phi,
    so ``target`` is the curvature of (phi^{-1})^* metric_out.  ``scal_out``
    is its stencil curvature and ``sup_error`` its sup distance from
    target o phi.  An error above ``_SUP_TOL`` sends the direct path to the
    reparametrized one and makes the reparametrized path raise `SolverError`.
    """
    cfg = cfg or PrescribeConfig()
    mesh = metric.mesh
    target = _nodal(target, mesh.node_count, "target")
    scal0 = scal_warped(metric)
    scale0 = max(1.0, float(np.max(np.abs(scal0))))

    if np.allclose(target, scal0, atol=1e-12 * scale0, rtol=1e-12):
        return PrescriptionResult(
            metric_out=as_diagonal(metric), phi=Diffeo1D.identity(mesh), c=1.0,
            u=np.zeros(mesh.node_count), scal_out=scal0,
            residuals={"sup_error": float(np.max(np.abs(scal0 - target)))}, path="trivial")

    try:
        return _prescribe_on(metric, scal0, target, cfg, mesh)
    except PreconditionError as err:
        if err.condition != "kernel-dichotomy":
            raise
    bumped = WarpedProductMetric.from_profile(
        mesh.node_count, mesh.length, metric.fiber_dim, metric.fiber_scal,
        metric.warping * (1.0 + _ESCAPE_BUMP * np.sin(2 * np.pi * mesh.nodes / mesh.length)))
    return _prescribe_on(bumped, scal_warped(bumped), target, cfg, mesh)


def _prescribe_on(metric: WarpedProductMetric, scal0, target, cfg: PrescribeConfig,
                  mesh: QuotientMesh) -> PrescriptionResult:
    """`full_prescribe` on one background; the approximation and the map
    live on the caller's ``mesh`` even when the background is bumped."""
    c = _window_constant(target, scal0)
    try:
        return _verified_solve(metric, c, target, Diffeo1D.identity(mesh), "identity", cfg)
    except SolverError:
        pass
    approx = approximate_by_diffeo(mesh, target, scal0 / c, p=cfg.p, eps=cfg.eps)
    expected = approx.phi.compose(target)
    return _verified_solve(metric, c, expected, approx.phi, "reparametrized", cfg,
                           approximation=approx.achieved_error)


def _verified_solve(metric: WarpedProductMetric, c: float, expected, phi: Diffeo1D, path: str,
                    cfg: PrescribeConfig, **extra) -> PrescriptionResult:
    """Solve F = c * expected, expected = target o phi at the nodes, and verify
    the scaled Newton metric by its own stencil curvature."""
    newton = newton_prescribe(metric, c * expected, cfg)
    metric_out = newton.metric_out.scaled(c)
    scal_out = metric_out.scal()
    sup_err = float(np.max(np.abs(scal_out - expected)))
    if not sup_err <= _SUP_TOL:
        raise SolverError(f"{path} prescription misses target o phi by {sup_err:.3e} "
                          f"(sup_tol {_SUP_TOL:.1e})")
    return PrescriptionResult(
        metric_out=metric_out, phi=phi, c=c, u=newton.u, scal_out=scal_out,
        residuals={"newton": newton.residuals[-1], **extra, "sup_error": sup_err,
                   "newton_history": newton.residuals},
        path=path)

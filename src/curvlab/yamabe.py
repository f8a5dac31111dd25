"""Constant scalar curvature inside a conformal class, variationally.

On the 1-D quotient the conformal change g -> u^(4/(n-2)) g turns the search
for constant scalar curvature c into the equation

    4 b_n lap(u) - scal * u + c * u^gamma_n = 0,        u > 0,

the Euler-Lagrange equation of

    J(u) = 2 b_n int |grad u|^2 + 1/2 int scal u^2 - (c / 2*) int u^{2*}

restricted to the constraint set  (c / 2*) int u^{2*} = eps,  u >= 0.

The positive regime (scal >= 0, not identically 0, c > 0) is solved by
projected Sobolev-gradient descent on the constraint (Neuberger, *Sobolev
Gradients and Differential Equations*, LNM 1670, 1997): each step is the
gradient in the H^1 inner product <h, v>_H = 4 b_n v.S.h + v.M.h of the mesh
stiffness S and quadrature masses M, projected onto the constraint's tangent
space in that inner product.  Its step size is not limited by the stiffest
mode of the discrete Laplacian, so the step count does not grow with N.

Both regimes end in the same equation 4 b_n lap(u) - scal u + s u^gamma = 0,
and one bordered Newton iteration in (u, s) solves it for each (Keller's
bordering, 1977).  Each step costs O(N): the condensed solve of `_newton`
eliminates nodes 1..N-1, a tridiagonal block, and leaves a 2x2 system in
(u_0, s).  In the positive regime it polishes the descent iterate with
s = c' and the constraint level as the border; the Lagrange multiplier lam
recovered at convergence shifts the constant to c' = (1 + lam) c and the
residual reported is the Euler-Lagrange defect at c'.  In the negative
regime it solves with s = -c' from a start profile, bordered by a mass
normalization that excludes the trivial solution.  `solve_negative_constant`
reads the conformal class first: a class other than N_G admits no negative
constant and is reported as an obstruction before any Newton step.

The conformal class (P_G / Z_G / N_G) decides which basic functions are
realizable as scalar curvatures.  It is the sign of c_F: with ds = dr/f,
g = f^2 (ds^2 + g_F) is conformal to a cylinder S^1 x F of constant scalar
curvature c_F (Schoen, LNM 1365, 1989).

This module imports numpy only, so `import curvlab` loads no scipy at all.
Each scipy subpackage is imported inside the functions that use it:
`scipy.sparse` in `classify_conformal_class` (a mesh imports it with its
first sparse matrix, such as the stiffness of `minimize_on_constraint` or
the Laplacian of `_bordered_newton`; its stencils, and so `conformal_scal`
and `el_residual`, need numpy only); `scipy.linalg` in
`classify_conformal_class` and in `_newton.band_lu`, the banded LU of the
descent's Riesz map and of the Newton step of both regimes.  Together they
cost more to import than the rest of curvlab, and most commands never call
those functions.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from enum import Enum
from functools import cached_property

import numpy as np

from . import _newton
from .errors import ObstructionError, PreconditionError, SolverError
from .mesh import QuotientMesh
from .models import WarpedProductMetric, YamabeConstants, scal_warped

logger = logging.getLogger(__name__)


class ConformalClass(Enum):
    POSITIVE = "P_G"
    ZERO = "Z_G"
    NEGATIVE = "N_G"


def _conformal_class(metric: WarpedProductMetric) -> ConformalClass:
    """The class of g = f^2 (ds^2 + g_F): the sign of c_F (module docstring)."""
    return {1.0: ConformalClass.POSITIVE, 0.0: ConformalClass.ZERO,
            -1.0: ConformalClass.NEGATIVE}[np.sign(metric.fiber_scal)]


def _check_operator_scale(metric: WarpedProductMetric, g: YamabeConstants) -> None:
    """Reject a circle too short for the conformal operator 4 b_n L.

    The solvers form 4 b_n L, and the classifier its symmetric form
    4 b_n M^{-1/2} S M^{-1/2}.  Their largest entries are the diagonal ones,
    4 b_n S_ii / m_i (about 8 b_n / h^2), and each row's entries sum to twice
    that in magnitude, so that row sum must be a finite float.  The check is
    O(N), on S's diagonal, and comes before any matrix of a solve is formed.
    """
    mesh = metric.mesh
    with np.errstate(over="ignore", divide="ignore"):
        row = 8.0 * g.b_n * np.max(mesh.stiffness_matrix().diagonal() / mesh.mass_vector())
    if not row < np.inf:
        raise PreconditionError(f"length {mesh.length:g} is too small for the conformal "
                                "operator: 4 b_n L overflows a float", condition="operator-scale")


@dataclass(frozen=True)
class ConformalProblem:
    """A warped background, the target constant c, and the constraint level."""

    metric: WarpedProductMetric
    c: float
    epsilon: float = 1.0

    def __post_init__(self):
        if not np.isfinite(self.c):
            raise ValueError("the functional constant c must be finite")
        if not self.epsilon > 0:
            raise ValueError("constraint level must be positive")

    @cached_property
    def constants(self) -> YamabeConstants:
        """The dimensional constants of the conformal equation, computed once."""
        return YamabeConstants.for_dimension(self.metric.dim)

    @property
    def mesh(self) -> QuotientMesh:
        return self.metric.mesh

    @cached_property
    def scal(self) -> np.ndarray:
        """Background scalar curvature at the nodes, computed once, read-only."""
        scal = scal_warped(self.metric)
        scal.setflags(write=False)
        return scal


@dataclass(frozen=True)
class SolverConfig:
    """Tolerance and budget of the conformal solvers.

    ``tol_residual`` bounds the weighted-L2 Euler-Lagrange defect (1e-8 when
    `solve_negative_constant` gets no config).  ``max_iter`` bounds the
    accepted descent steps of `minimize_on_constraint`; a spent budget
    reports ``max_iter + 1`` iterations.  The bordered Newton iteration of
    both regimes keeps its fixed budget of 40 steps.  A NaN, infinite or
    nonpositive setting is a `ValueError`.
    """

    tol_residual: float = 1e-9
    max_iter: int = 20_000

    def __post_init__(self):
        if not (self.tol_residual > 0 and self.max_iter > 0):
            raise ValueError("tol_residual and max_iter must be positive")
        if self.tol_residual == np.inf:
            raise ValueError("tol_residual must be finite")


@dataclass(frozen=True)
class ConformalSolution:
    u: np.ndarray
    lagrange: float
    achieved_constant: float
    residual_norm: float
    iterations: int
    energy_history: tuple = ()


def conformal_energy(p: ConformalProblem, u) -> float:
    """J(u); the gradient term uses the stiffness pairing of the mesh."""
    g = p.constants
    mesh = p.mesh
    u = np.asarray(u, dtype=float)
    return (2.0 * g.b_n * mesh.dirichlet_form(u, u)
            + 0.5 * mesh.integrate(p.scal * u**2)
            - (p.c / g.two_star) * mesh.integrate(np.abs(u) ** g.two_star))


def energy_gradient(p: ConformalProblem, u) -> np.ndarray:
    """Weighted-L2 gradient of J: -4 b_n lap(u) + scal u - c u^gamma."""
    g = p.constants
    u = np.asarray(u, dtype=float)
    return (-4.0 * g.b_n * p.mesh.laplacian(u) + p.scal * u
            - p.c * np.sign(u) * np.abs(u) ** g.gamma_n)


def project_to_constraint(p: ConformalProblem, u) -> np.ndarray:
    """Clamp to the nonnegative cone, then scale onto the constraint level."""
    if p.c <= 0:
        raise PreconditionError("constraint projection needs c > 0", condition="positive-c")
    u = np.maximum(np.asarray(u, dtype=float), 0.0)
    mass = p.mesh.integrate(u ** p.constants.two_star)
    if not mass > 0:
        raise PreconditionError("clamped profile is zero or NaN", condition="nontrivial-profile")
    scale = (p.epsilon * p.constants.two_star / (p.c * mass)) ** (1.0 / p.constants.two_star)
    return scale * u


def el_residual(p: ConformalProblem, u, constant: float) -> np.ndarray:
    """Pointwise defect 4 b_n lap(u) - scal u + constant u^gamma for u > 0."""
    u = np.asarray(u, dtype=float)
    if not np.all(u > 0):
        raise PreconditionError("conformal factor must be strictly positive",
                                condition="positive-factor")
    g = p.constants
    return 4.0 * g.b_n * p.mesh.laplacian(u) - p.scal * u + constant * u ** g.gamma_n


_NEWTON_STEPS = 40
_POSITIVITY_FLOOR = 1e-10  # min u of every Newton iterate, the start included
_MAX_STEP = 1.0  # first and largest descent step


def _bordered_newton(p: ConformalProblem, u, s, border, tol, border_scale):
    """Solve el_residual(p, u, s) = 0 in (u, s), bordered by one side condition.

    ``border(u)`` returns the side condition's value and its gradient row.
    Damped Newton on x = (u, s) with the Euclidean norm of the bordered
    residual as merit and u above `_POSITIVITY_FLOOR`; converged when the
    weighted-L2 defect is below ``tol`` and |border| below
    tol * max(1, border_scale).  Each step is one O(N) solve of
    [[4 b_n L - diag(shift), u^gamma], [row, 0]] by a `_newton.condensed_solver`
    planned once per call, with separator (0, N): a circle's corners touch
    node 0 only.  Returns (u, s, steps).
    """
    mesh, g, n = p.mesh, p.constants, p.mesh.node_count
    # that matrix's entry pattern, planned once: the Laplacian's entries off
    # its diagonal, the diagonal, the border column at index n, the border row
    lap, nodes = mesh.laplacian_matrix(), np.arange(n)
    lap_i = np.repeat(nodes, np.diff(lap.indptr))
    off = np.flatnonzero(lap_i != lap.indices)
    i = np.concatenate((lap_i[off], nodes, nodes, np.full(n, n)))
    j = np.concatenate((lap.indices[off], nodes, np.full(n, n), nodes))
    scaled_off, scaled_diagonal = 4.0 * g.b_n * lap.data[off], 4.0 * g.b_n * lap.diagonal()
    condensed = _newton.condensed_solver(i, j, n + 1, (0, n))

    def evaluate(x):
        if not np.min(x[:n]) > _POSITIVITY_FLOOR:
            return None
        value, row = border(x[:n])
        res = np.append(el_residual(p, x[:n], x[n]), value)
        return (res, row), np.linalg.norm(res)

    def solve(x, state):
        (res, row), u_ = state, x[:n]
        shift = p.scal - x[n] * g.gamma_n * u_**(g.gamma_n - 1)
        a = np.concatenate((scaled_off, scaled_diagonal - shift, u_**g.gamma_n, row))
        return condensed(a, -res)

    def converged(state, merit):
        res = state[0]
        return mesh.lp_norm(res[:n], 2) < tol and abs(res[n]) < tol * max(1.0, border_scale)

    x, _, history = _newton.damped_newton(np.append(u, s), evaluate, solve, converged,
                                          _NEWTON_STEPS, "bordered Newton")
    return x[:n], float(x[n]), len(history) - 1


def minimize_on_constraint(p: ConformalProblem, cfg: SolverConfig | None = None,
                           u0=None) -> ConformalSolution:
    """Projected Sobolev-gradient descent with backtracking on the constraint set.

    Hypotheses: scal >= 0 and not identically zero, c > 0.  Each descent step
    maps the weighted-L2 gradient of J and the constraint normal c u^gamma to
    their H^1 representatives by one solve with H = 4 b_n S + M (one
    `_newton.band_lu` per call, in `_newton.fold_order`), projects the
    gradient onto the constraint's tangent space in the H inner product, and
    backtracks on J with an Armijo test against the squared H-norm of the
    step.  The descent phase runs until the weighted-L2 projected gradient is
    small, then a bordered Newton polish resolves the critical point to
    tolerance (the energy history records the descent phase, along which the
    energy never increases).  The reported residual is the Euler-Lagrange
    defect at the recovered constant c' = (1 + lam) c.  An exactly singular
    H, or a polished c' that is not positive, as on a circle too short for
    M to register against 4 b_n S, is a `SolverError`.
    """
    cfg = cfg or SolverConfig()
    mesh = p.mesh
    scal = p.scal
    if p.c <= 0:
        raise PreconditionError("positive regime needs c > 0", condition="positive-c")
    _check_operator_scale(p.metric, p.constants)
    if np.min(scal) < -1e-11 * max(1.0, float(np.max(np.abs(scal)))):
        raise PreconditionError("background scalar curvature must be nonnegative",
                                condition="nonnegative-scal-hypothesis")
    if np.max(np.abs(scal)) < 1e-12:
        raise PreconditionError("background scalar curvature vanishes identically",
                                condition="nonvanishing-scal-hypothesis")

    m, S = mesh.mass_vector(), mesh.stiffness_matrix().tocoo()
    # H x = M G gives x with <x, v>_H = <G, v>_w for all v: the H-representative
    place, entries = _newton.fold_order(mesh.node_count), 4.0 * p.constants.b_n * S.data
    entries[S.row == S.col] += m
    try:
        solve = _newton.band_lu(place[S.row], place[S.col], mesh.node_count)(entries)
    except np.linalg.LinAlgError as exc:
        raise SolverError(f"Sobolev descent: singular Riesz map 4 b_n S + M ({exc})") from exc
    order = np.argsort(place)
    u = project_to_constraint(p, np.ones(mesh.node_count) if u0 is None else np.asarray(u0, float))
    energy = conformal_energy(p, u)
    history = [energy]
    step = _MAX_STEP
    scale = max(1.0, float(np.max(np.abs(scal))))
    # every exit leaves iterations = accepted steps + 1 (max_iter + 1 when spent)
    for iterations in range(1, cfg.max_iter + 2):
        grad = energy_gradient(p, u)
        normal = p.c * u ** p.constants.gamma_n
        mult = mesh.inner(grad, normal) / mesh.inner(normal, normal)
        tangent = grad - mult * normal
        if np.sqrt(mesh.inner(tangent, tangent)) < 1e-5 * scale or iterations > cfg.max_iter:
            break
        grad_h, normal_h = solve(np.column_stack((m * grad, m * normal))[order])[place].T
        # <x, normal_h>_H = <x, normal>_w: the H-projection keeps the step
        # tangent to the constraint
        direction = -(grad_h - mesh.inner(grad_h, normal) / mesh.inner(normal_h, normal) * normal_h)
        # ||d||_H^2 = -<d, grad_h>_H = -<d, grad>_w, the decrease rate along d
        dnorm_h2 = -mesh.inner(direction, grad)
        accepted = False
        while step >= 1e-14:
            cand = project_to_constraint(p, u + step * direction)
            cand_energy = conformal_energy(p, cand)
            if cand_energy <= energy - 1e-4 * step * dnorm_h2:
                u, energy = cand, cand_energy
                history.append(energy)
                accepted = True
                step = min(step * 2.0, _MAX_STEP)
                break
            step *= 0.5
        if not accepted:
            break

    if not np.min(u) > _POSITIVITY_FLOOR:
        raise SolverError(f"descent profile is not strictly positive (min u = {np.min(u):.3e})")

    def constraint(u_):
        g = p.constants
        return ((p.c / g.two_star) * float(np.dot(u_**g.two_star, m)) - p.epsilon,
                p.c * u_**g.gamma_n * m)

    # every exit leaves u where the loop last evaluated mult
    u, achieved, _ = _bordered_newton(p, u, (1.0 + mult) * p.c, constraint,
                                      0.05 * cfg.tol_residual, p.epsilon)
    if not achieved > 0:
        raise SolverError(f"polished to c' = {achieved:.3e} from c = {p.c:.6g}: "
                          "the mesh does not resolve the positive regime")
    lam = achieved / p.c - 1.0
    residual = mesh.lp_norm(el_residual(p, u, achieved), 2)
    if residual > cfg.tol_residual:
        raise SolverError(f"Euler-Lagrange residual {residual:.3e} above tolerance "
                          f"{cfg.tol_residual:.1e} after {iterations} iterations")
    logger.debug("constraint minimization: %d iterations, residual %.3e", iterations, residual)
    return ConformalSolution(u=u, lagrange=lam, achieved_constant=achieved,
                             residual_norm=residual, iterations=iterations,
                             energy_history=tuple(history))


def negative_constant_bound(metric: WarpedProductMetric) -> float:
    """Smallest admissible functional constant of the negative regime."""
    g = YamabeConstants.for_dimension(metric.dim)
    scal = scal_warped(metric)
    vol = metric.mesh.total_volume()
    return max(0.0, -(g.two_star / 2.0) * float(np.min(scal)) * vol ** (1.0 - g.two_star / 2.0))


def solve_negative_constant(metric: WarpedProductMetric, cfg: SolverConfig | None = None,
                            c: float | None = None, u0=None):
    """Newton solve of 4 b_n lap(u) - scal u - c' u^gamma = 0 with mass normalization.

    The class is read first: outside N_G no negative constant exists, and an
    ObstructionError naming the class is raised before any check or step.
    Unknowns are (u, c'), solved by the bordered Newton iteration with
    s = -c'; the normalization <u, u>_w = <u0, u0>_w borders it and excludes
    the trivial solution.  Returns (ConformalSolution, c_used) with the
    multiplier convention c' = (1 + lam) c_used.  A converged c' <= 0 means
    the mesh does not resolve c_F, and raises SolverError.
    """
    if (verdict := _conformal_class(metric)) is not ConformalClass.NEGATIVE:
        raise ObstructionError(f"class {verdict.value} (c_F = {metric.fiber_scal:.6g}) admits no "
                               "negative constant", condition="negative-class-obstruction")
    _check_operator_scale(metric, YamabeConstants.for_dimension(metric.dim))
    cfg = cfg or SolverConfig(tol_residual=1e-8)
    mesh = metric.mesh
    bound = negative_constant_bound(metric)
    if c is None:
        c = bound + 1.0
    elif c < bound:
        raise PreconditionError(
            f"functional constant {c:.6g} below the coercivity bound {bound:.6g}",
            condition="coercivity-bound")

    m = mesh.mass_vector()
    u = np.ones(mesh.node_count) if u0 is None else np.asarray(u0, dtype=float).copy()
    if not np.min(u) > _POSITIVITY_FLOOR:
        raise PreconditionError(f"start profile must stay above {_POSITIVITY_FLOOR:.0e}",
                                condition="positive-start")
    mass0 = float(np.dot(u * u, m))

    def normalization(u_):
        return np.dot(u_ * u_, m) - mass0, 2.0 * u_ * m

    p = ConformalProblem(metric, c)
    u, s, newton_iterations = _bordered_newton(p, u, -float(c), normalization,
                                               cfg.tol_residual, mass0)
    cprime = -s
    if not cprime > 0:
        raise SolverError(f"converged to c' = {cprime:.3e} in class N_G "
                          f"(c_F = {metric.fiber_scal:.6g}): the mesh does not resolve c_F")
    pde_norm = mesh.lp_norm(el_residual(p, u, s), 2)
    lam = cprime / c - 1.0
    solution = ConformalSolution(u=u, lagrange=lam, achieved_constant=cprime,
                                 residual_norm=pde_norm, iterations=newton_iterations)
    return solution, float(c)


def conformal_scal(metric: WarpedProductMetric, u) -> np.ndarray:
    """Scalar curvature of u^(4/(n-2)) g: u^{-gamma} (-4 b_n lap u + scal u)."""
    u = np.asarray(u, dtype=float)
    if not np.all(u > 0):
        raise PreconditionError("conformal factor must be strictly positive",
                                condition="positive-factor")
    g = YamabeConstants.for_dimension(metric.dim)
    scal = scal_warped(metric)
    return (-4.0 * g.b_n * metric.mesh.laplacian(u) + scal * u) / u**g.gamma_n


def classify_conformal_class(metric: WarpedProductMetric):
    """The conformal class and the discrete first eigenvalue lambda_1.

    Returns (verdict, lambda_1).  The verdict is the sign of ``fiber_scal``,
    exact by the cylinder argument of the module docstring.  lambda_1, of
    the pencil (4 b_n S + M scal) x = lambda M x for the stiffness S and the
    quadrature masses M, carries an O(h^2) error, so its sign can differ from
    the verdict when |c_F| is that small.  M is diagonal, so the pencil is
    solved in standard form, as the smallest eigenvalue of
    4 b_n M^{-1/2} S M^{-1/2} + diag(scal), whose zero mode M^{1/2} 1 of a
    vanishing potential is resolved to rounding.  That rounding is about eps
    times the matrix's norm, 16 b_n / h^2, and swamps lambda_1 on short
    circles: at N = 64 and length 1e-10 the round, flat and hyperbolic
    fibers all read -6.36e8, while the verdict stays exact.
    """
    import scipy.linalg
    import scipy.sparse as sp

    g = YamabeConstants.for_dimension(metric.dim)
    _check_operator_scale(metric, g)
    mesh = metric.mesh
    root = sp.diags_array(1.0 / np.sqrt(mesh.mass_vector()))
    C = (root @ (4.0 * g.b_n * mesh.stiffness_matrix()) @ root
         + sp.diags_array(scal_warped(metric))).toarray()
    lam1 = float(scipy.linalg.eigh(C, eigvals_only=True, subset_by_index=[0, 0])[0])
    return _conformal_class(metric), lam1

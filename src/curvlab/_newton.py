"""The one backtracking Newton loop of curvlab, and its one banded LU.  A
solver states its problem in three callbacks; the driver owns the budget, the
line search and the errors.  `condensed_solver` plans the O(N) linear solve of
every Newton step once per pattern; `band_lu` plans every banded factor.
"""

import numpy as np

from .errors import SolverError


def damped_newton(x, evaluate, solve, converged, max_steps: int, name: str):
    """Newton's method with backtracking on a merit, from an admissible start x.

    ``evaluate(x)`` returns (state, merit), or None outside the admissible
    set; ``solve(x, state)`` returns the Newton step; ``converged(state,
    merit)`` is tested before each step.  The line search halves tau from 1
    and takes the first tau >= 1e-8 whose trial point is admissible with a
    merit at most (1 - tau/4) times the current one (Kelley, *Iterative
    Methods for Linear and Nonlinear Equations*, 1995, 8.1).  Returns (x,
    state, merits of the start and of each accepted iterate).  A singular
    system, a stalled line search, no admissible trial point or a spent
    budget is a `SolverError` led by ``name``.
    """
    state, merit = evaluate(x)
    history = [merit]
    for steps in range(max_steps + 1):
        if converged(state, merit):
            return x, state, history
        if steps == max_steps:
            raise SolverError(f"{name} did not converge "
                              f"(residual {merit:.3e} after {steps} iterations)")
        try:
            step = solve(x, state)
        except np.linalg.LinAlgError as exc:
            raise SolverError(f"singular {name} system: {exc}") from exc
        tau, admissible = 1.0, False
        while tau >= 1e-8:
            trial = x + tau * step
            evaluated = evaluate(trial)
            admissible |= evaluated is not None
            if evaluated is not None and evaluated[1] <= (1.0 - 0.25 * tau) * merit:
                break
            tau *= 0.5
        else:
            reason = "line search stalled" if admissible else "step has no admissible trial point"
            raise SolverError(f"{name} {reason} (residual {merit:.3e})")
        x, (state, merit) = trial, evaluated
        history.append(merit)


def fold_order(n):
    """Each node's place in the fold order 0, n-1, 1, n-2, ... of a circle of
    ``n`` nodes: a cyclic operator of half-bandwidth k, corners included, is a
    plain band of half-bandwidth at most 2k in that order."""
    return np.minimum(2 * np.arange(n), 2 * (n - np.arange(n)) - 1)


def band_lu(i, j, n):
    """Plan the banded LU with partial pivoting of the n x n matrix with
    entries at (``i``, ``j``), each position at most once, and half-bandwidth
    k = max |i - j|.  ``factor(a)`` places the entries ``a``, in that order,
    in LAPACK's band storage (by columns, with k more rows on top for the fill
    of pivoting: entry (r, c) at 2k + r + 3k c) and makes one `dgbtrf`; an
    exact zero pivot is a `LinAlgError`.  It returns ``solve(rhs)``, which
    makes one `dgbtrs` for the one or more columns of ``rhs``."""
    from scipy.linalg import lapack

    k = int(np.abs(i - j).max(initial=0))
    at = 2 * k + i + 3 * k * j

    def factor(a):
        band = np.zeros(n * (3 * k + 1))
        band[at] = a
        lu, pivots, info = lapack.dgbtrf(band.reshape(n, 3 * k + 1).T, k, k, overwrite_ab=True)
        if info > 0:
            raise np.linalg.LinAlgError("singular matrix")
        return lambda rhs: lapack.dgbtrs(lu, k, k, rhs, pivots)[0]

    return factor


def condensed_solver(i, j, n, sep):
    """Plan the O(n) solve of A x = rhs by condensation onto the nodes ``sep`` = (s, t), s < t.

    A is n x n, n > 2, with entries at (``i``, ``j``), each position at most
    once; the returned ``solve(a, rhs)`` only places the entries ``a``, in
    that order.  A's block on the other nodes, in index order, must be
    banded, as a stencil operator's is on a circle once the nodes its corners
    touch are separators (George, *Nested dissection of a regular finite
    element mesh*, SIAM J. Numer. Anal. 10, 1973); a half-bandwidth above 2 is
    a `ValueError`.  One `band_lu` of that block solves it for the two
    separator columns and ``rhs``; the 2x2 Schur complement is rank-tested by
    its singular values and solved by `np.linalg.solve`, and
    back-substitution gives the other nodes.  The relative error is about eps
    times the larger condition number of A and of the banded block.  A
    singular banded block, or a Schur complement whose smallest singular
    value is at most n eps times its largest, is a `LinAlgError`.
    """
    m, (s, t) = n - 2, sep
    # each node's place in the condensed order: the other nodes in index
    # order, then the two separator nodes
    place = np.arange(n) - (np.arange(n) > s) - (np.arange(n) > t)
    place[[s, t]] = m, m + 1
    pi, pj = place[i], place[j]
    inner = np.maximum(pi, pj) < m
    inner, outer = np.flatnonzero(inner), np.flatnonzero(~inner)
    k = int(np.abs(pi[inner] - pj[inner]).max(initial=0))
    if k > 2:
        raise ValueError(f"the block off the separator has half-bandwidth {k}, more than 2")
    factor = band_lu(pi[inner], pj[inner], m)
    # one buffer for the rest: separator columns and rhs (n, 3), separator rows (2, n)
    at = np.where(pi < m, 3 * pi + pj - m, 3 * n + (pi - m) * n + pj)[outer]

    def solve(a, rhs):
        buffer = np.zeros(5 * n)
        buffer[at] = a[outer]
        cols, rows = buffer[:3 * n].reshape(n, 3), buffer[3 * n:].reshape(2, n)
        cols[:, 2][place] = rhs
        z = factor(a[inner])(cols[:m])
        schur = rows[:, m:] - rows[:, :m] @ z[:, :2]
        sigma = np.linalg.svd(schur, compute_uv=False)
        if not sigma[1] > n * np.finfo(float).eps * sigma[0]:
            raise np.linalg.LinAlgError(f"rank-deficient Schur complement (singular values "
                                        f"{sigma[0]:.3e}, {sigma[1]:.3e})")
        y = np.linalg.solve(schur, cols[m:, 2] - rows[:, :m] @ z[:, 2])
        return np.concatenate((z[:, 2] - z[:, :2] @ y, y))[place]

    return solve

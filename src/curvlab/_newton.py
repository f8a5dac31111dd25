"""The one backtracking Newton loop of curvlab.  A solver states its problem in
three callbacks; the driver owns the budget, the line search and the errors.
`condensed_solver` plans the O(N) linear solve of every Newton step once per
pattern; each step then does numeric work only.
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


def condensed_solver(i, j, n, sep):
    """Plan the O(n) solve of A x = rhs by condensation onto the nodes ``sep`` = (s, t), s < t.

    A is n x n with entries at (``i``, ``j``), each position at most once; the
    returned ``solve(a, rhs)`` only places the entries ``a``, in that order.
    A's block on the other nodes, in index order, must be banded, as a
    stencil operator's is on a circle once the nodes its corners touch are
    separators (George, *Nested dissection of a regular finite element mesh*,
    SIAM J. Numer. Anal. 10, 1973); a half-bandwidth above 2 is a
    `ValueError`.  One banded LU with partial pivoting solves that block for
    the two separator columns and ``rhs``; the 2x2 Schur complement is
    rank-tested by its singular values and solved by `np.linalg.solve`, and
    back-substitution gives the other nodes.  The relative error is about eps
    times the larger condition number of A and of the banded block.  A
    singular banded block, or a Schur complement whose smallest singular value
    is at most n eps times its largest, is a `LinAlgError`.
    """
    import scipy.linalg

    m, (s, t) = n - 2, sep
    # each node's place in the condensed order: the other nodes in index
    # order, then the two separator nodes
    place = np.arange(n) - (np.arange(n) > s) - (np.arange(n) > t)
    place[[s, t]] = m, m + 1
    pi, pj = place[i], place[j]
    inner = np.maximum(pi, pj) < m
    off = pi[inner] - pj[inner]
    k = int(np.abs(off).max(initial=0))
    if k > 2:
        raise ValueError(f"the block off the separator has half-bandwidth {k}, more than 2")
    # one buffer: the band, then the separator columns and rhs as (n, 3), then
    # the separator rows as (2, n), all in the condensed order.  An entry off
    # the band is in a separator column if its row is another node, else in a
    # separator row, so its slot is start[row] + column.
    size = (2 * k + 1) * m
    start = size + 3 * np.arange(n) - m
    start[m:] = size + 3 * n, size + 4 * n
    at = start[pi] + pj
    at[inner] = (off + k) * m + pj[inner]

    def solve(a, rhs):
        buffer = np.zeros(size + 5 * n)
        buffer[at] = a
        cols, rows = buffer[size:size + 3 * n].reshape(n, 3), buffer[size + 3 * n:].reshape(2, n)
        cols[:, 2][place] = rhs
        z = scipy.linalg.solve_banded((k, k), buffer[:size].reshape(2 * k + 1, m), cols[:m],
                                      overwrite_ab=True, check_finite=False)
        schur = rows[:, m:] - rows[:, :m] @ z[:, :2]
        sigma = np.linalg.svd(schur, compute_uv=False)
        if not sigma[1] > n * np.finfo(float).eps * sigma[0]:
            raise np.linalg.LinAlgError(f"rank-deficient Schur complement (singular values "
                                        f"{sigma[0]:.3e}, {sigma[1]:.3e})")
        y = np.linalg.solve(schur, cols[m:, 2] - rows[:, :m] @ z[:, 2])
        return np.concatenate((z[:, 2] - z[:, :2] @ y, y))[place]

    return solve

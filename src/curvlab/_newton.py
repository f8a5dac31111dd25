"""The one backtracking Newton loop of curvlab.  A solver states its problem in
three callbacks; the driver owns the budget, the line search and the errors.
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

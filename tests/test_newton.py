"""The damped Newton driver on scalar toy problems, one per exit, and the
condensed solve of its O(N) steps."""

import numpy as np
import pytest

from curvlab._newton import condensed_solver, damped_newton
from curvlab.errors import SolverError


def sqrt2_problem():
    """f(x) = x^2 - 2 with merit |f|; every x is admissible."""
    solves = []

    def evaluate(x):
        f = x * x - 2.0
        return f, float(abs(f[0]))

    def solve(x, f):
        solves.append(x.copy())
        return -f / (2.0 * x)

    return evaluate, solve, solves


def below(tol):
    return lambda state, merit: merit < tol


def test_converged_at_the_start_takes_no_step():
    evaluate, solve, solves = sqrt2_problem()
    start = np.array([np.sqrt(2.0)])
    x, state, history = damped_newton(start, evaluate, solve, below(1e-12), 5, "toy")
    assert x is start and len(history) == 1 and solves == []
    assert np.array_equal(state, evaluate(start)[0])


def test_converged_after_k_steps_keeps_k_plus_one_merits():
    evaluate, solve, solves = sqrt2_problem()
    x, state, history = damped_newton(np.array([1.0]), evaluate, solve, below(1e-12), 10, "toy")
    assert len(solves) == 5 and len(history) == len(solves) + 1
    assert history[-1] < 1e-12 <= history[-2]
    assert all(b < a for a, b in zip(history, history[1:]))
    assert abs(x[0] - np.sqrt(2.0)) < 1e-12 and np.array_equal(state, x * x - 2.0)


def test_a_last_step_that_converges_counts_and_one_more_is_not_taken():
    evaluate, solve, _ = sqrt2_problem()
    free = damped_newton(np.array([1.0]), evaluate, solve, below(1e-12), 10, "toy")[2]
    steps = len(free) - 1
    assert damped_newton(np.array([1.0]), evaluate, solve, below(1e-12), steps, "toy")[2] == free
    with pytest.raises(SolverError, match=rf"^toy did not converge \(residual .* after "
                                          rf"{steps - 1} iterations\)$"):
        damped_newton(np.array([1.0]), evaluate, solve, below(1e-12), steps - 1, "toy")


def test_zero_budget_tests_the_start_only():
    evaluate, solve, solves = sqrt2_problem()
    with pytest.raises(SolverError, match="after 0 iterations"):
        damped_newton(np.array([1.0]), evaluate, solve, below(1e-12), 0, "toy")
    assert solves == []


def test_the_first_tau_with_decrease_one_minus_tau_over_four_is_taken():
    # merit |x| from 1 along -1.9: tau = 1 lands at 0.9 > 0.75 (rejected although
    # it lowers the merit), tau = 1/2 at 0.05 <= 0.875 (accepted)
    def evaluate(x):
        return None, float(abs(x[0]))

    x, _, history = damped_newton(np.array([1.0]), evaluate, lambda x, s: np.array([-1.9]),
                                  below(0.1), 1, "toy")
    assert x[0] == 1.0 - 0.5 * 1.9 and history == [1.0, abs(1.0 - 0.5 * 1.9)]


@pytest.mark.parametrize("radius, accepted", [(2e-8, True), (1e-8, False)])
def test_the_line_search_tries_tau_down_to_1e_minus_8(radius, accepted):
    # only |x| <= radius is admissible: tau = 2^-26 (1.5e-8) is the last trial
    # and the first admissible one when radius = 2e-8; 2^-27 is never tried
    def evaluate(x):
        return (None, 1.0 - x[0]) if abs(x[0]) <= radius else None

    args = (np.array([0.0]), evaluate, lambda x, s: np.array([1.0]), below(0.5), 1, "toy")
    if accepted:
        with pytest.raises(SolverError, match="after 1 iterations"):
            damped_newton(*args)
    else:
        with pytest.raises(SolverError, match="^toy step has no admissible trial point"):
            damped_newton(*args)


def test_stalled_line_search_names_the_residual():
    # merit x^2 + 1 at its minimum x = 0: no step lowers it
    def evaluate(x):
        return None, float(x[0] ** 2 + 1.0)

    with pytest.raises(SolverError, match=r"^toy line search stalled \(residual 1\.000e\+00\)$"):
        damped_newton(np.array([0.0]), evaluate, lambda x, s: np.array([1.0]), below(0.5), 5,
                      "toy")


def test_no_admissible_trial_point():
    # admissible set x >= 1, start on its boundary, every step points out of it
    def evaluate(x):
        return (None, float(x[0])) if x[0] >= 1.0 else None

    with pytest.raises(SolverError, match="^toy step has no admissible trial point"):
        damped_newton(np.array([1.0]), evaluate, lambda x, s: np.array([-1.0]), below(0.5), 5,
                      "toy")


def test_singular_solve_is_a_solver_error():
    evaluate, _, _ = sqrt2_problem()

    def solve(x, state):
        return np.linalg.solve(np.zeros((1, 1)), -state)

    with pytest.raises(SolverError, match="^singular toy system: Singular matrix$") as info:
        damped_newton(np.array([1.0]), evaluate, solve, below(1e-12), 5, "toy")
    assert isinstance(info.value.__cause__, np.linalg.LinAlgError)


@pytest.mark.parametrize("n, sep", [(16, (0, 1)), (17, (0, 16))], ids=["cyclic", "bordered"])
def test_condensed_solve_rejects_a_coupling_beyond_the_band(n, sep):
    # the identity plus one entry (3, 9): six places apart off the separator
    i, j = np.append(np.arange(n), 3), np.append(np.arange(n), 9)
    with pytest.raises(ValueError, match="half-bandwidth 6, more than 2"):
        condensed_solver(i, j, n, sep)


def separated_band(n, k, rng):
    """An n x n system, dense on the separator (0, 1), whose block on nodes
    2..n-1 has half-bandwidth k and a dominant diagonal."""
    dense = rng.uniform(-1.0, 1.0, (n, n))
    dense[2:, 2:][np.abs(np.subtract.outer(np.arange(n - 2), np.arange(n - 2))) > k] = 0.0
    dense[np.arange(n), np.arange(n)] += 4.0 * (k + 1) + n
    return dense


@pytest.mark.parametrize("n, k", [(3, 0), (16, 0), (16, 1), (17, 2)])
def test_condensed_solve_matches_the_dense_system_at_each_band_width(n, k):
    # a 1x1 block is divided; a tridiagonal one goes to LAPACK gtsv, the
    # others to gbsv
    rng = np.random.default_rng(n + k)
    dense, rhs = separated_band(n, k, rng), rng.normal(size=n)
    i, j = np.nonzero(dense)
    x = condensed_solver(i, j, n, (0, 1))(dense[i, j], rhs)
    expected = np.linalg.solve(dense, rhs)
    assert np.linalg.norm(x - expected) <= 1e-13 * np.linalg.norm(expected)


@pytest.mark.parametrize("k", [1, 2])
def test_condensed_solve_of_a_singular_band_is_a_linalg_error(k):
    # the block off the separator keeps its pattern but holds only zeros
    dense = separated_band(17, k, np.random.default_rng(k))
    i, j = np.nonzero(dense)
    a = np.where((i > 1) & (j > 1), 0.0, dense[i, j])
    with pytest.raises(np.linalg.LinAlgError, match="^singular matrix$"):
        condensed_solver(i, j, 17, (0, 1))(a, np.ones(17))

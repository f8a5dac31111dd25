"""Exception hierarchy shared by all solvers and the scenario runner.

The runner maps these onto distinct process exit codes, so the split between
"the hypothesis of the statement fails" (PreconditionError) and "the iteration
did not converge" (SolverError) is part of the public contract.
"""


class CurvLabError(Exception):
    """Base class for all errors raised by this package."""


class PreconditionError(CurvLabError):
    """A mathematical hypothesis or input contract is violated.

    Carries an optional ``condition`` label naming the violated hypothesis
    (e.g. ``"pinching-window"``); failure reports quote it verbatim.
    """

    def __init__(self, message, condition=None):
        super().__init__(message)
        self.condition = condition


class ObstructionError(PreconditionError):
    """The theory obstructs the requested solution, so no solve is attempted."""


class SolverError(CurvLabError):
    """An iterative solver failed to converge within its budget."""


class ConfigError(CurvLabError):
    """Scenario configuration is malformed or references unknown entities."""

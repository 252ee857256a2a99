"""Exception types raised by the toll design library.

Every domain-specific failure mode gets its own class so callers (and the
command line front end) can map problems to exit codes without string
matching.  Plain ``ValueError`` is still used for garden-variety argument
mistakes such as mismatched vector lengths.
"""

from __future__ import annotations


class TollDesignError(Exception):
    """Base class for all errors raised by this package."""


class InvalidNetworkError(TollDesignError):
    """The network fails a structural invariant.

    Carries the individual findings so callers can show all of them at
    once instead of fixing problems one at a time.
    """

    def __init__(self, problems: tuple[str, ...]) -> None:
        self.problems = tuple(problems)
        super().__init__("invalid network: " + "; ".join(self.problems))


class NumericalDegeneracyError(TollDesignError):
    """A solve has no interior to start from, or a result leaves the float range.

    Raised by the design kernel when its start, projected onto the
    balance rows, keeps no positive slack on some bound: a ceiling of
    zero up to rounding, or bounds whose slack cancels in rounding.  Also
    raised by :func:`~robusttolls.equilibrium.system_latency` when the
    total travel time overflows.
    """


class OutOfRegimeError(TollDesignError):
    """A closed-form equilibrium has a negative component.

    The interior formula only applies when every edge carries positive
    flow.  ``min_flow`` is the lowest closed-form flow found; the message
    says where it was found and what to do about it.
    """

    def __init__(self, message: str, min_flow: float) -> None:
        self.min_flow = float(min_flow)
        super().__init__(message)


class ConvergenceError(TollDesignError):
    """An iterative solver hit its budget before reaching tolerance."""

    def __init__(self, message: str, iterations: int, residual: float) -> None:
        self.iterations = int(iterations)
        self.residual = float(residual)
        super().__init__(f"{message} (iterations={self.iterations}, residual={self.residual:.3e})")


class InsufficientDataError(TollDesignError):
    """Too few sample records for the requested estimate."""


class InfeasibleError(TollDesignError):
    """The requested toll set is empty.

    ``epsilon_max`` is attached when the infeasibility comes from asking
    for a robustness radius beyond the largest achievable one; it is
    ``None`` when even the nominal problem admits no toll.
    """

    def __init__(self, message: str, epsilon_max: float | None = None) -> None:
        self.epsilon_max = epsilon_max
        super().__init__(message)


class FileFormatError(TollDesignError):
    """A network, scenario, or sample file does not match its schema."""

"""Semantic exception hierarchy for the homsys package."""


class HomsysError(Exception):
    """Base class for all homsys errors."""


class DomainError(HomsysError, ValueError):
    """An argument violates a documented precondition."""


class InvalidProfileError(DomainError):
    """A log-scale profile violates the class-G axioms (Lipschitz, monotonicity, sign)."""


class DegenerateModelError(HomsysError, ValueError):
    """Every atom of the mixture is max or min, so all moment integrals vanish."""


class RegridRequiredError(HomsysError, RuntimeError):
    """The evolved law would leave the allocated grid; the caller must regrid."""


class ScheduleInfeasibleError(HomsysError, ArithmeticError):
    """The schedule equations have no solution at this n (n too small)."""


class ClampBudgetExceededError(HomsysError, RuntimeError):
    """Accumulated monotonicity clamping exceeded the permitted budget."""

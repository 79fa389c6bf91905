class IrsAllocError(Exception):
    """Base class for all library errors."""


class ConfigError(IrsAllocError):
    """Invalid or incomplete scenario configuration."""


class DistanceTooSmall(IrsAllocError):
    """A link distance violates the minimum (reference/far-field) distance."""


class DimensionMismatch(IrsAllocError):
    """Channel/reflection dimensions are inconsistent."""


class ConditionUndefined(IrsAllocError):
    """The large-distance regime condition is undefined for these parameters."""


class InfeasibleBudget(IrsAllocError):
    """No feasible element allocation exists under the given budget."""


class SearchSpaceTooLarge(IrsAllocError):
    """The integer scan would exceed its bound on n_act rows."""


class NoFeasiblePlacement(IrsAllocError):
    """Every grid placement violates the minimum-distance constraint."""

"""Exception types shared across the toolkit.

The CLI maps these onto process exit codes: validation problems exit with 2,
exceeded enumeration caps with 3, and internal numeric tripwires with 4.
"""


class HazardPlanError(Exception):
    """Base class for all toolkit errors."""


class ValidationError(HazardPlanError):
    """Malformed input: scenario files, queries, kernels, or flag values."""


class CapExceededError(HazardPlanError):
    """An exact enumeration or a DP table would exceed its size cap."""


class NumericViolationError(HazardPlanError):
    """An internal numeric invariant failed (probabilities out of range, ...)."""


class VacuousBoundError(HazardPlanError):
    """Guarantee evaluation requested at curvature 1 or submodularity ratio 0."""


class InsufficientObservationsError(HazardPlanError):
    """A greedy trace holds no nested marginal evaluations to compare."""

"""Exception types shared across the toolkit, and the input check its loaders share."""


class MMPruneError(Exception):
    """Base class for all toolkit errors."""


class ShapeError(MMPruneError):
    """Array dimensions do not match what an operation requires."""


class NumericError(MMPruneError):
    """A non-finite value appeared where finite math was expected."""


class ConfigError(MMPruneError):
    """Invalid model or run configuration."""


class UsageError(MMPruneError):
    """Bad command-line input; maps to the usage exit code."""


class FormatError(MMPruneError):
    """Checkpoint or data file is missing, truncated, or inconsistent."""


class DegenerateInputError(MMPruneError):
    """Input is too degenerate for the requested statistic (e.g. zero-norm vector)."""


class InsufficientTokensError(MMPruneError):
    """Not enough tokens to compute a pairwise statistic or neighbor graph."""


class InfeasibleBudgetError(MMPruneError):
    """Sparsity budget cannot be met within [0, 1] ratio bounds.

    `binding_layers` lists the layer ids clamped at a bound when the
    solve ran out of slack.
    """

    def __init__(self, message: str, binding_layers=()):
        super().__init__(message)
        self.binding_layers = list(binding_layers)


def is_count(value, low: int = 0) -> bool:
    """True for a JSON integer (not a bool) of at least `low`."""
    return isinstance(value, int) and not isinstance(value, bool) and value >= low

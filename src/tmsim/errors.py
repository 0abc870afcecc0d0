"""Exception and warning types shared across the toolkit."""


class ToolkitError(Exception):
    """Base class for all toolkit-specific errors."""


class InvalidArgumentError(ToolkitError, ValueError):
    """An argument violates a documented precondition."""


class UnsupportedOrderError(ToolkitError, ValueError):
    """Hermite-Gauss order outside the numerically stable range."""


class UnsupportedDimensionError(ToolkitError, ValueError):
    """Dimension not supported by the requested construction."""


class BasisMismatchError(ToolkitError, ValueError):
    """State cannot be represented in the requested truncated mode basis."""


class IllPosedError(ToolkitError, ValueError):
    """Measurement set does not determine a unique state."""


class BasisMismatchWarning(UserWarning):
    """Noticeable but tolerable weight lost outside the truncated mode basis."""

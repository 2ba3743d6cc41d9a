"""Exception types shared across the toolkit."""


class FgFormatError(ValueError):
    """Malformed ``.fg`` input; carries the 1-based line number."""

    def __init__(self, lineno: int, message: str):
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno


class ZeroMeasureError(ValueError):
    """An operation that needs a nonzero measure saw only zeros."""


class CapacityExceededError(RuntimeError):
    """A computation would exceed a configured enumeration or size cap, or the floating-point range."""

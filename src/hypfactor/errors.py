"""Exception types shared across the package."""


class ParameterError(ValueError):
    """User-supplied parameters are malformed or outside the supported range."""


class InvalidHingeError(ValueError):
    """A hinge move asks for more amalgam occurrences than the graph holds."""


class InternalInvariantError(RuntimeError):
    """A construction-time invariant failed.  Indicates a bug, not bad input."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class TimeLimitError(RuntimeError):
    """A construction ran past its time limit; nothing it built is returned."""

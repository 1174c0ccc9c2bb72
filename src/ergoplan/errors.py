"""Exception types shared across the package."""


class ErgoplanError(Exception):
    """Base class for all package-specific errors."""


class NotRectilinear(ErgoplanError):
    """Polygon has an edge that is not axis-aligned."""


class SelfIntersecting(ErgoplanError):
    """Polygon boundary touches or crosses itself."""


class DegenerateArea(ErgoplanError):
    """Polygon encloses zero area (or collapses below 4 vertices)."""


class InvariantViolation(ErgoplanError):
    """A structural invariant failed; carries the offending field path."""

    def __init__(self, path, reason):
        super().__init__(f"{path}: {reason}")
        self.path = path
        self.reason = reason


class PlanSyntaxError(ErgoplanError):
    """Plan file is not syntactically valid JSON / has the wrong shape."""


class EmptyInput(ErgoplanError):
    """An operation that needs at least one element received none."""


class ContextOverflow(ErgoplanError):
    """Token sequence exceeds the configured context length."""


class OutOfRange(ErgoplanError, IndexError):
    """Position or index outside the valid range."""


class ArgmaxNotCoordinate(ErgoplanError):
    """Most probable token is not a coordinate token."""


class NonFiniteLoss(ErgoplanError):
    """Training loss became NaN or infinite."""

    def __init__(self, message, diagnostics=None):
        super().__init__(message)
        self.diagnostics = diagnostics or {}


class CheckpointError(ErgoplanError):
    """A checkpoint file has an unsupported version or its parameters do
    not match its recorded checksum."""


class ProtocolMismatch(ErgoplanError):
    """Two evaluation reports were produced under different protocols."""

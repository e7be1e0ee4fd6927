"""Exception types shared across the package.

Validation errors carry the path of the offending field so the CLI can
report machine-readable locations; numerical errors carry enough state
to diagnose where an algorithm gave up.
"""


class QuasispecError(Exception):
    """Base class for all package errors."""


class ValidationError(QuasispecError):
    """Raised when input data violates a structural invariant.

    Attributes:
        field: dotted/indexed path of the offending field, e.g. "indices[0]".
    """

    def __init__(self, field, message):
        self.field = field
        super().__init__(f"{field}: {message}")


class ConsistencyError(QuasispecError):
    """Raised when an internal identity fails beyond tolerance.

    This signals a builder bug (or corrupted input), not a user error.
    """


class IntegrationError(QuasispecError):
    """Raised when an ODE integrator cannot reach its accuracy target
    within its budget: the Magnus steps of the direct route, or the
    panels of the factored solve.

    Attributes:
        x: position in [0, 1] where the failure occurred (may be None).
    """

    def __init__(self, message, x=None):
        self.x = x
        super().__init__(message if x is None else f"{message} (at x={x:.6g})")


class NonContractionError(QuasispecError):
    """Raised when the Birkhoff solve fails: the fixed-point iteration
    stalls and the GMRES fallback does not converge either.

    The remedy is a larger |rho|.
    """


class ContourError(QuasispecError):
    """Raised when an argument-principle contour cannot be trusted
    (zero too close to the contour, winding not integer-consistent, or
    values that vanish or are not finite along it).

    Attributes:
        contact: True when a zero near the contour may be the cause, so
            that a slightly moved contour can succeed.
    """

    def __init__(self, message, contact=False):
        self.contact = contact
        super().__init__(message)


class RootSearchError(QuasispecError):
    """Raised when eigenvalue location/refinement fails for an index."""


class ConfigurationError(QuasispecError):
    """Raised when an operation is invoked on a problem lacking the
    required data (e.g. weight numbers without a weight form)."""

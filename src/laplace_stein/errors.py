"""Exception types shared across the package."""


class QuadratureError(RuntimeError):
    """An integral did not converge to the requested accuracy."""

    def __init__(self, message, residual=None):
        if residual is not None:
            message = f"{message} (error estimate {residual:.3e})"
        super().__init__(message)
        self.residual = residual


class TruncationError(RuntimeError):
    """A truncation's k-float arrays would not fit in physical memory."""


class CertificationError(ValueError):
    """A test function failed bounded-Lipschitz certification."""

"""Exception types shared across the package."""


class QuadratureError(RuntimeError):
    """An integral did not converge to the requested accuracy."""


class TruncationError(RuntimeError):
    """A truncation's k-float arrays would not fit in physical memory."""


class CertificationError(ValueError):
    """A test function failed bounded-Lipschitz certification."""

"""Exception types shared across the package."""


class DomainError(ValueError):
    """A quantity was requested outside the regime where it is defined."""


class HardInvariantViolation(ValueError):
    """A structural system constraint is broken; the configuration is unusable.

    Names the broken invariants on ``.failed`` when raised by
    ``cachematch.config.validate``.
    """

    def __init__(self, message, failed=()):
        super().__init__(message)
        self.failed = tuple(failed)


class InsufficientMemory(ValueError):
    """Cluster memory cannot accommodate the requested placement."""


class IncompatibleScheme(ValueError):
    """The chosen scheme does not apply to the given configuration."""

"""Exception types shared across the package."""


class MorphNavError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(MorphNavError):
    """Invalid configuration, parameter file, or scenario definition."""


class SamplingError(MorphNavError):
    """Rejection sampling exhausted its retry budget."""


class QueryNodeIsolatedError(MorphNavError):
    """A start or goal node could not be connected to the roadmap."""


class NoPathError(MorphNavError):
    """No path exists between the requested endpoints.

    Carries the number of nodes the search explored before giving up so
    callers can distinguish an exhausted search from a trivial one.
    """

    def __init__(self, message: str, explored: int = 0):
        super().__init__(message)
        self.explored = explored


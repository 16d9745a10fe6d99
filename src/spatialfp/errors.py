"""Exception types shared across the package."""


class SpatialFpError(Exception):
    """Base class for all package-specific errors."""


class PointOutOfBounds(SpatialFpError):
    """A coordinate lies outside the configured bounding box."""


class InvalidLevel(SpatialFpError):
    """A hierarchy level outside the valid range for the grid or gid."""


class MalformedGid(SpatialFpError):
    """A gid string that cannot be parsed."""


class DictionaryFull(SpatialFpError):
    """The word-id space is exhausted."""


class ConfigInvalid(SpatialFpError):
    """Inconsistent or out-of-range configuration values."""

"""Exception types, grouped by the exit code the CLI maps them to."""


class DirquantError(Exception):
    """Base class for all package errors."""


class ConfigError(DirquantError):
    """Invalid run configuration (CLI exit code 2)."""


class DataError(DirquantError):
    """Malformed or unusable input data (CLI exit code 3)."""


class NumericalError(DirquantError):
    """Numerical failure during estimation (CLI exit code 4)."""


class InvalidDirectionError(DataError):
    """Direction vector is not unit norm or depth is out of range."""


class ShapeError(DataError):
    """Array dimensions do not agree."""


class DomainError(DataError):
    """Scalar argument outside its mathematical domain."""


class RankError(NumericalError):
    """Design matrix is rank deficient."""


class DegenerateWindowError(NumericalError):
    """All kernel weights underflowed; no observation carries mass."""


class UnboundedRegionError(NumericalError):
    """Halfplane intersection is unbounded."""

"""Exception taxonomy shared by the whole package.

The CLI maps these onto exit codes: ParameterError -> 1 (usage),
DataError and its children -> 2 (data/IO), NumericalError -> 3.
"""


class QmedianError(Exception):
    """Base class for all package-specific errors."""


class ParameterError(QmedianError, ValueError):
    """A parameter is outside its documented range."""


class DataError(QmedianError):
    """Dataset input could not be used."""


class DatasetParseError(DataError):
    """A dataset line is not a decimal number."""


class DatasetSizeError(DataError):
    """Dataset length is not a power of two (or a size cap was exceeded)."""


class NumericalError(QmedianError):
    """A numerical invariant (norm, tolerance) was violated at runtime."""


"""Exception types shared across the package."""


class SnraError(Exception):
    """Base class for all errors raised by this package."""


class DimensionError(SnraError, ValueError):
    """A vector, matrix, or image has the wrong shape or length."""


class ProtocolError(SnraError, RuntimeError):
    """A signal frame or controller call violates the array protocol."""


class IdxFormatError(SnraError, ValueError):
    """Base class for problems with IDX-encoded dataset files."""


class BadMagicError(IdxFormatError):
    """An IDX header does not carry the expected magic number."""


class TruncatedFileError(IdxFormatError):
    """An IDX payload is shorter than its header promises."""


class CountMismatchError(IdxFormatError):
    """An image file and a label file disagree on their count (arrays raise DimensionError)."""


class ModelFormatError(SnraError, ValueError):
    """A serialized model file is corrupt or has an unknown layout."""


class UnknownTechnologyError(SnraError, ValueError):
    """A power query names a LUT technology with no reference data."""


class UnknownTopologyError(SnraError, ValueError):
    """A power query names a topology with no utilization record."""

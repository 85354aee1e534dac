"""Exception hierarchy shared by all divkit modules.

Three broad families map onto the CLI exit codes: usage problems (1),
data problems (2), numeric problems (3).
"""


class DivkitError(Exception):
    """Base class for all errors raised by this package."""


class UsageError(DivkitError):
    """Bad command-line arguments or malformed run configuration."""


class DataError(DivkitError):
    """Invalid input data or arguments that violate an operation's preconditions."""


class NumericError(DivkitError):
    """A numerical contract was violated (non-PSD matrix, solver failure, ...)."""


# -- data errors ------------------------------------------------------------

class MalformedFile(DataError):
    """File does not conform to its declared format (bad magic, ragged rows...)."""


class NonFiniteEntry(DataError):
    def __init__(self, row: int, col: int, path: str = ""):
        self.row = row
        self.col = col
        where = f" in {path}" if path else ""
        super().__init__(f"non-finite value at row {row}, column {col}{where}")


class EmptySet(DataError):
    """An embedding set with zero rows."""


class IoFailure(DataError):
    """Underlying file write/read failed."""


class SizeTooLarge(DataError):
    """Requested subsample size exceeds the number of available rows."""


class DimensionMismatch(DataError):
    """Operands have incompatible shapes."""


class ZeroVector(DataError):
    """Cosine similarity is undefined for zero-norm vectors."""


class NonPositiveBandwidth(DataError):
    """Gaussian kernels require bandwidth > 0."""


class TooFewSamples(DataError):
    """Operation needs more samples than were provided."""


class EmptyHistogram(DataError):
    """Entropy of an all-zero histogram is undefined."""


class EmptyBank(DataError):
    """The memory bank holds no entries."""


class InvalidGrid(DataError):
    """Size grid is empty or not strictly ascending."""


class DimensionTooLarge(DataError):
    """Cube mixture dimension exceeds the supported limit."""


class BadArguments(DataError):
    """Scalar arguments outside their documented domain."""


# -- numeric errors ---------------------------------------------------------

class NotUnitTrace(NumericError):
    """Matrix handed to the entropy routines must have trace 1."""


class NotPSD(NumericError):
    """Matrix has an eigenvalue below the negative tolerance."""


class SizeCapExceeded(NumericError):
    """Exact eigendecomposition refused beyond the configured size cap."""

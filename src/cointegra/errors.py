"""Exception hierarchy shared across the package.

Every error raised by library code derives from :class:`CointegraError` so
callers can catch one type at the pipeline boundary.
"""


class CointegraError(Exception):
    """Base class for all errors raised by this package."""


class RankDeficient(CointegraError):
    """Regressor cross-product matrix is numerically singular."""


class NotPositiveDefinite(CointegraError):
    """Matrix handed to a Cholesky-based routine is not positive definite."""


class MissingColumn(CointegraError):
    """A required CSV column is absent."""


class DuplicateQuarter(CointegraError):
    """The same (year, quarter) appears more than once in an input file."""


class GapInQuarters(CointegraError):
    """Quarterly observations are not contiguous.

    Parameters
    ----------
    missing : list of str
        The quarter labels that should be present but are not.
    """

    def __init__(self, missing):
        self.missing = list(missing)
        super().__init__("missing quarters: " + ", ".join(str(q) for q in self.missing))


class NonPositiveValue(CointegraError):
    """A strictly-positive panel variable is zero or negative."""

    def __init__(self, row, column):
        self.row = row
        self.column = column
        super().__init__(f"non-positive value at row {row}, column {column!r}")


class MalformedValue(CointegraError):
    """A CSV cell is missing or does not parse as the number its column holds.

    The message names ``path``, the file, when it is given.
    """

    def __init__(self, row, column, path=None):
        self.row = row
        self.column = column
        where = "" if path is None else f" in {path}"
        super().__init__(f"malformed value at row {row}, column {column!r}{where}")


class NonPositiveInput(CointegraError):
    """Location-quotient inputs must be strictly positive."""


class EmptyInput(CointegraError):
    """An operation received an empty series or panel."""


class SampleTooShort(CointegraError):
    """Effective sample is below the minimum the estimator requires."""


class ConstantSeries(CointegraError):
    """A series has zero variance, making the test regression singular."""


class SingularS00(CointegraError):
    """The S00 product-moment matrix is numerically singular."""


class NumericalFailure(CointegraError):
    """An eigenvalue or other quantity left its mathematically valid range."""


class LeadingBlockSingular(CointegraError):
    """The leading block of the eigenvector matrix cannot be inverted."""


class RankMismatch(CointegraError):
    """Requested cointegration rank exceeds what the test run provides."""


class HorizonZero(CointegraError):
    """Forecast horizon must be at least one step."""


class HoldoutOutOfRange(CointegraError):
    """Backtest holdout start falls outside the usable sample."""


class SingularCovariance(CointegraError):
    """Residual covariance matrix is singular where an inverse is needed."""


class ConfigInvalid(CointegraError):
    """Run configuration failed validation."""


class DataDirMissing(CointegraError):
    """Configured data directory does not exist."""


class IndexBaseMissing(CointegraError):
    """The base quarter for index rescaling is not in the observed sample."""

"""Exception types raised across the toolkit.

Parse errors carry the 1-based line number of the offending row so CLI
messages can point at the file location.
"""


class TickphysError(Exception):
    """Base class for all toolkit errors."""


# ---------------------------------------------------------------- data layer


class DataError(TickphysError):
    """Malformed or inconsistent input data."""


class ParseError(DataError):
    """Malformed content, tied to a 1-based input line when one applies.

    Raised with (line, message) by the file parsers; a single-argument
    raise carries just the message and leaves ``line`` as None.
    """

    def __init__(self, line: int | str | None, message: str | None = None):
        if message is None:
            line, message = None, str(line)
        self.line = line
        super().__init__(message if line is None else f"line {line}: {message}")


class MalformedRow(ParseError):
    pass


class NonMonotonicTime(ParseError):
    pass


class TickSizeViolation(ParseError):
    pass


class LadderOrderViolation(ParseError):
    pass


class CrossedBook(ParseError):
    pass


class EmptyDay(DataError):
    """A day slice contains no events to resample."""


# ------------------------------------------------------------------ analysis


class SeriesTooShort(DataError):
    pass


class DegenerateSeries(DataError):
    """Constant input, or fluctuations identically zero."""


class WindowTooLarge(DataError):
    pass


class TooFewSamples(DataError):
    pass


class TooFewBins(DataError):
    pass


class TooManyBins(DataError):
    """A histogram would need more than ``numerics.MAX_BINS`` bins."""


class PriceRangeTooWide(DataError):
    """Price range times ladder length overflows the crossing index's keys."""


class EmptySide(DataError):
    """Order book with zero total volume on both sides within depth."""


class FitError(TickphysError):
    pass


class FitDiverged(FitError):
    pass


# ------------------------------------------------------------------ numerics


class EmptyInput(TickphysError):
    pass


class DegenerateX(TickphysError):
    """Regression abscissae are all equal."""


class NonFiniteObjective(TickphysError):
    pass


class EmbeddingNotDefinite(TickphysError):
    """A circulant embedding has an eigenvalue more negative than rounding
    explains, so it is not a covariance."""


class MaxDepthExceeded(TickphysError):
    """Adaptive quadrature failed to converge at requested tolerance."""


class UsageError(TickphysError):
    """Bad command-line invocation."""

"""Exception hierarchy shared by all cardcsp modules."""


class CardCspError(Exception):
    """Base class for all errors raised by this package."""


class InputError(CardCspError):
    """Malformed or inconsistent input to a library operation."""


class ParseError(InputError):
    """Instance file could not be parsed; carries the offending line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


class ResourceError(CardCspError):
    """A configured size/work cap would be exceeded.

    May carry a partial result (e.g. an oversized kernel) in ``payload``
    so callers can hand it to an external process.
    """

    def __init__(self, message: str, payload=None):
        super().__init__(message)
        self.payload = payload


class PreconditionError(CardCspError):
    """A documented hypothesis of the operation does not hold for the input."""


class DegenerateInput(CardCspError):
    """Statistic is undefined for this input (e.g. a ratio with zero denominator)."""

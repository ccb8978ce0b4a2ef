"""Exception types shared across the pipeline."""


class NssfpError(Exception):
    """Base class for all errors raised by this package."""


class ConfigurationError(NssfpError):
    """Invalid build-time configuration (empty corpus, bad model order, ...)."""


class UsageError(NssfpError):
    """Caller violated an operation's contract (bad argument, length mismatch)."""


class ValidationError(NssfpError):
    """Data failed an invariant check (probabilities, token ids, finiteness)."""


class ParseError(NssfpError):
    """Malformed input file. Carries the location of the offending record."""

    def __init__(self, message: str, path: str = "", line: int = 0):
        self.path = path
        self.line = line
        loc = f"{path}:{line}: " if path or line else ""
        super().__init__(f"{loc}{message}")


def parse_field(convert, text: str, what: str, path, line: int):
    """``convert(text)`` for one field of an input file.

    A value ``convert`` rejects becomes a :class:`ParseError` that names the
    field and gives ``path:line``.
    """
    try:
        return convert(text)
    except ValueError:
        raise ParseError(f"bad {what} {text!r}", path=str(path), line=line) from None


class InsufficientDataError(NssfpError):
    """Not enough samples to fit a distribution or estimate a slope."""

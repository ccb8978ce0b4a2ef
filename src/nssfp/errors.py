"""Exception types shared across the pipeline, and the helpers that raise
them for malformed input files."""

import functools


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


def utf8_reader(read):
    """Wrap ``read(path, ...)``, a reader of a UTF-8 text file, so that bytes
    that are not UTF-8 raise a :class:`ParseError` at the line that holds
    them instead of a ``UnicodeDecodeError``."""
    @functools.wraps(read)
    def wrapper(path, *args, **kwargs):
        try:
            return read(path, *args, **kwargs)
        except UnicodeDecodeError:
            raise ParseError("not UTF-8 text", path=str(path),
                             line=_undecodable_line(path)) from None
    return wrapper


def _undecodable_line(path) -> int:
    # same line breaks as the text reader; each undecodable byte becomes a surrogate
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, start=1):
            try:
                line.encode("utf-8")
            except UnicodeEncodeError:
                return lineno
    return 0


class InsufficientDataError(NssfpError):
    """Not enough samples to fit a distribution or estimate a slope."""

"""Exception types shared across the pipeline, and the helpers that raise
them for malformed input files."""


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


def read_records(path, fields, sep: str, header: str = "", types=None):
    """Stream the records of a line-record file: the header's ``key=value``
    fields as a dict first (empty if ``header`` is ""), then ``(lineno,
    parts)`` per record.

    The file is UTF-8 with universal newlines; empty and ``#`` lines are
    skipped. Exactly one ``header`` line, if given, must precede the first
    record and carry exactly the keys of ``types``, converted by
    :func:`parse_field`. A record splits at its first ``len(fields) - 1``
    separators, so the last field keeps any later ones. Short records, bad
    headers and undecodable bytes raise a :class:`ParseError` at their line.
    """
    shape = "expected " + ("<TAB>" if sep == "\t" else sep).join(fields)
    width = len(fields)
    meta = None if header else {}
    if not header:
        yield meta
    try:
        with open(path, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.rstrip("\n")
                if line.startswith("#"):
                    if header and line.startswith(header):
                        if meta is not None:
                            raise ParseError(f"repeated {header!r} header",
                                             path=str(path), line=lineno)
                        meta = _header(line[len(header):], types or {}, path, lineno)
                        yield meta
                elif line:
                    if meta is None:
                        break
                    parts = line.split(sep, width - 1)
                    if len(parts) != width:
                        raise ParseError(shape, path=str(path), line=lineno)
                    yield lineno, parts
    except UnicodeDecodeError:
        raise not_utf8(path) from None
    if meta is None:
        raise ParseError(f"expected {header!r} header", path=str(path), line=1)


def _header(text: str, types: dict, path, lineno: int) -> dict:
    meta = {}
    for part in text.split():
        key, eq, value = part.partition("=")
        if not eq or key not in types:
            raise ParseError(f"bad header {part!r}", path=str(path), line=lineno)
        meta[key] = parse_field(types[key], value, key, path, lineno)
    for key in types:
        if key not in meta:
            raise ParseError(f"header lacks {key}=", path=str(path), line=lineno)
    return meta


def not_utf8(path) -> ParseError:
    """The error for a file that is not UTF-8, at its first undecodable line."""
    # same line breaks as the text reader; each undecodable byte becomes a surrogate
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, start=1):
            try:
                line.encode("utf-8")
            except UnicodeEncodeError:
                break
    return ParseError("not UTF-8 text", path=str(path), line=lineno)


class InsufficientDataError(NssfpError):
    """Not enough samples to fit a distribution or estimate a slope."""

"""Exception types shared across the pipeline, and the one framing of every
line-record file: :func:`write_records` writes it, :func:`read_records` reads
it and raises a :class:`ParseError` at ``path:line`` where it is malformed."""


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
        raise _not_utf8(path) from None
    if meta is None:
        raise ParseError(f"expected {header!r} header", path=str(path), line=1)


def write_records(path, lines, header: str = "", header_lines=()):
    """Write what :func:`read_records` reads, as UTF-8: the typed ``header``
    if given, each of ``header_lines`` as ``# {line}``, then the record
    ``lines`` (without newlines), streamed one at a time."""
    with open(path, "w", encoding="utf-8") as fh:
        if header:
            fh.write(f"{header}\n")
        for line in header_lines:
            fh.write(f"# {line}\n")
        for line in lines:
            fh.write(f"{line}\n")


def dense_series(path, rows: dict, what: str) -> list:
    """``(id, values in index order)`` per id of ``rows``, which maps each id,
    in order of first appearance, to its ``(index, line, value)`` records in
    file order. Each id's indexes must cover 0..n-1 exactly once: the first
    repeated index in the file is a :class:`ParseError` at its line; failing
    that, the first id with a gap is one at the id's first line."""
    series, faults = [], []
    for key, records in rows.items():
        index, lines, values = zip(*records)
        n = len(index)
        if index != tuple(range(n)):  # out of order, repeated or with a gap
            # by index, then line: each repeat comes right after the record it repeats
            index, lines, values = zip(*sorted(records))
            repeats = [(line, i) for i, j, line in zip(index, index[1:], lines[1:]) if i == j]
            if repeats:
                line, i = min(repeats)
                faults.append(((0, line), f"{what} {i} of {key!r} repeats"))
            elif index != tuple(range(n)):
                gap = f"{what}s of {key!r} are not dense 0..{n - 1}"
                faults.append(((1, records[0][1]), gap))
        series.append((key, values))
    if faults:
        (_, line), message = min(faults)
        raise ParseError(message, path=str(path), line=line)
    return series


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


def read_lines(path) -> list[str]:
    """Every line of a UTF-8 text file, ``#`` and empty ones too, with the
    line breaks :func:`read_records` uses, for files whose lines are not
    records; an undecodable byte is a :class:`ParseError` at its line."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read().split("\n")
    except UnicodeDecodeError:
        raise _not_utf8(path) from None


def _not_utf8(path) -> ParseError:
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

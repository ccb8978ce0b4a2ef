"""Exception types shared across the pipeline, and the one framing of every
line-record file: :func:`write_records` writes it, :func:`read_records` reads
it and raises a :class:`ParseError` at ``path:line`` where it is malformed.
:func:`read_series` reads the dense-series files (NSS and traces): canonical
ones in bulk, any other through one record loop, which gives every error and
its line."""

import numpy as np

# the interchange formats separate fields and lines with these, so no id may
# hold one; a line that starts with "#" is a header or a comment
ID_DELIMITERS = ("\t", ",", "\n", "\r")


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


def _is_id(value: str) -> bool:
    return not any(c in value for c in ID_DELIMITERS) and not value.startswith("#")


def check_id(value: str, what: str):
    """Reject an id that holds a field delimiter of the interchange formats
    or would read back as a comment line."""
    if not _is_id(value):
        raise ValidationError(
            f"{what} id {value!r} contains a tab, comma or line break, or starts with '#'")


def parse_field(convert, text: str, what: str, path, line: int):
    """``convert(text)`` for one field of an input file.

    A value ``convert`` rejects becomes a :class:`ParseError` that names the
    field and gives ``path:line``.
    """
    try:
        return convert(text)
    except ValueError:
        raise ParseError(f"bad {what} {text!r}", path=str(path), line=line) from None


def read_records(path, fields, sep: str, header: str = "", types=None, columns=False):
    """Stream the records of a line-record file: the header's ``key=value``
    fields as a dict first (empty if ``header`` is ""), then ``(lineno,
    parts)`` per record.

    The file is UTF-8 with universal newlines; empty and ``#`` lines are skipped. Exactly
    one ``header`` line, if given, must precede the first record and carry exactly the keys
    of ``types``, converted by :func:`parse_field`. With ``columns``, the first record must
    be the column line ``fields``, which is not yielded and may not repeat. A record splits
    at its first ``len(fields) - 1`` separators; the last field keeps any later ones. Short
    records, bad headers and undecodable bytes raise a :class:`ParseError` at their line.
    """
    shape = "expected " + ("<TAB>" if sep == "\t" else sep).join(fields)
    width = len(fields)
    names = [*fields] if columns else None  # the column line; ``columns``: not read yet
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
                    if len(parts) != width or columns and parts != names:
                        raise ParseError(shape, path=str(path), line=lineno)
                    if columns:  # the column line: checked, not yielded
                        columns = False
                    elif names and parts == names:  # no list comparison without ``columns``
                        raise ParseError("repeated column line", path=str(path), line=lineno)
                    else:
                        yield lineno, parts
    except UnicodeDecodeError:
        raise _not_utf8(path) from None
    if meta is None or columns:  # no header, or no column line
        raise ParseError(f"expected {header!r} header" if meta is None else shape,
                         path=str(path), line=1)


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


def read_series(path, header: str, types: dict, fields: tuple, tag: str = ""):
    """``(meta, ids, columns)`` of a file of ``id TAB index TAB value...`` records
    after ``header``, typed by ``fields``: ``((name, dtype), ...)`` for the index and
    each value; ``columns`` holds per value one array per id. A canonical file is
    parsed in bulk, any other by the record loop, which gives every error and its line."""
    return (_read_columns(path, header, types, tuple(d for _, d in fields), tag)
            or _read_series_records(path, header, types, fields, tag))


def _read_series_records(path, header: str, types: dict, fields: tuple, tag: str):
    """What :func:`_read_columns` gives, for any file. An id that :func:`check_id`
    rejects is a :class:`ParseError` at its first line. Per record, the index is
    parsed, the last value must start with ``tag``, then each value is parsed in
    turn: an int must be >= 0 and < 2**63, a float finite. Each id's indexes must
    cover 0..n-1 exactly once, in any order: the first repeated index in the file
    is a :class:`ParseError` at its line; failing that, the first id with a gap is
    one at the id's first line."""
    (what, _), *kinds = fields
    records = read_records(path, ("seq_id", *(n.replace(" ", "_") for n, _ in fields)),
                           "\t", header, types)
    meta = next(records)
    rows: dict[str, tuple[int, dict]] = {}  # id: (its first line, values by index)
    repeat = None
    for lineno, (key, index, *texts) in records:
        if key not in rows:
            try:
                check_id(key, "sequence")
            except ValidationError as exc:
                raise ParseError(str(exc), path=str(path), line=lineno) from None
            rows[key] = (lineno, {})
        index = parse_field(int, index, what, path, lineno)
        if not texts[-1].startswith(tag):
            raise ParseError(f"unknown payload {texts[-1]!r}", path=str(path), line=lineno)
        texts[-1] = texts[-1][len(tag):]
        values = []
        for text, (name, dtype) in zip(texts, kinds):
            integer = np.dtype(dtype).kind == "i"
            value = parse_field(int if integer else float, text, name, path, lineno)
            if integer and not 0 <= value < 2**63:
                fault = f"negative {name}" if value < 0 else f"{name} out of the int64 range"
                raise ParseError(fault, path=str(path), line=lineno)
            if not integer and not np.isfinite(value):
                raise ParseError(f"non-finite {name}", path=str(path), line=lineno)
            values.append(value)
        by_index = rows[key][1]
        if index in by_index and repeat is None:  # raised after the read: a bad field wins
            repeat = ParseError(f"{what} {index} of {key!r} repeats", path=str(path), line=lineno)
        by_index[index] = values
    if repeat:
        raise repeat
    for key, (line, by_index) in rows.items():
        n = len(by_index)
        if min(by_index) != 0 or max(by_index) != n - 1:  # n distinct ints: a gap
            raise ParseError(f"{what}s of {key!r} are not dense 0..{n - 1}",
                             path=str(path), line=line)
    runs = [list(zip(*(by_index[i] for i in range(len(by_index)))))  # one tuple per field
            for _, by_index in rows.values()]
    return meta, list(rows), [[np.array(run[f], dtype=dtype) for run in runs]
                              for f, (_, dtype) in enumerate(kinds)]


def _read_columns(path, header: str, types: dict, dtypes: tuple, tag: str = ""):
    """``(meta, ids, columns)``, one array per id and value, of a canonical file of
    ``id TAB index TAB value...`` records typed by ``dtypes``; None for any other.
    Canonical: the ``header`` on line 1, then ``#`` lines not repeating it, then
    records, none empty or ``#``, the last value led by ``tag``; ASCII numbers that
    numpy reads as ``int``/``float`` would, integers >= 0, floats finite; each id
    one that :func:`check_id` accepts, in one run 0..n-1."""
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        start = text.find("\n") + 1 or len(text)
        meta = _header(text[len(header):start].rstrip("\n"), types, path, 1)
    except (UnicodeDecodeError, ParseError):
        return None
    while text.startswith("#", start) and not text.startswith(header, start):
        start = text.find("\n", start) + 1 or len(text)
    body = text[start:-1] if text.endswith("\n") else text[start:]
    n, width = body.count("\n") + 1, len(dtypes) + 1
    # records at least `width` fields wide (usecols) with this many tabs are all
    # exactly that wide; a tag, once per record, opens the last field or empties
    # a number
    if (not text.startswith(header) or not body or body[0] == "#" or "\n#" in body
            or body.count("\t") != (width - 1) * n or tag and body.count("\t" + tag) != n):
        return None
    del text
    records = (body.replace("\t" + tag, "\t\t") if tag else body).split("\n")
    # numpy strips \x1c-\x1f around a number and reads some non-ASCII characters
    # as digits ("5\u01fe" as 512); int() and float() do neither
    numbers = body if body.isascii() else "".join(r.partition("\t")[2] for r in records)
    if not numbers.isascii() or any(c in numbers for c in "\x1c\x1d\x1e\x1f"):
        return None
    del body, numbers
    try:
        table = np.loadtxt(records, dtype=[(f"f{i}", d) for i, d in enumerate(dtypes)],
                           delimiter="\t", comments=None, ndmin=1,
                           usecols=[*range(1, width - 1), width - 1 + bool(tag)])
    except ValueError:
        return None
    index, *values = (np.ascontiguousarray(table[name]) for name in table.dtype.names)
    starts = np.flatnonzero(index == 0)
    ends = np.append(starts[1:], n)
    ids = [records[i].partition("\t")[0] for i in starts.tolist()]
    # one index per record line, so a table short of the empty lines loadtxt skips fails
    if (not starts.size or starts[0] or len(set(ids)) < len(ids) or not all(map(_is_id, ids))
            or not np.array_equal(index, np.arange(n) - np.repeat(starts, ends - starts))
            or any((v < 0).any() if v.dtype.kind == "i" else not np.isfinite(v).all()
                   for v in values)
            # "\n" starts each line of a run: count the lines that carry its id
            or any(("\n" + "\n".join(records[i:j])).count(f"\n{key}\t") != j - i
                   for key, i, j in zip(ids, starts.tolist(), ends.tolist()))):
        return None
    return meta, ids, [np.split(v, starts[1:]) for v in values]


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

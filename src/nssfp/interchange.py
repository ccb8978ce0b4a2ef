"""Line-delimited interchange formats.

The NSS format carries one nucleus size per prefix:

    #nss v1 model=<id> q=<float>
    <seq_id> TAB <position> TAB n=<int>

Sibling formats use the same shape: ``#seq v1`` persists token-id
sequences with their session boundaries, and ``#pairdist v1`` carries the
pairwise distance samples the fitting stage consumes.
"""

import numpy as np

from .errors import ParseError, UsageError, ValidationError, parse_field
from .fingerprint import Nss
from .model import Sequence

NSS_HEADER = "#nss v1"
SEQ_HEADER = "#seq v1"
DIST_HEADER = "#pairdist v1"


def _parse_header(line: str, expected: str, path, lineno: int) -> dict:
    if not line.startswith(expected):
        raise ParseError(f"expected {expected!r} header", path=str(path), line=lineno)
    meta = {}
    for part in line[len(expected):].split():
        key, eq, value = part.partition("=")
        if not eq:
            raise ParseError(f"malformed header field {part!r}", path=str(path), line=lineno)
        meta[key] = value
    return meta


# --- NSS --------------------------------------------------------------------

def write_nss(path, nss_list: list[Nss], header_lines=()):
    if not nss_list:
        raise UsageError("nothing to write")
    q = nss_list[0].q
    model_id = nss_list[0].model_id
    if any(x.q != q or x.model_id != model_id for x in nss_list):
        raise UsageError("all NSS in one file must share q and model id")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{NSS_HEADER} model={model_id} q={q!r}\n")
        for line in header_lines:
            fh.write(f"# {line}\n")
        for x in nss_list:
            for pos, size in enumerate(x.sizes):
                fh.write(f"{x.seq_id}\t{pos}\tn={int(size)}\n")


def read_nss(path) -> tuple[list[Nss], dict]:
    """Assemble full series from an NSS file in one pass.

    Records may arrive in any order; positions of each sequence must form
    a dense 0..len-1 range. A file without records is malformed.
    """
    acc: dict[str, dict[int, int]] = {}  # in order of first appearance
    with open(path, encoding="utf-8") as fh:
        meta = _parse_header(fh.readline().rstrip("\n"), NSS_HEADER, path, 1)
        for lineno, line in enumerate(fh, start=2):
            line = line.rstrip("\n")
            if not line or line.startswith("#"):
                continue
            parts = line.split("\t")
            if len(parts) != 3:
                raise ParseError("expected seq_id<TAB>position<TAB>payload",
                                 path=str(path), line=lineno)
            seq_id, pos_str, payload = parts
            position = parse_field(int, pos_str, "position", path, lineno)
            if not payload.startswith("n="):
                raise ParseError(f"unknown payload {payload!r}", path=str(path), line=lineno)
            size = parse_field(int, payload[2:], "nucleus size", path, lineno)
            if size < 0:
                raise ValidationError(f"{path}:{lineno}: negative nucleus size")
            acc.setdefault(seq_id, {})[position] = size
    if not acc:
        raise ParseError("no nucleus size records", path=str(path), line=1)
    q = parse_field(float, meta.get("q", "nan"), "q", path, 1)
    model_id = meta.get("model", "")
    out = []
    for seq_id, positions in acc.items():
        n = len(positions)
        if sorted(positions) != list(range(n)):
            raise ValidationError(f"{path}: positions of {seq_id!r} are not dense 0..{n - 1}")
        sizes = np.array([positions[i] for i in range(n)], dtype=np.int64)
        out.append(Nss(seq_id=seq_id, q=q, model_id=model_id, sizes=sizes))
    return out, meta


# --- sequences --------------------------------------------------------------

def write_sequences(path, sequences: list[Sequence], vocab_size: int):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{SEQ_HEADER} vocab_size={vocab_size}\n")
        for seq in sequences:
            bounds = ",".join(str(b) for b in seq.boundaries)
            words = ",".join(str(int(w)) for w in seq.words)
            fh.write(f"{seq.id}\t{bounds}\t{words}\n")


def read_sequences(path) -> tuple[list[Sequence], int]:
    sequences = []
    vocab_size = 0
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            if lineno == 1:
                meta = _parse_header(line, SEQ_HEADER, path, lineno)
                vocab_size = parse_field(int, meta.get("vocab_size", "0"), "vocab_size",
                                         path, lineno)
                continue
            if line.startswith("#"):
                continue
            parts = line.split("\t")
            if len(parts) != 3:
                raise ParseError("expected seq_id<TAB>boundaries<TAB>words",
                                 path=str(path), line=lineno)
            try:
                bounds = tuple(int(b) for b in parts[1].split(","))
                words = np.array([int(w) for w in parts[2].split(",")], dtype=np.int64)
            except ValueError as exc:
                raise ParseError(str(exc), path=str(path), line=lineno) from exc
            sequences.append(Sequence(id=parts[0], words=words, boundaries=bounds))
    return sequences, vocab_size


# --- pairwise distances -----------------------------------------------------

def write_distances(path, records, length: int, header_lines=()):
    """records: iterable of (x_id, y_id, distance)."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{DIST_HEADER} length={length}\n")
        for line in header_lines:
            fh.write(f"# {line}\n")
        for x_id, y_id, d in records:
            fh.write(f"{x_id},{y_id},{d!r}\n")


def read_distances(path) -> tuple[list[tuple[str, str, float]], int]:
    records = []
    length = 0
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            if lineno == 1:
                meta = _parse_header(line, DIST_HEADER, path, lineno)
                length = parse_field(int, meta.get("length", "0"), "length", path, lineno)
                continue
            if line.startswith("#"):
                continue
            try:
                x_id, y_id, d = line.rsplit(",", 2)
            except ValueError as exc:
                raise ParseError("expected x_id,y_id,distance",
                                 path=str(path), line=lineno) from exc
            records.append((x_id, y_id, parse_field(float, d, "distance", path, lineno)))
    return records, length

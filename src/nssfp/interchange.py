"""Line-delimited interchange formats.

The NSS/distribution format is the seam between this pipeline and any
real language model: an external generator can dump per-prefix nucleus
sizes (``n=`` payloads) or full descending probability vectors (``p=``
payloads) and every downstream stage works unchanged.

    #nss v1 model=<id> q=<float>
    <seq_id> TAB <position> TAB n=<int> | p=<p1,p2,...>

Sibling formats use the same shape: ``#seq v1`` persists token-id
sequences with their session boundaries, and ``#pairdist v1`` carries the
pairwise distance samples the fitting stage consumes.
"""

import numpy as np

from .errors import ParseError, UsageError, ValidationError, parse_field
from .fingerprint import Nss
from .model import Distribution, Sequence

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


# --- NSS / distributions ----------------------------------------------------

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


def ingest_distributions(path):
    """Yield (seq_id, position, payload) records in file order.

    The payload is an int nucleus size for ``n=`` records or a
    :class:`Distribution` for ``p=`` records; each record is validated as
    it is read.
    """
    with open(path, encoding="utf-8") as fh:
        header_seen = False
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            if not header_seen:
                _parse_header(line, NSS_HEADER, path, lineno)
                header_seen = True
                continue
            if line.startswith("#"):
                continue
            parts = line.split("\t")
            if len(parts) != 3:
                raise ParseError("expected seq_id<TAB>position<TAB>payload",
                                 path=str(path), line=lineno)
            seq_id, pos_str, payload = parts
            position = parse_field(int, pos_str, "position", path, lineno)
            if payload.startswith("n="):
                size = parse_field(int, payload[2:], "nucleus size", path, lineno)
                if size < 0:
                    raise ValidationError(f"{path}:{lineno}: negative nucleus size")
                yield seq_id, position, size
            elif payload.startswith("p="):
                try:
                    probs = np.array([float(v) for v in payload[2:].split(",")])
                except ValueError as exc:
                    raise ParseError(f"bad probability list {payload!r}",
                                     path=str(path), line=lineno) from exc
                if np.any(np.diff(probs) > 0):
                    raise ValidationError(
                        f"{path}:{lineno}: probabilities must be in descending order")
                dist = Distribution.from_probs(probs)
                yield seq_id, position, dist
            else:
                raise ParseError(f"unknown payload {payload!r}", path=str(path), line=lineno)


def read_nss(path) -> tuple[list[Nss], dict]:
    """Assemble full series from an ``n=`` interchange file.

    Records may arrive in any order; positions of each sequence must form
    a dense 0..len-1 range.
    """
    meta: dict = {}
    with open(path, encoding="utf-8") as fh:
        first = fh.readline().rstrip("\n")
        meta = _parse_header(first, NSS_HEADER, path, 1)
    q = float(meta.get("q", "nan"))
    model_id = meta.get("model", "")
    acc: dict[str, dict[int, int]] = {}
    order: list[str] = []
    for seq_id, position, payload in ingest_distributions(path):
        if not isinstance(payload, int):
            raise ValidationError(
                f"{path}: record for {seq_id!r}@{position} is a distribution; "
                "full series files must use n= payloads")
        if seq_id not in acc:
            acc[seq_id] = {}
            order.append(seq_id)
        acc[seq_id][position] = payload
    out = []
    for seq_id in order:
        positions = acc[seq_id]
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

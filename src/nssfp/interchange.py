"""Line-delimited interchange formats.

The NSS format carries one nucleus size per prefix:

    #nss v1 model=<id> q=<float>
    <seq_id> TAB <position> TAB n=<int>

Sibling formats use the same shape: ``#seq v1`` persists token-id
sequences with their session boundaries, and ``#pairdist v1`` carries the
pairwise distance samples the fitting stage consumes.
"""

import numpy as np

from .errors import (ParseError, UsageError, ValidationError, dense_series, parse_field,
                     read_records, write_records)
from .fingerprint import Nss
from .model import Sequence

NSS_HEADER = "#nss v1"
SEQ_HEADER = "#seq v1"
DIST_HEADER = "#pairdist v1"


# --- NSS --------------------------------------------------------------------

def write_nss(path, nss_list: list[Nss], header_lines=()):
    if not nss_list:
        raise UsageError("nothing to write")
    q, model_id = nss_list[0].q, nss_list[0].model_id
    if any(x.q != q or x.model_id != model_id for x in nss_list):
        raise UsageError("all NSS in one file must share q and model id")
    write_records(path, (f"{x.seq_id}\t{pos}\tn={size}" for x in nss_list
                         for pos, size in enumerate(x.sizes.tolist())),
                  f"{NSS_HEADER} model={model_id} q={q!r}", header_lines)


def read_nss(path) -> tuple[list[Nss], dict]:
    """Assemble full series from an NSS file in one pass.

    Records may arrive in any order; the positions of each sequence must
    cover 0..len-1 exactly once (:func:`~nssfp.errors.dense_series`). A file
    without records is malformed.
    """
    records = read_records(path, ("seq_id", "position", "payload"), "\t", NSS_HEADER,
                           {"model": str, "q": float})
    meta = next(records)
    rows: dict[str, list] = {}
    for lineno, (seq_id, pos_str, payload) in records:
        position = parse_field(int, pos_str, "position", path, lineno)
        if not payload.startswith("n="):
            raise ParseError(f"unknown payload {payload!r}", path=str(path), line=lineno)
        size = parse_field(int, payload[2:], "nucleus size", path, lineno)
        if size < 0:
            raise ValidationError(f"{path}:{lineno}: negative nucleus size")
        if size >= 2**63:
            raise ParseError("nucleus size out of the int64 range", path=str(path),
                             line=lineno)
        rows.setdefault(seq_id, []).append((position, lineno, size))
    if not rows:
        raise ParseError("no nucleus size records", path=str(path), line=1)
    return [Nss(seq_id, meta["q"], meta["model"], np.array(sizes, dtype=np.int64))
            for seq_id, sizes in dense_series(path, rows, "position")], meta


# --- sequences --------------------------------------------------------------

def write_sequences(path, sequences: list[Sequence], vocab_size: int):
    write_records(path, (f"{s.id}\t{','.join(map(str, s.boundaries))}\t"
                         f"{','.join(map(str, s.words.tolist()))}" for s in sequences),
                  f"{SEQ_HEADER} vocab_size={vocab_size}")


def read_sequences(path) -> tuple[list[Sequence], int]:
    records = read_records(path, ("seq_id", "boundaries", "words"), "\t", SEQ_HEADER,
                           {"vocab_size": int})
    vocab_size = next(records)["vocab_size"]
    sequences: dict[str, Sequence] = {}
    for lineno, (seq_id, bounds_text, words_text) in records:
        if seq_id in sequences:
            raise ParseError(f"sequence {seq_id!r} repeats", path=str(path), line=lineno)
        try:
            bounds = tuple(int(b) for b in bounds_text.split(","))
            words = np.array([int(w) for w in words_text.split(",")], dtype=np.int64)
        except (ValueError, OverflowError) as exc:
            raise ParseError(str(exc), path=str(path), line=lineno) from exc
        sequences[seq_id] = Sequence(id=seq_id, words=words, boundaries=bounds)
    return list(sequences.values()), vocab_size


# --- pairwise distances -----------------------------------------------------

def write_distances(path, records, length: int, header_lines=()):
    """records: iterable of (x_id, y_id, distance)."""
    write_records(path, (f"{x_id},{y_id},{d!r}" for x_id, y_id, d in records),
                  f"{DIST_HEADER} length={length}", header_lines)


def read_distances(path) -> tuple[list[tuple[str, str, float]], int]:
    records = read_records(path, ("x_id", "y_id", "distance"), ",", DIST_HEADER,
                           {"length": int})
    length = next(records)["length"]
    out = []
    for lineno, (x_id, y_id, text) in records:
        d = parse_field(float, text, "distance", path, lineno)
        if not 0.0 < d < np.inf:
            raise ParseError(f"distance {d!r} is not finite and positive", path=str(path),
                             line=lineno)
        out.append((x_id, y_id, d))
    return out, length

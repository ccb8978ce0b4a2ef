"""Line-delimited interchange formats.

The NSS format carries one nucleus size per prefix:

    #nss v1 model=<id> q=<float>
    <seq_id> TAB <position> TAB n=<int>

Sibling formats use the same shape: ``#seq v1`` persists token-id
sequences with their session boundaries, and ``#pairdist v1`` carries the
pairwise distance samples the fitting stage consumes.

NSS files are read by :func:`~nssfp.errors.read_series`, which parses
canonical ones in bulk and any other with the record loop.
"""

import numpy as np

from .errors import (ParseError, UsageError, ValidationError, parse_field, read_records,
                     read_series, write_records)
from .fingerprint import Nss
from .model import Sequence

NSS_HEADER = "#nss v1"
SEQ_HEADER = "#seq v1"
DIST_HEADER = "#pairdist v1"
NSS_TYPES = {"model": str, "q": float}
NSS_FIELDS = (("position", np.int64), ("nucleus size", np.int64))


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
    """Assemble full series from an NSS file (:func:`~nssfp.errors.read_series`).

    Records may arrive in any order; the positions of each sequence must
    cover 0..len-1 exactly once. A file without records is malformed.
    """
    meta, ids, (sizes,) = read_series(path, NSS_HEADER, NSS_TYPES, NSS_FIELDS, "n=")
    if not ids:
        raise ParseError("no nucleus size records", path=str(path), line=1)
    return [Nss(seq_id, meta["q"], meta["model"], s) for seq_id, s in zip(ids, sizes)], meta


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
            sequences[seq_id] = Sequence(
                id=seq_id, boundaries=tuple(int(b) for b in bounds_text.split(",")),
                words=np.array([int(w) for w in words_text.split(",")], dtype=np.int64))
        except (ValueError, OverflowError, ValidationError) as exc:
            raise ParseError(str(exc), path=str(path), line=lineno) from exc
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

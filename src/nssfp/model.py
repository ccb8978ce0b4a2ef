"""Next-word probability models.

The pipeline never talks to a neural network. Distributions come from an
interpolated n-gram model trained on a corpus; downstream stages see only
the nucleus sizes it yields (see :mod:`nssfp.interchange`).
"""

import hashlib
import json
import re
from dataclasses import dataclass, field

import numpy as np

from .errors import (ConfigurationError, NssfpError, ParseError, UsageError, ValidationError,
                     check_id)

_TOKEN_RE = re.compile(r"[\w']+|[^\w\s]")

DEFAULT_ORDER = 3
DEFAULT_WEIGHTS = (0.1, 0.3, 0.6)
#: The largest ``--vocab-size`` that ``synth``, ``bench`` and ``simulate`` take, 2**20:
#: four times the largest tokenizer vocabulary in use (256,000 tokens). A float
#: array of that size is 8 MiB, and a simulated step runs at most 2**20 iterations.
MAX_VOCAB_SIZE = 1 << 20


def check_vocab_size(vocab_size: int):
    """A usage error unless ``1 <= vocab_size <= MAX_VOCAB_SIZE``."""
    if not 1 <= vocab_size <= MAX_VOCAB_SIZE:
        raise UsageError(f"vocab_size must be in 1..{MAX_VOCAB_SIZE}, got {vocab_size}")


def tokenize(text: str) -> list[str]:
    """Lowercase and split into word tokens; punctuation becomes standalone tokens."""
    return _TOKEN_RE.findall(text.lower())


@dataclass(frozen=True)
class Vocabulary:
    """Dense word-id mapping; ``index`` is built so that ``tokens[index[w]] == w``."""

    tokens: tuple[str, ...]
    index: dict[str, int] = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "index", {w: i for i, w in enumerate(self.tokens)})
        if len(self.tokens) < 2:
            raise ValidationError("vocabulary needs at least 2 tokens")
        if len(self.index) != len(self.tokens):
            raise ValidationError("vocabulary contains duplicate tokens")

    @classmethod
    def from_tokens(cls, tokens) -> "Vocabulary":
        """Build from any iterable of word strings; ids follow sorted order."""
        return cls(tokens=tuple(sorted(set(tokens))))

    def __len__(self) -> int:
        return len(self.tokens)

    def encode(self, words) -> np.ndarray:
        try:
            return np.array([self.index[w] for w in words], dtype=np.int64)
        except KeyError as exc:
            raise ValidationError(f"unknown token {exc.args[0]!r}") from exc


@dataclass(frozen=True)
class Sequence:
    """A word-id sequence with session boundaries.

    ``boundaries`` marks indices where a new post/session starts; sampling
    context is reset there. Index 0 is always a boundary.
    """

    id: str
    words: np.ndarray
    boundaries: tuple[int, ...] = (0,)

    def __post_init__(self):
        check_id(self.id, "sequence")
        words = np.asarray(self.words, dtype=np.int64)
        object.__setattr__(self, "words", words)
        if words.size == 0:
            raise ValidationError(f"sequence {self.id!r} is empty")
        b = self.boundaries
        if not b or b[0] != 0:
            raise ValidationError("boundaries must start with 0")
        if any(b[i] >= b[i + 1] for i in range(len(b) - 1)):
            raise ValidationError("boundaries must be strictly increasing")
        if b[-1] >= words.size:
            raise ValidationError("boundary index out of range")

    def __len__(self) -> int:
        return int(self.words.size)

    def truncated(self, length: int) -> "Sequence":
        """Keep positions 0..length-1 (front-truncation keeps early posts)."""
        if length >= len(self):
            return self
        keep = tuple(b for b in self.boundaries if b < length)
        return Sequence(id=self.id, words=self.words[:length], boundaries=keep)


def softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max()
    e = np.exp(z)
    e /= e.sum()
    return e


def _context_codes(words: np.ndarray, starts, length: int, base: int) -> np.ndarray:
    """Code of the up to ``length`` words before each position since its
    session start; ``starts`` ascend from 0.

    A context's code holds its words + 1 as digits in ``base``, the latest
    word lowest, so the last j words of a context are its code modulo
    ``base ** j``, and a code of j words is at least ``base ** (j - 1)``.
    """
    mark = np.zeros(words.size, dtype=np.int64)
    mark[np.asarray(starts, dtype=np.int64)] = starts
    since = np.arange(words.size) - np.maximum.accumulate(mark)
    code = np.zeros(words.size, dtype=np.int64)
    for j in range(1, length + 1):
        code += np.where(since >= j, (np.roll(words, j) + 1) * base ** (j - 1), 0)
    return code


def _place_values(length: int, base: int) -> np.ndarray:
    """What each word of a ``length``-word context counts in its code, oldest first."""
    return base ** np.arange(length - 1, -1, -1, dtype=np.int64)


@dataclass(frozen=True, eq=False)
class NgramTable:
    """The n-gram counts of one order as sorted arrays.

    Row r is the context with code ``keys[r]`` (keys ascend); its successor
    ids, ascending, are ``ids[offsets[r]:offsets[r + 1]]`` and their counts
    sit at the same positions. ``len()`` is the number of contexts.
    """

    keys: np.ndarray
    offsets: np.ndarray
    ids: np.ndarray
    counts: np.ndarray

    @classmethod
    def build(cls, keys: np.ndarray, ids: np.ndarray, counts: np.ndarray) -> "NgramTable":
        """Table of (context code, successor id, count) entries; the counts of
        a repeated pair add up."""
        order = np.lexsort((ids, keys))
        keys, ids, counts = keys[order], ids[order], counts[order]
        first = np.flatnonzero((np.diff(keys, prepend=-1) != 0) | (np.diff(ids, prepend=-1) != 0))
        if first.size:
            counts = np.add.reduceat(counts, first)
        keys, ids = keys[first], ids[first]
        rows = np.flatnonzero(np.diff(keys, prepend=-1))
        return cls(keys[rows], np.append(rows, ids.size), ids, counts)

    def __len__(self) -> int:
        return int(self.keys.size)

    def find(self, codes: np.ndarray) -> np.ndarray:
        """Row of each context code, -1 where the table lacks it."""
        at = np.searchsorted(self.keys, codes)
        return np.where(np.append(self.keys, -1)[at] == codes, at, -1)


class NgramModel:
    """Interpolated n-gram model with an add-one floor at the unigram level.

    The conditional distribution for a context is a convex mix of the
    unigram, bigram, ... tables, with the weights of unavailable orders
    (context too short, or never seen in training) redistributed over the
    available ones. The unigram table is add-one smoothed, so every
    context yields a fully supported, normalized distribution.

    Contexts are looked up by integer code (see :meth:`context_codes`).
    Immutable after construction; safe to share across threads.
    """

    def __init__(self, order, weights, vocabulary, tables, unigram_counts, model_id):
        self.order = order
        self.weights = tuple(float(w) for w in weights)
        self.vocabulary = vocabulary
        # tables[k] is the NgramTable of the (k-1)-word contexts, k = 2..order
        self.tables = tables
        self.unigram_counts = unigram_counts
        self.model_id = model_id
        v = len(vocabulary)
        self.base = v + 1
        self.unigram_probs = (unigram_counts + 1.0) / (unigram_counts.sum() + v)
        # add-one smoothing leaves few distinct unigram probabilities: keep
        # them ascending, with each id's level and each level's size, so that
        # nucleus sizes can be computed without a dense sort per context
        self.unigram_levels, self.unigram_level_of, self.unigram_level_sizes = np.unique(
            self.unigram_probs, return_inverse=True, return_counts=True)

    @property
    def vocab_size(self) -> int:
        return len(self.vocabulary)

    def context_codes(self, sequence: Sequence) -> np.ndarray:
        """Code of each position's context, the prefix words since the last session
        boundary, in one pass (encoding: :func:`_context_codes`; per-position oracles:
        ``context_at`` and ``context_code`` in ``tests/oracles.py``)."""
        return _context_codes(sequence.words, sequence.boundaries, self.order - 1, self.base)

    def mixture(self, codes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Normalized interpolation coefficients of many contexts, and their rows.

        ``coefs[b, k - 1]`` weights order k for context ``codes[b]``: order 1
        is the unigram table, order k > 1 row ``rows[b, k - 1]`` of
        ``tables[k]``. The coefficient is 0 where the order carries no
        weight or its table lacks the context (row -1); all of a context's
        coefficients are 0 when no available order carries weight.
        """
        weight = np.zeros((codes.size, self.order))
        rows = np.full((codes.size, self.order), -1, dtype=np.int64)
        for k, w in enumerate(self.weights, start=1):
            if w == 0.0:
                continue
            if k == 1:
                weight[:, 0] = w
                continue
            rows[:, k - 1] = self.tables[k].find(codes % self.base ** (k - 1))
            weight[:, k - 1] = np.where(rows[:, k - 1] >= 0, w, 0.0)
        wsum = sum(weight.T)  # lowest order first, one addition at a time
        coefs = np.divide(weight, wsum[:, None], out=np.zeros_like(weight),
                          where=wsum[:, None] > 0.0)
        return coefs, rows

    def context_probs(self, code: int) -> np.ndarray:
        """Interpolated probability vector for a context code (the dense oracle)."""
        coefs, rows = self.mixture(np.array([code], dtype=np.int64))
        if not coefs.any():
            # nothing available carries weight; fall back to the unigram floor
            return self.unigram_probs.copy()
        probs = np.zeros(self.vocab_size)
        probs += coefs[0, 0] * self.unigram_probs
        for k in range(2, self.order + 1):
            if coefs[0, k - 1] > 0.0:
                t, r = self.tables[k], rows[0, k - 1]
                ids, counts = (a[t.offsets[r]:t.offsets[r + 1]] for a in (t.ids, t.counts))
                probs[ids] += coefs[0, k - 1] * (counts / counts.sum())
        return probs


def _check_config(order, weights: tuple[float, ...], vocab_size: int):
    """The order, weights and vocabulary size a model can be built with."""
    if not 1 <= order <= 5:
        raise ConfigurationError(f"order must be in [1, 5], got {order}")
    if len(weights) != order:
        raise ConfigurationError(f"need {order} interpolation weights, got {len(weights)}")
    if not all(w >= 0 for w in weights):
        raise ConfigurationError("interpolation weights must be non-negative")
    if not abs(sum(weights) - 1.0) <= 1e-9:
        raise ConfigurationError(f"interpolation weights sum to {sum(weights)}, not 1")
    if (vocab_size + 1) ** (order - 1) > np.iinfo(np.int64).max:
        raise ConfigurationError(
            f"order {order} over a vocabulary of {vocab_size} needs {vocab_size + 1}^"
            f"{order - 1} context codes, beyond the int64 bound 2^63-1")


def train_model(corpus: list[Sequence], order: int = DEFAULT_ORDER, weights=DEFAULT_WEIGHTS,
                *, vocabulary: Vocabulary) -> NgramModel:
    """Count n-grams over the corpus, whose word ids index ``vocabulary``.

    N-grams never cross session boundaries, matching the reset semantics of
    :meth:`NgramModel.context_codes` (oracle: ``context_at`` in
    ``tests/oracles.py``). The model id is a content hash of the corpus
    and the training configuration.
    """
    if not corpus:
        raise ConfigurationError("training corpus is empty")
    weights = tuple(float(w) for w in weights)
    vocab_size = len(vocabulary)
    _check_config(order, weights, vocab_size)

    hasher = hashlib.sha256()
    hasher.update(f"order={order} weights={weights!r} vocab={vocab_size}".encode())
    starts, offset = [], 0
    for seq in corpus:
        if int(seq.words.max()) >= vocab_size or int(seq.words.min()) < 0:
            raise ValidationError(f"sequence {seq.id!r} has token ids outside the vocabulary")
        hasher.update(seq.id.encode())
        hasher.update(np.ascontiguousarray(seq.words).tobytes())
        hasher.update(repr(seq.boundaries).encode())
        starts.extend(offset + b for b in seq.boundaries)
        offset += len(seq)
    words = np.concatenate([seq.words for seq in corpus])
    base = vocab_size + 1
    tables = {}
    for k in range(2, order + 1):
        codes = _context_codes(words, starts, k - 1, base)
        at = np.flatnonzero(codes >= base ** (k - 2))  # a full k-1 words since the start
        tables[k] = NgramTable.build(codes[at], words[at], np.ones(at.size))

    model_id = hasher.hexdigest()[:16]
    unigram = np.bincount(words, minlength=vocab_size)
    return NgramModel(order, weights, vocabulary, tables, unigram, model_id)


def save_model(path, model: NgramModel):
    """Serialize to sorted-key JSON, ``format`` ``ngram v2``, so identical models
    give identical bytes. Each order's table is four flat integer arrays in the
    table's own order: ``contexts`` (each context's words, oldest first, contexts
    ascending by code), ``successors`` (how many each has), ``ids`` (ascending
    within a context) and ``counts``.
    """
    tables = {}
    for k, table in model.tables.items():
        words = table.keys[:, None] // _place_values(k - 1, model.base) % model.base - 1
        tables[str(k)] = {"contexts": words.ravel().tolist(),
                          "successors": np.diff(table.offsets).tolist(),
                          "ids": table.ids.tolist(),
                          "counts": table.counts.astype(np.int64).tolist()}
    payload = {
        "format": "ngram v2",
        "order": model.order,
        "weights": list(model.weights),
        "model_id": model.model_id,
        "tokens": list(model.vocabulary.tokens),
        "unigram_counts": model.unigram_counts.tolist(),
        "tables": tables,
    }
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(payload, sort_keys=True, separators=(",", ":")))


# what a malformed value raises, turned into "malformed model file"
_MALFORMED = (KeyError, TypeError, ValueError, AttributeError, OverflowError, NssfpError)


def load_model(path) -> NgramModel:
    """Read a model that :func:`save_model` wrote, checking every value. The
    ``ngram v1`` files of earlier versions are refused: rerun ``train``."""
    try:
        with open(path, encoding="utf-8") as fh:
            payload = json.loads(fh.read())
    except ValueError as exc:  # UnicodeDecodeError, JSONDecodeError
        raise ParseError(f"not a JSON model file ({exc})", path=str(path),
                         line=getattr(exc, "lineno", 1)) from None
    if isinstance(payload, dict) and payload.get("format") == "ngram v1":
        raise ValidationError(f"{path}: the ngram v1 model format is retired; "
                              "rerun nssfp train to write this model again")
    if not isinstance(payload, dict) or payload.get("format") != "ngram v2":
        raise ValidationError(f"{path} is not a model file")
    try:
        vocab = Vocabulary(tokens=tuple(payload["tokens"]))
        v, order = len(vocab), payload["order"]
        if type(order) is not int:
            raise ValueError(f"order {order!r} is not an integer")
        weights = tuple(float(w) for w in payload["weights"])
        _check_config(order, weights, v)
        unigram = payload["unigram_counts"]
        if (type(unigram) is not list or len(unigram) != v
                or not set(map(type, unigram)) <= {int} or min(unigram) < 0):
            raise ValueError(f"unigram_counts is not {v} non-negative integers")
        model_id = payload["model_id"]
        # an NSS file's header carries it as one word
        if type(model_id) is not str or model_id.split() != [model_id]:
            raise ValueError(f"model_id {model_id!r} is not a non-empty string without "
                             "whitespace")
        tables, orders = payload["tables"], {str(k) for k in range(2, order + 1)}
        if type(tables) is not dict or set(tables) != orders:
            raise ValueError(f"tables does not hold exactly the orders 2..{order}")
        tables = {k: _array_table(tables[str(k)], k, v) for k in range(2, order + 1)}
        return NgramModel(order=order, weights=weights, vocabulary=vocab, tables=tables,
                          model_id=model_id,
                          unigram_counts=np.array(unigram, dtype=np.int64))
    except _MALFORMED as exc:
        raise ValidationError(f"{path}: malformed model file "
                              f"({type(exc).__name__}: {exc})") from None


_ARRAYS = ("contexts", "successors", "ids", "counts")


def _array_table(arrays: dict, k: int, v: int) -> NgramTable:
    """The ``NgramTable`` of one order's ``ngram v2`` arrays; ValueError unless
    they hold integers only, agree in length, lie in range and ascend."""
    if type(arrays) is not dict or set(arrays) != set(_ARRAYS):
        raise ValueError(f"table {k} does not hold exactly the arrays {', '.join(_ARRAYS)}")
    lists = [arrays[name] for name in _ARRAYS]
    if not all(type(a) is list and set(map(type, a)) <= {int} for a in lists):
        raise ValueError(f"an array of table {k} is not a list of integers")
    words, lens, ids, counts = (np.array(a, dtype=np.int64) for a in lists)
    if not (words.size == (k - 1) * lens.size and sum(lists[1]) == ids.size == counts.size):
        raise ValueError(f"the array lengths of table {k} disagree")
    if not (np.all((words >= 0) & (words < v)) and np.all((ids >= 0) & (ids < v))):
        raise ValueError(f"a context word or successor id of table {k} is outside [0, {v})")
    if not (np.all(lens >= 1) and np.all(counts >= 1)):
        raise ValueError(f"a context of table {k} has a count below 1 or no successor")
    keys = (words.reshape(-1, k - 1) + 1) @ _place_values(k - 1, v + 1)
    offsets = np.append(0, np.cumsum(lens))
    rising = np.diff(ids) > 0
    rising[offsets[1:-1] - 1] = True  # a context's first id follows another context's
    if not (np.all(np.diff(keys) > 0) and rising.all()):
        raise ValueError(f"the contexts or successor ids of table {k} do not strictly ascend")
    return NgramTable(keys, offsets, ids, counts.astype(np.float64))

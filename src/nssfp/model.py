"""Next-word probability models.

The pipeline never talks to a neural network. Distributions come from an
interpolated n-gram model trained on a corpus; downstream stages see only
the nucleus sizes it yields (see :mod:`nssfp.interchange`).
"""

import hashlib
import re
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, UsageError, ValidationError

_TOKEN_RE = re.compile(r"[\w']+|[^\w\s]")

DEFAULT_ORDER = 3
DEFAULT_WEIGHTS = (0.1, 0.3, 0.6)


def tokenize(text: str) -> list[str]:
    """Lowercase and split into word tokens; punctuation becomes standalone tokens."""
    return _TOKEN_RE.findall(text.lower())


@dataclass(frozen=True)
class Vocabulary:
    """Dense word-id mapping. ``tokens[index[w]] == w`` for every word."""

    tokens: tuple[str, ...]
    index: dict[str, int] = field(repr=False)

    def __post_init__(self):
        if len(self.tokens) < 2:
            raise ValidationError("vocabulary needs at least 2 tokens")
        if len(self.index) != len(self.tokens):
            raise ValidationError("vocabulary contains duplicate tokens")

    @classmethod
    def from_tokens(cls, tokens) -> "Vocabulary":
        """Build from any iterable of word strings; ids follow sorted order."""
        uniq = tuple(sorted(set(tokens)))
        return cls(tokens=uniq, index={w: i for i, w in enumerate(uniq)})

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
    return e / e.sum()


class NgramModel:
    """Interpolated n-gram model with an add-one floor at the unigram level.

    The conditional distribution for a context is a convex mix of the
    unigram, bigram, ... tables, with the weights of unavailable orders
    (context too short, or never seen in training) redistributed over the
    available ones. The unigram table is add-one smoothed, so every
    context yields a fully supported, normalized distribution.

    Immutable after construction; safe to share across threads.
    """

    def __init__(self, order, weights, vocabulary, tables, unigram_counts, model_id):
        self.order = order
        self.weights = tuple(float(w) for w in weights)
        self.vocabulary = vocabulary
        # tables[k] maps a (k-1)-word context tuple -> (successor ids, counts)
        self.tables = tables
        self.unigram_counts = unigram_counts
        self.model_id = model_id
        v = len(vocabulary)
        self.unigram_probs = (unigram_counts + 1.0) / (unigram_counts.sum() + v)
        # add-one smoothing leaves few distinct unigram probabilities: keep
        # them ascending, with each id's level and each level's size, so that
        # nucleus sizes can be computed without a dense sort per context
        self.unigram_levels, self.unigram_level_of, self.unigram_level_sizes = np.unique(
            self.unigram_probs, return_inverse=True, return_counts=True)

    @property
    def vocab_size(self) -> int:
        return len(self.vocabulary)

    def context_at(self, sequence: Sequence, position: int) -> tuple[int, ...]:
        """Conditioning context: prefix words since the last session boundary.

        At a boundary the context is empty, so the model is re-initialized.
        The per-position reference for :meth:`contexts`.
        """
        if position < 0 or position > len(sequence):
            raise UsageError(f"position {position} out of range [0, {len(sequence)}]")
        last = 0
        for b in sequence.boundaries:
            if b <= position:
                last = b
            else:
                break
        span = min(self.order - 1, position - last)
        return tuple(int(w) for w in sequence.words[position - span:position])

    def contexts(self, sequence: Sequence) -> list[tuple[int, ...]]:
        """``context_at`` for every position of the sequence, in one pass."""
        words = sequence.words.tolist()
        stops = list(sequence.boundaries[1:]) + [len(words)]
        out = []
        for start, stop in zip(sequence.boundaries, stops):
            for t in range(start, stop):
                out.append(tuple(words[max(start, t - self.order + 1):t]))
        return out

    def mixture(self, ctx: tuple[int, ...]) -> list[tuple[float, tuple | None]] | None:
        """Normalized components of a context's distribution, lowest order first.

        Each component is (coefficient, entry): entry None stands for the
        unigram table, otherwise it is the (successor ids, counts) table
        entry. Returns None when no available order carries weight.
        """
        parts = []  # (weight, entry)
        for k in range(1, self.order + 1):
            w = self.weights[k - 1]
            if w == 0.0:
                continue
            if k == 1:
                parts.append((w, None))
                continue
            if len(ctx) < k - 1:
                continue
            entry = self.tables[k].get(ctx[len(ctx) - (k - 1):])
            if entry is not None:
                parts.append((w, entry))
        wsum = sum(w for w, _ in parts)
        if wsum == 0.0:
            return None
        return [(w / wsum, entry) for w, entry in parts]

    def context_probs(self, ctx: tuple[int, ...]) -> np.ndarray:
        """Interpolated probability vector for a context tuple."""
        parts = self.mixture(ctx)
        if parts is None:
            # nothing available carries weight; fall back to the unigram floor
            return self.unigram_probs.copy()
        probs = np.zeros(self.vocab_size)
        for c, entry in parts:
            if entry is None:
                probs += c * self.unigram_probs
            else:
                ids, counts = entry
                probs[ids] += c * (counts / counts.sum())
        return probs


def train_model(corpus: list[Sequence], order: int = DEFAULT_ORDER,
                weights=DEFAULT_WEIGHTS, vocabulary: Vocabulary | None = None) -> NgramModel:
    """Count n-grams over the corpus and return a deterministic model.

    N-grams never cross session boundaries, matching the reset semantics of
    :meth:`NgramModel.context_at`. The model id is a content hash of the corpus
    and the training configuration.
    """
    if not corpus:
        raise ConfigurationError("training corpus is empty")
    if not 1 <= order <= 5:
        raise ConfigurationError(f"order must be in [1, 5], got {order}")
    weights = tuple(float(w) for w in weights)
    if len(weights) != order:
        raise ConfigurationError(f"need {order} interpolation weights, got {len(weights)}")
    if any(w < 0 for w in weights):
        raise ConfigurationError("interpolation weights must be non-negative")
    if abs(sum(weights) - 1.0) > 1e-9:
        raise ConfigurationError(f"interpolation weights sum to {sum(weights)}, not 1")

    if vocabulary is None:
        vocab_size = int(max(int(seq.words.max()) for seq in corpus)) + 1
    else:
        vocab_size = len(vocabulary)

    unigram = np.zeros(vocab_size, dtype=np.int64)
    raw: dict[int, dict[tuple[int, ...], dict[int, int]]] = {
        k: {} for k in range(2, order + 1)
    }
    hasher = hashlib.sha256()
    hasher.update(f"order={order} weights={weights!r} vocab={vocab_size}".encode())
    for seq in corpus:
        if int(seq.words.max()) >= vocab_size or int(seq.words.min()) < 0:
            raise ValidationError(f"sequence {seq.id!r} has token ids outside the vocabulary")
        hasher.update(seq.id.encode())
        hasher.update(np.ascontiguousarray(seq.words).tobytes())
        hasher.update(repr(seq.boundaries).encode())
        words = seq.words
        segments = list(seq.boundaries) + [len(seq)]
        for s_idx in range(len(seq.boundaries)):
            start, stop = segments[s_idx], segments[s_idx + 1]
            seg = words[start:stop]
            unigram += np.bincount(seg, minlength=vocab_size)
            for k in range(2, order + 1):
                table = raw[k]
                for t in range(k - 1, len(seg)):
                    ctx = tuple(int(w) for w in seg[t - k + 1:t])
                    nxt = int(seg[t])
                    succ = table.setdefault(ctx, {})
                    succ[nxt] = succ.get(nxt, 0) + 1

    tables: dict[int, dict[tuple[int, ...], tuple[np.ndarray, np.ndarray]]] = {}
    for k in range(2, order + 1):
        frozen = {}
        for ctx, succ in raw[k].items():
            ids = np.fromiter(sorted(succ), dtype=np.int64, count=len(succ))
            counts = np.array([succ[int(i)] for i in ids], dtype=np.float64)
            frozen[ctx] = (ids, counts)
        tables[k] = frozen

    if vocabulary is None:
        fake = tuple(f"<{i}>" for i in range(vocab_size))
        vocabulary = Vocabulary(tokens=fake, index={w: i for i, w in enumerate(fake)})
    model_id = hasher.hexdigest()[:16]
    return NgramModel(order, weights, vocabulary, tables, unigram, model_id)


def save_model(path, model: NgramModel):
    """Serialize to sorted-key JSON so identical models give identical bytes."""
    import json

    payload = {
        "format": "ngram v1",
        "order": model.order,
        "weights": list(model.weights),
        "model_id": model.model_id,
        "tokens": list(model.vocabulary.tokens),
        "unigram_counts": model.unigram_counts.tolist(),
        "tables": {
            str(k): {
                " ".join(map(str, ctx)): {str(int(i)): int(c)
                                          for i, c in zip(ids, counts)}
                for ctx, (ids, counts) in model.tables[k].items()
            }
            for k in model.tables
        },
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True, separators=(",", ":"))


def load_model(path) -> NgramModel:
    import json

    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    if payload.get("format") != "ngram v1":
        raise ValidationError(f"{path} is not a model file")
    tokens = tuple(payload["tokens"])
    vocab = Vocabulary(tokens=tokens, index={w: i for i, w in enumerate(tokens)})
    tables = {}
    for k_str, contexts in payload["tables"].items():
        frozen = {}
        for ctx_str, succ in contexts.items():
            ctx = tuple(int(w) for w in ctx_str.split()) if ctx_str else ()
            ids = np.array(sorted(int(i) for i in succ), dtype=np.int64)
            counts = np.array([succ[str(int(i))] for i in ids], dtype=np.float64)
            frozen[ctx] = (ids, counts)
        tables[int(k_str)] = frozen
    return NgramModel(
        order=payload["order"],
        weights=tuple(payload["weights"]),
        vocabulary=vocab,
        tables=tables,
        unigram_counts=np.array(payload["unigram_counts"], dtype=np.int64),
        model_id=payload["model_id"],
    )

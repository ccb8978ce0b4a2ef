"""Nucleus size series (NSS) generation and fingerprint arithmetic.

An NSS records, for every prefix of a word sequence, how many top-ranked
tokens a top-p filter would keep. Sufficiently variable series act as
fingerprints: any other non-overlapping text of the same length keeps a
large Euclidean distance from them.
"""

from dataclasses import dataclass

import numpy as np

from .errors import UsageError, ValidationError
from .model import NgramModel, Sequence, check_id
from .sampler import nucleus_size_from_probs

DEFAULT_VARIABILITY_THRESHOLD = 1450.0
DEFAULT_SIMILARITY_WINDOW = 50


@dataclass(frozen=True)
class Nss:
    """Nucleus size series of one sequence under one model and one q."""

    seq_id: str
    q: float
    model_id: str
    sizes: np.ndarray

    def __post_init__(self):
        check_id(self.seq_id, "NSS")
        sizes = np.asarray(self.sizes, dtype=np.int64)
        object.__setattr__(self, "sizes", sizes)
        if sizes.size == 0:
            raise ValidationError(f"NSS {self.seq_id!r} is empty")
        if np.any(sizes < 0):
            raise ValidationError("nucleus sizes must be non-negative")

    @property
    def length(self) -> int:
        return int(self.sizes.size)

    def truncated(self, length: int) -> "Nss":
        if length >= self.length:
            return self
        return Nss(self.seq_id, self.q, self.model_id, self.sizes[:length])


@dataclass(frozen=True)
class VariabilityReport:
    mean: float
    variability: float
    threshold: float
    is_variable: bool


def generate_nss(model: NgramModel, sequence: Sequence, q: float,
                 size_cache: dict | None = None) -> Nss:
    """Nucleus size for every prefix of the sequence.

    The conditioning context resets at each session boundary, which is what
    produces the characteristic size spikes at post starts. ``size_cache``
    (context tuple + q -> size) can be shared across calls to amortize
    repeated contexts over a whole corpus. The contexts the cache does not
    hold are sized together by :func:`_nucleus_sizes`.
    """
    if sequence.words.max() >= model.vocab_size or sequence.words.min() < 0:
        raise ValidationError(
            f"sequence {sequence.id!r} has token ids outside the model vocabulary")
    if size_cache is None:
        size_cache = {}
    keys = [(q, ctx) for ctx in model.contexts(sequence)]
    missing = list(dict.fromkeys(k for k in keys if k not in size_cache))
    if missing:
        sizes = _nucleus_sizes(model, [ctx for _, ctx in missing], q)
        size_cache.update(zip(missing, sizes))
    sizes = np.array([size_cache[k] for k in keys], dtype=np.int64)
    return Nss(seq_id=sequence.id, q=q, model_id=model.model_id, sizes=sizes)


#: Headroom of the fallback margin over the worst-case float summation error.
_MARGIN_HEADROOM = 64.0


def _nucleus_sizes(model: NgramModel, contexts: list, p: float) -> list[int]:
    """``nucleus_size_from_probs(model.context_probs(ctx), p)`` for many contexts.

    :func:`_sparse_nucleus_sizes` sizes every context it can prove; the
    rest go through the dense oracle.
    """
    sizes, sure = _sparse_nucleus_sizes(model, contexts, p)
    for b in np.flatnonzero(~sure):
        sizes[b] = nucleus_size_from_probs(model.context_probs(contexts[b]), p)
    return sizes.tolist()


def _sparse_nucleus_sizes(model: NgramModel, contexts: list, p: float
                          ) -> tuple[np.ndarray, np.ndarray]:
    """Nucleus sizes from the model's sparse structure, and where they are sure.

    A context's distribution is ``c1 * unigram`` plus successor mass on a
    few ids, and the unigram table takes only a few distinct values. So the
    sorted distribution is a merge of each context's support values with
    the model's unigram levels, every level a block of equal values. The
    support values are rebuilt with the float operations ``context_probs``
    uses, in its order, so they equal the dense vector's bit for bit.

    The dense oracle sums in float, so its prefix sums carry up to about
    ``V * eps`` of rounding; the sums here carry their own. A size is sure
    only when the last kept and the first dropped prefix sum both lie
    farther from ``p`` than a margin that covers both errors. A context
    whose sums never pass ``p`` (no order carries weight) is never sure.
    """
    n_ctx = len(contexts)
    sizes = np.zeros(n_ctx, dtype=np.int64)
    sure = np.zeros(n_ctx, dtype=bool)
    levels = model.unigram_levels
    n_lev = levels.size
    c1 = np.zeros(n_ctx)  # stays 0 where the unigram table carries no weight
    seg_ctx, seg_rank, seg_coef, seg_ids, seg_counts = [], [], [], [], []
    for b, ctx in enumerate(contexts):
        for rank, (c, entry) in enumerate(model.mixture(ctx) or ()):
            if entry is None:
                c1[b] = c
                continue
            seg_ctx.append(b)
            seg_rank.append(rank)
            seg_coef.append(c)
            seg_ids.append(entry[0])
            seg_counts.append(entry[1])

    # successor terms c * (counts / counts.sum()), as context_probs forms them
    lens = np.array([ids.size for ids in seg_ids], dtype=np.int64)
    ids = np.concatenate(seg_ids) if seg_ids else np.empty(0, dtype=np.int64)
    counts = np.concatenate(seg_counts) if seg_counts else np.empty(0)
    totals = np.add.reduceat(counts, np.cumsum(lens) - lens) if counts.size else counts
    terms = np.repeat(seg_coef, lens) * (counts / np.repeat(totals, lens))
    term_ctx = np.repeat(np.array(seg_ctx, dtype=np.int64), lens)
    term_rank = np.repeat(np.array(seg_rank, dtype=np.int64), lens)

    # one value per (context, support id): c1 * u, then the terms in order
    pairs, pair_of_term = np.unique(term_ctx * model.vocab_size + ids, return_inverse=True)
    pair_ctx, pair_id = np.divmod(pairs, model.vocab_size)
    values = c1[pair_ctx] * model.unigram_probs[pair_id]
    for rank in np.unique(term_rank):
        sel = term_rank == rank
        values[pair_of_term[sel]] += terms[sel]

    # the level blocks, less the ids that carry successor mass, merged with
    # the support values in descending order per context
    taken = np.bincount(pair_ctx * n_lev + model.unigram_level_of[pair_id],
                        minlength=n_ctx * n_lev)
    item_ctx = np.concatenate([np.repeat(np.arange(n_ctx), n_lev), pair_ctx])
    item_val = np.concatenate([np.outer(c1, levels).ravel(), values])
    item_mult = np.concatenate([np.tile(model.unigram_level_sizes, n_ctx) - taken,
                                np.ones(pairs.size, dtype=np.int64)])
    order = np.lexsort((-item_val, item_ctx))
    item_val, item_mult = item_val[order], item_mult[order]
    mass = item_mult * item_val
    first = np.arange(n_ctx) * n_lev + np.searchsorted(pair_ctx, np.arange(n_ctx))

    margin = _MARGIN_HEADROOM * (model.vocab_size + mass.size) * np.finfo(float).eps
    if not margin < p < 1.0 - margin:
        return sizes, sure

    # inclusive prefix sums per context: subtracting the previous context's
    # total at each context's first item keeps the running sum near [0, 1],
    # so its rounding stays at eps per item instead of growing with n_ctx
    step = mass.copy()
    step[first[1:]] -= np.add.reduceat(mass, first)[:-1]
    run = np.cumsum(step)
    before = np.concatenate(([0.0], run[:-1]))
    before[first] = 0.0
    counted = np.cumsum(item_mult) - item_mult

    # the first item per context whose running sum passes p
    over = np.flatnonzero(run > p)
    if not over.size:
        return sizes, sure
    at = np.searchsorted(over, first)
    crosses = at < over.size
    i = over[np.minimum(at, over.size - 1)]
    crosses &= i < np.append(first[1:], mass.size)
    i = i[crosses]

    # inside that item's block of equal values v the cutoff is floor((p - s0) / v)
    s0, v = before[i], item_val[i]
    j = np.clip(np.floor((p - s0) / v), 0, item_mult[i] - 1)
    sizes[crosses] = counted[i] - counted[first[crosses]] + j.astype(np.int64)
    sure[crosses] = (p - (s0 + j * v) > margin) & (s0 + (j + 1) * v - p > margin)
    return sizes, sure


def variability(nss: Nss, threshold: float = DEFAULT_VARIABILITY_THRESHOLD) -> VariabilityReport:
    """Population RMS deviation of the sizes from their mean.

    A sequence qualifies for fingerprinting only if this exceeds the
    threshold (strictly). The default threshold suits a 50k-vocabulary
    model; it must be retuned per model.
    """
    sizes = nss.sizes.astype(np.float64)
    mu = float(sizes.mean())
    var = float(np.sqrt(np.mean((sizes - mu) ** 2)))
    return VariabilityReport(mean=mu, variability=var, threshold=float(threshold),
                             is_variable=var > threshold)


def similar(x: Sequence, y: Sequence, window: int = DEFAULT_SIMILARITY_WINDOW) -> bool:
    """True iff the sequences share an identical window-length run at the same index."""
    if len(x) != len(y):
        raise UsageError(f"length mismatch: {len(x)} vs {len(y)}")
    if window < 1:
        raise UsageError("window must be >= 1")
    if window > len(x):
        return False
    return _longest_true_run(x.words == y.words) >= window


def _longest_true_run(mask: np.ndarray) -> int:
    padded = np.empty(mask.size + 2, dtype=np.int8)
    padded[0] = padded[-1] = 0
    padded[1:-1] = mask
    edges = np.diff(padded)
    starts = np.flatnonzero(edges == 1)
    if starts.size == 0:
        return 0
    ends = np.flatnonzero(edges == -1)
    return int((ends - starts).max())


def nss_distance(a: Nss, b: Nss) -> float:
    """Euclidean distance between two equal-length series."""
    if a.length != b.length:
        raise UsageError(f"length mismatch: {a.length} vs {b.length}")
    d = a.sizes.astype(np.float64) - b.sizes.astype(np.float64)
    # np.sum uses pairwise summation, which keeps drift down for long series
    return float(np.sqrt(np.sum(d * d)))


def collect_pairwise_distances(
    nss_list: list[Nss],
    sequences: list[Sequence],
    threshold: float = DEFAULT_VARIABILITY_THRESHOLD,
    window: int = DEFAULT_SIMILARITY_WINDOW,
) -> tuple[list[tuple[str, str, float]], list[str]]:
    """Distances between each variable NSS and every other non-similar NSS.

    Returns (records, variable_ids); each unordered pair with at least one
    variable member appears once. Pairs of similar sequences are excluded,
    which also drops identical texts.
    """
    if len(nss_list) != len(sequences):
        raise UsageError("one sequence per NSS required")
    lengths = {n.length for n in nss_list}
    if len(lengths) > 1:
        raise UsageError(f"mixed NSS lengths: {sorted(lengths)}")
    is_var = [variability(n, threshold).is_variable for n in nss_list]
    variable_ids = [n.seq_id for n, v in zip(nss_list, is_var) if v]
    records = []
    for i in range(len(nss_list)):
        for j in range(i + 1, len(nss_list)):
            if not (is_var[i] or is_var[j]):
                continue
            if similar(sequences[i], sequences[j], window):
                continue
            d = nss_distance(nss_list[i], nss_list[j])
            records.append((nss_list[i].seq_id, nss_list[j].seq_id, d))
    return records, variable_ids

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
    ((q, context code) -> size) can be shared across calls to amortize
    repeated contexts over a whole corpus. The sequence's contexts are
    encoded once; those the cache does not hold are sized together by
    :func:`_nucleus_sizes`.
    """
    if sequence.words.max() >= model.vocab_size or sequence.words.min() < 0:
        raise ValidationError(
            f"sequence {sequence.id!r} has token ids outside the model vocabulary")
    if size_cache is None:
        size_cache = {}
    codes, where = np.unique(model.context_codes(sequence), return_inverse=True)
    keys = [(q, code) for code in codes.tolist()]
    missing = [i for i, key in enumerate(keys) if key not in size_cache]
    if missing:
        sizes = _nucleus_sizes(model, codes[missing], q)
        size_cache.update(zip([keys[i] for i in missing], sizes))
    sizes = np.array([size_cache[key] for key in keys], dtype=np.int64)[where]
    return Nss(seq_id=sequence.id, q=q, model_id=model.model_id, sizes=sizes)


#: Headroom of the fallback margin over the worst-case float summation error.
_MARGIN_HEADROOM = 64.0


def _nucleus_sizes(model: NgramModel, codes: np.ndarray, p: float) -> list[int]:
    """``nucleus_size_from_probs(model.context_probs(ctx), p)`` for many context codes.

    :func:`_sparse_nucleus_sizes` sizes every context it can prove; the
    rest go through the dense oracle.
    """
    sizes, sure = _sparse_nucleus_sizes(model, codes, p)
    for b in np.flatnonzero(~sure):
        ctx = model.context_words(codes[b])
        sizes[b] = nucleus_size_from_probs(model.context_probs(ctx), p)
    return sizes.tolist()


def _sparse_nucleus_sizes(model: NgramModel, codes: np.ndarray, p: float
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
    n_ctx = codes.size
    sizes = np.zeros(n_ctx, dtype=np.int64)
    sure = np.zeros(n_ctx, dtype=bool)
    levels = model.unigram_levels
    n_lev = levels.size
    coefs, rows = model.mixture(codes)
    c1 = coefs[:, 0]  # 0 where the unigram table carries no weight

    # each context's successor rows, gathered order by order from the tables;
    # the empty first part keeps the dtypes when no table carries weight
    empty = np.empty(0, dtype=np.int64)
    parts = [(empty, np.empty(0), empty, empty, np.empty(0))]
    for k in range(2, model.order + 1):
        ctx = np.flatnonzero(coefs[:, k - 1] > 0.0)
        table = model.tables[k]
        start = table.offsets[rows[ctx, k - 1]]
        n = table.offsets[rows[ctx, k - 1] + 1] - start
        take = np.repeat(start - (np.cumsum(n) - n), n) + np.arange(n.sum())
        parts.append((ctx, coefs[ctx, k - 1], n, table.ids[take], table.counts[take]))
    seg_ctx, seg_coef, lens, ids, counts = map(np.concatenate, zip(*parts))

    # successor terms c * (counts / counts.sum()), as context_probs forms them
    totals = np.add.reduceat(counts, np.cumsum(lens) - lens) if counts.size else counts
    terms = np.repeat(seg_coef, lens) * (counts / np.repeat(totals, lens))
    term_ctx = np.repeat(seg_ctx, lens)

    # one value per (context, support id): c1 * u, then the terms, which
    # np.add.at adds one at a time in their lowest-order-first order
    pairs, pair_of_term = np.unique(term_ctx * model.vocab_size + ids, return_inverse=True)
    pair_ctx, pair_id = np.divmod(pairs, model.vocab_size)
    values = c1[pair_ctx] * model.unigram_probs[pair_id]
    np.add.at(values, pair_of_term, terms)

    # the level blocks, less the ids that carry successor mass, merged with
    # the support values in descending order per context: each support value
    # goes after the blocks at or above it, the blocks fill the other places
    level_val = np.outer(c1, levels)
    taken = np.bincount(pair_ctx * n_lev + model.unigram_level_of[pair_id],
                        minlength=n_ctx * n_lev).reshape(n_ctx, n_lev)
    first = np.arange(n_ctx) * n_lev + np.searchsorted(pair_ctx, np.arange(n_ctx))
    values = values[np.lexsort((-values, pair_ctx))]  # pair_ctx ascends already
    rank = np.arange(pairs.size) - np.searchsorted(pair_ctx, pair_ctx)
    at = first[pair_ctx] + rank + np.sum(level_val[pair_ctx] >= values[:, None], axis=1)
    is_block = np.ones(n_ctx * n_lev + pairs.size, dtype=bool)
    is_block[at] = False
    item_val = np.empty(is_block.size)
    item_mult = np.ones(is_block.size, dtype=np.int64)
    item_val[at] = values
    item_val[is_block] = level_val[:, ::-1].ravel()
    item_mult[is_block] = (model.unigram_level_sizes - taken)[:, ::-1].ravel()
    mass = item_mult * item_val

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
    return bool(_similar_rows(x.words, y.words[None, :], window)[0])


def _similar_rows(x: np.ndarray, ys: np.ndarray, window: int) -> np.ndarray:
    """``similar`` of the words x against each row of ys, one bool per row."""
    eq = ys == x
    out = eq.sum(axis=1, dtype=np.int32) >= window
    if out.any():
        runs = np.cumsum(np.pad(eq[out], ((0, 0), (1, 0))), axis=1)  # equal ids before c
        out[out] = np.any(runs[:, window:] - runs[:, :-window] == window, axis=1)
    return out


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

    Returns (records, variable_ids); each pair i < j with at least one
    variable member appears once, in (i, j) order, unless its sequences are
    :func:`similar`, which also drops identical texts. Distances equal
    :func:`nss_distance` bit for bit.
    """
    if len(nss_list) != len(sequences):
        raise UsageError("one sequence per NSS required")
    lengths = {n.length for n in nss_list}
    if len(lengths) > 1:
        raise UsageError(f"mixed NSS lengths: {sorted(lengths)}")
    if len({len(s) for s in sequences}) > 1:
        raise UsageError(f"length mismatch: {sorted({len(s) for s in sequences})}")
    if window < 1:
        raise UsageError("window must be >= 1")
    ids = np.array([n.seq_id for n in nss_list], dtype=object)
    is_var = np.array([variability(n, threshold).is_variable for n in nss_list], dtype=bool)
    keep = np.triu(is_var[:, None] | is_var[None, :], k=1)
    if not keep.any():
        return [], ids[is_var].tolist()
    # narrowed for a faster compare: ids that span less than 2**k stay distinct mod 2**k
    words = np.stack([s.words for s in sequences])
    words = words.astype(np.min_scalar_type(int(words.max()) - int(words.min())))
    for i in np.flatnonzero(keep.any(axis=1)):
        j = np.flatnonzero(keep[i])
        ys = words[i + 1:] if is_var[i] else words[j]  # a view where every j is kept
        keep[i, j[_similar_rows(words[i], ys, window)]] = False
    rows, cols = np.nonzero(keep)
    d = np.sqrt(_squared_distances(np.stack([n.sizes for n in nss_list]))[rows, cols])
    return list(zip(ids[rows].tolist(), ids[cols].tolist(), d.tolist())), ids[is_var].tolist()


def _squared_distances(sizes: np.ndarray) -> np.ndarray:
    """``np.sum(d * d)`` of :func:`nss_distance` between all rows, bit for bit.

    Sizes are integers, so while 2 * N * max(size)**2 < 2**53 every product
    and partial sum of ||a||^2 + ||b||^2 - 2 a.b is an exact integer in
    float64, whatever order the GEMM sums in. Above that bound each row is
    summed as nss_distance sums it, over the same differences negated.
    """
    s = sizes.astype(np.float64)
    if 2 * s.shape[1] * int(sizes.max()) ** 2 < 2**53:
        sq = np.einsum("ij,ij->i", s, s)
        return sq[:, None] + sq[None, :] - 2.0 * (s @ s.T)
    return np.array([np.sum((s - row) ** 2, axis=1) for row in s])

"""Nucleus size series (NSS) generation and fingerprint arithmetic.

An NSS records, for every prefix of a word sequence, how many top-ranked
tokens a top-p filter would keep. Sufficiently variable series act as
fingerprints: any other non-overlapping text of the same length keeps a
large Euclidean distance from them.
"""

from dataclasses import dataclass

import numpy as np

from .errors import UsageError, ValidationError, check_id
from .model import NgramModel, Sequence
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
    variability: float
    is_variable: bool


def generate_nss(model: NgramModel, sequence: Sequence, q: float,
                 size_cache: dict | None = None) -> Nss:
    """Nucleus size for every prefix of one sequence: :func:`nss_series` of it alone.
    ``size_cache`` is ignored: the benchmark's ``openworld`` workload still passes one."""
    return nss_series(model, [sequence], q)[0]


#: Most distinct contexts one call of the core sizes. Sizing all 13,066 of the
#: benchmark's ``attack`` contexts at once took its peak RSS to 66.1-66.2 MiB (58.7-59.5
#: with a call per sequence); blocks of 1,024 kept it at 58.5-58.7 MiB.
_BLOCK = 1024


def nss_series(model: NgramModel, sequences: list[Sequence], q: float) -> list[Nss]:
    """Nucleus size for every prefix of each sequence, each distinct context sized once.

    The conditioning context resets at each session boundary, which is what produces
    the characteristic size spikes at post starts. The distinct contexts are sized in
    blocks of ``_BLOCK``.
    """
    for s in sequences:
        if s.words.max() >= model.vocab_size or s.words.min() < 0:
            raise ValidationError(f"sequence {s.id!r} has token ids outside the model vocabulary")
    if not sequences:
        return []
    codes, where = np.unique(np.concatenate([model.context_codes(s) for s in sequences]),
                             return_inverse=True)
    sizes = np.concatenate([_nucleus_sizes(model, codes[b:b + _BLOCK], q)
                            for b in range(0, codes.size, _BLOCK)])
    ends = np.cumsum([len(s) for s in sequences])[:-1]
    return [Nss(seq_id=s.id, q=q, model_id=model.model_id, sizes=part)
            for s, part in zip(sequences, np.split(sizes[where], ends))]


#: Headroom of the fallback margin over the worst-case float summation error.
_MARGIN_HEADROOM = 64.0


def _nucleus_sizes(model: NgramModel, codes: np.ndarray, p: float) -> list[int]:
    """``nucleus_size_from_probs(model.context_probs(code), p)`` for many context codes.

    A context's distribution is ``c1 * unigram`` plus successor mass on a few ids,
    and the unigram table takes few distinct values (levels). The support values,
    one per successor id, equal the dense vector's bit for bit (:func:`_support`).
    A size comes from the first tier that proves it: (1) the support values alone,
    when their prefix sums pass ``p`` on a value strictly above ``c1`` times the
    top level, so no other id comes first in the dense sort; (2) their merge with
    the level blocks (:func:`_merged`); (3) the dense oracle.

    Rounding: the dense oracle's prefix sums carry up to about ``V * eps``. A tier
    sums its ``n`` items in one re-anchored ``cumsum`` whose running value stays
    below 2; each addition, re-anchoring, total and block product rounds by at
    most ``eps`` times that, so its sums are off by under ``4 * n * eps``. A size
    is proved only when the last kept and first dropped sums lie farther from
    ``p`` than ``_MARGIN_HEADROOM * (V + n) * eps``, covering both errors, and
    never when the sums do not pass ``p`` (no order carries weight).
    """
    c1, pair_ctx, pair_id, values = _support(model, codes)
    sizes, sure, passing = _crossings(values, np.ones(values.size, dtype=np.int64), pair_ctx,
                                      codes.size, p, model.vocab_size)
    sure &= passing > c1 * model.unigram_levels[-1]
    rest = ~sure
    if rest.any():
        items = _merged(model, rest, c1, pair_ctx, pair_id, values)
        sizes[rest], sure[rest], _ = _crossings(*items, int(rest.sum()), p, model.vocab_size)
    for b in np.flatnonzero(~sure):
        sizes[b] = nucleus_size_from_probs(model.context_probs(codes[b]), p)
    return sizes.tolist()


def _support(model: NgramModel, codes: np.ndarray) -> tuple[np.ndarray, ...]:
    """Each context's unigram coefficient ``c1``, and its support as (context,
    id, value) triples: contexts ascending, values descending within each."""
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
    return c1, pair_ctx, pair_id, _descending(values, pair_ctx)


def _merged(model: NgramModel, rest: np.ndarray, c1: np.ndarray, pair_ctx: np.ndarray,
            pair_id: np.ndarray, values: np.ndarray) -> tuple[np.ndarray, ...]:
    """:func:`_crossings` items of the contexts ``rest`` (a mask): each support value
    goes after the level blocks at or above it (``c1 * levels`` ascends), and the
    blocks, less the support ids, fill the other places."""
    keep, levels, c1 = rest[pair_ctx], model.unigram_levels, c1[rest]
    sub = np.cumsum(rest)[pair_ctx[keep]] - 1  # each kept value's context among rest
    vals, n_lev, n_ctx, c1_of = values[keep], levels.size, c1.size, c1[sub]
    above = np.empty(vals.size, dtype=np.int64)
    for c in np.unique(c1_of):
        above[c1_of == c] = n_lev - np.searchsorted(c * levels, vals[c1_of == c])
    at = sub * n_lev + np.arange(vals.size) + above
    is_block = np.ones(n_ctx * n_lev + vals.size, dtype=bool)
    is_block[at] = False
    item_val, item_mult = np.empty(is_block.size), np.ones(is_block.size, dtype=np.int64)
    item_val[at] = vals
    item_val[is_block] = np.outer(c1, levels)[:, ::-1].ravel()
    taken = np.bincount(sub * n_lev + model.unigram_level_of[pair_id[keep]],
                        minlength=n_ctx * n_lev).reshape(n_ctx, n_lev)
    item_mult[is_block] = (model.unigram_level_sizes - taken)[:, ::-1].ravel()
    return item_val, item_mult, np.repeat(np.arange(n_ctx),
                                          n_lev + np.bincount(sub, minlength=n_ctx))


def _descending(values: np.ndarray, seg: np.ndarray) -> np.ndarray:
    """``values`` sorted descending within each run of equal ``seg`` (which ascends),
    by one sort of int64 keys: a value in [0, 2) has a bit pattern below 2**62 that
    ascends with it, so its top 48 bits, negated, fit below a ``seg`` under 2**15.
    Unequal values that share those bits may come out rising; one adjacent
    comparison finds that, and ``np.lexsort`` orders them instead."""
    if seg.size and seg[-1] < 1 << 15:
        out = values[np.argsort((seg << 48) - (values.view(np.int64) >> 16))]
        if not np.any((out[1:] > out[:-1]) & (seg[1:] == seg[:-1])):
            return out
    return values[np.lexsort((-values, seg))]


def _crossings(val: np.ndarray, mult: np.ndarray, seg: np.ndarray, n_ctx: int, p: float,
               vocab_size: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Where each context's prefix sums first pass ``p``. Context c's items are
    ``val[i]``, each ``mult[i]`` times, for the ``i`` where ``seg[i] == c``; ``seg``
    ascends and ``val`` descends within a context. Returns per context how many
    values have a prefix sum at most ``p``, whether the last kept and the first
    dropped sum lie farther than the margin from ``p``, and the value passing ``p``.
    """
    sizes, sure, passing = np.zeros(n_ctx, dtype=np.int64), np.zeros(n_ctx, bool), np.zeros(n_ctx)
    margin = _MARGIN_HEADROOM * (vocab_size + val.size) * np.finfo(float).eps
    if not margin < p < 1.0 - margin or not val.size:
        return sizes, sure, passing

    # inclusive prefix sums per context, in place: subtracting the previous
    # context's total at each context's first item keeps the running sum near
    # [0, 1], so its rounding stays at eps per item instead of growing with n_ctx
    run = mult * val
    first = np.flatnonzero(np.concatenate(([True], seg[1:] != seg[:-1])))
    run[first[1:]] -= np.add.reduceat(run, first)[:-1]
    np.cumsum(run, out=run)

    # the first item per context whose running sum passes p
    over = np.flatnonzero(run > p)
    if not over.size:
        return sizes, sure, passing
    at = np.searchsorted(over, first)
    i = over[np.minimum(at, over.size - 1)]
    crosses = (at < over.size) & (seg[i] == seg[first])
    i, first, ctx = i[crosses], first[crosses], seg[first[crosses]]

    # inside that item's block of equal values v the cutoff is floor((p - s0) / v)
    s0, v = np.where(i > first, run[i - 1], 0.0), val[i]
    j = np.clip(np.floor((p - s0) / v), 0, mult[i] - 1)
    counted = np.cumsum(mult)  # through each item; the items before i count mult[first:i]
    sizes[ctx] = counted[i] - mult[i] - counted[first] + mult[first] + j.astype(np.int64)
    sure[ctx] = (p - (s0 + j * v) > margin) & (s0 + (j + 1) * v - p > margin)
    passing[ctx] = v
    return sizes, sure, passing


def variability(nss: Nss, threshold: float = DEFAULT_VARIABILITY_THRESHOLD) -> VariabilityReport:
    """Population RMS deviation of the sizes from their mean.

    A sequence qualifies for fingerprinting only if this exceeds the
    threshold (strictly). The default threshold suits a 50k-vocabulary
    model; it must be retuned per model.
    """
    sizes = nss.sizes.astype(np.float64)
    var = float(np.sqrt(np.mean((sizes - sizes.mean()) ** 2)))
    return VariabilityReport(variability=var, is_variable=var > threshold)


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


def collect_pairwise_distances(
    nss_list: list[Nss],
    sequences: list[Sequence],
    threshold: float = DEFAULT_VARIABILITY_THRESHOLD,
    window: int = DEFAULT_SIMILARITY_WINDOW,
) -> tuple[list[tuple[str, str, float]], list[str]]:
    """Distances between each variable NSS and every other non-similar NSS.

    Returns (records, variable_ids); each pair i < j with at least one
    variable member appears once, in (i, j) order, unless its sequences are
    :func:`similar`, which also drops identical texts. Distances equal the
    per-pair loop oracle's in ``tests/test_fingerprint.py`` bit for bit.
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
    """``np.sum(d * d)`` between all rows, bit for bit as the test oracle
    ``nss_distance`` sums each pair.

    Sizes are integers, so while 2 * N * max(size)**2 < 2**53 every product
    and partial sum of ||a||^2 + ||b||^2 - 2 a.b is an exact integer in
    float64, whatever order the GEMM sums in. Above that bound each row is
    summed as the oracle sums it, over the same differences negated.
    """
    s = sizes.astype(np.float64)
    if 2 * s.shape[1] * int(sizes.max()) ** 2 < 2**53:
        sq = np.einsum("ij,ij->i", s, s)
        return sq[:, None] + sq[None, :] - 2.0 * (s @ s.T)
    return np.array([np.sum((s - row) ** 2, axis=1) for row in s])

"""Top-p (nucleus) filtering: the leaking variant, the constant-iteration
mitigation, and the timing micro-benchmark harness.

The vulnerable filter walks an index list of out-of-nucleus tokens and
assigns -inf one token at a time, so its trip count equals the number of
removed tokens -- an invertible function of the nucleus size. The
mitigated filter touches every vocabulary slot exactly once and encodes
the keep/remove decision in a branch-free arithmetic term, so neither its
trip count nor its memory-access pattern depends on the nucleus size.
"""

import os
import time
from dataclasses import dataclass

import numpy as np

from .errors import (ParseError, UsageError, ValidationError, parse_field, read_records,
                     write_records)
from .model import check_vocab_size, softmax

VULNERABLE = "vulnerable"
MITIGATED = "mitigated"
BOTH = "both"
#: The variants ``bench_filter`` and ``nssfp bench --variant`` take, in help order.
VARIANTS = (BOTH, VULNERABLE, MITIGATED)
BENCH_REPEATS = 5
#: The most trials per variant ``bench`` takes, 10**4: a hundred times the README's
#: run, about 40 s per variant at the default vocabulary size on a 2-vCPU Xeon.
MAX_BENCH_TRIALS = 10**4

#: IEEE-754 double max; doubling it overflows to +inf, which is the whole trick.
MAXFLOAT = float(np.finfo(np.float64).max)


def _check_p(p: float):
    if not 0.0 < p <= 1.0:
        raise UsageError(f"p must be in (0, 1], got {p}")


def _cumulative(sorted_probs: np.ndarray) -> np.ndarray:
    """Cumulative sums clamped at 1.

    Normalization drift can push cumulative values a hair above 1 once the
    remaining tail is tiny, which would spuriously remove tokens at p = 1
    and break monotonicity. The exact cumulative never exceeds 1, so the
    clamp only removes float error.
    """
    cum = np.cumsum(sorted_probs)
    return np.minimum(cum, 1.0, out=cum)


def nucleus_size_from_probs(probs: np.ndarray, p: float) -> int:
    """Number of top-ranked tokens whose cumulative probability is <= p.

    Exactly the complement of the vulnerable filter's removal count:
    ``nucleus_size_from_probs(softmax(logits), p) == vocab - removed_count``
    for every input. Sorting the values alone puts them in the filters'
    rank order (only the ids of tied values can differ, and ties carry equal
    values), so the cumulative sums are the same floats.
    """
    _check_p(p)
    cum = _cumulative(np.sort(probs)[::-1])
    return int(np.searchsorted(cum, p, side="right"))


@dataclass(frozen=True)
class FilterOutcome:
    """Instrumentation record for one filter invocation.

    ``kept_ids`` is the nucleus as an ascending id array (set semantics).
    ``removal_loop_iterations`` is the trip count of the removal loop:
    equal to ``removed_count`` for the vulnerable variant and to the
    vocabulary size for the mitigated one.
    """

    kept_ids: np.ndarray
    removed_count: int
    removal_loop_iterations: int
    nucleus_size: int


def _rank(logits, p: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The step both filters share: validate, softmax, descending rank
    order with ties by ascending id, clamped cumulative sums in rank order.

    The whole vocabulary is ranked by one in-place sort of int64 keys. A
    non-negative double's IEEE-754 bit pattern, read as an integer, ascends
    with its value (exponent above mantissa, sign bit clear), and softmax
    values are ``exp(.) / sum``, never negative and never -0.0. Each key is
    ``id - ((bits >> k) << k)``, where ``k`` is the bit width of V - 1: the
    probability's top 64 - k bits, negated, above the id in the low k bits.
    Ascending keys are descending probabilities with exact ties by
    ascending id, the stable argsort's order, unless two unequal
    probabilities share their top bits and sit in ascending id order
    against their values. Then the ranked values rise somewhere, and the
    ranking falls back to the stable argsort, which the tests keep as the
    oracle. Returns ``(logits, order, cum)``.
    """
    _check_p(p)
    logits = np.asarray(logits, dtype=np.float64)
    if logits.ndim != 1 or logits.size == 0:
        raise ValidationError("logits must be a non-empty 1-d vector")
    if not np.all(np.isfinite(logits)):
        raise ValidationError("logits must be finite")
    probs = softmax(logits)
    k = (probs.size - 1).bit_length()
    keys = probs.view(np.int64) >> k
    keys <<= k
    order = np.subtract(np.arange(probs.size), keys, out=keys)
    order.sort()
    order &= (1 << k) - 1                  # the ids, now in rank order
    ranked = probs[order]
    if np.any(ranked[1:] > ranked[:-1]):   # a clash inside the shared top bits
        order = np.argsort(-probs, kind="stable")
        ranked = probs[order]
    return logits, order, _cumulative(ranked)


def _remove_vulnerable(filtered: np.ndarray, not_in_p: np.ndarray):
    """The leaking loop: one -inf assignment per out-of-nucleus token."""
    filtered[not_in_p] = -np.inf           # len(not_in_p) trips


@np.errstate(over="ignore")
def _remove_mitigated(filtered: np.ndarray, order: np.ndarray, sorted_logits: np.ndarray,
                      cum: np.ndarray, p: float, removed: np.ndarray, term: np.ndarray):
    """Subtract +inf or 0 at every rank, allocating nothing: ``removed`` (bool)
    receives the indicator ``cum > p`` and ``term`` (float) the subtracted term,
    then the filtered logits in rank order."""
    np.greater(cum, p, out=removed)
    np.copyto(term, removed)               # a cast in place; a mixed-type ufunc would buffer
    np.multiply(term, MAXFLOAT, out=term)
    np.add(term, term, out=term)           # indicator * MAXFLOAT * 2: +inf or 0
    np.subtract(sorted_logits, term, out=term)
    filtered[order] = term                 # vocab-size trips, unconditionally


def top_p_filter_vulnerable(logits, p: float) -> tuple[np.ndarray, FilterOutcome]:
    """Reference top-p filter with the input-dependent removal loop.

    Builds the out-of-nucleus index list, then assigns -inf across it.
    The assignment pass is the leaking loop: it runs once per removed
    token, and that count is what the instrumented trip counter reports.
    """
    logits, order, cum = _rank(logits, p)
    not_in_p = order[cum > p]              # build pass over all ranks
    filtered = logits.copy()
    _remove_vulnerable(filtered, not_in_p)
    removed = int(not_in_p.size)
    outcome = FilterOutcome(
        kept_ids=np.sort(order[cum <= p]),
        removed_count=removed,
        removal_loop_iterations=removed,
        nucleus_size=logits.size - removed,
    )
    return filtered, outcome


def top_p_filter_mitigated(logits, p: float) -> tuple[np.ndarray, FilterOutcome]:
    """Constant-trip-count top-p filter.

    Every rank is visited exactly once and receives the same arithmetic:
    subtract ``indicator(cum > p) * MAXFLOAT * 2``, which overflows to
    +inf for removed tokens and is 0 for kept ones, computed as that
    product; no control flow or indexing depends on the comparison outcome.
    """
    logits, order, cum = _rank(logits, p)
    filtered = logits.copy()
    mask = np.empty(logits.size, dtype=bool)
    _remove_mitigated(filtered, order, logits[order], cum, p, mask, np.empty(logits.size))
    removed = int(np.count_nonzero(mask))
    outcome = FilterOutcome(
        kept_ids=np.sort(order[~mask]),
        removed_count=removed,
        removal_loop_iterations=int(logits.size),
        nucleus_size=logits.size - removed,
    )
    return filtered, outcome


FILTERS = {VULNERABLE: top_p_filter_vulnerable, MITIGATED: top_p_filter_mitigated}


# --- timing harness ---------------------------------------------------------

@dataclass(frozen=True)
class TimingSample:
    variant: str
    nucleus_size: int
    loop_time_ns: int
    vocab_size: int


def _peaked_logits(rng: np.random.Generator, log_ranks: np.ndarray) -> np.ndarray:
    """Random peaked distributions in the realistic auto-completion regime,
    over a vocabulary whose ``log(1..V)`` rank vector is ``log_ranks``.

    Zipf-like tails with a random exponent give nucleus sizes spanning a
    few tokens up to a sizable fraction of the vocabulary, the range over
    which the leak is observable.
    """
    alpha = rng.uniform(0.9, 2.0)
    return -alpha * log_ranks + rng.normal(0.0, 0.3, log_ranks.size)


class _pinned_to_one_core:
    """Pin the process to a single core for the measurement, then restore."""

    def __enter__(self):
        self.saved = None
        try:
            self.saved = os.sched_getaffinity(0)
            os.sched_setaffinity(0, {min(self.saved)})
        except (AttributeError, OSError):
            pass  # unsupported platform; timings just get noisier

    def __exit__(self, *exc):
        if self.saved is not None:
            try:
                os.sched_setaffinity(0, self.saved)
            except OSError:
                pass
        return False


def bench_filter(variant: str, vocab_size: int, trials: int, rng_seed: int,
                 p: float = 0.9) -> list[TimingSample]:
    """Time the removal step of a filter variant, or of both, over random inputs.

    Per trial the filter's own removal function is timed ``BENCH_REPEATS`` times
    on the highest-resolution monotonic clock after one discarded warm-up
    run, and the median is recorded. The ranking step and the vulnerable
    filter's index-list build are excluded: only the removal differs
    between the variants and only it leaks. Given ``BOTH``, each trial's
    logits are drawn and ranked once and both removals are timed back to
    back on that ranking; the vulnerable samples come first, then the
    mitigated ones, as two calls at the same seed would return them.
    """
    if not 1 <= trials <= MAX_BENCH_TRIALS:
        raise UsageError(f"trials must be >= 1 and <= {MAX_BENCH_TRIALS}, got {trials}")
    if variant not in VARIANTS:
        raise UsageError(f"unknown variant {variant!r}")
    if rng_seed < 0:
        raise UsageError(f"seed must be >= 0, got {rng_seed}")
    check_vocab_size(vocab_size)
    rng = np.random.default_rng(rng_seed)
    log_ranks = np.log(np.arange(1, vocab_size + 1, dtype=np.float64))
    samples = {v: [] for v in FILTERS if variant in (v, BOTH)}
    with _pinned_to_one_core():
        for _ in range(trials):
            logits, order, cum = _rank(_peaked_logits(rng, log_ranks), p)
            sorted_logits = logits[order]
            mask = cum > p
            size = int(vocab_size - np.count_nonzero(mask))
            removed, term = np.empty(vocab_size, dtype=bool), np.empty(vocab_size)
            for timed, out in samples.items():
                times = []
                for rep in range(BENCH_REPEATS + 1):
                    filtered = logits.copy()
                    if timed == VULNERABLE:
                        # a fresh list per run, as each filter call builds one;
                        # a reused list makes the loop measurably faster
                        not_in_p = order[mask]
                        t0 = time.perf_counter_ns()
                        _remove_vulnerable(filtered, not_in_p)
                        t1 = time.perf_counter_ns()
                    else:
                        t0 = time.perf_counter_ns()
                        _remove_mitigated(filtered, order, sorted_logits, cum, p, removed,
                                          term)
                        t1 = time.perf_counter_ns()
                    if rep > 0:  # discard warm-up
                        times.append(t1 - t0)
                times.sort()
                loop_time = max(1, int(times[len(times) // 2]))
                out.append(TimingSample(timed, size, loop_time, vocab_size))
    return [sample for out in samples.values() for sample in out]


def pearson(xs, ys) -> float:
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    sx, sy = xs.std(), ys.std()
    if sx == 0.0 or sy == 0.0:
        return 0.0
    return float(((xs - xs.mean()) * (ys - ys.mean())).mean() / (sx * sy))


def summarize_bench(samples: list[TimingSample]) -> dict:
    """Per-variant size/time correlation plus the mitigation slowdown ratio."""
    out: dict = {}
    for variant in (VULNERABLE, MITIGATED):
        sub = [s for s in samples if s.variant == variant]
        if not sub:
            continue
        times = np.array([s.loop_time_ns for s in sub], dtype=np.float64)
        sizes = [s.nucleus_size for s in sub]
        out[variant] = {
            "trials": len(sub),
            "median_loop_time_ns": float(np.median(times)),
            "size_time_correlation": pearson(sizes, times),
        }
    if VULNERABLE in out and MITIGATED in out:
        out["slowdown"] = (out[MITIGATED]["median_loop_time_ns"]
                           / out[VULNERABLE]["median_loop_time_ns"])
    return out


_BENCH_COLUMNS = "variant,vocab_size,nucleus_size,loop_time_ns"


def write_bench_report(path, samples: list[TimingSample], header_lines=()):
    """Line-delimited records for plotting size-vs-time scatters."""
    write_records(path, [_BENCH_COLUMNS] + [
        f"{s.variant},{s.vocab_size},{s.nucleus_size},{s.loop_time_ns}" for s in samples],
        header_lines=header_lines)


def read_bench_report(path) -> list[TimingSample]:
    """The samples :func:`write_bench_report` stored: per row a vocabulary of at
    least 1, a nucleus size in 0..vocab_size and a non-negative loop time."""
    names = _BENCH_COLUMNS.split(",")
    records = read_records(path, names, ",")
    next(records)
    samples = []
    for lineno, fields in records:
        if fields == names:
            continue
        if fields[0] not in FILTERS:
            raise ParseError(f"unknown variant {fields[0]!r}", path=str(path), line=lineno)
        vocab, size, ns = (parse_field(int, text, name, path, lineno) for name, text in
                           zip(names[1:], fields[1:]))
        if vocab < 1 or not 0 <= size <= vocab or ns < 0:
            raise ParseError(f"impossible sample: vocab_size {vocab}, nucleus_size {size}, "
                             f"loop_time_ns {ns}", path=str(path), line=lineno)
        samples.append(TimingSample(fields[0], size, ns, vocab))
    return samples

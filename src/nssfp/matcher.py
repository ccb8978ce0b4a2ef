"""Open-world matching of candidate texts against collected traces.

A candidate's NSS matches a trace window when their Euclidean distance is
under tau_N = U(N) - d(N). By the triangle inequality, a trace measured
(within error d) while a non-similar text was typed sits at least tau away
from the candidate's fingerprint, so a match is never a false positive as
long as both fitted bounds hold.
"""

from dataclasses import dataclass

import numpy as np

from .errors import UsageError, write_records
from .fingerprint import (DEFAULT_SIMILARITY_WINDOW, DEFAULT_VARIABILITY_THRESHOLD,
                          Nss, similar, variability)
from .model import Sequence
from .sidechannel import Trace
# simulate_trace is unused here but stays importable: perfbench/test_smoke.py
# checks that the tracer rebinds it as a from-imported name
from .sidechannel import simulate_trace  # noqa: F401
from .stats import ErrorModel, UniquenessModel, error_bound

MATCHED = "matched"
NO_MATCH = "no_match"
NOT_VARIABLE = "not_variable"
EVALUATION_HEADER = "#evaluation v1"
_EPS = float(np.finfo(np.float64).eps)
_TINY = float(np.finfo(np.float64).smallest_subnormal)


@dataclass(frozen=True)
class MatchResult:
    verdict: str
    trace_id: str | None = None
    offset: int | None = None
    distance: float | None = None
    threshold_used: float = 0.0


@dataclass(frozen=True)
class EvaluationReport:
    total: int
    variable_count: int
    filtered_noisy: int
    true_matches: int
    false_positives: int
    recall: float
    details: list[dict]


# a distance whose squares overflow is inf, which no threshold accepts
@np.errstate(over="ignore", invalid="ignore")
def _window_distance(sizes: np.ndarray, window: np.ndarray) -> float:
    d = sizes - window
    return float(np.sqrt(np.sum(d * d)))


def measurement_error(truth: Nss, trace: Trace) -> float:
    """Distance from a true NSS to the first ``truth.length`` estimates of
    its own trace: the error that d(N) bounds."""
    return _window_distance(truth.sizes.astype(np.float64),
                            trace.estimated_sizes[:truth.length])


def fit_error_bound(series: list[Nss], kept: list[Trace],
                    uniq: UniquenessModel) -> ErrorModel:
    """d(N) and tau from the errors of the kept traces, in pool order, against
    their own NSS cut to N = ``uniq.length``; a trace is skipped if its id has
    no NSS or if that NSS or the trace itself is shorter than N."""
    n = uniq.length
    truth = {x.seq_id: x for x in series}
    errors = [measurement_error(truth[t.seq_id].truncated(n), t) for t in kept
              if t.seq_id in truth and truth[t.seq_id].length >= n and t.step_count >= n]
    return error_bound(np.array(errors), uniq)


# a screen that overflows to inf or nan keeps its window for exact measurement
@np.errstate(over="ignore", invalid="ignore")
def _near_offsets(sizes: np.ndarray, sizes_sq: float, trace: Trace,
                  tau: float) -> np.ndarray:
    """Ascending offsets of the windows of ``trace`` that can lie within tau
    of ``sizes``; ``sizes_sq`` is ``sizes @ sizes``.

    Screens every window at once by d^2 = |w|^2 + |x|^2 - 2 x.w, with |w|^2
    from the trace's prefix sum of est^2 and x.w from one correlation pass, so
    memory is O(len(est)). With u the unit roundoff and S = sum(est^2) + |x|^2:
    the screened d^2 is off by at most (2 steps + 2N + 8) u S (prefix-sum
    cancellation, the dot product, the last two operations); a window whose
    rounded loop distance is under tau has exact d^2 below
    tau^2 + 2 (N + 5) u S, since exact d^2 <= 2 S; and rounding tau^2 +
    margin costs at most 4 u S more where it matters. Underflowing squares
    and products add at most (steps + 2N + 1) smallest subnormals. The
    margin 8 (steps + N) (eps S + smallest subnormal), with eps = 2u,
    exceeds the sum for every steps >= N >= 1, so the screen only drops
    windows the loop rejects.
    """
    n, prefix = sizes.size, trace.squares_prefix
    est = np.asarray(trace.estimated_sizes, dtype=np.float64)
    d2 = np.correlate(est, sizes, "valid")
    d2 *= -2.0
    d2 += prefix[n:] - prefix[:-n]
    d2 += sizes_sq
    margin = 8.0 * (est.size + n) * (_EPS * (prefix[-1] + sizes_sq) + _TINY)
    # a window whose screen overflowed (inf or nan) is measured exactly
    return np.flatnonzero(~(d2 >= tau * tau + margin) | np.isinf(d2))


def _scan(x_nss: Nss, traces: list[Trace], models: tuple[UniquenessModel, ErrorModel],
          variability_threshold: float):
    """Yield a MATCHED result for every window within tau, in trace then
    offset order.

    A non-variable candidate yields one NOT_VARIABLE result before any
    distance is computed. A non-positive tau (non-matchable configuration)
    yields nothing. Each trace is screened in one vectorised pass
    (:func:`_near_offsets`); only the windows it keeps are measured by
    :func:`_window_distance`, so results equal a loop over every window
    bit for bit (the window-loop oracle in ``tests/test_matcher.py``).
    """
    uniq, err = models
    if uniq.length != x_nss.length or err.length != x_nss.length:
        raise UsageError(
            f"models fitted for N={uniq.length}/{err.length}, NSS has N={x_nss.length}")
    tau = err.tau
    if not variability(x_nss, variability_threshold).is_variable:
        yield MatchResult(verdict=NOT_VARIABLE, threshold_used=tau)
        return
    if err.matchable:
        n = x_nss.length
        sizes = x_nss.sizes.astype(np.float64)
        sizes_sq = float(sizes @ sizes)
        for trace in traces:
            if trace.step_count < n:
                continue
            est = np.asarray(trace.estimated_sizes, dtype=np.float64)
            # one window costs less to measure than to screen
            offsets = (range(1) if est.size == n
                       else _near_offsets(sizes, sizes_sq, trace, tau).tolist())
            for offset in offsets:
                d = _window_distance(sizes, est[offset:offset + n])
                if d < tau:
                    yield MatchResult(verdict=MATCHED, trace_id=trace.seq_id, offset=offset,
                                      distance=d, threshold_used=tau)


def match(x_nss: Nss, traces: list[Trace],
          models: tuple[UniquenessModel, ErrorModel],
          variability_threshold: float = DEFAULT_VARIABILITY_THRESHOLD) -> MatchResult:
    """First candidate window within tau of the candidate's NSS.

    Non-variable candidates short-circuit before any distance is computed.
    A non-positive tau (non-matchable configuration) can never match.
    """
    return next(_scan(x_nss, traces, models, variability_threshold),
                MatchResult(verdict=NO_MATCH, threshold_used=models[1].tau))


def evaluate(corpus_nss: list[Nss], sequences: list[Sequence], traces: list[Trace],
             kept: list[Trace], models: tuple[UniquenessModel, ErrorModel],
             variability_threshold: float = DEFAULT_VARIABILITY_THRESHOLD,
             similarity_window: int = DEFAULT_SIMILARITY_WINDOW) -> EvaluationReport:
    """End-to-end attack evaluation over a corpus.

    ``traces`` holds the reconstructed trace of each sequence in corpus
    order and ``kept`` the pool that survived ``sidechannel.prepare_pool``,
    the one d(N) was fitted on; traces not in it count as filtered. Every
    variable NSS is matched against the pool. The own trace's offset-0 window is
    ground truth; a match into a non-similar sequence's trace is a false
    positive, and matches between similar sequences count as neither.
    Recall is over variable sequences whose own trace survived filtering.
    """
    if len(corpus_nss) < 2:
        raise UsageError("evaluation needs at least 2 sequences")
    if len(corpus_nss) != len(sequences):
        raise UsageError("one sequence per NSS required")
    if [t.seq_id for t in traces] != [x.seq_id for x in corpus_nss]:
        raise UsageError("one trace per NSS required, in the same order")
    kept_ids = {t.seq_id for t in kept}
    if len(kept_ids) != len(kept) or not kept_ids <= {t.seq_id for t in traces}:
        raise UsageError("the kept pool must hold distinct traces of the corpus")
    n = models[0].length
    corpus_nss = [x.truncated(n) for x in corpus_nss]
    sequences = [s.truncated(n) for s in sequences]
    if any(x.length != n for x in corpus_nss):
        raise UsageError(f"all NSS must reach length {n} before evaluation")

    by_id = {s.id: s for s in sequences}
    rows = []
    for x, own, trace in zip(corpus_nss, sequences, traces):
        var = variability(x, variability_threshold)
        result = match(x, kept, models, variability_threshold)
        hit = result.trace_id if result.verdict == MATCHED else None
        own_kept = x.seq_id in kept_ids
        rows.append({
            "seq_id": x.seq_id,
            "variability": var.variability,
            "is_variable": var.is_variable,
            "measurement_error": measurement_error(x, trace),
            "matched": result.verdict if hit is None else hit,
            "own_trace_kept": own_kept,
            "true_match": var.is_variable and own_kept and hit == x.seq_id and result.offset == 0,
            "false_positive": hit not in (None, x.seq_id)
            and not similar(own, by_id[hit], similarity_window),
        })
    variable = sum(row["is_variable"] and row["own_trace_kept"] for row in rows)
    true_matches = sum(row["true_match"] for row in rows)
    return EvaluationReport(
        total=len(rows), variable_count=variable, filtered_noisy=len(traces) - len(kept),
        true_matches=true_matches, false_positives=sum(row["false_positive"] for row in rows),
        recall=true_matches / variable if variable else float("nan"), details=rows)


def write_evaluation_report(path, report: EvaluationReport, header_lines=()):
    """Per-sequence evaluation records plus summary header comments."""
    summary = (f"total={report.total} variable={report.variable_count} "
               f"filtered_noisy={report.filtered_noisy} true_matches={report.true_matches} "
               f"false_positives={report.false_positives} recall={report.recall!r}")
    write_records(path, ["seq_id,variability,is_variable,measurement_error,matched"] + [
        f"{row['seq_id']},{row['variability']!r},{row['is_variable']},"
        f"{row['measurement_error']!r},{row['matched']}" for row in report.details],
        EVALUATION_HEADER, [*header_lines, summary])

"""Open-world matching of candidate texts against collected traces.

A candidate's NSS matches a trace window when their Euclidean distance is
under tau_N = U(N) - d(N). By the triangle inequality, a trace measured
(within error d) while a non-similar text was typed sits at least tau away
from the candidate's fingerprint, so a match is never a false positive as
long as both fitted bounds hold.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import UsageError
from .fingerprint import (DEFAULT_SIMILARITY_WINDOW, DEFAULT_VARIABILITY_THRESHOLD,
                          Nss, similar, variability)
from .model import Sequence
# simulate_trace is unused here but stays importable: perfbench/test_smoke.py
# checks that the tracer rebinds it as a from-imported name
from .sidechannel import Trace, prepare_pool, simulate_trace  # noqa: F401
from .stats import ErrorModel, UniquenessModel

MATCHED = "matched"
NO_MATCH = "no_match"
NOT_VARIABLE = "not_variable"


@dataclass(frozen=True)
class MatchResult:
    verdict: str
    trace_id: str | None = None
    offset: int | None = None
    distance: float | None = None
    threshold_used: float = 0.0


@dataclass
class EvaluationReport:
    total: int
    variable_count: int
    filtered_noisy: int
    true_matches: int
    false_positives: int
    recall: float
    details: list[dict] = field(default_factory=list)


def gen_candidate_subtraces(traces: list[Trace], length: int):
    """All contiguous length-N windows, in trace order then offset order.

    Traces shorter than the requested length are dropped entirely.
    """
    if length < 1:
        raise UsageError("window length must be >= 1")
    for trace in traces:
        if trace.step_count < length:
            continue
        for offset in range(trace.step_count - length + 1):
            yield trace.seq_id, offset, trace.estimated_sizes[offset:offset + length]


def _window_distance(sizes: np.ndarray, window: np.ndarray) -> float:
    d = sizes - window
    return float(np.sqrt(np.sum(d * d)))


def measurement_error(truth: Nss, trace: Trace) -> float:
    """Distance from a true NSS to the first ``truth.length`` estimates of
    its own trace: the error that d(N) bounds."""
    return _window_distance(truth.sizes.astype(np.float64),
                            trace.estimated_sizes[:truth.length])


def _scan(x_nss: Nss, traces: list[Trace], models: tuple[UniquenessModel, ErrorModel],
          variability_threshold: float):
    """Yield a MATCHED result for every window within tau, in trace then
    offset order.

    A non-variable candidate yields one NOT_VARIABLE result before any
    distance is computed. A non-positive tau (non-matchable configuration)
    yields nothing.
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
        sizes = x_nss.sizes.astype(np.float64)
        for trace_id, offset, window in gen_candidate_subtraces(traces, x_nss.length):
            d = _window_distance(sizes, window)
            if d < tau:
                yield MatchResult(verdict=MATCHED, trace_id=trace_id, offset=offset,
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


def match_all(x_nss: Nss, traces: list[Trace],
              models: tuple[UniquenessModel, ErrorModel],
              variability_threshold: float = DEFAULT_VARIABILITY_THRESHOLD) -> list[MatchResult]:
    """Diagnostic exhaustive mode: every sub-threshold window, not just the first.

    Under the fitted bounds at most one text can match, so a multi-element
    result is direct evidence that an assumption was violated.
    """
    return (list(_scan(x_nss, traces, models, variability_threshold))
            or [MatchResult(verdict=NO_MATCH, threshold_used=models[1].tau)])


def evaluate(corpus_nss: list[Nss], sequences: list[Sequence], traces: list[Trace],
             models: tuple[UniquenessModel, ErrorModel],
             drop_fraction: float = 0.06,
             variability_threshold: float = DEFAULT_VARIABILITY_THRESHOLD,
             similarity_window: int = DEFAULT_SIMILARITY_WINDOW) -> EvaluationReport:
    """End-to-end attack evaluation over a corpus.

    ``traces`` holds the reconstructed trace of each sequence in corpus
    order. The noisiest fraction is dropped; every variable NSS is then
    matched against the surviving pool. The own trace's offset-0 window is
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
    n = models[0].length
    corpus_nss = [x.truncated(n) for x in corpus_nss]
    sequences = [s.truncated(n) for s in sequences]
    if any(x.length != n for x in corpus_nss):
        raise UsageError(f"all NSS must reach length {n} before evaluation")

    kept, dropped, _ = prepare_pool(traces, drop_fraction)
    kept_ids = {t.seq_id for t in kept}

    by_id = {s.id: i for i, s in enumerate(sequences)}
    report = EvaluationReport(total=len(corpus_nss), variable_count=0,
                              filtered_noisy=len(dropped), true_matches=0,
                              false_positives=0, recall=0.0)
    for idx, x in enumerate(corpus_nss):
        var = variability(x, variability_threshold)
        error = measurement_error(x, traces[idx])
        result = match(x, kept, models, variability_threshold)
        own_kept = x.seq_id in kept_ids
        false_positive = False
        if result.verdict == MATCHED and result.trace_id != x.seq_id:
            other = sequences[by_id[result.trace_id]]
            false_positive = not similar(sequences[idx], other, similarity_window)
        if var.is_variable and own_kept:
            report.variable_count += 1
            if result.verdict == MATCHED and result.trace_id == x.seq_id and result.offset == 0:
                report.true_matches += 1
        if false_positive:
            report.false_positives += 1
        matched = result.trace_id if result.verdict == MATCHED else result.verdict
        report.details.append({
            "seq_id": x.seq_id,
            "variability": var.variability,
            "is_variable": var.is_variable,
            "measurement_error": error,
            "matched": matched,
            "own_trace_kept": own_kept,
            "false_positive": false_positive,
        })
    report.recall = (report.true_matches / report.variable_count
                     if report.variable_count else float("nan"))
    return report


def write_evaluation_report(path, report: EvaluationReport, header_lines=()):
    """Per-sequence evaluation records plus summary header comments."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("#evaluation v1\n")
        for line in header_lines:
            fh.write(f"# {line}\n")
        fh.write(f"# total={report.total} variable={report.variable_count} "
                 f"filtered_noisy={report.filtered_noisy} "
                 f"true_matches={report.true_matches} "
                 f"false_positives={report.false_positives} recall={report.recall!r}\n")
        fh.write("seq_id,variability,is_variable,measurement_error,matched\n")
        for row in report.details:
            fh.write(f"{row['seq_id']},{row['variability']!r},{row['is_variable']},"
                     f"{row['measurement_error']!r},{row['matched']}\n")

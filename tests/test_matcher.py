import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nssfp.matcher as matcher
from nssfp.errors import UsageError
from nssfp.fingerprint import Nss
from nssfp.matcher import (MATCHED, NO_MATCH, NOT_VARIABLE, MatchResult, evaluate,
                           fit_error_bound, match, measurement_error)
from nssfp.model import Sequence
from nssfp.sidechannel import ChannelConfig, Trace, prepare_pool, simulate_pool
from nssfp.stats import ErrorModel, UniquenessModel, error_bound


def _trace(sizes, seq_id="t"):
    sizes = np.asarray(sizes, dtype=np.float64)
    n = sizes.size
    return Trace(seq_id=seq_id, estimated_sizes=sizes,
                 per_step_hit_counts=np.ones(n, dtype=np.int64),
                 per_step_durations=np.ones(n), estimated_iterations=np.ones(n),
                 noise_level=0.0)


def _models(n, radius, bound):
    uniq = UniquenessModel(length=n, log_mu=np.log(radius) if radius > 0 else 0.0,
                           log_sigma=1.0, epsilon=1e-6, radius=radius)
    err = ErrorModel(length=n, mean=bound / 2, std=bound / 20, bound=bound,
                     tau=radius - bound)
    return uniq, err


def gen_candidate_subtraces(traces, length):
    """All contiguous length-N windows, in trace order then offset order; traces
    shorter than N are dropped. The window-loop oracle of ``matcher._scan``."""
    if length < 1:
        raise UsageError("window length must be >= 1")
    for trace in traces:
        for offset in range(trace.step_count - length + 1):
            yield trace.seq_id, offset, trace.estimated_sizes[offset:offset + length]


def test_gen_candidate_subtraces_counts():
    t5 = _trace(np.arange(5), "a")
    t2 = _trace(np.arange(2), "b")
    windows = list(gen_candidate_subtraces([t5, t2], 3))
    assert [(w[0], w[1]) for w in windows] == [("a", 0), ("a", 1), ("a", 2)]

    big = [_trace(np.zeros(2700), "x"), _trace(np.zeros(3000), "y")]
    windows = list(gen_candidate_subtraces(big, 2700))
    assert len(windows) == 1 + 301


def test_match_exact_and_not_variable():
    sizes = np.tile([100, 4000], 50)  # variable series
    x = Nss("x", 0.9, "m", sizes)
    models = _models(100, radius=500.0, bound=100.0)
    result = match(x, [_trace(sizes, "x")], models, variability_threshold=500)
    assert result.verdict == MATCHED
    assert result.trace_id == "x" and result.offset == 0
    assert result.distance == 0.0

    flat = Nss("flat", 0.9, "m", np.full(100, 2000))
    result = match(flat, [_trace(sizes, "x")], models, variability_threshold=500)
    assert result.verdict == NOT_VARIABLE
    assert result.trace_id is None


def test_match_respects_threshold():
    sizes = np.tile([0, 4000], 50).astype(float)
    x = Nss("x", 0.9, "m", sizes.astype(int))
    off = sizes + 30.0  # distance = 300
    models = _models(100, radius=500.0, bound=100.0)  # tau = 400
    r = match(x, [_trace(off, "t")], models, variability_threshold=100)
    assert r.verdict == MATCHED and r.distance == pytest.approx(300.0)

    models = _models(100, radius=350.0, bound=100.0)  # tau = 250 < 300
    r = match(x, [_trace(off, "t")], models, variability_threshold=100)
    assert r.verdict == NO_MATCH


def test_match_length_mismatch():
    x = Nss("x", 0.9, "m", np.arange(10))
    with pytest.raises(UsageError):
        match(x, [], _models(11, 100.0, 10.0))


def test_triangle_inequality_blocks_false_positives(rng):
    """If ||X - Y|| > U and ||Y - t|| < d, then t never matches X at tau = U - d.

    Adversarial grid: Y's fingerprint sits just past U from X, the trace
    error just under d, over a range of margins and directions.
    """
    n = 64
    for margin_u in (1.0001, 1.01, 1.2, 2.0):
        for margin_d in (0.9999, 0.9, 0.5, 0.05):
            x_sizes = rng.integers(0, 4000, n)
            x = Nss("x", 0.9, "m", x_sizes)
            radius, bound = 2000.0, 700.0
            models = _models(n, radius, bound)
            direction = rng.normal(0, 1, n)
            direction /= np.linalg.norm(direction)
            y = x_sizes + direction * radius * margin_u      # ||x - y|| = U * margin_u
            noise = rng.normal(0, 1, n)
            noise /= np.linalg.norm(noise)
            t = y + noise * bound * margin_d                 # ||y - t|| = d * margin_d
            assert np.linalg.norm(x_sizes - y) > radius
            assert np.linalg.norm(y - t) < bound
            result = match(x, [_trace(t, "y")], models, variability_threshold=1.0)
            assert result.verdict == NO_MATCH


def test_not_variable_short_circuits_distance(monkeypatch):
    calls = {"n": 0}
    real = matcher._window_distance

    def counting(a, b):
        calls["n"] += 1
        return real(a, b)

    monkeypatch.setattr(matcher, "_window_distance", counting)
    flat = Nss("flat", 0.9, "m", np.full(50, 7))
    match(flat, [_trace(np.zeros(50), "t")], _models(50, 100.0, 10.0),
          variability_threshold=1450)
    assert calls["n"] == 0


def test_non_matchable_tau_never_matches():
    sizes = np.tile([0, 4000], 25)
    x = Nss("x", 0.9, "m", sizes)
    r = match(x, [_trace(sizes, "x")], _models(50, 10.0, 100.0),
              variability_threshold=10)
    assert r.verdict == NO_MATCH  # tau <= 0: nothing can be close enough


def test_match_determinism_and_first_match_order():
    sizes = np.tile([0, 4000], 50)
    x = Nss("x", 0.9, "m", sizes)
    pool = [_trace(sizes, "first"), _trace(sizes, "second")]
    models = _models(100, 500.0, 100.0)
    r1 = match(x, pool, models, variability_threshold=10)
    r2 = match(x, pool, models, variability_threshold=10)
    assert r1 == r2
    assert r1.trace_id == "first"  # insertion order wins

    hits = list(matcher._scan(x, pool, models, 10))
    assert [h.trace_id for h in hits] == ["first", "second"]


def _loop_results(x, traces, tau):
    """Every hit of the window-by-window loop the scan must reproduce
    (variable candidate)."""
    sizes = x.sizes.astype(np.float64)
    hits = []
    if tau > 0:
        for trace_id, offset, window in gen_candidate_subtraces(traces, x.length):
            d = matcher._window_distance(sizes, window)
            if d < tau:
                hits.append(MatchResult(MATCHED, trace_id, offset, d, tau))
    return hits


def _fields(r):
    bits = None if r.distance is None else struct.pack("<d", r.distance)
    return (r.verdict, r.trace_id, r.offset, type(r.offset), bits,
            struct.pack("<d", r.threshold_used))


def _ulps(value, k):
    for _ in range(abs(k)):
        value = np.nextafter(value, np.inf if k > 0 else -np.inf)
    return float(value)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 48), seed=st.integers(0, 2**32 - 1),
       kinds=st.lists(st.sampled_from(["short", "equal", "longer", "long"]),
                      min_size=1, max_size=4),
       scale=st.sampled_from([1.0, 1e3, 1e5, 1e-160]), quantized=st.booleans(),
       noise=st.sampled_from([0.0, 1e-3, 1.0, 30.0]), pick=st.integers(0, 3),
       ulps=st.integers(-3, 3))
def test_scan_equals_window_loop(n, seed, kinds, scale, quantized, noise, pick, ulps):
    """match and every hit of _scan equal the gen_candidate_subtraces loop
    field for field, distance bits included, with tau placed within a few
    ulps of a window's own distance."""
    rng = np.random.default_rng(seed)
    # at the tiny scale the candidate is all zeros and the squares underflow
    unit = min(scale, 1.0)
    sizes = rng.integers(0, 100_001, n) if unit == 1.0 else np.zeros(n, dtype=np.int64)
    x = Nss("x", 0.9, "m", sizes)
    traces, planted = [], []
    for i, kind in enumerate(kinds):
        steps = {"short": int(rng.integers(0, n)), "equal": n,
                 "longer": n + int(rng.integers(1, 200)),
                 "long": int(rng.integers(5001, 5400))}[kind]
        est = rng.uniform(-0.2, 1.0, steps) * scale  # negative estimates included
        if quantized and unit == 1.0:
            est = np.round(est)
        if steps >= n:
            offset = int(rng.integers(0, steps - n + 1))
            est[offset:offset + n] = sizes + rng.normal(0.0, noise, n) * unit
            planted.append(est[offset:offset + n])
        traces.append(_trace(est, f"t{i}"))
    if planted:
        own = matcher._window_distance(sizes.astype(np.float64), planted[pick % len(planted)])
        tau = _ulps(own, ulps)
    else:
        tau = float(rng.uniform(0.0, scale * n))
    uniq = UniquenessModel(length=n, log_mu=0.0, log_sigma=1.0, epsilon=1e-6,
                           radius=abs(tau) + 1.0)
    models = (uniq, ErrorModel(length=n, mean=0.0, std=0.0, bound=uniq.radius - tau,
                               tau=tau))

    hits = _loop_results(x, traces, tau)
    assert [_fields(r) for r in matcher._scan(x, traces, models, -1.0)] == [
        _fields(r) for r in hits]
    first = hits[0] if hits else MatchResult(NO_MATCH, threshold_used=tau)
    assert _fields(match(x, traces, models, -1.0)) == _fields(first)


def test_scan_measures_windows_after_an_overflowed_prefix_sum():
    # 1e200 squared overflows, so every later prefix sum of the trace is inf
    x = Nss("x", 0.9, "m", np.array([1, 2]))
    trace = _trace([1e200, 1.0, 2.0, 1.0, 2.0], "t")
    models = _models(2, radius=2.0, bound=1.0)  # tau = 1
    expected = [_fields(r) for r in _loop_results(x, [trace], 1.0)]
    hits = list(matcher._scan(x, [trace], models, -1.0))
    assert [(r.offset, r.distance) for r in hits] == [(1, 0.0), (3, 0.0)]
    assert [_fields(r) for r in hits] == expected


def _corpus(rng, n_seqs=8, length=120):
    """Distinct variable sequences with spiky author-specific size patterns."""
    sequences, series = [], []
    for i in range(n_seqs):
        words = rng.integers(0, 50, length)
        sequences.append(Sequence(id=f"u{i}", words=words))
        mask = rng.random(length) < 0.4
        sizes = np.where(mask, rng.integers(3000, 4000, length), rng.integers(0, 50, length))
        series.append(Nss(f"u{i}", 0.9, "m", sizes))
    return sequences, series


def test_evaluate_lossless_channel(rng):
    sequences, series = _corpus(rng)
    cfg = ChannelConfig(capture_fraction=1.0, hit_jitter_std=0.0,
                        outlier_rate=0.0, rng_seed=4)
    models = _models(120, radius=5000.0, bound=500.0)
    traces = simulate_pool(series, 4096, cfg)
    report = evaluate(series, sequences, traces, traces, models, variability_threshold=100)
    assert report.recall == 1.0
    assert report.false_positives == 0
    assert report.variable_count == len(series)
    assert report.filtered_noisy == 0


def test_evaluate_excludes_similar_duplicates(rng):
    sequences, series = _corpus(rng, n_seqs=6)
    # a duplicated author: same text, same sizes, different id
    sequences.append(Sequence(id="dup", words=sequences[0].words.copy()))
    series.append(Nss("dup", 0.9, "m", series[0].sizes.copy()))
    cfg = ChannelConfig(capture_fraction=1.0, hit_jitter_std=0.0,
                        outlier_rate=0.0, rng_seed=4)
    models = _models(120, radius=5000.0, bound=500.0)
    traces = simulate_pool(series, 4096, cfg)
    report = evaluate(series, sequences, traces, traces, models, variability_threshold=100)
    # the duplicate matches u0's trace (insertion order) but is similar: no FP
    assert report.false_positives == 0
    dup_row = next(r for r in report.details if r["seq_id"] == "dup")
    assert dup_row["matched"] == "u0"
    # everyone matches their own trace except dup, which hit u0's first
    assert report.true_matches == len(series) - 1


def test_evaluate_reuses_given_traces(rng):
    sequences, series = _corpus(rng)
    cfg = ChannelConfig(capture_fraction=0.2, rng_seed=4)
    models = _models(120, radius=5000.0, bound=500.0)
    traces = simulate_pool(series, 4096, cfg)
    kept, dropped, _ = prepare_pool(traces)
    report = evaluate(series, sequences, traces, kept, models, variability_threshold=100)
    assert [row["measurement_error"] for row in report.details] == [
        measurement_error(x, t) for x, t in zip(series, traces)]
    assert report.filtered_noisy == len(dropped) == len(traces) - len(kept) > 0
    dropped_ids = {t.seq_id for t in dropped}
    assert [row["own_trace_kept"] for row in report.details] == [
        t.seq_id not in dropped_ids for t in traces]
    with pytest.raises(UsageError):
        evaluate(series, sequences, traces[::-1], kept, models)
    with pytest.raises(UsageError):  # a pool trace that is not in the corpus
        evaluate(series, sequences, traces, kept + [_trace(np.zeros(120), "stranger")],
                 models)


def test_fit_error_bound_matches_inline_oracle(rng):
    _, series = _corpus(rng, n_seqs=40)
    traces = simulate_pool(series, 4096, ChannelConfig(capture_fraction=0.2, rng_seed=4))
    uniq = _models(100, radius=5000.0, bound=500.0)[0]
    truth = {x.seq_id: x for x in series}
    oracle = error_bound(np.array([measurement_error(truth[t.seq_id].truncated(100), t)
                                   for t in traces]), uniq)
    assert fit_error_bound(series, traces, uniq) == oracle

    # a trace with no NSS, one shorter than N and one whose NSS is shorter are skipped
    short_nss = Nss("u0", 0.9, "m", series[0].sizes[:99])
    pool = traces + [_trace(np.zeros(120), "stranger"), _trace(np.zeros(99), "u1")]
    assert fit_error_bound([short_nss] + series[1:], pool, uniq) == error_bound(
        np.array([measurement_error(truth[t.seq_id].truncated(100), t)
                  for t in traces[1:]]), uniq)


def test_evaluate_requires_two_sequences(rng):
    sequences, series = _corpus(rng, n_seqs=2)
    traces = simulate_pool(series, 4096, ChannelConfig(rng_seed=1))
    with pytest.raises(UsageError):
        evaluate(series[:1], sequences[:1], traces[:1], traces[:1],
                 _models(120, 100.0, 10.0))


def test_evaluation_report_file(tmp_path, rng):
    sequences, series = _corpus(rng)
    cfg = ChannelConfig(capture_fraction=1.0, hit_jitter_std=0.0,
                        outlier_rate=0.0, rng_seed=4)
    traces = simulate_pool(series, 4096, cfg)
    report = evaluate(series, sequences, traces, traces, _models(120, 5000.0, 500.0),
                      variability_threshold=100)
    path = tmp_path / "eval.csv"
    matcher.write_evaluation_report(path, report, header_lines=["seed=4"])
    lines = path.read_text().splitlines()
    assert lines[0] == "#evaluation v1"
    assert any(line.startswith("# total=") for line in lines)
    header_idx = lines.index("seq_id,variability,is_variable,measurement_error,matched")
    assert len(lines) - header_idx - 1 == len(series)
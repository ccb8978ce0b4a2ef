import numpy as np
import pytest

import nssfp.matcher as matcher
from nssfp.errors import UsageError
from nssfp.fingerprint import Nss
from nssfp.matcher import (MATCHED, NO_MATCH, NOT_VARIABLE, evaluate,
                           gen_candidate_subtraces, match, match_all, measurement_error)
from nssfp.model import Sequence
from nssfp.sidechannel import ChannelConfig, Trace, segment_and_reconstruct, simulate_trace
from nssfp.stats import ErrorModel, UniquenessModel


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
                     tau=radius - bound, matchable=radius - bound > 0)
    return uniq, err


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

    hits = match_all(x, pool, models, variability_threshold=10)
    assert [h.trace_id for h in hits] == ["first", "second"]


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


def _simulated(series, cfg, vocab_size=4096):
    return [segment_and_reconstruct(simulate_trace(x, vocab_size, cfg), cfg, vocab_size)
            for x in series]


def test_evaluate_lossless_channel(rng):
    sequences, series = _corpus(rng)
    cfg = ChannelConfig(capture_fraction=1.0, hit_jitter_std=0.0,
                        outlier_rate=0.0, rng_seed=4)
    models = _models(120, radius=5000.0, bound=500.0)
    report = evaluate(series, sequences, _simulated(series, cfg), models,
                      drop_fraction=0.0, variability_threshold=100)
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
    report = evaluate(series, sequences, _simulated(series, cfg), models,
                      drop_fraction=0.0, variability_threshold=100)
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
    traces = _simulated(series, cfg)
    report = evaluate(series, sequences, traces, models, variability_threshold=100)
    assert [row["measurement_error"] for row in report.details] == [
        measurement_error(x, t) for x, t in zip(series, traces)]
    with pytest.raises(UsageError):
        evaluate(series, sequences, traces[::-1], models)


def test_evaluate_requires_two_sequences(rng):
    sequences, series = _corpus(rng, n_seqs=2)
    traces = _simulated(series, ChannelConfig(rng_seed=1))
    with pytest.raises(UsageError):
        evaluate(series[:1], sequences[:1], traces[:1], _models(120, 100.0, 10.0))


def test_evaluation_report_file(tmp_path, rng):
    sequences, series = _corpus(rng)
    cfg = ChannelConfig(capture_fraction=1.0, hit_jitter_std=0.0,
                        outlier_rate=0.0, rng_seed=4)
    report = evaluate(series, sequences, _simulated(series, cfg),
                      _models(120, 5000.0, 500.0), drop_fraction=0.0,
                      variability_threshold=100)
    path = tmp_path / "eval.csv"
    matcher.write_evaluation_report(path, report, header_lines=["seed=4"])
    lines = path.read_text().splitlines()
    assert lines[0] == "#evaluation v1"
    assert any(line.startswith("# total=") for line in lines)
    header_idx = lines.index("seq_id,variability,is_variable,measurement_error,matched")
    assert len(lines) - header_idx - 1 == len(series)
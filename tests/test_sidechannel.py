import numpy as np
import pytest

from nssfp.errors import InsufficientDataError, ParseError, UsageError, ValidationError
from nssfp.fingerprint import Nss
from nssfp.sidechannel import (ChannelConfig, Trace, estimate_global_slope,
                               filter_noisy, noise_level, read_traces, rescore_noise,
                               segment_and_reconstruct, simulate_trace, write_traces)


def lossless(seed=0):
    return ChannelConfig(capture_fraction=1.0, hit_jitter_std=0.0,
                         outlier_rate=0.0, rng_seed=seed)


def _nss(sizes, seq_id="x"):
    return Nss(seq_id, 0.9, "m", np.asarray(sizes))


def test_config_validation():
    with pytest.raises(ValidationError):
        ChannelConfig(capture_fraction=0.0)
    with pytest.raises(ValidationError):
        ChannelConfig(capture_fraction=1.5)
    with pytest.raises(ValidationError):
        ChannelConfig(outlier_scale=0.5)
    with pytest.raises(ValidationError):
        ChannelConfig(segment_gap_cycles=0)


def test_lossless_channel_is_exact():
    cfg = lossless()
    nss = _nss([100, 400, 250, 0, 366])
    raw = simulate_trace(nss, 500, cfg)
    trace = segment_and_reconstruct(raw, cfg, 500)
    assert np.array_equal(trace.estimated_sizes, nss.sizes)
    assert np.array_equal(trace.per_step_hit_counts, 500 - nss.sizes)


def test_simulation_is_deterministic():
    cfg = ChannelConfig(rng_seed=9)
    nss = _nss(np.full(30, 1500))
    a = simulate_trace(nss, 4000, cfg)
    b = simulate_trace(nss, 4000, cfg)
    assert np.array_equal(a.hit_times, b.hit_times)
    assert np.array_equal(a.hit_steps, b.hit_steps)
    # a different sequence id gets an independent stream
    c = simulate_trace(_nss(np.full(30, 1500), "other"), 4000, cfg)
    assert not np.array_equal(a.hit_times, c.hit_times)


def test_capture_fraction_hits():
    # 10000 iterations at 1.1% capture: about 110 hits per step
    cfg = ChannelConfig(rng_seed=5)
    nss = _nss(np.full(200, 2000))
    raw = simulate_trace(nss, 12000, cfg)
    counts = np.bincount(raw.hit_steps, minlength=200)
    assert counts.mean() == pytest.approx(110, rel=0.05)


def test_size_above_vocab_rejected():
    with pytest.raises(ValidationError):
        simulate_trace(_nss([600]), 500, lossless())


def test_two_steps_make_two_segments():
    cfg = lossless()
    nss = _nss([100, 200])
    trace = segment_and_reconstruct(simulate_trace(nss, 300, cfg), cfg, 300)
    assert trace.step_count == 2
    assert np.array_equal(trace.estimated_sizes, [100, 200])


def test_zero_hit_step_stays_aligned():
    # middle step has zero iterations: no hits, estimate pads to vocab size
    cfg = lossless()
    nss = _nss([100, 500, 250])
    trace = segment_and_reconstruct(simulate_trace(nss, 500, cfg), cfg, 500)
    assert trace.step_count == 3
    assert np.array_equal(trace.estimated_sizes, [100, 500, 250])
    assert trace.per_step_hit_counts[1] == 0  # the flag for an unseen step


def test_leading_zero_hit_step():
    cfg = lossless()
    nss = _nss([500, 100, 250])
    trace = segment_and_reconstruct(simulate_trace(nss, 500, cfg), cfg, 500)
    assert np.array_equal(trace.estimated_sizes, [500, 100, 250])


def test_reconstruction_unbiased_at_scale():
    # binomial capture: mean estimate over 100 seeded trials within 5%
    for true_iters in (2000, 20000):
        estimates = []
        for seed in range(100):
            cfg = ChannelConfig(rng_seed=seed)
            nss = _nss([30000 - true_iters], seq_id=f"t{seed}")
            trace = segment_and_reconstruct(simulate_trace(nss, 30000, cfg), cfg, 30000)
            estimates.append(trace.estimated_iterations[0])
        assert np.mean(estimates) == pytest.approx(true_iters, rel=0.05)


def _synthetic_trace(iters, slope, seq_id="t", dilate_step=None, dilate_by=10.0):
    iters = np.asarray(iters, dtype=np.float64)
    durations = slope * iters
    if dilate_step is not None:
        durations = durations.copy()
        durations[dilate_step] *= dilate_by
    return Trace(seq_id=seq_id, estimated_sizes=1000 - iters,
                 per_step_hit_counts=np.maximum(1, iters // 90).astype(np.int64),
                 per_step_durations=durations, estimated_iterations=iters,
                 noise_level=0.0)


def test_noise_level_examples():
    clean = _synthetic_trace([100, 200, 300, 400], slope=300.0)
    assert noise_level(clean, 300.0) == 0.0
    dirty = _synthetic_trace([100, 200, 300, 400], slope=300.0, dilate_step=2)
    assert noise_level(dirty, 300.0) > noise_level(clean, 300.0)
    with pytest.raises(UsageError):
        noise_level(_synthetic_trace([100], slope=300.0), 300.0)
    with pytest.raises(UsageError):
        noise_level(clean, 0.0)


def test_global_slope_estimation(rng):
    traces = [_synthetic_trace(rng.integers(50, 5000, 20), 300.0, seq_id=str(i))
              for i in range(10)]
    assert estimate_global_slope(traces) == pytest.approx(300.0)

    jittered = []
    for i in range(40):
        iters = rng.integers(500, 5000, 30).astype(np.float64)
        durations = 300.0 * iters * rng.normal(1.0, 0.05, 30)
        jittered.append(Trace(seq_id=str(i), estimated_sizes=6000 - iters,
                              per_step_hit_counts=np.ones(30, dtype=np.int64),
                              per_step_durations=durations,
                              estimated_iterations=iters, noise_level=0.0))
    assert estimate_global_slope(jittered) == pytest.approx(300.0, rel=0.02)

    # median shrugs off one corrupted trace
    corrupted = _synthetic_trace(rng.integers(50, 5000, 20), 3000.0, seq_id="bad")
    assert estimate_global_slope(traces + [corrupted]) == pytest.approx(300.0)

    with pytest.raises(InsufficientDataError):
        estimate_global_slope([_synthetic_trace([100], 300.0)])


def test_filter_noisy_order_statistics():
    base = [_synthetic_trace([100, 200], 300.0, seq_id=str(i)) for i in range(100)]
    scored = [Trace(t.seq_id, t.estimated_sizes, t.per_step_hit_counts,
                    t.per_step_durations, t.estimated_iterations,
                    noise_level=float(i % 13)) for i, t in enumerate(base)]
    kept, dropped = filter_noisy(scored, 0.0)
    assert len(kept) == 100 and not dropped

    kept, dropped = filter_noisy(scored, 0.06)
    assert len(dropped) == 6
    assert min(t.noise_level for t in dropped) >= max(t.noise_level for t in kept)
    # stable order: kept preserves original relative order
    orig = [t.seq_id for t in scored]
    kept_ids = [t.seq_id for t in kept]
    assert kept_ids == [s for s in orig if s in set(kept_ids)]

    with pytest.raises(UsageError):
        filter_noisy(scored, 1.0)


def test_noise_scoring_separates_dilated_traces(rng):
    # traces with 10x dilated steps must rank above clean ones
    clean_cfg = ChannelConfig(rng_seed=100, outlier_rate=0.0)
    dirty_cfg = ChannelConfig(rng_seed=200, outlier_rate=0.3)
    sizes = rng.integers(2000, 7000, 40)
    traces = []
    for i in range(30):
        cfg = clean_cfg if i < 25 else dirty_cfg
        nss = _nss(sizes, seq_id=f"{'clean' if i < 25 else 'dirty'}{i}")
        traces.append(segment_and_reconstruct(simulate_trace(nss, 8000, cfg), cfg, 8000))
    slope = estimate_global_slope(traces)
    traces = rescore_noise(traces, slope)
    ranked = sorted(traces, key=lambda t: -t.noise_level)
    top5 = {t.seq_id for t in ranked[:5]}
    assert all(s.startswith("dirty") for s in top5)


def test_trace_file_roundtrip(tmp_path):
    cfg = ChannelConfig(rng_seed=3)
    traces = []
    for i in range(4):
        nss = _nss(np.arange(10) * 250 + 100, seq_id=f"u{i}")
        traces.append(segment_and_reconstruct(simulate_trace(nss, 4000, cfg), cfg, 4000))
    path = tmp_path / "pool.trc"
    write_traces(path, traces, cfg)
    loaded, meta = read_traces(path)
    assert meta["capture"] == cfg.capture_fraction
    assert meta["seed"] == cfg.rng_seed
    assert [t.seq_id for t in loaded] == [t.seq_id for t in traces]
    for a, b in zip(traces, loaded):
        assert np.array_equal(a.estimated_sizes, b.estimated_sizes)
        assert np.array_equal(a.per_step_hit_counts, b.per_step_hit_counts)
        assert np.array_equal(a.per_step_durations, b.per_step_durations)
        assert a.noise_level == pytest.approx(b.noise_level)


@pytest.mark.parametrize("rows, line", [
    (["u\t0\t1\t0.0\t5.0", "u\t1\t1\t0.0\t5.0", "u\t1\t2\t0.0\t5.0"], 4),
    (["v\t0\t1\t0.0\t5.0", "u\t0\t1\t0.0\t5.0", "u\t2\t2\t0.0\t5.0"], 3),
])
def test_read_traces_rejects_repeated_or_missing_steps(tmp_path, rows, line):
    path = tmp_path / "pool.trc"
    path.write_text("\n".join(["#trace v1 seed=0 capture=0.5"] + rows) + "\n")
    with pytest.raises(ParseError) as exc:
        read_traces(path)
    assert exc.value.line == line and str(exc.value).startswith(f"{path}:{line}:")


@pytest.mark.parametrize("row, message", [
    ("u\t1\t1\tnan\t5.0", "non-finite"),
    ("u\t1\t1\t0.0\tinf", "non-finite"),
    ("u\t1\t1\t0.0\t-Infinity", "non-finite"),
    ("u\t1\t1\t0.0\tNaN", "non-finite"),
    ("u\t1\t99999999999999999999\t0.0\t5.0", "int64"),
])
def test_read_traces_rejects_non_finite_values(tmp_path, row, message):
    path = tmp_path / "pool.trc"
    path.write_text(f"#trace v1 seed=0 capture=0.5\n{row}\nu\t0\t1\t0.0\t5.0\n")
    with pytest.raises(ParseError, match=message) as exc:
        read_traces(path)
    assert str(exc.value).startswith(f"{path}:2:")


@pytest.mark.parametrize("capture", ["0", "1.5", "nan", "-0.2"])
def test_read_traces_rejects_capture_outside_unit_interval(tmp_path, capture):
    path = tmp_path / "pool.trc"
    path.write_text(f"# comment\n#trace v1 seed=0 capture={capture}\nu\t0\t1\t0.0\t5.0\n")
    with pytest.raises(ParseError, match="capture") as exc:
        read_traces(path)
    assert exc.value.line == 2


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_trace_rejects_non_finite_sizes(bad):
    sizes = np.array([1.0, bad, 3.0])
    with pytest.raises(ValidationError, match="non-finite"):
        Trace(seq_id="u", estimated_sizes=sizes, per_step_hit_counts=np.ones(3, np.int64),
              per_step_durations=np.ones(3), estimated_iterations=np.ones(3),
              noise_level=0.0)

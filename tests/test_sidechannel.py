import math
import os
import subprocess
import sys
import threading
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nssfp import sidechannel
from nssfp.errors import InsufficientDataError, ParseError, UsageError, ValidationError
from nssfp.fingerprint import Nss
from nssfp.sidechannel import (ChannelConfig, RawTrace, Trace, estimate_global_slope,
                               filter_noisy, noise_level, read_traces, rescore_noise,
                               segment_and_reconstruct, simulate_pool, simulate_trace,
                               trace_rng, write_traces)


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


@pytest.mark.parametrize("value", [math.nan, math.inf, 10**400], ids=["nan", "inf", "10**400"])
@pytest.mark.parametrize("field", ["capture_fraction", "cycles_per_iteration",
                                   "hit_jitter_std", "outlier_rate", "outlier_scale",
                                   "segment_gap_cycles"])
def test_config_rejects_nan(field, value):
    with pytest.raises(ValidationError, match=field):
        ChannelConfig(**{field: value})


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
    # a different sequence id gets an independent stream
    c = simulate_trace(_nss(np.full(30, 1500), "other"), 4000, cfg)
    assert not np.array_equal(a.hit_times, c.hit_times)


def test_capture_fraction_hits():
    # 10000 iterations at 1.1% capture: about 110 hits per step
    cfg = ChannelConfig(rng_seed=5)
    nss = _nss(np.full(200, 2000))
    counts = segment_and_reconstruct(simulate_trace(nss, 12000, cfg), cfg,
                                     12000).per_step_hit_counts
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


def _trace_file_by_lines(traces, cfg, header_lines=()) -> bytes:
    """The trace file as a loop of one f-string per step writes it: the byte
    oracle of ``write_traces``."""
    lines = [f"#trace v1 seed={cfg.rng_seed} capture={cfg.capture_fraction!r}"]
    lines += [f"# {line}" for line in header_lines]
    for t in traces:
        columns = zip(t.per_step_hit_counts.astype(np.int64, copy=False).tolist(),
                      t.per_step_durations.astype(float, copy=False).tolist(),
                      t.estimated_sizes.astype(float, copy=False).tolist())
        for step, (count, duration, size) in enumerate(columns):
            lines.append(f"{t.seq_id}\t{step}\t{count}\t{duration!r}\t{size!r}")
    return "".join(f"{line}\n" for line in lines).encode("utf-8")


_FINITE = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def _trace_pools(draw):
    """Traces with ids holding ``%`` or non-ASCII, zero steps, sizes that repeat
    or differ only in the sign of zero, and columns of other dtypes."""
    sizes = st.one_of(st.sampled_from([0.0, -0.0, 1.5, 7361.0, 5e-324, 1e308]), _FINITE)
    pool = []
    for i, seq_id in enumerate(draw(st.lists(st.sampled_from(["u", "a%d", "100%", "\u00e9"]),
                                             unique=True, max_size=4))):
        n = draw(st.integers(0, 6))
        counts = np.array(draw(st.lists(st.integers(0, 2**40), min_size=n, max_size=n)),
                          dtype=draw(st.sampled_from([np.int64, np.float64])))
        durations = np.array(draw(st.lists(st.one_of(_FINITE, st.integers(-10, 10)),
                                           min_size=n, max_size=n)))
        pool.append(Trace(seq_id=seq_id, estimated_sizes=np.array(
            draw(st.lists(sizes, min_size=n, max_size=n)), dtype=np.float64),
            per_step_hit_counts=counts, per_step_durations=durations,
            estimated_iterations=np.zeros(n), noise_level=0.0))
    return pool


def test_trace_writer_equals_line_loop(tmp_path):
    cfg = ChannelConfig(rng_seed=4)
    pool = simulate_pool([_nss(np.arange(40) * 90 + 7, seq_id=f"x{i}") for i in range(3)],
                         4000, cfg)
    write_traces(tmp_path / "pool.trc", pool, cfg, header_lines=["seed=4"])
    assert (tmp_path / "pool.trc").read_bytes() == _trace_file_by_lines(pool, cfg, ["seed=4"])

    @settings(max_examples=200, deadline=None)
    @given(_trace_pools())
    def check(traces):
        path = tmp_path / "drawn.trc"
        write_traces(path, traces, cfg)
        assert path.read_bytes() == _trace_file_by_lines(traces, cfg)

    check()


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
    pytest.param("u\t1\t1\tnan\t5.0", "non-finite duration", id="nan-duration"),
    pytest.param("u\t1\t1\t0.0\tinf", "non-finite estimated size", id="inf-size"),
    pytest.param("u\t1\t1\t0.0\t-Infinity", "non-finite estimated size", id="-inf-size"),
    pytest.param("u\t1\t1\t0.0\tNaN", "non-finite estimated size", id="NaN-size"),
    pytest.param("u\t1\t-1\t0.0\t5.0", "negative hit count", id="negative-count"),
    pytest.param(f"u\t1\t{2**63}\t0.0\t5.0", "hit count out of the int64 range",
                 id="count-2**63"),
    pytest.param("u\t1\t99999999999999999999\t0.0\t5.0", "hit count out of the int64 range",
                 id="count-1e20"),
])
def test_read_traces_rejects_non_finite_values(tmp_path, row, message):
    # the error names the field at fault and the line of its record
    path = tmp_path / "pool.trc"
    path.write_text(f"#trace v1 seed=0 capture=0.5\n{row}\nu\t0\t1\t0.0\t5.0\n")
    with pytest.raises(ParseError) as exc:
        read_traces(path)
    assert str(exc.value) == f"{path}:2: {message}"


def test_read_traces_rejects_negative_hit_counts(tmp_path):
    # at capture 0.5, -4 hits would read back as -8 iterations
    path = tmp_path / "pool.trc"
    path.write_text("#trace v1 seed=0 capture=0.5\nu\t0\t1\t0.0\t5.0\nu\t1\t-4\t0.0\t5.0\n")
    with pytest.raises(ParseError, match="negative") as exc:
        read_traces(path)
    assert str(exc.value).startswith(f"{path}:3:")


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


# --- step-loop oracles: the simulator and reconstruction as loops, kept to
# check the array code bit for bit ---------------------------------------

def _loop_simulate_trace(nss, vocab_size, cfg, rng=None):
    """(hit count per step, hit times) of the trace, one step at a time."""
    rng = trace_rng(cfg, nss.seq_id) if rng is None else rng
    cpi = cfg.cycles_per_iteration
    counts, times = [], []
    cursor = 0.0
    for size in nss.sizes:
        iters = int(vocab_size - size)
        dilate = cfg.outlier_scale if rng.random() < cfg.outlier_rate else 1.0
        k = int(rng.binomial(iters, cfg.capture_fraction)) if iters > 0 else 0
        counts.append(k)
        if k > 0:
            positions = np.sort(rng.random(k)) * iters
            ts = cursor + (positions + 1.0) * cpi * dilate
            ts += rng.normal(0.0, cfg.hit_jitter_std, k) * dilate
            np.maximum.accumulate(ts, out=ts)
            times.append(ts)
        cursor += iters * cpi * dilate + cfg.segment_gap_cycles
    hit_times = np.concatenate(times) if times else np.empty(0, dtype=np.float64)
    np.maximum.accumulate(hit_times, out=hit_times)
    return np.array(counts, dtype=np.int64), hit_times


def _segment_hits(times, cfg):
    """(empty_steps_before, segment_times) per observed step."""
    if times.size == 0:
        return []
    gap = float(cfg.segment_gap_cycles)
    if times.size == 1:
        raw_segments = [times]
    else:
        diffs = np.diff(times)
        threshold = min(50.0 * max(float(np.median(diffs)), 1e-9), gap / 2.0)
        raw_segments = np.split(times, np.flatnonzero(diffs > threshold) + 1)
    segments = []
    leading = int(math.floor(times[0] / gap + 0.25))
    current = raw_segments[0]
    for seg in raw_segments[1:]:
        separation = float(seg[0] - current[-1])
        if separation < gap / 2.0:
            current = np.concatenate([current, seg])
            continue
        segments.append((leading, current))
        leading = max(0, int(round(separation / gap)) - 1)
        current = seg
    segments.append((leading, current))
    return segments


def _loop_counts_and_durations(times, n, cfg):
    counts, durations = [], []
    for empty_before, seg in _segment_hits(times, cfg):
        for _ in range(empty_before):
            if len(counts) < n:
                counts.append(0)
                durations.append(0.0)
        if len(counts) >= n:
            break
        counts.append(int(seg.size))
        durations.append(float(seg[-1] - seg[0]) if seg.size > 1 else 0.0)
    while len(counts) < n:
        counts.append(0)
        durations.append(0.0)
    return (np.array(counts[:n], dtype=np.int64),
            np.array(durations[:n], dtype=np.float64))


def _same(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@settings(max_examples=200, deadline=None)
@given(data=st.data(), vocab=st.integers(1, 300),
       capture=st.sampled_from([1.0, 0.3, 0.01, 0.001]),
       jitter=st.sampled_from([0.0, 40.0, 3e4, 1e8]),
       outlier=st.sampled_from([0.0, 0.2, 1.0]),
       gap=st.sampled_from([20_000_000, 5_000]), seed=st.integers(0, 2**32 - 1))
def test_simulator_equals_step_loop(data, vocab, capture, jitter, outlier, gap, seed):
    # low capture leaves zero-hit steps; jitter far above cycles_per_iteration
    # gives negative first times and hits that cross into the next step
    sizes = data.draw(st.lists(st.integers(0, vocab), min_size=1, max_size=30))
    cfg = ChannelConfig(capture_fraction=capture, hit_jitter_std=jitter,
                        outlier_rate=outlier, segment_gap_cycles=gap, rng_seed=seed)
    nss = _nss(sizes, seq_id=f"s{seed}")
    raw = simulate_trace(nss, vocab, cfg)
    _, times = _loop_simulate_trace(nss, vocab, cfg)
    assert _same(raw.hit_times, times)
    trace = segment_and_reconstruct(raw, cfg, vocab)
    counts, durations = _loop_counts_and_durations(times, len(sizes), cfg)
    assert _same(trace.per_step_hit_counts, counts)
    assert _same(trace.per_step_durations, durations)


class _EveryIterationHit:
    """A generator whose hit counts ignore the capture fraction: every
    iteration is a hit, far more than the simulator's buffer expects."""

    def __init__(self, rng):
        self._rng = rng

    def binomial(self, n, p):
        return self._rng.binomial(n, 1.0)

    def __getattr__(self, name):
        return getattr(self._rng, name)


def test_simulator_grows_its_hit_buffer(monkeypatch):
    cfg = ChannelConfig(capture_fraction=0.001, rng_seed=6)
    nss = _nss([0, 900, 10, 1000, 500] * 4)
    monkeypatch.setattr(sidechannel, "trace_rng",
                        lambda cfg, seq_id: _EveryIterationHit(trace_rng(cfg, seq_id)))
    raw = simulate_trace(nss, 1000, cfg)
    counts, times = _loop_simulate_trace(nss, 1000, cfg,
                                         rng=_EveryIterationHit(trace_rng(cfg, nss.seq_id)))
    assert raw.hit_times.size == int(np.sum(1000 - nss.sizes)) == counts.sum()
    assert _same(raw.hit_times, times)


class _NumpySpy:
    """numpy as the simulator sees it, recording which of its branches ran:
    the steps whose hits it dilated and each running max it took."""

    def __init__(self):
        self.dilated_steps, self.running_maxes = None, 0
        self.maximum = SimpleNamespace(accumulate=self._accumulate)

    def _accumulate(self, times):
        self.running_maxes += 1
        return np.maximum.accumulate(times)

    def flatnonzero(self, mask):
        self.dilated_steps = np.flatnonzero(mask)
        return self.dilated_steps

    def __getattr__(self, name):
        return getattr(np, name)


@pytest.mark.parametrize("outlier, dilated", [(0.0, "none"), (0.3, "some"), (1.0, "all")])
@pytest.mark.parametrize("jitter, running_max", [(0.0, False), (3e4, True)])
def test_simulator_branches_equal_step_loop(monkeypatch, outlier, dilated, jitter,
                                            running_max):
    # no jitter keeps every hit at or after the one before; jitter far above
    # cycles_per_iteration puts some behind it
    cfg = ChannelConfig(capture_fraction=0.3, hit_jitter_std=jitter, outlier_rate=outlier,
                        rng_seed=11)
    nss = _nss([0, 40, 300, 120, 7, 299, 60, 0, 250, 90] * 3)
    spy = _NumpySpy()
    monkeypatch.setattr(sidechannel, "np", spy)
    raw = simulate_trace(nss, 300, cfg)
    monkeypatch.undo()
    counts, times = _loop_simulate_trace(nss, 300, cfg)
    assert _same(raw.hit_times, times)
    scaled, with_hits = spy.dilated_steps.size, np.count_nonzero(counts)
    assert {"none": scaled == 0, "some": 0 < scaled < with_hits,
            "all": scaled == with_hits}[dilated]
    assert spy.running_maxes == running_max
    # the trace holds its own times, no view of the simulator's draws buffer
    assert raw.hit_times.base is None and raw.hit_times.flags.owndata


@st.composite
def _hit_streams(draw):
    """(step gap, trace length, sorted hit times): runs of hits separated by
    fractions and multiples of the step gap, sometimes more runs than steps."""
    gap = draw(st.sampled_from([1_000, 20_000_000]))
    n = draw(st.integers(1, 12))
    if draw(st.booleans()):
        times = sorted(draw(st.lists(st.floats(-2.0 * gap, 8.0 * gap), max_size=40)))
        return gap, n, np.array(times, dtype=np.float64)
    t = draw(st.floats(-1.3, 3.0)) * gap  # jitter can push the first hit below 0
    times: list[float] = []
    for _ in range(draw(st.integers(0, 20))):
        if times:
            t = times[-1] + gap * draw(st.sampled_from([0.1, 0.5, 1.0, 1.5, 2.5, 4.0])
                                       | st.floats(0.0, 6.0))
        spread = gap * draw(st.sampled_from([0.0, 1e-4, 0.01, 0.3]))
        within = draw(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=6))
        times.extend(t + spread * np.sort(within))
    return gap, n, np.array(times, dtype=np.float64)


@settings(max_examples=400, deadline=None)
@given(_hit_streams())
# gaps of exactly half the step gap: 50x the median above it (no split), below
# it (a split) and equal to it (no split)
@example((1_000, 4, np.array([0.0, 500.0, 1000.0, 1500.0])))
@example((1_000, 3, np.array([0.0, 1.0, 2.0, 3.0, 4.0, 504.0, 505.0, 506.0])))
@example((1_000, 3, np.array([0.0, 10.0, 20.0, 30.0, 530.0, 540.0, 550.0])))
def test_reconstruction_equals_segment_loop(stream):
    gap, n, times = stream
    cfg = ChannelConfig(capture_fraction=0.25, segment_gap_cycles=gap)
    raw = RawTrace("x", times, n)
    trace = segment_and_reconstruct(raw, cfg, 50)
    counts, durations = _loop_counts_and_durations(times, n, cfg)
    assert _same(trace.per_step_hit_counts, counts)
    assert _same(trace.per_step_durations, durations)


def _serial_pool(series, vocab_size, cfg):
    """The pool as a loop over the two stages: the oracle of ``simulate_pool``."""
    return [segment_and_reconstruct(simulate_trace(x, vocab_size, cfg), cfg, vocab_size)
            for x in series]


def _pool_series():
    rng = np.random.default_rng(3)
    return [_nss(rng.integers(0, 500, size=30 + i), seq_id=f"p{i}") for i in range(7)]


def test_simulate_pool_equals_serial_loop():
    cfg = ChannelConfig(rng_seed=8, outlier_rate=0.2)
    series = _pool_series()
    pool = simulate_pool(series, 500, cfg)
    assert [t.seq_id for t in pool] == [x.seq_id for x in series]
    _assert_same_traces(pool, _serial_pool(series, 500, cfg))


def _assert_same_traces(pool, serial):
    assert len(pool) == len(serial)
    for t, alone in zip(pool, serial):
        assert t.seq_id == alone.seq_id and t.noise_level == alone.noise_level
        for field in ("estimated_sizes", "per_step_hit_counts", "per_step_durations",
                      "estimated_iterations"):
            assert _same(getattr(t, field), getattr(alone, field))


# a trace draws only from its own id's stream, so a caller may batch, reorder or
# repeat series and get the same trace for each
@pytest.mark.parametrize("batching", [1, 2, 3, 7, "reversed", "repeated"])
def test_simulate_pool_is_the_same_however_the_series_are_batched(batching):
    cfg = ChannelConfig(rng_seed=8, outlier_rate=0.2)
    series = _pool_series()
    whole = simulate_pool(series, 500, cfg)
    if batching == "reversed":
        _assert_same_traces(simulate_pool(series[::-1], 500, cfg), whole[::-1])
    elif batching == "repeated":
        _assert_same_traces(simulate_pool(series + series, 500, cfg), whole + whole)
    else:
        n = len(series)
        batched = [t for i in range(batching)
                   for t in simulate_pool(series[n * i // batching:n * (i + 1) // batching],
                                          500, cfg)]
        _assert_same_traces(batched, whole)


@pytest.mark.parametrize("bad", [[5], [3, 5], [1, 6], [4, 6], [0, 6]])
def test_simulate_pool_raises_the_first_error_in_series_order(bad):
    cfg = ChannelConfig(rng_seed=2)
    series = [_nss([100, 600 if i in bad else 200], seq_id=f"p{i}") for i in range(7)]
    with pytest.raises(ValidationError) as serial:
        _serial_pool(series, 500, cfg)
    assert f"'p{bad[0]}'" in str(serial.value)
    with pytest.raises(ValidationError) as pooled:
        simulate_pool(series, 500, cfg)
    assert str(pooled.value) == str(serial.value)


def test_simulate_pool_of_no_series_is_empty():
    assert simulate_pool([], 500, ChannelConfig()) == []


class _LocalError(ValidationError):
    """An error class no other module defines."""


@pytest.mark.parametrize("bad", [0, 3, 6])
@pytest.mark.parametrize("error", [ValidationError, _LocalError, MemoryError,
                                   KeyboardInterrupt])
def test_a_failing_series_stops_the_pool_with_its_own_exception(monkeypatch, capfd,
                                                                error, bad):
    """Nothing retries, swallows or reports a failure: the exception that one
    series' simulation raises leaves the pool as it is, and no later series is
    simulated."""
    simulate, seen, raised = sidechannel.simulate_trace, [], error(f"p{bad} failed")

    def failing(nss, vocab_size, cfg):
        seen.append(nss.seq_id)
        if nss.seq_id == f"p{bad}":
            raise raised
        return simulate(nss, vocab_size, cfg)

    monkeypatch.setattr(sidechannel, "simulate_trace", failing)
    capfd.readouterr()
    with pytest.raises(error) as caught:
        simulate_pool(_pool_series(), 500, ChannelConfig(rng_seed=8))
    assert caught.value is raised
    assert seen == [f"p{i}" for i in range(bad + 1)]
    assert capfd.readouterr() == ("", "")


def test_simulate_pool_runs_every_series_on_the_calling_thread(monkeypatch):
    # four usable CPUs and a fork that raises: a pool would show a second
    # process or a helper thread here
    caller, simulate, seen = os.getpid(), sidechannel.simulate_trace, []

    def watched(nss, vocab_size, cfg):
        seen.append((nss.seq_id, os.getpid(), [t.name for t in threading.enumerate()]))
        return simulate(nss, vocab_size, cfg)

    def no_fork():
        raise AssertionError("simulate_pool forked")

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)
    monkeypatch.setattr(os, "fork", no_fork)
    monkeypatch.setattr(sidechannel, "simulate_trace", watched)
    series = _pool_series()
    assert len(simulate_pool(series, 500, ChannelConfig())) == len(series)
    assert seen == [(x.seq_id, caller, [threading.main_thread().name]) for x in series]


def test_simulate_pool_imports_no_process_pool():
    # a fresh interpreter: another test may have imported these into this one
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    child = subprocess.run([sys.executable, "-c", """if True:
        import os, sys
        import numpy as np
        import nssfp
        from nssfp.fingerprint import Nss
        os.sched_getaffinity = lambda pid: {0, 1, 2, 3}
        series = [Nss(f"p{i}", 0.9, "m", np.array([100, 200])) for i in range(3)]
        assert len(nssfp.simulate_pool(series, 500, nssfp.ChannelConfig())) == 3
        print(sorted({"multiprocessing", "concurrent.futures"} & set(sys.modules)))
    """], env=env, capture_output=True, text=True, timeout=120)
    assert child.returncode == 0, child.stderr
    assert child.stdout == "[]\n"


def test_squares_prefix_is_computed_once_and_is_no_field():
    trace = Trace("t", np.array([3.0, -1.0, 2.0]), np.zeros(3, dtype=np.int64), np.zeros(3),
                  np.zeros(3), 0.0)
    assert trace.squares_prefix.tolist() == [0.0, 9.0, 10.0, 14.0]
    assert trace.squares_prefix is trace.squares_prefix
    assert "squares_prefix" not in repr(trace)
    assert trace == replace(trace) and "squares_prefix" not in vars(replace(trace))


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_slope_whose_square_underflows_is_unusable(tmp_path):
    # through-origin slope 7e-201: its square underflows to 0
    path = tmp_path / "tiny.trc"
    path.write_text("#trace v1 seed=0 capture=0.5\n"
                    "u\t0\t1\t1e-200\t5.0\nu\t1\t2\t3e-200\t4.0\n")
    (trace,), _ = read_traces(path)
    assert trace.noise_level == 0.0
    with pytest.raises(InsufficientDataError):
        estimate_global_slope([trace])
    for slope in (7e-201, 1e200, math.nan, math.inf):
        with pytest.raises(UsageError):
            noise_level(trace, slope)

"""Parameterized stand-in for a cache-probe measurement of the removal loop.

The probe observes a fraction of the victim's loop iterations as
timestamped hits. Per step, each iteration is captured independently with
``capture_fraction`` probability (modeled as a binomial hit count with
uniform hit positions), so dividing the hit count by the capture fraction
gives an unbiased iteration estimate. Step boundaries show up as large
timestamp gaps; occasional steps are dilated by transient interference,
which is what the noise score and the trace filter are for.
"""

import contextlib
import math
import os
import zlib
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .errors import (InsufficientDataError, UsageError, ValidationError, check_id,
                     read_series, write_records)
from .fingerprint import Nss

DEFAULT_CAPTURE_FRACTION = 0.011
DEFAULT_DROP_FRACTION = 0.06
TRACE_HEADER = "#trace v1"
TRACE_FIELDS = (("step", np.int64), ("hit count", np.int64), ("duration", np.float64),
                ("estimated size", np.float64))


@dataclass(frozen=True)
class ChannelConfig:
    capture_fraction: float = DEFAULT_CAPTURE_FRACTION
    cycles_per_iteration: float = 300.0
    hit_jitter_std: float = 40.0
    outlier_rate: float = 0.01
    outlier_scale: float = 10.0
    segment_gap_cycles: int = 20_000_000
    rng_seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.capture_fraction <= 1.0:
            raise ValidationError(f"capture_fraction must be in (0, 1], got {self.capture_fraction}")
        # written so that NaN fails every check
        if not (self.cycles_per_iteration > 0 and _finite(self.cycles_per_iteration)):
            raise ValidationError("cycles_per_iteration must be positive and finite")
        if not (self.hit_jitter_std >= 0 and _finite(self.hit_jitter_std)):
            raise ValidationError("hit_jitter_std must be non-negative and finite")
        if not 0.0 <= self.outlier_rate <= 1.0:
            raise ValidationError("outlier_rate must be a probability")
        if not (self.outlier_scale >= 1.0 and _finite(self.outlier_scale)):
            raise ValidationError("outlier_scale must be >= 1 and finite")
        if not (self.segment_gap_cycles > 0 and _finite(self.segment_gap_cycles)):
            raise ValidationError("segment_gap_cycles must be positive and fit a finite float")

    def with_seed(self, seed: int) -> "ChannelConfig":
        return replace(self, rng_seed=int(seed))


def _finite(value) -> bool:
    """Whether ``value`` is a finite float; an int beyond the float range is not."""
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


@dataclass(frozen=True)
class RawTrace:
    """Timestamped hit stream. ``hit_steps[i]`` is ground-truth metadata
    recording which step produced ``hit_times[i]``; reconstruction does not
    use it."""

    seq_id: str
    hit_steps: np.ndarray
    hit_times: np.ndarray
    true_step_count: int

    def __post_init__(self):
        # a channel setting whose products overflow leaves inf or NaN times
        if not np.isfinite(self.hit_times).all():
            raise ValidationError(f"trace {self.seq_id!r} has non-finite hit times; "
                                  "the channel settings overflow")
        if np.any(np.diff(self.hit_times) < 0):
            raise ValidationError("hit timestamps must be non-decreasing")


@dataclass(frozen=True)
class Trace:
    """Reconstructed per-step measurement the matcher consumes.

    A zero in ``per_step_hit_counts`` flags a step the probe never saw;
    its estimate degrades to the full vocabulary size (zero iterations
    observed) rather than desynchronizing the alignment. ``noise_level`` is
    0.0 until :func:`rescore_noise` scores the trace against a slope.
    """

    seq_id: str
    estimated_sizes: np.ndarray
    per_step_hit_counts: np.ndarray
    per_step_durations: np.ndarray
    estimated_iterations: np.ndarray
    noise_level: float

    def __post_init__(self):
        check_id(self.seq_id, "trace")
        n = self.estimated_sizes.size
        if self.per_step_hit_counts.size != n or self.per_step_durations.size != n \
                or self.estimated_iterations.size != n:
            raise ValidationError("per-step arrays must have equal length")
        if not np.isfinite(self.estimated_sizes).all():
            raise ValidationError(f"trace {self.seq_id!r} has non-finite estimated sizes")

    @property
    def step_count(self) -> int:
        return int(self.estimated_sizes.size)

    @cached_property
    @np.errstate(over="ignore")  # a square that overflows is inf, which the screen keeps
    def squares_prefix(self) -> np.ndarray:
        """Prefix sums of the squared estimates from 0, for the matcher's screen."""
        est = np.asarray(self.estimated_sizes, dtype=np.float64)
        return np.concatenate(([0.0], np.cumsum(est * est)))


def trace_rng(cfg: ChannelConfig, seq_id: str) -> np.random.Generator:
    """Per-sequence generator, stable under corpus reordering or subsetting."""
    return np.random.default_rng(
        np.random.SeedSequence([cfg.rng_seed & 0xFFFFFFFF, zlib.crc32(seq_id.encode())]))


# products that overflow leave inf or NaN hit times, which RawTrace rejects
@np.errstate(over="ignore", invalid="ignore")
def simulate_trace(nss: Nss, vocab_size: int, cfg: ChannelConfig) -> RawTrace:
    """Run the probe against a victim whose loop counts follow the NSS.

    Per step t the victim's removal loop runs ``vocab_size - sizes[t]``
    iterations. The probe captures a binomial fraction of them at jittered
    timestamps; with probability ``outlier_rate`` the whole step is dilated
    by ``outlier_scale``. Steps are separated by ``segment_gap_cycles``.
    Only the generator draws and the sort of each step's hit positions run
    step by step; timestamps take array passes.
    """
    if np.any(nss.sizes > vocab_size):
        raise ValidationError(
            f"NSS {nss.seq_id!r} has sizes above the vocabulary size {vocab_size}")
    rng = trace_rng(cfg, nss.seq_id)
    cpi, capture = cfg.cycles_per_iteration, cfg.capture_fraction
    iters = vocab_size - nss.sizes
    dilation = np.empty(iters.size)
    counts = np.zeros(iters.size, dtype=np.int64)
    expected = capture * float(iters.sum())
    draws = np.empty((2, int(expected + 4.0 * math.sqrt(expected)) + 16))
    end = 0
    for t, step_iters in enumerate(iters.tolist()):
        dilation[t] = rng.random()
        k = int(rng.binomial(step_iters, capture)) if step_iters > 0 else 0
        if k > 0:
            if end + k > draws.shape[1]:
                draws = np.concatenate((draws, np.empty((2, end + k))), axis=1)
            rng.random(out=draws[0, end:end + k])
            draws[0, end:end + k].sort()
            rng.standard_normal(out=draws[1, end:end + k])
            counts[t], end = k, end + k
    dilate = np.where(dilation < cfg.outlier_rate, cfg.outlier_scale, 1.0)
    step_cycles = iters * cpi * dilate + float(cfg.segment_gap_cycles)
    # cumsum adds in sequence: each step starts at a step loop's running sum
    start = np.append(0.0, np.cumsum(step_cycles[:-1]))
    hit_steps = np.repeat(np.arange(iters.size, dtype=np.int64), counts)
    hit_dilate = dilate[hit_steps]
    # in place, in the step loop's operand order: start + ((u * iters + 1) * cpi) * dilate
    times, jitter = draws[0, :end], draws[1, :end]
    times *= iters[hit_steps]
    times += 1.0
    times *= cpi
    times *= hit_dilate
    times += start[hit_steps]
    # normal(0.0, std, k) is 0.0 + std * standard_normal(k): same draws, same sums
    jitter *= cfg.hit_jitter_std
    times += np.multiply(jitter, hit_dilate, out=jitter)
    hit_times = np.maximum.accumulate(times)  # a fresh array: the trace pins no draws buffer
    return RawTrace(seq_id=nss.seq_id, hit_steps=hit_steps, hit_times=hit_times,
                    true_step_count=nss.length)


def segment_and_reconstruct(raw: RawTrace, cfg: ChannelConfig, vocab_size: int) -> Trace:
    """Rebuild per-step iteration estimates from the raw hit stream.

    The stream splits, one segment per observed step, at every inter-hit gap
    over half the step gap; a shorter gap lies within a (perhaps dilated)
    step. A gap of exactly half the step gap splits only where it is also
    over 50x the median inter-hit gap. A gap of several step periods infers
    empty steps, so later steps stay aligned; unseen trailing steps pad as
    zero hits. Hit counts are rescaled by 1/capture_fraction. The noise level
    is 0.0 until :func:`rescore_noise` scores the trace against the global
    slope.
    """
    n = raw.true_step_count
    if n < 1:
        raise UsageError("raw trace has no steps")
    times, gap = raw.hit_times, float(cfg.segment_gap_cycles)
    counts, durations = np.zeros(n, dtype=np.int64), np.zeros(n)
    if times.size:
        diffs = np.diff(times)
        split = diffs > gap / 2.0
        # the median, a partition of every gap, matters only to a gap of gap / 2
        tie = diffs == gap / 2.0
        if tie.any() and 50.0 * max(float(np.median(diffs)), 1e-9) < gap / 2.0:
            split |= tie
        bounds = np.flatnonzero(split)
        starts, ends = np.append(0, bounds + 1), np.append(bounds + 1, times.size)
        # unseen steps before each segment, in [0, n]: none before a first
        # hit that jitter pushed below time 0
        empty = np.clip(np.append(np.floor(times[0] / gap + 0.25),
                                  np.rint(diffs[bounds] / gap) - 1.0), 0, n)
        step = np.cumsum(empty.astype(np.int64)) + np.arange(starts.size)
        seen = step < n
        counts[step[seen]] = (ends - starts)[seen]
        durations[step[seen]] = times[ends[seen] - 1] - times[starts[seen]]
    est_iters = counts / cfg.capture_fraction
    return Trace(seq_id=raw.seq_id, estimated_sizes=vocab_size - est_iters,
                 per_step_hit_counts=counts, per_step_durations=durations,
                 estimated_iterations=est_iters, noise_level=0.0)


def simulate_pool(series: list[Nss], vocab_size: int, cfg: ChannelConfig) -> list[Trace]:
    """Simulate and reconstruct one trace per series, each on its own stream.

    The series split into one contiguous chunk per usable CPU. This process
    runs the first chunk; a forked worker process runs each other one and
    sends its traces back over its own one-way pipe, which this process then
    reads in series order on its own thread. A chunk whose worker sends
    nothing (it raised, or died, even mid-message) is simulated here. Each
    trace draws only from :func:`trace_rng`, so the pool returns or raises
    what a serial loop does, however it is split; no worker is killed.
    """
    parts = max(1, min(len(series), _usable_cpus())) if hasattr(os, "fork") else 1
    chunks = [series[len(series) * i // parts:len(series) * (i + 1) // parts]
              for i in range(parts)]
    if parts == 1:
        return _simulate_chunk(chunks[0], vocab_size, cfg)
    # imported here, so that a run which never pools does not pay for it
    import multiprocessing
    # fork, not the platform default: Python 3.14 makes forkserver the POSIX one
    context, pool = multiprocessing.get_context("fork"), []
    try:
        for chunk in chunks[1:]:
            reader, writer = context.Pipe(duplex=False)
            worker = context.Process(target=_send_chunk,
                                     args=(reader, writer, chunk, vocab_size, cfg))
            with writer:  # then the worker holds the only writer: its exit reads as EOF
                worker.start()
            pool.append((reader, worker))
        traces = _simulate_chunk(chunks[0], vocab_size, cfg)
        for (reader, _), chunk in zip(pool, chunks[1:]):
            try:
                traces += reader.recv()
            except (EOFError, OSError):
                traces += _simulate_chunk(chunk, vocab_size, cfg)
        return traces
    finally:
        # every read end before any join: a later worker holds copies of the earlier
        # ones, so a worker blocked on a full pipe stops only once those have exited
        for reader, _ in pool:
            reader.close()
        for _, worker in pool:
            worker.join()


def _send_chunk(reader, writer, series: list[Nss], vocab_size: int, cfg: ChannelConfig):
    """A pool worker: sends its chunk's traces, or nothing, and lets no
    exception escape, since multiprocessing would print it."""
    reader.close()  # a read end left open here would block a send the caller stopped reading
    with contextlib.suppress(BaseException):
        writer.send(_simulate_chunk(series, vocab_size, cfg))


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _simulate_chunk(series: list[Nss], vocab_size: int, cfg: ChannelConfig) -> list[Trace]:
    return [segment_and_reconstruct(simulate_trace(x, vocab_size, cfg), cfg, vocab_size)
            for x in series]


# huge values overflow to inf or nan here; _usable_slope then rejects the slope
@np.errstate(over="ignore", invalid="ignore")
def _fit_slope(trace: Trace) -> float | None:
    """Least-squares through-origin slope of duration vs estimated iterations.

    None when the trace cannot support a fit (fewer than 2 steps, no
    observed iterations, durations that never advance, or a slope whose
    square underflows or overflows).
    """
    x = trace.estimated_iterations
    y = trace.per_step_durations
    if x.size < 2:
        return None
    sxx = float(np.sum(x * x))
    if sxx == 0.0:
        return None
    slope = float(np.sum(x * y) / sxx)
    return slope if _usable_slope(slope) else None


def _usable_slope(slope: float) -> bool:
    # noise_level divides by the square, which must not underflow or overflow
    return slope > 0.0 and 0.0 < float(slope) * float(slope) < math.inf


# a residual whose square overflows scores inf, the noisiest a trace can be
@np.errstate(over="ignore", invalid="ignore")
def noise_level(trace: Trace, global_slope: float) -> float:
    """Mean squared residual of the (iterations, duration) series against the
    expected line, normalized by the slope so the unit is iterations^2."""
    if trace.step_count < 2:
        raise UsageError("noise level needs at least 2 steps")
    if not _usable_slope(global_slope):
        raise UsageError(f"slope must be positive with a non-zero, finite square, "
                         f"got {global_slope!r}")
    resid = trace.per_step_durations - global_slope * trace.estimated_iterations
    return float(np.mean(resid * resid) / (global_slope * global_slope))


def estimate_global_slope(traces: list[Trace]) -> float:
    """Median of per-trace fitted slopes; robust to a few corrupted traces."""
    slopes = [s for s in (_fit_slope(t) for t in traces) if s is not None]
    if not slopes:
        raise InsufficientDataError("no trace with >= 2 usable steps to fit a slope")
    return float(np.median(slopes))


def rescore_noise(traces: list[Trace], global_slope: float) -> list[Trace]:
    return [replace(t, noise_level=noise_level(t, global_slope)) for t in traces]


def filter_noisy(traces: list[Trace], drop_fraction: float = DEFAULT_DROP_FRACTION
                 ) -> tuple[list[Trace], list[Trace]]:
    """Drop the ceil(drop_fraction * n) noisiest traces, keeping order stable."""
    if not 0.0 <= drop_fraction < 1.0:
        raise UsageError(f"drop_fraction must be in [0, 1), got {drop_fraction}")
    n_drop = math.ceil(drop_fraction * len(traces)) if traces else 0
    if n_drop == 0:
        return list(traces), []
    ranked = sorted(range(len(traces)),
                    key=lambda i: (-traces[i].noise_level, i))[:n_drop]
    dropped_idx = set(ranked)
    kept = [t for i, t in enumerate(traces) if i not in dropped_idx]
    dropped = [t for i, t in enumerate(traces) if i in dropped_idx]
    return kept, dropped


def prepare_pool(traces: list[Trace], drop_fraction: float = DEFAULT_DROP_FRACTION
                 ) -> tuple[list[Trace], list[Trace], float]:
    """Score every trace against the global slope and drop the noisiest.

    Returns (kept, dropped, global slope), the pool that d(N) is fitted on
    and that candidates are matched against.
    """
    slope = estimate_global_slope(traces)
    kept, dropped = filter_noisy(rescore_noise(traces, slope), drop_fraction)
    return kept, dropped, slope


def write_traces(path, traces: list[Trace], cfg: ChannelConfig, header_lines=()):
    """Trace interchange file: one rescaled measurement record per step, written
    one trace at a time (byte oracle: the f-string loop in ``tests/test_sidechannel.py``)."""
    # a pool repeats few estimated sizes: format each bit pattern once
    sizes = np.concatenate([t.estimated_sizes.astype(float, copy=False) for t in traces]
                           or [np.empty(0)])
    distinct, which = np.unique(sizes.view(np.int64), return_inverse=True)
    size_text = list(map(repr, distinct.view(np.float64).tolist()))

    def chunks():
        at = 0
        for t in traces:
            n = t.step_count
            fields = [None] * (4 * n)
            fields[0::4] = range(n)
            fields[1::4] = t.per_step_hit_counts.astype(np.int64, copy=False).tolist()
            fields[2::4] = t.per_step_durations.astype(float, copy=False).tolist()
            fields[3::4] = map(size_text.__getitem__, which[at:at + n].tolist())
            at += n
            if n:
                line = t.seq_id.replace("%", "%%") + "\t%d\t%d\t%r\t%s\n"
                yield (line * n)[:-1] % tuple(fields)

    write_records(path, chunks(), f"{TRACE_HEADER} seed={cfg.rng_seed} "
                  f"capture={cfg.capture_fraction!r}", header_lines)


def _capture_fraction(text: str) -> float:
    capture = float(text)
    if not 0.0 < capture <= 1.0:
        raise ValueError(text)
    return capture


TRACE_TYPES = {"seed": int, "capture": _capture_fraction}


def read_traces(path) -> tuple[list[Trace], dict]:
    """Parse a trace file (:func:`~nssfp.errors.read_series`); returns traces
    (noise level 0.0, not yet scored) and header meta. The steps of each trace must
    cover 0..len-1 exactly once, in any order; hit counts must be non-negative
    and durations and estimated sizes finite. A file without records holds none.
    """
    meta, ids, columns = read_series(path, TRACE_HEADER, TRACE_TYPES, TRACE_FIELDS)
    return [Trace(seq_id=seq_id, estimated_sizes=sizes, per_step_hit_counts=counts,
                  per_step_durations=durations, estimated_iterations=counts / meta["capture"],
                  noise_level=0.0)
            for seq_id, counts, durations, sizes in zip(ids, *columns)], meta

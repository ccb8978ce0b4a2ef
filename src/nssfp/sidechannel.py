"""Parameterized stand-in for a cache-probe measurement of the removal loop.

The probe observes a fraction of the victim's loop iterations as
timestamped hits. Per step, each iteration is captured independently with
``capture_fraction`` probability (modeled as a binomial hit count with
uniform hit positions), so dividing the hit count by the capture fraction
gives an unbiased iteration estimate. Step boundaries show up as large
timestamp gaps; occasional steps are dilated by transient interference,
which is what the noise score and the trace filter are for.
"""

import math
import zlib
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .errors import (InsufficientDataError, UsageError, ValidationError, check_id,
                     read_series, write_records)
from .fingerprint import Nss

DEFAULT_CAPTURE_FRACTION = 0.011
DEFAULT_DROP_FRACTION = 0.06
#: The most hits a trace may expect, ``capture_fraction * sum(iterations)``: 2**26
#: admits V = 2**20 at the default capture for N = 2,700 steps (31M hits).
MAX_TRACE_HITS = 1 << 26
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
        if np.any(self.hit_times[1:] < self.hit_times[:-1]):
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
    by ``outlier_scale``. Steps are separated by ``segment_gap_cycles``. A
    trace expecting over ``MAX_TRACE_HITS`` hits is refused before any draw.
    Per step run only the four generator draws and the sort of the step's
    positions; per hit, array passes scale the times, dilate only the hits of
    dilated steps and take a running max only if some hit falls behind.
    """
    if np.any(nss.sizes > vocab_size):
        raise ValidationError(
            f"NSS {nss.seq_id!r} has sizes above the vocabulary size {vocab_size}")
    cpi, capture = cfg.cycles_per_iteration, cfg.capture_fraction
    iters = vocab_size - nss.sizes
    expected = capture * float(iters.sum())
    if expected > MAX_TRACE_HITS:
        raise UsageError(f"trace {nss.seq_id!r} expects {expected:.0f} hits, "
                         f"more than {MAX_TRACE_HITS}")
    rng = trace_rng(cfg, nss.seq_id)
    random, binomial, standard_normal = rng.random, rng.binomial, rng.standard_normal
    dilation, counts = [], []
    draws = np.empty((2, int(expected + 4.0 * math.sqrt(expected)) + 16))
    positions, jitter = draws
    end = 0
    for step_iters in iters.tolist():
        dilation.append(random())
        k = binomial(step_iters, capture) if step_iters > 0 else 0
        counts.append(k)
        if k > 0:
            stop = end + k
            if stop > positions.size:
                draws = np.concatenate((draws, np.empty((2, stop))), axis=1)
                positions, jitter = draws
            step_positions = positions[end:stop]
            random(out=step_positions)
            step_positions.sort()
            standard_normal(out=jitter[end:stop])
            end = stop
    counts = np.array(counts, dtype=np.int64)
    dilate = np.where(np.array(dilation) < cfg.outlier_rate, cfg.outlier_scale, 1.0)
    step_cycles = iters * cpi * dilate + float(cfg.segment_gap_cycles)
    # cumsum adds in sequence: each step starts at a step loop's running sum
    start = np.append(0.0, np.cumsum(step_cycles[:-1]))
    # in place, in the step loop's operand order: start + ((u * iters + 1) * cpi) * dilate,
    # and normal(0.0, std, k) * dilate is (0.0 + std * standard_normal(k)) * dilate
    times, jitter = draws[:, :end]
    times *= np.repeat(iters, counts)
    times += 1.0
    times *= cpi
    jitter *= cfg.hit_jitter_std
    stops = np.cumsum(counts)
    for t in np.flatnonzero((dilate != 1.0) & (counts > 0)).tolist():  # x * 1.0 == x
        draws[:, stops[t] - counts[t]:stops[t]] *= dilate[t]
    times += np.repeat(start, counts)
    times += jitter
    # a fresh array either way: the trace pins no draws buffer
    hit_times = np.maximum.accumulate(times) if np.any(times[1:] < times[:-1]) else times.copy()
    return RawTrace(nss.seq_id, np.repeat(np.arange(iters.size, dtype=np.int64), counts),
                    hit_times, nss.length)


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
    """Simulate and reconstruct one trace per series, in series order.

    Each trace draws only from :func:`trace_rng`, seeded by its id, so a
    trace does not depend on the other series; the first error in series
    order is the one raised.
    """
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

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

import numpy as np

from .errors import (InsufficientDataError, ParseError, UsageError, ValidationError,
                     parse_field, utf8_reader)
from .fingerprint import Nss
from .model import check_id

DEFAULT_CAPTURE_FRACTION = 0.011
DEFAULT_DROP_FRACTION = 0.06


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
        if self.cycles_per_iteration <= 0:
            raise ValidationError("cycles_per_iteration must be positive")
        if self.hit_jitter_std < 0:
            raise ValidationError("hit_jitter_std must be non-negative")
        if not 0.0 <= self.outlier_rate <= 1.0:
            raise ValidationError("outlier_rate must be a probability")
        if self.outlier_scale < 1.0:
            raise ValidationError("outlier_scale must be >= 1")
        if self.segment_gap_cycles <= 0:
            raise ValidationError("segment_gap_cycles must be positive")

    def with_seed(self, seed: int) -> "ChannelConfig":
        return replace(self, rng_seed=int(seed))


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
        if np.any(np.diff(self.hit_times) < 0):
            raise ValidationError("hit timestamps must be non-decreasing")


@dataclass(frozen=True)
class Trace:
    """Reconstructed per-step measurement the matcher consumes.

    A zero in ``per_step_hit_counts`` flags a step the probe never saw;
    its estimate degrades to the full vocabulary size (zero iterations
    observed) rather than desynchronizing the alignment.
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


def trace_rng(cfg: ChannelConfig, seq_id: str) -> np.random.Generator:
    """Per-sequence generator, stable under corpus reordering or subsetting."""
    return np.random.default_rng(
        np.random.SeedSequence([cfg.rng_seed & 0xFFFFFFFF, zlib.crc32(seq_id.encode())]))


def simulate_trace(nss: Nss, vocab_size: int, cfg: ChannelConfig,
                   rng: np.random.Generator | None = None) -> RawTrace:
    """Run the probe against a victim whose loop counts follow the NSS.

    Per step t the victim's removal loop runs ``vocab_size - sizes[t]``
    iterations. The probe captures a binomial fraction of them at jittered
    timestamps; with probability ``outlier_rate`` the whole step is dilated
    by ``outlier_scale``. Steps are separated by ``segment_gap_cycles``.
    """
    if np.any(nss.sizes > vocab_size):
        raise ValidationError(
            f"NSS {nss.seq_id!r} has sizes above the vocabulary size {vocab_size}")
    if rng is None:
        rng = trace_rng(cfg, nss.seq_id)
    cpi = cfg.cycles_per_iteration
    steps, times = [], []
    cursor = 0.0
    for t, size in enumerate(nss.sizes):
        iters = int(vocab_size - size)
        dilate = cfg.outlier_scale if rng.random() < cfg.outlier_rate else 1.0
        k = int(rng.binomial(iters, cfg.capture_fraction)) if iters > 0 else 0
        if k > 0:
            positions = np.sort(rng.random(k)) * iters
            ts = cursor + (positions + 1.0) * cpi * dilate
            ts += rng.normal(0.0, cfg.hit_jitter_std, k) * dilate
            np.maximum.accumulate(ts, out=ts)
            steps.append(np.full(k, t, dtype=np.int64))
            times.append(ts)
        cursor += iters * cpi * dilate + cfg.segment_gap_cycles
    if steps:
        hit_steps = np.concatenate(steps)
        hit_times = np.concatenate(times)
        np.maximum.accumulate(hit_times, out=hit_times)
    else:
        hit_steps = np.empty(0, dtype=np.int64)
        hit_times = np.empty(0, dtype=np.float64)
    return RawTrace(seq_id=nss.seq_id, hit_steps=hit_steps, hit_times=hit_times,
                    true_step_count=nss.length)


def _segment_hits(times: np.ndarray, cfg: ChannelConfig) -> list[tuple[int, np.ndarray]]:
    """Split a hit stream at large gaps, one segment per observed step.

    Returns (empty_steps_before, segment_times) pairs. Splitting uses 50x
    the median inter-hit gap; because a dilated step can stretch its
    internal gaps past that, split segments separated by less than half
    the configured step gap are merged back into one step. A separation
    spanning several step periods yields inferred empty steps so that
    later steps stay aligned.
    """
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


def segment_and_reconstruct(raw: RawTrace, cfg: ChannelConfig, vocab_size: int) -> Trace:
    """Rebuild per-step iteration estimates from the raw hit stream.

    Hit counts are rescaled by 1/capture_fraction; the step count is
    reconciled with the known trace length (trailing unseen steps pad as
    zero-hit estimates). The provisional noise level uses the trace's own
    fitted slope; pipelines re-score against the global slope.
    """
    n = raw.true_step_count
    if n < 1:
        raise UsageError("raw trace has no steps")
    counts = []
    durations = []
    for empty_before, seg in _segment_hits(raw.hit_times, cfg):
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
    counts = np.array(counts[:n], dtype=np.int64)
    durations = np.array(durations[:n], dtype=np.float64)
    est_iters = counts / cfg.capture_fraction
    est_sizes = vocab_size - est_iters
    trace = Trace(seq_id=raw.seq_id, estimated_sizes=est_sizes,
                  per_step_hit_counts=counts, per_step_durations=durations,
                  estimated_iterations=est_iters, noise_level=0.0)
    slope = _fit_slope(trace)
    if slope is not None:
        trace = replace(trace, noise_level=noise_level(trace, slope))
    return trace


def _fit_slope(trace: Trace) -> float | None:
    """Least-squares through-origin slope of duration vs estimated iterations.

    None when the trace cannot support a fit (fewer than 2 steps, no
    observed iterations, or durations that never advance).
    """
    x = trace.estimated_iterations
    y = trace.per_step_durations
    if x.size < 2:
        return None
    sxx = float(np.sum(x * x))
    if sxx == 0.0:
        return None
    slope = float(np.sum(x * y) / sxx)
    return slope if slope > 0.0 else None


def noise_level(trace: Trace, global_slope: float) -> float:
    """Mean squared residual of the (iterations, duration) series against the
    expected line, normalized by the slope so the unit is iterations^2."""
    if trace.step_count < 2:
        raise UsageError("noise level needs at least 2 steps")
    if global_slope <= 0:
        raise UsageError(f"slope must be positive, got {global_slope}")
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
    """Trace interchange file: one rescaled measurement record per step."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"#trace v1 seed={cfg.rng_seed} capture={cfg.capture_fraction!r}\n")
        for line in header_lines:
            fh.write(f"# {line}\n")
        for t in traces:
            for step in range(t.step_count):
                fh.write(f"{t.seq_id}\t{step}\t{int(t.per_step_hit_counts[step])}\t"
                         f"{float(t.per_step_durations[step])!r}\t"
                         f"{float(t.estimated_sizes[step])!r}\n")


@utf8_reader
def read_traces(path) -> tuple[list[Trace], dict]:
    """Parse a trace file; returns traces (noise scored per own slope) and header meta.

    Records may arrive in any order; the steps of each trace must form a
    dense 0..len-1 range with no step repeated, and durations and estimated
    sizes must be finite.
    """
    meta: dict = {}
    # seq_id -> (line of its first record, step -> (count, duration, size))
    rows: dict[str, tuple[int, dict[int, tuple[int, float, float]]]] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            if line.startswith("#trace"):
                for part in line.split()[2:]:
                    k, _, v = part.partition("=")
                    meta[k] = parse_field(float if k == "capture" else int, v, k,
                                          path, lineno)
                if not 0.0 < meta.get("capture", 1.0) <= 1.0:
                    raise ParseError(f"capture {meta['capture']!r} is not in (0, 1]",
                                     path=str(path), line=lineno)
                continue
            if line.startswith("#"):
                continue
            parts = line.split("\t")
            if len(parts) != 5:
                raise ParseError(f"expected 5 tab-separated fields, got {len(parts)}",
                                 path=str(path), line=lineno)
            seq_id = parts[0]
            step = parse_field(int, parts[1], "step", path, lineno)
            record = (parse_field(int, parts[2], "hit count", path, lineno),
                      parse_field(float, parts[3], "duration", path, lineno),
                      parse_field(float, parts[4], "estimated size", path, lineno))
            if not (math.isfinite(record[1]) and math.isfinite(record[2])):
                raise ParseError("non-finite duration or estimated size",
                                 path=str(path), line=lineno)
            if not -2**63 <= record[0] < 2**63:
                raise ParseError("hit count out of the int64 range", path=str(path),
                                 line=lineno)
            steps = rows.setdefault(seq_id, (lineno, {}))[1]
            if step in steps:
                raise ParseError(f"step {step} of {seq_id!r} repeats",
                                 path=str(path), line=lineno)
            steps[step] = record
    if "capture" not in meta:
        raise ParseError("missing '#trace v1' header", path=str(path), line=1)
    capture = meta["capture"]
    traces = []
    for seq_id, (first_line, steps) in rows.items():
        n = len(steps)
        if min(steps) != 0 or max(steps) != n - 1:
            raise ParseError(f"steps of {seq_id!r} are not dense 0..{n - 1}",
                             path=str(path), line=first_line)
        recs = [steps[i] for i in range(n)]
        counts = np.array([r[0] for r in recs], dtype=np.int64)
        durations = np.array([r[1] for r in recs])
        sizes = np.array([r[2] for r in recs])
        trace = Trace(seq_id=seq_id, estimated_sizes=sizes, per_step_hit_counts=counts,
                      per_step_durations=durations,
                      estimated_iterations=counts / capture, noise_level=0.0)
        slope = _fit_slope(trace)
        if slope is not None:
            trace = replace(trace, noise_level=noise_level(trace, slope))
        traces.append(trace)
    return traces, meta

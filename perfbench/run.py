"""Benchmark command for nssfp.

    python3 perfbench/run.py --workload attack --seed 0 --seconds 24 --trace 0

Run from the root of a source checkout; nssfp is imported from ``src/``.
Set-up is repeated ``SETUP_REPS`` times and its median reported; then whole
passes of the workload repeat until ``--seconds`` would be exceeded (at
least ``MIN_PASSES``). ``--trace 0`` reports the end-to-end metrics, with
set-up and pass times scaled to a nominal host speed (see ``Speedometer``);
``--trace 1`` runs half the time untraced and half traced, and reports the
per-layer metrics and the tracing overhead. A human-readable table goes to
stdout first; the last stdout line is one JSON object. A run record (and,
traced, the spans) is written under ``.bench_run/`` in the checkout. The
exit code is 0 only when every correctness gate held.
"""

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from collections import namedtuple
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_run"
SETUP_REPS = 5
MIN_PASSES = 3
# median Speedometer lap at nominal host speed; a scaled time reads as the
# seconds the same work takes on a host where one lap takes this long
REFERENCE_LAP_S = 0.34
# set in main() before numpy is first imported, which is why numpy is imported lazily
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

# the metrics of the final JSON line; BENCHMARK.json lists the same names
END_TO_END = ("setup_s", "run_s", "peak_rss_mb")
PER_LAYER = (
    "corpus.posts", "corpus.words", "model.contexts", "fingerprint.positions",
    "fingerprint.unique_contexts", "fingerprint.cache_hit_ratio", "fingerprint.pairs",
    "sampler.nucleus_calls", "sampler.removed_tokens", "stats.distances",
    "sidechannel.steps", "sidechannel.hits", "sidechannel.kept_ratio",
    "sidechannel.trace_lines", "matcher.candidates", "matcher.windows",
    "matcher.windows_per_candidate", "interchange.bytes",
    "corpus.self_pct", "model.self_pct", "fingerprint.self_pct", "sampler.self_pct",
    "stats.self_pct", "sidechannel.self_pct", "matcher.self_pct", "interchange.self_pct",
    "cli.self_pct", "trace.run_s", "trace.overhead_s",
)


def unit_of(name):
    if name in ("recall", "failed_frac") or name.endswith("_ratio"):
        return "ratio"
    if name.endswith("_pct"):
        return "%"
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_mb"):
        return "MiB"
    if name.endswith("_s"):
        return "s"
    if ".us_per_" in name:
        return "us"
    if name.endswith("bytes"):
        return "bytes"
    return "count"


def git_sha(root):
    """HEAD commit read from the .git directory, or 'unknown' outside a clone."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


class Speedometer:
    """Times a fixed lap of interpreter and numpy work to track host speed.

    The benchmark's host is a shared VM whose speed drifts by up to 2x over
    minutes, and every layer of nssfp slows with it. A lap before each
    set-up and pass and after the last pass samples that speed, and
    ``scale(phase)`` converts the times of the set-up or run phase to a
    host where a lap takes ``REFERENCE_LAP_S``. The lap mixes what nssfp
    spends its time on: counting word pairs in a dict, plain bytecode
    arithmetic, and sorting and summing probability rows. Its data is built
    once and kept small (about 6 MiB of the run's peak RSS), and a lap
    allocates little, so the garbage collector stays out of it.
    """

    def __init__(self):
        import numpy as np
        rng = np.random.default_rng(0)
        words = [f"w{i:05d}" for i in rng.integers(0, 12000, 30000).tolist()]
        self._np = np
        self._pairs = list(zip(words, words[1:]))
        self._rows = rng.random((24, 12000))
        self.laps = {"setup": [], "run": []}

    def lap(self, phase):
        np = self._np
        t0 = time.perf_counter()
        counts = {}
        for _ in range(16):
            for pair in self._pairs:
                counts[pair] = counts.get(pair, 0) + 1
        x = 0
        for i in range(1200000):
            x = (x * 31 + i) & 0xFFFF
        for _ in range(40):
            for row in self._rows:
                np.searchsorted(np.cumsum(np.sort(row)), 0.9 * row.sum())
        self.laps[phase].append(time.perf_counter() - t0)

    def scale(self, phase):
        return REFERENCE_LAP_S / statistics.median(self.laps[phase])


# one whole pass: wall and process CPU seconds, its Outcome, its trace label
Pass = namedtuple("Pass", "wall cpu outcome label")


def run_passes(workload, seconds, min_passes, tracer=None, speed=None):
    """Whole passes until the next one would end after ``seconds``."""
    passes = []
    start = time.perf_counter()
    while True:
        label = f"run{len(passes)}"
        if tracer:
            tracer.iteration = label
        if speed:
            speed.lap("run")
        t0, c0 = time.perf_counter(), time.process_time()
        outcome = workload.run_once()
        wall, cpu = time.perf_counter() - t0, time.process_time() - c0
        passes.append(Pass(wall, cpu, outcome, label))
        if len(passes) >= min_passes and time.perf_counter() - start + wall > seconds:
            if speed:
                speed.lap("run")
            return passes


def timed_setup(workload, tracer=None, speed=None):
    times = []
    for rep in range(SETUP_REPS):
        if tracer:
            tracer.iteration = f"setup{rep}"
        if speed:
            speed.lap("setup")
        t0 = time.perf_counter()
        workload.setup()
        times.append(time.perf_counter() - t0)
    workload.prepare()
    return times


def end_to_end(setup_times, passes, speed):
    """Every end-to-end metric that applies: name -> (value, samples).

    ``setup_s`` and ``run_s`` are scaled by the laps of their own phase;
    the times as measured are ``setup_raw_s`` and ``run_raw_s``.
    """
    walls = [p.wall for p in passes]
    outcomes = [p.outcome for p in passes]
    attempted = sum(o.attempted for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    setup_raw, run_raw = statistics.median(setup_times), statistics.median(walls)
    m = {
        "setup_s": (setup_raw * speed.scale("setup"), len(setup_times)),
        "run_s": (run_raw * speed.scale("run"), len(walls)),
        "setup_raw_s": (setup_raw, len(setup_times)),
        "run_raw_s": (run_raw, len(walls)),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, 1),
        "failed_frac": (failed / attempted if attempted else 1.0, attempted),
    }
    for phase, laps in speed.laps.items():
        m[f"speed.{phase}_lap_s"] = (statistics.median(laps), len(laps))
    if outcomes[0].recall is not None:
        m["recall"] = (min(o.recall for o in outcomes), len(outcomes))
    if outcomes[0].false_positives is not None:
        m["false_positives"] = (max(o.false_positives for o in outcomes), len(outcomes))
    for kind in outcomes[0].latencies_ms:
        sample = [x for o in outcomes for x in o.latencies_ms[kind]]
        m[f"{kind}_p50_ms"] = (statistics.median(sample), len(sample))
        m[f"{kind}_p90_ms"] = (statistics.quantiles(sample, n=10, method="inclusive")[8],
                               len(sample))
    return m


def per_layer(tracer, setup_times, plain, traced):
    """Median over traced passes of each per-layer metric, plus the overhead."""
    rows = [tracer.iteration_metrics(p.label, p.wall) for p in traced]
    m = {k: (statistics.median(r[k] for r in rows), len(rows)) for k in rows[0]}
    synth = [tracer.iteration_metrics(f"setup{i}", t)["corpus.synth_s"]
             for i, t in enumerate(setup_times)]
    m["corpus.synth_s"] = (statistics.median(synth), len(synth))
    traced_s = statistics.median(p.wall for p in traced)
    m["trace.run_s"] = (traced_s, len(traced))
    m["trace.overhead_s"] = (traced_s - statistics.median(p.wall for p in plain),
                             len(traced) + len(plain))
    return m


def machine_info():
    import numpy
    try:
        usable = len(os.sched_getaffinity(0))
    except AttributeError:
        usable = os.cpu_count()
    return {"nproc": usable, "cpu_count": os.cpu_count(),
            "python": sys.version.split()[0], "numpy": numpy.__version__,
            "git_sha": git_sha(ROOT),
            "thread_caps": {v: os.environ.get(v) for v in THREAD_VARS}}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=["attack", "openworld", "files", "filter"])
    p.add_argument("--seed", type=int, default=0,
                   help="shifts every workload seed; 0 gives the documented inputs")
    p.add_argument("--seconds", type=float, default=24.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not (ROOT / "src" / "nssfp" / "__init__.py").is_file():
        print(f"error: no nssfp sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    for var in THREAD_VARS:  # one thread per process unless the caller capped it
        os.environ.setdefault(var, "1")
    ignored_env = sorted(k for k in os.environ if k.startswith("NSSFP_"))
    for key in ignored_env:  # the documented defaults, whatever the caller's shell says
        del os.environ[key]
    sys.path.insert(0, str(ROOT / "src"))
    from tracing import Tracer
    from workloads import WORKLOADS

    run_id = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = OUT_DIR / "work" / f"{run_id}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload = WORKLOADS[args.workload](str(workdir), args.seed)
        if args.trace:
            tracer, speed = Tracer(), None
            with tracer.installed():
                setup_times = timed_setup(workload, tracer)
            plain = run_passes(workload, args.seconds / 2, 2)
            with tracer.installed():
                traced = run_passes(workload, args.seconds / 2, 2, tracer)
            passes = plain + traced
            metrics = per_layer(tracer, setup_times, plain, traced)
            reported = PER_LAYER
        else:
            tracer = None
            speed = Speedometer()
            setup_times = timed_setup(workload, speed=speed)
            passes = run_passes(workload, args.seconds, MIN_PASSES, speed=speed)
            metrics = end_to_end(setup_times, passes, speed)
            reported = END_TO_END
    except Exception:
        traceback.print_exc()
        print(f"error: {args.workload} could not be set up or run", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    outcomes = [p.outcome for p in passes]
    attempted = sum(o.attempted for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    problems = sorted({p for o in outcomes for p in o.problems})
    correct = failed == 0 and attempted > 0

    print(f"# {args.workload} seed={args.seed} trace={args.trace} passes={len(passes)} "
          f"attempted={attempted} failed={failed}")
    for name, (value, samples) in metrics.items():
        print(f"{name:34s} {value:>16.6f} {unit_of(name):6s} n={samples}")
    for problem in problems[:20]:
        print(f"FAILED: {problem}")

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "correct": correct, "attempted": attempted, "failed": failed,
        "problems": problems,
        "metrics": {k: {"value": v, "unit": unit_of(k), "samples": n}
                    for k, (v, n) in metrics.items()},
        "pass_wall_s": [p.wall for p in passes], "pass_cpu_s": [p.cpu for p in passes],
        "setup_rep_s": setup_times, "speed_lap_s": speed.laps if speed else {},
        "machine": machine_info(), "ignored_env": ignored_env,
    }
    records = OUT_DIR / "records"
    records.mkdir(parents=True, exist_ok=True)
    (records / f"{run_id}.json").write_text(json.dumps(record, indent=1) + "\n")
    if tracer:
        tracer.write_spans(records / f"{run_id}-spans.tsv")

    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": metrics[k][0], "unit": unit_of(k)}
                                  for k in reported}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

"""In-memory span tracer over nssfp's public functions.

``Tracer.installed()`` wraps every public function of the layer modules by
rebinding module attributes, including the names other modules bound with
``from ... import`` (``matcher.simulate_trace``,
``fingerprint.nucleus_size_from_probs``, ``cli.train_model``), so calls
between layers are seen as well as calls from the benchmark. Hot per-post,
per-context, per-pair and per-window calls are only counted; their time
stays in the caller's span. Spans live in a list until the run writes them
out, and ``iteration_metrics`` derives per-layer numbers and self times.
"""

import contextlib
import functools
import importlib
import inspect
import itertools
import os
import sys
import time
from collections import Counter, defaultdict

LAYERS = ("corpus", "model", "fingerprint", "sampler", "stats", "sidechannel",
          "matcher", "interchange", "cli")

# called once per post, context, pair or window: counted, not spanned
COUNTED = {"model.tokenize", "model.NgramModel.context_at",
           "model.NgramModel.context_probs", "sampler.nucleus_size",
           "sampler.nucleus_size_from_probs", "fingerprint.similar",
           "fingerprint.nss_distance"}
# a generator per candidate that yields one window per step: count the yields
WINDOWS = "matcher.gen_candidate_subtraces"


def _path_size(args, kwargs):
    path = kwargs.get("path", args[0] if args else None)
    return os.path.getsize(path) if path is not None and os.path.exists(path) else 0


def _observe(name, args, kwargs, result):
    """Counts read off a call's arguments and result, as (counter, amount)."""
    if name == "corpus.load_corpus":
        return [("corpus.posts", len(result.posts))]
    if name == "corpus.aggregate_by_author":
        return [("corpus.words", sum(len(a.sequence) for a in result[1]))]
    if name in ("model.train_model", "model.load_model"):
        return [("model.contexts", sum(len(t) for t in result.tables.values()))]
    if name == "fingerprint.generate_nss":
        return [("fingerprint.positions", result.length)]
    if name in ("sampler.top_p_filter_vulnerable", "sampler.top_p_filter_mitigated"):
        return [("sampler.removed_tokens", result[1].removed_count)]
    if name == "stats.uniqueness_radius":
        sample = kwargs.get("sample", args[0] if args else None)
        return [("stats.distances", int(sample.distances.size))]
    if name == "sidechannel.simulate_trace":
        return [("sidechannel.steps", result.true_step_count),
                ("sidechannel.hits", int(result.hit_times.size))]
    if name == "sidechannel.filter_noisy":
        return [("sidechannel.kept", len(result[0])),
                ("sidechannel.pooled", len(result[0]) + len(result[1]))]
    if name == "sidechannel.read_traces":
        return [("sidechannel.trace_lines", sum(t.step_count for t in result[0]))]
    if name.startswith(("interchange.read_", "interchange.write_")):
        return [("interchange.bytes", _path_size(args, kwargs))]
    return ()


class Tracer:
    """Spans and counters of one benchmark run, tagged by iteration."""

    def __init__(self):
        self.spans = []          # (iteration, span_id, parent_id, layer, name, t0, t1)
        self.counts = defaultdict(Counter)
        self.iteration = "setup"
        self._ids = itertools.count(1)
        self._stack = []
        self._saved = []

    # --- wrapping -----------------------------------------------------------

    def _span(self, fn, layer, name):
        spans, stack, clock, ids = self.spans, self._stack, time.perf_counter, self._ids

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = next(ids)
            parent = stack[-1] if stack else 0
            stack.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans.append((self.iteration, sid, parent, layer, name, t0, t1))
            counts = self.counts[self.iteration]
            counts[name] += 1
            for counter, amount in _observe(name, args, kwargs, result):
                counts[counter] += amount
            return result
        return wrapper

    def _counted(self, fn, name):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[self.iteration][name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _windows(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts = self.counts[self.iteration]
            for item in fn(*args, **kwargs):
                counts["matcher.windows"] += 1
                yield item
        return wrapper

    def _wrapper(self, fn, layer, name):
        if name in COUNTED:
            return self._counted(fn, name)
        if name == WINDOWS:
            return self._windows(fn)
        return self._span(fn, layer, name)

    def install(self):
        """Wrap every public function and counted method of the layer modules."""
        wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module(f"nssfp.{layer}")
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrappers[id(obj)] = (obj, self._wrapper(obj, layer, f"{layer}.{attr}"))
                elif inspect.isclass(obj):
                    for meth, fn in list(vars(obj).items()):
                        name = f"{layer}.{attr}.{meth}"
                        if name in COUNTED:
                            self._saved.append((obj, meth, fn))
                            setattr(obj, meth, self._counted(fn, name))
        for module in [m for n, m in sys.modules.items()
                       if n == "nssfp" or n.startswith("nssfp.")]:
            for attr, obj in list(vars(module).items()):
                if id(obj) in wrappers and wrappers[id(obj)][0] is obj:
                    self._saved.append((module, attr, obj))
                    setattr(module, attr, wrappers[id(obj)][1])

    def uninstall(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # --- results ------------------------------------------------------------

    def iteration_metrics(self, iteration, wall_s):
        """Per-layer metrics of one traced iteration that took ``wall_s``."""
        spans = [s for s in self.spans if s[0] == iteration]
        c = self.counts[iteration]
        inclusive = Counter()
        children = Counter()
        for _, sid, parent, _, name, t0, t1 in spans:
            inclusive[name] += t1 - t0
            children[parent] += t1 - t0
        self_s = Counter()
        for _, sid, _, layer, _, t0, t1 in spans:
            self_s[layer] += (t1 - t0) - children[sid]

        def s(*names):
            return sum(inclusive[n] for n in names)

        def ratio(a, b, scale=1.0):
            return scale * a / b if b else 0.0

        nss_s = s("fingerprint.generate_nss")
        unique = c["model.NgramModel.context_probs"]
        positions = c["fingerprint.positions"]
        sim_s, rec_s = s("sidechannel.simulate_trace"), s("sidechannel.segment_and_reconstruct")
        match_s, candidates, windows = s("matcher.match"), c["matcher.match"], c["matcher.windows"]
        m = {
            "corpus.synth_s": s("corpus.synthesize_corpus"),
            "corpus.load_s": s("corpus.load_corpus"),
            "corpus.aggregate_s": s("corpus.aggregate_by_author"),
            "corpus.posts": c["corpus.posts"],
            "corpus.words": c["corpus.words"],
            "model.train_s": s("model.train_model"),
            "model.contexts": c["model.contexts"],
            "model.save_s": s("model.save_model"),
            "model.load_s": s("model.load_model"),
            "fingerprint.nss_s": nss_s,
            "fingerprint.positions": positions,
            "fingerprint.unique_contexts": unique,
            "fingerprint.cache_hit_ratio": ratio(positions - unique, positions),
            "fingerprint.us_per_context": ratio(nss_s, unique, 1e6),
            "fingerprint.pairwise_s": s("fingerprint.collect_pairwise_distances"),
            "fingerprint.pairs": c["fingerprint.nss_distance"],
            "sampler.nucleus_calls": (c["sampler.nucleus_size_from_probs"]
                                      + c["sampler.nucleus_size"]),
            "sampler.vulnerable_s": s("sampler.top_p_filter_vulnerable"),
            "sampler.mitigated_s": s("sampler.top_p_filter_mitigated"),
            "sampler.removed_tokens": c["sampler.removed_tokens"],
            "sampler.bench_s": s("sampler.bench_filter"),
            "stats.fit_s": self_s["stats"],
            "stats.distances": c["stats.distances"],
            "sidechannel.simulate_s": sim_s,
            "sidechannel.reconstruct_s": rec_s,
            "sidechannel.steps": c["sidechannel.steps"],
            "sidechannel.hits": c["sidechannel.hits"],
            "sidechannel.us_per_step": ratio(sim_s + rec_s, c["sidechannel.steps"], 1e6),
            "sidechannel.pool_s": s("sidechannel.estimate_global_slope",
                                    "sidechannel.rescore_noise", "sidechannel.filter_noisy"),
            "sidechannel.kept_ratio": ratio(c["sidechannel.kept"], c["sidechannel.pooled"]),
            "sidechannel.write_traces_s": s("sidechannel.write_traces"),
            "sidechannel.read_traces_s": s("sidechannel.read_traces"),
            "sidechannel.trace_lines": c["sidechannel.trace_lines"],
            "matcher.match_s": match_s,
            "matcher.candidates": candidates,
            "matcher.windows": windows,
            "matcher.us_per_window": ratio(match_s, windows, 1e6),
            "matcher.windows_per_candidate": ratio(windows, candidates),
            "matcher.evaluate_s": s("matcher.evaluate"),
            "interchange.write_nss_s": s("interchange.write_nss"),
            "interchange.read_nss_s": s("interchange.read_nss"),
            "interchange.read_sequences_s": s("interchange.read_sequences"),
            "interchange.write_distances_s": s("interchange.write_distances"),
            "interchange.read_distances_s": s("interchange.read_distances"),
            "interchange.bytes": c["interchange.bytes"],
        }
        for cmd in ("train", "nss", "analyze", "simulate", "fit", "match", "report",
                    "evaluate", "bench"):
            m[f"cli.{cmd}_s"] = s(f"cli.cmd_{cmd}")
        for layer in LAYERS:
            m[f"{layer}.self_s"] = self_s[layer]
            m[f"{layer}.self_pct"] = ratio(self_s[layer], wall_s, 100.0)
        m["bench.self_s"] = wall_s - sum(t1 - t0 for _, _, parent, _, _, t0, t1 in spans
                                         if parent == 0)
        return m

    def write_spans(self, path):
        """One tab-separated line per span, in completion order."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("iteration\tspan\tparent\tlayer\tname\tstart_s\tend_s\n")
            for it, sid, parent, layer, name, t0, t1 in self.spans:
                fh.write(f"{it}\t{sid}\t{parent}\t{layer}\t{name}\t{t0!r}\t{t1!r}\n")

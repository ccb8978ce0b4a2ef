"""Command-line pipeline driver.

One subcommand per pipeline stage, ``cmd_<name>(args, cfg)``, which returns nothing
and fails only by raising; ``main`` logs the fully resolved ``cfg`` to stderr
before the command starts and alone sets the exit status, for a failure to parse
the arguments too. Each setting of ``config.KEYS`` has one flag, whose text
``resolve_config`` parses by the rule of file and environment values. Every command
reads and writes only the documented interchange formats and embeds ``cfg`` in
output headers, so any two runs with the same inputs and seed are byte-identical.
"""

import argparse
import math
import sys
from itertools import chain

from . import corpus as corpus_mod
from . import fingerprint as fp
from . import interchange, matcher, sampler, sidechannel, stats
from .config import KEYS, PipelineConfig, env_overrides, read_config_file, resolve_config
from .errors import NssfpError, UsageError, read_lines, read_records, write_records
from .model import check_vocab_size, load_model, save_model, train_model


# the flags not named after their key, and the help of those that have one
_FLAG_NAMES = {"variability_threshold": "--threshold", "similarity_window": "--window",
               "sequence_length": "--length", "word_cap": "--cap",
               "channel.hit_jitter_std": "--jitter-std",
               "channel.segment_gap_cycles": "--segment-gap"}
_FLAG_HELP = {"variability_threshold": "variability threshold for fingerprint eligibility",
              "weights": "comma-separated interpolation weights, unigram first"}


def _add_config_flags(p: argparse.ArgumentParser):
    p.add_argument("--config", help="key=value config file (lowest precedence)")
    for key in KEYS:  # a value stays text: resolve_config parses every source alike
        flag = _FLAG_NAMES.get(key, "--" + key.removeprefix("channel.").replace("_", "-"))
        p.add_argument(flag, dest=key, help=_FLAG_HELP.get(key))


def _resolve(args) -> PipelineConfig:
    file_values = read_config_file(args.config) if args.config else {}
    cfg = resolve_config(file_values, env_overrides(), {key: getattr(args, key) for key in KEYS})
    for line in cfg.resolved_lines():
        print(f"# config {line}", file=sys.stderr)
    return cfg


def _load_inputs(args, cfg):
    """Corpus -> (vocab, author sequences) honoring cap/min-word settings."""
    corpus = corpus_mod.load_corpus(args.corpus, format=args.format)
    return corpus_mod.aggregate_by_author(corpus, word_cap=cfg.word_cap,
                                          min_words=args.min_words)


def cmd_synth(args, cfg):
    corpus = corpus_mod.synthesize_corpus(
        authors=args.authors, seed=cfg.seed, vocab_size=args.vocab_size,
        target_words=args.target_words)
    corpus_mod.save_corpus(args.out, corpus)
    print(f"wrote {len(corpus.posts)} posts for {args.authors} authors to {args.out}")


def cmd_train(args, cfg):
    vocab, authors = _load_inputs(args, cfg)
    model = train_model([a.sequence for a in authors], order=cfg.order,
                        weights=cfg.weights, vocabulary=vocab)
    save_model(args.out, model)
    if args.save_seqs:
        interchange.write_sequences(args.save_seqs, [a.sequence for a in authors],
                                    vocab_size=len(vocab))
    print(f"trained order-{cfg.order} model over {len(authors)} sequences, "
          f"vocab {len(vocab)}, id {model.model_id}; wrote {args.out}")


def cmd_nss(args, cfg):
    model = load_model(args.model)
    if args.seqs is not None:
        sequences, _ = interchange.read_sequences(args.seqs)
    else:
        _, authors = _load_inputs(args, cfg)
        sequences = [a.sequence for a in authors]
    n = cfg.sequence_length
    sequences = [s.truncated(n) for s in sequences if len(s) >= n] \
        if args.truncate else sequences
    if not sequences:
        raise UsageError(f"no sequence reaches length {n}")
    series = fp.nss_series(model, sequences, cfg.q)
    interchange.write_nss(args.out, series, header_lines=cfg.resolved_lines())
    print(f"wrote {len(series)} series of lengths "
          f"{sorted({x.length for x in series})} to {args.out}")


def cmd_analyze(args, cfg):
    series, _ = interchange.read_nss(args.nss)
    sequences, _ = interchange.read_sequences(args.seqs)
    by_id = {s.id: s for s in sequences}
    missing = [x.seq_id for x in series if x.seq_id not in by_id]
    if missing:
        raise UsageError(f"sequences missing for {missing[:3]}...")
    n = series[0].length
    short = next((by_id[x.seq_id] for x in series if len(by_id[x.seq_id]) < n), None)
    if short is not None:
        raise UsageError(f"{args.seqs}: sequence {short.id!r} has {len(short)} words, "
                         f"fewer than the NSS length {n}")
    seqs = [by_id[x.seq_id].truncated(n) for x in series]
    records, variable_ids = fp.collect_pairwise_distances(
        series, seqs, threshold=cfg.variability_threshold,
        window=cfg.similarity_window)
    interchange.write_distances(args.out, records, length=n,
                                header_lines=cfg.resolved_lines())
    print(f"{len(variable_ids)}/{len(series)} variable sequences, "
          f"{len(records)} pair distances written to {args.out}")


def cmd_fit(args, cfg):
    if (args.nss is None) != (args.traces is None):
        raise UsageError("fit takes --nss and --traces together or not at all")
    records, n = interchange.read_distances(args.distances)
    uniq = stats.uniqueness_radius(stats.PairwiseDistanceSample.from_records(n, records),
                                   eps=cfg.epsilon)
    err = None
    if args.traces is not None:
        series, _ = interchange.read_nss(args.nss)
        traces, _ = sidechannel.read_traces(args.traces)
        kept, _, _ = sidechannel.prepare_pool(traces, cfg.drop_fraction)
        err = matcher.fit_error_bound(series, kept, uniq)
    stats.write_fit_report(args.out, uniq, err, header_lines=cfg.resolved_lines())
    print(_fit_line(uniq, err))


def _fit_line(uniq, err) -> str:
    d, tau = (err.bound, err.tau) if err else (math.nan, math.nan)
    return f"N={uniq.length} U={uniq.radius!r} d={d!r} tau={tau!r}"


def cmd_simulate(args, cfg):
    check_vocab_size(args.vocab_size)
    series, _ = interchange.read_nss(args.nss)
    traces = sidechannel.simulate_pool(series, args.vocab_size, cfg.channel)
    sidechannel.write_traces(args.out, traces, cfg.channel,
                             header_lines=cfg.resolved_lines())
    print(f"simulated {len(traces)} traces at capture="
          f"{cfg.channel.capture_fraction} to {args.out}")


def cmd_match(args, cfg):
    series, _ = interchange.read_nss(args.nss)
    uniq, err = stats.read_fit_report(args.fit)
    n = series[0].length
    if uniq.length != n or err is None:
        raise UsageError(f"fit report {args.fit} has no d(N) or tau for N={n}; "
                         "fit it with --nss and --traces before matching")
    traces, _ = sidechannel.read_traces(args.traces)
    kept, _, _ = sidechannel.prepare_pool(traces, cfg.drop_fraction)
    targets = [x for x in series if not args.target or x.seq_id == args.target]
    if not targets:
        raise UsageError(f"no series named {args.target!r} in {args.nss}")
    lines = []
    for x in targets:
        r = matcher.match(x, kept, (uniq, err), cfg.variability_threshold)
        lines.append(f"{x.seq_id}\t{r.verdict}\t{r.trace_id or '-'}\t"
                     f"{r.distance!r}\t{r.threshold_used!r}")
    print("\n".join(lines))
    if args.out:
        write_records(args.out, lines)


def cmd_evaluate(args, cfg):
    vocab, authors = _load_inputs(args, cfg)
    n = cfg.sequence_length
    sequences = [a.sequence.truncated(n) for a in authors if len(a.sequence) >= n]
    if len(sequences) < 2:
        raise UsageError(f"need >= 2 sequences of length {n}, got {len(sequences)}")
    model = train_model([a.sequence for a in authors], order=cfg.order,
                        weights=cfg.weights, vocabulary=vocab)
    series = fp.nss_series(model, sequences, cfg.q)
    # kept before the pairwise stage: moved after it, evaluate ran no faster, at times slower
    traces = sidechannel.simulate_pool(series, len(vocab), cfg.channel)
    records, _ = fp.collect_pairwise_distances(
        series, sequences, threshold=cfg.variability_threshold,
        window=cfg.similarity_window)
    uniq = stats.uniqueness_radius(stats.PairwiseDistanceSample.from_records(n, records),
                                   eps=cfg.epsilon)

    kept, _, _ = sidechannel.prepare_pool(traces, cfg.drop_fraction)
    err = matcher.fit_error_bound(series, kept, uniq)

    report = matcher.evaluate(series, sequences, traces, kept, (uniq, err),
                              variability_threshold=cfg.variability_threshold,
                              similarity_window=cfg.similarity_window)
    header = list(cfg.resolved_lines()) + [
        f"U={uniq.radius!r}", f"d={err.bound!r}", f"tau={err.tau!r}"]
    matcher.write_evaluation_report(args.out, report, header_lines=header)
    print(f"recall={report.recall!r} false_positives={report.false_positives} "
          f"variable={report.variable_count}/{report.total} "
          f"dropped={report.filtered_noisy}")


def cmd_bench(args, cfg):
    samples = sampler.bench_filter(args.variant, args.vocab_size, args.trials, cfg.seed,
                                   p=cfg.q)
    summary = sampler.summarize_bench(samples)
    sampler.write_bench_report(args.out, samples, header_lines=cfg.resolved_lines())
    for variant in [v for v in sampler.FILTERS if v in summary]:
        info = summary[variant]
        print(f"{variant}: median_loop_ns={info['median_loop_time_ns']:.0f} "
              f"size_time_corr={info['size_time_correlation']:.4f}")
    if "slowdown" in summary:
        print(f"slowdown={summary['slowdown']:.3f}x")


def cmd_report(args, cfg):
    if args.evaluation is not None:
        for _ in read_records(args.evaluation, matcher.EVALUATION_COLUMNS, ",",
                              matcher.EVALUATION_HEADER, columns=True):
            pass  # the framing: one header, the column line, rows of its fields
        for line in read_lines(args.evaluation):
            if line.startswith("# total="):
                print(line[2:].rstrip())
            elif line and not line.startswith("#"):
                print(line.rstrip())
    elif args.fit is not None:
        print(_fit_line(*stats.read_fit_report(args.fit)))
    elif args.distances is not None:
        if not args.out:
            raise UsageError("histogram output needs --out")
        records, n = interchange.read_distances(args.distances)
        hist = stats.smoothed_histogram([d for _, _, d in records],
                                        buckets=args.buckets, window=args.hist_window)
        chunks = (hist[a:a + (1 << 16)].tolist() for a in range(0, len(hist), 1 << 16))
        write_records(args.out, chain(["bucket_center,smoothed_density"], (
            f"{c!r},{d!r}" for chunk in chunks for c, d in chunk)),
            header_lines=[f"smoothed histogram of {len(records)} distances, N={n}"])
        print(f"wrote {args.buckets}-bucket histogram to {args.out}")
    else:  # --bench
        summary = sampler.summarize_bench(sampler.read_bench_report(args.bench))
        for key, value in sorted(summary.items()):
            print(f"{key}: {value}")


_FORMAT = ("--format", dict(default=corpus_mod.TSV_POSTS,
                           choices=[corpus_mod.TSV_POSTS, corpus_mod.PLAIN_DIR]))
_MIN_WORDS = ("--min-words", dict(type=int, default=1))
_OUT = ("--out", dict(required=True))

# each subcommand cmd_<name>: (help, its own arguments after the config flags); a
# list holds alternative inputs, of which each run takes exactly one
COMMANDS = {
    "synth": ("generate a seeded synthetic post corpus", [
        ("--authors", dict(type=int, required=True)),
        ("--vocab-size", dict(type=int, default=12000)),
        ("--target-words", dict(type=int, default=1200)),
        _OUT]),
    "train": ("train the n-gram model on a corpus", [
        ("--corpus", dict(required=True)), _FORMAT, _MIN_WORDS,
        ("--save-seqs", dict(help="also persist aggregated sequences (#seq v1)")),
        _OUT]),
    "nss": ("generate nucleus size series", [
        [("--corpus", {}), ("--seqs", dict(help="read sequences from a #seq v1 file instead"))],
        _FORMAT, ("--model", dict(required=True)), _MIN_WORDS,
        ("--truncate", dict(action="store_true",
                            help="drop shorter sequences and cut the rest to --length")),
        _OUT]),
    "analyze": ("pairwise fingerprint distances", [
        ("--nss", dict(required=True)), ("--seqs", dict(required=True)), _OUT]),
    "fit": ("fit U(N) and optionally d(N)/tau from traces", [
        ("--distances", dict(required=True)), ("--nss", {}), ("--traces", {}), _OUT]),
    "simulate": ("simulate side-channel traces for an NSS file", [
        ("--nss", dict(required=True)), ("--vocab-size", dict(type=int, required=True)),
        _OUT]),
    "match": ("match candidate NSS against a trace pool", [
        ("--nss", dict(required=True)), ("--traces", dict(required=True)),
        ("--fit", dict(required=True)),
        ("--target", dict(help="match only this sequence id")), ("--out", {})]),
    "evaluate": ("full end-to-end attack evaluation", [
        ("--corpus", dict(required=True)), _FORMAT, _MIN_WORDS, _OUT]),
    "bench": ("time the removal loop of the filter variants", [
        ("--variant", dict(default=sampler.BOTH, choices=sampler.VARIANTS)),
        ("--vocab-size", dict(type=int, default=50257)),
        ("--trials", dict(type=int, default=50)), _OUT]),
    "report": ("summarize pipeline artifacts", [
        [("--evaluation", {}), ("--fit", {}), ("--bench", {}), ("--distances", {})],
        ("--buckets", dict(type=int, default=100)),
        ("--hist-window", dict(type=int, default=11)), ("--out", {})]),
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would print its usage and exit 2
        raise UsageError(message)


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of every subcommand, or of ``command`` alone, which parses
    that command's arguments and prints its help the same way."""
    parser = _Parser(prog="nssfp", description="Nucleus-size-series fingerprinting pipeline")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, arguments) in COMMANDS.items():
        if command in (None, name):
            p = sub.add_parser(name, help=help_text)
            # looked up now, so that a rebound module attribute (a tracer's) runs
            p.set_defaults(func=globals()[f"cmd_{name}"])
            _add_config_flags(p)
            for entry in arguments:
                group, entry = ((p.add_mutually_exclusive_group(required=True), entry)
                                if isinstance(entry, list) else (p, [entry]))
                for flag, options in entry:
                    group.add_argument(flag, **options)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        # a known subcommand needs only its own parser; anything else gets them all
        args = build_parser(argv[0] if argv and argv[0] in COMMANDS else None).parse_args(argv)
        args.func(args, _resolve(args))
    except UsageError as exc:
        print(f"error: usage: {exc}", file=sys.stderr)
        return 2
    except (NssfpError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

import hashlib
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from nssfp import cli, sidechannel
from nssfp.cli import COMMANDS, build_parser, main
from nssfp.config import (ENV_PREFIX, KEYS, PipelineConfig, env_overrides, read_config_file,
                          resolve_config)
from nssfp.errors import ConfigurationError, UsageError
from nssfp.model import load_model


@pytest.fixture(scope="module")
def corpus_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "corpus.tsv"
    rc = main(["synth", "--authors", "34", "--vocab-size", "9000",
               "--target-words", "300", "--seed", "5", "--out", str(path)])
    assert rc == 0
    return path


def run(args):
    return main([str(a) for a in args])


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["nss", "--help"])
    assert exc.value.code == 0
    assert "usage" in capsys.readouterr().out


def test_unknown_flag_exits_two(capsys):
    # argparse checks the required arguments first
    assert main(["bench", "--no-such-flag"]) == 2
    assert capsys.readouterr().err == ("error: usage: the following arguments are required: "
                                       "--out\n")


def test_missing_input_exits_nonzero(tmp_path, capsys):
    rc = run(["train", "--corpus", tmp_path / "missing.tsv", "--out", tmp_path / "m.json"])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_full_command_chain(tmp_path, corpus_file, capsys):
    n = 160
    model = tmp_path / "model.json"
    seqs = tmp_path / "seqs.txt"
    nss = tmp_path / "series.nss"
    dists = tmp_path / "dist.csv"
    traces = tmp_path / "pool.trc"
    fit = tmp_path / "fit.csv"

    assert run(["train", "--corpus", corpus_file, "--out", model,
                "--save-seqs", seqs, "--seed", "5"]) == 0
    assert run(["nss", "--corpus", corpus_file, "--model", model, "--truncate",
                "--length", n, "--out", nss, "--seed", "5"]) == 0
    assert run(["analyze", "--nss", nss, "--seqs", seqs, "--threshold", "400",
                "--out", dists]) == 0
    vocab_size = len(json.loads(model.read_text())["tokens"])
    assert run(["simulate", "--nss", nss, "--vocab-size", vocab_size, "--seed", "5",
                "--capture-fraction", "0.05", "--out", traces]) == 0
    assert run(["fit", "--distances", dists, "--nss", nss, "--traces", traces,
                "--epsilon", "1e-6", "--out", fit]) == 0
    capsys.readouterr()
    assert run(["match", "--nss", nss, "--traces", traces, "--fit", fit,
                "--threshold", "400", "--out", tmp_path / "matches.txt"]) == 0
    out = capsys.readouterr().out
    lines = [l for l in out.splitlines() if l and not l.startswith("#")]
    assert len(lines) >= 10
    matched_own = sum(1 for l in lines if l.split("\t")[1] == "matched"
                      and l.split("\t")[2] == l.split("\t")[0])
    assert matched_own / len(lines) >= 0.8


def test_evaluate_reproducible_and_composable(tmp_path, corpus_file, capsys):
    r1 = tmp_path / "report1.csv"
    r2 = tmp_path / "report2.csv"
    common = ["evaluate", "--corpus", corpus_file, "--length", "160",
              "--threshold", "400", "--epsilon", "1e-6", "--seed", "5",
              "--capture-fraction", "0.05"]
    assert run(common + ["--out", r1]) == 0
    out1 = capsys.readouterr().out
    assert "recall=" in out1
    assert run(common + ["--out", r2]) == 0
    assert r1.read_bytes() == r2.read_bytes()


def test_simulate_and_evaluate_start_no_child_process(tmp_path, corpus_file, capsys,
                                                      monkeypatch):
    model, nss = tmp_path / "model.json", tmp_path / "series.nss"
    assert run(["train", "--corpus", corpus_file, "--out", model]) == 0
    assert run(["nss", "--corpus", corpus_file, "--model", model, "--truncate",
                "--length", "160", "--out", nss]) == 0
    vocab_size = len(json.loads(model.read_text())["tokens"])
    commands = {"traces.trc": ["simulate", "--nss", nss, "--vocab-size", vocab_size],
                "report.csv": ["evaluate", "--corpus", corpus_file, "--length", "160",
                               "--threshold", "400", "--epsilon", "1e-6"]}

    def outputs(root):
        root.mkdir()
        monkeypatch.chdir(root)
        capsys.readouterr()
        for name, args in commands.items():
            assert run(args + ["--out", name]) == 0
        return {name: (root / name).read_bytes() for name in commands}, capsys.readouterr()

    def no_fork():
        raise AssertionError("a command forked")

    alone = outputs(tmp_path / "alone")
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)
    monkeypatch.setattr(os, "fork", no_fork)
    assert outputs(tmp_path / "four_cpus") == alone


def test_evaluate_matches_command_composition(tmp_path, corpus_file, capsys):
    """evaluate == train -> nss -> analyze -> simulate -> fit -> match."""
    n = 160
    model = tmp_path / "model.json"
    seqs = tmp_path / "seqs.txt"
    nss = tmp_path / "series.nss"
    dists = tmp_path / "dist.csv"
    traces = tmp_path / "pool.trc"
    fit = tmp_path / "fit.csv"
    report = tmp_path / "report.csv"

    assert run(["train", "--corpus", corpus_file, "--out", model,
                "--save-seqs", seqs, "--seed", "5"]) == 0
    vocab_size = len(json.loads(model.read_text())["tokens"])
    for args in (
        ["nss", "--corpus", corpus_file, "--model", model, "--truncate",
         "--length", n, "--out", nss, "--seed", "5"],
        ["analyze", "--nss", nss, "--seqs", seqs, "--threshold", "400", "--out", dists],
        ["simulate", "--nss", nss, "--vocab-size", vocab_size, "--seed", "5",
         "--capture-fraction", "0.05", "--out", traces],
        ["fit", "--distances", dists, "--nss", nss, "--traces", traces,
         "--epsilon", "1e-6", "--out", fit],
        ["evaluate", "--corpus", corpus_file, "--length", n, "--threshold", "400",
         "--epsilon", "1e-6", "--seed", "5", "--capture-fraction", "0.05",
         "--out", report],
    ):
        assert run(args) == 0
    capsys.readouterr()
    assert run(["match", "--nss", nss, "--traces", traces, "--fit", fit,
                "--threshold", "400"]) == 0
    match_lines = [l for l in capsys.readouterr().out.splitlines()
                   if l and not l.startswith("#")]
    chain = {}
    for line in match_lines:
        seq_id, verdict, trace_id, _, _ = line.split("\t")
        chain[seq_id] = (verdict, trace_id if trace_id != "-" else None)

    composed = {}
    for line in report.read_text().splitlines():
        if line.startswith("#") or line.startswith("seq_id,"):
            continue
        seq_id, _, _, _, matched = line.split(",")
        if matched in ("no_match", "not_variable"):
            composed[seq_id] = (matched, None)
        else:
            composed[seq_id] = ("matched", matched)
    assert chain == composed


NSS_ONE = "#nss v1 model=m q=0.9\ns\t0\tn=5\ns\t1\tn=7\n"
FIT_HEAD = "#fit v2\n# epsilon=1e-06\nN,epsilon,log_mu,log_sigma,U,mean,std,d,tau\n"
FIT_ROW = "2,1e-06,1.0,0.5,5.0,0.5,0.05,1.0,4.0\n"
BENCH_HEAD = "variant,vocab_size,nucleus_size,loop_time_ns\n"


@pytest.mark.parametrize("command, files", [
    pytest.param(["fit", "--distances", "{dist}"], {"dist": "#pairdist v1 length=2\na,b,far\n"},
                 id="fit-distance"),
    pytest.param(["fit", "--distances", "{dist}"], {"dist": "#pairdist v1 length=two\na,b,1.5\n"},
                 id="fit-length"),
    pytest.param(["report", "--fit", "{fit}"],
                 {"fit": FIT_HEAD + "2,1e-06,1.0,wide,5.0,0.5,0.05,1.0,4.0\n"},
                 id="report-fit-field"),
    pytest.param(["report", "--fit", "{fit}"], {"fit": FIT_HEAD + "2,1e-06,1.0,0.5,5.0\n"},
                 id="report-fit-row-width"),
    pytest.param(["match", "--nss", "{nss}", "--traces", "{trc}", "--fit", "{fit}"],
                 {"nss": NSS_ONE, "fit": FIT_HEAD + FIT_ROW,
                  "trc": "#trace v1 seed=one capture=0.011\ns\t0\t1\t0.0\t5.0\n"},
                 id="match-trace-seed"),
    pytest.param(["analyze", "--nss", "{nss}", "--seqs", "{seqs}"],
                 {"nss": NSS_ONE, "seqs": "#seq v1 vocab_size=abc\ns\t0\t1,2\n"},
                 id="analyze-vocab-size"),
    pytest.param(["analyze", "--nss", "{nss}", "--seqs", "{seqs}"],
                 {"nss": NSS_ONE.replace("q=0.9", "q=high"),
                  "seqs": "#seq v1 vocab_size=9\ns\t0\t1,2\n"},
                 id="analyze-nss-q"),
    pytest.param(["analyze", "--nss", "{nss}", "--seqs", "{seqs}"],
                 {"nss": NSS_ONE.replace("n=7", "n=1_0x"),
                  "seqs": "#seq v1 vocab_size=9\ns\t0\t1,2\n"},
                 id="analyze-nss-size"),
    pytest.param(["report", "--bench", "{bench}"], {"bench": BENCH_HEAD + "vulnerable,10,abc,5\n"},
                 id="report-bench-field"),
    pytest.param(["report", "--bench", "{bench}"], {"bench": BENCH_HEAD + "vulnerable,10\n"},
                 id="report-bench-row-width"),
    pytest.param(["match", "--nss", "{nss}", "--traces", "{trc}", "--fit", "{fit}"],
                 {"nss": NSS_ONE, "fit": FIT_HEAD + FIT_ROW,
                  "trc": "#trace v1 seed=0 capture=0.5\ns\t0\t2\t10.0\t5.0\n"
                         "s\t1\t4\t20.0\tnan\n"},
                 id="match-trace-nan-size"),
    pytest.param(["match", "--nss", "{nss}", "--traces", "{trc}", "--fit", "{fit}"],
                 {"nss": NSS_ONE, "fit": FIT_HEAD + FIT_ROW,
                  "trc": "#trace v1 seed=0 capture=0.5\ns\t0\t2\t10.0\t5.0\n"
                         f"s\t1\t{2**63}\t20.0\t5.0\n"},
                 id="match-trace-count-over-int64"),
])
def test_malformed_numbers_end_in_one_error_line(tmp_path, capsys, command, files):
    paths = {}
    for name, text in files.items():
        paths[name] = tmp_path / name
        paths[name].write_text(text)
    argv = [a.format(**paths) for a in command] + ["--out", str(tmp_path / "out")]
    assert main(argv) == 1
    errors = [l for l in capsys.readouterr().err.splitlines() if l.startswith("error:")]
    assert len(errors) == 1 and f"{tmp_path}" in errors[0], errors
    assert any(re.search(rf"{re.escape(str(path))}:\d+: ", errors[0]) for path in paths.values())


@pytest.mark.parametrize("command", [
    ["analyze", "--nss", "{nss}", "--seqs", "{seqs}", "--out", "{out}"],
    ["match", "--nss", "{nss}", "--traces", "{trc}", "--fit", "{fit}"],
])
def test_nss_without_records_ends_in_one_error_line(tmp_path, capsys, command):
    paths = {name: tmp_path / name for name in ("nss", "seqs", "trc", "fit", "out")}
    paths["nss"].write_text("#nss v1 model=m q=0.9\n")
    paths["seqs"].write_text("#seq v1 vocab_size=9\ns\t0\t1,2\n")
    paths["trc"].write_text("#trace v1 seed=0 capture=0.5\ns\t0\t2\t10.0\t5.0\n")
    paths["fit"].write_text(FIT_HEAD + FIT_ROW)
    assert main([a.format(**paths) for a in command]) == 1
    errors = [l for l in capsys.readouterr().err.splitlines() if l.startswith("error:")]
    assert len(errors) == 1 and f"{paths['nss']}:1:" in errors[0], errors


def test_sequence_shorter_than_its_nss_ends_in_one_error_line(tmp_path, capsys):
    nss, seqs, out = tmp_path / "series.nss", tmp_path / "seqs.txt", tmp_path / "out"
    nss.write_text("#nss v1 model=m q=0.9\n" + "".join(
        f"{seq_id}\t{t}\tn={n}\n" for seq_id, sizes in (("s", (5, 7, 1)), ("u", (2, 9, 4)))
        for t, n in enumerate(sizes)))
    # one record short, then every record equally short: nothing may be written
    for records, short in (("s\t0\t1,2,3\nu\t0\t1,2\n", "u"), ("s\t0\t1,2\nu\t0\t1,2\n", "s")):
        seqs.write_text("#seq v1 vocab_size=9\n" + records)
        assert main(["analyze", "--nss", str(nss), "--seqs", str(seqs), "--threshold", "0",
                     "--out", str(out)]) == 2
        errors = [l for l in capsys.readouterr().err.splitlines() if l.startswith("error:")]
        assert errors == [f"error: usage: {seqs}: sequence {short!r} has 2 words, "
                          "fewer than the NSS length 3"]
        assert not out.exists()


def test_match_rejects_fit_without_error_bound(tmp_path, capsys):
    nss, fit, trc = tmp_path / "s.nss", tmp_path / "fit.csv", tmp_path / "pool.trc"
    nss.write_text(NSS_ONE)
    fit.write_text(FIT_HEAD + "2,1e-06,1.0,0.5,5.0,nan,nan,nan,nan\n")
    trc.write_text("#trace v1 seed=0 capture=0.5\ns\t0\t2\t10.0\t5.0\n"
                   "s\t1\t4\t20.0\t7.0\n")
    assert main(["match", "--nss", str(nss), "--traces", str(trc), "--fit", str(fit)]) == 2
    err = capsys.readouterr().err
    assert err.count("error:") == 1 and "--traces" in err
    fit.write_text(FIT_HEAD + "3" + FIT_ROW[1:])  # fitted for another N
    assert main(["match", "--nss", str(nss), "--traces", str(trc), "--fit", str(fit)]) == 2
    assert capsys.readouterr().err.count("error:") == 1


def test_match_target_prints_and_writes_only_that_line(tmp_path, capsys):
    nss, fit, trc, out = (tmp_path / name for name in ("s.nss", "fit.csv", "pool.trc", "m.txt"))
    nss.write_text(NSS_ONE + "t\t0\tn=9\nt\t1\tn=3\n")
    fit.write_text(FIT_HEAD + FIT_ROW)
    trc.write_text(GOOD_INPUTS["trc"] + "t\t0\t2\t10.0\t9.0\nt\t1\t4\t20.0\t3.0\n")
    argv = ["match", "--nss", str(nss), "--traces", str(trc), "--fit", str(fit),
            "--threshold", "-1", "--out", str(out)]
    assert main(argv) == 0
    every = capsys.readouterr().out.splitlines()
    assert [line.split("\t")[:3] for line in every] == [["s", "no_match", "-"],
                                                        ["t", "matched", "t"]]
    assert main(argv + ["--target", "t"]) == 0
    assert capsys.readouterr().out.splitlines() == out.read_text().splitlines() == every[1:]
    out.unlink()
    assert main(argv + ["--target", "zz"]) == 2
    assert _errors(capsys) == [f"error: usage: no series named 'zz' in {nss}"]
    assert not out.exists()


@pytest.mark.parametrize("text, line", [
    ("N,log_mu,log_sigma,U,d,tau\n2,1.0,0.5,5.0,1.0,4.0\n", 1),  # the layout before v2
    (FIT_HEAD + FIT_ROW + FIT_ROW, 5),
])
def test_fit_report_layout_errors(tmp_path, capsys, text, line):
    fit = tmp_path / "fit.csv"
    fit.write_text(text)
    assert main(["report", "--fit", str(fit)]) == 1
    errors = [l for l in capsys.readouterr().err.splitlines() if l.startswith("error:")]
    assert len(errors) == 1 and errors[0].startswith(f"error: {fit}:{line}:"), errors


@pytest.mark.parametrize("text", ["not json\n", '{"format":"ngram v1"}', '{"format":"ngram v2"}'])
def test_bad_model_file_ends_in_one_error_line(tmp_path, capsys, text):
    model = tmp_path / "model.json"
    model.write_text(text)
    assert run(["nss", "--model", model, "--seqs", tmp_path / "seqs.txt",
                "--out", tmp_path / "out.nss"]) == 1
    errors = [l for l in capsys.readouterr().err.splitlines() if l.startswith("error:")]
    assert len(errors) == 1 and str(model) in errors[0], errors


def test_ngram_v1_model_ends_in_one_retired_error_line(tmp_path, capsys):
    model = tmp_path / "model.json"
    model.write_text('{"format":"ngram v1"}')
    assert run(["nss", "--model", model, "--seqs", tmp_path / "seqs.txt",
                "--out", tmp_path / "out.nss"]) == 1
    errors = [l for l in capsys.readouterr().err.splitlines() if l.startswith("error:")]
    assert errors == [f"error: {model}: the ngram v1 model format is retired; "
                      "rerun nssfp train to write this model again"]


def test_id_with_delimiter_ends_in_one_error_line(tmp_path, capsys):
    corpus = tmp_path / "corpus.tsv"
    corpus.write_text("a,b\t1\tone two three\nc\t2\tfour five six\n")
    assert run(["train", "--corpus", corpus, "--out", tmp_path / "m.json"]) == 1
    errors = [l for l in capsys.readouterr().err.splitlines() if l.startswith("error:")]
    assert len(errors) == 1 and "'a,b'" in errors[0], errors


def test_bad_weights_flag_ends_in_one_error_line(tmp_path, capsys):
    # a flag value stays text, which resolve_config parses as it parses a file's
    assert build_parser().parse_args(
        ["train", "--corpus", "c", "--out", "m", "--weights", "0.2,0.3,0.5"]
    ).weights == "0.2,0.3,0.5"
    out = tmp_path / "m.json"
    assert main(["train", "--corpus", "c", "--out", str(out), "--weights", "a,b"]) == 1
    assert capsys.readouterr().err == "error: bad value for weights: 'a,b'\n"
    assert not out.exists()


def test_bench_variant_choices_are_both_then_each_filter(tmp_path, capsys):
    variant = dict(COMMANDS["bench"][1])["--variant"]
    assert list(variant["choices"]) == ["both", "vulnerable", "mitigated"]
    assert variant["default"] == "both"
    assert main(["bench", "--variant", "all", "--out", str(tmp_path / "bench.csv")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: usage: argument --variant: "), err
    assert "invalid choice: 'all'" in err[0]


def test_bench_and_report(tmp_path, capsys):
    bench = tmp_path / "bench.csv"
    assert run(["bench", "--variant", "both", "--vocab-size", "2000",
                "--trials", "6", "--seed", "2", "--out", bench]) == 0
    out = capsys.readouterr().out
    assert "slowdown=" in out
    assert run(["report", "--bench", bench]) == 0
    assert "vulnerable" in capsys.readouterr().out


def test_report_histogram(tmp_path, corpus_file, capsys):
    model = tmp_path / "model.json"
    seqs = tmp_path / "seqs.txt"
    nss = tmp_path / "series.nss"
    dists = tmp_path / "dist.csv"
    for args in (
        ["train", "--corpus", corpus_file, "--out", model, "--save-seqs", seqs],
        ["nss", "--corpus", corpus_file, "--model", model, "--truncate",
         "--length", "160", "--out", nss],
        ["analyze", "--nss", nss, "--seqs", seqs, "--threshold", "400", "--out", dists],
    ):
        assert run(args) == 0
    hist = tmp_path / "hist.csv"
    assert run(["report", "--distances", dists, "--buckets", "40",
                "--hist-window", "5", "--out", hist]) == 0
    lines = hist.read_text().splitlines()
    assert lines[1] == "bucket_center,smoothed_density"
    assert len(lines) == 42


def test_config_precedence(tmp_path, monkeypatch):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("q=0.8\nseed=3\nchannel.capture_fraction=0.02\n# comment\n")
    file_values = read_config_file(cfg_file)
    monkeypatch.setenv("NSSFP_Q", "0.7")
    monkeypatch.setenv("NSSFP_CHANNEL__HIT_JITTER_STD", "11.0")
    cfg = resolve_config(file_values, env_overrides(), {"seed": 9})
    assert cfg.q == 0.7               # env beats file
    assert cfg.seed == 9              # flag beats file
    assert cfg.channel.capture_fraction == 0.02
    assert cfg.channel.hit_jitter_std == 11.0
    assert cfg.sequence_length == 2700  # untouched default


def test_config_rejects_unknown_keys():
    with pytest.raises(ConfigurationError):
        resolve_config({"nonsense": "1"}, {}, {})
    with pytest.raises(ConfigurationError):
        resolve_config({"channel.bogus": "1"}, {}, {})
    with pytest.raises(ConfigurationError):
        resolve_config({"q": "not_a_number"}, {}, {})


# a flag key follows the rule of a file or environment key
@pytest.mark.parametrize("sources, message", [
    (({}, {}, {"bogus": 1}), "unknown option 'bogus'"),
    (({}, {}, {"channel": 1}), "unknown option 'channel'"),
    (({}, {}, {"channel.bogus": 1}), "unknown channel option 'bogus'"),
    (({}, {}, {"q": "x"}), "bad value for q: 'x'"),
    (({}, {}, {"weights": "a,b"}), "bad value for weights: 'a,b'"),
    (({}, {}, {"channel.segment_gap_cycles": "1.5"}), "bad value for segment_gap_cycles: '1.5'"),
], ids=["flag", "flag-channel", "flag-channel-field", "flag-str",
        "flag-weights", "flag-channel-int"])
def test_resolve_config_checks_every_source_alike(sources, message):
    with pytest.raises(ConfigurationError) as exc:
        resolve_config(*sources)
    assert str(exc.value) == message


def test_resolve_config_parses_strings_and_takes_other_values_as_given():
    cfg = resolve_config({"q": 0.5, "channel.segment_gap_cycles": 7},
                         {"weights": "0.2,0.3,0.5"},
                         {"seed": "4", "channel.capture_fraction": "0.25", "order": None})
    assert (cfg.q, cfg.weights, cfg.seed, cfg.order) == (0.5, (0.2, 0.3, 0.5), 4, 3)
    assert (cfg.channel.segment_gap_cycles, cfg.channel.capture_fraction) == (7, 0.25)
    assert type(cfg.seed) is int and cfg.channel.rng_seed == 4
    with pytest.raises(ConfigurationError):  # a wrongly typed value that is not a string
        resolve_config(flag_values={"sequence_length": [5]})


def test_resolve_config_seeds_the_channel_from_seed():
    assert resolve_config({}, {}, {"seed": 9}).channel.rng_seed == 9
    assert resolve_config({"seed": "4"}).channel.rng_seed == 4
    assert resolve_config().channel.rng_seed == 0


@pytest.mark.parametrize("sources", [
    ({"channel.rng_seed": "5"}, {}, {}), ({"channel.rng_seed": "x"}, {}, {}),
    ({}, {"channel.rng_seed": "5"}, {}), ({}, {}, {"channel.rng_seed": 5})],
    ids=["file", "file-bad-value", "env", "flags"])
def test_resolve_config_refuses_a_channel_seed_from_every_source(sources):
    with pytest.raises(ConfigurationError) as exc:
        resolve_config(*sources)
    assert str(exc.value) == "channel.rng_seed follows seed; set seed instead"


@pytest.mark.parametrize("source", ["config", "env"])
def test_channel_rng_seed_key_ends_in_one_error_line(tmp_path, capsys, monkeypatch, source):
    # the CLI overwrites the channel seed with seed, so the key would have no effect
    out = tmp_path / "bench.csv"
    argv = ["bench", "--vocab-size", "64", "--trials", "1", "--out", str(out)]
    if source == "config":
        (tmp_path / "run.cfg").write_text("channel.rng_seed=99\n")
        argv += ["--config", str(tmp_path / "run.cfg")]
    else:
        monkeypatch.setenv("NSSFP_CHANNEL__RNG_SEED", "5")
    assert main(argv) == 1
    errors = [l for l in capsys.readouterr().err.splitlines() if l.startswith("error:")]
    assert errors == ["error: channel.rng_seed follows seed; set seed instead"]
    assert not out.exists()


def test_resolved_lines_are_deterministic():
    a = PipelineConfig().resolved_lines()
    b = PipelineConfig().resolved_lines()
    assert a == b and a == sorted(a)
    assert any(line.startswith("q=") for line in a)
    assert any(line.startswith("channel.capture_fraction=") for line in a)


def test_degenerate_fit_report_names_its_line(tmp_path, capsys):
    fit = tmp_path / "fit.csv"
    fit.write_text(FIT_HEAD + "2,1e-06,1.0,0.0,5.0,0.5,0.05,1.0,4.0\n")  # log_sigma 0
    assert main(["report", "--fit", str(fit)]) == 1
    errors = [l for l in capsys.readouterr().err.splitlines() if l.startswith("error:")]
    assert len(errors) == 1 and errors[0].startswith(f"error: {fit}:4:"), errors
    assert "log_sigma" in errors[0]


@pytest.mark.parametrize("files, args, where", [
    ({"corpus.tsv": b"a\t1\tone two\nb\t2\tcaf\xe9 au lait\n"},
     ["--corpus", "@corpus.tsv"], "corpus.tsv:2:"),
    ({"corpus.tsv": b"a\t1\tone two\n", "run.cfg": b"seed=3\n# caf\xe9\n"},
     ["--corpus", "@corpus.tsv", "--config", "@run.cfg"], "run.cfg:2:"),
    ({"posts/alice.txt": b"one two\n", "posts/bob.txt": b"three\n\ncaf\xe9\n"},
     ["--corpus", "@posts", "--format", "plain_dir"], "posts/bob.txt:3:"),
])
def test_non_utf8_input_ends_in_one_error_line(tmp_path, capsys, files, args, where):
    (tmp_path / "posts").mkdir()
    for name, data in files.items():
        (tmp_path / name).write_bytes(data)
    argv = [a.replace("@", f"{tmp_path}/") for a in args]
    assert main(["train", *argv, "--out", str(tmp_path / "m.json")]) == 1
    errors = [l for l in capsys.readouterr().err.splitlines() if l.startswith("error:")]
    assert len(errors) == 1 and errors[0] == f"error: {tmp_path}/{where} not UTF-8 text", errors


def test_report_evaluation_prints_summary_and_rows(tmp_path, capsys):
    report = tmp_path / "report.csv"
    report.write_bytes(b"#evaluation v1\n# seed=4\n# total=2 recall=1.0\n"
                       b"seq_id,verdict\na,b  \n")
    assert main(["report", "--evaluation", str(report)]) == 0
    assert capsys.readouterr().out == "total=2 recall=1.0\nseq_id,verdict\na,b\n"
    report.write_bytes(b"#evaluation v1\n# total=1\ncaf\xe9,x\n")
    assert main(["report", "--evaluation", str(report)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert [l for l in captured.err.splitlines() if not l.startswith("# config ")] == [
        f"error: {report}:3: not UTF-8 text"]


def _model_json(tables='{"2":{"contexts":[0],"counts":[2],"ids":[1],"successors":[1]}}',
                unigram="[2,1,0]", weights="[0.4,0.6]", model_id='"m"', layout="ngram v2"):
    """A model file of 3 tokens and order 2, with the given values in place."""
    return ('{"format":"%s","model_id":%s,"order":2,"tables":%s,'
            '"tokens":["a","b","c"],"unigram_counts":%s,"weights":%s}'
            % (layout, model_id, tables, unigram, weights))


def _v2_table(contexts="[0]", successors="[1]", ids="[1]", counts="[2]"):
    return ('{"contexts":%s,"counts":%s,"ids":%s,"successors":%s}'
            % (contexts, counts, ids, successors))


@pytest.mark.parametrize("tables, message", [
    ((), "orders 2..2"), ((_v2_table(), _v2_table()), "orders 2..2"),
    ((_v2_table(contexts="[0,1]"),), "lengths"), ((_v2_table(successors="[2]"),), "lengths"),
    ((_v2_table(counts="[2,1]"),), "lengths"),
    ((_v2_table(counts="[true]"),), "integers"), ((_v2_table(counts="[2.0]"),), "integers"),
    ((_v2_table(successors="[true]"),), "integers"),
    ((_v2_table(ids="[3]"),), "outside [0, 3)"), ((_v2_table(contexts="[3]"),), "outside [0, 3)"),
    ((_v2_table(counts="[0]"),), "count below 1"),
    ((_v2_table(counts="[99999999999999999999]"),), "OverflowError"),
    ((_v2_table(contexts='"0"'),), "integers"),
    (('{"contexts":[0],"counts":[2],"ids":[1],"successor":[1]}',), "exactly the arrays"),
    ((_v2_table(successors="[0]", ids="[]", counts="[]"),), "no successor"),
    ((_v2_table("[1,0]", "[1,1]", "[1,2]", "[2,1]"),), "ascend"),
    ((_v2_table("[0,0]", "[1,1]", "[1,2]", "[2,1]"),), "ascend"),
    ((_v2_table("[0]", "[2]", "[2,1]", "[1,1]"),), "ascend"),
    ((_v2_table("[0]", "[2]", "[1,1]", "[1,1]"),), "ascend"),
])
def test_malformed_v2_model_ends_in_one_error_line(tmp_path, capsys, tables, message):
    model = tmp_path / "model.json"
    model.write_text('{"format":"ngram v2","model_id":"m","order":2,"tables":{%s},'
                     '"tokens":["a","b","c"],"unigram_counts":[2,1,0],"weights":[0.4,0.6]}'
                     % ",".join(f'"{k}":{t}' for k, t in enumerate(tables, start=2)))
    assert run(["nss", "--model", model, "--seqs", tmp_path / "seqs.txt",
                "--out", tmp_path / "out.nss"]) == 1
    errors = [l for l in capsys.readouterr().err.splitlines() if l.startswith("error:")]
    assert len(errors) == 1 and errors[0].startswith(f"error: {model}: malformed model file ("), \
        errors
    assert message in errors[0]


# one valid file per input format, and malformed variants with the line of their error
# (None for a model file, whose errors name the path alone)
GOOD_INPUTS = {
    "corpus": "a\t1\tone two three\nb\t2\tfour five six\n",
    "config": "seed=3\n",
    "seqs": "#seq v1 vocab_size=9\ns\t0\t1,2\n",
    "nss": NSS_ONE,
    "dist": "#pairdist v1 length=2\n" + "".join(f"a{i},b{i},{1.0 + i / 8}\n"
                                               for i in range(40)),
    "trc": "#trace v1 seed=0 capture=0.5\ns\t0\t2\t10.0\t5.0\ns\t1\t4\t20.0\t7.0\n",
    "fit": FIT_HEAD + FIT_ROW,
    "bench": BENCH_HEAD + "vulnerable,10,5,7\n",
    "evaluation": "#evaluation v1\n# total=1 recall=1.0\nseq_id,matched\ns,no_match\n",
}
BAD_INPUTS = {
    "corpus": [("a\t1\tok\nb\t2\n", 2), ("a\tnoon\tok\n", 1), ("a\t1\tcaf\udce9\n", 1),
               ("a\tnan\tok\n", 1), ("a\t1\tok\nb\t-inf\tok\n", 2)],
    "config": [("seed=3\nseed 4\n", 2), ("# caf\udce9\n", 1)],
    "model": [("not json\n", 1),
              # the retired layout, whatever its tables hold
              (_model_json(tables='{"2":{"0":{"1":2}}}', layout="ngram v1"), None),
              (_model_json(tables='{"2":{"0":{}}}', layout="ngram v1"), None),
              # tables of the wrong order, ids out of range, bad counts, no
              # successors, and contexts or successors out of order or repeated
              *[(_model_json(tables=tables), None) for tables in (
                  '{"3":%s}' % _v2_table(contexts="[0,1]"), '{"1":%s}' % _v2_table(contexts="[]"),
                  '{"2":%s}' % _v2_table(contexts="[0,1]"), '{"2":%s}' % _v2_table(contexts="[3]"),
                  '{"2":%s}' % _v2_table(ids="[999999]"), '{"2":%s}' % _v2_table(counts="[-2]"),
                  '{"2":%s}' % _v2_table(counts="[1.5]"),
                  '{"2":%s}' % _v2_table(successors="[0]", ids="[]", counts="[]"),
                  '{"2":%s}' % _v2_table("[1,0]", "[1,1]", "[1,2]", "[2,1]"),
                  '{"2":%s}' % _v2_table("[0,0]", "[1,1]", "[1,2]", "[2,1]"),
                  '{"2":%s}' % _v2_table("[0]", "[2]", "[1,1]", "[1,2]"))],
              (_model_json(unigram="[2,-1,0]"), None), (_model_json(unigram="[2,1]"), None),
              (_model_json(weights="[0.9,0.2]"), None), (_model_json(weights="[1.0]"), None),
              (_model_json(weights="[NaN,1.0]"), None),
              # an NSS header holds the model id as one word
              *[(_model_json(model_id=model_id), None) for model_id in ('"a b"', '""', '["x"]')]],
    "seqs": [("s\t0\t1,2\n", 1), ("#seq v1 vocab_size=9\ns\t0\n", 2),
             ("#seq v1 vocab_size=9\ns\t0\t1,x\n", 2),
             ("#seq v1 vocab_size=9\n#seq v1 vocab_size=8\n", 2),
             ("#seq v1 vocab_size=9\ns\t0\t1,2\ns\t0\t3,4\n", 3),
             ("#seq v1 vocab_size=9\ns\t0,5\t1,2\n", 2),
             ("#seq v1 vocab_size=9\ns\t1\t1,2\n", 2)],
    "nss": [("s\t0\tn=5\n", 1), ("#nss v1 model=m q=0.9\ns\t0\n", 2),
            ("#nss v1 model=m q=0.9\na,b\t0\tn=5\na,b\t1\tn=6\n", 2),
            ("#nss v1 model=m q=0.9\ns\t0\tn=x\n", 2),
            ("#nss v1 model=m q=0.9\n# \udce9\ns\t0\tn=5\n", 2),
            ("#nss v1 model=m q=0.9\ns\t0\tn=5\ns\t1\tn=7\ns\t1\tn=8\n", 4),
            ("#nss v1 model=m q=0.9\nu\t0\tn=5\ns\t1\tn=7\ns\t2\tn=8\n", 3)],
    "dist": [("a,b,1.5\n", 1), ("#pairdist v1 length=2\na,b\n", 2),
             ("#pairdist v1 length=2\n\na,b,nan\n", 3),
             ("#pairdist v1 length=2\na,b,-1.5\n", 2)],
    "trc": [("s\t0\t2\t10.0\t5.0\n", 1), ("#trace v1 seed=0 capture=0.5\ns\t0\t2\n", 2),
            ("#trace v1 seed=0 capture=0.5\ns\t0\t-4\t10.0\t5.0\n", 2),
            ("#trace v1 seed=0 capture=0.5\ns\t0\t2\t10.0\t5.0\na,b\t0\t2\t10.0\t5.0\n", 3),
            ("#trace v1 seed=0 capture=0.5\ns\t0\t2\t10.0\t5.0\n"
             "#trace v1 seed=0 capture=0.01\ns\t1\t4\t20.0\t7.0\n", 3)],
    "fit": [(FIT_ROW, 1), (FIT_HEAD + "2,1e-06\n", 4), (FIT_HEAD + FIT_ROW + FIT_ROW, 5),
            ("#fit v2\n\udce9\n", 2)],
    "bench": [(BENCH_HEAD + "vulnerable,10\n", 2), (BENCH_HEAD + "mitigated,1,2,x\n", 2),
              ("# caf\udce9\n", 1), (BENCH_HEAD + "vulnerabel,10,5,7\n", 2),
              (BENCH_HEAD + "vulnerable,10,-5,-7\n", 2), (BENCH_HEAD + "vulnerable,10,50,7\n", 2),
              (BENCH_HEAD + "mitigated,0,0,7\n", 2), (BENCH_HEAD + "mitigated,10,5,-1\n", 2)],
    "evaluation": [("seq_id,matched\ns,no_match\n", 1),
                   ("#evaluation v1\n# total=1\n#evaluation v1\nseq_id,matched\n", 3)],
}
# every subcommand that reads a file, with the format of each input it reads
READING_COMMANDS = [
    (["train", "--corpus", "{corpus}"], ["corpus"]),
    (["train", "--corpus", "{corpus}", "--config", "{config}"], ["config"]),
    (["evaluate", "--corpus", "{corpus}"], ["corpus"]),
    (["bench", "--config", "{config}"], ["config"]),
    (["nss", "--model", "{model}", "--seqs", "{seqs}"], ["model", "seqs"]),
    (["analyze", "--nss", "{nss}", "--seqs", "{seqs}"], ["nss", "seqs"]),
    (["fit", "--distances", "{dist}", "--nss", "{nss}", "--traces", "{trc}"],
     ["dist", "nss", "trc"]),
    (["simulate", "--nss", "{nss}", "--vocab-size", "9"], ["nss"]),
    (["match", "--nss", "{nss}", "--traces", "{trc}", "--fit", "{fit}"], ["nss", "fit", "trc"]),
    (["report", "--fit", "{fit}"], ["fit"]),
    (["report", "--distances", "{dist}"], ["dist"]),
    (["report", "--bench", "{bench}"], ["bench"]),
    (["report", "--evaluation", "{evaluation}"], ["evaluation"]),
]


@pytest.fixture(scope="module")
def good_inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("good")
    paths = {name: root / name for name in (*GOOD_INPUTS, "model")}
    for name, text in GOOD_INPUTS.items():
        paths[name].write_text(text)
    assert main(["train", "--corpus", str(paths["corpus"]), "--out", str(paths["model"])]) == 0
    return paths


@pytest.mark.parametrize("command, slot, text, line", [
    pytest.param(command, slot, text, line, id=f"{command[0]}-{slot}-{i}")
    for command, slots in READING_COMMANDS for slot in slots
    for i, (text, line) in enumerate(BAD_INPUTS[slot])])
def test_every_malformed_input_ends_in_one_error_line(tmp_path, capsys, good_inputs,
                                                      command, slot, text, line):
    bad = tmp_path / slot
    bad.write_bytes(text.encode("utf-8", "surrogateescape"))
    paths = {**good_inputs, slot: bad}
    argv = [a.format(**paths) for a in command] + ["--out", str(tmp_path / "out")]
    assert main(argv) in (1, 2)
    errors = [l for l in capsys.readouterr().err.splitlines() if l.startswith("error:")]
    assert len(errors) == 1 and (f"{bad}:{line}: " if line else f"{bad}: ") in errors[0], errors


def test_repeated_sequence_id_ends_in_one_error_line(tmp_path, capsys, good_inputs):
    # once, nss wrote both records under one id and read_nss joined them into one series
    seqs, out = tmp_path / "seqs.txt", tmp_path / "series.nss"
    seqs.write_text("#seq v1 vocab_size=9\ns\t0\t1,2\nu\t0\t3,4\ns\t0\t5,6\n")
    assert main(["nss", "--model", str(good_inputs["model"]), "--seqs", str(seqs),
                 "--out", str(out)]) == 1
    errors = [l for l in capsys.readouterr().err.splitlines() if l.startswith("error:")]
    assert len(errors) == 1 and f"{seqs}:4: " in errors[0], errors
    assert not out.exists()


def test_report_resolves_its_configuration(tmp_path, capsys, good_inputs):
    fit = str(good_inputs["fit"])
    assert main(["report", "--fit", fit, "--seed", "4"]) == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("N=") and "# config seed=4" in captured.err.splitlines()
    assert main(["report", "--fit", fit, "--config", str(tmp_path / "missing.cfg")]) == 1
    errors = [l for l in capsys.readouterr().err.splitlines() if l.startswith("error:")]
    assert len(errors) == 1 and "missing.cfg" in errors[0], errors


# arguments with which each subcommand runs to completion on the good inputs
COMMAND_RUNS = {
    "synth": ["--authors", "2", "--vocab-size", "60", "--target-words", "5"],
    "train": ["--corpus", "{corpus}"],
    "nss": ["--model", "{model}", "--seqs", "{seqs}"],
    "analyze": ["--nss", "{nss}", "--seqs", "{seqs}"],
    "fit": ["--distances", "{dist}"],
    "simulate": ["--nss", "{nss}", "--vocab-size", "9"],
    "match": ["--nss", "{nss}", "--traces", "{trc}", "--fit", "{fit}"],
    "evaluate": ["--corpus", "{authors}", "--length", "160", "--threshold", "400",
                 "--epsilon", "1e-6", "--capture-fraction", "0.05"],
    "bench": ["--vocab-size", "64", "--trials", "1"],
    "report": ["--fit", "{fit}"],
}


def _command_argv(command, good_inputs, corpus_file, *extra):
    paths = {**good_inputs, "authors": corpus_file}
    return [command, *(a.format(**paths) for a in COMMAND_RUNS[command]), *map(str, extra)]


@pytest.mark.parametrize("command", list(COMMANDS))
def test_every_command_logs_its_configuration_once_first(tmp_path, capsys, good_inputs,
                                                         corpus_file, command):
    argv = _command_argv(command, good_inputs, corpus_file, "--seed", 3,
                         "--out", tmp_path / "out")
    assert main(argv) == 0
    err = capsys.readouterr().err.splitlines()
    keys = [line.split("=", 1)[0] for line in PipelineConfig().resolved_lines()]
    assert [line.split("=", 1)[0] for line in err[:len(keys)]] == [f"# config {k}"
                                                                   for k in keys]
    assert "# config seed=3" in err[:len(keys)]
    assert not [line for line in err[len(keys):] if line.startswith("# config ")]


@pytest.mark.parametrize("command", list(COMMANDS))
def test_bad_config_value_ends_every_command_in_one_error_line(tmp_path, capsys, good_inputs,
                                                               corpus_file, command):
    cfg, out = tmp_path / "bad.cfg", tmp_path / "out"
    cfg.write_text("q=x\n")
    assert main(_command_argv(command, good_inputs, corpus_file, "--config", cfg,
                              "--out", out)) == 1
    assert _errors(capsys) == ["error: bad value for q: 'x'"]
    assert not out.exists()


@pytest.mark.parametrize("command", list(COMMANDS))
def test_every_command_returns_nothing_and_main_exits_zero(tmp_path, capsys, monkeypatch,
                                                           good_inputs, corpus_file, command):
    returned, command_fn = [], getattr(cli, f"cmd_{command}")
    monkeypatch.setattr(cli, f"cmd_{command}",
                        lambda args, cfg: returned.append(command_fn(args, cfg)))
    assert main(_command_argv(command, good_inputs, corpus_file, "--out", tmp_path / "out")) == 0
    assert returned == [None]


# usage faults that each command finds after its arguments parse
@pytest.mark.parametrize("argv, message", [
    (["nss", "--model", "{model}"], "nss needs --corpus or --seqs"),
    (["nss", "--model", "{model}", "--seqs", "{seqs}", "--truncate", "--length", "3"],
     "no sequence reaches length 3"),
    (["analyze", "--nss", "{nss}", "--seqs", "{other_seqs}"], "sequences missing for ['s']..."),
    (["fit", "--distances", "{dist}", "--traces", "{trc}"],
     "--traces requires --nss for ground truth"),
    (["evaluate", "--corpus", "{corpus}", "--length", "4"],
     "need >= 2 sequences of length 4, got 0"),
    (["report", "--distances", "{dist}"], "histogram output needs --out"),
    (["report"], "report needs one of --evaluation/--fit/--distances/--bench"),
], ids=["nss-no-input", "nss-too-short", "analyze-missing-id", "fit-traces-no-nss",
        "evaluate-too-short", "report-histogram-no-out", "report-no-mode"])
def test_command_usage_fault_ends_in_one_usage_line(tmp_path, capsys, good_inputs,
                                                    argv, message):
    other_seqs, out = tmp_path / "other.seq", tmp_path / "out"
    other_seqs.write_text("#seq v1 vocab_size=9\nt\t0\t1,2\n")
    paths = {**good_inputs, "other_seqs": other_seqs}
    argv = [a.format(**paths) for a in argv]
    assert main(argv + ([] if argv[:2] == ["report", "--distances"] else ["--out", str(out)])) == 2
    assert _errors(capsys) == [f"error: usage: {message}"]
    assert not out.exists()


@pytest.mark.parametrize("source", ["config", "env"])
def test_weights_from_config_or_env_reach_the_model(tmp_path, capsys, monkeypatch,
                                                    good_inputs, source):
    model, argv = tmp_path / "model.json", ["train", "--corpus", str(good_inputs["corpus"])]
    if source == "config":
        (tmp_path / "run.cfg").write_text("weights=0.2,0.3,0.5\n")
        argv += ["--config", str(tmp_path / "run.cfg")]
    else:
        monkeypatch.setenv("NSSFP_WEIGHTS", "0.2,0.3,0.5")
    assert main(argv + ["--out", str(model)]) == 0
    assert "# config weights=0.2,0.3,0.5" in capsys.readouterr().err.splitlines()
    assert load_model(model).weights == (0.2, 0.3, 0.5)


@pytest.mark.parametrize("order", ["3.0", "true"])
def test_model_order_that_is_not_an_int_ends_in_one_error_line(tmp_path, capsys, good_inputs,
                                                               order):
    model, out = tmp_path / "model.json", tmp_path / "out.nss"
    model.write_text(_model_json().replace('"order":2', f'"order":{order}'))
    assert main(["nss", "--model", str(model), "--seqs", str(good_inputs["seqs"]),
                 "--out", str(out)]) == 1
    errors = _errors(capsys)
    assert len(errors) == 1 and errors[0].startswith(f"error: {model}: malformed model file ("), \
        errors
    assert not out.exists()


def test_bench_one_variant_prints_its_line_and_no_slowdown(tmp_path, capsys):
    assert main(["bench", "--variant", "vulnerable", "--vocab-size", "64", "--trials", "2",
                 "--out", str(tmp_path / "bench.csv")]) == 0
    out = capsys.readouterr().out.splitlines()
    assert len(out) == 1 and out[0].startswith("vulnerable: median_loop_ns="), out


@pytest.mark.parametrize("command, source, value", [
    ("nss", "flag", -3), ("nss", "config", 0), ("evaluate", "flag", 0),
    ("evaluate", "config", -1)])
def test_sequence_length_below_one_ends_in_one_error_line(tmp_path, capsys, good_inputs,
                                                          command, source, value):
    out = tmp_path / "out"
    argv = (["nss", "--model", str(good_inputs["model"]), "--seqs", str(good_inputs["seqs"]),
             "--truncate"] if command == "nss" else
            ["evaluate", "--corpus", str(good_inputs["corpus"])]) + ["--out", str(out)]
    if source == "flag":
        argv += ["--length", str(value)]
    else:
        (tmp_path / "run.cfg").write_text(f"sequence_length={value}\n")
        argv += ["--config", str(tmp_path / "run.cfg")]
    assert main(argv) == 1
    errors = [l for l in capsys.readouterr().err.splitlines() if l.startswith("error:")]
    assert errors == [f"error: sequence_length must be >= 1, got {value}"]
    assert not out.exists()


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=str)
def test_config_rejects_a_non_finite_threshold(value):
    with pytest.raises(ConfigurationError, match="variability_threshold must be finite"):
        PipelineConfig(variability_threshold=value)
    # a negative threshold makes every series variable
    assert PipelineConfig(variability_threshold=-1.0).variability_threshold == -1.0


@pytest.mark.parametrize("command", [
    ["analyze", "--nss", "{nss}", "--seqs", "{seqs}"],
    ["match", "--nss", "{nss}", "--traces", "{trc}", "--fit", "{fit}"],
    ["evaluate", "--corpus", "{corpus}"]], ids=lambda command: command[0])
@pytest.mark.parametrize("source", ["flag", "config", "env"])
@pytest.mark.parametrize("value", ["nan", "inf"])
def test_non_finite_threshold_ends_in_one_error_line(tmp_path, capsys, monkeypatch,
                                                     good_inputs, command, source, value):
    out = tmp_path / "out"
    argv = [a.format(**good_inputs) for a in command] + ["--out", str(out)]
    if source == "flag":
        argv += ["--threshold", value]
    elif source == "config":
        (tmp_path / "run.cfg").write_text(f"variability_threshold={value}\n")
        argv += ["--config", str(tmp_path / "run.cfg")]
    else:
        monkeypatch.setenv("NSSFP_VARIABILITY_THRESHOLD", value)
    assert main(argv) == 1
    assert _errors(capsys) == [f"error: variability_threshold must be finite, got {value}"]
    assert not out.exists()


def _errors(capsys):
    return [l for l in capsys.readouterr().err.splitlines() if l.startswith("error:")]


@pytest.mark.parametrize("flag, value, message", [
    ("--vocab-size", "59", "vocab_size must be >= 60"),
    ("--vocab-size", "0", "vocab_size must be >= 60"),
    ("--vocab-size", "1048577", "vocab_size must be >= 60, the size of an author's lexicon, "
                                "and <= 1048576, got 1048577"),
    ("--target-words", "0", "target_words must be >= 1"),
    ("--target-words", "-5", "target_words must be >= 1"),
    ("--seed", "-1", "seed must be >= 0"),
])
def test_synth_argument_out_of_range_ends_in_one_usage_line(tmp_path, capsys, flag, value,
                                                            message):
    out = tmp_path / "corpus.tsv"
    assert main(["synth", "--authors", "2", flag, value, "--out", str(out)]) == 2
    errors = _errors(capsys)
    assert len(errors) == 1 and errors[0].startswith(f"error: usage: {message}"), errors
    assert not out.exists()


def _no_work(seed):
    raise AssertionError("the work started before its size was checked")


@pytest.mark.parametrize("argv, name, bound", [
    (["synth", "--authors", "{}"], "authors", 10_000),
    (["synth", "--authors", "2", "--target-words", "{}"], "target_words", 100_000),
    (["bench", "--trials", "{}"], "trials", 10_000)], ids=["authors", "words", "trials"])
@pytest.mark.parametrize("above", [1, 10**20], ids=["1", "10**20"])
def test_work_size_above_its_bound_ends_in_one_usage_line(tmp_path, capsys, monkeypatch,
                                                          argv, name, bound, above):
    # synth and bench start their work by seeding a generator
    monkeypatch.setattr(np.random, "default_rng", _no_work)
    value, out = bound + above, tmp_path / "out"
    assert main([a.format(value) for a in argv] + ["--out", str(out)]) == 2
    assert _errors(capsys) == [f"error: usage: {name} must be >= 1 and <= {bound}, "
                               f"got {value}"]
    assert not out.exists()


def test_synth_words_above_their_bound_end_in_one_usage_line(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(np.random, "default_rng", _no_work)
    out = tmp_path / "out"
    for authors, words in [("10000", "1201"), ("10000", "100000"), ("121", "100000")]:
        assert main(["synth", "--authors", authors, "--target-words", words,
                     "--out", str(out)]) == 2
        assert _errors(capsys) == [f"error: usage: authors * target_words must be <= "
                                   f"12000000, got {authors} * {words}"]
    # at the bound the work starts
    with pytest.raises(AssertionError, match="the work started"):
        main(["synth", "--authors", "10000", "--target-words", "1200", "--out", str(out)])
    assert not out.exists()


def test_bench_negative_seed_ends_in_one_usage_line(tmp_path, capsys):
    out = tmp_path / "bench.csv"
    assert main(["bench", "--vocab-size", "100", "--trials", "1", "--seed", "-1",
                 "--out", str(out)]) == 2
    assert _errors(capsys) == ["error: usage: seed must be >= 0, got -1"]
    assert not out.exists()


@pytest.mark.parametrize("value", ["-1", "0", "1048577", "100000000000000000000"])
def test_bench_vocab_size_out_of_range_ends_in_one_usage_line(tmp_path, capsys, value):
    out = tmp_path / "bench.csv"
    assert main(["bench", "--vocab-size", value, "--trials", "1", "--out", str(out)]) == 2
    assert _errors(capsys) == [f"error: usage: vocab_size must be in 1..1048576, got {value}"]
    assert not out.exists()
    assert main(["bench", "--vocab-size", "1", "--trials", "1", "--out", str(out)]) == 0


@pytest.mark.parametrize("value", ["0", "1048577", "100000000000000000000"])
def test_simulate_vocab_size_out_of_range_ends_in_one_usage_line(tmp_path, capsys,
                                                                 good_inputs, value):
    out = tmp_path / "traces.trc"
    assert main(["simulate", "--nss", str(good_inputs["nss"]), "--vocab-size", value,
                 "--out", str(out)]) == 2
    assert _errors(capsys) == [f"error: usage: vocab_size must be in 1..1048576, got {value}"]
    assert not out.exists()


def test_bench_nucleus_sizes_are_pinned(tmp_path):
    """C4's inputs, the bench rows without their loop times, are fixed by the
    seed: a change to the ranking or to the logit draws changes this digest."""
    out = tmp_path / "bench.csv"
    assert main(["bench", "--vocab-size", "50257", "--trials", "40", "--seed", "7",
                 "--out", str(out)]) == 0
    rows = [line.rsplit(",", 1)[0] for line in out.read_text().splitlines()
            if not line.startswith("#")]
    assert rows[0] == "variant,vocab_size,nucleus_size" and len(rows) == 1 + 2 * 40
    assert hashlib.sha256("".join(f"{row}\n" for row in rows).encode()).hexdigest() == \
        "dccf2712990d70e06d4d24aed12ffed72726273e56b503474283ec3d3f2ca397"


@pytest.mark.parametrize("command", ["simulate", "evaluate"])
@pytest.mark.parametrize("flag, field", [
    ("--capture-fraction", "capture_fraction"),
    ("--cycles-per-iteration", "cycles_per_iteration"),
    ("--jitter-std", "hit_jitter_std"), ("--outlier-rate", "outlier_rate"),
    ("--outlier-scale", "outlier_scale")])
@pytest.mark.parametrize("value", ["nan", "inf"])
def test_nan_channel_setting_ends_in_one_error_line(tmp_path, capsys, good_inputs, command,
                                                    flag, field, value):
    out = tmp_path / "out"
    argv = (["simulate", "--nss", str(good_inputs["nss"]), "--vocab-size", "9"]
            if command == "simulate" else ["evaluate", "--corpus", str(good_inputs["corpus"])])
    assert main(argv + [flag, value, "--out", str(out)]) == 1
    errors = _errors(capsys)
    assert len(errors) == 1 and errors[0].startswith(f"error: {field} must"), errors
    assert not out.exists()


@pytest.mark.parametrize("flags, message", [
    (["--segment-gap", "1" + "0" * 400],
     "segment_gap_cycles must be positive and fit a finite float"),
    (["--capture-fraction", "1", "--cycles-per-iteration", "1e308"],
     "trace 's' has non-finite hit times; the channel settings overflow"),
])
def test_channel_setting_beyond_the_float_range_ends_in_one_error_line(tmp_path, capsys,
                                                                       good_inputs, flags,
                                                                       message):
    out = tmp_path / "traces.trc"
    assert main(["simulate", "--nss", str(good_inputs["nss"]), "--vocab-size", "9", *flags,
                 "--out", str(out)]) == 1
    assert _errors(capsys) == [f"error: {message}"]
    assert not out.exists()


def test_simulate_error_in_a_later_series_ends_in_one_error_line(tmp_path, capsys):
    nss, out = tmp_path / "pool.nss", tmp_path / "traces.trc"
    nss.write_text("#nss v1 model=m q=0.9\n" + "".join(
        f"s{i}\t{t}\tn={12 if (i, t) == (3, 1) else 5}\n" for i in range(5) for t in range(2)))
    assert main(["simulate", "--nss", str(nss), "--vocab-size", "9", "--out", str(out)]) == 1
    assert _errors(capsys) == ["error: NSS 's3' has sizes above the vocabulary size 9"]
    assert not out.exists()


def _no_draws(cfg, seq_id):
    raise AssertionError("a trace was drawn before its hit count was checked")


def _refused_before_any_buffer(argv, capsys):
    """Run ``argv`` under tracemalloc; its exit code and error lines, after
    checking that stderr holds nothing else and that no draws buffer was
    allocated (one for 2**26 hits takes 1 GiB)."""
    tracemalloc.start()
    try:
        rc = main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    err = capsys.readouterr().err.splitlines()
    assert peak < 2**26, peak
    return rc, [line for line in err if not line.startswith("# config ")]


@pytest.mark.parametrize("steps", [65, 200_000])
def test_simulate_refuses_a_trace_expecting_too_many_hits(tmp_path, capsys, monkeypatch,
                                                          steps):
    # at capture 1.0 and V = 2**20 a step of size 0 expects 2**20 hits: 64 such
    # steps reach MAX_TRACE_HITS = 2**26, and 200,000 would take 3 TiB of draws
    monkeypatch.setenv("NSSFP_CHANNEL__CAPTURE_FRACTION", "1.0")
    monkeypatch.setattr(sidechannel, "trace_rng", _no_draws)
    nss, out = tmp_path / "big.nss", tmp_path / "t.trc"
    nss.write_text("#nss v1 model=m q=0.9\n" + "".join(f"s\t{t}\tn=0\n" for t in range(steps)))
    argv = ["simulate", "--nss", str(nss), "--vocab-size", "1048576", "--out", str(out)]
    assert _refused_before_any_buffer(argv, capsys) == (2, [
        f"error: usage: trace 's' expects {steps << 20} hits, more than 67108864"])
    assert not out.exists()
    # at the bound the draws start
    nss.write_text("#nss v1 model=m q=0.9\n" + "".join(f"s\t{t}\tn=0\n" for t in range(64)))
    with pytest.raises(AssertionError, match="a trace was drawn"):
        main(argv)


def test_evaluate_refuses_a_trace_expecting_too_many_hits(tmp_path, capsys, monkeypatch):
    # two authors of 7,000 distinct words: V = 14,000, and at q = 0.01 nearly
    # every word leaves the nucleus, so each trace expects about 7,000 * 14,000 hits
    corpus, out = tmp_path / "wide.tsv", tmp_path / "report.csv"
    corpus.write_text("".join(f"{a}\t1\t" + " ".join(f"{a}{i}" for i in range(7000)) + "\n"
                              for a in "ab"))
    monkeypatch.setattr(sidechannel, "trace_rng", _no_draws)
    rc, errors = _refused_before_any_buffer(
        ["evaluate", "--corpus", str(corpus), "--length", "7000", "--cap", "7000",
         "--q", "0.01", "--capture-fraction", "1.0", "--out", str(out)], capsys)
    assert rc == 2 and len(errors) == 1, errors
    assert re.fullmatch(r"error: usage: trace 'a' expects \d+ hits, more than 67108864",
                        errors[0]), errors
    assert not out.exists()


@pytest.mark.parametrize("buckets", ["1000001", "100000000000000000000"])
def test_report_buckets_above_the_bound_end_in_one_usage_line(tmp_path, capsys, good_inputs,
                                                              buckets):
    out = tmp_path / "hist.csv"
    assert main(["report", "--distances", str(good_inputs["dist"]), "--buckets", buckets,
                 "--out", str(out)]) == 2
    assert _errors(capsys) == [f"error: usage: buckets must be at most 1000000, got {buckets}"]
    assert not out.exists()


def _help(parser, command, capsys):
    with pytest.raises(SystemExit) as exc:
        parser.parse_args([command, "--help"])
    assert exc.value.code == 0
    return capsys.readouterr().out


@pytest.mark.parametrize("command", list(COMMANDS))
def test_one_command_parser_parses_and_helps_as_the_full_one(capsys, command):
    argv = [command, "--seed", "3", "--weights", "0.5,0.5", "--jitter-std", "2.5"]
    argv += [a for flag, options in COMMANDS[command][1] if options.get("required")
             for a in (flag, "7")]
    full, one = build_parser(), build_parser(command)
    assert vars(one.parse_args(argv)) == vars(full.parse_args(argv))
    assert _help(one, command, capsys) == _help(full, command, capsys)
    other = next(c for c in COMMANDS if c != command)
    with pytest.raises(UsageError, match="invalid choice"):
        one.parse_args([other])


# each setting's flag, and a text that sets it to other than its default
KEY_FLAGS = {
    "q": ("--q", "0.8"), "variability_threshold": ("--threshold", "400"),
    "similarity_window": ("--window", "40"), "epsilon": ("--epsilon", "1e-6"),
    "sequence_length": ("--length", "100"), "drop_fraction": ("--drop-fraction", "0.1"),
    "word_cap": ("--cap", "500"), "order": ("--order", "2"),
    "weights": ("--weights", "0.4,0.6"), "seed": ("--seed", "3"),
    "channel.capture_fraction": ("--capture-fraction", "0.02"),
    "channel.cycles_per_iteration": ("--cycles-per-iteration", "250"),
    "channel.hit_jitter_std": ("--jitter-std", "30"),
    "channel.outlier_rate": ("--outlier-rate", "0.02"),
    "channel.outlier_scale": ("--outlier-scale", "5"),
    "channel.segment_gap_cycles": ("--segment-gap", "1000000"),
}


def test_every_key_has_its_flag_in_key_order():
    assert tuple(KEY_FLAGS) == KEYS


def _bench_setting(tmp_path, monkeypatch, source, key, text):
    """main's exit code and output path for a one-trial bench with ``key``
    set to ``text`` from ``source``."""
    out = tmp_path / f"{source}.csv"
    argv = ["bench", "--vocab-size", "64", "--trials", "1", "--out", str(out)]
    with monkeypatch.context() as m:
        if source == "flag":
            argv += [KEY_FLAGS[key][0], text]
        elif source == "config":
            (tmp_path / "run.cfg").write_text(f"{key}={text}\n")
            argv += ["--config", str(tmp_path / "run.cfg")]
        else:
            m.setenv(ENV_PREFIX + key.upper().replace(".", "__"), text)
        return main(argv), out


@pytest.mark.parametrize("key", KEYS)
def test_every_setting_is_parsed_alike_from_every_source(tmp_path, capsys, monkeypatch, key):
    sources = ["flag", "config", "env"]
    for source in sources:
        rc, out = _bench_setting(tmp_path, monkeypatch, source, key, "x")
        assert rc == 1 and not out.exists(), source
        bad_value = f"error: bad value for {key.removeprefix('channel.')}: 'x'\n"
        assert tuple(capsys.readouterr()) == ("", bad_value), source
    logs = []
    for source in sources:
        assert _bench_setting(tmp_path, monkeypatch, source, key, KEY_FLAGS[key][1])[0] == 0
        logs.append([l for l in capsys.readouterr().err.splitlines() if l.startswith("# config")])
    assert logs[0] == logs[1] == logs[2]
    line = next(l for l in logs[0] if l.startswith(f"# config {key}="))
    assert line.removeprefix("# config ") not in PipelineConfig().resolved_lines(), line


@pytest.mark.parametrize("argv, message", [
    ([], "the following arguments are required: command"),
    (["bogus"], "argument command: invalid choice: 'bogus'"),
    (["bench", "--no-such-flag", "--out", "{out}"], "unrecognized arguments: --no-such-flag"),
    (["evaluate", "--out", "{out}"], "the following arguments are required: --corpus"),
    (["bench", "--variant", "all", "--out", "{out}"], "argument --variant: invalid choice: 'all'"),
    (["synth", "--authors", "x", "--out", "{out}"], "argument --authors: invalid int value: 'x'"),
    (["synth", "--out", "{out}", "--authors"], "argument --authors: expected one argument"),
    (["bench", "--out", "{out}", "--seed"], "argument --seed: expected one argument"),
], ids=["no-command", "unknown-command", "unknown-flag", "missing-required", "bad-choice",
        "bad-int", "no-value", "setting-no-value"])
def test_every_parse_failure_ends_in_one_usage_line(tmp_path, capsys, argv, message):
    out = tmp_path / "out"
    assert main([a.format(out=out) for a in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1, captured
    assert captured.err.startswith(f"error: usage: {message}"), captured.err
    assert not out.exists()


def test_the_entry_point_exits_with_the_status_main_returns():
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}

    def nssfp(*argv):
        return subprocess.run([sys.executable, "-m", "nssfp.cli", *argv], env=env,
                              capture_output=True, text=True, timeout=120)

    bad = nssfp("bench", "--trials", "x")
    assert (bad.returncode, bad.stdout) == (2, ""), bad
    assert bad.stderr == "error: usage: argument --trials: invalid int value: 'x'\n"
    shown = nssfp("--help")
    assert (shown.returncode, shown.stderr) == (0, "") and shown.stdout.startswith("usage: nssfp")

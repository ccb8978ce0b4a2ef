"""Tiny-scale smoke test of the benchmark: every workload, traced and not.

    python3 -m pytest -q perfbench/test_smoke.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import nssfp.matcher  # noqa: E402
import nssfp.sidechannel  # noqa: E402
import run  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# the smallest inputs the fits accept: >= 30 kept traces, N long enough to match
TINY = {"attack": dict(authors=32, words=450, length=400),
        "openworld": dict(authors=34, words=450, length=400, excerpts=1, pool=32),
        "files": dict(authors=32, words=450, length=400),
        "filter": dict(calls=12, vocab=5000, trials=3)}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_passes_its_gates(name, tmp_path):
    workload = WORKLOADS[name](str(tmp_path), 0, **TINY[name])
    speed = run.Speedometer()
    setup_times = run.timed_setup(workload, speed=speed)
    passes = run.run_passes(workload, 0.0, 1, speed=speed)
    outcome = passes[0].outcome
    assert outcome.attempted > 0
    assert outcome.failed == 0, outcome.problems
    assert len(speed.laps["setup"]) == run.SETUP_REPS
    assert len(speed.laps["run"]) == 2  # before the pass and after the last
    metrics = run.end_to_end(setup_times, passes, speed)
    assert set(run.END_TO_END) <= set(metrics)
    for phase in ("setup", "run"):
        scale = run.REFERENCE_LAP_S / metrics[f"speed.{phase}_lap_s"][0]
        assert metrics[f"{phase}_s"][0] == pytest.approx(metrics[f"{phase}_raw_s"][0] * scale)
    assert metrics["failed_frac"][0] == 0.0
    if name in ("attack", "openworld"):
        assert metrics["recall"][0] >= 0.9
    if name != "filter":
        assert metrics["false_positives"][0] == 0
    if name == "openworld":
        assert metrics["match_p50_ms"][1] == TINY[name]["authors"]
    if name == "filter":
        assert metrics["filter_mitigated_p90_ms"][1] == TINY[name]["calls"]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_pass_reports_every_layer_metric(name, tmp_path):
    original = nssfp.sidechannel.simulate_trace
    workload = WORKLOADS[name](str(tmp_path), 0, **TINY[name])
    tracer = Tracer()
    with tracer.installed():
        assert nssfp.matcher.simulate_trace is not original  # from-import rebound
        setup_times = run.timed_setup(workload, tracer)
        traced = run.run_passes(workload, 0.0, 1, tracer)
    assert nssfp.matcher.simulate_trace is original
    assert traced[0].outcome.failed == 0, traced[0].outcome.problems
    plain = run.run_passes(workload, 0.0, 1)
    metrics = run.per_layer(tracer, setup_times, plain, traced)
    assert set(run.PER_LAYER) <= set(metrics)
    assert tracer.spans
    busy = {"attack": "cli.evaluate_s", "openworld": "matcher.match_s",
            "files": "interchange.read_nss_s", "filter": "sampler.vulnerable_s"}[name]
    assert metrics[busy][0] > 0.0
    shares = sum(metrics[f"{layer}.self_pct"][0] for layer in ("corpus", "model",
                 "fingerprint", "sampler", "stats", "sidechannel", "matcher",
                 "interchange", "cli"))
    assert 0.0 < shares <= 100.0 + 1e-6


def test_benchmark_json_names_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [m["name"] for m in spec["per_layer"]] == list(run.PER_LAYER)
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert m["unit"] == run.unit_of(m["name"])


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "filter",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "{" not in proc.stdout
    assert "error:" in proc.stderr

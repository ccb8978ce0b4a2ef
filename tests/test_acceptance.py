"""Acceptance suite: one test per pipeline exit criterion.

Each test prints a [PASS]/[FAIL] line with the measured values. Recorded
full-scale anchors (GPT-2-sized vocabulary of 50257, real forum corpora)
for comparison, not asserted because they depend on that model and data:
distance-histogram peak near 105k at N=2700; U(2700)-d(2700)=31860 with
d(2700)=41551 (so U(2700)=73411); removal-loop slowdown 1.15x; recall
above 99% at N>=1900 and 93.4% on a short-post chat corpus, with zero
false positives. Desk-scale assertions are property- and simulation-based
instead, at the tolerances stated in each test.

Run with `pytest tests/test_acceptance.py -v -s`.
"""

import math
import time

import numpy as np
import pytest

from nssfp import fingerprint as fp
from nssfp.cli import main as cli_main
from nssfp.corpus import aggregate_by_author, synthesize_corpus
from nssfp.matcher import evaluate, fit_error_bound
from nssfp.model import softmax, train_model
from nssfp.sampler import (MITIGATED, VULNERABLE, bench_filter, nucleus_size_from_probs,
                           summarize_bench, top_p_filter_mitigated,
                           top_p_filter_vulnerable)
from nssfp.sidechannel import (ChannelConfig, prepare_pool, segment_and_reconstruct,
                               simulate_pool, simulate_trace)
from nssfp.stats import PairwiseDistanceSample, normal_quantile, uniqueness_radius

Q = 0.9
EPSILON_DESK = 1e-6  # validating the 1e-18 default empirically is impossible


def _criterion(cid: str, ok: bool, detail: str):
    print(f"\n[{'PASS' if ok else 'FAIL'}] {cid}: {detail}")
    assert ok, f"{cid}: {detail}"


def _random_filter_inputs(seed: int, trials: int):
    """Log-uniform vocab sizes over [4, 50000] with both extremes pinned."""
    rng = np.random.default_rng(seed)
    for i in range(trials):
        if i == 0:
            vocab = 4
        elif i == 1:
            vocab = 50_000
        else:
            vocab = int(round(math.exp(rng.uniform(math.log(4), math.log(50_000)))))
        logits = rng.normal(0.0, rng.uniform(0.5, 5.0), vocab)
        p = float(rng.choice([0.5, 0.9, 0.95, 1.0]))
        yield logits, p


def test_c01_filter_oracle_equivalence():
    """Nucleus size == vocab - instrumented removal count, exactly, 10^4 inputs."""
    t0 = time.perf_counter()
    mismatches = 0
    for logits, p in _random_filter_inputs(101, 10_000):
        _, out = top_p_filter_vulnerable(logits, p)
        if nucleus_size_from_probs(softmax(logits), p) != logits.size - out.removed_count:
            mismatches += 1
    elapsed = time.perf_counter() - t0
    _criterion("C1 filter oracle equivalence",
               mismatches == 0 and elapsed < 60,
               f"mismatches={mismatches}/10000, elapsed={elapsed:.1f}s (limit 60s)")


def test_c02_mitigation_functional_equivalence():
    """Vulnerable and mitigated keep identical token sets on the same inputs."""
    diffs = 0
    for logits, p in _random_filter_inputs(101, 10_000):
        _, vul = top_p_filter_vulnerable(logits, p)
        _, mit = top_p_filter_mitigated(logits, p)
        if not np.array_equal(vul.kept_ids, mit.kept_ids):
            diffs += 1
    _criterion("C2 mitigation functional equivalence",
               diffs == 0, f"kept-set differences={diffs}/10000")


def test_c03_mitigation_leak_closure():
    """Mitigated trips constant at vocab; vulnerable trips = vocab - nucleus."""
    mit_trips = set()
    vul_exact = True
    for logits, p in _random_filter_inputs(202, 1_000):
        _, vul = top_p_filter_vulnerable(logits, p)
        _, mit = top_p_filter_mitigated(logits, p)
        mit_trips.add(mit.removal_loop_iterations - logits.size)
        if vul.removal_loop_iterations != logits.size - vul.nucleus_size:
            vul_exact = False
    _criterion("C3 mitigation leak closure",
               mit_trips == {0} and vul_exact,
               f"mitigated trip offsets={sorted(mit_trips)} (want {{0}}), "
               f"vulnerable leak exact={vul_exact}")


def test_c04_mitigation_overhead():
    """Median mitigated loop time <= 3x vulnerable at vocab 50257.

    The recorded full-scale anchor is a 1.15x average slowdown; the 3x
    bound absorbs interpreter and environment variance.
    """
    t0 = time.perf_counter()
    vul = bench_filter(VULNERABLE, 50_257, trials=40, rng_seed=7, p=Q)
    mit = bench_filter(MITIGATED, 50_257, trials=40, rng_seed=7, p=Q)
    summary = summarize_bench(vul + mit)
    slowdown = summary["slowdown"]
    corr_v = summary[VULNERABLE]["size_time_correlation"]
    elapsed = time.perf_counter() - t0
    _criterion("C4 mitigation overhead",
               slowdown <= 3.0 and elapsed < 120,
               f"slowdown={slowdown:.2f}x (limit 3x, reference 1.15x), "
               f"vulnerable size/time corr={corr_v:.3f}, elapsed={elapsed:.1f}s")


# --- shared desk-scale corpora ----------------------------------------------

@pytest.fixture(scope="module")
def corpus500():
    """500 authors x 1000 words with the trained model and full-length NSS."""
    t0 = time.perf_counter()
    corpus = synthesize_corpus(authors=500, seed=29, vocab_size=12_000,
                               target_words=1200)
    vocab, authors = aggregate_by_author(corpus, word_cap=3000, min_words=1000)
    assert len(authors) == 500
    model = train_model([a.sequence for a in authors], order=3,
                        weights=(0.1, 0.3, 0.6), vocabulary=vocab)
    seqs = [a.sequence.truncated(1000) for a in authors]
    series = fp.nss_series(model, seqs, Q)
    build_time = time.perf_counter() - t0
    return {"vocab": vocab, "seqs": seqs, "series": series, "build_time": build_time}


def test_c05_fingerprint_separation(corpus500):
    """Zero (variable, non-similar) pair distances below U(N) at eps=1e-6,
    and U fitted on disjoint halves agrees within 5%."""
    t0 = time.perf_counter()
    seqs, series = corpus500["seqs"], corpus500["series"]
    records, variable_ids = fp.collect_pairwise_distances(series, seqs)
    sample = PairwiseDistanceSample.from_records(1000, records)
    distances = sample.distances
    uniq = uniqueness_radius(sample, eps=EPSILON_DESK)
    below = int((distances < uniq.radius).sum())

    rng = np.random.default_rng(5)
    idx = rng.permutation(distances.size)
    half = distances.size // 2
    u1 = uniqueness_radius(PairwiseDistanceSample(1000, distances[idx[:half]]),
                           eps=EPSILON_DESK).radius
    u2 = uniqueness_radius(PairwiseDistanceSample(1000, distances[idx[half:]]),
                           eps=EPSILON_DESK).radius
    split = abs(u1 - u2) / max(u1, u2)
    elapsed = time.perf_counter() - t0 + corpus500["build_time"]
    _criterion("C5 fingerprint separation",
               below == 0 and split < 0.05 and elapsed < 600,
               f"variable={len(variable_ids)}/500, pairs={distances.size}, "
               f"U={uniq.radius:.0f}, min_dist={distances.min():.0f}, below_U={below}, "
               f"half-fit delta={split:.3%} (limit 5%), elapsed={elapsed:.0f}s (limit 600s)")


def test_c06_uniqueness_radius_growth(corpus500):
    """U(N) strictly increasing over N in {250,500,750,1000}; U(N)-d(N)
    increasing for N >= 500 under the default channel."""
    vocab, seqs, series = corpus500["vocab"], corpus500["seqs"], corpus500["series"]
    v = len(vocab)
    cfg = ChannelConfig(rng_seed=31)
    traces = simulate_pool(series, v, cfg)
    kept, _, _ = prepare_pool(traces, 0.06)

    radii, taus = [], []
    for n in (250, 500, 750, 1000):
        cut_series = [x.truncated(n) for x in series]
        cut_seqs = [s.truncated(n) for s in seqs]
        records, _ = fp.collect_pairwise_distances(cut_series, cut_seqs)
        uniq = uniqueness_radius(PairwiseDistanceSample.from_records(n, records),
                                 eps=EPSILON_DESK)
        err = fit_error_bound(series, kept, uniq)
        radii.append(uniq.radius)
        taus.append(err.tau)
    u_increasing = all(a < b for a, b in zip(radii, radii[1:]))
    tau_increasing = all(a < b for a, b in zip(taus[1:], taus[2:]))  # N >= 500
    _criterion("C6 uniqueness radius growth",
               u_increasing and tau_increasing,
               f"U(N)={[round(r) for r in radii]} strictly_increasing={u_increasing}; "
               f"U-d={[round(t) for t in taus]} increasing_from_500={tau_increasing}")


def test_c07_channel_reconstruction():
    """Mean reconstructed iteration count within 5% of truth (binomial rescale)."""
    worst = 0.0
    details = []
    for true_iters in (2000, 10_000, 45_000):
        vocab = 50_257
        estimates = []
        for seed in range(100):
            cfg = ChannelConfig(rng_seed=seed)
            nss = fp.Nss(f"r{true_iters}", Q, "m", np.array([vocab - true_iters]))
            trace = segment_and_reconstruct(simulate_trace(nss, vocab, cfg), cfg, vocab)
            estimates.append(float(trace.estimated_iterations[0]))
        rel = abs(np.mean(estimates) - true_iters) / true_iters
        worst = max(worst, rel)
        details.append(f"{true_iters}:{rel:.2%}")
    _criterion("C7 channel reconstruction",
               worst < 0.05,
               f"mean error by true count {', '.join(details)} (limit 5%)")


def test_c08_noise_filtering():
    """The 6% drop removes >= 95% of traces corrupted at 10x outlier scale."""
    clean_cfg = ChannelConfig(outlier_rate=0.01)
    corrupt_cfg = ChannelConfig(outlier_rate=0.35, outlier_scale=10.0)
    vocab = 8000
    caught = total_corrupted = 0
    rng = np.random.default_rng(3)
    for batch in range(20):
        sizes = rng.integers(1000, 7000, size=60)
        traces = []
        for i in range(100):
            corrupted = i < 5
            cfg = (corrupt_cfg if corrupted else clean_cfg).with_seed(1000 * batch + i)
            name = f"{'bad' if corrupted else 'ok'}{batch}-{i}"
            nss = fp.Nss(name, Q, "m", sizes)
            traces.append(segment_and_reconstruct(
                simulate_trace(nss, vocab, cfg), cfg, vocab))
        _, dropped, _ = prepare_pool(traces, 0.06)
        caught += sum(1 for t in dropped if t.seq_id.startswith("bad"))
        total_corrupted += 5
    rate = caught / total_corrupted
    _criterion("C8 noise filtering",
               rate >= 0.95,
               f"corrupted caught={caught}/{total_corrupted} ({rate:.1%}, limit 95%)")


def test_c09_end_to_end_evaluation():
    """200 sequences, default channel, N=1000: zero false positives (hard),
    recall >= 0.90 after the 6% drop.

    Recorded full-scale anchors: recall above 99% at N >= 1900, 93.4% on a
    short-post chat corpus, no false positives either way.
    """
    t0 = time.perf_counter()
    n = 1000
    corpus = synthesize_corpus(authors=200, seed=43, vocab_size=12_000,
                               target_words=1200)
    vocab, authors = aggregate_by_author(corpus, word_cap=3000, min_words=n)
    assert len(authors) == 200
    v = len(vocab)
    model = train_model([a.sequence for a in authors], order=3,
                        weights=(0.1, 0.3, 0.6), vocabulary=vocab)
    seqs = [a.sequence.truncated(n) for a in authors]
    series = fp.nss_series(model, seqs, Q)

    records, _ = fp.collect_pairwise_distances(series, seqs)
    uniq = uniqueness_radius(PairwiseDistanceSample.from_records(n, records),
                             eps=EPSILON_DESK)

    cfg = ChannelConfig(rng_seed=47)
    traces = simulate_pool(series, v, cfg)
    kept, _, _ = prepare_pool(traces, 0.06)
    err = fit_error_bound(series, kept, uniq)

    report = evaluate(series, seqs, traces, kept, (uniq, err))
    elapsed = time.perf_counter() - t0
    _criterion("C9 end-to-end evaluation",
               report.false_positives == 0 and report.recall >= 0.90 and elapsed < 900,
               f"false_positives={report.false_positives} (hard 0), "
               f"recall={report.recall:.3f} (limit 0.90), "
               f"variable={report.variable_count}/{report.total}, "
               f"U={uniq.radius:.0f} d={err.bound:.0f} tau={err.tau:.0f}, "
               f"elapsed={elapsed:.0f}s (limit 900s)")


def test_c10_quantile_precision():
    """CDF(quantile(eps)) == eps within 1e-9 relative, vs an erfc oracle."""
    worst = 0.0
    for eps in (0.5, 1e-3, 1e-9, 1e-18):
        z = normal_quantile(eps)
        cdf = 0.5 * math.erfc(-z / math.sqrt(2.0)) if z != 0.0 else 0.5
        worst = max(worst, abs(cdf - eps) / eps)
    _criterion("C10 quantile precision",
               worst < 1e-9,
               f"worst relative CDF inversion error={worst:.2e} (limit 1e-9)")


def test_c11_reproducibility(tmp_path):
    """Two full CLI evaluate runs with one seed produce byte-identical reports."""
    corpus = tmp_path / "corpus.tsv"
    assert cli_main(["synth", "--authors", "34", "--vocab-size", "9000",
                     "--target-words", "300", "--seed", "5", "--out", str(corpus)]) == 0
    r1, r2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
    base = ["evaluate", "--corpus", str(corpus), "--length", "160",
            "--threshold", "400", "--epsilon", "1e-6", "--seed", "11",
            "--capture-fraction", "0.05"]
    assert cli_main(base + ["--out", str(r1)]) == 0
    assert cli_main(base + ["--out", str(r2)]) == 0
    identical = r1.read_bytes() == r2.read_bytes()
    _criterion("C11 reproducibility",
               identical,
               f"byte-identical evaluate reports={identical} ({r1.stat().st_size} bytes)")

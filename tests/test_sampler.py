import numpy as np
import pytest

import nssfp.sampler as sampler
from nssfp.errors import UsageError, ValidationError
from nssfp.model import softmax
from nssfp.sampler import (MITIGATED, VULNERABLE, TimingSample, bench_filter,
                           nucleus_size_from_probs, pearson, summarize_bench,
                           top_p_filter_mitigated, top_p_filter_vulnerable,
                           write_bench_report)


def test_nucleus_size_hand_examples():
    probs = np.array([0.05, 0.5, 0.15, 0.3])
    # cumulative (0.5, 0.8, 0.95, 1.0): two positions at or below 0.9
    assert nucleus_size_from_probs(probs, 0.9) == 2
    assert nucleus_size_from_probs(probs, 0.5) == 1
    assert nucleus_size_from_probs(probs, 1.0) == 4
    single = np.array([1.0])
    assert nucleus_size_from_probs(single, 0.9) == 0  # the literal loop removes everything
    with pytest.raises(UsageError):
        nucleus_size_from_probs(probs, 0.0)
    with pytest.raises(UsageError):
        nucleus_size_from_probs(probs, 1.5)


def test_vulnerable_filter_hand_examples():
    logits = np.log([0.5, 0.3, 0.15, 0.05])
    filtered, out = top_p_filter_vulnerable(logits, 0.9)
    assert list(out.kept_ids) == [0, 1]
    assert out.removed_count == 2 and out.removal_loop_iterations == 2
    assert out.nucleus_size == 2
    assert np.all(np.isneginf(filtered[[2, 3]])) and np.all(np.isfinite(filtered[[0, 1]]))

    # p = 1: nothing removed, zero loop trips
    same, out1 = top_p_filter_vulnerable(logits, 1.0)
    assert out1.removal_loop_iterations == 0
    assert np.array_equal(same, logits)

    # uniform 8 tokens at p=0.9: only the last cumulative (1.0) exceeds p,
    # and ties rank by ascending id, so the highest id goes
    uniform = np.zeros(8)
    _, out8 = top_p_filter_vulnerable(uniform, 0.9)
    assert out8.nucleus_size == 7 and list(out8.kept_ids) == list(range(7))
    assert out8.removed_count == 1 and out8.removal_loop_iterations == 1

    # a single token at p < 1: the literal filter keeps nothing
    _, out_single = top_p_filter_vulnerable(np.array([3.0]), 0.9)
    assert out_single.nucleus_size == 0 and out_single.removed_count == 1


def test_mitigated_filter_hand_examples():
    logits = np.log([0.5, 0.3, 0.15, 0.05])
    filtered, out = top_p_filter_mitigated(logits, 0.9)
    assert list(out.kept_ids) == [0, 1]
    assert out.removal_loop_iterations == 4  # constant: full vocabulary
    assert out.nucleus_size == 2
    assert np.all(np.isneginf(filtered[[2, 3]]))

    unchanged, out1 = top_p_filter_mitigated(logits, 1.0)
    assert np.array_equal(unchanged, logits)
    assert out1.removal_loop_iterations == 4


def test_filter_input_validation():
    with pytest.raises(ValidationError):
        top_p_filter_vulnerable([0.0, np.nan], 0.9)
    with pytest.raises(ValidationError):
        top_p_filter_mitigated([0.0, np.inf], 0.9)
    with pytest.raises(UsageError):
        top_p_filter_vulnerable([0.0, 1.0], 0.0)


def test_filter_oracle_and_cross_variant_equivalence(rng):
    # nucleus_size == vocab - removed, and both variants keep identical sets
    for _ in range(500):
        vocab = int(rng.integers(2, 400))
        logits = rng.normal(0, rng.uniform(0.5, 6.0), vocab)
        p = float(rng.choice([0.5, 0.9, 0.95, 1.0]))
        fv, ov = top_p_filter_vulnerable(logits, p)
        fm, om = top_p_filter_mitigated(logits, p)
        assert nucleus_size_from_probs(softmax(logits), p) == vocab - ov.removed_count
        assert ov.removal_loop_iterations == ov.removed_count
        assert om.removal_loop_iterations == vocab
        assert np.array_equal(ov.kept_ids, om.kept_ids)
        assert np.array_equal(np.isneginf(fv), np.isneginf(fm))


def test_nucleus_size_monotone_in_p(rng):
    for _ in range(50):
        probs = softmax(rng.normal(0, 3, 50))
        sizes = [nucleus_size_from_probs(probs, p) for p in (0.1, 0.3, 0.5, 0.7, 0.9, 1.0)]
        assert sizes == sorted(sizes)


def test_bench_filter_instrumentation():
    vul = bench_filter(VULNERABLE, vocab_size=256, trials=8, rng_seed=5)
    mit = bench_filter(MITIGATED, vocab_size=256, trials=8, rng_seed=5)
    assert all(s.loop_time_ns > 0 for s in vul + mit)
    assert all(s.vocab_size == 256 for s in vul + mit)
    # same seed, same generated inputs: nucleus sizes line up across variants
    assert [s.nucleus_size for s in vul] == [s.nucleus_size for s in mit]
    summary = summarize_bench(vul + mit)
    assert summary[VULNERABLE]["trials"] == 8
    assert "slowdown" in summary
    with pytest.raises(UsageError):
        bench_filter(VULNERABLE, 256, trials=0, rng_seed=1)
    with pytest.raises(UsageError):
        bench_filter("other", 256, trials=1, rng_seed=1)


def test_bench_times_the_filters_removal_step(monkeypatch):
    calls = {"vulnerable": 0, "mitigated": 0}

    def counting(name, real):
        def wrapper(*args):
            calls[name] += 1
            return real(*args)
        return wrapper

    monkeypatch.setattr(sampler, "_remove_vulnerable",
                        counting("vulnerable", sampler._remove_vulnerable))
    monkeypatch.setattr(sampler, "_remove_mitigated",
                        counting("mitigated", sampler._remove_mitigated))
    bench_filter(VULNERABLE, vocab_size=64, trials=3, rng_seed=2, repeats=4)
    bench_filter(MITIGATED, vocab_size=64, trials=3, rng_seed=2, repeats=4)
    assert calls == {"vulnerable": 3 * 5, "mitigated": 3 * 5}
    top_p_filter_vulnerable(np.zeros(4), 0.5)
    top_p_filter_mitigated(np.zeros(4), 0.5)
    assert calls == {"vulnerable": 3 * 5 + 1, "mitigated": 3 * 5 + 1}


def test_pearson_degenerate():
    assert pearson([1, 1, 1], [2, 3, 4]) == 0.0
    assert pearson([1, 2, 3], [2, 4, 6]) == pytest.approx(1.0)


def test_bench_report_format(tmp_path):
    samples = [TimingSample(VULNERABLE, 10, 1234, 64)]
    path = tmp_path / "bench.csv"
    write_bench_report(path, samples, header_lines=["seed=1"])
    lines = path.read_text().splitlines()
    assert lines[0] == "# seed=1"
    assert lines[1] == "variant,vocab_size,nucleus_size,loop_time_ns"
    assert lines[2] == "vulnerable,64,10,1234"

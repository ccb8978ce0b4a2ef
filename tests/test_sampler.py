import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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


def _rank_oracle(logits):
    """The ranking by a stable argsort of the whole vocabulary."""
    probs = softmax(np.asarray(logits, dtype=np.float64))
    order = np.argsort(-probs, kind="stable")
    return order, np.minimum(np.cumsum(probs[order]), 1.0)


@st.composite
def _tied_logits(draw):
    """Logit vectors heavy in ties: a few integer levels, one repeated
    value, or entries 800 below the rest, whose probabilities underflow to 0."""
    vocab = draw(st.one_of(st.integers(1, 2), st.integers(3, 300)))
    kind = draw(st.sampled_from(["integer", "constant", "underflow"]))
    if kind == "constant":
        return np.full(vocab, draw(st.floats(-1e6, 1e6)))
    if kind == "integer":
        levels = draw(st.integers(0, 6))
        return np.array(draw(st.lists(st.integers(-levels, levels), min_size=vocab,
                                      max_size=vocab)), dtype=np.float64)
    logits = np.array(draw(st.lists(st.floats(-4.0, 4.0), min_size=vocab, max_size=vocab)))
    sunk = draw(st.lists(st.booleans(), min_size=vocab, max_size=vocab))
    logits[np.array(sunk)] -= 800.0
    return logits


def _ulps_from(base, steps):
    """``base`` moved ``steps`` representable doubles away from zero, elementwise."""
    return (np.asarray(base, dtype=np.float64).view(np.int64) + steps).view(np.float64)


@st.composite
def _near_tied_logits(draw):
    """Logits one or a few ulps apart around a few base values, so that their
    probabilities differ only in their lowest bits: inside one packed key's
    shared top bits, where the key sort orders by id and not by value."""
    vocab = draw(st.integers(2, 300))
    bases = draw(st.lists(st.floats(-4.0, 4.0), min_size=1, max_size=3))
    base = draw(st.lists(st.sampled_from(bases), min_size=vocab, max_size=vocab))
    steps = draw(st.lists(st.integers(0, 4), min_size=vocab, max_size=vocab))
    return _ulps_from(base, np.array(steps))


def _levels(vocab):
    """Eleven tied levels spread over the ids, the top level at high ids too."""
    return (np.arange(vocab) * 37 % 11) * 0.25


@settings(max_examples=300, deadline=None)
@given(st.one_of(_tied_logits(), _near_tied_logits()))
@example(np.zeros(1)).via("V = 1")
@example(np.array([2.0, 2.0])).via("V = 2, tied")
@example(np.array([0.0, -800.0, -800.0])).via("an underflowed tail")
@example(_levels(3)).via("V = 2 + 1")
@example(_levels(4)).via("V = 4")
@example(_levels(5)).via("V = 4 + 1")
@example(_levels(256)).via("V = 256")
@example(_levels(257)).via("V = 256 + 1")
@example(_ulps_from(np.ones(1024), np.arange(1024) % 5)).via("V = 1024, near ties")
@example(_ulps_from(np.ones(1025), np.arange(1025) % 5)).via("V = 1024 + 1, near ties")
def test_rank_equals_the_stable_argsort(logits):
    _, order, cum = sampler._rank(logits, 0.9)
    expected_order, expected_cum = _rank_oracle(logits)
    assert order.dtype == np.intp and order.flags.c_contiguous
    assert np.array_equal(order, expected_order)
    assert cum.tobytes() == expected_cum.tobytes()


def test_rank_falls_back_to_the_stable_argsort_only_on_a_clash(monkeypatch):
    # V = 4 packs the id into the low 2 bits; these two probabilities differ
    # but share their top 62 bits, and the smaller one has the lower id
    logits = np.array([0.0, 2.0**-52, -4.0, -4.0])
    bits = softmax(logits).view(np.int64)
    assert bits[0] < bits[1] and bits[0] >> 2 == bits[1] >> 2
    expected_order, expected_cum = _rank_oracle(logits)
    calls = []

    def counting_argsort(*args, **kwargs):
        calls.append(kwargs)
        return real_argsort(*args, **kwargs)

    real_argsort = np.argsort
    monkeypatch.setattr(np, "argsort", counting_argsort)
    _, order, cum = sampler._rank(logits, 0.9)
    assert calls == [{"kind": "stable"}]
    assert list(order) == list(expected_order) == [1, 0, 2, 3]
    assert cum.tobytes() == expected_cum.tobytes()
    # a draw of the benchmark's peaked regime does not clash: the key sort ranks it
    sampler._rank(sampler._peaked_logits(np.random.default_rng(3),
                                         np.log(np.arange(1.0, 50_258.0))), 0.9)
    assert len(calls) == 1


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
    bench_filter(VULNERABLE, vocab_size=64, trials=3, rng_seed=2)
    bench_filter(MITIGATED, vocab_size=64, trials=3, rng_seed=2)
    assert calls == {"vulnerable": 3 * 6, "mitigated": 3 * 6}
    top_p_filter_vulnerable(np.zeros(4), 0.5)
    top_p_filter_mitigated(np.zeros(4), 0.5)
    assert calls == {"vulnerable": 3 * 6 + 1, "mitigated": 3 * 6 + 1}


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


@pytest.mark.parametrize("vocab", [1, 7, 50_257])
def test_mitigated_removal_writes_only_into_its_buffers(vocab):
    rng = np.random.default_rng(vocab)
    log_ranks = np.log(np.arange(1, vocab + 1, dtype=np.float64))
    logits, order, cum = sampler._rank(sampler._peaked_logits(rng, log_ranks), 0.9)
    sorted_logits = logits[order]
    expected = logits.copy()
    expected[order] = sorted_logits - np.where(cum > 0.9, np.inf, 0.0)
    filtered, removed, term = logits.copy(), np.empty(vocab, dtype=bool), np.empty(vocab)
    tracemalloc.start()
    try:
        sampler._remove_mitigated(filtered, order, sorted_logits, cum, 0.9, removed, term)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(filtered, expected) and np.array_equal(removed, cum > 0.9)
    assert peak < 4096  # one vocabulary-sized temporary would be vocab * 8 bytes

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nssfp import fingerprint as fp
from nssfp.cli import main as cli_main
from nssfp.corpus import aggregate_by_author, synthesize_corpus
from nssfp.errors import UsageError, ValidationError
from nssfp.model import Sequence, Vocabulary, train_model
from nssfp.sampler import nucleus_size_from_probs
from oracles import context_at, context_code


def test_generate_nss_single_prefix(tiny_model, tiny_corpus):
    vocab, _, _ = tiny_corpus
    one = Sequence(id="w", words=vocab.encode(["the"]))
    nss = fp.generate_nss(tiny_model, one, 0.9)
    assert nss.length == 1
    assert nss.model_id == tiny_model.model_id


def test_generate_nss_matches_explicit_oracle(tiny_model, tiny_corpus):
    # per-position sizes must equal the dense size of each position's context
    _, seqs, _ = tiny_corpus
    words = np.concatenate([seqs[2].words, seqs[3].words])
    joined = Sequence(id="j", words=words, boundaries=(0, len(seqs[2])))
    nss = fp.generate_nss(tiny_model, joined, 0.9)
    codes = [context_code(tiny_model, context_at(tiny_model, joined, t))
             for t in range(len(joined))]
    expected = [nucleus_size_from_probs(tiny_model.context_probs(c), 0.9) for c in codes]
    assert list(nss.sizes) == expected


def test_generate_nss_deterministic_and_boundary_spike(tiny_model, tiny_corpus):
    _, seqs, _ = tiny_corpus
    words = np.concatenate([seqs[0].words, seqs[1].words])
    b = len(seqs[0])
    joined = Sequence(id="j", words=words, boundaries=(0, b))
    a = fp.generate_nss(tiny_model, joined, 0.9)
    again = fp.generate_nss(tiny_model, joined, 0.9)
    assert np.array_equal(a.sizes, again.sizes)
    # the size at the boundary equals the empty-context size
    empty_size = nucleus_size_from_probs(tiny_model.context_probs(0), 0.9)
    assert a.sizes[b] == empty_size


@st.composite
def _tied_models(draw):
    """Small models whose unigram table is mostly tie blocks."""
    v = draw(st.integers(2, 40))
    order = draw(st.integers(1, 3))
    raw = draw(st.lists(st.sampled_from([0.0, 0.1, 0.25, 0.5, 1.0]),
                        min_size=order, max_size=order).filter(any))
    weights = [w / sum(raw) for w in raw]
    # ids drawn from a few values keep most unigram counts equal
    alphabet = draw(st.lists(st.integers(0, v - 1), min_size=1, max_size=6))
    seqs = []
    for i in range(draw(st.integers(1, 4))):
        words = draw(st.lists(st.sampled_from(alphabet), min_size=1, max_size=30))
        cut = draw(st.integers(0, len(words) - 1))
        seqs.append(Sequence(id=f"s{i}", words=np.array(words),
                             boundaries=(0, cut) if cut else (0,)))
    vocab = Vocabulary.from_tokens([f"w{i:02d}" for i in range(v)])
    return train_model(seqs, order=order, weights=weights, vocabulary=vocab), seqs


def test_sparse_nucleus_sizes_equal_dense_oracle(monkeypatch):
    """Every context, ties at p included, gets the dense path's size."""
    fallbacks = []

    def oracle(probs, p):
        fallbacks.append(p)
        return nucleus_size_from_probs(probs, p)

    monkeypatch.setattr(fp, "nucleus_size_from_probs", oracle)

    @settings(max_examples=300, deadline=None)
    @given(_tied_models(), st.data())
    def check(built, data):
        model, seqs = built
        contexts = list(dict.fromkeys(
            [0] + [c for s in seqs for c in model.context_codes(s).tolist()]
            + [context_code(model, tuple(data.draw(st.lists(
                st.integers(0, model.vocab_size - 1), max_size=model.order - 1))))]))
        # p at an exact prefix sum of the oracle puts a block boundary on p
        ctx = data.draw(st.sampled_from(contexts))
        cum = np.cumsum(np.sort(model.context_probs(ctx))[::-1])
        at_sum = float(min(cum[data.draw(st.integers(0, cum.size - 1))], 1.0))
        p = data.draw(st.one_of(st.just(at_sum), st.just(1.0),
                                st.floats(0.01, 1.0, exclude_min=True)))
        expected = [nucleus_size_from_probs(model.context_probs(c), p) for c in contexts]
        assert fp._nucleus_sizes(model, np.array(contexts), p) == expected

    check()
    assert fallbacks, "no context took the dense fallback"


@st.composite
def _spread_models(draw):
    """Small models over the whole vocabulary with a heavy unigram weight,
    so that frequent words' blocks outrank many contexts' successors."""
    v = draw(st.integers(3, 40))
    order = draw(st.integers(2, 3))
    w1 = draw(st.sampled_from([0.5, 0.8, 0.9]))
    weights = (w1,) + ((1.0 - w1) / (order - 1),) * (order - 1)
    seqs = [Sequence(id=f"s{i}", words=np.array(draw(st.lists(
        st.integers(0, v - 1), min_size=2, max_size=40)))) for i in range(draw(st.integers(1, 3)))]
    vocab = Vocabulary.from_tokens([f"w{i:02d}" for i in range(v)])
    return train_model(seqs, order=order, weights=weights, vocabulary=vocab), seqs


@settings(max_examples=150, deadline=None)
@given(_spread_models(), st.floats(0.05, 0.95))
def test_sparse_sizes_merge_blocks_above_successors(built, p):
    model, seqs = built
    codes = np.unique(np.concatenate([model.context_codes(s) for s in seqs]))
    expected = [nucleus_size_from_probs(model.context_probs(c), p) for c in codes]
    assert fp._nucleus_sizes(model, codes, p) == expected


def test_nss_file_equals_dense_path_on_c9_corpus(tmp_path, monkeypatch):
    """`nssfp nss` writes the same bytes with every context sized densely."""
    corpus, model = tmp_path / "corpus.tsv", tmp_path / "model.json"
    assert cli_main(["synth", "--authors", "200", "--vocab-size", "12000",
                     "--target-words", "1200", "--seed", "43", "--out", str(corpus)]) == 0
    shape = ["--corpus", str(corpus), "--cap", "3000", "--min-words", "1000"]
    assert cli_main(["train", *shape, "--out", str(model)]) == 0
    nss = ["nss", *shape, "--model", str(model), "--truncate", "--length", "1000"]
    assert cli_main([*nss, "--out", str(tmp_path / "sparse.nss")]) == 0
    monkeypatch.setattr(fp, "_nucleus_sizes", lambda m, contexts, p: [
        nucleus_size_from_probs(m.context_probs(c), p) for c in contexts])
    assert cli_main([*nss, "--out", str(tmp_path / "dense.nss")]) == 0
    assert (tmp_path / "sparse.nss").read_bytes() == (tmp_path / "dense.nss").read_bytes()


def test_nss_series_equals_the_loop_and_the_dense_oracle(monkeypatch):
    """Blocks of a few contexts (so most corpora span several), a size cache
    shared by a per-sequence loop, q near its extremes and weightless orders."""

    @settings(max_examples=200, deadline=None)
    @given(_tied_models(), st.sampled_from([0.5, 0.9, 0.95, 0.999]), st.integers(1, 8))
    def check(built, q, block):
        model, seqs = built
        monkeypatch.setattr(fp, "_BLOCK", block)
        series = fp.nss_series(model, seqs, q)
        cache: dict = {}
        loop = [fp.generate_nss(model, s, q, size_cache=cache) for s in seqs]
        for s, x, y in zip(seqs, series, loop):
            dense = [nucleus_size_from_probs(model.context_probs(
                context_code(model, context_at(model, s, t))), q) for t in range(len(s))]
            assert x.sizes.tolist() == y.sizes.tolist() == dense
            assert (x.seq_id, x.q, x.model_id) == (s.id, q, model.model_id)

    check()
    assert fp.nss_series(train_model([Sequence("s", np.array([0, 1]))], order=1,
                                     weights=(1.0,), vocabulary=Vocabulary(("a", "b"))),
                         [], 0.9) == []


def test_packed_key_clash_falls_back_to_lexsort():
    # 0.5 and the next double share their top 48 bits, so their keys tie
    a, b = 0.5, float(np.nextafter(0.5, 1.0))
    values = np.array([a, b, b, a] * 4 + [0.25, a, b])
    seg = np.repeat(np.arange(9), [2] * 8 + [3])
    want = np.concatenate([np.sort(values[seg == c])[::-1] for c in range(9)])
    assert fp._descending(values, seg).tolist() == want.tolist()


def test_support_value_at_the_top_level_goes_to_the_merge_tier(monkeypatch):
    """After "a" (code 1) the support values are 9/16 and 3/16, and 3/16 is
    exactly c1 = 0.5 times the top unigram level 6/16, so the first tier,
    whose sums pass p = 0.7 on it, leaves the context to the merge."""
    vocab = Vocabulary(("a", "b", "c", "d"))
    words = vocab.encode("a b a c a c a c c c d d".split())
    model = train_model([Sequence("s", words)], order=2, weights=(0.5, 0.5), vocabulary=vocab)
    assert model.unigram_levels[-1] * 0.5 == 3 / 16 == np.sort(model.context_probs(1))[-2]
    calls = []

    def crossings(val, mult, seg, n_ctx, p, margin):
        calls.append(n_ctx)
        return crossings.real(val, mult, seg, n_ctx, p, margin)

    crossings.real = fp._crossings
    monkeypatch.setattr(fp, "_crossings", crossings)
    assert fp._nucleus_sizes(model, np.array([1]), 0.7) == [1]
    assert nucleus_size_from_probs(model.context_probs(1), 0.7) == 1
    assert calls == [1, 1]


def test_level_block_above_a_support_value_goes_to_the_merge_tier():
    """After "a" (code 1) the four successors' values, 1/22 + 1/8 each, pass
    p = 0.52 on the third, but the unigram block of "z", 9/44, ranks above them
    all, so the dense size is 2, not the support-only 3."""
    vocab = Vocabulary(("a", "b1", "b2", "b3", "b4", "z"))
    words = vocab.encode("a b1 a b2 a b3 a b4 z z z z z z z z".split())
    model = train_model([Sequence("s", words)], order=2, weights=(0.5, 0.5), vocabulary=vocab)
    assert nucleus_size_from_probs(model.context_probs(1), 0.52) == 2
    assert fp._nucleus_sizes(model, np.array([1]), 0.52) == [2]


def test_prefix_sum_within_the_margin_of_p_is_not_sure():
    """Prefix sums 0.5, 0.75, 0.875, 1: a size is sure only with p clear of them."""
    val, seg = np.array([0.5, 0.25, 0.125, 0.125]), np.zeros(4, dtype=np.int64)
    for p, size, sure in [(0.75, 2, False), (np.nextafter(0.75, 0.0), 1, False),
                          (np.nextafter(0.75, 1.0), 2, False), (0.7, 1, True), (0.8, 2, True)]:
        got = fp._crossings(val, np.ones(4, dtype=np.int64), seg, 1, p, 4)
        assert (got[0].tolist(), got[1].tolist()) == ([size], [sure])


def test_nss_series_sizes_distinct_contexts_in_blocks():
    """Peak traced memory stays at the block's, not the corpus's: unblocked,
    these 14,832 distinct contexts peaked at 11.0 MiB, in blocks at 2.3 MiB."""
    vocab, authors = aggregate_by_author(synthesize_corpus(
        authors=40, seed=3, vocab_size=12000, target_words=600))
    model = train_model([a.sequence for a in authors], vocabulary=vocab)
    seqs = [a.sequence for a in authors]
    n = np.unique(np.concatenate([model.context_codes(s) for s in seqs])).size
    assert n > 4 * fp._BLOCK
    tracemalloc.start()
    try:
        fp.nss_series(model, seqs, 0.9)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5 * 2**20


def test_generate_nss_rejects_foreign_tokens(tiny_model):
    alien = Sequence(id="a", words=np.array([10_000]))
    with pytest.raises(ValidationError):
        fp.generate_nss(tiny_model, alien, 0.9)


def test_variability_examples():
    const = fp.Nss("c", 0.9, "m", np.full(10, 42))
    r = fp.variability(const, threshold=1450)
    assert r.variability == 0.0 and not r.is_variable

    two = fp.Nss("t", 0.9, "m", np.array([0, 2900]))
    r = fp.variability(two, threshold=1450)
    assert r.variability == 1450
    assert not r.is_variable  # strictly greater required

    three = fp.Nss("x", 0.9, "m", np.array([100, 200, 300]))
    r = fp.variability(three, threshold=10)
    assert r.variability == pytest.approx(math.sqrt(20000 / 3))
    assert r.is_variable


def test_variability_shift_and_permutation_invariance(rng):
    sizes = rng.integers(0, 5000, size=200)
    base = fp.variability(fp.Nss("a", 0.9, "m", sizes)).variability
    shifted = fp.variability(fp.Nss("b", 0.9, "m", sizes + 137)).variability
    permuted = fp.variability(fp.Nss("c", 0.9, "m", rng.permutation(sizes))).variability
    assert shifted == pytest.approx(base, rel=1e-12)
    assert permuted == pytest.approx(base, rel=1e-12)


def _seq(ids, seq_id="s"):
    return Sequence(id=seq_id, words=np.asarray(ids, dtype=np.int64))


def test_similar_examples():
    x = _seq(np.arange(200), "x")
    assert fp.similar(x, x, window=50)
    assert fp.similar(x, x, window=200)  # identity holds for any window <= |x|

    # differing at every 10th position: no 50-run can survive
    ys = np.arange(200).copy()
    ys[::10] += 1000
    assert not fp.similar(x, _seq(ys, "y"), window=50)

    # sharing exactly positions 100..149
    zs = np.arange(200) + 5000
    zs[100:150] = np.arange(100, 150)
    z = _seq(zs, "z")
    assert fp.similar(x, z, window=50)
    assert not fp.similar(x, z, window=51)


def test_similar_properties(rng):
    a = _seq(rng.integers(0, 4, 300), "a")
    b = _seq(rng.integers(0, 4, 300), "b")
    assert fp.similar(a, b, 5) == fp.similar(b, a, 5)
    if fp.similar(a, b, 8):
        assert fp.similar(a, b, 4)
    with pytest.raises(UsageError):
        fp.similar(a, _seq([1, 2], "short"), 5)
    with pytest.raises(UsageError):
        fp.similar(a, b, 0)


def nss_distance(a, b):
    """Euclidean distance between two equal-length series: the per-pair oracle
    of ``fingerprint._squared_distances``."""
    if a.length != b.length:
        raise UsageError(f"length mismatch: {a.length} vs {b.length}")
    d = a.sizes.astype(np.float64) - b.sizes.astype(np.float64)
    # np.sum uses pairwise summation, which keeps drift down for long series
    return float(np.sqrt(np.sum(d * d)))


def test_nss_distance_examples():
    a = fp.Nss("a", 0.9, "m", np.array([3, 0]))
    b = fp.Nss("b", 0.9, "m", np.array([0, 4]))
    assert nss_distance(a, a) == 0.0
    assert nss_distance(a, b) == 5.0
    with pytest.raises(UsageError):
        nss_distance(a, fp.Nss("c", 0.9, "m", np.array([1])))


def test_nss_distance_against_summation_oracle(rng):
    xs = rng.integers(0, 50_000, size=2700)
    ys = rng.integers(0, 50_000, size=2700)
    a = fp.Nss("a", 0.9, "m", xs)
    b = fp.Nss("b", 0.9, "m", ys)
    # straightforward fsum-based oracle, independent of the numpy path
    expected = math.sqrt(math.fsum((float(x) - float(y)) ** 2 for x, y in zip(xs, ys)))
    assert nss_distance(a, b) == pytest.approx(expected, rel=1e-6)


def test_nss_distance_is_a_metric(rng):
    series = [fp.Nss(str(i), 0.9, "m", rng.integers(0, 1000, 50)) for i in range(12)]
    for _ in range(60):
        i, j, k = rng.integers(0, len(series), 3)
        dij = nss_distance(series[i], series[j])
        dji = nss_distance(series[j], series[i])
        assert dij == dji
        assert dij <= nss_distance(series[i], series[k]) + nss_distance(series[k], series[j]) + 1e-9
        if i == j:
            assert dij == 0.0


def test_collect_pairwise_distances_excludes_similar(rng):
    sizes = [rng.integers(0, 3000, 100) for _ in range(4)]
    series = [fp.Nss(f"s{i}", 0.9, "m", s) for i, s in enumerate(sizes)]
    words = [rng.integers(0, 9, 100) for _ in range(3)]
    words.append(words[0].copy())  # s3 duplicates s0's text
    seqs = [_seq(w, f"s{i}") for i, w in enumerate(words)]
    records, variable = fp.collect_pairwise_distances(series, seqs, threshold=10, window=50)
    pairs = {(a, b) for a, b, _ in records}
    assert ("s0", "s3") not in pairs and ("s3", "s0") not in pairs
    assert len(records) == 5  # 6 unordered pairs minus the similar one


def _longest_true_run(mask):
    padded = np.concatenate(([0], mask.astype(np.int8), [0]))
    edges = np.diff(padded)
    return int((np.flatnonzero(edges == -1) - np.flatnonzero(edges == 1)).max(initial=0))


def _similar_oracle(x, y, window):
    """The longest-run form of ``similar``, independent of its row-vectorised code."""
    return window <= len(x) and _longest_true_run(x.words == y.words) >= window


def _pairwise_oracle(nss_list, sequences, threshold, window):
    """The per-pair loop: one similarity test and one nss_distance per pair."""
    is_var = [fp.variability(n, threshold).is_variable for n in nss_list]
    records = []
    for i in range(len(nss_list)):
        for j in range(i + 1, len(nss_list)):
            if not (is_var[i] or is_var[j]):
                continue
            if _similar_oracle(sequences[i], sequences[j], window):
                continue
            records.append((nss_list[i].seq_id, nss_list[j].seq_id,
                            nss_distance(nss_list[i], nss_list[j])))
    return records, [n.seq_id for n, v in zip(nss_list, is_var) if v]


def _assert_same_records(got, want):
    assert got == want
    assert [repr(d) for *_, d in got[0]] == [repr(d) for *_, d in want[0]]


@st.composite
def _pairwise_inputs(draw):
    """Series with tied sizes, flat series and sizes on both sides of the
    exact bound; texts over a few (possibly extreme) word ids, duplicate
    texts, and texts that share a planted run of window - 1, window or
    window + 1 positions with the first text."""
    n = draw(st.integers(0, 6))
    n_len = draw(st.integers(1, 30))
    s_len = draw(st.one_of(st.just(n_len), st.integers(1, 30)))
    window = draw(st.one_of(st.integers(1, 4), st.integers(s_len - 1, s_len + 2)
                            .filter(lambda w: w >= 1)))
    levels = draw(st.lists(st.integers(0, 2**27), min_size=1, max_size=3))
    # ids equal modulo 2**8, 2**16 or 2**32, and the int64 extremes
    word_id = st.one_of(st.sampled_from([0, 1, 256, 2**16, 2**32, -2**63, 2**63 - 1]),
                        st.integers(-2**63, 2**63 - 1))
    alphabet = np.array(draw(st.lists(word_id, min_size=2, max_size=4, unique=True)),
                        dtype=np.int64)
    series, seqs = [], []
    for k in range(n):
        sizes = draw(st.lists(st.sampled_from(levels), min_size=n_len, max_size=n_len))
        if draw(st.booleans()):  # flat: not variable at a threshold >= 0
            sizes = sizes[:1] * n_len
        series.append(fp.Nss(f"s{k}", 0.9, "m", np.array(sizes, dtype=np.int64)))
        how = draw(st.sampled_from(["random", "copy", "planted"])) if k else "random"
        if how == "copy":
            words = seqs[0].words.copy()
        elif how == "random":
            words = alphabet[draw(st.lists(st.integers(0, alphabet.size - 1),
                                           min_size=s_len, max_size=s_len))]
        else:  # differs from the first text everywhere but in one run
            first = seqs[0].words
            words = np.where(first == alphabet[0], alphabet[1], alphabet[0])
            run = min(s_len, max(0, window + draw(st.integers(-1, 1))))
            at = draw(st.integers(0, s_len - run))
            words[at:at + run] = first[at:at + run]
        seqs.append(Sequence(id=f"s{k}", words=words))
    threshold = draw(st.sampled_from([-1.0, 0.0, 2.0**18, 2.0**21]))
    return series, seqs, threshold, window


@settings(max_examples=300, deadline=None)
@given(_pairwise_inputs())
def test_pairwise_distances_equal_the_pair_loop(inputs):
    series, seqs, threshold, window = inputs
    got = fp.collect_pairwise_distances(series, seqs, threshold=threshold, window=window)
    _assert_same_records(got, _pairwise_oracle(series, seqs, threshold, window))
    for i in range(len(seqs)):
        for j in range(i + 1, len(seqs)):
            assert fp.similar(seqs[i], seqs[j], window) == _similar_oracle(seqs[i], seqs[j],
                                                                           window)


def _einsum_calls(monkeypatch):
    calls = []
    einsum = np.einsum
    monkeypatch.setattr(np, "einsum", lambda *a, **k: calls.append(a[0]) or einsum(*a, **k))
    return calls


@pytest.mark.parametrize("top, gemm", [
    (2**26, False),      # 2 * N * max**2 = 2**63: far above 2**53, per-row sums
    (2**21, False),      # 2 * N * max**2 = 2**53: the first value off the GEMM path
    (2**21 - 1, True),   # just under the bound: the exact GEMM path
])
def test_pairwise_distances_above_the_exact_bound(monkeypatch, rng, top, gemm):
    n_len = 1024
    assert (2 * n_len * top**2 < 2**53) == gemm
    sizes = rng.integers(0, top + 1, size=(12, n_len))
    sizes[0, 0] = top
    series = [fp.Nss(f"s{k}", 0.9, "m", s) for k, s in enumerate(sizes)]
    seqs = [_seq(np.arange(n_len) + 10_000 * k, f"s{k}") for k in range(12)]
    calls = _einsum_calls(monkeypatch)
    got = fp.collect_pairwise_distances(series, seqs, threshold=0.0)
    _assert_same_records(got, _pairwise_oracle(series, seqs, 0.0, 50))
    assert len(got[0]) == 66
    assert bool(calls) == gemm


def test_pairwise_input_contract(rng):
    series = [fp.Nss(f"s{k}", 0.9, "m", rng.integers(0, 10, 8)) for k in range(3)]
    seqs = [_seq(rng.integers(0, 9, 8), f"s{k}") for k in range(3)]
    short = seqs[:2] + [_seq([1, 2, 3], "s2")]
    # no series is variable: the length mismatch still fails, before any pair is formed
    with pytest.raises(UsageError, match="length mismatch"):
        fp.collect_pairwise_distances(series, short, threshold=1e9)
    with pytest.raises(UsageError, match="window must be >= 1"):
        fp.collect_pairwise_distances(series, seqs, window=0)
    assert fp.collect_pairwise_distances(series, seqs, threshold=1e9) == ([], [])

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nssfp import fingerprint as fp
from nssfp.cli import main as cli_main
from nssfp.errors import UsageError, ValidationError
from nssfp.model import Sequence, Vocabulary, train_model
from nssfp.sampler import nucleus_size_from_probs


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
    contexts = [tiny_model.context_at(joined, t) for t in range(len(joined))]
    expected = [nucleus_size_from_probs(tiny_model.context_probs(c), 0.9) for c in contexts]
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
    empty_size = nucleus_size_from_probs(tiny_model.context_probs(()), 0.9)
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
            [()] + [c for s in seqs for c in model.contexts(s)]
            + [tuple(data.draw(st.lists(st.integers(0, model.vocab_size - 1),
                                        max_size=model.order - 1)))]))
        # p at an exact prefix sum of the oracle puts a block boundary on p
        ctx = data.draw(st.sampled_from(contexts))
        cum = np.cumsum(np.sort(model.context_probs(ctx))[::-1])
        at_sum = float(min(cum[data.draw(st.integers(0, cum.size - 1))], 1.0))
        p = data.draw(st.one_of(st.just(at_sum), st.just(1.0),
                                st.floats(0.01, 1.0, exclude_min=True)))
        expected = [nucleus_size_from_probs(model.context_probs(c), p) for c in contexts]
        assert fp._nucleus_sizes(model, contexts, p) == expected

    check()
    assert fallbacks, "no context took the dense fallback"


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
    assert r.mean == 1450 and r.variability == 1450
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


def test_nss_distance_examples():
    a = fp.Nss("a", 0.9, "m", np.array([3, 0]))
    b = fp.Nss("b", 0.9, "m", np.array([0, 4]))
    assert fp.nss_distance(a, a) == 0.0
    assert fp.nss_distance(a, b) == 5.0
    with pytest.raises(UsageError):
        fp.nss_distance(a, fp.Nss("c", 0.9, "m", np.array([1])))


def test_nss_distance_against_summation_oracle(rng):
    xs = rng.integers(0, 50_000, size=2700)
    ys = rng.integers(0, 50_000, size=2700)
    a = fp.Nss("a", 0.9, "m", xs)
    b = fp.Nss("b", 0.9, "m", ys)
    # straightforward fsum-based oracle, independent of the numpy path
    expected = math.sqrt(math.fsum((float(x) - float(y)) ** 2 for x, y in zip(xs, ys)))
    assert fp.nss_distance(a, b) == pytest.approx(expected, rel=1e-6)


def test_nss_distance_is_a_metric(rng):
    series = [fp.Nss(str(i), 0.9, "m", rng.integers(0, 1000, 50)) for i in range(12)]
    for _ in range(60):
        i, j, k = rng.integers(0, len(series), 3)
        dij = fp.nss_distance(series[i], series[j])
        dji = fp.nss_distance(series[j], series[i])
        assert dij == dji
        assert dij <= fp.nss_distance(series[i], series[k]) + fp.nss_distance(series[k], series[j]) + 1e-9
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

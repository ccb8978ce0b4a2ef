import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nssfp.errors import ConfigurationError, NssfpError, ValidationError
from nssfp.model import (Sequence, Vocabulary, load_model, save_model, tokenize,
                         train_model)
from oracles import context_at, context_code


def _probs(model, seq, t):
    return model.context_probs(context_code(model, context_at(model, seq, t)))


def _vocab(seqs):
    """Tokens ``<i>`` for the ids 0..max of the sequences."""
    return Vocabulary(tuple(f"<{i}>" for i in range(max(int(s.words.max()) for s in seqs) + 1)))


def test_tokenize_lowercases_and_splits_punctuation():
    assert tokenize("Hello, world!") == ["hello", ",", "world", "!"]
    assert tokenize("don't  stop...") == ["don't", "stop", ".", ".", "."]
    assert tokenize("") == []


def test_vocabulary_roundtrip():
    vocab = Vocabulary.from_tokens(["b", "a", "b", "c"])
    assert vocab.tokens == ("a", "b", "c")
    assert [vocab.index[t] for t in vocab.tokens] == [0, 1, 2]
    assert list(vocab.encode(["c", "a"])) == [2, 0]
    with pytest.raises(ValidationError):
        vocab.encode(["nope"])
    with pytest.raises(ValidationError):
        Vocabulary.from_tokens(["only"])


def test_sequence_validation():
    with pytest.raises(ValidationError):
        Sequence(id="x", words=np.array([], dtype=np.int64))
    with pytest.raises(ValidationError):
        Sequence(id="x", words=np.array([1, 2]), boundaries=(1,))
    with pytest.raises(ValidationError):
        Sequence(id="x", words=np.array([1, 2]), boundaries=(0, 0))
    with pytest.raises(ValidationError):
        Sequence(id="x", words=np.array([1, 2]), boundaries=(0, 2))
    seq = Sequence(id="x", words=np.array([5, 6, 7, 8]), boundaries=(0, 2))
    cut = seq.truncated(2)
    assert list(cut.words) == [5, 6] and cut.boundaries == (0,)


def test_unigram_counts_from_symmetric_corpus():
    # "a b a b": symmetric counts stay 0.5/0.5 even with the add-one floor
    seq = Sequence(id="s", words=np.array([0, 1, 0, 1]))
    model = train_model([seq], order=1, weights=(1.0,), vocabulary=_vocab([seq]))
    assert np.allclose(_probs(model, seq, 0), [0.5, 0.5])


def test_training_is_deterministic():
    seq = Sequence(id="s", words=np.array([0, 1, 0, 1]))
    vocab = _vocab([seq])
    a = train_model([seq], order=3, weights=(0.1, 0.3, 0.6), vocabulary=vocab)
    b = train_model([seq], order=3, weights=(0.1, 0.3, 0.6), vocabulary=vocab)
    assert a.model_id == b.model_id
    c = train_model([seq], order=3, weights=(0.2, 0.2, 0.6), vocabulary=vocab)
    assert c.model_id != a.model_id


def test_train_validation_errors():
    seq = Sequence(id="s", words=np.array([0, 1]))
    vocab = _vocab([seq])
    with pytest.raises(ConfigurationError):
        train_model([], order=2, weights=(0.5, 0.5), vocabulary=vocab)
    with pytest.raises(ConfigurationError):
        train_model([seq], order=0, weights=(), vocabulary=vocab)
    with pytest.raises(ConfigurationError):
        train_model([seq], order=6, weights=(1,) * 6, vocabulary=vocab)
    with pytest.raises(ConfigurationError):
        train_model([seq], order=2, weights=(0.5,), vocabulary=vocab)
    with pytest.raises(ConfigurationError):
        train_model([seq], order=2, weights=(0.9, 0.2), vocabulary=vocab)
    with pytest.raises(ConfigurationError):
        train_model([seq], order=2, weights=(-0.5, 1.5), vocabulary=vocab)
    with pytest.raises(ConfigurationError):
        train_model([seq], order=2, weights=(float("nan"), 1.0), vocabulary=vocab)


def test_every_context_yields_normalized_distribution(rng):
    # property check over all contexts of a random corpus, incl. unseen ones
    corpus = []
    for i in range(100):
        n = int(rng.integers(5, 40))
        words = rng.integers(0, 30, size=n)
        corpus.append(Sequence(id=f"r{i}", words=words))
    model = train_model(corpus, order=2, weights=(0.3, 0.7), vocabulary=_vocab(corpus))
    for seq in corpus[:20]:
        for t in range(len(seq) + 1):
            assert abs(_probs(model, seq, t).sum() - 1.0) <= 1e-9
    # unseen context falls back to a valid distribution too
    unseen = Sequence(id="u", words=np.array([29, 29, 29]))
    assert abs(_probs(model, unseen, 3).sum() - 1.0) <= 1e-9


def test_bigram_distribution_matches_hand_count(tiny_corpus, tiny_model):
    vocab, seqs, sentences = tiny_corpus
    # independent hand count of bigram successors of "the"
    the = vocab.index["the"]
    succ: dict[int, int] = {}
    unigram: dict[int, int] = {}
    for s in sentences:
        ids = [vocab.index[w] for w in s.split()]
        for w in ids:
            unigram[w] = unigram.get(w, 0) + 1
        for a, b in zip(ids, ids[1:]):
            if a == the:
                succ[b] = succ.get(b, 0) + 1
    v = len(vocab)
    total_uni = sum(unigram.values())
    uni = np.array([(unigram.get(i, 0) + 1) / (total_uni + v) for i in range(v)])
    bi = np.zeros(v)
    for w, c in succ.items():
        bi[w] = c / sum(succ.values())
    expected = 0.4 * uni + 0.6 * bi

    probe = Sequence(id="probe", words=np.array([the]), boundaries=(0,))
    assert np.allclose(_probs(tiny_model, probe, 1), expected, atol=1e-12)


def test_position_reset_semantics(tiny_model, tiny_corpus):
    vocab, seqs, _ = tiny_corpus
    words = np.concatenate([seqs[0].words, seqs[1].words])
    b = len(seqs[0])
    joined = Sequence(id="j", words=words, boundaries=(0, b))
    empty_ctx = tiny_model.context_probs(0)
    assert np.array_equal(_probs(tiny_model, joined, b), empty_ctx)
    # order-1 model: distribution independent of position
    uni_model = train_model(seqs, order=1, weights=(1.0,), vocabulary=vocab)
    assert np.array_equal(_probs(uni_model, joined, 3), _probs(uni_model, joined, 7))


def test_model_save_load_roundtrip(tmp_path, tiny_model, tiny_corpus):
    _, seqs, _ = tiny_corpus
    path = tmp_path / "model.json"
    save_model(path, tiny_model)
    loaded = load_model(path)
    assert loaded.model_id == tiny_model.model_id
    assert loaded.vocabulary.tokens == tiny_model.vocabulary.tokens
    for t in range(len(seqs[0]) + 1):
        assert np.array_equal(_probs(tiny_model, seqs[0], t), _probs(loaded, seqs[0], t))


def _dict_trainer(corpus, order, weights, vocab_size):
    """Reference counting: one dict of successor counts per context, n-gram by
    n-gram. Returns the tables, the unigram counts and the model id."""
    unigram = np.zeros(vocab_size, dtype=np.int64)
    tables = {k: {} for k in range(2, order + 1)}
    hasher = hashlib.sha256()
    hasher.update(f"order={order} weights={weights!r} vocab={vocab_size}".encode())
    for seq in corpus:
        hasher.update(seq.id.encode())
        hasher.update(np.ascontiguousarray(seq.words).tobytes())
        hasher.update(repr(seq.boundaries).encode())
        segments = list(seq.boundaries) + [len(seq)]
        for start, stop in zip(segments, segments[1:]):
            seg = [int(w) for w in seq.words[start:stop]]
            unigram += np.bincount(seg, minlength=vocab_size)
            for k in range(2, order + 1):
                for t in range(k - 1, len(seg)):
                    succ = tables[k].setdefault(tuple(seg[t - k + 1:t]), {})
                    succ[seg[t]] = succ.get(seg[t], 0) + 1
    return tables, unigram, hasher.hexdigest()[:16]


def _oracle_json(model, tables, unigram, model_id) -> bytes:
    """The ``ngram v2`` model file of the dict tables: arrays, contexts in
    tuple order, which is their code order."""
    out = {}
    for k, table in tables.items():
        ctxs = sorted(table)
        out[str(k)] = {"contexts": [w for ctx in ctxs for w in ctx],
                       "successors": [len(table[ctx]) for ctx in ctxs],
                       "ids": [i for ctx in ctxs for i in sorted(table[ctx])],
                       "counts": [table[ctx][i] for ctx in ctxs for i in sorted(table[ctx])]}
    payload = {
        "format": "ngram v2", "order": model.order, "weights": list(model.weights),
        "model_id": model_id, "tokens": list(model.vocabulary.tokens),
        "unigram_counts": unigram.tolist(), "tables": out,
    }
    return json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()


@st.composite
def _corpora(draw):
    """Small corpora with session boundaries, many repeated n-grams and
    interpolation weights that may be 0."""
    v = draw(st.integers(2, 40))
    order = draw(st.integers(1, 5))
    raw = draw(st.lists(st.sampled_from([0.0, 0.2, 0.5, 1.0]),
                        min_size=order, max_size=order).filter(any))
    alphabet = draw(st.lists(st.integers(0, v - 1), min_size=1, max_size=5))
    seqs = []
    for i in range(draw(st.integers(1, 4))):
        words = draw(st.lists(st.sampled_from(alphabet), min_size=1, max_size=40))
        cuts = draw(st.sets(st.integers(1, max(1, len(words) - 1)), max_size=5))
        cuts = sorted(c for c in cuts if c < len(words))
        seqs.append(Sequence(id=f"s{i}", words=np.array(words), boundaries=(0, *cuts)))
    vocab = Vocabulary.from_tokens([f"w{i:02d}" for i in range(v)])
    return seqs, order, tuple(w / sum(raw) for w in raw), vocab


def test_array_tables_equal_dict_oracle(tmp_path):
    @settings(max_examples=200, deadline=None)
    @given(_corpora())
    def check(drawn):
        seqs, order, weights, vocab = drawn
        model = train_model(seqs, order=order, weights=weights, vocabulary=vocab)
        tables, unigram, model_id = _dict_trainer(seqs, order, weights, len(vocab))
        assert np.array_equal(model.unigram_counts, unigram) and model.model_id == model_id
        assert sorted(model.tables) == sorted(tables)
        for k, table in model.tables.items():
            assert len(table) == len(tables[k])
            for ctx, succ in tables[k].items():
                row = table.find(np.array([context_code(model, ctx)]))[0]
                a, b = table.offsets[row], table.offsets[row + 1]
                ids, counts = table.ids[a:b], table.counts[a:b]
                assert row >= 0 and ids.tolist() == sorted(succ)
                assert counts.tolist() == [float(succ[i]) for i in sorted(succ)]
        assert (sum(len(t) for t in model.tables.values())
                == sum(len(t) for t in tables.values()))
        for seq in seqs:
            assert model.context_codes(seq).tolist() == [
                context_code(model, context_at(model, seq, t)) for t in range(len(seq))]

        path = tmp_path / "model.json"
        save_model(path, model)
        assert path.read_bytes() == _oracle_json(model, tables, unigram, model_id)
        _assert_same_model(load_model(path), model)

    check()


def _assert_same_model(a, b):
    assert (a.order, a.weights, a.model_id, a.vocabulary.tokens) == (
        b.order, b.weights, b.model_id, b.vocabulary.tokens)
    assert a.unigram_counts.dtype == b.unigram_counts.dtype
    assert np.array_equal(a.unigram_counts, b.unigram_counts)
    assert sorted(a.tables) == sorted(b.tables)
    for k, table in a.tables.items():
        for name in ("keys", "offsets", "ids", "counts"):
            x, y = getattr(table, name), getattr(b.tables[k], name)
            assert x.dtype == y.dtype and np.array_equal(x, y), (k, name)


# ids on both sides of the digit boundaries of 10, 100 and 1000 tokens
_EDGE_IDS = (0, 1, 2, 9, 10, 11, 19, 20, 99, 100, 101, 199, 999, 1000)
# token stems: ASCII, non-ASCII, and characters JSON escapes
_STEMS = ("w", "\u00e9", "\u65e5\u672c", 'q"', "b\\", "\u2028", "tab\t")


@st.composite
def _digit_models(draw):
    """Trained models over 10, 100 or 1000 tokens (and one more), of order 1-5,
    whose words sit on both sides of the digit boundaries. Sequences of one
    word leave every table empty."""
    v = draw(st.sampled_from([10, 11, 100, 101, 1000, 1001]))
    order = draw(st.integers(1, 5))
    edges = [i for i in _EDGE_IDS if i < v]
    alphabet = draw(st.lists(st.one_of(st.sampled_from(edges), st.integers(0, v - 1)),
                             min_size=1, max_size=6))
    seqs = [Sequence(id=f"s{i}", words=np.array(draw(st.lists(
        st.sampled_from(alphabet), min_size=1, max_size=30))))
        for i in range(draw(st.integers(1, 3)))]
    stem = draw(st.sampled_from(_STEMS))
    vocab = Vocabulary(tuple(f"{stem}{i}" for i in range(v)))
    weights = (1.0 / order,) * order
    return train_model(seqs, order=order, weights=weights, vocabulary=vocab), seqs


def test_model_file_round_trip_is_exact(tmp_path):
    @settings(max_examples=150, deadline=None)
    @given(_digit_models())
    def check(drawn):
        model, seqs = drawn
        tables, unigram, model_id = _dict_trainer(seqs, model.order, model.weights,
                                                  model.vocab_size)
        path = tmp_path / "model.json"
        save_model(path, model)
        data = path.read_bytes()
        assert data == _oracle_json(model, tables, unigram, model_id)
        _assert_same_model(load_model(path), model)
        save_model(path, model)
        assert path.read_bytes() == data
        # another rendering of the same JSON loads the same
        path.write_text(json.dumps(json.loads(data), indent=1), encoding="utf-8")
        _assert_same_model(load_model(path), model)

    check()


def _mutation_model():
    seqs = [Sequence(id="a", words=np.array([0, 1, 2, 10, 1, 2, 11, 0, 1, 10, 9])),
            Sequence(id="b", words=np.array([2, 1, 0, 11, 10, 1]))]
    vocab = Vocabulary(tuple(f"t{i}" for i in range(12)))
    return train_model(seqs, order=3, weights=(0.2, 0.3, 0.5), vocabulary=vocab)


def test_ngram_v1_model_file_is_refused(tmp_path):
    # the layout of earlier versions: each table an object from context to successor counts
    path = tmp_path / "model.json"
    save_model(path, _mutation_model())
    payload = json.loads(path.read_text())
    payload["format"] = "ngram v1"
    payload["tables"] = {"2": {"0": {"1": 2}}, "3": {"0 1": {"2": 1}}}
    path.write_text(json.dumps(payload))
    with pytest.raises(ValidationError, match="ngram v1 model format is retired; rerun nssfp "
                                              "train"):
        load_model(path)


def test_mutated_model_file_loads_or_raises_one_nssfp_error(tmp_path):
    model = _mutation_model()
    path = tmp_path / "model.json"
    save_model(path, model)
    data = path.read_bytes()
    _assert_same_model(load_model(path), model)

    @settings(max_examples=600, deadline=None)
    @given(st.integers(0, len(data) - 1), st.sampled_from(["replace", "insert", "delete"]),
           st.sampled_from(list(b'0123456789 ":,{}[]-+.eE\\xtf\xc3\xa9')))
    def check(at, how, byte):
        mutant = tmp_path / "mutant.json"
        mutant.write_bytes({"replace": data[:at] + bytes([byte]) + data[at + 1:],
                            "insert": data[:at] + bytes([byte]) + data[at:],
                            "delete": data[:at] + data[at + 1:]}[how])
        try:
            load_model(mutant)
        except NssfpError:
            pass

    check()


def test_context_codes_must_fit_int64():
    # (V + 1)^(order - 1) is the largest context code plus one
    seq = Sequence(id="s", words=np.array([0, 3, 1, 2, 3, 1]))
    big = Sequence(id="b", words=np.array([0, 60000, 1, 2, 3]))
    with pytest.raises(ConfigurationError, match="int64"):
        train_model([seq, big], order=5, weights=(0.2,) * 5, vocabulary=_vocab([seq, big]))
    train_model([seq, big], order=4, weights=(0.25,) * 4, vocabulary=_vocab([seq, big]))
    gpt2 = Sequence(id="g", words=np.array([0, 50256, 1, 2, 50256, 0]))
    model = train_model([gpt2], order=5, weights=(0.2,) * 5, vocabulary=_vocab([gpt2]))
    assert len(model.tables[5]) == 2

import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nssfp.errors import ConfigurationError, ValidationError
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
    payload = {
        "format": "ngram v1", "order": model.order, "weights": list(model.weights),
        "model_id": model_id, "tokens": list(model.vocabulary.tokens),
        "unigram_counts": unigram.tolist(),
        "tables": {str(k): {" ".join(map(str, ctx)): {str(i): c for i, c in succ.items()}
                            for ctx, succ in tables[k].items()} for k in tables},
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
        loaded = load_model(path)
        assert (loaded.order, loaded.weights, loaded.model_id, loaded.vocabulary.tokens) == (
            model.order, model.weights, model.model_id, model.vocabulary.tokens)
        assert np.array_equal(loaded.unigram_counts, model.unigram_counts)
        for k, table in model.tables.items():
            for name in ("keys", "offsets", "ids", "counts"):
                assert np.array_equal(getattr(loaded.tables[k], name), getattr(table, name))

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

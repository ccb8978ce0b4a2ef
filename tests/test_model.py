import numpy as np
import pytest

from nssfp.errors import ConfigurationError, UsageError, ValidationError
from nssfp.model import (Sequence, Vocabulary, load_model, save_model, tokenize,
                         train_model)


def _probs(model, seq, t):
    return model.context_probs(model.context_at(seq, t))


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
    model = train_model([seq], order=1, weights=(1.0,))
    assert np.allclose(_probs(model, seq, 0), [0.5, 0.5])


def test_training_is_deterministic():
    seq = Sequence(id="s", words=np.array([0, 1, 0, 1]))
    a = train_model([seq], order=3, weights=(0.1, 0.3, 0.6))
    b = train_model([seq], order=3, weights=(0.1, 0.3, 0.6))
    assert a.model_id == b.model_id
    c = train_model([seq], order=3, weights=(0.2, 0.2, 0.6))
    assert c.model_id != a.model_id


def test_train_validation_errors():
    seq = Sequence(id="s", words=np.array([0, 1]))
    with pytest.raises(ConfigurationError):
        train_model([], order=2, weights=(0.5, 0.5))
    with pytest.raises(ConfigurationError):
        train_model([seq], order=0, weights=())
    with pytest.raises(ConfigurationError):
        train_model([seq], order=6, weights=(1,) * 6)
    with pytest.raises(ConfigurationError):
        train_model([seq], order=2, weights=(0.5,))
    with pytest.raises(ConfigurationError):
        train_model([seq], order=2, weights=(0.9, 0.2))
    with pytest.raises(ConfigurationError):
        train_model([seq], order=2, weights=(-0.5, 1.5))


def test_every_context_yields_normalized_distribution(rng):
    # property check over all contexts of a random corpus, incl. unseen ones
    corpus = []
    for i in range(100):
        n = int(rng.integers(5, 40))
        words = rng.integers(0, 30, size=n)
        corpus.append(Sequence(id=f"r{i}", words=words))
    model = train_model(corpus, order=2, weights=(0.3, 0.7))
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
    empty_ctx = tiny_model.context_probs(())
    assert np.array_equal(_probs(tiny_model, joined, b), empty_ctx)
    # order-1 model: distribution independent of position
    uni_model = train_model(seqs, order=1, weights=(1.0,), vocabulary=vocab)
    assert np.array_equal(_probs(uni_model, joined, 3), _probs(uni_model, joined, 7))


def test_position_out_of_range(tiny_model, tiny_corpus):
    _, seqs, _ = tiny_corpus
    with pytest.raises(UsageError):
        tiny_model.context_at(seqs[0], len(seqs[0]) + 1)
    with pytest.raises(UsageError):
        tiny_model.context_at(seqs[0], -1)


def test_model_save_load_roundtrip(tmp_path, tiny_model, tiny_corpus):
    _, seqs, _ = tiny_corpus
    path = tmp_path / "model.json"
    save_model(path, tiny_model)
    loaded = load_model(path)
    assert loaded.model_id == tiny_model.model_id
    assert loaded.vocabulary.tokens == tiny_model.vocabulary.tokens
    for t in range(len(seqs[0]) + 1):
        assert np.array_equal(_probs(tiny_model, seqs[0], t), _probs(loaded, seqs[0], t))

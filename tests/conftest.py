import os
import threading

import numpy as np
import pytest

from nssfp.model import Sequence, Vocabulary, train_model


@pytest.fixture(scope="session")
def tiny_corpus():
    """Ten short sentences with known bigram structure for hand counting."""
    sentences = [
        "the cat sat on the mat",
        "the dog sat on the rug",
        "the cat ate the fish",
        "a dog chased the cat",
        "the fish swam in the bowl",
        "a cat and a dog met",
        "the dog ate the bone",
        "the mat was on the floor",
        "a fish and the cat slept",
        "the bowl fell on the rug",
    ]
    words = [w for s in sentences for w in s.split()]
    vocab = Vocabulary.from_tokens(words)
    seqs = [
        Sequence(id=f"s{i}", words=vocab.encode(s.split()), boundaries=(0,))
        for i, s in enumerate(sentences)
    ]
    return vocab, seqs, sentences


@pytest.fixture(scope="session")
def tiny_model(tiny_corpus):
    vocab, seqs, _ = tiny_corpus
    return train_model(seqs, order=2, weights=(0.4, 0.6), vocabulary=vocab)


@pytest.fixture()
def rng():
    return np.random.default_rng(1234)


@pytest.fixture(autouse=True)
def no_unreaped_child():
    """Fail a test that leaves a child process unreaped, running or exited."""
    yield
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    pytest.fail(f"the test left a child process unreaped (waitpid gave pid {pid})")


@pytest.fixture(autouse=True)
def no_leaked_thread():
    """Fail a test that leaves a thread alive that was not alive before it,
    such as the manager thread of an executor that was never shut down."""
    before = set(threading.enumerate())
    yield
    leaked = [t.name for t in threading.enumerate() if t not in before]
    if leaked:
        pytest.fail(f"the test left threads alive: {leaked}")

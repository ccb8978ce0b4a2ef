import numpy as np
import pytest

from nssfp.corpus import (PLAIN_DIR, PostCorpus, aggregate_by_author, load_corpus,
                          save_corpus, synthesize_corpus)
from nssfp.errors import ParseError, UsageError, ValidationError


def test_load_tsv(tmp_path):
    path = tmp_path / "posts.tsv"
    path.write_text("alice\t100\thello there\nalice\t200\tgood bye\n")
    corpus = load_corpus(path)
    assert len(corpus.posts) == 2
    assert corpus.posts[0] == ("alice", 100.0, "hello there")


def test_load_tsv_errors(tmp_path):
    bad = tmp_path / "bad.tsv"
    bad.write_text("alice\t100\tok\nbroken line\n")
    with pytest.raises(ParseError) as exc:
        load_corpus(bad)
    assert exc.value.line == 2

    ts = tmp_path / "ts.tsv"
    ts.write_text("alice\tnot_a_number\ttext\n")
    with pytest.raises(ParseError):
        load_corpus(ts)

    empty = tmp_path / "empty.tsv"
    empty.write_text("")
    with pytest.raises(ValidationError):
        load_corpus(empty)


def test_load_preserves_file_order(tmp_path):
    path = tmp_path / "posts.tsv"
    path.write_text("a\t200\tlater\na\t100\tearlier\n")
    corpus = load_corpus(path)
    assert [p[1] for p in corpus.posts] == [200.0, 100.0]  # ordering is aggregation's job


def test_plain_dir_format(tmp_path):
    d = tmp_path / "corpus"
    d.mkdir()
    (d / "bob.txt").write_text("first post\n\nsecond post\n")
    (d / "eve.txt").write_text("only one\n")
    (d / "ignored.dat").write_text("nope\n")
    corpus = load_corpus(d, format=PLAIN_DIR)
    authors = {a for a, _, _ in corpus.posts}
    assert authors == {"bob", "eve"}
    assert len([p for p in corpus.posts if p[0] == "bob"]) == 2


def test_unknown_format(tmp_path):
    with pytest.raises(UsageError):
        load_corpus(tmp_path, format="xml")


def test_roundtrip_500_authors(tmp_path):
    corpus = synthesize_corpus(authors=500, seed=3, vocab_size=2000, target_words=40)
    p1 = tmp_path / "c1.tsv"
    p2 = tmp_path / "c2.tsv"
    save_corpus(p1, corpus)
    save_corpus(p2, load_corpus(p1))
    assert p1.read_bytes() == p2.read_bytes()


def test_aggregate_cap_and_boundaries():
    posts = [("a", 1.0, " ".join(["x"] * 2000)), ("a", 2.0, " ".join(["y"] * 1500))]
    vocab, out = aggregate_by_author(PostCorpus(posts), word_cap=3000, min_words=1)
    assert len(out) == 1
    seq = out[0].sequence
    assert len(seq) == 3000
    assert seq.boundaries == (0, 2000)  # truncated post keeps its boundary


def test_aggregate_min_words_floor():
    posts = [("small", 1.0, " ".join(["w"] * 100)), ("big", 1.0, " ".join(["v"] * 2800))]
    _, out = aggregate_by_author(PostCorpus(posts), word_cap=3000, min_words=2700)
    assert [a.author for a in out] == ["big"]


def test_aggregate_single_post_boundary():
    _, out = aggregate_by_author(PostCorpus([("a", 5.0, "just one post here")]),
                                 word_cap=100, min_words=1)
    assert out[0].sequence.boundaries == (0,)


def test_aggregate_sorts_by_timestamp():
    posts = [("a", 2.0, "second post"), ("a", 1.0, "first post")]
    vocab, out = aggregate_by_author(PostCorpus(posts), word_cap=100, min_words=1)
    seq = out[0].sequence
    assert vocab.tokens[seq.words[0]] == "first"


def test_aggregate_permutation_invariant():
    posts = [("a", float(i), f"post number {i} alpha beta") for i in range(20)]
    _, fwd = aggregate_by_author(PostCorpus(posts), word_cap=100, min_words=1)
    _, rev = aggregate_by_author(PostCorpus(posts[::-1]), word_cap=100, min_words=1)
    assert np.array_equal(fwd[0].sequence.words, rev[0].sequence.words)
    assert fwd[0].sequence.boundaries == rev[0].sequence.boundaries


def test_aggregate_drops_zero_word_remainders():
    posts = [("a", 1.0, " ".join(["x"] * 50)), ("a", 2.0, "unreachable words")]
    _, out = aggregate_by_author(PostCorpus(posts), word_cap=50, min_words=1)
    assert out[0].sequence.boundaries == (0,)


def test_aggregate_validates_args():
    with pytest.raises(UsageError):
        aggregate_by_author(PostCorpus([("a", 1.0, "x")]), word_cap=5, min_words=10)


def test_synthesizer_is_deterministic():
    a = synthesize_corpus(authors=5, seed=42, vocab_size=500, target_words=60)
    b = synthesize_corpus(authors=5, seed=42, vocab_size=500, target_words=60)
    assert a.posts == b.posts
    c = synthesize_corpus(authors=5, seed=43, vocab_size=500, target_words=60)
    assert a.posts != c.posts


def test_synthesizer_reaches_target_words():
    corpus = synthesize_corpus(authors=3, seed=1, vocab_size=500, target_words=200)
    _, out = aggregate_by_author(corpus, word_cap=10_000, min_words=1)
    assert all(len(a.sequence) >= 200 for a in out)

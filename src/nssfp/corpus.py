"""Corpus ingestion and per-author aggregation.

Input is a flat list of (author, timestamp, text) posts, either as a
tab-separated file or a directory of per-author text files. Aggregation
concatenates each author's posts in chronological order into one sequence
with a session boundary at every post start, capped at a word budget.

A seeded babble generator is included so the whole pipeline can run and
be tested without shipping any real forum data.
"""

import math
import os
from dataclasses import dataclass

import numpy as np

from .errors import (ParseError, UsageError, ValidationError, parse_field, read_lines,
                     read_records, write_records)
from .model import MAX_VOCAB_SIZE, Sequence, Vocabulary, tokenize

TSV_POSTS = "tsv_posts"
PLAIN_DIR = "plain_dir"
DEFAULT_WORD_CAP = 3000
LEXICON_SIZE = 60  # words per synthetic author
#: The most authors ``synth`` takes, 10**4: fifty times the README's corpus. At
#: 1,200 words each, synth writes that many in about a minute on a 2-vCPU Xeon.
MAX_AUTHORS = 10**4
#: The most words per author ``synth`` takes, 10**5: about 33 times the 3,000
#: words of an author that aggregation keeps by default.
MAX_TARGET_WORDS = 10**5
#: The most words ``synth`` writes, ``authors * target_words``: MAX_AUTHORS authors
#: at the default 1,200 words, about a minute. Both bounds at once would be 10**9
#: words, about 70 minutes and tens of GB.
MAX_SYNTH_WORDS = MAX_AUTHORS * 1200


@dataclass(frozen=True)
class PostCorpus:
    posts: list[tuple[str, float, str]]


@dataclass(frozen=True)
class AuthorSequence:
    author: str
    sequence: Sequence


def load_corpus(path, format: str = TSV_POSTS) -> PostCorpus:
    """Parse author/timestamp/text records.

    tsv_posts: one `author<TAB>unix_timestamp<TAB>text` record per line, timestamps finite.
    plain_dir: one *.txt file per author (name gives the author id), one
    post per non-empty line, timestamps from line order.

    Records are kept in file order; chronology is applied at aggregation.
    """
    if format == TSV_POSTS:
        records = read_records(path, ("author", "timestamp", "text"), "\t")
        next(records)
        posts = []
        for lineno, (author, ts, text) in records:
            stamp = parse_field(float, ts, "timestamp", path, lineno)
            if not math.isfinite(stamp):  # a NaN breaks the chronological sort
                raise ParseError("non-finite timestamp", path=str(path), line=lineno)
            posts.append((author, stamp, text))
    elif format == PLAIN_DIR:
        posts = [(name[:-4], float(lineno), line.strip())
                 for name in sorted(os.listdir(path)) if name.endswith(".txt")
                 for lineno, line in enumerate(read_lines(os.path.join(path, name)), 1)
                 if line.strip()]
    else:
        raise UsageError(f"unknown corpus format {format!r}")
    if not posts:
        raise ValidationError(f"corpus {path} contains no posts")
    return PostCorpus(posts=posts)


def save_corpus(path, corpus: PostCorpus):
    if any("\t" in text or "\n" in text for _, _, text in corpus.posts):
        raise ValidationError("post text must not contain tabs or newlines")
    write_records(path, (f"{author}\t{int(ts) if float(ts).is_integer() else repr(ts)}\t{text}"
                         for author, ts, text in corpus.posts))


def aggregate_by_author(corpus: PostCorpus, word_cap: int = DEFAULT_WORD_CAP,
                        min_words: int = 1) -> tuple[Vocabulary, list[AuthorSequence]]:
    """Concatenate each author's posts chronologically into one sequence.

    Sorting is stable, so equal timestamps keep input order. Aggregation
    stops at word_cap; a post truncated by the cap keeps its boundary and
    zero-word remainders are dropped. Authors below min_words are excluded
    (but still contribute to the vocabulary).
    """
    if not word_cap >= min_words >= 1:
        raise UsageError(f"need word_cap >= min_words >= 1, got {word_cap}/{min_words}")
    tokenized = [(author, ts, tokenize(text)) for author, ts, text in corpus.posts]
    vocab = Vocabulary.from_tokens(
        w for _, _, words in tokenized for w in words)
    grouped: dict[str, list[tuple[float, list[str]]]] = {}
    for author, ts, words in tokenized:
        grouped.setdefault(author, []).append((ts, words))
    out = []
    for author in sorted(grouped):
        posts = sorted(grouped[author], key=lambda p: p[0])
        words: list[str] = []
        boundaries: list[int] = []
        for _, post_words in posts:
            if not post_words or len(words) >= word_cap:
                continue
            boundaries.append(len(words))
            words.extend(post_words[:word_cap - len(words)])
        if len(words) < min_words or not words:
            continue
        seq = Sequence(id=author, words=vocab.encode(words), boundaries=tuple(boundaries))
        out.append(AuthorSequence(author=author, sequence=seq))
    return vocab, out


# --- synthetic corpus -------------------------------------------------------

def synthesize_corpus(
    authors: int,
    seed: int,
    vocab_size: int = 12000,
    target_words: int = 1200,
) -> PostCorpus:
    """Seeded chat-style babble with per-author lexicons and phrasing habits.

    Each author owns a 60-word lexicon wired into a sparse chain (each word
    leads to 3 of them), a personal "novelty" rate in [0.25, 0.45) at which
    uniformly random global words interrupt the chain, and a personal mean
    post length drawn from [3, 8) words. Posts are short, chat-style
    messages: under a model trained on the whole corpus, the first words of
    each post condition on a short context and fall back toward the broad
    unigram tail (nuclei spanning a large fraction of the vocabulary), while
    mid-post positions stay sharp. Short posts therefore drive both the size
    variability and the author-specific big/small position pattern that
    makes the series distinguishable fingerprints.
    """
    if not 1 <= authors <= MAX_AUTHORS:
        raise UsageError(f"authors must be >= 1 and <= {MAX_AUTHORS}, got {authors}")
    if not LEXICON_SIZE <= vocab_size <= MAX_VOCAB_SIZE:
        raise UsageError(f"vocab_size must be >= {LEXICON_SIZE}, the size of an author's "
                         f"lexicon, and <= {MAX_VOCAB_SIZE}, got {vocab_size}")
    if not 1 <= target_words <= MAX_TARGET_WORDS:
        raise UsageError(f"target_words must be >= 1 and <= {MAX_TARGET_WORDS}, "
                         f"got {target_words}")
    if authors * target_words > MAX_SYNTH_WORDS:
        raise UsageError(f"authors * target_words must be <= {MAX_SYNTH_WORDS}, "
                         f"got {authors} * {target_words}")
    if seed < 0:
        raise UsageError(f"seed must be >= 0, got {seed}")
    rng = np.random.default_rng(seed)

    def pick(arr: np.ndarray) -> int:  # rng.choice(arr)'s stream, without its overhead
        return int(arr[rng.integers(0, arr.size, dtype=np.int64)])

    words = np.array([f"w{i:05d}" for i in range(vocab_size)])
    posts: list[tuple[str, float, str]] = []
    for a in range(authors):
        author = f"author{a:04d}"
        lexicon = rng.choice(vocab_size, size=LEXICON_SIZE, replace=False)
        successors = {
            int(w): rng.choice(lexicon, size=3, replace=False)
            for w in lexicon
        }
        novelty = rng.uniform(0.25, 0.45)
        mean_post = rng.uniform(3.0, 8.0)
        current = pick(lexicon)
        produced = 0
        ts = 0
        while produced < target_words:
            post_len = max(2, round(rng.lognormal(math.log(mean_post), 0.35)))
            post_len = min(post_len, target_words - produced + 2)
            body = []
            for _ in range(post_len):
                if rng.random() < novelty:
                    nxt = int(rng.integers(vocab_size))
                else:
                    nxt = pick(successors[current]) if current in successors \
                        else pick(lexicon)
                body.append(words[nxt])
                current = nxt if nxt in successors else pick(lexicon)
            posts.append((author, float(ts), " ".join(body)))
            produced += post_len
            ts += 1
    return PostCorpus(posts=posts)

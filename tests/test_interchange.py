import numpy as np
import pytest

from nssfp.errors import ParseError, UsageError, ValidationError
from nssfp.fingerprint import Nss
from nssfp.interchange import (read_distances, read_nss, read_sequences, write_distances,
                               write_nss, write_sequences)
from nssfp.model import Sequence


def test_ingest_single_distribution_record(tmp_path):
    # full probability vectors (p= payloads) are not an NSS record
    path = tmp_path / "one.nss"
    path.write_text("#nss v1 model=abc q=0.9\ns1\t0\tn=4\ns1\t1\tp=0.5,0.3,0.2\n")
    with pytest.raises(ParseError, match="unknown payload") as exc:
        read_nss(path)
    assert exc.value.line == 3


def test_ingest_empty_file(tmp_path):
    empty = tmp_path / "empty.nss"
    empty.write_text("")
    with pytest.raises(ParseError) as exc:
        read_nss(empty)
    assert exc.value.line == 1

    header_only = tmp_path / "header.nss"
    header_only.write_text("#nss v1 model=m q=0.9\n# config seed=0\n\n")
    with pytest.raises(ParseError, match="no nucleus size records") as exc:
        read_nss(header_only)
    assert exc.value.line == 1


def test_ingest_error_reporting(tmp_path):
    no_header = tmp_path / "nh.nss"
    no_header.write_text("s1\t0\tn=5\n")
    with pytest.raises(ParseError) as exc:
        read_nss(no_header)
    assert exc.value.line == 1

    bad_fields = tmp_path / "bf.nss"
    bad_fields.write_text("#nss v1 model=a q=0.9\ns1 0 n=5\n")
    with pytest.raises(ParseError) as exc:
        read_nss(bad_fields)
    assert exc.value.line == 2

    negative = tmp_path / "neg.nss"
    negative.write_text("#nss v1 model=a q=0.9\ns1\t0\tn=-3\n")
    with pytest.raises(ValidationError):
        read_nss(negative)


def test_nss_roundtrip(tmp_path):
    series = [
        Nss("u1", 0.9, "m1", np.array([5, 900, 17])),
        Nss("u2", 0.9, "m1", np.array([3, 3, 3, 4])),
    ]
    path = tmp_path / "series.nss"
    write_nss(path, series)
    loaded, meta = read_nss(path)
    assert meta["model"] == "m1" and float(meta["q"]) == 0.9
    assert [x.seq_id for x in loaded] == ["u1", "u2"]
    for orig, got in zip(series, loaded):
        assert np.array_equal(orig.sizes, got.sizes)
        assert got.q == 0.9 and got.model_id == "m1"


def test_generated_nss_roundtrip(tmp_path, tiny_model, tiny_corpus):
    from nssfp.fingerprint import generate_nss

    _, seqs, _ = tiny_corpus
    series = [generate_nss(tiny_model, s, 0.9) for s in seqs]
    path = tmp_path / "gen.nss"
    write_nss(path, series)
    loaded, _ = read_nss(path)
    assert len(loaded) == len(series)
    for orig, got in zip(series, loaded):
        assert np.array_equal(orig.sizes, got.sizes)
        assert got.model_id == tiny_model.model_id


def test_write_nss_rejects_mixed_headers(tmp_path):
    mixed = [Nss("a", 0.9, "m1", np.array([1])), Nss("b", 0.8, "m1", np.array([1]))]
    with pytest.raises(UsageError):
        write_nss(tmp_path / "x.nss", mixed)
    with pytest.raises(UsageError):
        write_nss(tmp_path / "x.nss", [])


def test_read_nss_requires_dense_positions(tmp_path):
    path = tmp_path / "sparse.nss"
    path.write_text("#nss v1 model=a q=0.9\ns1\t0\tn=5\ns1\t2\tn=6\n")
    with pytest.raises(ValidationError):
        read_nss(path)


def test_sequences_roundtrip(tmp_path):
    seqs = [
        Sequence(id="a", words=np.array([3, 1, 4, 1, 5]), boundaries=(0, 2)),
        Sequence(id="b", words=np.array([2, 7]), boundaries=(0,)),
    ]
    path = tmp_path / "seqs.txt"
    write_sequences(path, seqs, vocab_size=10)
    loaded, vocab_size = read_sequences(path)
    assert vocab_size == 10
    for orig, got in zip(seqs, loaded):
        assert got.id == orig.id
        assert np.array_equal(got.words, orig.words)
        assert got.boundaries == orig.boundaries


def test_distances_roundtrip(tmp_path):
    records = [("a", "b", 123.5), ("a", "c", 88.25)]
    path = tmp_path / "d.csv"
    write_distances(path, records, length=100)
    loaded, length = read_distances(path)
    assert length == 100
    assert loaded == records

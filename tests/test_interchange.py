from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from nssfp import errors
from nssfp.config import read_config_file
from nssfp.corpus import load_corpus
from nssfp.errors import ParseError, UsageError, ValidationError, check_id
from nssfp.fingerprint import Nss
from nssfp.interchange import (read_distances, read_nss, read_sequences, write_distances,
                               write_nss, write_sequences)
from nssfp.model import Sequence
from nssfp.sampler import (MITIGATED, VULNERABLE, TimingSample, read_bench_report,
                           write_bench_report)
from nssfp.sidechannel import ChannelConfig, Trace, read_traces, simulate_pool, write_traces
from nssfp.stats import read_fit_report


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

    huge = tmp_path / "huge.nss"
    huge.write_text("#nss v1 model=a q=0.9\ns1\t0\tn=5\ns1\t1\tn=9223372036854775808\n")
    with pytest.raises(ParseError, match="int64") as exc:
        read_nss(huge)
    assert exc.value.line == 3

    negative = tmp_path / "neg.nss"
    negative.write_text("#nss v1 model=a q=0.9\ns1\t0\tn=-3\n")
    with pytest.raises(ParseError, match="negative nucleus size") as exc:
        read_nss(negative)
    assert exc.value.line == 2


def test_ids_reject_delimiters(tmp_path):
    path = tmp_path / "comma.nss"
    path.write_text("#nss v1 model=m q=0.9\na,b\t0\tn=5\n")
    with pytest.raises(ParseError, match="'a,b'") as exc:
        read_nss(path)
    assert exc.value.line == 2
    for bad in ("a\tb", "a\nb", "a\rb", "#a"):
        with pytest.raises(ValidationError):
            Nss(bad, 0.9, "m", np.array([1]))
        with pytest.raises(ValidationError):
            Sequence(id=bad, words=np.array([1]))
        with pytest.raises(ValidationError):
            Trace(seq_id=bad, estimated_sizes=np.ones(1), per_step_hit_counts=np.ones(1),
                  per_step_durations=np.ones(1), estimated_iterations=np.ones(1),
                  noise_level=0.0)


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
    with pytest.raises(ParseError) as exc:
        read_nss(path)
    assert exc.value.line == 2


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


_ids = st.text(st.characters(blacklist_categories=("Cs",)), max_size=8)
_file_settings = settings(max_examples=150, deadline=None,
                          suppress_health_check=[HealthCheck.function_scoped_fixture])


def _valid_ids(ids):
    """The ids ``check_id`` accepts, the only ones a record can carry."""
    out = []
    for i in ids:
        try:
            check_id(i, "test")
        except ValidationError:
            continue
        out.append(i)
    return out


@_file_settings
@given(ids=st.lists(_ids, min_size=1, max_size=4, unique=True),
       q=st.floats(0.0, 1.0, exclude_min=True),
       model_id=st.text("0123456789abcdef", min_size=1, max_size=16),
       sizes=st.lists(st.lists(st.integers(0, 2**63 - 1), min_size=1, max_size=6),
                      min_size=4, max_size=4))
def test_nss_file_roundtrip(tmp_path, ids, q, model_id, sizes):
    ids = _valid_ids(ids)
    if not ids:
        return
    series = [Nss(i, q, model_id, np.array(s, dtype=np.int64)) for i, s in zip(ids, sizes)]
    path = tmp_path / "rt.nss"
    write_nss(path, series, header_lines=["config seed=0"])
    loaded, meta = read_nss(path)
    assert meta["model"] == model_id
    assert [(x.seq_id, x.q, x.model_id, x.sizes.tolist()) for x in loaded] == [
        (x.seq_id, q, model_id, x.sizes.tolist()) for x in series]
    write_nss(tmp_path / "again.nss", loaded, header_lines=["config seed=0"])
    assert (tmp_path / "again.nss").read_bytes() == path.read_bytes()


_reals = st.floats(allow_nan=False, allow_infinity=False)


@_file_settings
@given(ids=st.lists(_ids, max_size=4, unique=True),
       capture=st.floats(1e-6, 1.0), seed=st.integers(0, 2**32 - 1),
       steps=st.lists(st.lists(st.tuples(st.integers(0, 2**40), _reals, _reals),
                               min_size=1, max_size=6), min_size=4, max_size=4))
def test_trace_file_roundtrip_any_values(tmp_path, ids, capture, seed, steps):
    traces = []
    for seq_id, rows in zip(_valid_ids(ids), steps):
        counts = np.array([r[0] for r in rows], dtype=np.int64)
        traces.append(Trace(seq_id=seq_id, estimated_sizes=np.array([r[2] for r in rows]),
                            per_step_hit_counts=counts,
                            per_step_durations=np.array([r[1] for r in rows]),
                            estimated_iterations=counts / capture, noise_level=0.0))
    path = tmp_path / "rt.trc"
    write_traces(path, traces, ChannelConfig(capture_fraction=capture, rng_seed=seed),
                 header_lines=["config seed=0"])
    loaded, meta = read_traces(path)
    assert meta == {"seed": seed, "capture": capture}
    assert [t.seq_id for t in loaded] == [t.seq_id for t in traces]
    for a, b in zip(traces, loaded):
        # bit for bit, signed zeros included
        assert a.estimated_sizes.tobytes() == b.estimated_sizes.tobytes()
        assert a.per_step_durations.tobytes() == b.per_step_durations.tobytes()
        assert a.per_step_hit_counts.tolist() == b.per_step_hit_counts.tolist()
    write_traces(tmp_path / "again.trc", loaded,
                 ChannelConfig(capture_fraction=capture, rng_seed=seed),
                 header_lines=["config seed=0"])
    assert (tmp_path / "again.trc").read_bytes() == path.read_bytes()


@_file_settings
@given(ids=st.lists(_ids, min_size=1, max_size=4, unique=True),
       vocab_size=st.integers(0, 2**63 - 1),
       rows=st.lists(st.lists(st.integers(-2**63, 2**63 - 1), min_size=1, max_size=6),
                     min_size=4, max_size=4),
       cuts=st.lists(st.sets(st.integers(1, 5)), min_size=4, max_size=4))
def test_sequence_file_roundtrip(tmp_path, ids, vocab_size, rows, cuts):
    seqs = [Sequence(id=i, words=np.array(w, dtype=np.int64),
                     boundaries=(0, *sorted(c for c in cut if c < len(w))))
            for i, w, cut in zip(_valid_ids(ids), rows, cuts)]
    path = tmp_path / "rt.seq"
    write_sequences(path, seqs, vocab_size=vocab_size)
    loaded, got_vocab = read_sequences(path)
    assert got_vocab == vocab_size
    assert [(s.id, s.words.tolist(), s.boundaries) for s in loaded] == [
        (s.id, s.words.tolist(), s.boundaries) for s in seqs]
    write_sequences(tmp_path / "again.seq", loaded, vocab_size=got_vocab)
    assert (tmp_path / "again.seq").read_bytes() == path.read_bytes()


_distances = st.floats(0.0, exclude_min=True, allow_infinity=False)


@_file_settings
@given(ids=st.lists(st.tuples(_ids, _ids), max_size=6), length=st.integers(0, 2**63 - 1),
       distances=st.lists(_distances, min_size=6, max_size=6),
       header=st.lists(st.text(st.characters(blacklist_categories=("Cs", "Cc"))),
                       max_size=2))
def test_distance_file_roundtrip(tmp_path, ids, length, distances, header):
    records = [(x, y, d) for (x, y), d in zip(ids, distances)
               if _valid_ids([x, y]) == [x, y]]
    path = tmp_path / "rt.dist"
    write_distances(path, records, length=length, header_lines=header)
    loaded, got_length = read_distances(path)
    assert (loaded, got_length) == (records, length)
    write_distances(tmp_path / "again.dist", loaded, length=got_length, header_lines=header)
    assert (tmp_path / "again.dist").read_bytes() == path.read_bytes()


@_file_settings
@given(samples=st.lists(st.integers(1, 2**63 - 1).flatmap(lambda vocab: st.builds(
           TimingSample, st.sampled_from([VULNERABLE, MITIGATED]), st.integers(0, vocab),
           st.integers(0, 2**63 - 1), st.just(vocab))), max_size=6),
       header=st.lists(st.text(st.characters(blacklist_categories=("Cs", "Cc"))),
                       max_size=2))
def test_bench_file_roundtrip(tmp_path, samples, header):
    path = tmp_path / "rt.csv"
    write_bench_report(path, samples, header_lines=header)
    loaded = read_bench_report(path)
    assert loaded == samples
    write_bench_report(tmp_path / "again.csv", loaded, header_lines=header)
    assert (tmp_path / "again.csv").read_bytes() == path.read_bytes()


_HEADERS = [b"", b"#nss v1 model=m q=0.9\n", b"#trace v1 seed=0 capture=0.5\n",
            b"#seq v1 vocab_size=9\n", b"#pairdist v1 length=3\n", b"#fit v2\n"]
# fragments that reach past the header checks into the record parsers
_fragments = st.one_of(
    st.binary(max_size=16),
    st.text("0123456789.-+eEinfatx#=,\t\n\r ", max_size=24).map(str.encode))


@pytest.mark.parametrize("reader", [read_nss, read_traces, read_sequences, read_distances,
                                    read_fit_report, read_bench_report, load_corpus,
                                    read_config_file])
@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(head=st.sampled_from(_HEADERS), body=st.lists(_fragments, max_size=8))
def test_arbitrary_bytes_raise_only_input_errors(tmp_path, reader, head, body):
    path = tmp_path / "fuzz"
    path.write_bytes(head + b"".join(body))
    try:
        reader(path)
    except (ParseError, ValidationError):
        pass


def test_undecodable_bytes_name_their_line(tmp_path):
    path = tmp_path / "latin1.nss"
    path.write_bytes(b"#nss v1 model=m q=0.9\r\ns\t0\tn=5\rs\t1\tn=\xe9\n")
    for reader in (read_nss, read_traces):
        with pytest.raises(ParseError, match="not UTF-8") as exc:
            reader(path)
        assert exc.value.line == 3


# every reader of a format with a typed header: (header line, one valid record)
_FRAMED = {
    read_nss: ("#nss v1 model=m q=0.5\n", "s\t0\tn=5\n"),
    read_sequences: ("#seq v1 vocab_size=9\n", "s\t0\t1,2\n"),
    read_distances: ("#pairdist v1 length=3\n", "a,b,1.5\n"),
    read_traces: ("#trace v1 seed=0 capture=0.5\n", "s\t0\t2\t10.0\t5.0\n"),
    read_fit_report: ("#fit v2\n", "2,1e-06,1.0,0.5,5.0,0.5,0.05,1.0,4.0\n"),
}


@pytest.mark.parametrize("reader", list(_FRAMED))
@pytest.mark.parametrize("before", ["\n", "# comment\n", "\n# config seed=0\n\n"])
def test_header_may_follow_blank_and_comment_lines(tmp_path, reader, before):
    header, record = _FRAMED[reader]
    plain, framed = tmp_path / "plain", tmp_path / "framed"
    plain.write_text(header + record)
    framed.write_text(before + header + record)
    assert repr(reader(framed)) == repr(reader(plain))


@pytest.mark.parametrize("reader", list(_FRAMED))
@pytest.mark.parametrize("case, text, line", [
    ("missing header", "{r}", 1),
    ("missing header after a comment", "# note\n{r}", 1),
    ("late header", "{r}{h}", 1),
    ("late header after a comment", "# note\n\n{r}{h}", 1),
    ("empty file", "", 1),
    ("repeated header", "{h}{h}{r}", 2),
    ("concatenated files", "{h}{r}{h}{r}", 3),
    ("unknown header field", "{H} extra=1\n{r}", 1),
    ("malformed header field", "{H} extra\n{r}", 1),
    ("short record", "{h}{r}s\n", 3),
    ("one field", "\n{h}# note\ns\n", 4),
    ("undecodable byte in a record", "{h}{r}s\t\udce9\n", 3),
    ("undecodable byte in a comment", "{h}# caf\udce9\n{r}", 2),
    ("undecodable byte before the header", "# caf\udce9\n{h}{r}", 1),
])
def test_framing_errors_name_their_line(tmp_path, reader, case, text, line):
    header, record = _FRAMED[reader]
    path = tmp_path / "framed"
    text = text.format(h=header, H=header.rstrip("\n"), r=record)
    path.write_bytes(text.encode("utf-8", "surrogateescape"))
    with pytest.raises(ParseError) as exc:
        reader(path)
    assert exc.value.line == line and str(exc.value).startswith(f"{path}:{line}: "), case


@pytest.mark.parametrize("text", ["#nss v1 q=0.5\ns\t0\tn=5\n",
                                  "#trace v1 seed=0\ns\t0\t2\t10.0\t5.0\n"])
def test_header_without_a_typed_field_is_malformed(tmp_path, text):
    path = tmp_path / "f"
    path.write_text(text)
    with pytest.raises(ParseError, match="header lacks") as exc:
        (read_nss if text.startswith("#nss") else read_traces)(path)
    assert exc.value.line == 1


def test_last_field_keeps_later_separators(tmp_path):
    corpus = tmp_path / "posts.tsv"
    corpus.write_text("a\t1\tone\ttwo\n")
    assert load_corpus(corpus).posts == [("a", 1.0, "one\ttwo")]
    cfg = tmp_path / "run.cfg"
    cfg.write_text(" seed = 3\nchannel.rng_seed=a=b\n")
    assert read_config_file(cfg) == {"seed": "3", "channel.rng_seed": "a=b"}
    nss = tmp_path / "tab.nss"
    nss.write_text("#nss v1 model=m q=0.9\ns\t0\tn=5\tx\n")
    with pytest.raises(ParseError, match="nucleus size") as exc:
        read_nss(nss)
    assert exc.value.line == 2


@pytest.mark.parametrize("distance", ["nan", "inf", "-inf", "-1.5", "0.0", "-0.0"])
def test_read_distances_rejects_non_positive_or_non_finite(tmp_path, distance):
    path = tmp_path / "d.dist"
    path.write_text(f"#pairdist v1 length=3\n# config\na,b,1.5\na,c,{distance}\n")
    with pytest.raises(ParseError, match="not finite and positive") as exc:
        read_distances(path)
    assert exc.value.line == 4


# --- bulk parsing against the record loop -----------------------------------

# each bulk-parsing reader: a header and one record's value fields
_HEADS = {read_nss: "#nss v1 model=m q=0.9\n", read_traces: "#trace v1 seed=0 capture=0.5\n"}
_VALUES = {
    read_nss: st.tuples(st.integers(0, 2**63 - 1).map(lambda n: f"n={n}")),
    read_traces: st.tuples(st.integers(0, 2**63 - 1).map(str), _reals.map(repr),
                           _reals.map(repr)),
}


def _outcome(read, path):
    """What ``read`` makes of ``path``: equal for two readers only when the
    series match in repr, field types, dtypes and bits, or the errors do."""
    try:
        series, meta = read(path)
    except (ParseError, ValidationError) as exc:
        return type(exc), str(exc), getattr(exc, "line", None)
    return repr(series), repr(meta), [
        [(name, type(v), v.dtype.str, v.tobytes()) if isinstance(v, np.ndarray)
         else (name, type(v), repr(v)) for name, v in vars(x).items()] for x in series]


def _loop_outcome(read, path):
    """:func:`_outcome` of the record loop alone, bulk parsing turned off."""
    with mock.patch.object(errors, "_read_columns", lambda *args: None):
        return _outcome(read, path)


# fields that numpy's parser and int()/float() might read differently
_TOKENS = st.one_of(
    st.builds("{}{}{}".format,
              st.sampled_from(["", "+", "-", "0", " ", "\x0b", "\x1c", "\u3000", "n="]),
              st.sampled_from(["5", "1_000", "\u0661\u0662", "\uff15", "1.5", "-0.0", "1.",
                               "nan", "inf", "1e400", "0x1p3", str(2**63), ""]),
              st.sampled_from(["", " ", "\t", "\t6", "\x1c", "\x85", "_", "#"])),
    st.text("0123456789+-._eEinfxn= \t\x0b\x1c\x85\u3000\u0661\uff15\u01fe\u0903", max_size=6))
_BULK_IDS = st.one_of(st.sampled_from(["s", "u", "v"]), st.sampled_from(
    ["x#y", "#x", "s\x00", "e" * 70, "n=1", "s ", "a,b", "\x1c", "\x0b\x0c\x85\u2028"]))


def _rarely(draw):
    return draw(st.sampled_from([False, False, False, True]))


@st.composite
def _record_files(draw, read):
    """Record files for ``read``: valid ones, now and then with shuffled,
    repeated or gapped indexes or header framing; valid ones with one bad
    field; and valid ones with a fragment spliced in."""
    rows = [[seq_id, str(index), *draw(_VALUES[read])]
            for seq_id in draw(st.lists(_BULK_IDS, min_size=1, max_size=3, unique=True))
            for index in range(draw(st.integers(1, 4)))]
    if _rarely(draw):
        rows = draw(st.permutations(rows))
    if _rarely(draw):
        rows.insert(draw(st.integers(0, len(rows))), list(draw(st.sampled_from(rows))))
    if len(rows) > 1 and _rarely(draw):
        del rows[draw(st.integers(0, len(rows) - 1))]
    flaw = draw(st.sampled_from(["none", "field", "field", "splice"]))
    if flaw == "field":
        row = draw(st.sampled_from(rows))
        row[draw(st.integers(1, len(row) - 1))] = draw(_TOKENS)
    text = ((draw(st.sampled_from(["\n", "# note\n"])) if _rarely(draw) else "")
            + _HEADS[read]
            + draw(st.sampled_from(["", "# config seed=0\n", "# config seed=0\n# q=0.9\n"]))
            + (_HEADS[read] if _rarely(draw) else "")
            + "".join("\t".join(row) + "\n" for row in rows))
    if _rarely(draw):
        text = text.rstrip("\n")
    data = text.encode("utf-8")
    if flaw == "splice":
        at = draw(st.integers(0, len(data)))
        data = data[:at] + draw(_fragments) + data[at:]
    return data


@pytest.mark.parametrize("read", list(_HEADS))
@settings(max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_bulk_read_equals_record_loop(tmp_path, read, data):
    path = tmp_path / "records"
    path.write_bytes(data.draw(_record_files(read)))
    assert _outcome(read, path) == _loop_outcome(read, path)


@pytest.mark.parametrize("read, records", [
    pytest.param(read_nss, "s\t0\tn=1_000\n", id="underscore-int"),
    pytest.param(read_nss, "s\t\u0661\u0662\tn=5\n", id="arabic-indic-int"),
    pytest.param(read_traces, "s\t0\t\uff15\t10.0\t5.0\n", id="fullwidth-int"),
    pytest.param(read_traces, "s\t0\t2\t0x1p3\t5.0\n", id="hex-float"),
    pytest.param(read_nss, "x#y\t0\tn=5\n", id="hash-in-id"),
    pytest.param(read_nss, "s\x00\t0\tn=5\ns\x00\t1\tn=6\n", id="id-ending-in-nul"),
    pytest.param(read_traces, "e" * 70 + "\t0\t2\t10.0\t5.0\n", id="id-over-64-chars"),
    pytest.param(read_nss, "s\t0\tn=5\t6\n", id="nss-tab-in-last-field"),
    pytest.param(read_traces, "s\t0\t2\t10.0\t5.0\t\n", id="trace-tab-ending-last-field"),
    pytest.param(read_nss, "s\t0\t5\n", id="payload-without-n="),
    pytest.param(read_nss, "s\tn=0\tn=5\ns\t1\t6\n", id="tag-in-the-index"),
    pytest.param(read_nss, "s\t+0\tn=+5\n", id="plus-sign"),
    pytest.param(read_traces, "s\t 0\t 2\t10.0\t5.0\n", id="leading-space"),
    pytest.param(read_traces, "s\t0\t2\tnan\t5.0\n", id="nan"),
    pytest.param(read_traces, "s\t0\t2\t10.0\tinf\n", id="inf"),
    pytest.param(read_traces, "s\t0\t2\t1e400\t5.0\n", id="1e400"),
    pytest.param(read_traces, f"s\t0\t{2**63}\t10.0\t5.0\n", id="count-2**63"),
    pytest.param(read_nss, f"s\t0\tn={2**63}\n", id="size-2**63"),
    pytest.param(read_nss, "s\t0\tn=5\n\ns\t1\tn=6\n", id="empty-line"),
    pytest.param(read_nss, "s\t0\tn=5\n \t\ns\t1\tn=6\n", id="whitespace-line"),
    pytest.param(read_nss, "s\t0\tn=5\r\ns\t1\tn=6\rs\t2\tn=7\n", id="carriage-returns"),
    pytest.param(read_nss, "a\t0\tn=5\nb\t0\tn=6\na\t1\tn=7\n", id="out-of-order-ids"),
    pytest.param(read_traces, "s\t0\t2\t10.0\x1c\t5.0\n", id="numpy-only-space"),
    pytest.param(read_nss, "s\t0\tn=5\u01fe\n", id="numpy-only-digit"),
    pytest.param(read_traces, "\u0903\t0\t\u0903\t10.0\t5.0\n", id="numpy-only-digit-count"),
])
def test_bulk_hazards_equal_record_loop(tmp_path, read, records):
    path = tmp_path / "records"
    path.write_bytes((_HEADS[read] + records).encode("utf-8"))
    assert _outcome(read, path) == _loop_outcome(read, path)


@pytest.mark.parametrize("read, text", [
    (read_nss, "#nss v2 model=m q=0.9\ns\t0\tn=5\n"),
    (read_traces, "#trace v2 seed=0 capture=0.5\ns\t0\t2\t10.0\t5.0\n"),
])
def test_bulk_read_needs_its_own_header(tmp_path, read, text):
    # past the header's length, this line reads as a valid header
    path = tmp_path / "records"
    path.write_text(text)
    assert _outcome(read, path) == _loop_outcome(read, path)


# Latin-1, every character Python counts as whitespace (none lies above U+3000),
# and some that numpy 2.4's int parser was seen to read as digits
_DECORATIONS = sorted({chr(c) for c in range(256)} | {chr(c) for c in range(0x3001)
                                                      if chr(c).isspace()}
                      | set("\u01fe\u04ff\u0761\u0903\u0dba\u1170\u1400") - set("\t\n\r"))


def test_bulk_reads_decorated_numbers_as_the_loop_does(tmp_path):
    # numpy's parser and int()/float() each strip some characters as whitespace
    path = tmp_path / "records"
    for c in _DECORATIONS:
        for number in (f"5{c}", f"{c}5", f"5{c}5"):
            for read, records in ((read_nss, f"s\t0\tn={number}\n"),
                                  (read_traces, f"s\t0\t2\t{number}\t5.0\n")):
                path.write_bytes((_HEADS[read] + records).encode("utf-8"))
                assert _outcome(read, path) == _loop_outcome(read, path), (read, number)


def test_written_files_are_read_in_bulk(tmp_path, tiny_model, tiny_corpus):
    from nssfp.fingerprint import generate_nss

    _, seqs, _ = tiny_corpus
    series = [generate_nss(tiny_model, s, 0.9) for s in seqs]
    traces = simulate_pool(series, tiny_model.vocab_size, ChannelConfig())
    write_nss(tmp_path / "s.nss", series, header_lines=["config seed=0"])
    write_traces(tmp_path / "p.trc", traces, ChannelConfig(), header_lines=["config seed=0"])
    files = [(read_nss, tmp_path / "s.nss"), (read_traces, tmp_path / "p.trc")]

    loop = mock.Mock(side_effect=AssertionError("a written file fell back to the loop"))
    with mock.patch.object(errors, "_read_series_records", loop):
        bulk = [_outcome(read, path) for read, path in files]
    assert bulk == [_loop_outcome(read, path) for read, path in files]
    assert [len(outcome[2]) for outcome in bulk] == [len(seqs), len(seqs)]

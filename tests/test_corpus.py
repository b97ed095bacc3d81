"""Corpus parsing, validation, serialization and weak-label loading."""

import io

import pytest
from hypothesis import example, given, settings, strategies as st

from corpus_oracle import oracle_load_corpus, oracle_sniff_schema
from offlang.corpus import (classes_for, class_distribution, Corpus, HEADER_TEXT_ONLY,
                            level_of_label, load_corpus, load_weak_labels, read_columns,
                            serialize_corpus, Tweet, WeakLabel)
from offlang.errors import ParseError, ValidationError

HEADER = "id\ttweet\tsubtask_a\tsubtask_b\tsubtask_c"


def make(*rows, header=HEADER):
    return ("\n".join([header] + ["\t".join(r) for r in rows]) + "\n").encode()


def test_load_labeled_corpus():
    data = make(("86420", "@USER she is funny", "NOT", "NULL", "NULL"),
                ("86421", "these idiots URL", "OFF", "TIN", "GRP"))
    c = load_corpus(data, schema="olid_labeled")
    assert len(c) == 2
    assert c.tweets[0] == Tweet(id="86420", text="@USER she is funny",
                                label_a="NOT", label_b=None, label_c=None)
    assert c.tweets[1].label_c == "GRP"


def test_load_text_only_corpus():
    data = b"id\ttweet\n1\thello there\n"
    c = load_corpus(data, schema="text_only")
    assert c.tweets[0].label_a is None


def test_load_from_path_and_file_object(tmp_path):
    p = tmp_path / "c.tsv"
    p.write_bytes(make(("1", "hi", "NOT", "NULL", "NULL")))
    assert len(load_corpus(p, schema="olid_labeled")) == 1
    with open(p, "rb") as fh:
        assert len(load_corpus(fh, schema="olid_labeled")) == 1


def test_wrong_header_rejected():
    with pytest.raises(ParseError, match="line 1"):
        load_corpus(b"id\ttext\n1\thi\n", schema="text_only")
    with pytest.raises(ParseError):
        load_corpus(b"id\ttweet\n1\thi\n", schema="olid_labeled")


def test_unknown_schema_rejected():
    with pytest.raises(ValidationError):
        load_corpus(b"id\ttweet\n", schema="csv")


def test_column_count_error_carries_line_number():
    data = b"id\ttweet\n1\thi\n2\ta\tb\n"
    with pytest.raises(ParseError, match="line 3"):
        load_corpus(data, schema="text_only")


def test_empty_id_rejected():
    data = make(("", "hi", "NOT", "NULL", "NULL"))
    with pytest.raises(ParseError, match="line 2"):
        load_corpus(data, schema="olid_labeled")


def test_bad_label_rejected():
    data = make(("1", "hi", "MAYBE", "NULL", "NULL"))
    with pytest.raises(ParseError, match="line 2"):
        load_corpus(data, schema="olid_labeled")
    data = make(("1", "hi", "NOT", "TIN", "NULL"))  # B label on a NOT tweet
    with pytest.raises(ValidationError):
        load_corpus(data, schema="olid_labeled")


def test_hierarchy_violations_rejected():
    # C label without a B label
    data = make(("9", "hi", "OFF", "NULL", "IND"))
    with pytest.raises(ValidationError) as exc:
        load_corpus(data, schema="olid_labeled")
    assert "9" in str(exc.value)
    # UNT cannot carry a C label
    data = make(("9", "hi", "OFF", "UNT", "IND"))
    with pytest.raises(ValidationError):
        load_corpus(data, schema="olid_labeled")


def test_duplicate_ids_listed_in_order():
    data = make(("1", "a", "NOT", "NULL", "NULL"),
                ("2", "b", "NOT", "NULL", "NULL"),
                ("1", "c", "NOT", "NULL", "NULL"),
                ("2", "d", "NOT", "NULL", "NULL"))
    with pytest.raises(ValidationError) as exc:
        load_corpus(data, schema="olid_labeled")
    assert exc.value.ids == ["1", "2"]


def test_decode_error_becomes_parse_error():
    with pytest.raises(ParseError):
        load_corpus(b"id\ttweet\n1\t\xff\xfe\n", schema="text_only")


def test_round_trip_bytes():
    data = make(("1", "plain words", "OFF", "UNT", "NULL"),
                ("2", "more words", "NOT", "NULL", "NULL"))
    c = load_corpus(data, schema="olid_labeled")
    assert serialize_corpus(c, "olid_labeled") == data


def test_tweet_label_at_and_hierarchy():
    t = Tweet(id="1", text="x", label_a="OFF", label_b="TIN", label_c="OTH")
    assert t.label_at("A") == "OFF"
    assert t.label_at("B") == "TIN"
    assert t.label_at("C") == "OTH"
    assert t.hierarchy_ok()
    assert not Tweet(id="1", text="x", label_a="NOT",
                     label_b="TIN", label_c=None).hierarchy_ok()


def test_corpus_helpers():
    c = load_corpus(make(("1", "a", "OFF", "TIN", "IND"),
                         ("2", "b", "OFF", "UNT", "NULL"),
                         ("3", "c", "NOT", "NULL", "NULL")),
                    schema="olid_labeled")
    assert c.ids() == ["1", "2", "3"]
    assert [t.id for t in c.labeled_at("C")] == ["1"]
    assert class_distribution(c, "B") == {"TIN": 1, "UNT": 1}
    assert class_distribution(c, "C") == {"IND": 1, "GRP": 0, "OTH": 0}


def test_classes_for_and_level_of_label():
    assert classes_for("A") == ("NOT", "OFF")
    assert classes_for("B") == ("TIN", "UNT")
    assert classes_for("C") == ("IND", "GRP", "OTH")
    assert level_of_label("GRP") == "C"
    with pytest.raises(ValidationError):
        classes_for("D")
    with pytest.raises(ValidationError):
        level_of_label("NULL")


def test_load_weak_labels():
    data = b"10\t0.93\t0.05\n11\t0.50\t0.00\n"
    weak = load_weak_labels(data)
    assert weak["10"] == WeakLabel(id="10", confidence=0.93, std=0.05)
    assert set(weak) == {"10", "11"}


def test_weak_label_validation():
    with pytest.raises(ParseError, match="line 1"):
        load_weak_labels(b"10\t1.5\t0.0\n")
    with pytest.raises(ParseError):
        load_weak_labels(b"10\t0.5\t-0.1\n")
    with pytest.raises(ParseError):
        load_weak_labels(b"10\t0.5\n")
    with pytest.raises(ValidationError):
        load_weak_labels(b"10\t0.5\t0.1\n10\t0.6\t0.1\n")


def test_weak_label_duplicates_listed_once_in_order():
    # An id seen three times was once listed twice.
    with pytest.raises(ValidationError) as exc:
        load_weak_labels(b"10\t0.5\t0.1\n11\t0.5\t0.1\n10\t0.6\t0.1\n"
                         b"10\t0.7\t0.1\n11\t0.5\t0.1\n")
    assert exc.value.ids == ["10", "11"]


_LABELS = st.sampled_from([("NOT", None, None), ("OFF", None, None),
                           ("OFF", "UNT", None), ("OFF", "TIN", None),
                           ("OFF", "TIN", "IND"), ("OFF", "TIN", "GRP"),
                           ("OFF", "TIN", "OTH")])
_TEXT = st.text(
    alphabet=st.characters(codec="utf-8", exclude_characters="\t\n\r"),
    min_size=1).filter(lambda s: s.strip() == s and s)


@given(st.lists(st.tuples(_TEXT, _LABELS), min_size=1, max_size=20))
def test_serialize_load_round_trip(items):
    tweets = tuple(Tweet(id=str(i), text=text, label_a=a, label_b=b, label_c=c)
                   for i, (text, (a, b, c)) in enumerate(items))
    corpus = Corpus(tweets=tweets)
    again = load_corpus(serialize_corpus(corpus, "olid_labeled"),
                        schema="olid_labeled")
    assert again.tweets == tweets


# ---------------------------------------------------------------------------
# read_columns against the line-by-line loader it replaced (corpus_oracle)

_GOOD_LABELS = ["NOT\tNULL\tNULL", "OFF\tNULL\tNULL", "OFF\tUNT\tNULL", "OFF\tTIN\tNULL",
                "OFF\tTIN\tIND", "OFF\tTIN\tGRP", "OFF\tTIN\tOTH", "NULL\tNULL\tNULL"]
_BAD_LABELS = ["", "MAYBE", "off", "null", "NULL ", "TIN", "NOT", "GRP", "OFF"]
_HIERARCHY_VIOLATIONS = ["NOT\tTIN\tNULL", "NOT\tUNT\tNULL", "NULL\tTIN\tNULL",
                         "OFF\tNULL\tIND", "OFF\tUNT\tGRP", "NOT\tNULL\tOTH", "NULL\tNULL\tGRP"]
_FAULTS = ["fields+", "fields-", "empty id", "bad label", "duplicate id", "hierarchy", "header"]
# Field text: no tab or newline, but a carriage return and other line
# separators are allowed.
_ANY_TEXT = st.text(st.sampled_from("ab \r\x1c\x85\u2028\u00e9\U0001F600"), max_size=6)


@st.composite
def _corpus_files(draw, max_faults):
    """The bytes of a corpus file of either schema with LF, CRLF or mixed
    line endings, with or without a final newline, and with up to
    max_faults faults injected at drawn rows."""
    labeled = draw(st.booleans())
    header = HEADER if labeled else HEADER_TEXT_ONLY
    n = draw(st.integers(0, 12))
    rows = [[f"t{i}{draw(_ANY_TEXT)}", draw(_ANY_TEXT)] for i in range(n)]
    if labeled:
        for row in rows:
            row += draw(st.sampled_from(_GOOD_LABELS)).split("\t")
    lines = [header] + ["\t".join(row) for row in rows]
    for fault in draw(st.lists(st.sampled_from(_FAULTS), max_size=max_faults)):
        if fault == "header":
            lines[0] = draw(st.sampled_from(["", "id\ttext", HEADER + "\t", HEADER_TEXT_ONLY,
                                              HEADER, header.upper()]))
            continue
        if len(lines) == 1:
            lines.append("\t".join(["x", "y"] + (["NOT", "NULL", "NULL"] if labeled else [])))
        at = draw(st.integers(1, len(lines) - 1))
        fields = lines[at].split("\t")
        if fault == "fields+":
            fields.append(draw(_ANY_TEXT))
        elif fault == "fields-":
            fields.pop()
        elif fault == "empty id":
            fields[0] = ""
        elif fault == "duplicate id":
            fields[0] = lines[draw(st.integers(1, len(lines) - 1))].split("\t")[0]
        elif labeled and fault == "bad label" and len(fields) >= 5:
            fields[draw(st.integers(2, 4))] = draw(st.sampled_from(_BAD_LABELS))
        elif labeled and fault == "hierarchy" and len(fields) >= 5:
            fields[2:5] = draw(st.sampled_from(_HIERARCHY_VIOLATIONS)).split("\t")
        lines[at] = "\t".join(fields)
    style = draw(st.sampled_from(["\n", "\r\n", "mixed"]))
    endings = [draw(st.sampled_from(["\n", "\r\n", "\r\r\n"])) if style == "mixed" else style
               for _ in lines]
    if not draw(st.booleans()):
        endings[-1] = ""
    return "".join(line + end for line, end in zip(lines, endings)).encode()


def _outcome(read, data):
    """What read(source) returns, or the type, message, line and ids of
    what it raises, for a file object named corpus.tsv over data."""
    source = io.BytesIO(data)
    source.name = "corpus.tsv"
    try:
        return read(source)
    except (ParseError, ValidationError) as exc:
        return type(exc), str(exc), getattr(exc, "line", None), getattr(exc, "ids", None)


def _read_as_commands_do(source):
    columns = read_columns(source)
    return columns.schema, columns.corpus()


def _oracle_read_as_commands_did(source):
    schema = oracle_sniff_schema(source)
    source.seek(0)
    return schema, oracle_load_corpus(source, schema)


def _assert_reads_as_oracle(data):
    assert _outcome(_read_as_commands_do, data) == _outcome(_oracle_read_as_commands_did, data)
    for schema in ("olid_labeled", "text_only"):
        assert (_outcome(lambda src: load_corpus(src, schema), data)
                == _outcome(lambda src: oracle_load_corpus(src, schema), data))


@settings(max_examples=300)
@given(_corpus_files(max_faults=0))
def test_valid_corpus_reads_as_oracle(data):
    read_columns(data)  # raises on a file it finds invalid
    _assert_reads_as_oracle(data)


_LAST_LINE_FAULT = make(("1", "a", "NOT", "NULL", "NULL"), ("2", "b", "OFF", "TIN", "IND"),
                        ("3", "c", "OFF", "TIN", "BAD"))[:-1]
# The columns are checked by kind, field counts before labels, but the
# error must name the earliest bad line.
_LABEL_ON_3_COUNT_ON_9 = make(*[(str(i), "x", "NOT", "NULL", "NULL") for i in range(1, 8)],
                              ("8", "x", "NOT", "NULL")).replace(b"2\tx\tNOT", b"2\tx\tMAYBE")
_DUPLICATE_AND_HIERARCHY = make(("1", "a", "NOT", "TIN", "NULL"), ("1", "b", "NOT", "NULL", "NULL"))


@settings(max_examples=500)
@given(_corpus_files(max_faults=3))
@example(_LAST_LINE_FAULT).via("a fault on the last line")
@example(_LABEL_ON_3_COUNT_ON_9).via("a bad label on line 3, a wrong field count on line 9")
@example(b"id\ttweet\tsubtask_a\tsubtask_b\tsubtask_c\r\n1\ta\rb\tNOT\tNULL\tNULL\r\n"
         b"2\tends in CR\r\r\n").via("a carriage return inside a text, then a short row")
@example(b"id\ttweet\n1\ta\rb\r\n2\tends in CR\r\r\n").via("carriage returns in texts")
@example(HEADER.encode()).via("a header-only file")
@example(b"").via("an empty file")
@example(b"id\ttweet\n").via("a header-only text-only file")
@example(_DUPLICATE_AND_HIERARCHY).via("a duplicate id and a hierarchy violation")
def test_faulty_corpus_fails_as_oracle(data):
    _assert_reads_as_oracle(data)

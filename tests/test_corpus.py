"""Corpus parsing, validation, serialization and weak-label loading."""

import io

import pytest
from hypothesis import given, strategies as st

from offlang.corpus import (classes_for, class_distribution, Corpus,
                            level_of_label, load_corpus, load_weak_labels,
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

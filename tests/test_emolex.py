"""Emotion lexicon loading and per-class emotion profiling."""

import io

import pytest

from offlang.corpus import Corpus, Tweet
from offlang.emolex import (BASES, CATEGORIES, emotion_counts, emotion_report,
                            load_emotion_lexicon)
from offlang.errors import ParseError, ValidationError


def lex(text):
    return load_emotion_lexicon(io.BytesIO(text.encode("utf-8")))


def post(tid, text, label_a):
    return Tweet(id=tid, text=text, label_a=label_a, label_b=None, label_c=None)


# ---------------------------------------------------------------------------
# Loader


def test_load_basic_mapping():
    mapping = lex("abuse\tanger\t1\nabuse\tnegative\t1\nabuse\tjoy\t0\n"
                  "happy\tjoy\t1\n")
    assert mapping == {"abuse": frozenset({"anger", "negative"}),
                       "happy": frozenset({"joy"})}


def test_load_all_zero_word_is_absent():
    mapping = lex("calm\tanger\t0\ncalm\tfear\t0\n")
    assert "calm" not in mapping


def test_load_skips_multiword_entries(caplog):
    with caplog.at_level("INFO", logger="offlang.emolex"):
        mapping = lex("a b\tanger\t1\nsolo\tanger\t1\n")
    assert mapping == {"solo": frozenset({"anger"})}
    assert any("multi-word" in r.message for r in caplog.records)


def test_load_duplicate_entries():
    # Identical duplicates are fine; conflicting flags are not.
    assert lex("x\tanger\t1\nx\tanger\t1\n") == {"x": frozenset({"anger"})}
    with pytest.raises(ParseError) as exc:
        lex("x\tanger\t1\nx\tanger\t0\n")
    assert exc.value.line == 2


@pytest.mark.parametrize("line,fragment", [
    ("word\tanger", "3 tab-separated"),
    ("word\tanger\t1\textra", "3 tab-separated"),
    ("\tanger\t1", "empty word"),
    ("word\tboredom\t1", "unknown emotion category"),
    ("word\tanger\t2", "flag must be 0 or 1"),
    ("word\tanger\tyes", "flag must be 0 or 1"),
])
def test_load_rejects_malformed_lines(line, fragment):
    with pytest.raises(ParseError, match=fragment):
        lex(line + "\n")
    # Line numbers point at the offender.
    with pytest.raises(ParseError) as exc:
        lex("ok\tanger\t1\n" + line + "\n")
    assert exc.value.line == 2


def test_load_accepts_crlf_and_missing_final_newline():
    assert lex("x\tanger\t1\r\ny\tjoy\t1") == {
        "x": frozenset({"anger"}), "y": frozenset({"joy"})}


def test_load_from_path(tmp_path):
    p = tmp_path / "lex.tsv"
    p.write_text("x\tanger\t1\n", encoding="utf-8")
    assert load_emotion_lexicon(p) == {"x": frozenset({"anger"})}


# ---------------------------------------------------------------------------
# Counting


HATE_LEX = {"hate": frozenset({"anger", "negative"}),
            "love": frozenset({"joy"})}


def test_emotion_counts_occurrences_not_types():
    corpus = Corpus(tweets=(post("1", "hate hate love", "OFF"),
                            post("2", "calm words", "NOT")))
    profiles = emotion_counts(corpus, HATE_LEX, basis="per_post")
    by_label = {p.label: p for p in profiles}
    assert [p.label for p in profiles] == ["NOT", "OFF"]
    off = by_label["OFF"]
    assert off.raw["anger"] == 2
    assert off.raw["negative"] == 2
    assert off.raw["joy"] == 1
    assert off.n_posts == 1
    assert by_label["NOT"].raw["anger"] == 0


def test_emotion_counts_skips_unlabeled_posts():
    corpus = Corpus(tweets=(post("1", "hate", "OFF"),
                            Tweet(id="2", text="hate", label_a=None,
                                  label_b=None, label_c=None)))
    profiles = emotion_counts(corpus, HATE_LEX, basis="per_post")
    assert {p.label: p.n_posts for p in profiles} == {"NOT": 0, "OFF": 1}


def test_emotion_counts_bases():
    corpus = Corpus(tweets=(post("1", "hate one two three", "OFF"),
                            post("2", "hate hate", "OFF")))
    per_post = {p.label: p for p in emotion_counts(corpus, HATE_LEX, basis="per_post")}
    per_kposts = {p.label: p for p in
                  emotion_counts(corpus, HATE_LEX, basis="per_1000_posts")}
    per_ktokens = {p.label: p for p in
                   emotion_counts(corpus, HATE_LEX, basis="per_1000_tokens")}
    assert per_post["OFF"].raw["anger"] == 3
    assert per_post["OFF"].normalized["anger"] == pytest.approx(1.5)
    assert per_kposts["OFF"].normalized["anger"] == pytest.approx(1500.0)
    assert per_ktokens["OFF"].n_tokens == 6
    assert per_ktokens["OFF"].normalized["anger"] == pytest.approx(500.0)
    # Empty class normalizes to 0 under every basis.
    for profs in (per_post, per_kposts, per_ktokens):
        assert all(v == 0.0 for v in profs["NOT"].normalized.values())


def test_emotion_counts_duplication_invariance_is_exact():
    base = (post("1", "hate one two", "OFF"), post("2", "love", "OFF"),
            post("3", "nothing here", "NOT"))
    doubled = base + tuple(
        Tweet(id=t.id + "b", text=t.text, label_a=t.label_a,
              label_b=t.label_b, label_c=t.label_c) for t in base)
    for basis in BASES:
        one = emotion_counts(Corpus(tweets=base), HATE_LEX, basis=basis)
        two = emotion_counts(Corpus(tweets=doubled), HATE_LEX, basis=basis)
        for p1, p2 in zip(one, two):
            assert p2.n_posts == 2 * p1.n_posts
            assert p1.normalized == p2.normalized  # bit-identical, no tolerance


def test_emotion_counts_uses_unstemmed_tokens():
    # "hating" must not match "hate"; the default profile prep does not stem.
    corpus = Corpus(tweets=(post("1", "hating", "OFF"),))
    profiles = emotion_counts(corpus, HATE_LEX, basis="per_post")
    assert all(v == 0 for p in profiles for v in p.raw.values())


def test_emotion_counts_validation():
    corpus = Corpus(tweets=(post("1", "x", "OFF"),))
    with pytest.raises(ValidationError):
        emotion_counts(corpus, HATE_LEX, basis="per_week")


# ---------------------------------------------------------------------------
# Report


def test_emotion_report_layout():
    corpus = Corpus(tweets=(post("1", "hate love", "OFF"),
                            post("2", "fine", "NOT")))
    text = emotion_report(emotion_counts(corpus, HATE_LEX, basis="per_post"))
    lines = text.splitlines()
    assert lines[0] == "basis: per_post"
    assert lines[1] == "posts: NOT=1, OFF=1"
    assert lines[2].split() == ["category", "NOT", "OFF"]
    assert len(lines) == 3 + len(CATEGORIES)
    anger = next(l for l in lines if l.startswith("anger"))
    assert anger.split() == ["anger", "0.000", "1.000"]
    assert all(l.startswith(cat) for l, cat in zip(lines[3:], CATEGORIES))


def test_emotion_report_rejects_empty():
    with pytest.raises(ValidationError):
        emotion_report([])

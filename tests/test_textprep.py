"""Preprocessing pipeline: tokenization, hashtags, elongation, emoji,
stopwords and the fixed step order inside preprocess()."""

import itertools
import unicodedata
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from offlang import stemming
from offlang.cli import Pipeline
from offlang.errors import ValidationError
from offlang.features import expand_ngrams, feature_matrix, featurize, fit_vocabulary
from offlang.textprep import (_EMOJI_CHAR, PrepConfig, TokenizedTweet, _is_punct,
                              emoji_spans, extract_emoji_sentiment,
                              is_placeholder, preprocess, reduce_elongation,
                              split_hashtag, tokenize)

from conftest import SPLIT_WHITESPACE
from emoji_oracle import _is_emoji_char, oracle_emoji_spans
from prep_oracle import oracle_preprocess


# ---------------------------------------------------------------------------
# Elongation


def test_reduce_elongation_caps_runs_at_two():
    assert reduce_elongation("cooool") == "cool"
    assert reduce_elongation("sooo happy!!!") == "soo happy!!"
    assert reduce_elongation("aaaaaaa") == "aa"
    assert reduce_elongation("normal") == "normal"


def test_reduce_elongation_idempotent():
    once = reduce_elongation("loooool!!!!")
    assert reduce_elongation(once) == once


@given(st.text(max_size=60))
def test_reduce_elongation_never_leaves_triples(text):
    out = reduce_elongation(text)
    assert not any(out[i] == out[i + 1] == out[i + 2]
                   for i in range(len(out) - 2))
    assert reduce_elongation(out) == out


# ---------------------------------------------------------------------------
# Hashtags


def test_split_hashtag_camel_case():
    assert split_hashtag("#GoHome") == ["Go", "Home"]
    assert split_hashtag("#GoHomeYankees") == ["Go", "Home", "Yankees"]
    assert split_hashtag("NoHashMark") == ["No", "Hash", "Mark"]


def test_split_hashtag_keeps_caps_runs_and_digits():
    assert split_hashtag("#MAGA") == ["MAGA"]
    assert split_hashtag("#USAToday") == ["USA", "Today"]
    assert split_hashtag("#Top10Hits") == ["Top10", "Hits"]
    assert split_hashtag("#lowercase") == ["lowercase"]
    assert split_hashtag("#") == []


# ---------------------------------------------------------------------------
# Tokenization


def test_tokenize_detaches_edge_punctuation():
    assert tokenize("Wait... what?!") == ["Wait", "...", "what", "?!"]
    assert tokenize("'quoted'") == ["'", "quoted", "'"]


def test_tokenize_keeps_internal_punctuation():
    assert tokenize("don't stop") == ["don't", "stop"]
    assert tokenize("state-of-the-art") == ["state-of-the-art"]


def test_tokenize_keeps_sigils_attached():
    assert tokenize("@USER said #winning!") == ["@USER", "said", "#winning", "!"]
    # A sigil followed by punctuation is an ordinary punctuation run.
    assert tokenize("what ?! #?") == ["what", "?!", "#?"]


def test_tokenize_pure_punctuation_chunk():
    assert tokenize("!!! ???") == ["!!!", "???"]


def test_tokenize_emoji_are_single_tokens():
    assert tokenize("good😂job") == ["good", "😂", "job"]
    assert tokenize("win 🇩🇰 today") == ["win", "🇩🇰", "today"]
    # Skin-tone modifier stays inside its unit.
    assert tokenize("hi 👍🏽 there") == ["hi", "👍🏽", "there"]


def test_tokenize_drops_stray_emoji_modifiers():
    # A variation selector with no base character never becomes a token.
    assert tokenize("odd ️ end") == ["odd", "end"]


# ---------------------------------------------------------------------------
# Emoji spans and sentiment


def test_emoji_spans_flag_pairs_and_zwj():
    spans = emoji_spans("ab 🇩🇰 cd 👩‍💻")
    units = [u for _, _, u, has_base in spans if has_base]
    assert units == ["🇩🇰", "👩‍💻"]


def test_extract_emoji_sentiment_single_known_emoji():
    cleaned, score = extract_emoji_sentiment("so funny 😂", {"😂": 0.221})
    assert cleaned == "so funny "
    assert score == pytest.approx(0.221)


def test_extract_emoji_sentiment_mean_counts_unknown_units():
    lex = {"😂": 0.4}
    # Unknown emoji contributes 0 to the sum but 1 to the denominator.
    _, score = extract_emoji_sentiment("😂 🤖", lex)
    assert score == pytest.approx(0.2)


def test_extract_emoji_sentiment_no_emoji_scores_zero():
    cleaned, score = extract_emoji_sentiment("plain words", {"😂": 0.9})
    assert cleaned == "plain words"
    assert score == 0.0


def test_extract_emoji_sentiment_empty_lexicon():
    cleaned, score = extract_emoji_sentiment("hello 😂", None)
    assert cleaned == "hello "
    assert score == 0.0


def test_extract_emoji_sentiment_variation_selector_fallback():
    # Lexicon keyed without the variation selector still matches.
    _, score = extract_emoji_sentiment("love ❤️", {"❤": 0.7})
    assert score == pytest.approx(0.7)


def test_extract_emoji_sentiment_skin_tone_falls_back_to_base():
    # The tone modifier belongs to its base's display unit: one emoji, not two.
    assert extract_emoji_sentiment("a 👍🏽 b", {"👍": 0.5}) == ("a  b", 0.5)
    # A toned entry in the lexicon wins over its base.
    _, score = extract_emoji_sentiment("a 👍🏽 b", {"👍": 0.5, "👍🏽": 0.9})
    assert score == pytest.approx(0.9)


# ---------------------------------------------------------------------------
# Stopwords


def test_remove_stopwords_case_insensitive():
    cfg = PrepConfig(lowercase=False, stem=False)
    assert preprocess("The dog IS here", cfg, {"the", "is"}).tokens == ("dog", "here")


def test_remove_stopwords_spares_placeholders():
    cfg = PrepConfig(stem=False)
    assert preprocess("url @user thing", cfg, {"url", "thing"}).tokens == ("url", "@user")
    # Placeholders are recognised after lowercasing and again after stripping.
    assert preprocess("@User", cfg).tokens == ("@user",)
    assert preprocess("U.R.L", PrepConfig(lowercase=False), {"url"}).tokens == ("URL",)


def test_is_placeholder():
    assert is_placeholder("@USER") and is_placeholder("url")
    assert not is_placeholder("user")


# ---------------------------------------------------------------------------
# PrepConfig and the pipeline


def test_prep_config_rejects_bad_emoji_mode():
    with pytest.raises(ValidationError):
        PrepConfig(emoji_mode="ignore")


def test_prep_config_rejects_unknown_stem_language():
    # Checked even with stemming off, since the name reaches the sidecar.
    with pytest.raises(ValidationError, match="stem_language must be one of"):
        PrepConfig(stem=False, stem_language="klingon")


def test_preprocess_default_pipeline_end_to_end():
    tt = preprocess(
        "@USER you are sooo STUPID!!! #GoHome 😂 URL",
        stoplist={"you", "are"},
        emoji_lexicon={"😂": 0.221})
    assert tt.tokens == ("@user", "soo", "stupid", "go", "home", "url")
    assert tt.emoji_score == pytest.approx(0.221)
    assert tt.raw_text == "@USER you are sooo STUPID!!! #GoHome 😂 URL"


def test_preprocess_base_tokens_keep_prefilter_view():
    tt = preprocess("The DOG barked!!", stoplist={"the"})
    # Final tokens: stopword and punctuation gone, stemmed.
    assert tt.tokens == ("dog", "bark")
    # base_tokens: lowercased tokenizer output before any filtering.
    assert tt.base_tokens == ("the", "dog", "barked", "!!")


def test_preprocess_all_flags_off_is_whitespace_identity():
    cfg = PrepConfig(lowercase=False, strip_punct=False, remove_stopwords=False,
                     stem=False, split_hashtags=False, reduce_elongation=False,
                     emoji_mode="keep")
    tt = preprocess("Keep EVERYTHING!! as-is 😂", cfg)
    assert tt.tokens == ("Keep", "EVERYTHING!!", "as-is", "😂")
    assert tt.emoji_score == 0.0


def test_preprocess_emoji_keep_mode_keeps_tokens():
    cfg = PrepConfig(emoji_mode="keep")
    tt = preprocess("nice 😂 work", cfg, emoji_lexicon={"😂": 0.9})
    assert "😂" in tt.tokens
    assert tt.emoji_score == 0.0


def test_preprocess_stems_only_alphabetic_tokens():
    tt = preprocess("winning 123abc running", PrepConfig(remove_stopwords=False))
    assert tt.tokens == ("win", "123abc", "run")


def test_preprocess_danish_stemming():
    cfg = PrepConfig(stem_language="danish")
    tt = preprocess("hundene venligst", cfg)
    assert tt.tokens == ("hund", "ven")


def test_preprocess_hashtag_split_feeds_downstream_steps():
    tt = preprocess("#SooopidIdiots", PrepConfig(remove_stopwords=False))
    # Split first (Sooopid / Idiots), then elongation (Soopid), then stem.
    assert tt.tokens == ("soopid", "idiot")


def test_preprocess_hashtags_kept_when_split_disabled():
    # The tag survives as one token; punctuation stripping still removes the
    # sigil itself (only @USER/URL placeholders are exempt from that step).
    cfg = PrepConfig(split_hashtags=False, remove_stopwords=False, stem=False)
    tt = preprocess("#GoHome now", cfg)
    assert tt.tokens == ("gohome", "now")
    keep_punct = PrepConfig(split_hashtags=False, remove_stopwords=False,
                            stem=False, strip_punct=False)
    assert preprocess("#GoHome now", keep_punct).tokens == ("#gohome", "now")


def test_tokenized_tweet_is_frozen():
    tt = TokenizedTweet(tokens=("a",), emoji_score=0.0, raw_text="a")
    with pytest.raises(AttributeError):
        tt.tokens = ("b",)


_PLAIN = st.text(
    alphabet=st.characters(codec="ascii",
                           exclude_characters="".join(chr(c) for c in range(33))),
    max_size=40)


@given(st.lists(_PLAIN.filter(lambda s: s), max_size=8))
def test_tokenize_preserves_non_space_characters(chunks):
    text = " ".join(chunks)
    tokens = tokenize(text)
    assert "".join(tokens) == "".join(text.split())


# ---------------------------------------------------------------------------
# Emoji display units against the per-character scanner in emoji_oracle.py


def test_tokenize_splits_punctuation_emoji_as_emoji():
    # U+2768-2775 are punctuation and emoji bases at once: they are not
    # stripped as an edge punctuation run but split off as emoji units.
    assert tokenize("❨hi❩ wow!!") == ["❨", "hi", "❩", "wow", "!!"]


def test_emoji_char_class_matches_oracle_on_every_code_point():
    disagree = [cp for cp in range(0x110000)
                if bool(_EMOJI_CHAR.match(chr(cp))) != _is_emoji_char(chr(cp))]
    assert disagree == []


def test_fast_path_facts_hold_on_every_code_point():
    # An isalnum() token skips the punctuation strip and count, and an
    # isascii() text skips the emoji scan; both rest on these facts of the
    # Unicode database.
    punct = [chr(cp) for cp in range(0x110000) if unicodedata.category(chr(cp)).startswith("P")]
    assert [ch for ch in punct if ch.isalnum()] == []
    assert all(_is_punct(ch) for ch in punct)
    ascii_text = "".join(map(chr, range(128)))
    assert [ch for ch in ascii_text if _EMOJI_CHAR.match(ch) or _is_emoji_char(ch)] == []
    assert emoji_spans(ascii_text) == oracle_emoji_spans(ascii_text) == []
    assert extract_emoji_sentiment(ascii_text, {"a": 1.0}) == (ascii_text, 0.0)


@given(st.text())
def test_emoji_spans_match_oracle(text):
    assert emoji_spans(text) == oracle_emoji_spans(text)


# Flags, ZWJ, selectors, the keycap, the skin tones and their neighbour,
# each range end with its outside neighbour, a punctuation base, a keycap
# sigil, letters and a space.
_EMOJI_BOUNDARY = [
    "\U0001F1E5", "\U0001F1E6", "\U0001F1E9", "\U0001F1F0", "\U0001F1FF",
    "\u200D", "\uFE0E", "\uFE0F", "\u20E3",
    *map(chr, range(0x1F3FA, 0x1F400)),
    "\U0001EFFF", "\U0001F000", "\U0001FAFF", "\U0001FB00",
    "\u25FF", "\u2600", "\u27BF", "\u27C0",
    "\u2AFF", "\u2B00", "\u2BFF", "\u2C00",
    "\u2768", "#", "a", "Z", " ",
]


@settings(max_examples=1000)
@given(st.text(alphabet=st.sampled_from(_EMOJI_BOUNDARY), max_size=30))
@example("\U0001F468\u200D\U0001F469\u200D\U0001F467\u200D\U0001F466!")
@example("\U0001F3F3\uFE0F\u200D\U0001F308\U0001F1E9\U0001F1F0\U0001F1EA")
def test_emoji_spans_match_oracle_on_boundary_text(text):
    assert emoji_spans(text) == oracle_emoji_spans(text)


_SCORED = {"\U0001F1E6\U0001F1E9": 1.0, "\u2600": -0.5, "\U0001F3FA": 0.25}
_DROPPED = "\uFE0E\uFE0F" + "".join(map(chr, range(0x1F3FB, 0x1F400)))


@settings(max_examples=500)
@given(st.text(alphabet=st.sampled_from(_EMOJI_BOUNDARY), max_size=30) | st.text())
def test_extract_emoji_sentiment_matches_oracle_spans(text):
    # ASCII text takes the early return; every other text is scored from
    # the oracle's units.
    kept, scores = text, []
    for start, end, unit, has_base in reversed(oracle_emoji_spans(text)):
        kept = kept[:start] + kept[end:]
        if has_base:
            bare = "".join(ch for ch in unit if ch not in _DROPPED)
            scores.append(_SCORED.get(unit, _SCORED.get(bare, 0.0)))
    scores.reverse()
    assert extract_emoji_sentiment(text, _SCORED) == \
        (kept, sum(scores) / len(scores) if scores else 0.0)


# ---------------------------------------------------------------------------
# The per-token rule against the list-pass pipeline in prep_oracle.py


_FLAGS = ("lowercase", "strip_punct", "remove_stopwords", "stem", "split_hashtags",
          "reduce_elongation")
_CONFIGS = [
    PrepConfig(**dict(zip(_FLAGS, flags)), emoji_mode=mode, stem_language=language)
    for flags in itertools.product((False, True), repeat=len(_FLAGS))
    for mode in ("remove_and_score", "keep")
    for language in ("english", "danish", "identity")]
_STOPLIST = ["url", "ThE", "thing"]
_LEXICON = {"😂": 0.25, "👍": -0.5}

# Placeholders in every casing and with punctuation inside, bare sigils,
# punctuation, emoji (one skin-toned), y runs, stopwords in two casings,
# words the stemmers change, a space and the other whitespace str.split
# splits on.
_PREP_BOUNDARY = [
    "URL", "@USER", "url", "@user", "U.R.L", "@User", "u.r.l", "#", "@",
    "!", ".", ",", "'", "-", "😂", "👍🏽", "y", "yyy", "The", "THE", "thing",
    "Running", "hundene", "Go", "Home", "sooo", "123", " ", *SPLIT_WHITESPACE,
]
_BOUNDARY_TEXT = st.lists(st.sampled_from(_PREP_BOUNDARY), max_size=12).map("".join)
# Texts without "#", which skip hashtag splitting, and ASCII ones among
# them, which skip the emoji scan, with runs of every splitting whitespace.
_NO_HASH_TEXT = st.lists(
    st.sampled_from([p for p in _PREP_BOUNDARY if p.isascii() and "#" not in p])
    | st.text(st.sampled_from([" ", *SPLIT_WHITESPACE]), min_size=1, max_size=4),
    max_size=12).map("".join)


def _assert_matches_oracle(text, cfg):
    assert preprocess(text, cfg, _STOPLIST, _LEXICON) == \
        oracle_preprocess(text, cfg, _STOPLIST, _LEXICON)


@settings(max_examples=500)
@given(st.text(), st.sampled_from(_CONFIGS))
def test_preprocess_matches_oracle(text, cfg):
    _assert_matches_oracle(text, cfg)


@settings(max_examples=1000)
@given(_BOUNDARY_TEXT, st.sampled_from(_CONFIGS))
# Lowercasing comes before the placeholder test: @User becomes @user.
@example("@User", PrepConfig(stem=False))
# The test repeats after stripping: U.R.L becomes URL, a placeholder that is
# neither a stopword nor stemmed.
@example("U.R.L", PrepConfig(lowercase=False))
def test_preprocess_matches_oracle_on_boundary_text(text, cfg):
    _assert_matches_oracle(text, cfg)


@settings(max_examples=1000)
@given(_NO_HASH_TEXT, st.sampled_from(_CONFIGS))
@example("sooo\t\x1c Running!!\u3000\u3000URL", PrepConfig())
def test_preprocess_matches_oracle_on_text_without_hashtags(text, cfg):
    _assert_matches_oracle(text, cfg)


# ---------------------------------------------------------------------------
# The chunk memo: one dict shared by many calls with one configuration


@settings(max_examples=100, deadline=None)
@given(st.lists(_BOUNDARY_TEXT, max_size=6))
# Chunks that differ only in case have their own entries.
@example(["URL url", "The\tTHE"])
def test_preprocess_with_shared_memo_matches_oracle(texts):
    for cfg in _CONFIGS:
        memo = {}
        for text in texts:
            assert preprocess(text, cfg, _STOPLIST, _LEXICON, memo=memo) == \
                oracle_preprocess(text, cfg, _STOPLIST, _LEXICON), (text, cfg)


def _pipeline(lowercase: bool) -> Pipeline:
    return Pipeline(level="A", prep=PrepConfig(lowercase=lowercase, stem=False),
                    stopwords=_STOPLIST, abusive=["thing"], emoji=_LEXICON,
                    min_df=1, ngram_max=2)


def _oracle_matrix(pipe: Pipeline, texts):
    prepped = [oracle_preprocess(t, pipe.prep, _STOPLIST, _LEXICON) for t in texts]
    vocab = pipe.vocabulary
    if vocab is None:
        vocab = fit_vocabulary((expand_ngrams(tt.tokens, pipe.ngram_max) for tt in prepped),
                               min_df=pipe.min_df)
    return vocab, feature_matrix([featurize(tt, vocab, pipe.abusive, pipe.ngram_max)
                                  for tt in prepped], len(vocab))


@settings(max_examples=100, deadline=None)
@given(st.lists(_BOUNDARY_TEXT, min_size=1, max_size=6))
@example(["URL url", "The\tTHE"])
def test_pipelines_used_in_alternation_match_the_oracle(texts):
    # Two pipelines that differ in lowercasing, each with its own memo, fit
    # one after the other and then transform the texts in turn, one text at
    # a time; every matrix is the one memo-free code gives.
    fitted = []
    for lowercase in (False, True):
        pipe, mat = _pipeline(lowercase).fit_transform(texts)
        vocab, expected = _oracle_matrix(_pipeline(lowercase), texts)
        assert pipe.vocabulary == vocab
        assert np.array_equal(mat, expected)
        fitted.append(pipe)
    rows = [[], []]
    for text in texts:
        for pipe, out in zip(fitted, rows):
            out.append(pipe.transform([text]))
    for pipe, out in zip(fitted, rows):
        assert np.array_equal(np.vstack(out), _oracle_matrix(pipe, texts)[1])


def test_pipeline_stems_each_distinct_word_once(monkeypatch):
    # Words recur within a chunk, across chunks and across texts.  The
    # fitted Pipeline is a second one and stems them afresh: nothing is
    # cached beyond one Pipeline.
    calls = []

    def counting(word, language):
        calls.append(word)
        return stem(word, language)

    stem = stemming.stem
    monkeypatch.setattr(stemming, "stem", counting)
    texts = ["running runs, running!", "Runs #RunningFast", "running the runs"]
    once = dict.fromkeys(["running", "runs", "fast"], 1)
    pipe, _ = Pipeline(level="A", prep=PrepConfig(), stopwords=["the"], abusive=[],
                       emoji={}, min_df=1, ngram_max=1).fit_transform(texts)
    assert Counter(calls) == once
    calls.clear()
    pipe.transform(texts)
    pipe.transform(texts[::-1])
    assert Counter(calls) == once

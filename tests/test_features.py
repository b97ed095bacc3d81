"""TF-IDF vectorizer and surface statistics.

The weighting oracle here is recomputed from first principles with
collections.Counter and math.log so the implementation is checked against
independent arithmetic, not against itself.
"""

import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from offlang.errors import ValidationError
from offlang.features import (FeatureVector, N_SURFACE, SURFACE_FIELDS,
                              SurfaceFeatures, Vocabulary, _set_madvise_hugepage,
                              expand_ngrams, feature_matrix, featurize,
                              fit_vocabulary, surface, tfidf)
from offlang.textprep import PrepConfig, TokenizedTweet, preprocess, tokenize

from conftest import SPLIT_WHITESPACE
from surface_oracle import oracle_surface
from tfidf_oracle import oracle_tfidf_exact


def oracle_tfidf(doc, vocab):
    counts = Counter(t for t in doc if t in vocab.index)
    weights = {}
    for term, tf in counts.items():
        i = vocab.index[term]
        idf = math.log((1 + vocab.n_docs) / (1 + vocab.df[i])) + 1.0
        weights[i] = tf * idf
    norm = math.sqrt(sum(w * w for w in weights.values()))
    return [(i, w / norm) for i, w in sorted(weights.items())]


# ---------------------------------------------------------------------------
# Vocabulary


def test_fit_vocabulary_first_occurrence_order():
    vocab = fit_vocabulary([["b", "a"], ["a", "b", "c"], ["c", "b"]], min_df=1)
    assert vocab.terms == ("b", "a", "c")
    assert vocab.df == (3, 2, 2)
    assert vocab.n_docs == 3


def test_fit_vocabulary_min_df_cut():
    vocab = fit_vocabulary([["x", "y"], ["y", "z"]], min_df=2)
    assert vocab.terms == ("y",)


def test_fit_vocabulary_df_counts_documents_not_occurrences():
    vocab = fit_vocabulary([["a", "a", "a"], ["b"]], min_df=1)
    assert dict(zip(vocab.terms, vocab.df))["a"] == 1


def test_fit_vocabulary_rejects_bad_min_df():
    with pytest.raises(ValidationError):
        fit_vocabulary([["a"]], min_df=0)


def test_vocabulary_jsonable_round_trip():
    vocab = fit_vocabulary([["a", "b"], ["b"]], min_df=1)
    assert Vocabulary.from_jsonable(vocab.to_jsonable()) == vocab


def test_vocabulary_index_and_len():
    vocab = Vocabulary(terms=("p", "q"), df=(1, 2), n_docs=2)
    assert len(vocab) == 2
    assert vocab.index == {"p": 0, "q": 1}
    for terms, df in ((("p",), (1, 2)), (("p",), (0,)), (("p",), (3,)), ((["p"],), (1,)),
                      (("p",), (1.5,)), (("p",), (True,))):
        with pytest.raises(ValidationError):
            Vocabulary(terms=terms, df=df, n_docs=2)
    with pytest.raises(ValidationError):
        Vocabulary(terms=("p",), df=(1,), n_docs=2.0)


def test_expand_ngrams():
    assert expand_ngrams(["a", "b", "c"], 1) == ["a", "b", "c"]
    assert expand_ngrams(["a", "b", "c"], 2) == ["a", "b", "c", "a b", "b c"]
    assert expand_ngrams([], 2) == []
    # An n beyond the token count adds nothing and costs nothing.
    assert expand_ngrams(["a", "b"], 10**12) == ["a", "b", "a b"]
    with pytest.raises(ValidationError):
        expand_ngrams(["a"], 0)


# ---------------------------------------------------------------------------
# TF-IDF


def test_tfidf_two_document_fixture():
    vocab = fit_vocabulary([["good", "dog"], ["dog"]], min_df=1)
    vec = dict(tfidf(["good", "dog"], vocab))
    # Frozen values: idf(good) = ln(3/2)+1, idf(dog) = ln(3/3)+1 = 1,
    # normalized by sqrt((ln(3/2)+1)^2 + 1).
    assert vec[0] == pytest.approx(0.8148, abs=1e-4)
    assert vec[1] == pytest.approx(0.5797, abs=1e-4)
    w_good = math.log(3 / 2) + 1.0
    norm = math.sqrt(w_good * w_good + 1.0)
    assert vec[0] == pytest.approx(w_good / norm, abs=1e-9)
    assert vec[1] == pytest.approx(1.0 / norm, abs=1e-9)


def test_tfidf_ignores_out_of_vocabulary_terms():
    vocab = fit_vocabulary([["a"], ["a"]], min_df=2)
    assert tfidf(["a", "zzz"], vocab) == [(0, 1.0)]
    assert tfidf(["zzz"], vocab) == []


def test_tfidf_term_frequency_scales_before_normalization():
    vocab = fit_vocabulary([["a", "b"], ["a", "b"]], min_df=1)
    vec = dict(tfidf(["a", "a", "b"], vocab))
    # Same idf for both terms, so the ratio of weights is the tf ratio.
    assert vec[0] / vec[1] == pytest.approx(2.0, abs=1e-12)


_DOCS = st.lists(
    st.lists(st.sampled_from("abcdefgh"), min_size=1, max_size=10),
    min_size=1, max_size=12)


@given(_DOCS, st.lists(st.sampled_from("abcdefghij"), min_size=1, max_size=10))
def test_tfidf_matches_independent_arithmetic(docs, query):
    vocab = fit_vocabulary(docs, min_df=1)
    got = tfidf(query, vocab)
    expected = oracle_tfidf(query, vocab)
    assert [i for i, _ in got] == [i for i, _ in expected]
    for (_, w), (_, e) in zip(got, expected):
        assert w == pytest.approx(e, abs=1e-12)
    if got:
        norm = math.sqrt(sum(w * w for _, w in got))
        assert norm == pytest.approx(1.0, abs=1e-9)


# Document frequencies from 1 to n_docs, repeated terms and n-grams.
_WEIGHTED_DOCS = st.lists(
    st.lists(st.sampled_from(["a", "b", "c", "d", "a b", "b c", "zz"]), max_size=30),
    min_size=1, max_size=40)


@settings(max_examples=300)
@given(_WEIGHTED_DOCS, st.lists(st.sampled_from(["a", "b", "c", "d", "a b", "zz", "q"]),
                                max_size=40))
def test_tfidf_equals_per_pair_idf_exactly(docs, query):
    vocab = fit_vocabulary(docs, min_df=1)
    assert tfidf(query, vocab) == oracle_tfidf_exact(query, vocab)
    for doc in docs:
        assert tfidf(doc, vocab) == oracle_tfidf_exact(doc, vocab)


# ---------------------------------------------------------------------------
# Surface features


def test_surface_hand_fixture():
    sf = surface("GO Home!", ["go", "home"], {"home"}, 0.0)
    assert sf.capital_pct == pytest.approx(0.5)   # G, O, H upper of 6 letters
    assert sf.punct_count == 1.0
    assert sf.abusive_count == 1.0
    assert sf.word_count == 2.0
    assert sf.avg_word_len == pytest.approx(3.0)
    assert sf.char_count == 8.0


def test_surface_placeholder_counts_respect_word_boundaries():
    sf = surface("@USER sent URL to @USERS via CURL URL", [], set(), 0.0)
    assert sf.mention_count == 1.0
    assert sf.url_count == 2.0


def test_surface_word_stats_skip_placeholders_and_non_alpha():
    sf = surface("x", ["@user", "url", "abc12", "real", "words"], set(), 0.0)
    assert sf.word_count == 2.0
    assert sf.avg_word_len == pytest.approx(4.5)


def test_surface_degenerate_text():
    sf = surface("123 !!", [], set(), 0.25)
    assert sf.capital_pct == 0.0
    assert sf.word_count == 0.0
    assert sf.avg_word_len == 0.0
    assert sf.emoji_score == 0.25


def test_surface_abusive_match_is_case_insensitive():
    sf = surface("x", ["IDIOT", "fine"], {"idiot"}, 0.0)
    assert sf.abusive_count == 1.0
    sf = surface("x", ["idiot"], {"IDIOT"}, 0.0)
    assert sf.abusive_count == 1.0


def test_surface_field_order_matches_declared_tuple():
    sf = surface("Hi!", ["hi"], set(), 0.5)
    assert SURFACE_FIELDS == SurfaceFeatures._fields
    assert len(sf) == N_SURFACE == 9
    assert sf[SURFACE_FIELDS.index("emoji_score")] == 0.5
    assert sf[SURFACE_FIELDS.index("char_count")] == 3.0
    assert all(type(x) is float for x in sf)


# Placeholders with and without letters beside them, punctuation, capitals,
# emoji and every kind of whitespace str.split splits on.
_SURFACE_BOUNDARY = ["URL", "xURL", "URLx", "url", "@USER", "@USERx", "@user", "@", "!",
                     "'", "#", "A", "a", "b", "É", "ß", "😂", "👍🏽", "idiot", " ",
                     *SPLIT_WHITESPACE]


def _assert_surface_matches_oracle(texts):
    memo = {}
    for text in texts:
        tokens = [t.lower() for t in tokenize(text)]
        assert surface(text, tokens, {"idiot", "url"}, 0.5, memo) == \
            oracle_surface(text, tokens, {"idiot", "url"}, 0.5)


@settings(max_examples=300)
@given(st.lists(st.lists(st.sampled_from(_SURFACE_BOUNDARY), max_size=12).map("".join),
                max_size=8))
# Chunks that differ only in case have their own entries.
@example(["URL url", "Aa\taA"])
def test_surface_with_shared_memo_matches_oracle(texts):
    _assert_surface_matches_oracle(texts)


@given(st.lists(st.text(), max_size=8))
def test_surface_with_shared_memo_matches_oracle_on_any_text(texts):
    _assert_surface_matches_oracle(texts)


def test_to_dense_and_feature_matrix():
    fv = FeatureVector(sparse=((1, 0.5),), dense=tuple(float(i) for i in range(9)))
    mat = feature_matrix([fv, fv], 3)
    # The sparse weight at its column, zeros at the other vocabulary columns,
    # the surface block in the last nine.
    row = np.array([0.0, 0.5, 0.0] + [float(i) for i in range(9)])
    assert np.array_equal(mat, np.vstack([row, row]))


@pytest.mark.parametrize("advise", [True, False])
def test_feature_matrix_restores_hugepage_advice(advise):
    fv = FeatureVector(sparse=((1, 0.5),), dense=(0.0,) * 9)
    original = _set_madvise_hugepage(advise)
    try:
        feature_matrix([fv], 3)
        assert _set_madvise_hugepage(advise) is advise
    finally:
        _set_madvise_hugepage(original)


def test_featurize_surface_block_uses_prefilter_tokens():
    vocab = fit_vocabulary([["insult"], ["insult"]], min_df=1)
    tweet = TokenizedTweet(tokens=("insult",), emoji_score=0.0,
                           raw_text="The insult!",
                           base_tokens=("the", "insult", "!"))
    fv = featurize(tweet, vocab, {"insult"})
    dense = dict(zip(SURFACE_FIELDS, fv.dense))
    assert dense["word_count"] == 2.0          # the, insult
    assert dense["abusive_count"] == 1.0
    assert fv.sparse == ((0, 1.0),)


def test_featurize_is_insensitive_to_stopword_and_stem_config():
    text = "The idiots are winning badly!"
    strict = preprocess(text, PrepConfig(), stoplist={"the", "are"})
    loose = preprocess(text, PrepConfig(remove_stopwords=False, stem=False))
    vocab = fit_vocabulary([["idiot"], ["idiot"]], min_df=1)
    sf_strict = featurize(strict, vocab, {"idiots"}).dense
    sf_loose = featurize(loose, vocab, {"idiots"}).dense
    assert sf_strict == sf_loose


def test_featurize_ngram_terms_hit_vocabulary():
    vocab = fit_vocabulary([["not", "good", "not good"]], min_df=1)
    tweet = TokenizedTweet(tokens=("not", "good"), emoji_score=0.0,
                           raw_text="not good", base_tokens=("not", "good"))
    fv = featurize(tweet, vocab, set(), ngram_max=2)
    assert [i for i, _ in fv.sparse] == [0, 1, 2]

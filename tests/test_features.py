"""TF-IDF vectorizer and surface statistics.

The weighting oracle here is recomputed from first principles with
collections.Counter and math.log so the implementation is checked against
independent arithmetic, not against itself.
"""

import math
import time
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from offlang.errors import ValidationError
from offlang.features import (N_SURFACE, SURFACE_FIELDS, SurfaceFeatures, Vocabulary,
                              expand_ngrams, feature_matrix, featurize, fit_vocabulary,
                              tfidf)
from offlang.textprep import PrepConfig, TextMemo, preprocess, tokenize

from conftest import SPLIT_WHITESPACE
from surface_oracle import oracle_surface
from tfidf_oracle import oracle_tfidf_exact
from vocab_oracle import oracle_fit_vocabulary


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


@given(st.lists(st.lists(st.sampled_from("abcdef"), max_size=8), max_size=10),
       st.integers(1, 3))
@example([["b", "a", "b"], [], ["c", "a"], ["a", "c", "c"]], 2)
def test_fit_vocabulary_equals_the_two_pass_oracle(docs, min_df):
    # Repeated terms, empty documents and terms below min_df; the documents
    # are read once, from a generator.
    vocab = fit_vocabulary((doc for doc in docs), min_df=min_df)
    want = oracle_fit_vocabulary(docs, min_df=min_df)
    assert (vocab.terms, vocab.df, vocab.n_docs) == (want.terms, want.df, want.n_docs)


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
                      (("p",), (1.5,)), (("p",), (True,)), (("p", "p"), (1, 2))):
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


# All flags off: preprocessing is the identity on whitespace tokens, and a
# tweet's base tokens are its lowercased tokenize pieces.
_IDENTITY = PrepConfig(lowercase=False, strip_punct=False, remove_stopwords=False,
                       stem=False, split_hashtags=False, reduce_elongation=False,
                       emoji_mode="keep")
_EMPTY = Vocabulary(terms=(), df=(), n_docs=1)


def _surface_block(fv) -> SurfaceFeatures:
    """The surface block of fv's row: the last nine cells of its one-row
    feature matrix."""
    return SurfaceFeatures(*feature_matrix([fv], fv.vocab)[0, -N_SURFACE:].tolist())


def surface(text: str, abusive_lexicon=(), emoji_lexicon=None) -> SurfaceFeatures:
    """The surface block of text preprocessed with every flag off, but
    for emoji scoring when an emoji lexicon is given."""
    cfg = _IDENTITY if emoji_lexicon is None else replace(_IDENTITY, emoji_mode="remove_and_score")
    return _surface_block(featurize(preprocess(text, cfg, emoji_lexicon=emoji_lexicon), _EMPTY,
                                    abusive_lexicon))


def test_surface_hand_fixture():
    sf = surface("GO Home!", {"home"})
    assert sf.capital_pct == pytest.approx(0.5)   # G, O, H upper of 6 letters
    assert sf.punct_count == 1.0
    assert sf.abusive_count == 1.0
    assert sf.word_count == 2.0
    assert sf.avg_word_len == pytest.approx(3.0)
    assert sf.char_count == 8.0


def test_surface_placeholder_counts_respect_word_boundaries():
    sf = surface("@USER sent URL to @USERS via CURL URL")
    assert sf.mention_count == 1.0
    assert sf.url_count == 2.0


def test_surface_word_stats_skip_placeholders_and_non_alpha():
    sf = surface("@user url abc12 real words")
    assert sf.word_count == 2.0
    assert sf.avg_word_len == pytest.approx(4.5)


def test_surface_degenerate_text():
    sf = surface("123 !! 😀", emoji_lexicon={"😀": 0.25})
    assert sf.capital_pct == 0.0
    assert sf.word_count == 0.0
    assert sf.avg_word_len == 0.0
    assert sf.emoji_score == 0.25


def test_surface_abusive_match_is_case_insensitive():
    sf = surface("IDIOT fine", {"idiot"})
    assert sf.abusive_count == 1.0
    sf = surface("idiot", {"IDIOT"})
    assert sf.abusive_count == 1.0


def test_surface_field_order_matches_declared_tuple():
    sf = surface("Hi!😀", emoji_lexicon={"😀": 0.5})
    assert SURFACE_FIELDS == SurfaceFeatures._fields
    assert len(sf) == N_SURFACE == 9
    assert sf[SURFACE_FIELDS.index("emoji_score")] == 0.5
    assert sf[SURFACE_FIELDS.index("char_count")] == 4.0
    assert all(type(x) is float for x in sf)


# Placeholders with and without letters beside them, punctuation, capitals,
# emoji and every kind of whitespace str.split splits on.
_SURFACE_BOUNDARY = ["URL", "xURL", "URLx", "url", "@USER", "@USERx", "@user", "@", "!",
                     "'", "#", "A", "a", "b", "É", "ß", "😂", "👍🏽", "idiot", " ",
                     *SPLIT_WHITESPACE]


# With these settings a tweet's base tokens are its lowercased tokenize
# pieces, and its emoji score is 0.
_TOKENIZE_ONLY = PrepConfig(split_hashtags=False, reduce_elongation=False, emoji_mode="keep")


def _assert_surface_matches_oracle(texts):
    # Each tweet alone, and all of them in one block, as the oracle gives.
    abusive = {"idiot", "url"}
    memo = TextMemo(_TOKENIZE_ONLY)
    vectors, expected = [], []
    for text in texts:
        tokens = [t.lower() for t in tokenize(text)]
        tt = preprocess(text, _TOKENIZE_ONLY, memo=memo)
        assert tt.base_tokens == tuple(tokens)
        vectors.append(featurize(tt, _EMPTY, abusive))
        expected.append(oracle_surface(text, tokens, abusive, 0.0))
        assert _surface_block(vectors[-1]) == expected[-1]
    assert np.array_equal(feature_matrix(vectors, _EMPTY).reshape(-1, N_SURFACE),
                          np.array(expected).reshape(-1, N_SURFACE))


def test_feature_matrix_rejects_a_block_of_two_abusive_lexicons():
    tweet = preprocess("idiot", _IDENTITY)
    same = [featurize(tweet, _EMPTY, ["IDIOT"]), featurize(tweet, _EMPTY, {"idiot"})]
    assert feature_matrix(same, _EMPTY)[:, SURFACE_FIELDS.index("abusive_count")].tolist() == \
        [1.0, 1.0]
    with pytest.raises(ValidationError, match="one abusive lexicon"):
        feature_matrix([featurize(tweet, _EMPTY, {"idiot"}), featurize(tweet, _EMPTY, set())],
                       _EMPTY)


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


_ABC = fit_vocabulary([["a", "b", "c"]], min_df=1)


def test_to_dense_and_feature_matrix():
    fv = featurize(preprocess("b zzz", _IDENTITY), _ABC, {"zzz"})
    assert fv.sparse == ((1, 1.0),)
    mat = feature_matrix([fv, fv], _ABC)
    # The sparse weight at its column, zeros at the other vocabulary columns,
    # the surface block in the last nine: 5 characters, 2 words of 2
    # letters on average and 1 abusive token.
    row = np.array([0.0, 1.0, 0.0] + [0.0, 0.0, 5.0, 0.0, 2.0, 2.0, 0.0, 1.0, 0.0])
    assert np.array_equal(mat, np.vstack([row, row]))
    assert _surface_block(fv) == tuple(row[3:])


def _assert_vocabulary_columns_match_oracle(mat, docs, vocab):
    """Row by row, the vocabulary columns hold oracle_tfidf_exact's
    weights bit for bit and zeros elsewhere."""
    assert mat.shape == (len(docs), len(vocab) + N_SURFACE)
    for row, doc in zip(mat, docs):
        expected = np.zeros(len(vocab))
        for i, w in oracle_tfidf_exact(doc, vocab):
            expected[i] = w
        assert np.array_equal(row[:len(vocab)].view(np.int64), expected.view(np.int64))


# Few distinct tokens, so rows repeat terms and share n-grams; "q" is never
# in a fitting document, so a row of q's has only out-of-vocabulary terms.
_TOKENS = st.lists(st.sampled_from(["a", "b", "c", "d", "e"]), max_size=12)


@settings(max_examples=300, deadline=None)
@given(fit_docs=st.lists(_TOKENS, max_size=8),
       block=st.lists(_TOKENS | st.lists(st.just("q"), max_size=3), max_size=12),
       ngram_max=st.integers(1, 3), min_df=st.integers(1, 3))
@example(fit_docs=[], block=[], ngram_max=1, min_df=1)
@example(fit_docs=[], block=[["a"]], ngram_max=2, min_df=1)
@example(fit_docs=[["a", "b"]], block=[[]], ngram_max=3, min_df=1)
@example(fit_docs=[["a", "a", "b"], ["b"]], block=[["a", "b", "a", "a"]], ngram_max=1,
         min_df=1)
def test_feature_matrix_equals_per_row_tfidf_exactly(fit_docs, block, ngram_max, min_df):
    # Empty and out-of-vocabulary-only rows, repeated terms, n-grams up to
    # 3, the empty vocabulary (min_df above every df, or no fitting
    # documents) and blocks of 0 and 1 rows.
    vocab = fit_vocabulary((expand_ngrams(d, ngram_max) for d in fit_docs), min_df=min_df)
    tweets = [preprocess(" ".join(d), _IDENTITY) for d in block]
    assert [list(tt.tokens) for tt in tweets] == block
    vectors = [featurize(tt, vocab, (), ngram_max) for tt in tweets]
    mat = feature_matrix(vectors, vocab)
    _assert_vocabulary_columns_match_oracle(
        mat, [expand_ngrams(d, ngram_max) for d in block], vocab)
    # The block equals its one-row blocks.
    assert np.array_equal(mat.reshape(-1),
                          [x for fv in vectors for x in feature_matrix([fv], vocab)[0]])
    for fv in vectors:
        assert fv.vocab is vocab
        assert fv.sparse == tuple(tfidf(fv.terms, vocab))
        assert all(type(i) is int and type(w) is float for i, w in fv.sparse)


def test_feature_matrix_norm_is_linear_in_a_long_row():
    # One row of 50,000 distinct terms among 1,000 short ones.  Each row's
    # squares are summed per position, and a loop that read every entry at
    # every position would take some seconds here.
    long_row = [f"t{k}" for k in range(50_000)]
    short = [["a", "b", "a"], ["c"], ["b", "zz", "c", "a"], []]
    docs = [short[k % len(short)] for k in range(1_000)]
    docs.insert(500, long_row)
    vocab = fit_vocabulary(docs, min_df=1)
    memo = TextMemo(_IDENTITY)
    vectors = [featurize(preprocess(" ".join(d), memo=memo), vocab, ()) for d in docs]
    t0 = time.perf_counter()
    mat = feature_matrix(vectors, vocab)
    assert time.perf_counter() - t0 < 2.0
    _assert_vocabulary_columns_match_oracle(mat, docs, vocab)


def test_featurize_surface_block_uses_prefilter_tokens():
    vocab = fit_vocabulary([["insult"], ["insult"]], min_df=1)
    tweet = preprocess("The insult!", PrepConfig(), stoplist={"the"})
    assert tweet.tokens == ("insult",)
    assert tweet.base_tokens == ("the", "insult", "!")
    fv = featurize(tweet, vocab, {"insult"})
    sf = _surface_block(fv)
    assert sf.word_count == 2.0          # the, insult
    assert sf.abusive_count == 1.0
    assert fv.sparse == ((0, 1.0),)


def test_featurize_is_insensitive_to_stopword_and_stem_config():
    text = "The idiots are winning badly!"
    strict = preprocess(text, PrepConfig(), stoplist={"the", "are"})
    loose = preprocess(text, PrepConfig(remove_stopwords=False, stem=False))
    vocab = fit_vocabulary([["idiot"], ["idiot"]], min_df=1)
    sf_strict = _surface_block(featurize(strict, vocab, {"idiots"}))
    sf_loose = _surface_block(featurize(loose, vocab, {"idiots"}))
    assert sf_strict == sf_loose


def test_featurize_rejects_ngram_max_below_1():
    vocab = fit_vocabulary([["good"]], min_df=1)
    with pytest.raises(ValidationError, match="^ngram_max must be >= 1, got 0$"):
        featurize(preprocess("good", _IDENTITY), vocab, set(), ngram_max=0)


def test_featurize_ngram_terms_hit_vocabulary():
    vocab = fit_vocabulary([["not", "good", "not good"]], min_df=1)
    tweet = preprocess("not good", _IDENTITY)
    fv = featurize(tweet, vocab, set(), ngram_max=2)
    assert [i for i, _ in fv.sparse] == [0, 1, 2]
    # No n-gram is longer than its tweet, so a huge ngram_max is ngram_max 2.
    huge = featurize(tweet, vocab, set(), ngram_max=10**30)
    assert huge.sparse == fv.sparse
    assert np.array_equal(feature_matrix([huge], vocab), feature_matrix([fv], vocab))

"""Feature extraction: smoothed TF-IDF over a fitted vocabulary plus nine
dense surface statistics per tweet.

TF-IDF weighting for a term with document frequency df in a corpus of N
documents:

    weight = tf * (ln((1 + N) / (1 + df)) + 1)

and each document vector is L2-normalized.  Out-of-vocabulary terms are
ignored at transform time.  Vocabulary indices follow first occurrence
order over the fitting corpus after the min_df cut.  The IDF factor is
computed once per vocabulary term (`Vocabulary.idf`) with that same
expression and `math.log`, never `np.log`, which may differ in the last bit.

TF-IDF is computed for a whole block of documents in arrays: one
vocabulary lookup per term, one `np.unique` count of the (row, id) pairs,
one multiply by the IDF, the row norms, one divide.  Each row's squares are
summed left to right, one vector add per entry position, so every weight is
the float a per-document loop gives.  `tfidf` is the one-document case.

The dense block has exactly nine fields, in SURFACE_FIELDS order.  Word
statistics are computed over all-alphabetic tokens excluding the @user/url
placeholders; placeholder counts are taken from the raw text with letter
boundaries so e.g. CURL does not count as URL.  All but the character
count, the abusive count and the emoji score come from seven integer
counts per raw chunk, which `textprep.TextMemo` computes.

`featurize` keeps a preprocessed tweet whole, with its vocabulary, n-gram
length and abusive lexicon, a `FeatureVector`.  `feature_rows` featurizes
a block of them at once, from tables of the block's distinct raw
whitespace chunks: each chunk's seven counts, abusive tokens, emoji scores
and final tokens' vocabulary indices.  A row's counts are then integer
sums over its chunks, its emoji scores are added left to right as
`textprep._mean` adds them, and its tokens are its chunks' tokens in turn;
textprep's module docstring says why these equal what the whole text
gives.  A block counts abusive tokens with one lexicon, so its vectors must
share it.

The block's features are the entries of an (n, len(vocab) + 9) matrix
in (row, column) order: each row's TF-IDF entries, then its nonzero
surface values.  `train`, `cv` and `gridsearch` pass them to the forest's
`Columns`; `feature_matrix`, the same entries scattered into a dense
matrix, serves `predict`'s bounded blocks.
"""

import math
from collections.abc import Collection
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, repeat
from operator import attrgetter, itemgetter
from typing import NamedTuple

import numpy as np

from .errors import ValidationError
from .textprep import TokenizedTweet, WordSet


@dataclass(frozen=True)
class Vocabulary:
    terms: tuple[str, ...]
    df: tuple[int, ...]        # document frequency per term, aligned with terms
    n_docs: int

    def __post_init__(self):
        if len(self.terms) != len(self.df):
            raise ValidationError("terms and df must align")
        # type() rather than isinstance: a JSON true must not pass as 1.
        if not (all(isinstance(t, str) for t in self.terms) and type(self.n_docs) is int
                and all(type(d) is int and 1 <= d <= self.n_docs for d in self.df)):
            raise ValidationError("terms must be strings and each df an integer in 1..n_docs")
        if len(self.index) != len(self.terms):
            raise ValidationError("terms must be distinct")

    def __len__(self) -> int:
        return len(self.terms)

    @cached_property
    def index(self) -> dict[str, int]:
        return {t: i for i, t in enumerate(self.terms)}

    @cached_property
    def idf(self) -> np.ndarray:
        """Smoothed IDF per term, aligned with terms (read-only float64)."""
        idf = np.array([math.log((1 + self.n_docs) / (1 + df)) + 1.0 for df in self.df],
                       dtype=np.float64)
        idf.flags.writeable = False
        return idf

    def to_jsonable(self) -> dict:
        return {"terms": list(self.terms), "df": list(self.df), "n_docs": self.n_docs}

    @classmethod
    def from_jsonable(cls, data: dict) -> "Vocabulary":
        # tuple() of a JSON object or string would give its keys or
        # characters; those of df already fail the df check.
        if not isinstance(data["terms"], list):
            raise ValidationError("terms must be a list")
        return cls(terms=tuple(data["terms"]), df=tuple(data["df"]), n_docs=data["n_docs"])


def expand_ngrams(tokens, ngram_max: int = 1) -> list[str]:
    """Token list plus space-joined n-grams up to ngram_max (1 = unigrams)."""
    if ngram_max < 1:
        raise ValidationError(f"ngram_max must be >= 1, got {ngram_max}")
    terms = list(tokens)
    for n in range(2, min(ngram_max, len(tokens)) + 1):
        terms.extend(" ".join(tokens[i:i + n]) for i in range(len(tokens) - n + 1))
    return terms


def fit_vocabulary(docs, min_df: int = 2) -> Vocabulary:
    """Fit a vocabulary over token lists.

    Terms seen in fewer than min_df documents are dropped; surviving terms
    get indices in order of first occurrence, which is the insertion order
    of the document-frequency dict.
    """
    if min_df < 1:
        raise ValidationError(f"min_df must be >= 1, got {min_df}")
    df: dict[str, int] = {}
    n_docs = 0
    for doc in docs:
        n_docs += 1
        # Each distinct term once, in order of its first occurrence.
        for term in dict.fromkeys(doc):
            df[term] = df.get(term, 0) + 1
    kept = [t for t, c in df.items() if c >= min_df]
    return Vocabulary(terms=tuple(kept), df=tuple(df[t] for t in kept), n_docs=n_docs)


def _row_sums(rows, values, n_rows: int) -> np.ndarray:
    """Sum of each row's values, left to right as Python's sum adds them.

    `rows` is sorted.  Rows are taken longest first, so the rows that have
    an entry at position p are a prefix, and the sums of that prefix get
    one vector add of the entries at p.  Each entry is read once, so one
    long row costs its length, not its length times the block's.
    `np.add.reduceat` sums a segment pairwise, and numpy does not document
    the order in which `np.bincount` adds weights.
    """
    lengths = np.bincount(rows, minlength=n_rows)
    by_length = np.argsort(-lengths, kind="stable")
    starts = (np.cumsum(lengths) - lengths)[by_length]
    # active[p]: how many rows have an entry at position p.
    active = np.cumsum(np.bincount(lengths)[::-1])[::-1][1:]
    sums = np.zeros(n_rows)
    for p, k in enumerate(active.tolist()):
        sums[:k] += values[starts[:k] + p]
    out = np.empty(n_rows)
    out[by_length] = sums
    return out


def _lengths(seqs) -> np.ndarray:
    return np.fromiter(map(len, seqs), dtype=np.int64, count=len(seqs))


def _ids(terms, count: int, vocab: Vocabulary) -> np.ndarray:
    """The vocabulary index of each of count terms, -1 out of vocabulary."""
    return np.fromiter(map(vocab.index.get, terms, repeat(-1)), dtype=np.int64, count=count)


def _weights(rows, ids, n_rows: int,
             vocab: Vocabulary) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Row, vocabulary index and L2-normalized TF-IDF weight of every
    nonzero entry of n_rows documents, sorted by row and then by index,
    from the row and index (-1 out of vocabulary) of each term, in any
    order."""
    known = ids >= 0
    width = len(vocab)
    keys, counts = np.unique(rows[known] * width + ids[known], return_counts=True)
    rows, ids = np.divmod(keys, width)
    weights = counts * vocab.idf[ids]
    norms = np.sqrt(_row_sums(rows, weights * weights, n_rows))
    return rows, ids, weights / norms[rows]


def tfidf(doc, vocab: Vocabulary) -> list[tuple[int, float]]:
    """Sparse L2-normalized TF-IDF vector of a sequence of terms as
    (index, weight), index-sorted.

    Unknown terms are skipped; a document with no in-vocabulary terms maps
    to the empty vector.
    """
    _, ids, weights = _weights(np.zeros(len(doc), dtype=np.int64), _ids(doc, len(doc), vocab),
                               1, vocab)
    return list(zip(ids.tolist(), weights.tolist()))


class SurfaceFeatures(NamedTuple):
    url_count: float
    mention_count: float
    char_count: float
    punct_count: float
    word_count: float
    avg_word_len: float
    capital_pct: float
    abusive_count: float
    emoji_score: float


SURFACE_FIELDS = SurfaceFeatures._fields
N_SURFACE = len(SURFACE_FIELDS)


class FeatureVector(NamedTuple):
    """A preprocessed tweet, to be weighed over vocab with n-grams up to
    ngram_max and counted against the abusive lexicon.  `feature_matrix`
    computes its row from the tweet's chunks."""
    tweet: TokenizedTweet
    vocab: Vocabulary
    ngram_max: int
    abusive: Collection[str]

    @property
    def terms(self) -> list[str]:
        return expand_ngrams(self.tweet.tokens, self.ngram_max)

    @property
    def sparse(self) -> tuple[tuple[int, float], ...]:
        """The terms' TF-IDF entries, as tfidf gives them."""
        return tuple(tfidf(self.terms, self.vocab))


def featurize(tweet: TokenizedTweet, vocab: Vocabulary, abusive_lexicon,
              ngram_max: int = 1) -> FeatureVector:
    """Terms + surface features for one preprocessed tweet: feature_matrix
    computes both for a block; the vector's `terms` and `sparse` give the
    tweet's terms and their TF-IDF alone."""
    if ngram_max < 1:
        raise ValidationError(f"ngram_max must be >= 1, got {ngram_max}")
    return FeatureVector(tweet, vocab, ngram_max, abusive_lexicon)


def _ratio(num, den) -> np.ndarray:
    """num / den elementwise, 0.0 where den is 0."""
    return np.divide(num, den, out=np.zeros(len(num)), where=den != 0)


def _spread(values, lengths, chunk) -> np.ndarray:
    """The values of each chunk that `chunk` lists, in turn.  `values`
    holds every chunk's values back to back and `lengths` how many each
    has; `chunk` lists chunks by their position in `lengths`."""
    counts = lengths[chunk]
    offsets = np.cumsum(lengths) - lengths
    return values[np.repeat(offsets[chunk] - (np.cumsum(counts) - counts), counts)
                  + np.arange(counts.sum())]


def _tweet_block(vectors, vocab: Vocabulary):
    """Row and vocabulary index (-1 out of vocabulary) of every term, and
    the surface block, of FeatureVectors, from tables of their chunks.

    Each distinct chunk is found once, by `id`: the vectors hold every
    chunk, so no two distinct chunks share one, even across memos.  A
    row's surface counts are the sums of its chunks' integer counts, exact
    in float64 in any order; a chunk's abusive tokens are counted among
    its base tokens, which are lowercase, with the block's one lexicon; its
    emoji scores are added left to right (`_row_sums`) as `_mean` adds
    them; its final tokens are looked up once per distinct chunk.  N-grams
    span chunks, so they are made from each tweet's tokens; an n-gram is no
    longer than its tweet, so any ngram_max is the tweet's length at most.
    """
    lexicons = set(map(WordSet, {id(v.abusive): v.abusive for v in vectors}.values()))
    if len(lexicons) > 1:
        raise ValidationError("the vectors of one block must share one abusive lexicon")
    is_abusive = (lexicons.pop() if lexicons else WordSet()).__contains__
    n = len(vectors)
    tweets = list(map(attrgetter("tweet"), vectors))
    per_row = list(map(attrgetter("chunks"), tweets))
    occurrences = list(chain.from_iterable(per_row))
    row = np.repeat(np.arange(n), _lengths(per_row))
    keys, chunk = np.unique(np.fromiter(map(id, occurrences), dtype=np.uintp,
                                        count=len(occurrences)), return_inverse=True)
    # Any occurrence of a chunk is that chunk.
    some = np.empty(len(keys), dtype=np.intp)
    some[chunk] = np.arange(len(occurrences))
    distinct = list(map(occurrences.__getitem__, some.tolist()))

    table = np.frombuffer(b"".join(map(itemgetter(3), distinct)), dtype=np.int64).reshape(-1, 7)
    abusive_tokens = np.fromiter((sum(map(is_abusive, base)) for base in map(itemgetter(0), distinct)),
                                 dtype=np.int64, count=len(distinct))
    urls, mentions, puncts, letters, uppers, words, word_letters, abusive = (
        np.bincount(row, weights=column[chunk], minlength=n)
        for column in (*table.T, abusive_tokens))
    scores = list(map(itemgetter(2), distinct))
    n_scores = _lengths(scores)
    score_rows = np.repeat(row, n_scores[chunk])
    score_values = np.fromiter(chain.from_iterable(scores), dtype=np.float64,
                               count=int(n_scores.sum()))
    emoji = _ratio(_row_sums(score_rows, _spread(score_values, n_scores, chunk), n),
                   np.bincount(score_rows, minlength=n))
    dense = np.column_stack([urls, mentions, _lengths(list(map(attrgetter("raw_text"), tweets))),
                             puncts, words, _ratio(word_letters, words), _ratio(uppers, letters),
                             abusive, emoji])

    finals = list(map(itemgetter(1), distinct))
    n_finals = _lengths(finals)
    final_ids = _ids(chain.from_iterable(finals), int(n_finals.sum()), vocab)
    gram_rows = [r for r, v in enumerate(vectors) if v.ngram_max > 1]
    grams = [expand_ngrams(tokens, vectors[r].ngram_max)[len(tokens):]
             for r in gram_rows for tokens in [tweets[r].tokens]]
    n_grams = _lengths(grams)
    rows = np.concatenate([np.repeat(row, n_finals[chunk]),
                           np.repeat(np.array(gram_rows, dtype=np.int64), n_grams)])
    ids = np.concatenate([_spread(final_ids, n_finals, chunk),
                          _ids(chain.from_iterable(grams), int(n_grams.sum()), vocab)])
    return rows, ids, dense


def feature_rows(vectors, vocab: Vocabulary):
    """The entries of the (n, len(vocab) + 9) feature matrix of feature
    vectors, as (rows, cols, values, shape).

    The vectors are featurized together from their chunks (`_tweet_block`),
    then the TF-IDF of all the rows is computed at once (`_weights`).  Each
    row's norm is summed per entry position, left to right, so every weight
    equals `tfidf` of that row alone.  A row holds its TF-IDF entries, then
    its nonzero surface values at columns len(vocab)..len(vocab) + 8, so
    the entries are in (row, column) order.
    """
    n = len(vectors)
    width = len(vocab)
    rows, ids, surface = _tweet_block(vectors, vocab)
    rows, ids, weights = _weights(rows, ids, n, vocab)
    surface_rows, surface_cols = np.nonzero(surface)
    # Both parts are in (row, column) order, so a stable sort by row puts
    # each row's TF-IDF entries, then its surface entries.
    rows = np.concatenate([rows, surface_rows])
    order = np.argsort(rows, kind="stable")
    return (rows[order], np.concatenate([ids, surface_cols + width])[order],
            np.concatenate([weights, surface[surface_rows, surface_cols]])[order],
            (n, width + N_SURFACE))


def feature_matrix(vectors, vocab: Vocabulary) -> np.ndarray:
    """Stack feature vectors into a dense (n, len(vocab) + 9) float64
    matrix: `feature_rows`' entries, scattered."""
    rows, cols, values, shape = feature_rows(vectors, vocab)
    mat = np.zeros(shape)
    mat[rows, cols] = values
    return mat

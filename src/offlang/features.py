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
boundaries so e.g. CURL does not count as URL.  All but the character count
and the emoji score come from eight integer counts
(`textprep.surface_counts`).

`featurize` without a memo computes a tweet's terms and surface block, a
`FeatureVector`; this per-tweet path is the reference.  Given the TextMemo
that preprocessed the tweet, it keeps the tweet whole, a `TweetVector`, and
`feature_matrix` does the per-tweet work for the whole block at once, from
tables of the block's distinct raw whitespace chunks: each chunk's eight
counts, emoji scores and final tokens' vocabulary indices.  A row's counts
are then integer sums over its chunks, its emoji scores are added left to
right as `textprep._mean` adds them, and its tokens are its chunks' tokens
in turn; textprep's module docstring says why these equal what the whole
text gives.  The memo counts with its own abusive lexicon, so it is valid
for one pipeline.
"""

import math
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, repeat
from operator import attrgetter, itemgetter
from typing import NamedTuple

import numpy as np

try:
    from numpy._core.multiarray import _set_madvise_hugepage
except ImportError:  # numpy < 2
    from numpy.core.multiarray import _set_madvise_hugepage

from .errors import ValidationError
from .textprep import TokenizedTweet, WordSet, surface_counts


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
    get indices in order of first occurrence.
    """
    if min_df < 1:
        raise ValidationError(f"min_df must be >= 1, got {min_df}")
    first_seen: dict[str, int] = {}
    df: dict[str, int] = {}
    order = 0
    n_docs = 0
    for doc in docs:
        n_docs += 1
        for term in set(doc):
            df[term] = df.get(term, 0) + 1
        for term in doc:
            if term not in first_seen:
                first_seen[term] = order
                order += 1
    kept = sorted((t for t, c in df.items() if c >= min_df), key=first_seen.__getitem__)
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


def surface(raw_text: str, tokens, abusive_lexicon, emoji_score: float) -> SurfaceFeatures:
    """Nine dense per-tweet statistics.

    `tokens` should be the pre-filter token view (TokenizedTweet.base_tokens)
    so the result does not depend on stopword/stemming settings.
    """
    urls, mentions, puncts, letters, uppers, words, word_letters, abusive = \
        surface_counts(raw_text, tokens, WordSet(abusive_lexicon))
    return SurfaceFeatures(
        url_count=float(urls),
        mention_count=float(mentions),
        char_count=float(len(raw_text)),
        punct_count=float(puncts),
        word_count=float(words),
        avg_word_len=(word_letters / words) if words else 0.0,
        capital_pct=(uppers / letters) if letters else 0.0,
        abusive_count=float(abusive),
        emoji_score=float(emoji_score),
    )


class FeatureVector(NamedTuple):
    """A tweet's terms, its 9-field surface block and the vocabulary its
    terms are weighed over."""
    terms: Sequence[str]
    dense: SurfaceFeatures
    vocab: Vocabulary

    @property
    def sparse(self) -> tuple[tuple[int, float], ...]:
        """The terms' TF-IDF entries, as tfidf gives them."""
        return tuple(tfidf(self.terms, self.vocab))


class TweetVector(NamedTuple):
    """A tweet preprocessed through a TextMemo made with the abusive
    lexicon, to be weighed over vocab with n-grams up to ngram_max.
    `feature_matrix` computes its row from the tweet's chunks."""
    tweet: TokenizedTweet
    vocab: Vocabulary
    ngram_max: int

    @property
    def dense(self) -> SurfaceFeatures:
        """The surface block of the tweet's row, as featurize without the
        memo gives it."""
        return SurfaceFeatures(*feature_matrix([self], self.vocab)[0, len(self.vocab):].tolist())


def featurize(tweet: TokenizedTweet, vocab: Vocabulary, abusive_lexicon,
              ngram_max: int = 1, memo=None) -> FeatureVector | TweetVector:
    """Terms + surface features for one preprocessed tweet.  `memo` is
    the TextMemo that preprocessed it, made with abusive_lexicon; the tweet
    is then kept whole, for feature_matrix to featurize from its chunks."""
    if ngram_max < 1:
        raise ValidationError(f"ngram_max must be >= 1, got {ngram_max}")
    if memo is not None:
        return TweetVector(tweet, vocab, ngram_max)
    terms = tweet.tokens if ngram_max == 1 else expand_ngrams(tweet.tokens, ngram_max)
    dense = surface(tweet.raw_text, tweet.base_tokens, abusive_lexicon, tweet.emoji_score)
    return FeatureVector(terms, dense, vocab)


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
    the surface block, of TweetVectors, from tables of their chunks.

    Each distinct chunk is found once, by `id`: the vectors hold every
    chunk, so no two distinct chunks share one, even across memos.  A
    row's surface counts are the sums of its chunks' integer counts, exact
    in float64 in any order; its emoji scores are added left to right
    (`_row_sums`) as `_mean` adds them; its final tokens are looked up once
    per distinct chunk.  N-grams span chunks, so they are made from each
    tweet's tokens.
    """
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

    table = np.frombuffer(b"".join(map(itemgetter(3), distinct)), dtype=np.int64).reshape(-1, 8)
    urls, mentions, puncts, letters, uppers, words, word_letters, abusive = (
        np.bincount(row, weights=column[chunk], minlength=n) for column in table.T)
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
    gram_rows = np.flatnonzero(np.fromiter(map(attrgetter("ngram_max"), vectors),
                                           dtype=np.int64, count=n) > 1)
    grams = [expand_ngrams(tweets[r].tokens, vectors[r].ngram_max)[len(tweets[r].tokens):]
             for r in gram_rows.tolist()]
    n_grams = _lengths(grams)
    rows = np.concatenate([np.repeat(row, n_finals[chunk]), np.repeat(gram_rows, n_grams)])
    ids = np.concatenate([_spread(final_ids, n_finals, chunk),
                          _ids(chain.from_iterable(grams), int(n_grams.sum()), vocab)])
    return rows, ids, dense


def _plain_block(vectors, vocab: Vocabulary):
    """As _tweet_block, for vectors that hold their terms and surface."""
    docs = list(map(attrgetter("terms"), vectors))
    lengths = _lengths(docs)
    ids = _ids(chain.from_iterable(docs), int(lengths.sum()), vocab)
    dense = np.fromiter(chain.from_iterable(map(attrgetter("dense"), vectors)),
                        dtype=np.float64, count=len(vectors) * N_SURFACE).reshape(-1, N_SURFACE)
    return np.repeat(np.arange(len(vectors)), lengths), ids, dense


def feature_matrix(vectors, vocab: Vocabulary) -> np.ndarray:
    """Stack feature vectors into a dense (n, len(vocab) + 9) float64
    matrix.

    A FeatureVector's terms and surface block are taken as they are
    (`_plain_block`); TweetVectors are featurized together from their
    chunks (`_tweet_block`).  The TF-IDF of all the rows is then computed
    at once (`_weights`) and scattered into the vocabulary columns.  Each
    row's norm is summed per entry position, left to right, so every weight
    equals `tfidf` of that row alone.

    The matrix is allocated without numpy's transparent-huge-page advice.
    It is over 99 % zeros, so in plain 4 KiB pages about three quarters of
    it is never written and never backed by memory.  With the advice every
    page is a 2 MiB huge page, and finding free huge pages made the call's
    cost jump: on the 13,240 x 5,303 matrix of a 0.85 s train, one call in
    two or three spent 0.15 s more in the kernel than the others.
    """
    width = len(vocab)
    previous = _set_madvise_hugepage(False)
    try:
        mat = np.zeros((len(vectors), width + N_SURFACE), dtype=np.float64)
    finally:
        _set_madvise_hugepage(previous)
    is_tweet = np.fromiter(map(isinstance, vectors, repeat(TweetVector)), dtype=bool,
                           count=len(vectors))
    rows, ids = [], []
    for part, block in ((np.flatnonzero(~is_tweet), _plain_block),
                        (np.flatnonzero(is_tweet), _tweet_block)):
        part_rows, part_ids, dense = block(list(map(vectors.__getitem__, part.tolist())), vocab)
        mat[part, width:] = dense
        rows.append(part[part_rows])
        ids.append(part_ids)
    rows, ids, weights = _weights(np.concatenate(rows), np.concatenate(ids), len(vectors), vocab)
    mat[rows, ids] = weights
    return mat

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
the float a per-document loop gives.  `tfidf` is the one-document case.  `featurize` keeps a tweet's
terms, and `feature_matrix` weighs the terms of all the tweets it is given.

The dense block has exactly nine fields, in SURFACE_FIELDS order.  Word
statistics are computed over all-alphabetic tokens excluding the @user/url
placeholders; placeholder counts are taken from the raw text with letter
boundaries so e.g. CURL does not count as URL.  All but the character count
and the emoji score come from eight integer counts
(`textprep.surface_counts`).  `featurize` given the TextMemo that
preprocessed a tweet sums those counts over the tweet's raw whitespace
chunks, which the memo counted once per distinct chunk; textprep's module
docstring says why the sums equal counts taken over the whole text.  Such a
memo counts with its own abusive lexicon, so it is valid for one pipeline.
"""

import math
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, repeat
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


def _tfidf_block(docs, vocab: Vocabulary) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Row, vocabulary index and L2-normalized TF-IDF weight of every
    nonzero entry of a block of documents (sequences of terms), sorted by
    row and then by index."""
    lengths = np.fromiter(map(len, docs), dtype=np.int64, count=len(docs))
    ids = np.fromiter(map(vocab.index.get, chain.from_iterable(docs), repeat(-1)),
                      dtype=np.int64, count=int(lengths.sum()))
    rows = np.repeat(np.arange(len(docs)), lengths)
    known = ids >= 0
    width = len(vocab)
    keys, counts = np.unique(rows[known] * width + ids[known], return_counts=True)
    rows, ids = np.divmod(keys, width)
    weights = counts * vocab.idf[ids]
    norms = np.sqrt(_row_sums(rows, weights * weights, len(docs)))
    return rows, ids, weights / norms[rows]


def tfidf(doc, vocab: Vocabulary) -> list[tuple[int, float]]:
    """Sparse L2-normalized TF-IDF vector of a sequence of terms as
    (index, weight), index-sorted.

    Unknown terms are skipped; a document with no in-vocabulary terms maps
    to the empty vector.
    """
    _, ids, weights = _tfidf_block([doc], vocab)
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


def _surface(n_chars: int, counts, emoji_score: float) -> SurfaceFeatures:
    urls, mentions, puncts, letters, uppers, words, word_letters, abusive = counts
    return SurfaceFeatures(
        url_count=float(urls),
        mention_count=float(mentions),
        char_count=float(n_chars),
        punct_count=float(puncts),
        word_count=float(words),
        avg_word_len=(word_letters / words) if words else 0.0,
        capital_pct=(uppers / letters) if letters else 0.0,
        abusive_count=float(abusive),
        emoji_score=float(emoji_score),
    )


def surface(raw_text: str, tokens, abusive_lexicon, emoji_score: float) -> SurfaceFeatures:
    """Nine dense per-tweet statistics.

    `tokens` should be the pre-filter token view (TokenizedTweet.base_tokens)
    so the result does not depend on stopword/stemming settings.
    """
    return _surface(len(raw_text), surface_counts(raw_text, tokens, WordSet(abusive_lexicon)),
                    emoji_score)


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


def featurize(tweet: TokenizedTweet, vocab: Vocabulary, abusive_lexicon,
              ngram_max: int = 1, memo=None) -> FeatureVector:
    """Terms + surface features for one preprocessed tweet.  `memo` is
    the TextMemo that preprocessed it, made with abusive_lexicon; surface
    then sums the counts of the tweet's chunks rather than count its text."""
    terms = tweet.tokens if ngram_max == 1 else expand_ngrams(tweet.tokens, ngram_max)
    if memo is None:
        dense = surface(tweet.raw_text, tweet.base_tokens, abusive_lexicon, tweet.emoji_score)
    else:
        # The zero row keeps a text without chunks at zero counts.
        counts = map(sum, zip((0,) * 8, *(counts for _, _, _, counts in tweet.chunks)))
        dense = _surface(len(tweet.raw_text), counts, tweet.emoji_score)
    return FeatureVector(terms, dense, vocab)


def feature_matrix(vectors, vocab: Vocabulary) -> np.ndarray:
    """Stack FeatureVectors into a dense (n, len(vocab) + 9) float64 matrix.

    The TF-IDF of all the rows is computed at once (`_tfidf_block`), then
    scattered into the vocabulary columns; the surface blocks are written
    in one assignment.  Each row's norm is summed per entry position, left
    to right, so every weight equals `tfidf` of that row alone.

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
    rows, ids, weights = _tfidf_block([fv.terms for fv in vectors], vocab)
    mat[rows, ids] = weights
    mat[:, width:] = np.fromiter(chain.from_iterable(fv.dense for fv in vectors),
                                 dtype=np.float64, count=len(vectors) * N_SURFACE
                                 ).reshape(-1, N_SURFACE)
    return mat

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

Rows are featurized a block at a time, from tables of the block's
distinct raw whitespace chunks (`_block`): each chunk's seven counts,
abusive tokens, emoji scores and final tokens' term ids.  A row's counts
are then integer sums over its chunks, its emoji scores are added left to
right as `textprep._mean` adds them, and its tokens are its chunks' tokens
in turn; textprep's module docstring says why these equal what the whole
text gives.  A block counts abusive tokens with one lexicon.  The table
has two callers:

* `fit_rows`, for `train`, `cv` and `gridsearch`, reads a run's texts and
  its filled `textprep.TextMemo`.  It numbers the texts' distinct raw
  chunks with one dict and gives each distinct term a run-local id.  The
  vocabulary comes from those ids (`_vocabulary`, the rule that
  `fit_vocabulary` applies to token lists too), and one array index maps
  them to vocabulary indices.  No object is made per text.
* `feature_rows` reads FeatureVectors: `featurize` keeps a preprocessed
  tweet whole, with its vocabulary, n-gram length and abusive lexicon.
  Their chunks are found by `id`, since vectors may come from several
  memos, and their vectors must share one abusive lexicon.

Either way the block's features are the entries of an (n, len(vocab) + 9)
matrix in (row, column) order: each row's TF-IDF entries, then its nonzero
surface values.  `train`, `cv` and `gridsearch` pass `fit_rows`' entries
to the forest's `Columns`; `feature_matrix`, `feature_rows`' entries
scattered into a dense matrix, serves `predict`'s bounded blocks.
"""

import math
from collections import defaultdict
from collections.abc import Collection
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, count, repeat
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


def _vocabulary(terms, rows, ids, n_docs: int, min_df: int) -> tuple[Vocabulary, np.ndarray]:
    """The vocabulary of n_docs documents, and the vocabulary index of each
    term id, -1 for a term below min_df.  `terms` lists the distinct terms
    by id, numbered in order of first occurrence, and (rows, ids) are the
    documents' term occurrences, in any order.  A term's document frequency
    is the number of distinct (row, id) pairs it is in."""
    if min_df < 1:
        raise ValidationError(f"min_df must be >= 1, got {min_df}")
    n_terms = len(terms)
    keys = np.sort(rows * n_terms + ids)
    # Each distinct key once.  A sort, because numpy 2.4's np.unique finds
    # bare unique values by hashing: 22 ms against 1 ms for a sort on
    # 130,000 keys like these (numpy 2.4.6).
    # With no terms there are no keys, so `%` divides nothing by zero.
    df = np.bincount(keys[np.diff(keys, prepend=-1) != 0] % n_terms, minlength=n_terms)
    kept = np.flatnonzero(df >= min_df)
    index = np.full(n_terms, -1, dtype=np.int64)
    index[kept] = np.arange(len(kept))
    vocab = Vocabulary(terms=tuple(map(terms.__getitem__, kept.tolist())),
                       df=tuple(df[kept].tolist()), n_docs=n_docs)
    return vocab, index


def _numbers(keys, n_keys: int) -> tuple[np.ndarray, list]:
    """The number of each of n_keys keys among the distinct keys, numbered
    in order of first occurrence, and the distinct keys in that order."""
    number = defaultdict(count().__next__)
    return np.fromiter(map(number.__getitem__, keys), dtype=np.int64, count=n_keys), list(number)


def fit_vocabulary(docs, min_df: int = 2) -> Vocabulary:
    """Fit a vocabulary over token lists.

    Terms seen in fewer than min_df documents are dropped; surviving terms
    get indices in order of first occurrence.
    """
    docs = list(map(tuple, docs))
    lengths = _lengths(docs)
    ids, terms = _numbers(chain.from_iterable(docs), int(lengths.sum()))
    return _vocabulary(terms, np.repeat(np.arange(len(docs)), lengths), ids, len(docs),
                       min_df)[0]


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


def _spread(lengths, chunk) -> np.ndarray:
    """Where each value of each chunk that `chunk` lists lies, in turn,
    among every chunk's values back to back; `lengths` says how many values
    each chunk has, and `chunk` lists chunks by their position in it."""
    counts = lengths[chunk]
    offsets = np.cumsum(lengths) - lengths
    return (np.repeat(offsets[chunk] - (np.cumsum(counts) - counts), counts)
            + np.arange(counts.sum()))


def _block(distinct, chunk, lengths, text_lengths, ngram_max, term_ids, is_abusive):
    """Row and term id of every term, and the surface block, of rows given
    by tables of their distinct chunks.

    `distinct` lists the distinct Chunks, and `chunk` the position in it
    of each chunk occurrence, row after row in text order; `lengths` says
    how many occurrences each row has, `text_lengths` how many characters
    its text has and `ngram_max` its n-gram length.  `term_ids(terms,
    count)` gives count terms their ids: every distinct chunk's final
    tokens in turn, then each row's n-grams in turn.

    A row's surface counts are the sums of its chunks' integer counts,
    exact in float64 in any order; a chunk's abusive tokens are counted
    among its base tokens, which are lowercase; its emoji scores are added
    left to right (`_row_sums`) as `_mean` adds them; its final tokens get
    their ids once per distinct chunk.  N-grams span chunks, so they are
    made from each row's tokens; an n-gram is no longer than its tweet, so
    any ngram_max is the tweet's length at most.
    """
    n = len(lengths)
    row = np.repeat(np.arange(n), lengths)
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
    emoji = _ratio(_row_sums(score_rows, score_values[_spread(n_scores, chunk)], n),
                   np.bincount(score_rows, minlength=n))
    dense = np.column_stack([urls, mentions, text_lengths, puncts, words,
                             _ratio(word_letters, words), _ratio(uppers, letters), abusive, emoji])

    finals = list(map(itemgetter(1), distinct))
    n_finals = _lengths(finals)
    final_ids = term_ids(chain.from_iterable(finals), int(n_finals.sum()))
    gram_rows = [r for r in range(n) if ngram_max[r] > 1]
    occurrences = chunk.tolist() if gram_rows else []
    bounds = [0, *np.cumsum(lengths).tolist()]
    grams = [expand_ngrams(tokens, ngram_max[r])[len(tokens):] for r in gram_rows
             for tokens in [tuple(chain.from_iterable(
                 map(finals.__getitem__, occurrences[bounds[r]:bounds[r + 1]])))]]
    n_grams = _lengths(grams)
    rows = np.concatenate([np.repeat(row, n_finals[chunk]),
                           np.repeat(np.array(gram_rows, dtype=np.int64), n_grams)])
    ids = np.concatenate([final_ids[_spread(n_finals, chunk)],
                          term_ids(chain.from_iterable(grams), int(n_grams.sum()))])
    return rows, ids, dense


def _tweet_block(vectors, vocab: Vocabulary):
    """Row and vocabulary index (-1 out of vocabulary) of every term, and
    the surface block, of FeatureVectors (`_block`).  Each distinct chunk
    is found once, by `id`: the vectors hold every chunk, so no two
    distinct chunks share one, even across memos.  The block counts abusive
    tokens with one lexicon, so its vectors must share it."""
    lexicons = set(map(WordSet, {id(v.abusive): v.abusive for v in vectors}.values()))
    if len(lexicons) > 1:
        raise ValidationError("the vectors of one block must share one abusive lexicon")
    tweets = list(map(attrgetter("tweet"), vectors))
    per_row = list(map(attrgetter("chunks"), tweets))
    occurrences = list(chain.from_iterable(per_row))
    keys, chunk = np.unique(np.fromiter(map(id, occurrences), dtype=np.uintp,
                                        count=len(occurrences)), return_inverse=True)
    # Any occurrence of a chunk is that chunk.
    some = np.empty(len(keys), dtype=np.intp)
    some[chunk] = np.arange(len(occurrences))
    return _block(list(map(occurrences.__getitem__, some.tolist())), chunk, _lengths(per_row),
                  _lengths(list(map(attrgetter("raw_text"), tweets))),
                  list(map(attrgetter("ngram_max"), vectors)),
                  lambda terms, n_terms: _ids(terms, n_terms, vocab),
                  (lexicons.pop() if lexicons else WordSet()).__contains__)


def fit_rows(texts, chunks, abusive, ngram_max: int, min_df: int):
    """Fit a vocabulary on texts and return it with the entries of their
    (n, len(vocab) + 9) feature matrix, as `feature_rows` gives them.

    `chunks` maps every raw whitespace chunk of texts to its Chunk, as a
    filled `textprep.TextMemo` does.  The texts' distinct raw chunks are
    numbered in order of first occurrence, and each distinct final token
    and n-gram gets a term id (`_block`).  The final tokens of the distinct
    chunks, scanned in that order, meet each token first where the texts
    do, so their ids number them as `fit_vocabulary` orders terms; n-grams
    are numbered after every token, so with them the ids are renumbered by
    their first occurrence in the texts' terms, each text's tokens before
    its n-grams.  The vocabulary then comes from the term ids (`_vocabulary`),
    and one array index maps each term id to its vocabulary index.
    """
    n = len(texts)
    lengths = np.fromiter(map(len, map(str.split, texts)), dtype=np.int64, count=n)
    # The texts are split again rather than kept split, which would hold
    # every chunk occurrence's string at once.
    chunk, raws = _numbers(chain.from_iterable(map(str.split, texts)), int(lengths.sum()))
    term = defaultdict(count().__next__)
    rows, ids, surface = _block(list(map(chunks.__getitem__, raws)), chunk, lengths,
                                _lengths(texts), [ngram_max] * n,
                                lambda terms, n_terms: np.fromiter(map(term.__getitem__, terms),
                                                                   dtype=np.int64, count=n_terms),
                                WordSet(abusive).__contains__)
    # Freed before the vocabulary and TF-IDF stages, so that their arrays
    # do not stack on the occurrence table.
    del chunk, raws
    terms = list(term)
    if ngram_max > 1:
        # A text's terms are its tokens, then its n-grams (`expand_ngrams`).
        _, first = np.unique(ids[np.argsort(rows, kind="stable")], return_index=True)
        by_first = np.argsort(first)
        renumber = np.empty_like(by_first)
        renumber[by_first] = np.arange(len(by_first))
        ids = renumber[ids]
        terms = list(map(terms.__getitem__, by_first.tolist()))
    vocab, index = _vocabulary(terms, rows, ids, n, min_df)
    return vocab, _entries(rows, index[ids], surface, vocab)


def _entries(rows, ids, surface, vocab: Vocabulary):
    """The entries (rows, cols, values, shape) of the feature matrix of
    rows whose terms are (rows, ids), vocabulary indices with -1 out of
    vocabulary, and whose surface block is `surface`: the TF-IDF of all
    the rows at once (`_weights`), then each row's nonzero surface values
    at columns len(vocab)..len(vocab) + 8, in (row, column) order."""
    n = len(surface)
    width = len(vocab)
    rows, ids, weights = _weights(rows, ids, n, vocab)
    surface_rows, surface_cols = np.nonzero(surface)
    # Both parts are in (row, column) order, so a stable sort by row puts
    # each row's TF-IDF entries, then its surface entries.
    rows = np.concatenate([rows, surface_rows])
    order = np.argsort(rows, kind="stable")
    return (rows[order], np.concatenate([ids, surface_cols + width])[order],
            np.concatenate([weights, surface[surface_rows, surface_cols]])[order],
            (n, width + N_SURFACE))


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
    return _entries(*_tweet_block(vectors, vocab), vocab)


def feature_matrix(vectors, vocab: Vocabulary) -> np.ndarray:
    """Stack feature vectors into a dense (n, len(vocab) + 9) float64
    matrix: `feature_rows`' entries, scattered."""
    rows, cols, values, shape = feature_rows(vectors, vocab)
    mat = np.zeros(shape)
    mat[rows, cols] = values
    return mat

"""Feature extraction: smoothed TF-IDF over a fitted vocabulary plus nine
dense surface statistics per tweet.

TF-IDF weighting for a term with document frequency df in a corpus of N
documents:

    weight = tf * (ln((1 + N) / (1 + df)) + 1)

and each document vector is L2-normalized.  Out-of-vocabulary terms are
ignored at transform time.  Vocabulary indices follow first occurrence
order over the fitting corpus after the min_df cut.  The IDF factor is
computed once per vocabulary term (`Vocabulary.idf`) with that same
expression, so every weight is the float a per-document computation gives.

The dense block has exactly nine fields, in SURFACE_FIELDS order.  Word
statistics are computed over all-alphabetic tokens excluding the @user/url
placeholders; placeholder counts are taken from the raw text with letter
boundaries so e.g. CURL does not count as URL.

The raw-text counts (placeholders, punctuation, letters, capitals) are
taken once per distinct whitespace chunk through a memo and summed.  That
is exact: no match of the placeholder patterns contains whitespace and
their lookarounds test only letters, so a chunk edge acts as the
whitespace beside it did; no whitespace character is punctuation or a
letter; and the totals are integer sums.  The counts depend on the chunk
alone, so one memo serves any settings.  Punctuation is textprep's
per-character table, and an alphanumeric chunk, which holds no punctuation,
is not scanned for it.
"""

import math
import re
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

try:
    from numpy._core.multiarray import _set_madvise_hugepage
except ImportError:  # numpy < 2
    from numpy.core.multiarray import _set_madvise_hugepage

from .errors import ValidationError
from .textprep import TokenizedTweet, WordSet, _is_punct, chunk_values, is_placeholder

_URL_RE = re.compile(r"(?<![A-Za-z])URL(?![A-Za-z])")
_MENTION_RE = re.compile(r"@USER(?![A-Za-z])")


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

    def __len__(self) -> int:
        return len(self.terms)

    @cached_property
    def index(self) -> dict[str, int]:
        return {t: i for i, t in enumerate(self.terms)}

    @cached_property
    def idf(self) -> tuple[float, ...]:
        """Smoothed IDF per term, aligned with terms."""
        return tuple(math.log((1 + self.n_docs) / (1 + df)) + 1.0 for df in self.df)

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


def tfidf(doc, vocab: Vocabulary) -> list[tuple[int, float]]:
    """Sparse L2-normalized TF-IDF vector as (index, weight), index-sorted.

    Unknown terms are skipped; a document with no in-vocabulary terms maps
    to the empty vector.
    """
    tf = Counter(map(vocab.index.get, doc))
    tf.pop(None, None)
    if not tf:
        return []
    idf = vocab.idf
    entries = [(i, count * idf[i]) for i, count in sorted(tf.items())]
    norm = math.sqrt(sum(w * w for _, w in entries))
    return [(i, w / norm) for i, w in entries]


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


def _chunk_counts(chunk: str) -> tuple[int, int, int, int, int]:
    """URL matches, @USER matches, punctuation, letters and upper-case
    letters in one whitespace chunk of the raw text."""
    letters = [ch for ch in chunk if ch.isalpha()]
    return (len(_URL_RE.findall(chunk)), len(_MENTION_RE.findall(chunk)),
            0 if chunk.isalnum() else sum(map(_is_punct, chunk)),
            len(letters), sum(1 for ch in letters if ch.isupper()))


def surface(raw_text: str, tokens, abusive_lexicon, emoji_score: float,
            memo=None) -> SurfaceFeatures:
    """Nine dense per-tweet statistics.

    `tokens` should be the pre-filter token view (TokenizedTweet.base_tokens)
    so the result does not depend on stopword/stemming settings.  `memo`
    maps a raw whitespace chunk to its `_chunk_counts` and is filled as
    chunks are met; None uses a fresh dict.
    """
    counts = chunk_values(raw_text, {} if memo is None else memo, _chunk_counts)
    # The zero row keeps a text without chunks at zero counts.
    urls, mentions, puncts, letters, uppers = map(sum, zip((0,) * 5, *counts))
    abusive = WordSet(abusive_lexicon)
    words = [t for t in tokens if t.isalpha() and not is_placeholder(t)]
    return SurfaceFeatures(
        url_count=float(urls),
        mention_count=float(mentions),
        char_count=float(len(raw_text)),
        punct_count=float(puncts),
        word_count=float(len(words)),
        avg_word_len=(sum(len(w) for w in words) / len(words)) if words else 0.0,
        capital_pct=(uppers / letters) if letters else 0.0,
        abusive_count=float(sum(1 for t in tokens if t.lower() in abusive)),
        emoji_score=float(emoji_score),
    )


@dataclass(frozen=True)
class FeatureVector:
    """Sparse TF-IDF entries plus the dense 9-field surface block."""
    sparse: tuple[tuple[int, float], ...]
    dense: SurfaceFeatures


def featurize(tweet: TokenizedTweet, vocab: Vocabulary, abusive_lexicon,
              ngram_max: int = 1, memo=None) -> FeatureVector:
    """TF-IDF + surface features for one preprocessed tweet; `memo` is
    surface's."""
    terms = expand_ngrams(list(tweet.tokens), ngram_max)
    return FeatureVector(tuple(tfidf(terms, vocab)),
                         surface(tweet.raw_text, tweet.base_tokens, abusive_lexicon,
                                 tweet.emoji_score, memo))


def feature_matrix(vectors, vocab_size: int) -> np.ndarray:
    """Stack FeatureVectors into a dense (n, vocab_size + 9) float64 matrix.

    The matrix is allocated without numpy's transparent-huge-page advice.
    It is over 99 % zeros, so in plain 4 KiB pages about three quarters of
    it is never written and never backed by memory.  With the advice every
    page is a 2 MiB huge page, and finding free huge pages made the call's
    cost jump: on the 13,240 x 5,303 matrix of a 0.85 s train, one call in
    two or three spent 0.15 s more in the kernel than the others.
    """
    previous = _set_madvise_hugepage(False)
    try:
        mat = np.zeros((len(vectors), vocab_size + N_SURFACE), dtype=np.float64)
    finally:
        _set_madvise_hugepage(previous)
    for r, fv in enumerate(vectors):
        for i, w in fv.sparse:
            mat[r, i] = w
        mat[r, vocab_size:] = fv.dense
    return mat

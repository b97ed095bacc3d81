"""Tweet preprocessing: hashtag splitting, elongation reduction, emoji
scoring, tokenization, punctuation/stopword filtering and stemming.

The pipeline's steps, each gated by its PrepConfig flag:

    hashtag split -> elongation reduction -> emoji extraction -> tokenize
    -> per token (`_final_token`): lowercase, strip punctuation, drop a
       stopword, stem

A token left empty is dropped.  The placeholders `@USER` and `URL` are
recognised after lowercasing and again after stripping, and pass the later
steps untouched.

`preprocess` runs the steps once per distinct raw whitespace chunk of the
text, through a `TextMemo` from chunk to everything the chunk contributes:
its base tokens, its final tokens, its emoji scores in text order and the
seven integer counts behind the surface features.  A tweet keeps only its
raw text and its chunks' memo entries.  Its tokens, base tokens and mean
emoji score are its chunks' values concatenated, joined on each read, and
the mean sums the concatenated scores left to right, as a whole-text pass
does.  `features` computes the same values for a whole block of texts from
their chunks, without joining them: `features.fit_rows` reads a run's
texts and its memo, with no tweet objects, and `features.feature_matrix`
reads preprocessed tweets.  That is exact because every step acts within
one chunk:

* hashtag splitting splits one chunk into words;
* a run that elongation reduces is either all whitespace, which `str.split`
  discards whatever its length, or inside one chunk;
* no emoji unit or stray run contains whitespace, so the emoji scan meets
  each chunk as it would meet it in the whole text;
* `tokenize` treats each `str.split` chunk on its own, and `_final_token`
  sees one piece at a time;
* the surface patterns match no whitespace and their lookarounds test only
  letters, no whitespace character is punctuation or a letter, and the
  counts are integer sums.

One code path computes chunks: `TextMemo.fill` finds the distinct raw
chunks of its texts with one `dict.fromkeys`, tests each against the memo
once and computes the new ones a batch at a time (a lookup of a missing
chunk is a batch of one).  `cli.Pipeline`, `emolex` and a memo-less
`preprocess` fill their memo before they read it; `Pipeline.fit_transform`
then hands it to `features.fit_rows`, the others preprocess tweet by
tweet.  Some steps run once over the whole batch, joined by "\\n", and
give each chunk what the step alone gives it:

* elongation reduction runs one substitution over the joined works (a
  work is a chunk after hashtag splitting).  No work holds "\\n", since a
  chunk holds no whitespace and split words are joined by " ", and no
  work is empty, so no run of one repeated character takes in a
  separator, and splitting on "\\n" gives the works back;
* the URL and @USER patterns each run once over the joined chunks, and
  each match counts for the chunk it starts in; a lookaround sees "\\n",
  not a letter, where it saw a string edge;
* the joined chunks are translated to one class code per character
  (punctuation, letter, capital letter or none), and each chunk's codes
  are summed as one segment; "\\n" is in no class.

The rest runs per chunk.  A TextMemo is valid for the
PrepConfig, stoplist and emoji lexicon it was made with; `cli.Pipeline`
keeps one per pipeline.  It also holds a piece -> final token memo, so
that `_final_token` runs once per distinct `tokenize` piece, and a word ->
stem memo, so that each distinct word is stemmed once.  Other repeated
work is skipped too, each time with the same output:

* each character is classified once, into its class code, in one
  process-wide table that the character set bounds; `tokenize`, the
  punctuation strip and the surface counts all read it, each with one
  `str.translate` of a chunk, a token or a batch;
* the emoji scan is skipped on an ASCII work, and `tokenize`'s emoji scan
  on an ASCII core, since every emoji unit and stray modifier is
  non-ASCII;
* `tokenize` is skipped on an ASCII alphanumeric work, its only piece,
  since no ASCII alphanumeric character is punctuation or emoji (an
  alphanumeric test alone would not do: U+2776 is numeric and an emoji
  base);
* the punctuation strip is skipped on an alphanumeric token, since no
  alphanumeric character is punctuation.

Conventions used throughout:

* punctuation means Unicode general category P*;
* with strip_punct off, tokenization degrades to plain whitespace splitting
  (so the all-flags-off config is the identity on whitespace-separated
  tokens); `tokenize()` called directly always applies the full tweet-aware
  rules (punctuation runs detached, emoji kept as single tokens);
* only all-alphabetic tokens are stemmed; stemmers emit lowercase output.

Emoji display units follow a subset of the flag, modifier and ZWJ sequences
of Unicode TS #51, matched greedily from the left:

    unit  = RI RI  |  base mod* (ZWJ base mod*)*     (has a base)
    stray = (mod | ZWJ)+                             (no base)

RI is a regional indicator (U+1F1E6-1F1FF), tried first; base is
U+1F000-1FAFF, U+2600-27BF or U+2B00-2BFF; mod is a variation selector
(U+FE0E, U+FE0F), the combining keycap (U+20E3) or a skin tone
(U+1F3FB-1F3FF, which also lie in the first base range).  A unit is one
token and one lexicon lookup; a stray run is removed and never scored.
"""

import re
import unicodedata
from dataclasses import dataclass, fields
from functools import reduce
from itertools import accumulate, chain, compress
from operator import add, itemgetter
from typing import NamedTuple

import numpy as np

from . import stemming
from .errors import ValidationError

PLACEHOLDERS = frozenset({"@USER", "URL", "@user", "url"})

EMOJI_MODES = ("remove_and_score", "keep")


def is_placeholder(token: str) -> bool:
    return token in PLACEHOLDERS


# ---------------------------------------------------------------------------
# Character classes


class _CharClasses(dict):
    """Code point -> the class code of its character, as a character: 1
    punctuation, 2 a letter, 3 a capital letter, 0 anything else.  Each
    code point is classified on its first lookup and kept for the whole
    process: the table is bounded by the character set, not by the input.
    No character is both punctuation and a letter."""

    def __missing__(self, point: int) -> str:
        ch = chr(point)
        value = self[point] = ("\1" if unicodedata.category(ch).startswith("P")
                               else "\0" if not ch.isalpha()
                               else "\3" if ch.isupper() else "\2")
        return value


_CHAR_CLASSES = _CharClasses()


# The emoji unit grammar of the module docstring; group 1 is a unit with a
# base, the second alternative a stray run.
_SELECTORS_AND_TONES = "\uFE0E\uFE0F\U0001F3FB-\U0001F3FF"
_BASE = "\U0001F000-\U0001FAFF\u2600-\u27BF\u2B00-\u2BFF"
_MOD = _SELECTORS_AND_TONES + "\u20E3"
_EMOJI_UNIT = re.compile(
    f"([\U0001F1E6-\U0001F1FF]{{2}}|[{_BASE}][{_MOD}]*(?:\u200D[{_BASE}][{_MOD}]*)*)"
    f"|[{_MOD}\u200D]+")
_EMOJI_CHAR = re.compile(f"[{_BASE}{_MOD}\u200D]")


def emoji_spans(text: str) -> list[tuple[int, int, str, bool]]:
    """All emoji display units as (start, end, unit, has_base) spans."""
    return [(m.start(), m.end(), m.group(0), m.group(1) is not None)
            for m in _EMOJI_UNIT.finditer(text)]


# ---------------------------------------------------------------------------
# Individual operations


_ELONGATION = re.compile(r"(.)\1{2,}", re.DOTALL)


def reduce_elongation(text: str) -> str:
    """Cap runs of one repeated character at length 2 (Sooo -> Soo).

    Idempotent; applies to every character class.
    """
    return _ELONGATION.sub(r"\1\1", text)


def split_hashtag(tag: str) -> list[str]:
    """Split a camel-case hashtag body into words: #GoHome -> [Go, Home].

    The leading # (if present) is dropped.  All-caps runs stay together
    (#MAGA -> [MAGA]) and an upper run followed by a capitalized word splits
    before the last capital (USAToday -> USA, Today).
    """
    body = tag[1:] if tag.startswith("#") else tag
    if not body:
        return []
    parts = []
    start = 0
    for i in range(1, len(body)):
        prev, cur = body[i - 1], body[i]
        boundary = cur.isupper() and (
            prev.islower() or prev.isdigit()
            or (prev.isupper() and i + 1 < len(body) and body[i + 1].islower()))
        if boundary:
            parts.append(body[start:i])
            start = i
    parts.append(body[start:])
    return parts


def tokenize(text: str) -> list[str]:
    """Tweet-aware tokenization.

    Splits on whitespace, detaches leading/trailing punctuation runs as
    their own tokens, keeps @-mentions and #hashtags intact, keeps internal
    punctuation attached (don't stays one token) and emits every emoji
    display unit as a single token.
    """
    tokens: list[str] = []
    for chunk in text.split():
        codes = chunk.translate(_CHAR_CLASSES)
        i, j = 0, len(chunk)
        while i < j and codes[i] == "\1" and not _EMOJI_CHAR.match(chunk[i]):
            i += 1
        # Leave a mention/hashtag sigil attached to its word.
        if 0 < i <= j and chunk[i - 1] in "@#" and i < j and codes[i] != "\1":
            i -= 1
        while j > i and codes[j - 1] == "\1" and not _EMOJI_CHAR.match(chunk[j - 1]):
            j -= 1
        if i == j:  # pure punctuation chunk
            tokens.append(chunk)
            continue
        if i > 0:
            tokens.append(chunk[:i])
        core = chunk[i:j]
        pos = 0
        # Every emoji unit and stray modifier is non-ASCII.
        for s, e, unit, has_base in () if core.isascii() else emoji_spans(core):
            if core[pos:s]:
                tokens.append(core[pos:s])
            if has_base:
                tokens.append(unit)
            pos = e
        if core[pos:]:
            tokens.append(core[pos:])
        if j < len(chunk):
            tokens.append(chunk[j:])
    return tokens


class WordSet(frozenset):
    """A word lexicon for case-insensitive lookup, lowercased once when it is
    built; WordSet of a WordSet is that same set."""

    def __new__(cls, words=()):
        if isinstance(words, cls):
            return words
        return super().__new__(cls, (w.lower() for w in words))


# Dropped from a display unit for its second lexicon lookup.
_LOOKUP_DROPPED = re.compile(f"[{_SELECTORS_AND_TONES}]")


def emoji_scores(text: str, lexicon) -> tuple[str, list[float]]:
    """Remove every emoji unit from text; return the rest and the units'
    lexicon scores in text order.

    Each display unit (see emoji_spans) is looked up whole, then, if that
    misses, with its variation selectors and skin tones dropped; a unit
    missing both ways scores 0.  Stray modifiers with no base are removed
    unscored.
    """
    if text.isascii():
        return text, []
    out = []
    scores = []
    pos = 0
    for start, end, unit, has_base in emoji_spans(text):
        out.append(text[pos:start])
        pos = end
        if has_base:
            scores.append(lexicon.get(unit, lexicon.get(_LOOKUP_DROPPED.sub("", unit), 0.0)))
    out.append(text[pos:])
    return "".join(out), scores


def _mean(scores) -> float:
    """The mean, its sum added left to right from 0.0.  Python 3.12's
    `sum` of floats compensates the rounding, and gives another float."""
    return reduce(add, scores, 0.0) / len(scores) if scores else 0.0


def extract_emoji_sentiment(text: str, lexicon) -> tuple[str, float]:
    """Remove every emoji unit from text, return the mean of emoji_scores;
    text without emoji scores 0.0."""
    text, scores = emoji_scores(text, lexicon or {})
    return text, _mean(scores)


# ---------------------------------------------------------------------------
# Pipeline


@dataclass(frozen=True)
class PrepConfig:
    lowercase: bool = True
    strip_punct: bool = True
    remove_stopwords: bool = True
    stem: bool = True
    split_hashtags: bool = True
    reduce_elongation: bool = True
    emoji_mode: str = "remove_and_score"
    stem_language: str = "english"

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if not isinstance(value, type(f.default)):
                raise ValidationError(
                    f"{f.name} must be a {type(f.default).__name__}, got {value!r}")
        if self.emoji_mode not in EMOJI_MODES:
            raise ValidationError(
                f"emoji_mode must be one of {', '.join(EMOJI_MODES)}, "
                f"got {self.emoji_mode!r}")
        if self.stem_language not in stemming.supported_languages():
            raise ValidationError(
                f"stem_language must be one of {', '.join(stemming.supported_languages())}, "
                f"got {self.stem_language!r}")


def _final_token(token: str, cfg: PrepConfig, stops: WordSet, stems: dict) -> str:
    """The token as the pipeline emits it, or "" to drop it.  `stems` maps
    a word to its stem under cfg.stem_language and gains the new ones."""
    if cfg.lowercase:
        token = token.lower()
    if cfg.strip_punct and not token.isalnum() and not is_placeholder(token):
        token = "".join(compress(token, map("\1".__ne__, token.translate(_CHAR_CLASSES))))
    if is_placeholder(token):
        return token
    if cfg.remove_stopwords and token.lower() in stops:
        return ""
    if cfg.stem and token.isalpha():
        stem = stems.get(token)
        if stem is None:
            stem = stems[token] = stemming.stem(token, cfg.stem_language)
        return stem
    return token


_URL_RE = re.compile(r"(?<![A-Za-z])URL(?![A-Za-z])")
_MENTION_RE = re.compile(r"@USER(?![A-Za-z])")


# What a character of each class code adds to the punctuation, letter and
# capital counts; int32 sums are exact below 2**31 characters a chunk.
_CLASS_COUNTS = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 1, 1]], dtype=np.int32)


def _char_counts(raws: list[str]) -> np.ndarray:
    """(len(raws), 5) int64: URL and @USER matches, punctuation, letters
    and capitals in each raw chunk.  Placeholders are matched with letter
    boundaries, so CURL is no URL.

    Each chunk is followed by "\\n", which no chunk holds, and the whole is
    scanned at once: each pattern runs once, its lookarounds seeing "\\n",
    no letter, where they saw a string edge, and a match counts for the
    chunk it starts in.  The characters are translated to their class
    codes, and each chunk's class counts, with its "\\n" (in no class), are
    summed in one `reduceat`."""
    n = len(raws)
    joined = "\n".join(raws) + "\n"
    starts = np.fromiter(accumulate((len(raw) + 1 for raw in raws), initial=0),
                         dtype=np.intp, count=n + 1)
    counts = np.empty((n, 5), dtype=np.int64)
    for column, pattern in enumerate((_URL_RE, _MENTION_RE)):
        at = [m.start() for m in pattern.finditer(joined)]
        counts[:, column] = np.bincount(starts.searchsorted(at, "right") - 1, minlength=n)
    codes = np.frombuffer(joined.translate(_CHAR_CLASSES).encode("ascii"), dtype=np.uint8)
    counts[:, 2:] = np.add.reduceat(_CLASS_COUNTS[codes], starts[:-1])
    return counts


# What one raw whitespace chunk contributes to its tweet: its lowercased
# tokenize pieces, its final tokens, its emoji scores in text order and
# seven integer counts behind the surface features, packed as native int64:
# the `_char_counts` of the chunk, then the words (the all-alphabetic
# pieces but the placeholders) and their letters.  `features.feature_matrix`
# reads a block's counts with one join.  A plain tuple of tuples of strings
# and numbers and of bytes, which the cyclic garbage collector stops
# tracking, so its full collections do not walk one object per distinct
# chunk; a NamedTuple, like any tuple subclass, would stay tracked.
Chunk = tuple[tuple[str, ...], tuple[str, ...], tuple[float, ...], bytes]
_COUNTS_BYTES = 7 * 8

# Raw chunks that `TextMemo.fill` computes in one batch.  A batch's
# temporaries take about 50 bytes a character; with 4,096 chunks a batch,
# `train` on 13,240 tweets peaked about 2 MB higher than with 1,024.
_FILL_CHUNKS = 1 << 10


class TextMemo(dict):
    """Raw whitespace chunk -> its Chunk under one PrepConfig, stoplist and
    emoji lexicon, with a piece -> final token memo and a word -> stem memo
    that fill as chunks are computed.  `fill` computes chunks in batches; a
    lookup of a missing chunk computes it as a batch of one."""

    def __init__(self, cfg: PrepConfig, stoplist=frozenset(), emoji_lexicon=None):
        super().__init__()
        self.cfg = cfg
        self.stops = WordSet(stoplist)
        self.emoji = emoji_lexicon or {}
        self.finals: dict[str, str] = {}
        self.stems: dict[str, str] = {}

    def __missing__(self, raw: str) -> Chunk:
        self._add([raw])
        return self[raw]

    def fill(self, texts) -> None:
        """Compute every raw whitespace chunk of texts that the memo lacks,
        each once, in batches of at most _FILL_CHUNKS in text order."""
        new = [raw for raw in dict.fromkeys(chain.from_iterable(map(str.split, texts)))
               if raw not in self]
        for start in range(0, len(new), _FILL_CHUNKS):
            self._add(new[start:start + _FILL_CHUNKS])

    def _add(self, raws: list[str]) -> None:
        """Compute the Chunks of distinct raw whitespace chunks, the
        module docstring's steps, each over the whole batch or per chunk."""
        cfg, finals = self.cfg, self.finals
        # A fresh list even when no step rewrites it: the emoji removal
        # below replaces its items, and raws become the memo's keys.
        works = [" ".join(split_hashtag(raw))
                 if cfg.split_hashtags and raw.startswith("#") and len(raw) > 1 else raw
                 for raw in raws]
        if cfg.reduce_elongation:
            reduced = reduce_elongation("\n".join(works)).split("\n")
            # An unchanged work stays the object it was, often its raw chunk,
            # so that the piece memo's keys share the memo's strings.
            works = [work if work == new else new for work, new in zip(works, reduced)]
        scores = [()] * len(works)
        if cfg.emoji_mode == "remove_and_score":
            for i, work in enumerate(works):
                works[i], found = emoji_scores(work, self.emoji)
                scores[i] = tuple(found)
        counts = np.empty((len(raws), 7), dtype=np.int64)
        counts[:, :5] = _char_counts(raws)
        values, word_counts = [], []
        for work, found in zip(works, scores):
            # An ASCII alphanumeric work is its only piece.
            pieces = [work] if work.isascii() and work.isalnum() else tokenize(work)
            kept = []
            for piece in pieces if cfg.strip_punct else work.split():
                token = finals.get(piece)
                if token is None:
                    token = finals[piece] = _final_token(piece, cfg, self.stops, self.stems)
                if token:
                    kept.append(token)
            base = tuple(map(str.lower, pieces))
            words = [t for t in base if t.isalpha() and t not in PLACEHOLDERS]
            word_counts.append((len(words), sum(map(len, words))))
            values.append((base, tuple(kept), found))
        counts[:, 5:] = word_counts
        packed = counts.tobytes()
        for i, (raw, value) in enumerate(zip(raws, values)):
            self[raw] = (*value, packed[i * _COUNTS_BYTES:(i + 1) * _COUNTS_BYTES])


_BASE, _FINAL, _SCORES = itemgetter(0), itemgetter(1), itemgetter(2)


def _join(chunks, item) -> tuple:
    """One item of each Chunk, concatenated."""
    return tuple(chain.from_iterable(map(item, chunks)))


class TokenizedTweet(NamedTuple):
    """Preprocessing output: the raw text and the Chunk of each raw
    whitespace chunk, in text order.

    `tokens` is the final pipeline output; `base_tokens` is the
    tweet-tokenized, lowercased token list before punctuation, stopword and
    stemming filters, kept so downstream feature code sees a view that is
    insensitive to those config flags.  Both, and the mean emoji score,
    are joined from the chunks on each read.
    """
    raw_text: str
    chunks: tuple[Chunk, ...]

    @property
    def tokens(self) -> tuple[str, ...]:
        return _join(self.chunks, _FINAL)

    @property
    def base_tokens(self) -> tuple[str, ...]:
        return _join(self.chunks, _BASE)

    @property
    def emoji_score(self) -> float:
        return _mean(_join(self.chunks, _SCORES))


def preprocess(text: str, cfg: PrepConfig = PrepConfig(),
               stoplist=frozenset(), emoji_lexicon=None, memo=None) -> TokenizedTweet:
    """Run the full preprocessing pipeline on one tweet.

    `memo`, a TextMemo such as `cli.Pipeline` keeps, is used with its own
    settings in place of cfg, stoplist and emoji_lexicon; None makes a
    fresh one from them and fills it with the whole text in one batch.  The
    tweet keeps its raw chunks' memo entries.
    """
    if memo is None:
        memo = TextMemo(cfg, stoplist, emoji_lexicon)
        memo.fill((text,))
    return TokenizedTweet(text, tuple(map(memo.__getitem__, text.split())))

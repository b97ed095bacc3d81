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
integer counts behind `features.surface` (`surface_counts`).  A tweet keeps
only its raw text and its chunks' memo entries.  Its tokens, base tokens
and mean emoji score are its chunks' values concatenated, joined when first
read, and the mean sums the concatenated scores left to right, as a
whole-text pass does; `features.feature_matrix` computes the same values
for a whole block of tweets from their chunks, without joining them.  That
is exact because every step acts within one chunk:

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

A TextMemo is valid for the PrepConfig, stoplist, emoji lexicon and
abusive lexicon it was made with; `cli.Pipeline` keeps one per pipeline.
It also holds a piece -> final token memo, so that `_final_token` runs once
per distinct `tokenize` piece, and a word -> stem memo, so that each
distinct word is stemmed once.  Other repeated work is skipped too, each
time with the same output:

* each character is classified as punctuation once, in a process-wide
  table that the character set bounds;
* the emoji scan is skipped on an ASCII chunk, since every emoji unit is
  non-ASCII, and the punctuation strip and count are skipped on an
  alphanumeric token or chunk, since no alphanumeric character is
  punctuation.

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
import struct
import unicodedata
from dataclasses import dataclass, fields
from functools import reduce
from itertools import chain
from operator import add, attrgetter, itemgetter

from . import stemming
from .errors import ValidationError

PLACEHOLDERS = frozenset({"@USER", "URL", "@user", "url"})

EMOJI_MODES = ("remove_and_score", "keep")


def is_placeholder(token: str) -> bool:
    return token in PLACEHOLDERS


# ---------------------------------------------------------------------------
# Character classes


class _PunctTable(dict):
    """Character -> whether it is punctuation, each character classified on
    its first lookup.  Shared by the whole process: it is bounded by the
    character set, not by the input."""

    def __missing__(self, ch: str) -> bool:
        value = self[ch] = unicodedata.category(ch).startswith("P")
        return value


_is_punct = _PunctTable().__getitem__


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
        i, j = 0, len(chunk)
        while i < j and _is_punct(chunk[i]) and not _EMOJI_CHAR.match(chunk[i]):
            i += 1
        # Leave a mention/hashtag sigil attached to its word.
        if 0 < i <= j and chunk[i - 1] in "@#" and i < j and not _is_punct(chunk[i]):
            i -= 1
        while j > i and _is_punct(chunk[j - 1]) and not _EMOJI_CHAR.match(chunk[j - 1]):
            j -= 1
        if i == j:  # pure punctuation chunk
            tokens.append(chunk)
            continue
        if i > 0:
            tokens.append(chunk[:i])
        core = chunk[i:j]
        pos = 0
        for s, e, unit, has_base in emoji_spans(core):
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
        token = "".join(ch for ch in token if not _is_punct(ch))
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


def surface_counts(text: str, tokens, abusive: WordSet) -> tuple[int, ...]:
    """The integer counts behind `features.surface`: URL and @USER
    matches, punctuation, letters and capitals in text, then words (the
    all-alphabetic tokens but the placeholders), their letters and
    abusive-lexicon tokens among tokens.  Placeholders are matched with
    letter boundaries, so CURL is no URL."""
    letters = list(filter(str.isalpha, text))
    words = [t for t in tokens if t.isalpha() and not is_placeholder(t)]
    return (len(_URL_RE.findall(text)), len(_MENTION_RE.findall(text)),
            0 if text.isalnum() else sum(map(_is_punct, text)),
            len(letters), sum(map(str.isupper, letters)),
            len(words), sum(map(len, words)), sum(1 for t in tokens if t.lower() in abusive))


# What one raw whitespace chunk contributes to its tweet: its lowercased
# tokenize pieces, its final tokens, its emoji scores in text order and the
# surface_counts of the chunk and its pieces, packed as eight native int64
# (`_COUNTS`), so that `features.feature_matrix` reads a block's counts with
# one join.  A plain
# tuple of tuples of strings and numbers and of bytes, which the cyclic
# garbage collector stops tracking, so its full collections do not walk one
# object per distinct chunk; a NamedTuple, like any tuple subclass, would
# stay tracked.
Chunk = tuple[tuple[str, ...], tuple[str, ...], tuple[float, ...], bytes]
_COUNTS = struct.Struct("8q")


class TextMemo(dict):
    """Raw whitespace chunk -> its Chunk, each chunk computed on its first
    lookup under one PrepConfig, stoplist, emoji lexicon and abusive
    lexicon, with a piece -> final token memo and a word -> stem memo that
    fill as chunks are computed."""

    def __init__(self, cfg: PrepConfig, stoplist=frozenset(), emoji_lexicon=None,
                 abusive=frozenset()):
        super().__init__()
        self.cfg = cfg
        self.stops = WordSet(stoplist)
        self.emoji = emoji_lexicon or {}
        self.abusive = WordSet(abusive)
        self.finals: dict[str, str] = {}
        self.stems: dict[str, str] = {}

    def __missing__(self, raw: str) -> Chunk:
        cfg, finals = self.cfg, self.finals
        work = raw
        if cfg.split_hashtags and raw.startswith("#") and len(raw) > 1:
            work = " ".join(split_hashtag(raw))
        if cfg.reduce_elongation:
            work = reduce_elongation(work)
        scores = []
        if cfg.emoji_mode == "remove_and_score":
            work, scores = emoji_scores(work, self.emoji)
        pieces = tokenize(work)
        kept = []
        for piece in pieces if cfg.strip_punct else work.split():
            token = finals.get(piece)
            if token is None:
                token = finals[piece] = _final_token(piece, cfg, self.stops, self.stems)
            if token:
                kept.append(token)
        base = tuple(t.lower() for t in pieces)
        value = self[raw] = (base, tuple(kept), tuple(scores),
                             _COUNTS.pack(*surface_counts(raw, base, self.abusive)))
        return value


_BASE, _FINAL, _SCORES = itemgetter(0), itemgetter(1), itemgetter(2)


def _join(chunks, item) -> tuple:
    """One item of each Chunk, concatenated."""
    return tuple(chain.from_iterable(map(item, chunks)))


class TokenizedTweet:
    """Preprocessing output.

    `tokens` is the final pipeline output; `base_tokens` is the
    tweet-tokenized, lowercased token list before punctuation, stopword and
    stemming filters, kept so downstream feature code sees a view that is
    insensitive to those config flags.  `chunks` holds the Chunk of each
    raw whitespace chunk, in text order.  `preprocess` gives only the raw
    text and the chunks; tokens, base_tokens and emoji_score are then joined
    from the chunks when first read.  A value given to the constructor is
    kept as given.  The attributes are read-only; equality and hash take
    tokens, emoji_score, raw_text and base_tokens, not chunks.
    """
    __slots__ = ("_tokens", "_emoji_score", "_raw_text", "_base_tokens", "_chunks")

    def __init__(self, tokens=None, emoji_score=None, raw_text: str = "", base_tokens=None,
                 chunks: tuple[Chunk, ...] = ()):
        self._tokens = tokens
        self._emoji_score = emoji_score
        self._raw_text = raw_text
        self._base_tokens = base_tokens
        self._chunks = chunks

    raw_text = property(attrgetter("_raw_text"))
    chunks = property(attrgetter("_chunks"))

    @property
    def tokens(self) -> tuple[str, ...]:
        if self._tokens is None:
            self._tokens = _join(self._chunks, _FINAL)
        return self._tokens

    @property
    def base_tokens(self) -> tuple[str, ...]:
        if self._base_tokens is None:
            self._base_tokens = _join(self._chunks, _BASE)
        return self._base_tokens

    @property
    def emoji_score(self) -> float:
        if self._emoji_score is None:
            self._emoji_score = _mean(_join(self._chunks, _SCORES))
        return self._emoji_score

    def _key(self):
        return self.tokens, self.emoji_score, self.raw_text, self.base_tokens

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return ("TokenizedTweet(tokens={!r}, emoji_score={!r}, raw_text={!r}, "
                "base_tokens={!r})".format(*self._key()))


def preprocess(text: str, cfg: PrepConfig = PrepConfig(),
               stoplist=frozenset(), emoji_lexicon=None, memo=None) -> TokenizedTweet:
    """Run the full preprocessing pipeline on one tweet.

    `memo`, a TextMemo such as `cli.Pipeline` keeps, is used with its own
    settings in place of cfg, stoplist and emoji_lexicon; None makes a
    fresh one from them.  The tweet keeps its raw chunks' memo entries.
    """
    if memo is None:
        memo = TextMemo(cfg, stoplist, emoji_lexicon)
    return TokenizedTweet(raw_text=text, chunks=tuple(map(memo.__getitem__, text.split())))

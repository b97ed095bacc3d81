"""Tweet preprocessing: hashtag splitting, elongation reduction, emoji
scoring, tokenization, punctuation/stopword filtering and stemming.

`preprocess` runs the whole-text steps, then one rule per token
(`_final_token`), each step gated by its PrepConfig flag:

    hashtag split -> elongation reduction -> emoji extraction -> tokenize
    -> per token: lowercase, strip punctuation, drop a stopword, stem

A token left empty is dropped.  The placeholders `@USER` and `URL` are
recognised after lowercasing and again after stripping, and pass the later
steps untouched.

Everything after emoji extraction runs once per distinct whitespace chunk
of the text, through a memo from chunk to (base tokens, final tokens).
That is exact: `tokenize` treats each `str.split` chunk on its own, so the
text's pieces are the concatenation of its chunks' pieces, and
`_final_token` sees one piece at a time with nothing but the PrepConfig and
the stoplist, which is why a memo is valid for one such pair only.

Other repeated work is skipped too, each time with the same output:

* each distinct word is stemmed once, through a word -> stem memo that is
  valid for one stem_language (`cli.Pipeline` keeps one per pipeline);
* each character is classified as punctuation once, in a process-wide
  table that the character set bounds;
* hashtag splitting is skipped on text without "#", where it would only
  re-join the chunks with single spaces; the emoji scan is skipped on ASCII
  text, since every emoji unit is non-ASCII; and the punctuation strip is
  skipped on an alphanumeric token, since no alphanumeric character is
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
import unicodedata
from dataclasses import dataclass, fields

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


def extract_emoji_sentiment(text: str, lexicon) -> tuple[str, float]:
    """Remove every emoji unit from text, return the mean lexicon score.

    Each display unit (see emoji_spans) is looked up whole, then, if that
    misses, with its variation selectors and skin tones dropped; a unit
    missing both ways contributes 0 but still counts in the mean's
    denominator.  Stray modifiers with no base are removed unscored.  Text
    without emoji scores 0.0.
    """
    if text.isascii():
        return text, 0.0
    lexicon = lexicon or {}
    out = []
    scores = []
    pos = 0
    for start, end, unit, has_base in emoji_spans(text):
        out.append(text[pos:start])
        pos = end
        if has_base:
            scores.append(lexicon.get(unit, lexicon.get(_LOOKUP_DROPPED.sub("", unit), 0.0)))
    out.append(text[pos:])
    score = sum(scores) / len(scores) if scores else 0.0
    return "".join(out), score


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


@dataclass(frozen=True)
class TokenizedTweet:
    """Preprocessing output.

    `tokens` is the final pipeline output; `base_tokens` is the
    tweet-tokenized, lowercased token list before punctuation, stopword and
    stemming filters, kept so downstream feature code sees a view that is
    insensitive to those config flags.
    """
    tokens: tuple[str, ...]
    emoji_score: float
    raw_text: str
    base_tokens: tuple[str, ...] = ()


def _expand_hashtags(text: str) -> str:
    chunks = []
    for chunk in text.split():
        if chunk.startswith("#") and len(chunk) > 1:
            chunks.extend(split_hashtag(chunk))
        else:
            chunks.append(chunk)
    return " ".join(chunks)


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


def chunk_values(text: str, memo: dict, compute) -> list:
    """[compute(chunk) for chunk in text.split()], with each distinct chunk
    computed once: memo holds the values computed so far and gains the new
    ones."""
    values = []
    for chunk in text.split():
        value = memo.get(chunk)
        if value is None:
            value = memo[chunk] = compute(chunk)
        values.append(value)
    return values


def _chunk_tokens(chunk: str, cfg: PrepConfig, stops: WordSet, stems: dict):
    """(base tokens, final tokens) of one whitespace chunk."""
    pieces = tokenize(chunk)
    kept = (_final_token(t, cfg, stops, stems)
            for t in (pieces if cfg.strip_punct else (chunk,)))
    return tuple(t.lower() for t in pieces), tuple(filter(None, kept))


def preprocess(text: str, cfg: PrepConfig = PrepConfig(),
               stoplist=frozenset(), emoji_lexicon=None, memo=None,
               stems=None) -> TokenizedTweet:
    """Run the full preprocessing pipeline on one tweet.

    `memo` maps a whitespace chunk to its (base tokens, final tokens) and
    is filled as chunks are met.  It is valid for one (cfg, stoplist) pair
    only: pass the same dict only to calls with that pair, as
    `cli.Pipeline` does.  `stems` maps a word to its stem and is filled the
    same way; it is valid for one cfg.stem_language.  None uses a fresh
    dict.
    """
    work = text
    if cfg.split_hashtags and "#" in work:
        work = _expand_hashtags(work)
    if cfg.reduce_elongation:
        work = reduce_elongation(work)
    emoji_score = 0.0
    if cfg.emoji_mode == "remove_and_score":
        work, emoji_score = extract_emoji_sentiment(work, emoji_lexicon)

    stops = WordSet(stoplist)
    stems = {} if stems is None else stems
    base, final = [], []
    for chunk_base, chunk_final in chunk_values(
            work, {} if memo is None else memo,
            lambda chunk: _chunk_tokens(chunk, cfg, stops, stems)):
        base += chunk_base
        final += chunk_final
    return TokenizedTweet(tokens=tuple(final), emoji_score=emoji_score,
                          raw_text=text, base_tokens=tuple(base))

"""Emotion-lexicon profiling: per-class counts of emotion-annotated words.

The lexicon is a word/category/flag TSV over ten fixed categories.  Counting
is context-free: every token occurrence that matches a lexicon word
increments each category the word is flagged for, with no negation handling.
Counts are reported per post, per 1000 posts (default) or per 1000 tokens;
because each normalized value is one float64 division of exact integers
(scaled by 1000), duplicating every post leaves the per-post and per-1000
figures bit-identical.
"""

import logging
from dataclasses import dataclass

from .corpus import Corpus, classes_for, names_file, read_lines
from .errors import ParseError, ValidationError
from .textprep import PrepConfig, TextMemo, preprocess

log = logging.getLogger(__name__)

CATEGORIES = (
    "positive", "negative", "anger", "anticipation", "disgust",
    "fear", "joy", "sadness", "surprise", "trust",
)

BASES = ("per_post", "per_1000_posts", "per_1000_tokens")

# Lexicon words are full surface forms, so the profiling tokenizer must not
# stem; stopwords are left in because they never carry emotion flags.
EMOTION_PREP = PrepConfig(stem=False, remove_stopwords=False)


@names_file
def load_emotion_lexicon(source) -> dict[str, frozenset]:
    """Parse word<TAB>category<TAB>flag lines into word -> active categories.

    Rejects unknown categories, non-0/1 flags and duplicate entries whose
    flags conflict (all ParseError with the line number).  Multi-word
    entries are skipped with a log message.  Words whose flags are all zero
    drop out of the mapping.
    """
    seen: dict[tuple[str, str], int] = {}
    active: dict[str, set] = {}
    for lineno, raw in enumerate(read_lines(source), start=1):
        fields = raw.split("\t")
        if len(fields) != 3:
            raise ParseError(f"expected 3 tab-separated fields, got {len(fields)}", lineno)
        word, category, flag_text = fields
        if not word:
            raise ParseError("empty word", lineno)
        if category not in CATEGORIES:
            raise ParseError(f"unknown emotion category {category!r}", lineno)
        if flag_text not in ("0", "1"):
            raise ParseError(f"flag must be 0 or 1, got {flag_text!r}", lineno)
        if " " in word:
            log.info("skipping multi-word lexicon entry %r (line %d)", word, lineno)
            continue
        flag = int(flag_text)
        key = (word, category)
        if key in seen and seen[key] != flag:
            raise ParseError(
                f"conflicting duplicate entry for {word!r}/{category}: "
                f"{seen[key]} vs {flag}", lineno)
        seen[key] = flag
        if flag:
            active.setdefault(word, set()).add(category)
    return {w: frozenset(cats) for w, cats in active.items()}


@dataclass(frozen=True)
class EmotionProfile:
    label: str
    basis: str
    n_posts: int
    n_tokens: int
    raw: dict[str, int]          # category -> raw occurrence count
    normalized: dict[str, float]


def _normalize(raw: int, basis: str, n_posts: int, n_tokens: int) -> float:
    if basis == "per_post":
        return raw / n_posts if n_posts else 0.0
    if basis == "per_1000_posts":
        return raw / n_posts * 1000.0 if n_posts else 0.0
    return raw / n_tokens * 1000.0 if n_tokens else 0.0


def emotion_counts(corpus: Corpus, lexicon: dict[str, frozenset],
                   basis: str = "per_1000_posts") -> list[EmotionProfile]:
    """One EmotionProfile per level-A class, in canonical class order.

    Tweets without a level-A label are excluded.  Token occurrences count,
    not types: a word appearing twice contributes twice.
    """
    if basis not in BASES:
        raise ValidationError(f"basis must be one of {', '.join(BASES)}, got {basis!r}")
    buckets = {c: {"posts": 0, "tokens": 0, "raw": {cat: 0 for cat in CATEGORIES}}
               for c in classes_for("A")}
    memo = TextMemo(EMOTION_PREP)
    memo.fill(tweet.text for tweet in corpus if tweet.label_a is not None)
    for tweet in corpus:
        label = tweet.label_a
        if label is None:
            continue
        bucket = buckets[label]
        tokens = preprocess(tweet.text, memo=memo).tokens
        bucket["posts"] += 1
        bucket["tokens"] += len(tokens)
        for token in tokens:
            for category in lexicon.get(token, ()):
                bucket["raw"][category] += 1
    profiles = []
    for label, bucket in buckets.items():
        normalized = {cat: _normalize(bucket["raw"][cat], basis,
                                      bucket["posts"], bucket["tokens"])
                      for cat in CATEGORIES}
        profiles.append(EmotionProfile(
            label=label, basis=basis, n_posts=bucket["posts"],
            n_tokens=bucket["tokens"], raw=dict(bucket["raw"]),
            normalized=normalized))
    return profiles


def emotion_report(profiles) -> str:
    """Fixed-order plain-text table, values to three decimals."""
    profiles = list(profiles)
    if not profiles:
        raise ValidationError("no profiles to report")
    basis = profiles[0].basis
    head_left = "category"
    left = max(len(head_left), max(len(c) for c in CATEGORIES))
    cols = [(p.label, max(len(p.label), 8)) for p in profiles]
    lines = [f"basis: {basis}",
             "posts: " + ", ".join(f"{p.label}={p.n_posts}" for p in profiles),
             head_left.ljust(left) + "  " + "  ".join(l.rjust(w) for l, w in cols)]
    for category in CATEGORIES:
        cells = "  ".join(f"{p.normalized[category]:.3f}".rjust(w)
                          for p, (_, w) in zip(profiles, cols))
        lines.append(category.ljust(left) + "  " + cells)
    return "\n".join(lines)

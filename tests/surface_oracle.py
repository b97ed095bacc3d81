"""The per-character surface block used to cross-check the chunk counts.

This is the package's per-tweet surface block before its counts were taken
once per distinct whitespace chunk and summed: it runs the placeholder patterns over the
whole raw text, scans every character of it for punctuation, letters and
capitals, and filters the whole token list for words and abusive tokens.
The patterns are imported from the package, since they are not what this
oracle checks.
"""

import unicodedata

from offlang.features import SurfaceFeatures
from offlang.textprep import _MENTION_RE, _URL_RE, WordSet, is_placeholder


def oracle_surface(raw_text: str, tokens, abusive_lexicon, emoji_score: float) -> SurfaceFeatures:
    abusive = WordSet(abusive_lexicon)
    words = [t for t in tokens if t.isalpha() and not is_placeholder(t)]
    letters = [ch for ch in raw_text if ch.isalpha()]
    uppers = sum(1 for ch in letters if ch.isupper())
    return SurfaceFeatures(
        url_count=float(len(_URL_RE.findall(raw_text))),
        mention_count=float(len(_MENTION_RE.findall(raw_text))),
        char_count=float(len(raw_text)),
        punct_count=float(sum(1 for ch in raw_text
                              if unicodedata.category(ch).startswith("P"))),
        word_count=float(len(words)),
        avg_word_len=(sum(len(w) for w in words) / len(words)) if words else 0.0,
        capital_pct=(uppers / len(letters)) if letters else 0.0,
        abusive_count=float(sum(1 for t in tokens if t.lower() in abusive)),
        emoji_score=float(emoji_score),
    )

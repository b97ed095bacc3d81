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


def oracle_counts(raw_text: str, tokens) -> tuple[int, ...]:
    """The seven integer counts behind oracle_surface: URL and @USER
    matches, punctuation, letters and capitals in the raw text, then words
    and their letters among tokens."""
    words = [t for t in tokens if t.isalpha() and not is_placeholder(t)]
    letters = [ch for ch in raw_text if ch.isalpha()]
    return (len(_URL_RE.findall(raw_text)), len(_MENTION_RE.findall(raw_text)),
            sum(1 for ch in raw_text if unicodedata.category(ch).startswith("P")),
            len(letters), sum(1 for ch in letters if ch.isupper()),
            len(words), sum(len(w) for w in words))


def oracle_surface(raw_text: str, tokens, abusive_lexicon, emoji_score: float) -> SurfaceFeatures:
    abusive = WordSet(abusive_lexicon)
    urls, mentions, puncts, letters, uppers, words, word_letters = oracle_counts(raw_text, tokens)
    return SurfaceFeatures(
        url_count=float(urls),
        mention_count=float(mentions),
        char_count=float(len(raw_text)),
        punct_count=float(puncts),
        word_count=float(words),
        avg_word_len=(word_letters / words) if words else 0.0,
        capital_pct=(uppers / letters) if letters else 0.0,
        abusive_count=float(sum(1 for t in tokens if t.lower() in abusive)),
        emoji_score=float(emoji_score),
    )

"""The list-pass `preprocess` used to cross-check textprep's per-token rule.

This is the pipeline before its token filters became one function: after
the whole-text steps and `tokenize`, it lowercases the token list, strips
punctuation from every non-placeholder and drops what is left empty, drops
stopwords (placeholders stay) and stems the all-alphabetic tokens, one list
pass per step, each step testing `is_placeholder` on the token as that step
sees it.  Its whole-text steps run over the whole text, where the package
runs them once per raw whitespace chunk.  The step functions, the tokenizer
and the stemmers are imported from the package, since they are not what
this oracle checks.  It returns its own named tuple, which `view` makes of
a TokenizedTweet for comparison.
"""

import unicodedata
from typing import NamedTuple

from offlang import stemming
from offlang.textprep import (WordSet, extract_emoji_sentiment, is_placeholder,
                              reduce_elongation, split_hashtag, tokenize)


class OracleTweet(NamedTuple):
    tokens: tuple[str, ...]
    emoji_score: float
    raw_text: str
    base_tokens: tuple[str, ...]


def view(tweet) -> OracleTweet:
    """A TokenizedTweet's values, as oracle_preprocess returns them."""
    return OracleTweet(tweet.tokens, tweet.emoji_score, tweet.raw_text, tweet.base_tokens)


def _expand_hashtags(text: str) -> str:
    chunks = []
    for chunk in text.split():
        if chunk.startswith("#") and len(chunk) > 1:
            chunks.extend(split_hashtag(chunk))
        else:
            chunks.append(chunk)
    return " ".join(chunks)


def remove_stopwords(tokens, stoplist) -> list[str]:
    """Drop tokens on the stoplist, case-insensitively; placeholders stay."""
    stops = WordSet(stoplist)
    return [t for t in tokens if is_placeholder(t) or t.lower() not in stops]


def _strip_punct_from(token: str) -> str:
    return "".join(ch for ch in token if not unicodedata.category(ch).startswith("P"))


def oracle_preprocess(text, cfg, stoplist=frozenset(), emoji_lexicon=None) -> OracleTweet:
    work = text
    if cfg.split_hashtags:
        work = _expand_hashtags(work)
    if cfg.reduce_elongation:
        work = reduce_elongation(work)
    emoji_score = 0.0
    if cfg.emoji_mode == "remove_and_score":
        work, emoji_score = extract_emoji_sentiment(work, emoji_lexicon)

    tweet_tokens = tokenize(work)
    base_tokens = tuple(t.lower() for t in tweet_tokens)
    tokens = tweet_tokens if cfg.strip_punct else work.split()
    if cfg.lowercase:
        tokens = [t.lower() for t in tokens]
    if cfg.strip_punct:
        stripped = (t if is_placeholder(t) else _strip_punct_from(t) for t in tokens)
        tokens = [t for t in stripped if t]
    if cfg.remove_stopwords:
        tokens = remove_stopwords(tokens, stoplist)
    if cfg.stem:
        tokens = [t if is_placeholder(t) or not t.isalpha()
                  else stemming.stem(t, cfg.stem_language) for t in tokens]
    return OracleTweet(tuple(tokens), emoji_score, text, base_tokens)

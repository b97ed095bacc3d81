"""The two-pass vocabulary fit, used to cross-check features.fit_vocabulary.

This is `features.fit_vocabulary` before it counted each document's
distinct terms in one pass: it counts document frequencies over `set(doc)`,
records each term's first occurrence in a second walk over every term, and
sorts the surviving terms by it.
"""

from offlang.errors import ValidationError
from offlang.features import Vocabulary


def oracle_fit_vocabulary(docs, min_df: int = 2) -> Vocabulary:
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

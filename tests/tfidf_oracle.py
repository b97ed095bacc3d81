"""The per-pair `tfidf` used to check features' IDF table bit for bit.

This is `features.tfidf` before the IDF became a per-vocabulary table: it
computes the IDF of a term each time a document holds it, with the same
expression, then weights, sums the squares left to right and normalizes as
the package does, so the two must agree with float ==, not approximately.
"""

import math


def oracle_tfidf_exact(doc, vocab) -> list[tuple[int, float]]:
    tf: dict[int, int] = {}
    index = vocab.index
    for term in doc:
        i = index.get(term)
        if i is not None:
            tf[i] = tf.get(i, 0) + 1
    if not tf:
        return []
    entries = []
    for i, count in sorted(tf.items()):
        idf = math.log((1 + vocab.n_docs) / (1 + vocab.df[i])) + 1.0
        entries.append((i, count * idf))
    squares = 0.0
    for _, w in entries:
        squares += w * w
    norm = math.sqrt(squares)
    return [(i, w / norm) for i, w in entries]

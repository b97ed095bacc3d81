"""Stratified k-fold assignment as lists and set complements, used to
cross-check forest.kfold's fold-number array.

Each class's rows are shuffled by the same stream forest.kfold draws from
and dealt into k consecutive chunks whose sizes differ by at most one; the
chunk sizes of one class start at the fold after the last remainder row of
the class before it, so overall fold sizes also differ by at most one.  A
fold's test rows are its chunks, sorted, and its training rows are the
complement of the test rows in range(n).
"""

import numpy as np

from offlang.rng import TAG_SHUFFLE, stream


def oracle_kfold(n: int, k: int, y, seed: int = 0):
    rng = stream(seed, TAG_SHUFFLE)
    folds: list[list[int]] = [[] for _ in range(k)]
    y = np.asarray(y)
    offset = 0
    for value in np.unique(y):
        members = rng.permutation(np.nonzero(y == value)[0])
        base, extra = divmod(len(members), k)
        start = 0
        for j in range(k):
            fold = (offset + j) % k
            size = base + (1 if j < extra else 0)
            folds[fold].extend(members[start:start + size])
            start += size
        offset = (offset + extra) % k
    out = []
    everything = set(range(n))
    for fold in folds:
        test = np.asarray(sorted(fold), dtype=np.int64)
        train = np.asarray(sorted(everything - set(fold)), dtype=np.int64)
        out.append((train, test))
    return out

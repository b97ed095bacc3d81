"""Row-by-row prediction oracle used to cross-check forest.predict_proba.

Each row of dense X is walked alone from the root: at a split it reads
X[row, feature] of the node and goes left when that value is <= the
node's threshold, until it reaches a leaf.  A tree's estimate for a row
is its leaf's class counts over their sum; the forest's is the mean of
the trees' estimates, added up in tree order and divided once, so it
matches predict_proba bit for bit.
"""

import numpy as np


def oracle_leaf(tree, x) -> int:
    """The leaf of `tree` the row x reaches."""
    node = 0
    while tree.feature[node] >= 0:
        go_left = x[tree.feature[node]] <= tree.threshold[node]
        node = int(tree.left[node] if go_left else tree.right[node])
    return node


def oracle_predict_proba(model, X) -> np.ndarray:
    """Mean over the model's trees of each row's leaf distribution, in tree order."""
    X = np.asarray(X, dtype=np.float64)
    acc = np.zeros((len(X), len(model.classes)), dtype=np.float64)
    for tree in model.trees:
        leaf_counts = np.array([tree.counts[oracle_leaf(tree, x)] for x in X],
                               dtype=np.float64).reshape(len(X), len(model.classes))
        acc += leaf_counts / leaf_counts.sum(axis=1, keepdims=True)
    return acc / len(model.trees)

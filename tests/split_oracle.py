"""Dense per-feature split search used to cross-check forest._best_split.

This is the search before it went sparse: for each sampled feature it
gathers the node's column from the dense matrix (one entry per row of
`idx`, repeats included), argsorts it, and takes cumulative class counts
over the sorted rows.  Boundaries, the min_samples_leaf filter, the float
score, the 1e-9 * n margin, the clamped midpoint threshold and the exact
Fraction re-score in (feature, threshold) order are the conventions the
sparse search must match bit for bit.
"""

from fractions import Fraction

import numpy as np


def _exact_q(left_counts, total_counts, n_left, n_right) -> Fraction:
    sl = sum(int(c) * int(c) for c in left_counts)
    sr = sum(int(t - c) * int(t - c) for t, c in zip(total_counts, left_counts))
    return Fraction(sl, n_left) + Fraction(sr, n_right)


def oracle_best_split(X, y, idx, feat_ids, n_classes, min_leaf):
    """(feature, threshold) of the exact-minimum weighted-Gini split of the
    rows `idx` of dense X over the features `feat_ids`, or None."""
    n = len(idx)
    onehot_rows = np.eye(n_classes, dtype=np.int64)[y[idx]]
    total = onehot_rows.sum(axis=0)

    per_feature = []
    fmin = np.inf
    for f in feat_ids:
        x = X[idx, f]
        order = np.argsort(x, kind="stable")
        xs = x[order]
        if xs[0] == xs[-1]:
            continue
        cum = onehot_rows[order].cumsum(axis=0)
        pos = np.nonzero(xs[1:] > xs[:-1])[0] + 1
        pos = pos[(pos >= min_leaf) & (n - pos >= min_leaf)]
        if pos.size == 0:
            continue
        left_counts = cum[pos - 1]
        n_left = pos.astype(np.float64)
        n_right = n - n_left
        sl = np.square(left_counts).sum(axis=1).astype(np.float64)
        sr = np.square(total[np.newaxis, :] - left_counts).sum(axis=1).astype(np.float64)
        score = (n_left - sl / n_left) + (n_right - sr / n_right)  # n * weighted Gini
        per_feature.append((int(f), xs, pos, left_counts, score))
        fmin = min(fmin, float(score.min()))

    if not per_feature:
        return None

    margin = fmin + 1e-9 * max(1.0, float(n))
    best_q = None
    best = None
    for f, xs, pos, left_counts, score in per_feature:
        for j in np.nonzero(score <= margin)[0]:
            p = int(pos[j])
            lo = float(xs[p - 1])
            hi = float(xs[p])
            t = (lo + hi) / 2.0
            if t >= hi:
                t = lo
            q = _exact_q(left_counts[j], total, p, n - p)
            # Strict improvement keeps the lowest feature, lowest threshold.
            if best_q is None or q > best_q:
                best_q = q
                best = (f, t)
    return best

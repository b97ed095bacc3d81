"""From-scratch random forest over Gini-impurity decision trees, plus
stratified k-fold cross-validation and grid search.

X is a dense 2-D array or `Columns`, the compressed sparse columns
`train` and `cv` pass.  Training transposes dense X into Columns, so both
take one path.  Prediction routes Columns through each tree in preorder,
node by node, with the split test growth uses (_goes_left); dense X,
`predict`'s small blocks, walks level by level.

Trees read X as `Columns`: each feature's nonzero entries in ascending
value order, with their row numbers, sorted once when they are built.
The TF-IDF features are over 99 % zeros, so a node's split search reads
only its nonzeros, and it sorts nothing.  At a node, the entries of the
sampled columns that fall on the node's rows are weighted by each row's
multiplicity (bootstrap repeats rows); they stay in (feature, value)
order, equal (feature, value) runs are summed, and each feature gets one
zero run at value 0.0, after its negative runs (emoji scores), holding the
node's class totals minus that feature's nonzero class counts.  Class
counts are then accumulated within each feature.

This is exact.  For every distinct value of every feature it gives the
class counts of the rows at or below that value, which is all the dense
sort-and-cumsum of the node's column gives at its boundaries.  The float
score is then computed from the same integers by the same operations.
Stored values are nonzero: -0.0 counts as zero, and no threshold depends
on a zero's sign.  Non-finite values are rejected, so equal values group
exactly.

Split selection is exact: a vectorized float64 scan finds the near-minimal
weighted-Gini candidates, then every candidate within a small margin of the
float minimum is re-scored with exact integer/Fraction arithmetic.  The
winner is the exact minimum; ties break to the lowest feature index, then
the lowest threshold.  Candidate thresholds are float64 midpoints between
consecutive distinct sorted values (clamped down to the lower value when
rounding reaches the upper), the predicate is x <= threshold, children must
each hold min_samples_leaf rows, and zero-gain splits are taken; a node
becomes a leaf on purity, the depth limit, or no candidates.

Determinism: every random draw comes from a named stream derived from the
seed (rng.stream), one stream per tree and per CV fold, so results are
bit-identical from run to run.  Trees are laid out in preorder
(node, left subtree, right subtree) and the per-node feature subset is
drawn exactly once, at the moment the node attempts to split (no draw when
the subset is every feature).

Lock step: grid_search grows all k * n_trees trees of a grid point's folds
side by side; cross_validate is the one-point grid search.  Each step
advances every unfinished tree to its next node that needs a split search,
drawing that node's features from the tree's own stream, and searches all
of those nodes at once (_best_splits): every (node, sampled feature) pair
is one segment of the same arrays, and each node keeps its own float
minimum, margin and exact re-score.  The search also owns the class
counts: each tree's root is counted once from its rows, and a split hands
its left child the chosen split's left counts and its right child the
rest, so no node is counted again.  This changes no byte.  Trees share
no stream (Breiman 2001 grows them independently), and within a tree the
nodes are still visited, and their features drawn, in preorder, so each
tree is the one grown alone.  Trees are grown in waves of at most
_WAVE_CELLS // n_rows trees, because a step weighs entries through a table
of one row multiplicity per (tree, corpus row); train_tree is a wave of
one tree.
"""

import itertools
import json
import struct
import sys
from dataclasses import asdict, dataclass, replace
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .errors import (ModelFormatError, ModelTruncatedError, ModelVersionError,
                     ValidationError)
from .corpus import LEVELS
from .metrics import confusion, scores
from .rng import MASK64, TAG_FOLD, TAG_SHUFFLE, TAG_TREE, stream

MAX_FEATURES_CHOICES = ("sqrt", "all")

_MAGIC = b"RFMF"
_VERSION = 1


@dataclass(frozen=True)
class ForestParams:
    n_trees: int = 100
    max_depth: int | None = None
    min_samples_leaf: int = 1
    max_features: str | float = "sqrt"
    seed: int = 0
    bootstrap: bool = True

    def __post_init__(self):
        # grid_search slices each fold's trees by n_trees.
        if not 1 <= self.n_trees <= sys.maxsize:
            raise ValidationError(f"n_trees must be in 1..{sys.maxsize}, got {self.n_trees}")
        if self.max_depth is not None and self.max_depth < 1:
            raise ValidationError(f"max_depth must be >= 1 or None, got {self.max_depth}")
        if self.min_samples_leaf < 1:
            raise ValidationError(
                f"min_samples_leaf must be >= 1, got {self.min_samples_leaf}")
        mf = self.max_features
        if isinstance(mf, str):
            if mf not in MAX_FEATURES_CHOICES:
                raise ValidationError(
                    f"max_features must be one of {', '.join(MAX_FEATURES_CHOICES)} "
                    f"or a fraction in (0, 1], got {mf!r}")
        elif not (isinstance(mf, (int, float)) and 0.0 < float(mf) <= 1.0):
            raise ValidationError(f"max_features fraction must be in (0, 1], got {mf!r}")

    def to_jsonable(self) -> dict:
        return asdict(self)


@dataclass
class Tree:
    """Flat preorder node arrays; feature == -1 marks a leaf."""
    feature: np.ndarray    # int32
    threshold: np.ndarray  # float64
    left: np.ndarray       # int32
    right: np.ndarray      # int32
    counts: np.ndarray     # (n_nodes, n_classes) int64


@dataclass
class ForestModel:
    classes: tuple[str, ...]
    params: ForestParams
    n_features: int
    trees: list[Tree]


def _n_subset_features(params: ForestParams, n_features: int) -> int:
    if params.max_features == "all":
        return n_features
    if params.max_features == "sqrt":
        return max(1, int(np.sqrt(n_features)))
    return max(1, int(float(params.max_features) * n_features))


def _exact_q(left_counts, total_counts, n_left, n_right) -> Fraction:
    """Exact split quality sum(c^2)/n summed over both sides.

    For a fixed node, minimizing weighted Gini is equivalent to maximizing
    this quantity, and it stays in integer arithmetic.
    """
    sl = sum(int(c) * int(c) for c in left_counts)
    sr = sum(int(t - c) * int(t - c) for t, c in zip(total_counts, left_counts))
    return Fraction(sl, n_left) + Fraction(sr, n_right)


class Columns(NamedTuple):
    """A feature matrix as compressed sparse columns: column f's nonzero
    values sit at values[indptr[f]:indptr[f + 1]] in ascending order (equal
    values in no particular order) with their rows at
    rows[indptr[f]:indptr[f + 1]]."""
    indptr: np.ndarray  # int64, n_features + 1
    rows: np.ndarray    # int64
    values: np.ndarray  # float64, finite and nonzero
    n_rows: int

    @property
    def n_features(self) -> int:
        return len(self.indptr) - 1

    @property
    def shape(self) -> tuple[int, int]:
        return self.n_rows, self.n_features

    @property
    def itemsize(self) -> int:
        """Bytes per stored value.  perfbench's traced `train` reads it for
        `forest.bootstrap_mb`."""
        return self.values.itemsize

    @classmethod
    def from_entries(cls, rows, cols, values, shape) -> "Columns":
        """The Columns of a shape = (n_rows, n_features) matrix whose
        entries are (rows[i], cols[i], values[i]), every other cell 0.0.
        A non-finite value is rejected and stored zeros of either sign are
        dropped."""
        cols = np.array(cols, dtype=np.int64)
        if not np.isfinite(values).all():
            raise ValidationError("X holds a non-finite value")
        nonzero = values != 0
        if not nonzero.all():
            rows, cols, values = rows[nonzero], cols[nonzero], values[nonzero]
        n_rows, n_features = shape
        indptr = np.zeros(n_features + 1, dtype=np.int64)
        np.cumsum(np.bincount(cols, minlength=n_features), out=indptr[1:])
        # Order by (feature, value rank): one integer sort, faster than a
        # lexsort, and equal values need no particular order.  The key
        # reuses cols' memory and temporaries are freed early, so no more
        # nnz-long arrays are alive at once than for an unsorted build.
        key = np.multiply(cols, len(values), out=cols)
        rank = np.empty_like(key)
        rank[np.argsort(values)] = np.arange(len(values))
        key += rank
        order = np.argsort(key)
        del cols, key, rank
        return cls(indptr, rows[order], values[order], n_rows)


def _columns(X) -> Columns:
    """X's Columns: Columns as given, dense 2-D X's nonzeros transposed."""
    if isinstance(X, Columns):
        return X
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise ValidationError("X must be 2-D")
    rows, cols = np.nonzero(X)
    return Columns.from_entries(rows, cols, X[rows, cols], X.shape)


def _goes_left(cols: Columns, f: int, t: float, idx) -> np.ndarray:
    """Whether column f's value is <= t at each of the rows idx."""
    lo, hi = cols.indptr[f], cols.indptr[f + 1]
    left = np.full(cols.n_rows, 0.0 <= t)
    left[cols.rows[lo:hi]] = cols.values[lo:hi] <= t
    return left[idx]


def _best_splits(cols: Columns, y, nodes, n_classes, min_leaf):
    """The exact-minimum weighted-Gini split of each node in `nodes`, a
    list of (idx, feat_ids, total): the node's rows (repeats allowed), the
    ascending features to search and the rows' class counts.

    Returns one (feature, threshold, left_counts) or None per node, where
    left_counts are the class counts of the node's rows with a value at or
    below the threshold.  The nodes are searched together: every (node,
    sampled feature) pair is one segment, already in (segment, value) order
    because the columns are sorted.  Two passes per node: a float64 scan for
    its near-minimal score, then exact re-scoring of its candidates within
    the node's float margin when there are several.
    """
    n_nodes = len(nodes)
    n_rows = cols.n_rows
    total = np.array([t for _, _, t in nodes], dtype=np.int64).reshape(n_nodes, n_classes)
    n = total.sum(axis=1)
    # Row multiplicities, one n_rows-long block per node.
    weight = np.bincount(np.concatenate([idx + b * n_rows
                                         for b, (idx, _, _) in enumerate(nodes)]),
                         minlength=n_nodes * n_rows)

    # The segments' column entries on their node's rows, tagged 0..S-1 by
    # segment and weighted by row multiplicity.
    seg_feat = np.concatenate([f for _, f, _ in nodes]).astype(np.int64)
    seg_node = np.repeat(np.arange(n_nodes), [len(f) for _, f, _ in nodes])
    n_segs = len(seg_feat)
    start = cols.indptr[seg_feat]
    length = cols.indptr[seg_feat + 1] - start
    end = np.cumsum(length)
    entry = np.arange(length.sum()) + np.repeat(start - (end - length), length)
    seg = np.repeat(np.arange(n_segs), length)
    row = cols.rows[entry]
    w = weight[row + np.repeat(seg_node * n_rows, length)]
    on = np.nonzero(w)[0]
    entry, seg, w = entry[on], seg[on], w[on]
    label = y[row[on]]
    value = cols.values[entry]

    # Runs of equal (segment, value), already in order, and their class
    # counts; count arrays are class-major, (n_classes, runs).
    run = np.ones(len(seg), dtype=bool)
    run[1:] = (seg[1:] != seg[:-1]) | (value[1:] != value[:-1])
    run_id = np.cumsum(run) - 1
    run = np.nonzero(run)[0]
    n_runs = len(run)
    run_seg, run_value = seg[run], value[run]
    run_counts = np.bincount(label * n_runs + run_id, weights=w, minlength=n_classes * n_runs)

    # One zero run per segment that has zeros in its node, placed after its
    # negative runs; the runs sort by (segment, sign).  A segment with no
    # runs shares its insertion point with the next one, and zs ascends, so
    # the k-th zero run lands at its insertion point + k and the other runs
    # fill the rest in order.  The counts take them through the mask
    # broadcast to every class, in their class-major order.
    seg_total = total[seg_node].T
    nonzero = np.bincount(label * n_segs + seg, weights=w, minlength=n_classes * n_segs)
    zero = seg_total - nonzero.astype(np.int64).reshape(n_classes, n_segs)
    zs = np.nonzero(zero.any(axis=0))[0]
    at = np.searchsorted(2 * run_seg + (run_value > 0), 2 * zs + 1) + np.arange(len(zs))
    size = n_runs + len(zs)
    is_run = np.ones(size, dtype=bool)
    is_run[at] = False
    seg = np.empty(size, dtype=run_seg.dtype)
    seg[at] = zs
    seg[is_run] = run_seg
    value = np.zeros(size)
    value[is_run] = run_value
    counts = np.empty((n_classes, size), dtype=np.int64)
    counts[:, at] = zero[:, zs]
    counts[np.broadcast_to(is_run, counts.shape)] = run_counts
    # Every segment has a run, since a node has rows, and its runs sum to
    # its node's totals, so subtracting the previous segment's totals at
    # each segment's first run leaves the cumulative sum cumulative within
    # the segment.  A boundary follows every value but the last of its
    # segment.
    inner = seg[:-1] == seg[1:]
    counts[:, np.nonzero(~inner)[0] + 1] -= seg_total[:, :-1]
    cum = counts.cumsum(axis=1)
    g = np.nonzero(inner)[0]
    node = seg_node[seg[g]]
    left_counts = cum[:, g]
    pos = left_counts.sum(axis=0)
    ok = (pos >= min_leaf) & (n[node] - pos >= min_leaf)
    g, node, left_counts, pos = g[ok], node[ok], left_counts[:, ok], pos[ok]
    best = [None] * n_nodes
    if g.size == 0:
        return best
    n_left = pos.astype(np.float64)
    n_right = n[node] - n_left
    sl = np.square(left_counts).sum(axis=0).astype(np.float64)
    sr = np.square(total[node].T - left_counts).sum(axis=0).astype(np.float64)
    score = (n_left - sl / n_left) + (n_right - sr / n_right)  # n * weighted Gini

    # Boundaries come in node order; each node has its own float margin.
    per_node = np.bincount(node, minlength=n_nodes)
    has = np.nonzero(per_node)[0]
    first = np.cumsum(per_node[has]) - per_node[has]
    margin = np.minimum.reduceat(score, first) + 1e-9 * np.maximum(1.0, n[has])
    candidates = np.nonzero(score <= np.repeat(margin, per_node[has]))[0]
    several = np.bincount(node[candidates], minlength=n_nodes) > 1
    best_q = [None] * n_nodes
    for j in candidates.tolist():
        b = int(node[j])
        p = int(pos[j])
        lo = float(value[g[j]])
        hi = float(value[g[j] + 1])
        t = (lo + hi) / 2.0
        if t >= hi:
            t = lo
        q = _exact_q(left_counts[:, j], total[b], p, int(n[b]) - p) if several[b] else 0
        # Strict improvement keeps the lowest feature, lowest threshold.
        if best_q[b] is None or q > best_q[b]:
            best_q[b] = q
            # A copy, so that the node's candidate table can be freed.
            best[b] = (int(seg_feat[seg[g[j]]]), t, left_counts[:, j].copy())
    return best


class _Growing:
    """A tree being grown: its preorder node lists, the stack of nodes still
    to visit with their class counts, and the stream its feature subsets are
    drawn from.  Only the root's counts are counted from its rows; each
    child's come from its parent's split search."""

    def __init__(self, rng, rows, counts):
        self.rng = rng
        self.feature: list[int] = []
        self.threshold: list[float] = []
        self.left: list[int] = []
        self.right: list[int] = []
        self.counts: list[np.ndarray] = []
        self.stack = [(rows, counts, 0, -1, False)]

    def next_search(self, params: ForestParams, m: int, n_features: int):
        """Visit nodes until one needs a split search and return (node, idx,
        depth, features); None once the tree is complete.

        Nodes are allocated when popped and the right child is pushed first,
        so indices and RNG draws both follow preorder.
        """
        while self.stack:
            idx, counts, depth, parent, is_right = self.stack.pop()
            node = len(self.feature)
            self.feature.append(-1)
            self.threshold.append(0.0)
            self.left.append(-1)
            self.right.append(-1)
            self.counts.append(counts)
            if parent >= 0:
                (self.right if is_right else self.left)[parent] = node
            n = len(idx)
            if n < 2 or int(counts.max()) == n:
                continue
            if params.max_depth is not None and depth >= params.max_depth:
                continue
            if m < n_features:
                feats = np.sort(self.rng.choice(n_features, size=m, replace=False))
            else:
                feats = np.arange(n_features)
            return node, idx, depth, feats
        return None

    def tree(self) -> Tree:
        return Tree(
            feature=np.asarray(self.feature, dtype=np.int32),
            threshold=np.asarray(self.threshold, dtype=np.float64),
            left=np.asarray(self.left, dtype=np.int32),
            right=np.asarray(self.right, dtype=np.int32),
            counts=np.vstack(self.counts),
        )


# A wave grows at most this many (tree, corpus row) cells of row
# multiplicities at once: 8 MiB of int64, so lock-step memory is bounded by
# the wave, not by the number of trees.
_WAVE_CELLS = 1 << 20


def _grow(cols: Columns, y, k: int, params: ForestParams, jobs):
    """Grow one tree per (rng, rows) job, yielding the trees in job order.

    The trees of a wave grow in lock step: each step advances every
    unfinished tree to its next node that needs a split search and searches
    all of those nodes in one _best_splits call.  Each tree draws only from
    its own stream, in its own preorder, so it is the tree grown alone.
    """
    n_features = cols.n_features
    m = _n_subset_features(params, n_features)
    wave = max(1, _WAVE_CELLS // max(cols.n_rows, 1))
    jobs = iter(jobs)
    while growing := [_Growing(rng, rows, np.bincount(y[rows], minlength=k).astype(np.int64))
                      for rng, rows in itertools.islice(jobs, wave)]:
        while steps := [(t, s) for t in growing
                        if (s := t.next_search(params, m, n_features)) is not None]:
            splits = _best_splits(cols, y, [(idx, feats, t.counts[node])
                                            for t, (node, idx, _, feats) in steps],
                                  k, params.min_samples_leaf)
            for (t, (node, idx, depth, _)), split in zip(steps, splits):
                if split is None:
                    continue
                f, th, left = split
                go_left = _goes_left(cols, f, th, idx)
                t.feature[node] = f
                t.threshold[node] = th
                t.stack.append((idx[~go_left], t.counts[node] - left, depth + 1, node, True))
                t.stack.append((idx[go_left], left, depth + 1, node, False))
        yield from (t.tree() for t in growing)


def train_tree(X, y, params: ForestParams, rng, n_classes: int | None = None,
               rows=None) -> Tree:
    """Grow one tree on the rows of (X, y) listed in `rows` (repeats allowed,
    default every row); y holds class codes 0..k-1.

    X is a dense 2-D array or Columns, as train_forest passes them.
    The tree equals the one grown on the copy (X[rows], y[rows]): a node
    depends on its rows as a multiset, not on their order.  `rng` supplies
    the per-node feature subsets, consumed in preorder.  Bootstrap
    resampling is the forest's job, not this function's.
    """
    cols = _columns(X)
    y = np.asarray(y, dtype=np.int64)
    if y.ndim != 1 or cols.n_rows != len(y):
        raise ValidationError("X must be 2-D and row-aligned with y")
    rows = np.arange(len(y), dtype=np.int64) if rows is None else np.asarray(rows, dtype=np.int64)
    if len(rows) == 0:
        raise ValidationError("cannot train a tree on no rows")
    if rows.min() < 0 or rows.max() >= len(y):
        raise ValidationError(f"row indices must lie in 0..{len(y) - 1}")
    labels = y[rows]
    k = int(n_classes) if n_classes is not None else int(labels.max()) + 1
    if labels.min() < 0 or labels.max() >= k:
        raise ValidationError(f"class codes must lie in 0..{k - 1}")
    return next(_grow(cols, y, k, params, [(rng, rows)]))


# ---------------------------------------------------------------------------
# Forest


def _canonical_classes(labels) -> tuple[str, ...]:
    present = set(labels)
    for classes in LEVELS.values():
        if present <= set(classes):
            return classes
    return tuple(sorted(present))


def _fit_inputs(X, y, classes):
    """X's Columns, the labels y as a list, their class order (`classes`,
    default the canonical level order when the labels all belong to one
    annotation level, else sorted) and their class codes."""
    cols = _columns(X)
    y = list(y)
    classes = tuple(classes) if classes is not None else _canonical_classes(y)
    index = {c: i for i, c in enumerate(classes)}
    try:
        codes = np.asarray([index[label] for label in y], dtype=np.int64)
    except KeyError as exc:
        raise ValidationError(f"label {exc.args[0]!r} not in class list {list(classes)}")
    if cols.n_rows != len(codes):
        raise ValidationError("X and y differ in length")
    return cols, y, classes, codes


def train_forest(X, y, params: ForestParams, classes=None, rows=None) -> ForestModel:
    """Train a bagged forest of params.n_trees trees on the rows of (X, y)
    listed in `rows` (default every row).

    `y` holds a class label for every row of X; `classes` fixes their order
    (see _fit_inputs).  Each tree draws its bootstrap sample, as indices
    into `rows`, and its feature subsets from its own seed-derived stream.
    X's Columns are built once and every tree reads them; no rows are
    copied.
    """
    cols, _, classes, codes = _fit_inputs(X, y, classes)
    rows = np.arange(len(codes), dtype=np.int64) if rows is None else np.asarray(rows, dtype=np.int64)
    if len(rows) == 0:
        raise ValidationError("cannot train on an empty dataset")

    jobs = (_tree_job(params, rows, i) for i in range(params.n_trees))
    trees = [train_tree(cols, codes, params, rng, n_classes=len(classes), rows=tree_rows)
             for rng, tree_rows in jobs]
    return ForestModel(classes=classes, params=params,
                       n_features=cols.n_features, trees=trees)


def _tree_job(params: ForestParams, rows, i: int):
    """Tree i's stream and rows: its bootstrap sample of `rows`, drawn
    first from the stream that then supplies its feature subsets."""
    rng = stream(params.seed, TAG_TREE, i)
    n = len(rows)
    return rng, rows[rng.integers(0, n, size=n)] if params.bootstrap else rows


def _leaves(tree: Tree, cols: Columns, rows) -> np.ndarray:
    """The leaf of `tree` each of `rows` reaches, routed node by node in
    preorder with the split test growth uses."""
    leaf = np.zeros(len(rows), dtype=np.int64)
    stack = [(0, np.arange(len(rows)))]
    while stack:
        node, at = stack.pop()
        f = int(tree.feature[node])
        if f < 0:
            leaf[at] = node
        elif at.size:
            left = _goes_left(cols, f, tree.threshold[node], rows[at])
            stack.append((tree.right[node], at[~left]))
            stack.append((tree.left[node], at[left]))
    return leaf


def _dense_leaves(tree: Tree, X: np.ndarray, rows) -> np.ndarray:
    """The leaf of `tree` each of `rows` of dense X reaches, walked level by
    level: each step moves every row not yet at a leaf one level down.  A
    non-finite value among the cells the walk read is rejected."""
    node = np.zeros(len(rows), dtype=np.int64)
    read = [np.zeros(0)]
    while (active := np.nonzero(tree.feature[node] >= 0)[0]).size:
        cur = node[active]
        read.append(X[rows[active], tree.feature[cur]])
        node[active] = np.where(read[-1] <= tree.threshold[cur], tree.left[cur], tree.right[cur])
    if not np.isfinite(np.concatenate(read)).all():
        raise ValidationError("X holds a non-finite value")
    return node


def predict_proba(model: ForestModel, X, rows=None) -> np.ndarray:
    """Class-frequency estimates for the rows of X listed in `rows` (repeats
    allowed, default every row): mean of the leaf distributions over trees,
    accumulated in tree order (deterministic).

    X is dense or Columns.  Columns route rows node by node (_leaves);
    dense X, `predict`'s small blocks, one level at a time (_dense_leaves).
    A non-finite value in dense X is rejected, as in training, where the
    walk reads it; Columns hold none.
    """
    if isinstance(X, Columns):
        n_rows, width = X.shape
    else:
        X = np.asarray(X, dtype=np.float64)
        n_rows, width = X.shape if X.ndim == 2 else (0, "non-2D")
    if width != model.n_features:
        raise ValidationError(f"expected {model.n_features} features, got {width}")
    rows = np.arange(n_rows) if rows is None else np.asarray(rows, dtype=np.int64)
    if len(rows) and (rows.min() < 0 or rows.max() >= n_rows):
        raise ValidationError(f"row indices must lie in 0..{n_rows - 1}")
    leaves = _leaves if isinstance(X, Columns) else _dense_leaves
    acc = 0.0
    for tree in model.trees:
        leaf = leaves(tree, X, rows)
        leaf_counts = tree.counts[leaf].astype(np.float64)
        acc = acc + leaf_counts / leaf_counts.sum(axis=1, keepdims=True)
    return acc / len(model.trees)


def predict(model: ForestModel, X, rows=None) -> list[str]:
    """Argmax of predict_proba; probability ties go to the lowest class index."""
    proba = predict_proba(model, X, rows)
    return [model.classes[i] for i in np.argmax(proba, axis=1)]


# ---------------------------------------------------------------------------
# Cross-validation and grid search


def kfold(n: int, k: int, y, seed: int = 0):
    """Deterministic stratified k-fold split of range(n) by the labels y.

    Returns k (train_indices, test_indices) pairs of sorted int64 arrays.
    Fold sizes differ by at most one overall, and so do the per-class fold
    counts: each class's remainder rows go to the folds after the previous
    class's, so both guarantees hold at once.
    """
    if k < 2:
        raise ValidationError(f"k must be >= 2, got {k}")
    if k > n:
        raise ValidationError(f"k={k} exceeds the {n} available rows")
    y = np.asarray(y)
    if y.shape != (n,):
        raise ValidationError("labels must align with n")
    rng = stream(seed, TAG_SHUFFLE)
    fold_of = np.empty(n, dtype=np.int64)
    offset = 0
    for value in np.unique(y):
        members = rng.permutation(np.nonzero(y == value)[0])
        base, extra = divmod(len(members), k)
        # Chunk j of the shuffled members, base + (j < extra) rows long,
        # goes to fold (offset + j) % k.
        j = np.arange(k)
        fold_of[members] = np.repeat((offset + j) % k, base + (j < extra))
        offset = (offset + extra) % k
    return [(np.nonzero(fold_of != f)[0], np.nonzero(fold_of == f)[0])
            for f in range(k)]


@dataclass(frozen=True)
class CVResult:
    fold_scores: tuple[float, ...]
    mean: float
    std: float  # population std (ddof=0)


def _fold_seed(seed: int, fold: int) -> int:
    ss = np.random.SeedSequence([int(seed) & MASK64, TAG_FOLD, fold])
    return int(ss.generate_state(1, np.uint64)[0])


def cross_validate(X, y, params: ForestParams, k: int = 10, seed: int = 0,
                   classes=None) -> CVResult:
    """Stratified k-fold macro-F1 for one parameter setting: the one-point
    grid_search."""
    return grid_search([params], X, y, k, seed, classes).results[0][1]


@dataclass(frozen=True)
class GridSearchResult:
    best: ForestParams
    results: tuple[tuple[ForestParams, CVResult], ...]


def grid_search(grid, X, y, k: int = 10, seed: int = 0, classes=None) -> GridSearchResult:
    """Stratified k-fold macro-F1 of every grid point; the best mean wins
    and ties go to the earliest grid position.

    Fold membership and per-fold training seeds derive from `seed` (the
    seed inside each point is ignored), so every point is scored on
    identical folds.  X's Columns (X itself if it is Columns) and the folds
    are built once for all points, and each point's k * n_trees trees grow in lock step (see the
    module docstring).  Each fold's test rows are routed through X's Columns.
    """
    grid = list(grid)
    if not grid:
        raise ValidationError("parameter grid is empty")
    cols, y, classes, codes = _fit_inputs(X, y, classes)
    folds = kfold(len(y), k, codes, seed)
    results = []
    for params in grid:
        fold_params = [replace(params, seed=_fold_seed(seed, i)) for i in range(len(folds))]
        trees = _grow(cols, codes, len(classes), params,
                      (_tree_job(p, train_idx, i)
                       for p, (train_idx, _) in zip(fold_params, folds)
                       for i in range(params.n_trees)))
        fold_scores = []
        for p, (_, test_idx) in zip(fold_params, folds):
            model = ForestModel(classes=classes, params=p, n_features=cols.n_features,
                                trees=list(itertools.islice(trees, params.n_trees)))
            gold = [y[j] for j in test_idx]
            pred = predict(model, cols, test_idx)
            fold_scores.append(scores(confusion(gold, pred, classes), classes).macro_f1)
        arr = np.asarray(fold_scores, dtype=np.float64)
        results.append((params, CVResult(fold_scores=tuple(fold_scores), mean=float(arr.mean()),
                                         std=float(arr.std(ddof=0)))))
    # max keeps the first of equal means.
    best = max(results, key=lambda point: point[1].mean)[0]
    return GridSearchResult(best=best, results=tuple(results))


# ---------------------------------------------------------------------------
# Model serialization (little-endian throughout)


def save_model(model: ForestModel, dest) -> None:
    """Write the binary model format: magic, version, JSON header, then per
    tree a node count and five little-endian node arrays."""
    header = json.dumps({
        "classes": list(model.classes),
        "params": model.params.to_jsonable(),
        "n_features": model.n_features,
        "n_trees": len(model.trees),
    }, sort_keys=True).encode("utf-8")
    chunks = [_MAGIC, struct.pack("<II", _VERSION, len(header)), header]
    for tree in model.trees:
        chunks.append(struct.pack("<I", len(tree.feature)))
        chunks.append(tree.feature.astype("<i4").tobytes())
        chunks.append(tree.threshold.astype("<f8").tobytes())
        chunks.append(tree.left.astype("<i4").tobytes())
        chunks.append(tree.right.astype("<i4").tobytes())
        chunks.append(tree.counts.astype("<u4").tobytes())
    blob = b"".join(chunks)
    if hasattr(dest, "write"):
        dest.write(blob)
    else:
        Path(dest).write_bytes(blob)


def _check_preorder(tree: Tree, n_features: int, t: int) -> None:
    """Reject a tree that prediction could not walk: every split's left
    child follows it, its right child lies after that and inside the tree,
    so every walk moves forward and ends at a leaf with a nonempty class
    distribution."""
    n_nodes = len(tree.feature)
    split = np.nonzero(tree.feature >= 0)[0]
    leaf = tree.feature < 0
    problems = (
        (n_nodes == 0, "has no nodes"),
        (np.any(tree.left[split] != split + 1), "has a left link not to the next node"),
        (np.any((tree.right[split] <= split + 1) | (tree.right[split] >= n_nodes)),
         "has a right link out of order or out of range"),
        (np.any(tree.feature[split] >= n_features),
         f"splits on a feature beyond the model's {n_features}"),
        (np.any(tree.counts[leaf].sum(axis=1) <= 0), "has a leaf with no class counts"),
    )
    for bad, what in problems:
        if bad:
            raise ModelFormatError(f"corrupt model: tree {t} {what}")


def load_model(source) -> ForestModel:
    """Inverse of save_model.

    Raises ModelVersionError on a bad magic, an unsupported version or a
    corrupt header (one declaring no trees, say),
    ModelTruncatedError when the file ends before the declared payload and
    ModelFormatError for a tree that breaks the preorder layout.
    """
    if hasattr(source, "read"):
        blob = source.read()
    elif isinstance(source, bytes):
        blob = source
    else:
        blob = Path(source).read_bytes()

    view = memoryview(blob)
    pos = 0

    def take(nbytes: int, what: str) -> memoryview:
        nonlocal pos
        if pos + nbytes > len(view):
            raise ModelTruncatedError(
                f"model file truncated reading {what}: need {nbytes} bytes at "
                f"offset {pos}, file has {len(view)}")
        out = view[pos:pos + nbytes]
        pos += nbytes
        return out

    if len(view) < 4 or bytes(view[:4]) != _MAGIC:
        raise ModelVersionError("not a forest model file (bad magic)")
    pos = 4
    version, header_len = struct.unpack("<II", take(8, "version header"))
    if version != _VERSION:
        raise ModelVersionError(f"unsupported model format version {version}")
    try:
        header = json.loads(bytes(take(header_len, "JSON header")).decode("utf-8"))
        classes = tuple(header["classes"])
        params = ForestParams(**header["params"])
        n_features = int(header["n_features"])
        n_trees = int(header["n_trees"])
        if n_trees < 1:
            raise ValueError(f"n_trees must be >= 1, got {n_trees}")
    except ModelTruncatedError:
        raise
    except Exception as exc:
        raise ModelVersionError(f"corrupt model header: {exc}") from None

    k = len(classes)
    trees = []
    for t in range(n_trees):
        (n_nodes,) = struct.unpack("<I", take(4, f"tree {t} node count"))
        feature = np.frombuffer(take(4 * n_nodes, f"tree {t} features"), dtype="<i4")
        thresh = np.frombuffer(take(8 * n_nodes, f"tree {t} thresholds"), dtype="<f8")
        left = np.frombuffer(take(4 * n_nodes, f"tree {t} left links"), dtype="<i4")
        right = np.frombuffer(take(4 * n_nodes, f"tree {t} right links"), dtype="<i4")
        counts = np.frombuffer(take(4 * n_nodes * k, f"tree {t} counts"), dtype="<u4")
        trees.append(Tree(
            feature=feature.astype(np.int32),
            threshold=thresh.astype(np.float64),
            left=left.astype(np.int32),
            right=right.astype(np.int32),
            counts=counts.reshape(n_nodes, k).astype(np.int64),
        ))
        _check_preorder(trees[t], n_features, t)
    if pos != len(view):
        raise ModelVersionError(
            f"{len(view) - pos} unexpected trailing bytes after model payload")
    return ForestModel(classes=classes, params=params, n_features=n_features,
                       trees=trees)

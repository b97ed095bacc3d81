"""From-scratch random forest over Gini-impurity decision trees, plus
stratified k-fold cross-validation and grid search.

Trees read the feature matrix as compressed sparse columns (`Columns`):
each feature's nonzero entries as ascending row numbers and their values,
built once per fit from the nonzeros of X.  The TF-IDF features are over
99 % zeros, so a node's split search sorts only its nonzeros.  At a node,
the entries of the sampled columns that fall on the node's rows are
weighted by each row's multiplicity (bootstrap repeats rows), and each
feature gets one zero block at value 0.0 holding the node's class totals
minus that feature's nonzero class counts.  Everything is ordered by
(feature, value), equal (feature, value) runs are summed, and class
counts are accumulated within each feature.  The zero block sorts by its
value like any run, so negative values (emoji scores) come before it.

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
bit-identical regardless of thread count.  Trees are laid out in preorder
(node, left subtree, right subtree) and the per-node feature subset is
drawn exactly once, at the moment the node attempts to split (no draw when
the subset is every feature).
"""

import json
import struct
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, replace
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .errors import (ModelFormatError, ModelTruncatedError, ModelVersionError,
                     ValidationError)
from .corpus import LEVELS
from .rng import MASK64, TAG_FOLD, TAG_SHUFFLE, TAG_TREE, stream

MAX_FEATURES_CHOICES = ("sqrt", "all")

_MAGIC = b"RFMF"
_VERSION = 1


def gini(counts) -> float:
    """Gini impurity 1 - sum((c/n)^2); an empty node has impurity 0."""
    counts = [int(c) for c in counts]
    n = sum(counts)
    if n == 0:
        return 0.0
    return 1.0 - sum((c / n) ** 2 for c in counts)


@dataclass(frozen=True)
class ForestParams:
    n_trees: int = 100
    max_depth: int | None = None
    min_samples_leaf: int = 1
    max_features: str | float = "sqrt"
    seed: int = 0
    bootstrap: bool = True

    def __post_init__(self):
        if self.n_trees < 1:
            raise ValidationError(f"n_trees must be >= 1, got {self.n_trees}")
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
    entries sit at rows[indptr[f]:indptr[f + 1]] (ascending) with values
    values[indptr[f]:indptr[f + 1]]."""
    indptr: np.ndarray  # int64, n_features + 1
    rows: np.ndarray    # int64
    values: np.ndarray  # float64, finite and nonzero
    n_rows: int

    @property
    def n_features(self) -> int:
        return len(self.indptr) - 1


def _columns(X) -> Columns:
    """The Columns of dense X.

    The nonzeros are found 2**20 cells at a time, so no dense temporary is
    made beyond a 1 MiB comparison mask; np.nonzero on the float matrix
    itself is several times slower.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise ValidationError("X must be 2-D")
    n_rows, n_features = X.shape
    flat = X.reshape(-1)
    step = 1 << 20
    at = np.concatenate([np.flatnonzero(flat[s:s + step] != 0) + s
                         for s in range(0, max(flat.size, 1), step)])
    rows, feats = np.divmod(at, max(n_features, 1))
    order = np.argsort(feats, kind="stable")
    values = flat[at[order]]
    if not np.isfinite(values).all():
        raise ValidationError("X holds a non-finite value")
    indptr = np.zeros(n_features + 1, dtype=np.int64)
    np.cumsum(np.bincount(feats, minlength=n_features), out=indptr[1:])
    return Columns(indptr, rows[order], values, n_rows)


def _goes_left(cols: Columns, f: int, t: float, idx) -> np.ndarray:
    """Whether column f's value is <= t at each of the rows idx."""
    lo, hi = cols.indptr[f], cols.indptr[f + 1]
    left = np.full(cols.n_rows, 0.0 <= t)
    left[cols.rows[lo:hi]] = cols.values[lo:hi] <= t
    return left[idx]


def _best_split(cols: Columns, y, idx, feat_ids, n_classes, min_leaf, total=None):
    """Exact-minimum weighted-Gini split of the rows idx over the features
    in the ascending array feat_ids; `total` is the rows' class counts, if
    the caller has them.

    Returns (feature, threshold) or None.  Two passes: a float64 scan for
    the near-minimal score, then exact re-scoring of the candidates within
    the float margin when there are several.
    """
    n = len(idx)
    m = len(feat_ids)
    if total is None:
        total = np.bincount(y[idx], minlength=n_classes)
    weight = np.bincount(idx, minlength=cols.n_rows)

    # The sampled columns' entries on the node's rows, tagged 0..m-1 by
    # feature and weighted by row multiplicity.
    start = cols.indptr[feat_ids]
    length = cols.indptr[feat_ids + 1] - start
    end = np.cumsum(length)
    entry = np.arange(length.sum()) + np.repeat(start - (end - length), length)
    feat = np.repeat(np.arange(m), length)
    w = weight[cols.rows[entry]]
    on = np.nonzero(w)[0]
    entry, feat, w = entry[on], feat[on], w[on]
    label = y[cols.rows[entry]]
    counts = np.zeros((len(on), n_classes), dtype=np.int64)
    counts[np.arange(len(on)), label] = w

    # One zero block per feature that has zeros in the node.
    nonzero = np.bincount(feat * n_classes + label, weights=w, minlength=m * n_classes)
    zero = total - nonzero.astype(np.int64).reshape(m, n_classes)
    zf = np.nonzero(zero.any(axis=1))[0]
    feat = np.concatenate((feat, zf))
    value = np.concatenate((cols.values[entry], np.zeros(len(zf))))
    counts = np.concatenate((counts, zero[zf]))

    order = np.lexsort((value, feat))
    feat, value, counts = feat[order], value[order], counts[order]
    run = np.ones(len(feat), dtype=bool)
    run[1:] = (feat[1:] != feat[:-1]) | (value[1:] != value[:-1])
    run = np.nonzero(run)[0]
    feat, value = feat[run], value[run]
    # Every feature's runs sum to `total`, so subtracting the totals of the
    # features before it leaves counts cumulative within the feature.
    cum = np.add.reduceat(counts, run, axis=0).cumsum(axis=0) - feat[:, None] * total

    # A boundary follows every value but the last of its feature.
    g = np.nonzero(feat[:-1] == feat[1:])[0]
    left_counts = cum[g]
    pos = left_counts.sum(axis=1)
    ok = (pos >= min_leaf) & (n - pos >= min_leaf)
    g, left_counts, pos = g[ok], left_counts[ok], pos[ok]
    if g.size == 0:
        return None
    n_left = pos.astype(np.float64)
    n_right = n - n_left
    sl = np.square(left_counts).sum(axis=1).astype(np.float64)
    sr = np.square(total[np.newaxis, :] - left_counts).sum(axis=1).astype(np.float64)
    score = (n_left - sl / n_left) + (n_right - sr / n_right)  # n * weighted Gini

    margin = float(score.min()) + 1e-9 * max(1.0, float(n))
    candidates = np.nonzero(score <= margin)[0]
    best_q = None
    best = None
    for j in candidates:
        p = int(pos[j])
        lo = float(value[g[j]])
        hi = float(value[g[j] + 1])
        t = (lo + hi) / 2.0
        if t >= hi:
            t = lo
        q = _exact_q(left_counts[j], total, p, n - p) if len(candidates) > 1 else 0
        # Strict improvement keeps the lowest feature, lowest threshold.
        if best_q is None or q > best_q:
            best_q = q
            best = (int(feat_ids[feat[g[j]]]), t)
    return best


def train_tree(X, y, params: ForestParams, rng, n_classes: int | None = None,
               rows=None) -> Tree:
    """Grow one tree on the rows of (X, y) listed in `rows` (repeats allowed,
    default every row); y holds class codes 0..k-1.

    X is a dense 2-D array or its Columns, as train_forest passes them.
    The tree equals the one grown on the copy (X[rows], y[rows]): a node
    depends on its rows as a multiset, not on their order.  `rng` supplies
    the per-node feature subsets, consumed in preorder.  Bootstrap
    resampling is the forest's job, not this function's.
    """
    cols = X if isinstance(X, Columns) else _columns(X)
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
    n_features = cols.n_features
    m = _n_subset_features(params, n_features)

    feature: list[int] = []
    threshold: list[float] = []
    left: list[int] = []
    right: list[int] = []
    counts: list[np.ndarray] = []

    def new_node(idx) -> int:
        node = len(feature)
        feature.append(-1)
        threshold.append(0.0)
        left.append(-1)
        right.append(-1)
        counts.append(np.bincount(y[idx], minlength=k).astype(np.int64))
        return node

    # Nodes are allocated when popped and the right child is pushed first,
    # so indices and RNG draws both follow preorder.
    stack = [(rows, 0, -1, False)]
    while stack:
        idx, depth, parent, is_right = stack.pop()
        node = new_node(idx)
        if parent >= 0:
            if is_right:
                right[parent] = node
            else:
                left[parent] = node
        n = len(idx)
        if n < 2 or int(counts[node].max()) == n:
            continue
        if params.max_depth is not None and depth >= params.max_depth:
            continue
        if m < n_features:
            feats = np.sort(rng.choice(n_features, size=m, replace=False))
        else:
            feats = np.arange(n_features)
        split = _best_split(cols, y, idx, feats, k, params.min_samples_leaf, counts[node])
        if split is None:
            continue
        f, t = split
        go_left = _goes_left(cols, f, t, idx)
        feature[node] = f
        threshold[node] = t
        stack.append((idx[~go_left], depth + 1, node, True))
        stack.append((idx[go_left], depth + 1, node, False))

    return Tree(
        feature=np.asarray(feature, dtype=np.int32),
        threshold=np.asarray(threshold, dtype=np.float64),
        left=np.asarray(left, dtype=np.int32),
        right=np.asarray(right, dtype=np.int32),
        counts=np.vstack(counts),
    )


# ---------------------------------------------------------------------------
# Forest


def _canonical_classes(labels) -> tuple[str, ...]:
    present = set(labels)
    for classes in LEVELS.values():
        if present <= set(classes):
            return classes
    return tuple(sorted(present))


def _encode_labels(y, classes) -> np.ndarray:
    index = {c: i for i, c in enumerate(classes)}
    try:
        return np.asarray([index[label] for label in y], dtype=np.int64)
    except KeyError as exc:
        raise ValidationError(f"label {exc.args[0]!r} not in class list {list(classes)}")


def train_forest(X, y, params: ForestParams, classes=None, threads: int = 1,
                 rows=None) -> ForestModel:
    """Train a bagged forest of params.n_trees trees on the rows of (X, y)
    listed in `rows` (default every row).

    `y` holds a class label for every row of X; `classes` fixes their order
    (default: the canonical level order when the labels all belong to one
    annotation level, else sorted).  Each tree draws its bootstrap sample,
    as indices into `rows`, and its feature subsets from its own
    seed-derived stream, so any `threads` value yields the identical model.
    X's Columns are built once and every tree reads them; no rows are
    copied.
    """
    cols = _columns(X)
    y = list(y)
    classes = tuple(classes) if classes is not None else _canonical_classes(y)
    return _fit_forest(cols, _encode_labels(y, classes), params, classes, threads, rows)


def _fit_forest(cols: Columns, codes, params: ForestParams, classes, threads: int = 1,
                rows=None) -> ForestModel:
    """train_forest on X's Columns and its labels' class codes."""
    if cols.n_rows != len(codes):
        raise ValidationError("X and y differ in length")
    rows = np.arange(len(codes), dtype=np.int64) if rows is None else np.asarray(rows, dtype=np.int64)
    if len(rows) == 0:
        raise ValidationError("cannot train on an empty dataset")
    n = len(rows)

    def build(i: int) -> Tree:
        tree_rng = stream(params.seed, TAG_TREE, i)
        draw = tree_rng.integers(0, n, size=n) if params.bootstrap else slice(None)
        return train_tree(cols, codes, params, tree_rng, n_classes=len(classes),
                          rows=rows[draw])

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            trees = list(pool.map(build, range(params.n_trees)))
    else:
        trees = [build(i) for i in range(params.n_trees)]
    return ForestModel(classes=classes, params=params,
                       n_features=cols.n_features, trees=trees)


def _tree_proba(tree: Tree, X: np.ndarray) -> np.ndarray:
    node = np.zeros(len(X), dtype=np.int64)
    while True:
        feat = tree.feature[node]
        active = np.nonzero(feat >= 0)[0]
        if active.size == 0:
            break
        cur = node[active]
        go_left = X[active, feat[active]] <= tree.threshold[cur]
        node[active] = np.where(go_left, tree.left[cur], tree.right[cur])
    leaf_counts = tree.counts[node].astype(np.float64)
    return leaf_counts / leaf_counts.sum(axis=1, keepdims=True)


def predict_proba(model: ForestModel, X) -> np.ndarray:
    """Class-frequency estimates: mean of the leaf distributions over trees,
    accumulated in tree order (deterministic)."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != model.n_features:
        raise ValidationError(
            f"expected {model.n_features} features, got {X.shape[1] if X.ndim == 2 else 'non-2D'}")
    acc = np.zeros((len(X), len(model.classes)), dtype=np.float64)
    for tree in model.trees:
        acc += _tree_proba(tree, X)
    return acc / len(model.trees)


def predict(model: ForestModel, X) -> list[str]:
    """Argmax of predict_proba; probability ties go to the lowest class index."""
    proba = predict_proba(model, X)
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
                   classes=None, threads: int = 1) -> CVResult:
    """Stratified k-fold macro-F1 for one parameter setting.

    Fold membership and per-fold training seeds derive from `seed` (the
    seed inside `params` is ignored here) so every grid point is scored on
    identical folds.  X's Columns are built once and every fold's forest
    reads them.
    """
    X = np.asarray(X, dtype=np.float64)
    cols = _columns(X)
    y = list(y)
    classes = tuple(classes) if classes is not None else _canonical_classes(y)
    codes = _encode_labels(y, classes)
    from .metrics import confusion, scores as compute_scores
    fold_scores = []
    for i, (train_idx, test_idx) in enumerate(kfold(len(y), k, codes, seed)):
        fold_params = replace(params, seed=_fold_seed(seed, i))
        model = _fit_forest(cols, codes, fold_params, classes, threads, rows=train_idx)
        pred = predict(model, X[test_idx])
        gold = [y[j] for j in test_idx]
        fold_scores.append(compute_scores(confusion(gold, pred, classes), classes).macro_f1)
    arr = np.asarray(fold_scores, dtype=np.float64)
    return CVResult(fold_scores=tuple(fold_scores),
                    mean=float(arr.mean()), std=float(arr.std(ddof=0)))


@dataclass(frozen=True)
class GridSearchResult:
    best: ForestParams
    results: tuple[tuple[ForestParams, CVResult], ...]


def grid_search(grid, X, y, k: int = 10, seed: int = 0, classes=None,
                threads: int = 1) -> GridSearchResult:
    """Cross-validate every grid point; the best mean macro-F1 wins and
    ties go to the earliest grid position."""
    grid = list(grid)
    if not grid:
        raise ValidationError("parameter grid is empty")
    results = []
    best = None
    best_mean = -1.0
    for params in grid:
        cv = cross_validate(X, y, params, k=k, seed=seed, classes=classes,
                            threads=threads)
        results.append((params, cv))
        if cv.mean > best_mean:
            best = params
            best_mean = cv.mean
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

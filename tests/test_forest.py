"""Decision trees, the forest, serialization, k-fold, CV, and grid search.

Tree training is checked node for node against tests/tree_oracle.py, a
numpy-free exhaustive-search implementation with exact Fraction scoring, the
sparse split search split for split against the dense search kept in
tests/split_oracle.py, and k-fold assignment fold for fold against
tests/kfold_oracle.py.
"""

import io
import json
import struct
import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from offlang import forest
from offlang.errors import (ModelTruncatedError, ModelVersionError,
                            ValidationError)
from offlang.forest import (CVResult, ForestParams, _best_splits,
                            _columns, _fold_seed, cross_validate, grid_search, kfold,
                            load_model, predict, predict_proba, save_model,
                            train_forest, train_tree)
from offlang.metrics import confusion, scores
from offlang.rng import TAG_TREE, stream

from kfold_oracle import oracle_kfold
from split_oracle import oracle_best_split
from tree_oracle import oracle_node_count, oracle_tree


def assert_tree_matches_oracle(tree, oracle):
    """Walk both trees in preorder and require identical structure."""

    def walk(i, node):
        assert list(tree.counts[i]) == node["counts"]
        if "feature" not in node:
            assert tree.feature[i] == -1
            assert tree.left[i] == -1 and tree.right[i] == -1
            return i + 1
        assert tree.feature[i] == node["feature"]
        assert float(tree.threshold[i]) == node["threshold"]
        assert tree.left[i] == i + 1
        after_left = walk(i + 1, node["left"])
        assert tree.right[i] == after_left
        return walk(after_left, node["right"])

    consumed = walk(0, oracle)
    assert consumed == len(tree.feature) == oracle_node_count(oracle)


def make_dataset(rng, max_rows=16, max_cols=3, n_classes=3):
    n = int(rng.integers(2, max_rows + 1))
    d = int(rng.integers(1, max_cols + 1))
    X = rng.integers(0, 5, size=(n, d)).astype(np.float64)
    y = rng.integers(0, n_classes, size=n)
    return X, y


# ---------------------------------------------------------------------------
# Parameter validation


@pytest.mark.parametrize("kwargs", [
    {"n_trees": 0},
    {"max_depth": 0},
    {"min_samples_leaf": 0},
    {"max_features": "log2"},
    {"max_features": 0.0},
    {"max_features": 1.5},
    # Cross-validation slices each fold's trees by n_trees, which
    # itertools.islice takes only up to sys.maxsize.
    {"n_trees": sys.maxsize + 1},
])
def test_forest_params_rejects(kwargs):
    with pytest.raises(ValidationError):
        ForestParams(**kwargs)


def test_forest_params_accepts_fraction_and_none_depth():
    p = ForestParams(max_features=0.5, max_depth=None)
    assert p.max_features == 0.5


# ---------------------------------------------------------------------------
# Tree vs oracle


def test_tree_matches_oracle_on_random_datasets():
    rng = np.random.default_rng(424242)
    params_pool = [
        ForestParams(n_trees=1, max_features="all"),
        ForestParams(n_trees=1, max_features="all", min_samples_leaf=2),
        ForestParams(n_trees=1, max_features="all", min_samples_leaf=3),
        ForestParams(n_trees=1, max_features="all", max_depth=2),
    ]
    for trial in range(60):
        X, y = make_dataset(rng)
        params = params_pool[trial % len(params_pool)]
        tree = train_tree(X, y, params, stream(0, TAG_TREE, trial), n_classes=3)
        expected = oracle_tree(X.tolist(), y.tolist(), 3,
                               min_samples_leaf=params.min_samples_leaf,
                               max_depth=params.max_depth)
        assert_tree_matches_oracle(tree, expected)


@settings(deadline=None, max_examples=60)
@given(st.data())
def test_tree_matches_oracle_property(data):
    n = data.draw(st.integers(2, 8))
    d = data.draw(st.integers(1, 2))
    rows = data.draw(st.lists(
        st.tuples(*[st.integers(0, 3) for _ in range(d)]),
        min_size=n, max_size=n))
    y = data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    X = np.asarray(rows, dtype=np.float64)
    params = ForestParams(n_trees=1, max_features="all")
    tree = train_tree(X, np.asarray(y), params, stream(1, TAG_TREE, 0), n_classes=2)
    expected = oracle_tree([list(r) for r in rows], y, 2)
    assert_tree_matches_oracle(tree, expected)


def test_tree_preorder_layout_fixture():
    X = np.array([[0.0], [1.0]])
    tree = train_tree(X, np.array([0, 1]), ForestParams(n_trees=1, max_features="all"),
                      stream(0, TAG_TREE, 0))
    assert list(tree.feature) == [0, -1, -1]
    assert tree.threshold[0] == 0.5
    assert list(tree.left) == [1, -1, -1]
    assert list(tree.right) == [2, -1, -1]
    assert tree.counts.tolist() == [[1, 1], [1, 0], [0, 1]]


def test_tree_threshold_tie_breaks_low():
    # Both candidate thresholds give weighted Gini 1/3; keep the lower one.
    X = np.array([[0.0], [1.0], [2.0]])
    tree = train_tree(X, np.array([0, 1, 0]),
                      ForestParams(n_trees=1, max_features="all"),
                      stream(0, TAG_TREE, 0))
    assert tree.feature[0] == 0
    assert tree.threshold[0] == 0.5


def test_tree_feature_tie_breaks_low():
    X = np.array([[0.0, 0.0], [1.0, 1.0]])
    tree = train_tree(X, np.array([0, 1]),
                      ForestParams(n_trees=1, max_features="all"),
                      stream(0, TAG_TREE, 0))
    assert tree.feature[0] == 0


def test_tree_midpoint_clamps_down_to_lower_value():
    a = np.nextafter(1.0, 2.0)          # odd mantissa: midpoint rounds up
    b = np.nextafter(a, 2.0)
    X = np.array([[a], [b]])
    tree = train_tree(X, np.array([0, 1]),
                      ForestParams(n_trees=1, max_features="all"),
                      stream(0, TAG_TREE, 0))
    assert tree.threshold[0] == a
    assert tree.counts.tolist() == [[1, 1], [1, 0], [0, 1]]


def test_tree_takes_zero_gain_split():
    # Every split of this node leaves impurity unchanged; it must still split
    # rather than stop early (purity or exhaustion are the only leaf reasons).
    X = np.array([[0.0], [1.0], [2.0], [3.0]])
    y = np.array([0, 1, 0, 1])
    tree = train_tree(X, y, ForestParams(n_trees=1, max_features="all"),
                      stream(0, TAG_TREE, 0))
    assert tree.feature[0] == 0
    expected = oracle_tree(X.tolist(), y.tolist(), 2)
    assert_tree_matches_oracle(tree, expected)


def test_tree_constant_features_make_a_leaf():
    X = np.zeros((5, 2))
    tree = train_tree(X, np.array([0, 1, 0, 1, 1]),
                      ForestParams(n_trees=1, max_features="all"),
                      stream(0, TAG_TREE, 0))
    assert len(tree.feature) == 1
    assert tree.feature[0] == -1
    assert tree.counts.tolist() == [[2, 3]]


def test_tree_and_forest_without_features_make_leaves():
    tree = train_tree(np.zeros((3, 0)), np.array([0, 1, 0]),
                      ForestParams(n_trees=1), stream(0, TAG_TREE, 0))
    assert tree.feature.tolist() == [-1]
    assert tree.counts.tolist() == [[2, 1]]
    model = train_forest(np.zeros((3, 0)), ["NOT", "OFF", "NOT"], ForestParams(n_trees=2))
    assert predict(model, np.zeros((2, 0))) == ["NOT", "NOT"]


def test_tree_input_validation():
    params = ForestParams(n_trees=1)
    with pytest.raises(ValidationError):
        train_tree(np.zeros((2, 2)), np.array([0]), params, stream(0, TAG_TREE, 0))
    with pytest.raises(ValidationError):
        train_tree(np.zeros((0, 2)), np.array([], dtype=np.int64), params,
                   stream(0, TAG_TREE, 0))
    for rows in ([], [2], [-1, 0]):
        with pytest.raises(ValidationError):
            train_tree(np.zeros((2, 2)), np.array([0, 1]), params,
                       stream(0, TAG_TREE, 0), rows=rows)


def test_forest_rejects_x_not_2d_and_no_rows():
    params = ForestParams(n_trees=1)
    with pytest.raises(ValidationError, match="^X must be 2-D$"):
        train_forest(np.zeros(2), ["NOT", "OFF"], params)
    with pytest.raises(ValidationError, match="^cannot train on an empty dataset$"):
        train_forest(np.zeros((2, 2)), ["NOT", "OFF"], params, rows=[])


def test_tree_and_forest_reject_non_finite_features():
    params = ForestParams(n_trees=1)
    for bad in (np.nan, np.inf, -np.inf):
        X = np.array([[0.0, 1.0], [bad, 0.0]])
        with pytest.raises(ValidationError, match="non-finite"):
            train_tree(X, np.array([0, 1]), params, stream(0, TAG_TREE, 0))
        with pytest.raises(ValidationError, match="non-finite"):
            train_forest(X, ["NOT", "OFF"], params)


def test_tree_rejects_class_codes_outside_the_classes():
    # train_forest encodes labels itself; test_forest_rejects_label_outside_class_list.
    X = np.array([[0.0], [1.0], [2.0]])
    for y in ([0, 5, 1], [0, -1, 1]):
        with pytest.raises(ValidationError, match="class codes"):
            train_tree(X, np.array(y), ForestParams(n_trees=1), stream(0, TAG_TREE, 0),
                       n_classes=2)


# Cell values that stress the sparse search: both zeros, both smallest
# subnormals, negatives that sort before the zero block, and an odd-mantissa
# pair whose midpoint clamps down.
_SPLIT_VALUES = (-2.5, -1.0, -5e-324, -0.0, 0.0, 5e-324, 0.5, 1.0,
                 float(np.nextafter(1.0, 2.0)), float(np.nextafter(np.nextafter(1.0, 2.0), 2.0)),
                 2.0)


def best_split(X, y, idx, feats, k, min_leaf):
    """_best_splits for the one node of rows idx over the features feats:
    (feature, threshold, left class counts) or None."""
    return _best_splits(_columns(X), y, [(idx, feats, np.bincount(y[idx], minlength=k))],
                        k, min_leaf)[0]


def test_best_split_mirror_tie_goes_to_lower_feature():
    # Feature 1 mirrors feature 0: both split perfectly, at 0.5 and -0.5.
    X = np.array([[0.0, 0.0], [1.0, -1.0]])
    y = np.array([0, 1])
    idx = np.array([0, 1])
    f, t, left = best_split(X, y, idx, np.array([0, 1]), 2, 1)
    assert (f, t, left.tolist()) == (0, 0.5, [1, 0])
    assert oracle_best_split(X, y, idx, np.array([0, 1]), 2, 1) == (0, 0.5)


def assert_left_counts(X, y, idx, split, k):
    """The split's left counts are the class counts of the rows idx (repeats
    counted) whose value of its feature is at or below its threshold."""
    f, t, left = split
    assert left.dtype == np.int64
    assert left.tolist() == np.bincount(y[idx][X[idx, f] <= t], minlength=k).tolist()


def _split_matrix(data, n, d):
    """An n x d matrix of _SPLIT_VALUES: per column dense, sparse or the
    mirror of an earlier column."""
    cell = st.sampled_from(_SPLIT_VALUES)
    X = np.zeros((n, d))
    for f in range(d):
        kind = data.draw(st.sampled_from(["dense", "sparse", "negated"]))
        if kind == "dense":
            X[:, f] = data.draw(st.lists(cell, min_size=n, max_size=n))
        elif kind == "sparse":
            for r, v in data.draw(st.dictionaries(st.integers(0, n - 1), cell, max_size=2)).items():
                X[r, f] = v
        elif f > 0:
            # The mirror of an earlier column ties its best split at a
            # threshold of the other sign, so ties must go by feature.
            X[:, f] = -X[:, data.draw(st.integers(0, f - 1))]
    return X


@settings(deadline=None, max_examples=500)
@given(st.data())
def test_best_split_equals_dense_oracle(data):
    n = data.draw(st.integers(1, 10))
    d = data.draw(st.integers(1, 5))
    X = _split_matrix(data, n, d)
    k = data.draw(st.integers(2, 3))
    y = np.asarray(data.draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n)))
    idx = np.sort(np.asarray(data.draw(st.lists(st.integers(0, n - 1), min_size=1,
                                                max_size=2 * n)), dtype=np.int64))
    feats = np.asarray(sorted(data.draw(st.sets(st.integers(0, d - 1), min_size=1))))
    min_leaf = data.draw(st.integers(1, 3))
    got = best_split(X, y, idx, feats, k, min_leaf)
    want = oracle_best_split(X, y, idx, feats, k, min_leaf)
    if want is None:
        assert got is None
    else:
        assert got is not None and got[0] == want[0]
        assert struct.pack("<d", got[1]) == struct.pack("<d", want[1])
        assert_left_counts(X, y, idx, got, k)


@settings(deadline=None, max_examples=300)
@given(st.data())
def test_batched_split_search_equals_dense_oracle_per_node(data):
    # Several nodes over one Columns, searched in one call, as a lock step
    # searches one node of each tree: their rows overlap and repeat, and a
    # node of one row repeated has no valid split.  Each node's result must
    # be the oracle's on that node alone.
    n = data.draw(st.integers(1, 12))
    d = data.draw(st.integers(1, 5))
    X = _split_matrix(data, n, d)
    k = data.draw(st.integers(2, 3))
    y = np.asarray(data.draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n)))
    nodes = []
    for _ in range(data.draw(st.integers(2, 6))):
        if data.draw(st.booleans()):
            idx = data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=40))
        else:
            idx = [data.draw(st.integers(0, n - 1))] * data.draw(st.integers(1, 40))
        idx = np.sort(np.asarray(idx, dtype=np.int64))
        feats = np.asarray(sorted(data.draw(st.sets(st.integers(0, d - 1), min_size=1))))
        nodes.append((idx, feats, np.bincount(y[idx], minlength=k)))
    min_leaf = data.draw(st.integers(1, 3))
    got = _best_splits(_columns(X), y, nodes, k, min_leaf)
    assert len(got) == len(nodes)
    for (idx, feats, _), split in zip(nodes, got):
        want = oracle_best_split(X, y, idx, feats, k, min_leaf)
        if want is None:
            assert split is None
        else:
            assert split is not None and split[0] == want[0]
            assert struct.pack("<d", split[1]) == struct.pack("<d", want[1])
            assert_left_counts(X, y, idx, split, k)


def test_batched_split_search_places_shared_zero_runs():
    # Feature 0 is zero on every row but 6 and 7, so on the first and
    # fourth nodes its segment has no runs and its zero run shares an
    # insertion point with the next segment's.  On the fourth node feature
    # 1 is all zero too, so three zero runs share one point, the last of
    # them the fifth node's.  Feature 2 holds negatives, zeros and
    # positives.
    X = np.array([[0.0, 0.0, -1.0], [0.0, 0.0, 0.0], [0.0, 1.0, 0.5], [0.0, 2.0, -2.0],
                  [0.0, 0.0, 1.0], [0.0, 0.5, 0.0], [1.0, 0.0, 3.0], [2.0, 0.0, -0.5]])
    y = np.array([0, 0, 1, 1, 0, 1, 0, 2])
    nodes = [(np.array(idx), np.array(feats), np.bincount(y[idx], minlength=3))
             for idx, feats in (([0, 1, 2, 3, 3], [0, 1, 2]), ([4, 5, 5, 6], [0, 2]),
                                ([0, 2, 4, 6, 7], [0, 1, 2]), ([1, 4], [0, 1]),
                                ([0, 1, 5, 7], [1, 2]))]
    got = _best_splits(_columns(X), y, nodes, 3, 1)
    assert [s and s[:2] for s in got] == [oracle_best_split(X, y, idx, feats, 3, 1)
                                          for idx, feats, _ in nodes]
    assert [s and (s[0], s[1], s[2].tolist()) for s in got] == [
        (1, 0.5, [2, 0, 0]), (2, 0.5, [0, 2, 0]), (0, 1.5, [3, 1, 0]), None, (1, 0.25, [2, 0, 1])]


def _row_draw(data, n):
    """Row indices into n rows, with repeats, in any order."""
    return np.asarray(data.draw(st.lists(st.integers(0, n - 1), min_size=1,
                                         max_size=2 * n)), dtype=np.int64)


@settings(deadline=None, max_examples=80)
@given(st.data())
def test_tree_on_rows_equals_tree_on_their_copy(data):
    seed = data.draw(st.integers(0, 2**32 - 1))
    X, y = make_dataset(np.random.default_rng(seed), max_rows=12, max_cols=4)
    rows = _row_draw(data, len(y))
    params = ForestParams(
        n_trees=1, max_features=data.draw(st.sampled_from(["sqrt", "all", 0.5])),
        min_samples_leaf=data.draw(st.integers(1, 3)),
        max_depth=data.draw(st.sampled_from([None, 1, 3])))
    k = data.draw(st.sampled_from([None, 3]))
    tree = train_tree(X, y, params, stream(seed, TAG_TREE, 0), k, rows=rows)
    copy = train_tree(X[rows], y[rows], params, stream(seed, TAG_TREE, 0), k)
    for name in ("feature", "threshold", "left", "right", "counts"):
        got, want = getattr(tree, name), getattr(copy, name)
        assert got.dtype == want.dtype and np.array_equal(got, want), name


@settings(deadline=None, max_examples=200)
@given(st.data())
def test_tree_on_split_values_and_repeated_rows_matches_oracle(data):
    # Only the root's class counts are counted from its rows; every other
    # node's come down from its parent's split search.  Signed zeros,
    # subnormals, negatives and clamped midpoints, on rows repeated as a
    # bootstrap repeats them, must still give the oracle's counts at every
    # node.
    n = data.draw(st.integers(1, 8))
    d = data.draw(st.integers(1, 4))
    X = _split_matrix(data, n, d)
    k = data.draw(st.integers(2, 3))
    y = np.asarray(data.draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n)))
    rows = _row_draw(data, n)
    params = ForestParams(n_trees=1, max_features="all",
                          min_samples_leaf=data.draw(st.integers(1, 3)),
                          max_depth=data.draw(st.sampled_from([None, 1, 3])))
    tree = train_tree(X, y, params, stream(0, TAG_TREE, 0), n_classes=k, rows=rows)
    expected = oracle_tree(X[rows].tolist(), y[rows].tolist(), k,
                           min_samples_leaf=params.min_samples_leaf,
                           max_depth=params.max_depth)
    assert_tree_matches_oracle(tree, expected)


@settings(deadline=None, max_examples=30)
@given(st.data())
def test_forest_on_rows_saves_the_bytes_of_forest_on_their_copy(data):
    seed = data.draw(st.integers(0, 2**32 - 1))
    X, codes = make_dataset(np.random.default_rng(seed), max_rows=12, max_cols=4)
    y = [("IND", "GRP", "OTH")[c] for c in codes]
    rows = _row_draw(data, len(y))
    params = ForestParams(n_trees=3, seed=seed, bootstrap=data.draw(st.booleans()),
                          max_features=data.draw(st.sampled_from(["sqrt", "all"])))
    on_rows, on_copy = io.BytesIO(), io.BytesIO()
    save_model(train_forest(X, y, params, rows=rows), on_rows)
    save_model(train_forest(X[rows], [y[i] for i in rows], params), on_copy)
    assert on_rows.getvalue() == on_copy.getvalue()


# ---------------------------------------------------------------------------
# Forest training and prediction


def test_bootstrap_draws_are_uniform():
    # Chi-square goodness of fit over 40 bins with 80000 index draws from a
    # per-tree stream; 72.0547 is the 0.999 quantile at 39 degrees of freedom.
    rng = stream(20240915, TAG_TREE, 7)
    draws = rng.integers(0, 40, size=80000)
    counts = np.bincount(draws, minlength=40)
    chi2 = float(((counts - 2000.0) ** 2 / 2000.0).sum())
    assert chi2 < 72.0547


def test_forest_is_deterministic_per_seed():
    rng = np.random.default_rng(7)
    X = rng.normal(size=(40, 5))
    y = ["OFF" if v > 0 else "NOT" for v in X[:, 0]]
    params = ForestParams(n_trees=4, seed=11)
    a = train_forest(X, y, params)
    b = train_forest(X, y, params)
    for ta, tb in zip(a.trees, b.trees):
        assert np.array_equal(ta.feature, tb.feature)
        assert np.array_equal(ta.threshold, tb.threshold)
        assert np.array_equal(ta.counts, tb.counts)
    c = train_forest(X, y, ForestParams(n_trees=4, seed=12))
    assert any(not np.array_equal(ta.feature, tc.feature)
               or not np.array_equal(ta.threshold, tc.threshold)
               for ta, tc in zip(a.trees, c.trees))


def test_forest_uses_canonical_class_order():
    X = np.array([[0.0], [1.0]])
    model = train_forest(X, ["OFF", "NOT"], ForestParams(n_trees=1))
    assert model.classes == ("NOT", "OFF")
    # A subset of one annotation level still gets the full level order.
    model = train_forest(X, ["GRP", "IND"], ForestParams(n_trees=1))
    assert model.classes == ("IND", "GRP", "OTH")
    model = train_forest(X, ["zz", "aa"], ForestParams(n_trees=1))
    assert model.classes == ("aa", "zz")


def test_forest_rejects_label_outside_class_list():
    with pytest.raises(ValidationError):
        train_forest(np.zeros((2, 1)), ["NOT", "XYZ"], ForestParams(n_trees=1),
                     classes=("NOT", "OFF"))


def test_predict_perfectly_separable():
    X = np.array([[float(i)] for i in range(10)])
    y = ["NOT"] * 5 + ["OFF"] * 5
    model = train_forest(X, y, ForestParams(n_trees=5, max_features="all", seed=2))
    assert predict(model, X) == y
    proba = predict_proba(model, X)
    assert proba.shape == (10, 2)
    assert np.allclose(proba.sum(axis=1), 1.0)


def test_predict_tie_goes_to_lowest_class_index():
    # Identical rows cannot split: every leaf holds one NOT and one OFF.
    X = np.zeros((2, 1))
    model = train_forest(X, ["OFF", "NOT"],
                         ForestParams(n_trees=3, max_features="all", bootstrap=False))
    assert predict(model, np.zeros((1, 1))) == ["NOT"]


def test_predict_rejects_wrong_width():
    model = train_forest(np.zeros((2, 3)), ["NOT", "OFF"], ForestParams(n_trees=1))
    with pytest.raises(ValidationError):
        predict(model, np.zeros((1, 2)))


# ---------------------------------------------------------------------------
# Serialization


def small_model():
    rng = np.random.default_rng(1)
    X = rng.normal(size=(30, 4))
    y = ["OFF" if v > 0 else "NOT" for v in X[:, 0]]
    return train_forest(X, y, ForestParams(n_trees=3, seed=9, max_depth=4))


def test_save_load_round_trip(tmp_path):
    model = small_model()
    path = tmp_path / "model.bin"
    save_model(model, path)
    back = load_model(path)
    assert back.classes == model.classes
    assert back.params == model.params
    assert back.n_features == model.n_features
    assert len(back.trees) == len(model.trees)
    for ta, tb in zip(model.trees, back.trees):
        assert np.array_equal(ta.feature, tb.feature)
        assert np.array_equal(ta.threshold, tb.threshold)
        assert np.array_equal(ta.left, tb.left)
        assert np.array_equal(ta.right, tb.right)
        assert np.array_equal(ta.counts, tb.counts)


def test_save_load_round_trip_preserves_predictions(tmp_path):
    model = small_model()
    buf = io.BytesIO()
    save_model(model, buf)
    back = load_model(buf.getvalue())
    X = np.random.default_rng(2).normal(size=(20, 4))
    assert np.array_equal(predict_proba(model, X), predict_proba(back, X))


def test_load_rejects_bad_magic():
    blob = io.BytesIO()
    save_model(small_model(), blob)
    with pytest.raises(ModelVersionError):
        load_model(b"XXXX" + blob.getvalue()[4:])
    with pytest.raises(ModelVersionError):
        load_model(b"RF")


def test_load_rejects_unknown_version():
    blob = io.BytesIO()
    save_model(small_model(), blob)
    raw = blob.getvalue()
    with pytest.raises(ModelVersionError, match="version 2"):
        load_model(raw[:4] + struct.pack("<I", 2) + raw[8:])


def test_load_rejects_corrupt_header():
    # A zero-tree model once loaded, and predict then divided by zero trees.
    no_trees = json.dumps({"classes": ["NOT", "OFF"], "params": ForestParams().to_jsonable(),
                           "n_features": 4, "n_trees": 0}).encode("utf-8")
    for header in (b"{{{{{", no_trees):
        bad = b"RFMF" + struct.pack("<II", 1, len(header)) + header
        with pytest.raises(ModelVersionError, match="corrupt model header"):
            load_model(bad)


def test_load_rejects_truncation_everywhere():
    blob = io.BytesIO()
    save_model(small_model(), blob)
    raw = blob.getvalue()
    for cut in (6, 10, 40, len(raw) - 5):
        with pytest.raises(ModelTruncatedError):
            load_model(raw[:cut])


def test_load_rejects_trailing_bytes():
    blob = io.BytesIO()
    save_model(small_model(), blob)
    with pytest.raises(ModelVersionError, match="trailing"):
        load_model(blob.getvalue() + b"\x00")


# ---------------------------------------------------------------------------
# k-fold


def assert_valid_folds(folds, n, y):
    seen = []
    sizes = []
    for train, test in folds:
        assert list(test) == sorted(test)
        assert list(train) == sorted(train)
        assert set(train) | set(test) == set(range(n))
        assert not set(train) & set(test)
        seen.extend(test)
        sizes.append(len(test))
    assert sorted(seen) == list(range(n))
    assert max(sizes) - min(sizes) <= 1
    y = np.asarray(y)
    for value in np.unique(y):
        per_fold = [int((y[test] == value).sum()) for _, test in folds]
        assert max(per_fold) - min(per_fold) <= 1


def test_kfold_stratified_partition():
    y = np.array([0] * 7 + [1] * 6 + [2] * 4)
    folds = kfold(len(y), 4, y, seed=2)
    assert_valid_folds(folds, len(y), y)


def test_kfold_rotates_extras_across_classes():
    # Two classes of five rows into three folds: without rotating which
    # folds receive the per-class remainders, overall sizes would be 4/4/2.
    y = np.array([0] * 5 + [1] * 5)
    folds = kfold(10, 3, y, seed=0)
    assert_valid_folds(folds, 10, y)
    assert sorted(len(test) for _, test in folds) == [3, 3, 4]


def test_kfold_deterministic_and_seed_sensitive():
    y = np.array([0, 1] * 20)
    a = kfold(40, 5, y, seed=3)
    b = kfold(40, 5, y, seed=3)
    c = kfold(40, 5, y, seed=4)
    assert all(np.array_equal(ta, tb) for (_, ta), (_, tb) in zip(a, b))
    assert any(not np.array_equal(ta, tc) for (_, ta), (_, tc) in zip(a, c))


def test_kfold_validation():
    with pytest.raises(ValidationError):
        kfold(10, 1, np.zeros(10))
    with pytest.raises(ValidationError):
        kfold(3, 4, np.zeros(3))
    with pytest.raises(ValidationError):
        kfold(10, 2, np.zeros(9))
    with pytest.raises(ValidationError):
        kfold(10, 2, None)


@settings(deadline=None, max_examples=40)
@given(st.lists(st.integers(0, 2), min_size=4, max_size=40),
       st.integers(0, 2 ** 32))
def test_kfold_properties(labels, seed):
    y = np.asarray(labels)
    k = min(4, len(labels))
    folds = kfold(len(labels), k, y, seed=seed)
    assert_valid_folds(folds, len(labels), y)


@settings(deadline=None, max_examples=300)
@given(st.lists(st.integers(0, 3), min_size=2, max_size=300), st.data(),
       st.integers(0, 2 ** 64 - 1))
def test_kfold_equals_oracle(labels, data, seed):
    k = data.draw(st.integers(2, min(12, len(labels))))
    got = kfold(len(labels), k, labels, seed)
    want = oracle_kfold(len(labels), k, labels, seed)
    assert len(got) == len(want) == k
    for (train, test), (want_train, want_test) in zip(got, want):
        assert train.dtype == test.dtype == np.int64
        assert np.array_equal(train, want_train)
        assert np.array_equal(test, want_test)


# ---------------------------------------------------------------------------
# Cross-validation and grid search


def separable_xy(n=30):
    # A wide gap between the class ranges keeps every learned threshold far
    # from all points, so held-out rows always land on the correct side.
    X = np.array([[float(i) if i < n // 2 else float(i) + 100.0]
                  for i in range(n)])
    y = ["NOT" if i < n // 2 else "OFF" for i in range(n)]
    return X, y


def test_cross_validate_perfect_on_separable_data():
    X, y = separable_xy()
    cv = cross_validate(
        X, y,
        ForestParams(n_trees=9, max_features="all", bootstrap=False),
        k=3, seed=1)
    assert cv.fold_scores == (1.0, 1.0, 1.0)
    assert cv.mean == 1.0
    assert cv.std == 0.0


def test_cross_validate_ignores_params_seed():
    X, y = separable_xy()
    rng = np.random.default_rng(0)
    X = X + rng.normal(scale=5.0, size=X.shape)  # noise so scores vary
    a = cross_validate(X, y, ForestParams(n_trees=5, seed=100), k=3, seed=8)
    b = cross_validate(X, y, ForestParams(n_trees=5, seed=200), k=3, seed=8)
    assert a == b


def test_cross_validate_mean_std_consistency():
    X, y = separable_xy()
    rng = np.random.default_rng(1)
    cv = cross_validate(X + rng.normal(scale=5.0, size=X.shape), y,
                        ForestParams(n_trees=3), k=5, seed=2)
    arr = np.asarray(cv.fold_scores)
    assert cv.mean == pytest.approx(float(arr.mean()))
    assert cv.std == pytest.approx(float(arr.std(ddof=0)))
    assert isinstance(cv, CVResult)


def test_cross_validate_equals_fold_by_fold_train_forest():
    # cross_validate builds X's Columns once for all folds; each fold's
    # forest must be the one train_forest grows on that fold's rows.
    rng = np.random.default_rng(4)
    X = rng.integers(-2, 3, size=(45, 6)) * (rng.random((45, 6)) < 0.4)
    y = [("IND", "GRP", "OTH")[i % 3] for i in range(45)]
    X[:, 0] += [i % 3 for i in range(45)] * (rng.random(45) < 0.7)
    params = ForestParams(n_trees=4, max_depth=3, seed=99)
    classes = ("IND", "GRP", "OTH")
    codes = [classes.index(label) for label in y]
    fold_scores = []
    for i, (train_idx, test_idx) in enumerate(kfold(len(y), 5, codes, seed=6)):
        model = train_forest(X, y, replace(params, seed=_fold_seed(6, i)), rows=train_idx)
        gold = [y[j] for j in test_idx]
        fold_scores.append(scores(confusion(gold, predict(model, X[test_idx]), classes),
                                  classes).macro_f1)
    arr = np.asarray(fold_scores)
    assert cross_validate(X, y, params, k=5, seed=6) == CVResult(
        tuple(fold_scores), float(arr.mean()), float(arr.std(ddof=0)))
    assert len(set(fold_scores)) > 1


def _fold_by_fold(X, y, params, k, seed, classes):
    """cross_validate's result, computed one train_forest per fold."""
    fold_scores = []
    for i, (train_idx, test_idx) in enumerate(kfold(len(y), k, [classes.index(c) for c in y],
                                                    seed=seed)):
        model = train_forest(X, y, replace(params, seed=_fold_seed(seed, i)), rows=train_idx)
        gold = [y[j] for j in test_idx]
        fold_scores.append(scores(confusion(gold, predict(model, X[test_idx]), classes),
                                  classes).macro_f1)
    arr = np.asarray(fold_scores)
    return CVResult(tuple(fold_scores), float(arr.mean()), float(arr.std(ddof=0)))


@settings(deadline=None, max_examples=40)
@given(st.data())
def test_cross_validate_equals_fold_by_fold_train_forest_property(data):
    # The lock step grows every fold's trees side by side; each must be the
    # tree train_forest grows alone, whatever the parameters.
    seed = data.draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    n = data.draw(st.integers(10, 40))
    X = rng.integers(-2, 3, size=(n, 5)) * (rng.random((n, 5)) < 0.5)
    classes = ("IND", "GRP", "OTH")
    y = [classes[i % 3] for i in range(n)]
    X[:, 0] += [i % 3 for i in range(n)] * (rng.random(n) < 0.6)
    params = ForestParams(
        n_trees=data.draw(st.integers(1, 4)), bootstrap=data.draw(st.booleans()),
        max_features=data.draw(st.sampled_from(["sqrt", "all", 0.5])),
        min_samples_leaf=data.draw(st.integers(1, 3)),
        max_depth=data.draw(st.sampled_from([None, 1, 3])))
    k = data.draw(st.integers(2, 5))
    assert cross_validate(X, y, params, k=k, seed=seed) == \
        _fold_by_fold(X, y, params, k, seed, classes)


def test_cross_validate_gives_the_same_result_at_every_wave_size(monkeypatch):
    rng = np.random.default_rng(11)
    X = rng.integers(-2, 3, size=(36, 6)) * (rng.random((36, 6)) < 0.4)
    y = [("IND", "GRP", "OTH")[i % 3] for i in range(36)]
    X[:, 0] += [i % 3 for i in range(36)] * (rng.random(36) < 0.7)
    params = ForestParams(n_trees=3, seed=5)
    whole = cross_validate(X, y, params, k=4, seed=2)
    assert whole == _fold_by_fold(X, y, params, 4, 2, ("IND", "GRP", "OTH"))
    batch_sizes = []
    real_search = forest._best_splits

    def recording(cols, codes, nodes, k, min_leaf):
        batch_sizes.append(len(nodes))
        return real_search(cols, codes, nodes, k, min_leaf)

    monkeypatch.setattr(forest, "_best_splits", recording)
    for trees_per_wave in (1, 2, 12):
        batch_sizes.clear()
        monkeypatch.setattr(forest, "_WAVE_CELLS", trees_per_wave * len(y))
        assert cross_validate(X, y, params, k=4, seed=2) == whole, trees_per_wave
        assert max(batch_sizes) == trees_per_wave


def test_grid_search_builds_columns_and_folds_once(monkeypatch):
    calls = {"_columns": 0, "kfold": 0}
    for name in calls:
        real = getattr(forest, name)

        def counting(*args, _real=real, _name=name, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(forest, name, counting)
    X, y = separable_xy()
    grid = [ForestParams(n_trees=2, max_depth=d) for d in (1, 2, None)]
    gs = grid_search(grid, X, y, k=3, seed=1)
    assert calls == {"_columns": 1, "kfold": 1}
    for params, cv in gs.results:
        assert cv == cross_validate(X, y, params, k=3, seed=1)


def test_grid_search_picks_the_better_setting():
    # Exclusive-or labels: a depth-1 stump cannot represent the target, an
    # unbounded tree can, so the unbounded setting must win.
    X = np.array([[x0, x1] for x0 in (0.0, 1.0) for x1 in (0.0, 1.0)] * 10)
    y = ["OFF" if int(r[0]) != int(r[1]) else "NOT" for r in X]
    shallow = ForestParams(n_trees=9, max_depth=1, max_features="all")
    deep = ForestParams(n_trees=9, max_depth=None, max_features="all")
    gs = grid_search([shallow, deep], X, y, k=4, seed=5)
    assert gs.best is deep
    means = {id(p): cv.mean for p, cv in gs.results}
    assert means[id(deep)] > means[id(shallow)]
    assert means[id(deep)] == 1.0


def test_grid_search_tie_goes_to_earliest_position():
    X, y = separable_xy()
    first = ForestParams(n_trees=5, max_features="all")
    second = ForestParams(n_trees=5, max_features="all")
    gs = grid_search([first, second], X, y, k=3, seed=1)
    assert gs.results[0][1].mean == gs.results[1][1].mean
    assert gs.best is first


@pytest.mark.parametrize("fit", [
    lambda X, y: cross_validate(X, y, ForestParams(n_trees=2), k=3),
    lambda X, y: grid_search([ForestParams(n_trees=2)], X, y, k=3),
    lambda X, y: train_forest(X, y, ForestParams(n_trees=2)),
], ids=["cross_validate", "grid_search", "train_forest"])
@pytest.mark.parametrize("x_rows, y_rows", [(28, 30), (30, 26)], ids=["short_X", "short_y"])
def test_fit_rejects_X_and_y_of_different_lengths(fit, x_rows, y_rows):
    # cross_validate once raised IndexError on a short X and scored a
    # short y's folds silently.
    X, y = separable_xy()
    with pytest.raises(ValidationError, match="^X and y differ in length$"):
        fit(X[:x_rows], y[:y_rows])


def test_grid_search_rejects_empty_grid():
    with pytest.raises(ValidationError):
        grid_search([], *separable_xy(), k=3)

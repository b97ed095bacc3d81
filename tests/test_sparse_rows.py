"""The sparse feature path: `Pipeline.fit_transform` returns `SparseRows`,
and the forest trains, cross-validates and predicts from them exactly as
from their dense matrix."""

import io
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from offlang.cli import Pipeline
from offlang.errors import ValidationError
from offlang.features import (N_SURFACE, SparseRows, feature_matrix, feature_rows, featurize,
                               fit_vocabulary)
from offlang.forest import (ForestParams, _columns, cross_validate, grid_search,
                            predict, predict_proba, save_model, train_forest)
from offlang.textprep import PrepConfig, preprocess

from conftest import separable_rows
from predict_oracle import oracle_predict_proba

# Zeros of both signs, subnormals, negatives and an odd-mantissa pair.
_VALUES = (-2.5, -1.0, -5e-324, -0.0, 0.0, 0.0, 0.0, 5e-324, 0.5, 1.0,
           float(np.nextafter(1.0, 2.0)), 2.0)


def _pipeline(min_df=1, ngram_max=2) -> Pipeline:
    return Pipeline(level="A", prep=PrepConfig(), stopwords=["the", "a"],
                    abusive=["idiot", "moron"], emoji={"😀": 0.5, "😡": -0.75},
                    min_df=min_df, ngram_max=ngram_max)


def _corpus(n: int, seed: int = 13):
    """n separable tweets, some with emoji, and their labels, one in seven
    flipped so that cross-validation scores differ."""
    texts, labels = [], []
    for i, (_, text, label, _, _) in enumerate(separable_rows(n, seed)):
        texts.append(text + " 😀" * (i % 5 == 0) + " 😡😡" * (i % 7 == 0))
        labels.append({"OFF": "NOT", "NOT": "OFF"}[label] if i % 7 == 3 else label)
    return texts, labels


def _hand_rows(X, zeros) -> SparseRows:
    """SparseRows of X built row by row, storing the cells listed in zeros
    (of value 0.0 or -0.0 in X) as well as the nonzeros."""
    indptr, indices = [0], []
    for r, row in enumerate(X):
        indices += sorted({*np.flatnonzero(row).tolist(), *(c for zr, c in zeros if zr == r)})
        indptr.append(len(indices))
    rows = np.repeat(np.arange(len(X)), np.diff(indptr))
    return SparseRows(np.array(indptr, dtype=np.int64), np.array(indices, dtype=np.int64),
                      X[rows, indices], X.shape[1])


def _matrix(data, n, d):
    return np.array(data.draw(st.lists(st.sampled_from(_VALUES), min_size=n * d,
                                       max_size=n * d)), dtype=np.float64).reshape(n, d)


def test_fit_transform_rows_are_the_feature_matrix():
    texts, _ = _corpus(60)
    pipe, rows = _pipeline().fit_transform(texts)
    vocab = pipe.vocabulary
    vectors = [featurize(preprocess(t, pipe.prep, pipe.stopwords, pipe.emoji), vocab,
                         pipe.abusive, pipe.ngram_max) for t in texts]
    mat = feature_matrix(vectors, vocab)
    assert rows.shape == mat.shape == (60, len(vocab) + N_SURFACE)
    assert len(rows) == 60 and rows.itemsize == 8
    assert rows.dense().tobytes() == mat.tobytes()
    # The entries are the matrix's nonzeros in (row, column) order.
    scan = SparseRows.from_dense(mat)
    for name in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(rows, name), getattr(scan, name)), name


@settings(deadline=None, max_examples=200)
@given(st.lists(st.lists(st.sampled_from(["a", "b", "c", "q", "Q!", "😀"]), max_size=8)
                .map(" ".join), max_size=12))
@example(["a b a 😀", "q Q!", ""])
@example(["", "b", "q", "c c", "", "a Q!"] * 4)
def test_feature_rows_are_the_matrix_nonzeros_in_row_column_order(texts):
    # Rows with TF-IDF entries and surface values, rows whose terms are all
    # out of the vocabulary ("q") and empty texts, which have no entries.
    pipe = _pipeline()
    vocab = fit_vocabulary([["a", "b", "c", "a b"]], min_df=1)
    vectors = [featurize(preprocess(t, pipe.prep, pipe.stopwords, pipe.emoji), vocab,
                         pipe.abusive, pipe.ngram_max) for t in texts]
    rows = feature_rows(vectors, vocab)
    scan = SparseRows.from_dense(feature_matrix(vectors, vocab))
    for name in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(rows, name), getattr(scan, name)), name
    for start, stop in zip(rows.indptr[:-1], rows.indptr[1:]):
        assert np.all(np.diff(rows.indices[start:stop]) > 0)


@settings(deadline=None, max_examples=200)
@given(st.data())
def test_columns_of_rows_equal_columns_of_the_matrix(data):
    # Stored zeros of either sign are not entries of a column; no rows and
    # no columns are shapes like any other.
    n, d = data.draw(st.integers(0, 8)), data.draw(st.integers(0, 5))
    X = _matrix(data, n, d)
    # -0.0 is not stored, so it comes back as 0.0.
    back = SparseRows.from_dense(X).dense()
    assert back.shape == X.shape and back.tobytes() == (X + 0.0).tobytes()
    zeros = data.draw(st.sets(st.sampled_from([(r, c) for r in range(n) for c in range(d)
                                               if X[r, c] == 0] or [(-1, -1)])))
    got, want = _columns(_hand_rows(X, zeros)), _columns(X)
    for name in want._fields:
        assert np.array_equal(getattr(got, name), getattr(want, name)), name


@settings(deadline=None, max_examples=100)
@given(st.data())
def test_predict_proba_on_rows_equals_the_dense_walk(data):
    # Every form of X, every row or a drawn list of rows (repeats and the
    # empty list included), against a row-by-row walk of dense X[rows].
    n, d = data.draw(st.integers(2, 12)), data.draw(st.integers(1, 5))
    X = _matrix(data, n, d)
    y = data.draw(st.lists(st.sampled_from(["NOT", "OFF"]), min_size=n, max_size=n))
    model = train_forest(X, y, ForestParams(n_trees=3, max_features="all",
                                            seed=data.draw(st.integers(0, 99))))
    zeros = data.draw(st.sets(st.sampled_from([(r, c) for r in range(n) for c in range(d)
                                               if X[r, c] == 0] or [(-1, -1)])))
    sparse = _hand_rows(X, zeros)
    rows = data.draw(st.none() | st.lists(st.integers(0, n - 1), max_size=2 * n)
                     .map(lambda r: np.asarray(r, dtype=np.int64)))
    want = oracle_predict_proba(model, X if rows is None else X[rows]).tobytes()
    for features in (X, sparse, _columns(sparse)):
        assert predict_proba(model, features, rows).tobytes() == want


def test_forest_from_rows_equals_forest_from_the_matrix():
    texts, y = _corpus(90)
    _, rows = _pipeline().fit_transform(texts)
    X = rows.dense()
    params = ForestParams(n_trees=3, max_depth=6, seed=7)
    models = [io.BytesIO(), io.BytesIO()]
    for features, out in zip((rows, X), models):
        model = train_forest(features, y, params)
        save_model(model, out)
    assert models[0].getvalue() == models[1].getvalue()
    assert predict_proba(model, rows).tobytes() == predict_proba(model, X).tobytes()
    grid = [ForestParams(n_trees=2, max_depth=depth) for depth in (2, None)]
    from_rows = grid_search(grid, rows, y, k=3, seed=4)
    assert from_rows == grid_search(grid, X, y, k=3, seed=4)
    assert len({cv.mean for _, cv in from_rows.results}) > 1


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_rows_with_a_non_finite_value_are_rejected(bad):
    X = np.array([[0.0, 1.0], [2.0, 0.0], [0.0, 3.0], [4.0, 0.0]])
    X[1, 0] = bad
    y = ["NOT", "OFF", "NOT", "OFF"]
    for features in (X, SparseRows.from_dense(X)):
        for fit in (lambda: train_forest(features, y, ForestParams(n_trees=1)),
                    lambda: grid_search([ForestParams(n_trees=1)], features, y, k=2)):
            with pytest.raises(ValidationError, match="^X holds a non-finite value$"):
                fit()


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_prediction_rejects_a_non_finite_value_as_training_does(bad):
    X = np.array([[0.0, 1.0], [2.0, 0.0], [0.0, 3.0], [4.0, 0.0]])
    model = train_forest(X, ["NOT", "OFF", "NOT", "OFF"], ForestParams(n_trees=1))
    split = model.trees[0].feature
    assert set(split[split >= 0].tolist()) == {0}
    bad_X = X.copy()
    bad_X[1, 0] = bad
    for features in (bad_X, SparseRows.from_dense(bad_X)):
        with pytest.raises(ValidationError, match="^X holds a non-finite value$"):
            predict(model, features)
    # Dense X is checked only in the cells the walk reads: every split is on
    # column 0, so column 1 is never read, and row 3's column 0 is read
    # only when row 3 is predicted.
    bad_X = X.copy()
    bad_X[:, 1] = bad
    assert predict(model, bad_X) == predict(model, X)
    bad_X[3, 0] = bad
    assert predict(model, bad_X, [0, 1]) == predict(model, X, [0, 1])
    with pytest.raises(ValidationError, match="^X holds a non-finite value$"):
        predict(model, bad_X, [3])


def test_prediction_rows_out_of_range_are_rejected():
    X = np.array([[0.0, 1.0], [2.0, 0.0], [0.0, 3.0]])
    model = train_forest(X, ["NOT", "OFF", "OFF"], ForestParams(n_trees=1))
    for features in (X, SparseRows.from_dense(X), _columns(X)):
        for rows in ([3], [-1], [0, 2, 5]):
            with pytest.raises(ValidationError, match=r"^row indices must lie in 0\.\.2$"):
                predict(model, features, rows)


def test_rows_of_the_wrong_width_are_rejected():
    X = np.array([[0.0, 1.0], [2.0, 0.0], [0.0, 3.0]])
    model = train_forest(X, ["NOT", "OFF", "OFF"], ForestParams(n_trees=1))
    for width in (1, 4):
        wide = np.hstack([X, X])[:, :width]
        for features in (wide, SparseRows.from_dense(wide)):
            with pytest.raises(ValidationError, match=f"^expected 2 features, got {width}$"):
                predict_proba(model, features)


def test_fit_and_train_allocate_no_dense_matrix():
    # 3,000 tweets over about 2,000 words: their dense matrix would be
    # about 48 MB.  numpy reports its buffers to tracemalloc, so one dense
    # matrix of the corpus would show in the peak.
    rnd = random.Random(5)
    words = sorted({"".join(rnd.choice("bdfgklmnprstvz") + rnd.choice("aeiou") for _ in range(3))
                    for _ in range(2000)})
    texts = [" ".join(rnd.sample(words, 8)) for _ in range(3000)]
    y = ["OFF" if i % 3 == 0 else "NOT" for i in range(3000)]
    tracemalloc.start()
    try:
        pipe, rows = _pipeline(min_df=2, ngram_max=1).fit_transform(texts)
        model = train_forest(rows, y, ForestParams(n_trees=2, max_depth=8))
        predict_proba(model, rows)
        cross_validate(rows, y, ForestParams(n_trees=1, max_depth=4), k=3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(pipe.vocabulary) > 1500
    dense_bytes = len(texts) * (len(pipe.vocabulary) + N_SURFACE) * 8
    assert peak < dense_bytes / 4, (peak, dense_bytes)

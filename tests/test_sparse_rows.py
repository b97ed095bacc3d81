"""The sparse feature path: `Pipeline.fit_transform` returns the forest's
`Columns`, built once from `feature_rows`' entries, and the forest trains,
cross-validates and predicts from them exactly as from their dense
matrix."""

import io
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from offlang.cli import Pipeline, main
from offlang.errors import ValidationError
from offlang.features import N_SURFACE, feature_matrix, feature_rows, featurize, fit_vocabulary
from offlang.forest import (Columns, ForestParams, _columns, cross_validate, grid_search,
                            predict, predict_proba, save_model, train_forest)
from offlang.textprep import PrepConfig, preprocess

from conftest import DATA_DIR, rows_to_tsv, scatter, separable_rows
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


def _hand_entries(X, zeros):
    """The entries (rows, cols, values, shape) of X in (row, column) order,
    storing the cells listed in zeros (of value 0.0 or -0.0 in X; (-1, -1)
    lists none) as well as the nonzeros."""
    stored = X != 0
    for r, c in zeros:
        if r >= 0:
            stored[r, c] = True
    rows, cols = np.nonzero(stored)
    return rows, cols, X[rows, cols], X.shape


def _matrix(data, n, d):
    return np.array(data.draw(st.lists(st.sampled_from(_VALUES), min_size=n * d,
                                       max_size=n * d)), dtype=np.float64).reshape(n, d)


def test_fit_transform_rows_are_the_feature_matrix():
    texts, _ = _corpus(60)
    pipe, cols = _pipeline().fit_transform(texts)
    vocab = pipe.vocabulary
    vectors = [featurize(preprocess(t, pipe.prep, pipe.stopwords, pipe.emoji), vocab,
                         pipe.abusive, pipe.ngram_max) for t in texts]
    mat = feature_matrix(vectors, vocab)
    assert cols.shape == mat.shape == (60, len(vocab) + N_SURFACE)
    assert cols.n_rows == 60 and cols.itemsize == 8
    assert scatter(cols).tobytes() == mat.tobytes()
    # They are the Columns of the matrix, array for array.
    want = _columns(mat)
    for name in want._fields:
        assert np.array_equal(getattr(cols, name), getattr(want, name)), name


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
    rows, cols, values, shape = feature_rows(vectors, vocab)
    mat = feature_matrix(vectors, vocab)
    assert shape == mat.shape
    nz_rows, nz_cols = np.nonzero(mat)
    assert np.array_equal(rows, nz_rows) and np.array_equal(cols, nz_cols)
    assert np.array_equal(values, mat[nz_rows, nz_cols])
    # Strictly ascending (row, column) keys: in order, no cell twice.
    assert np.all(np.diff(rows * shape[1] + cols) > 0)


@settings(deadline=None, max_examples=200)
@given(st.data())
def test_columns_of_rows_equal_columns_of_the_matrix(data):
    # Stored zeros of either sign are not entries of a column; no rows and
    # no columns are shapes like any other.
    n, d = data.draw(st.integers(0, 8)), data.draw(st.integers(0, 5))
    X = _matrix(data, n, d)
    # -0.0 is not stored, so it comes back as 0.0.
    back = scatter(_columns(X))
    assert back.shape == X.shape and back.tobytes() == (X + 0.0).tobytes()
    zeros = data.draw(st.sets(st.sampled_from([(r, c) for r in range(n) for c in range(d)
                                               if X[r, c] == 0] or [(-1, -1)])))
    got, want = Columns.from_entries(*_hand_entries(X, zeros)), _columns(X)
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
    sparse = Columns.from_entries(*_hand_entries(X, zeros))
    rows = data.draw(st.none() | st.lists(st.integers(0, n - 1), max_size=2 * n)
                     .map(lambda r: np.asarray(r, dtype=np.int64)))
    want = oracle_predict_proba(model, X if rows is None else X[rows]).tobytes()
    for features in (X, sparse):
        assert predict_proba(model, features, rows).tobytes() == want


def test_forest_from_rows_equals_forest_from_the_matrix():
    texts, y = _corpus(90)
    _, cols = _pipeline().fit_transform(texts)
    X = scatter(cols)
    params = ForestParams(n_trees=3, max_depth=6, seed=7)
    models = [io.BytesIO(), io.BytesIO()]
    for features, out in zip((cols, X), models):
        model = train_forest(features, y, params)
        save_model(model, out)
    assert models[0].getvalue() == models[1].getvalue()
    assert predict_proba(model, cols).tobytes() == predict_proba(model, X).tobytes()
    grid = [ForestParams(n_trees=2, max_depth=depth) for depth in (2, None)]
    from_rows = grid_search(grid, cols, y, k=3, seed=4)
    assert from_rows == grid_search(grid, X, y, k=3, seed=4)
    assert len({cv.mean for _, cv in from_rows.results}) > 1


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_rows_with_a_non_finite_value_are_rejected(bad):
    X = np.array([[0.0, 1.0], [2.0, 0.0], [0.0, 3.0], [4.0, 0.0]])
    X[1, 0] = bad
    y = ["NOT", "OFF", "NOT", "OFF"]
    for fit in (lambda: train_forest(X, y, ForestParams(n_trees=1)),
                lambda: grid_search([ForestParams(n_trees=1)], X, y, k=2),
                lambda: Columns.from_entries(*_hand_entries(X, ()))):
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
    with pytest.raises(ValidationError, match="^X holds a non-finite value$"):
        predict(model, bad_X)
    # Columns cannot hold one, so sparse features never bring one to
    # prediction.
    with pytest.raises(ValidationError, match="^X holds a non-finite value$"):
        Columns.from_entries(*_hand_entries(bad_X, ()))
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
    for features in (X, _columns(X)):
        for rows in ([3], [-1], [0, 2, 5]):
            with pytest.raises(ValidationError, match=r"^row indices must lie in 0\.\.2$"):
                predict(model, features, rows)


def test_rows_of_the_wrong_width_are_rejected():
    X = np.array([[0.0, 1.0], [2.0, 0.0], [0.0, 3.0]])
    model = train_forest(X, ["NOT", "OFF", "OFF"], ForestParams(n_trees=1))
    for width in (1, 4):
        wide = np.hstack([X, X])[:, :width]
        for features in (wide, _columns(wide)):
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
        pipe, cols = _pipeline(min_df=2, ngram_max=1).fit_transform(texts)
        model = train_forest(cols, y, ForestParams(n_trees=2, max_depth=8))
        predict_proba(model, cols)
        cross_validate(cols, y, ForestParams(n_trees=1, max_depth=4), k=3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(pipe.vocabulary) > 1500
    dense_bytes = len(texts) * (len(pipe.vocabulary) + N_SURFACE) * 8
    assert peak < dense_bytes / 4, (peak, dense_bytes)


def test_features_are_transposed_once_per_run(monkeypatch, tmp_path):
    # `train` builds its Columns once, in fit_transform, and its forest and
    # scoring pass both read them; a grid search given Columns builds none,
    # and one given dense X builds one.
    calls = []
    real = Columns.from_entries.__func__

    def counting(cls, rows, cols, values, shape):
        calls.append(shape)
        return real(cls, rows, cols, values, shape)

    monkeypatch.setattr(Columns, "from_entries", classmethod(counting))
    corpus = tmp_path / "corpus.tsv"
    corpus.write_text(rows_to_tsv(separable_rows(40, seed=3)), encoding="utf-8")
    conf = tmp_path / "train.conf"
    conf.write_text("\n".join([
        "seed=5", f"corpus.train={corpus}", "forest.n_trees=3",
        f"lexicon.stopwords={DATA_DIR / 'stopwords_en.txt'}",
        f"out.model={tmp_path / 'model.bin'}"]) + "\n", encoding="utf-8")
    assert main(["train", str(conf)]) == 0
    assert len(calls) == 1 and calls[0][0] == 40

    texts, y = _corpus(30)
    _, cols = _pipeline().fit_transform(texts)
    X = scatter(cols)
    params = ForestParams(n_trees=2, max_depth=3)
    calls.clear()
    cv = cross_validate(cols, y, params, k=3)
    grid_search([params], cols, y, k=3)
    assert calls == []
    assert grid_search([params], X, y, k=3).results[0][1] == cv
    assert len(calls) == 1

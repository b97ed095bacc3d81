"""Confusion matrices, per-class scores, macro-F1, majority baseline.

The property test recounts precision/recall/accuracy directly from the
label pairs, bypassing the confusion matrix, so the two code paths check
each other.
"""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from offlang.errors import ValidationError
from offlang.metrics import (confusion, majority_baseline, render_confusion,
                             scores)


def test_confusion_rows_are_gold():
    mat = confusion(["NOT", "NOT", "OFF"], ["NOT", "OFF", "OFF"], ("NOT", "OFF"))
    assert mat.tolist() == [[1, 1], [0, 1]]


def test_confusion_validation():
    with pytest.raises(ValidationError):
        confusion(["NOT"], [], ("NOT",))
    with pytest.raises(ValidationError):
        confusion([], [], ("NOT",))
    with pytest.raises(ValidationError):
        confusion(["XXX"], ["NOT"], ("NOT", "OFF"))
    with pytest.raises(ValidationError):
        confusion(["NOT"], ["XXX"], ("NOT", "OFF"))


def test_scores_hand_fixture():
    # [[2, 1], [1, 1]]: p_a = r_a = 2/3, p_b = r_b = 1/2.
    s = scores(np.array([[2, 1], [1, 1]]), ("a", "b"))
    assert s.per_class["a"].precision == pytest.approx(2 / 3)
    assert s.per_class["a"].recall == pytest.approx(2 / 3)
    assert s.per_class["a"].f1 == pytest.approx(2 / 3)
    assert s.per_class["b"].f1 == pytest.approx(1 / 2)
    assert s.per_class["a"].support == 3
    assert s.per_class["b"].support == 2
    assert s.accuracy == pytest.approx(3 / 5)
    assert s.macro_f1 == pytest.approx(7 / 12)


def test_scores_degenerate_ratios_are_zero():
    # Class c never occurs: precision, recall and F1 all take 0/0 -> 0.
    s = scores(np.array([[2, 0, 0], [0, 2, 0], [0, 0, 0]]), ("a", "b", "c"))
    c = s.per_class["c"]
    assert (c.precision, c.recall, c.f1) == (0.0, 0.0, 0.0)
    assert c.support == 0
    assert s.macro_f1 == pytest.approx(2 / 3)


def test_scores_f1_zero_when_never_predicted():
    s = scores(np.array([[0, 2], [0, 2]]), ("a", "b"))
    assert s.per_class["a"].f1 == 0.0
    assert s.per_class["b"].precision == pytest.approx(0.5)
    assert s.per_class["b"].recall == 1.0
    assert s.macro_f1 == pytest.approx((0.0 + 2 / 3) / 2)


def test_macro_averages_over_declared_classes():
    gold = ["a", "a", "b", "b"]
    pred = ["a", "a", "b", "b"]
    two = scores(confusion(gold, pred, ("a", "b")), ("a", "b"))
    three = scores(confusion(gold, pred, ("a", "b", "c")), ("a", "b", "c"))
    assert two.macro_f1 == pytest.approx(1.0)
    assert three.macro_f1 == pytest.approx(2 / 3)


def test_scores_validation():
    with pytest.raises(ValidationError):
        scores(np.zeros((2, 3)), ("a", "b"))
    with pytest.raises(ValidationError):
        scores(np.zeros((2, 2)), ("a", "b"))


def test_majority_baseline():
    assert majority_baseline(["NOT", "NOT", "OFF"], ("NOT", "OFF")) == "NOT"
    assert majority_baseline(["OFF", "OFF", "NOT"], ("NOT", "OFF")) == "OFF"
    # Tie goes to the earliest declared class, regardless of input order.
    assert majority_baseline(["a", "b"], ("b", "a")) == "b"
    assert majority_baseline(["b", "a"], ("b", "a")) == "b"


def test_majority_baseline_validation():
    with pytest.raises(ValidationError):
        majority_baseline([], ("a",))
    with pytest.raises(ValidationError):
        majority_baseline(["x"], ("a",))


def test_render_confusion_exact_layout():
    mat = np.array([[278, 16], [9, 25]])
    text = render_confusion(mat, ("NOT", "OFF"))
    assert text.splitlines() == [
        "          pred NOT  pred OFF",
        "gold NOT       278        16",
        "gold OFF         9        25",
    ]


def test_render_confusion_wide_counts():
    text = render_confusion(np.array([[1234567890, 0], [0, 1]]), ("a", "b"))
    lines = text.splitlines()
    assert "1234567890" in lines[1]
    assert len({len(line) for line in lines}) == 1  # rectangular


_LABELS = st.lists(st.sampled_from(["a", "b", "c"]), min_size=1, max_size=50)


@given(st.tuples(_LABELS, _LABELS).map(
    lambda gp: (gp[0], (gp[1] * (len(gp[0]) // len(gp[1]) + 1))[:len(gp[0])])))
def test_scores_match_direct_recount(gold_pred):
    gold, pred = gold_pred
    classes = ("a", "b", "c")
    s = scores(confusion(gold, pred, classes), classes)
    hits = sum(1 for g, p in zip(gold, pred) if g == p)
    assert s.accuracy == pytest.approx(hits / len(gold))
    for c in classes:
        tp = sum(1 for g, p in zip(gold, pred) if g == p == c)
        n_pred = sum(1 for p in pred if p == c)
        n_gold = sum(1 for g in gold if g == c)
        sc = s.per_class[c]
        assert sc.precision == pytest.approx(tp / n_pred if n_pred else 0.0)
        assert sc.recall == pytest.approx(tp / n_gold if n_gold else 0.0)
        pr = sc.precision + sc.recall
        assert sc.f1 == pytest.approx(
            2 * sc.precision * sc.recall / pr if pr else 0.0)
    assert s.macro_f1 == pytest.approx(
        sum(s.per_class[c].f1 for c in classes) / 3)


def _loop_confusion(gold, pred, classes):
    """confusion as one Python loop over the pairs, the reference for its
    one bincount: an unknown label raises at the first pair that has one,
    the gold label checked before the predicted one."""
    index = {c: i for i, c in enumerate(classes)}
    mat = np.zeros((len(classes), len(classes)), dtype=np.int64)
    for g, p in zip(gold, pred):
        if g not in index:
            raise ValidationError(f"gold label {g!r} not in class list {list(classes)}")
        if p not in index:
            raise ValidationError(f"predicted label {p!r} not in class list {list(classes)}")
        mat[index[g], index[p]] += 1
    return mat


_PAIRS = st.lists(st.tuples(*[st.sampled_from(["a", "b", "c", "x", "y"])] * 2), min_size=1,
                  max_size=30)


@given(_PAIRS)
def test_confusion_matches_pair_loop(pairs):
    gold, pred = map(list, zip(*pairs))
    classes = ("a", "b", "c")
    try:
        want = _loop_confusion(gold, pred, classes)
    except ValidationError as exc:
        with pytest.raises(ValidationError) as got:
            confusion(gold, pred, classes)
        assert str(got.value) == str(exc)
    else:
        got = confusion(gold, pred, classes)
        assert got.dtype == np.int64
        assert got.tolist() == want.tolist()

"""Evaluation: confusion matrices, per-class P/R/F1, macro-F1, accuracy and
the majority-class baseline.

Degenerate ratios follow the 0/0 -> 0 convention: a class never predicted
has precision 0, a class absent from the gold labels has recall 0, and F1
is 0 whenever precision + recall is 0.  Macro-F1 averages over the declared
class list, not over the classes that happen to occur.
"""

from dataclasses import dataclass
from functools import reduce
from operator import add

import numpy as np

from .errors import ValidationError


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def confusion(gold, pred, classes) -> np.ndarray:
    """Confusion matrix with rows = gold, columns = predicted."""
    classes = list(classes)
    if len(gold) != len(pred):
        raise ValidationError(f"gold and predictions differ in length: "
                              f"{len(gold)} vs {len(pred)}")
    if not gold:
        raise ValidationError("empty evaluation: no instances to score")
    index = {c: i for i, c in enumerate(classes)}
    mat = np.zeros((len(classes), len(classes)), dtype=np.int64)
    for g, p in zip(gold, pred):
        if g not in index:
            raise ValidationError(f"gold label {g!r} not in class list {classes}")
        if p not in index:
            raise ValidationError(f"predicted label {p!r} not in class list {classes}")
        mat[index[g], index[p]] += 1
    return mat


@dataclass(frozen=True)
class ClassScores:
    precision: float
    recall: float
    f1: float
    support: int


@dataclass(frozen=True)
class Scores:
    accuracy: float
    macro_f1: float
    per_class: dict[str, ClassScores]


def scores(matrix: np.ndarray, classes) -> Scores:
    """Accuracy, per-class precision/recall/F1 and macro-F1 from a confusion
    matrix (rows gold, columns predicted)."""
    classes = list(classes)
    matrix = np.asarray(matrix)
    if matrix.shape != (len(classes), len(classes)):
        raise ValidationError(
            f"matrix shape {matrix.shape} does not match {len(classes)} classes")
    total = int(matrix.sum())
    if total == 0:
        raise ValidationError("empty evaluation: confusion matrix sums to zero")
    per_class = {}
    for i, c in enumerate(classes):
        tp = float(matrix[i, i])
        precision = _ratio(tp, float(matrix[:, i].sum()))
        recall = _ratio(tp, float(matrix[i, :].sum()))
        f1 = _ratio(2.0 * precision * recall, precision + recall)
        per_class[c] = ClassScores(precision=precision, recall=recall, f1=f1,
                                   support=int(matrix[i, :].sum()))
    # Added left to right: Python 3.12's sum of floats compensates the rounding.
    macro = reduce(add, (s.f1 for s in per_class.values()), 0.0) / len(classes)
    return Scores(accuracy=float(np.trace(matrix)) / total, macro_f1=macro,
                  per_class=per_class)


def majority_baseline(train_labels, classes) -> str:
    """Most frequent training label; ties go to the earliest declared class."""
    classes = list(classes)
    if not train_labels:
        raise ValidationError("cannot derive a majority baseline from no labels")
    counts = {c: 0 for c in classes}
    for label in train_labels:
        if label not in counts:
            raise ValidationError(f"label {label!r} not in class list {classes}")
        counts[label] += 1
    return max(classes, key=lambda c: (counts[c], -classes.index(c)))


def render_confusion(matrix: np.ndarray, classes) -> str:
    """Plain-text confusion table, gold in rows, predictions in columns."""
    classes = list(classes)
    matrix = np.asarray(matrix)
    col_heads = [f"pred {c}" for c in classes]
    row_heads = [f"gold {c}" for c in classes]
    left = max(len(h) for h in row_heads)
    widths = [max(len(h), max(len(str(int(matrix[r, i]))) for r in range(len(classes))))
              for i, h in enumerate(col_heads)]
    lines = [" " * left + "  " + "  ".join(h.rjust(w) for h, w in zip(col_heads, widths))]
    for r, head in enumerate(row_heads):
        cells = "  ".join(str(int(matrix[r, i])).rjust(w) for i, w in enumerate(widths))
        lines.append(head.ljust(left) + "  " + cells)
    return "\n".join(lines)

"""Correctness checks, computed apart from offlang.

Nothing here imports offlang.  Models are parsed from their documented
binary layout with `struct`, features are rebuilt from the generator's
token records with the formulas the features module documents, trees are
walked and splits are searched here, and scores are recomputed here.  The
only shared code is numpy's SeedSequence/PCG64, which the documented
`rng.stream` derivation names.

Every check raises CheckFailed with a message on the first violation.
"""

import json
import math
import struct
import unicodedata
from collections import Counter
from fractions import Fraction

import numpy as np

MASK64 = (1 << 64) - 1
TAG_TREE = 1          # rng.stream tag for (tree index): bootstrap + feature subsets
PLACEHOLDERS = ("@user", "url")


class CheckFailed(Exception):
    pass


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


# ---------------------------------------------------------------------------
# Model file


def parse_model(blob: bytes) -> dict:
    """Magic RFMF, <II version and header length, JSON header, then per
    tree a <I node count and the feature (<i4), threshold (<f8), left
    (<i4), right (<i4) and counts (<u4, n_nodes x n_classes) arrays."""
    require(blob[:4] == b"RFMF", "model: bad magic")
    version, header_len = struct.unpack_from("<II", blob, 4)
    require(version == 1, f"model: version {version}")
    header = json.loads(blob[12:12 + header_len].decode("utf-8"))
    pos = 12 + header_len
    k = len(header["classes"])
    trees = []
    for _ in range(header["n_trees"]):
        (n,) = struct.unpack_from("<I", blob, pos)
        pos += 4
        arrays = {}
        for name, code, width in (("feature", "i", 4), ("threshold", "d", 8),
                                  ("left", "i", 4), ("right", "i", 4)):
            arrays[name] = struct.unpack_from(f"<{n}{code}", blob, pos)
            pos += width * n
        flat = struct.unpack_from(f"<{n * k}I", blob, pos)
        pos += 4 * n * k
        arrays["counts"] = [flat[i * k:(i + 1) * k] for i in range(n)]
        trees.append(arrays)
    require(pos == len(blob), f"model: {len(blob) - pos} trailing bytes")
    header["trees"] = trees
    return header


def check_tree(tree: dict, n_classes: int, n_features: int) -> None:
    """A valid preorder tree: a split's left child is the next node, its
    right child follows the whole left subtree, and its counts are the sum
    of its children's counts; leaves hold some rows."""
    feature, left, right, counts = tree["feature"], tree["left"], tree["right"], tree["counts"]
    n = len(feature)
    require(n >= 1, "tree: no nodes")
    size = [1] * n
    for i in range(n - 1, -1, -1):
        require(len(counts[i]) == n_classes, f"tree: node {i} counts width")
        if feature[i] < 0:
            require(feature[i] == -1 and left[i] == -1 and right[i] == -1,
                    f"tree: leaf {i} has links")
            require(sum(counts[i]) > 0, f"tree: leaf {i} is empty")
            continue
        l, r = left[i], right[i]
        require(feature[i] < n_features, f"tree: node {i} feature {feature[i]} out of range")
        require(math.isfinite(tree["threshold"][i]), f"tree: node {i} threshold not finite")
        require(l == i + 1 and i + 1 < r < n, f"tree: node {i} links {l},{r} not preorder")
        require(r == l + size[l], f"tree: node {i} right child {r} does not follow its left subtree")
        require(tuple(a + b for a, b in zip(counts[l], counts[r])) == tuple(counts[i]),
                f"tree: node {i} counts are not the sum of its children's")
        size[i] = 1 + size[l] + size[r]
    require(size[0] == n, "tree: nodes unreachable from the root")


# ---------------------------------------------------------------------------
# Features, rebuilt from the generator's token records


def fit_vocabulary(token_lists, min_df: int) -> dict:
    """Terms with document frequency >= min_df, in first-occurrence order."""
    first = {}
    df = Counter()
    n_docs = 0
    for tokens in token_lists:
        n_docs += 1
        df.update(set(tokens))
        for t in tokens:
            first.setdefault(t, len(first))
    kept = sorted((t for t, c in df.items() if c >= min_df), key=first.__getitem__)
    return {"terms": kept, "df": [df[t] for t in kept], "n_docs": n_docs}


def tfidf_row(tokens, index: dict, df, n_docs: int) -> list[tuple[int, float]]:
    """weight = tf * (ln((1 + N) / (1 + df)) + 1), L2-normalized, index order."""
    tf = Counter(index[t] for t in tokens if t in index)
    entries = [(i, c * (math.log((1 + n_docs) / (1 + df[i])) + 1.0)) for i, c in sorted(tf.items())]
    norm = math.sqrt(sum(w * w for _, w in entries))
    return [(i, w / norm) for i, w in entries]


def surface_row(tweet, abusive) -> tuple:
    """The nine surface statistics, in SURFACE_FIELDS order."""
    text, base = tweet.text, tweet.base_tokens
    words = [t for t in base if t.isalpha() and t not in PLACEHOLDERS]
    letters = [ch for ch in text if ch.isalpha()]
    uppers = sum(1 for ch in letters if ch.isupper())
    return (
        float(base.count("url")),
        float(base.count("@user")),
        float(len(text)),
        float(sum(1 for ch in text if unicodedata.category(ch).startswith("P"))),
        float(len(words)),
        (sum(len(w) for w in words) / len(words)) if words else 0.0,
        (uppers / len(letters)) if letters else 0.0,
        float(sum(1 for t in base if t in abusive)),
        float(tweet.emoji_score),
    )


def feature_rows(tweets, vocab: dict, abusive) -> list[dict]:
    """Sparse rows {column: value} of the (n, |V| + 9) feature matrix."""
    index = {t: i for i, t in enumerate(vocab["terms"])}
    width = len(index)
    abusive = set(abusive)
    rows = []
    for t in tweets:
        row = dict(tfidf_row(t.tokens, index, vocab["df"], vocab["n_docs"]))
        for j, v in enumerate(surface_row(t, abusive)):
            if v != 0.0:
                row[width + j] = v
        rows.append(row)
    return rows


def check_vocabulary(sidecar_vocab: dict, expected: dict) -> None:
    require(sidecar_vocab["n_docs"] == expected["n_docs"], "vocabulary: n_docs differs")
    require(list(sidecar_vocab["terms"]) == expected["terms"], "vocabulary: terms differ")
    require(list(sidecar_vocab["df"]) == expected["df"], "vocabulary: document frequencies differ")


def check_tfidf(program_rows, expected_rows, tol: float = 1e-9) -> None:
    """program_rows/expected_rows: lists of [(index, weight)] per tweet."""
    for r, (got, want) in enumerate(zip(program_rows, expected_rows, strict=True)):
        require([i for i, _ in got] == [i for i, _ in want], f"tfidf: row {r} terms differ")
        for (i, a), (_, b) in zip(got, want):
            require(abs(a - b) <= tol, f"tfidf: row {r} term {i} weight {a!r} != {b!r}")


def check_emoji_scores(program_scores, expected_scores, tol: float = 1e-12) -> None:
    for r, (a, b) in enumerate(zip(program_scores, expected_scores, strict=True)):
        require(abs(a - b) <= tol, f"emoji_score: sampled row {r} is {a!r}, planted mean {b!r}")


# ---------------------------------------------------------------------------
# Prediction and scores


def model_predict(model: dict, rows) -> list[str]:
    """Mean of the trees' leaf class frequencies, argmax, ties to the
    lowest class index."""
    classes = model["classes"]
    k = len(classes)
    trees = model["trees"]
    out = []
    for row in rows:
        acc = [0.0] * k
        for tree in trees:
            feature, threshold = tree["feature"], tree["threshold"]
            node = 0
            while feature[node] >= 0:
                node = tree["left"][node] if row.get(feature[node], 0.0) <= threshold[node] \
                    else tree["right"][node]
            counts = tree["counts"][node]
            total = float(sum(counts))
            for c in range(k):
                acc[c] += counts[c] / total
        proba = [a / len(trees) for a in acc]
        out.append(classes[max(range(k), key=lambda c: (proba[c], -c))])
    return out


def macro_f1(gold, pred, classes) -> float:
    """Mean per-class F1 over the declared classes; 0/0 counts as 0."""
    require(len(gold) == len(pred), f"scores: {len(gold)} gold labels, {len(pred)} predictions")
    f1s = []
    for c in classes:
        tp = sum(1 for g, p in zip(gold, pred) if g == c and p == c)
        predicted = sum(1 for p in pred if p == c)
        actual = sum(1 for g in gold if g == c)
        precision = tp / predicted if predicted else 0.0
        recall = tp / actual if actual else 0.0
        f1s.append(2.0 * precision * recall / (precision + recall) if precision + recall else 0.0)
    return sum(f1s) / len(classes)


def majority_macro_f1(gold, classes) -> float:
    """Macro-F1 of always predicting the most frequent class."""
    counts = Counter(gold)
    majority = max(classes, key=lambda c: (counts[c], -classes.index(c)))
    return macro_f1(gold, [majority] * len(gold), classes)


def check_predictions(lines, ids, classes) -> list[str]:
    """One `id<TAB>label` line per input id, in input order; returns labels."""
    require(len(lines) == len(ids), f"predictions: {len(lines)} lines for {len(ids)} tweets")
    out = []
    for n, (line, tid) in enumerate(zip(lines, ids)):
        got_id, sep, label = line.partition("\t")
        require(sep == "\t" and got_id == tid, f"predictions: line {n + 1} is {line!r}, expected id {tid}")
        require(label in classes, f"predictions: line {n + 1} label {label!r}")
        out.append(label)
    return out


def check_same_labels(program, expected) -> None:
    for n, (a, b) in enumerate(zip(program, expected, strict=True)):
        require(a == b, f"labels: row {n} is {a}, the model's trees give {b}")


# ---------------------------------------------------------------------------
# Cross-validation


def check_folds(folds, codes, k: int) -> None:
    """Test folds partition the rows, train is the complement, and the
    per-class fold counts (and fold sizes) differ by at most one."""
    n = len(codes)
    require(len(folds) == k, f"folds: {len(folds)} folds, expected {k}")
    seen = [0] * n
    per_class = []
    for train, test in folds:
        test = [int(i) for i in test]
        for i in test:
            seen[i] += 1
        require(sorted(set(range(n)) - set(test)) == sorted(int(i) for i in train),
                "folds: a train set is not the complement of its test set")
        per_class.append(Counter(codes[i] for i in test))
    require(all(s == 1 for s in seen), "folds: test folds do not partition the rows")
    for c in set(codes):
        sizes = [pc[c] for pc in per_class]
        require(max(sizes) - min(sizes) <= 1, f"folds: class {c} fold counts {sizes}")
    sizes = [sum(pc.values()) for pc in per_class]
    require(max(sizes) - min(sizes) <= 1, f"folds: fold sizes {sizes}")


def check_cv_summary(fold_scores, mean: float, std: float, k: int, tol: float = 1e-12) -> None:
    require(len(fold_scores) == k, f"cv: {len(fold_scores)} fold scores for k={k}")
    require(all(0.0 <= s <= 1.0 for s in fold_scores), "cv: fold score outside [0, 1]")
    m = math.fsum(fold_scores) / k
    sd = math.sqrt(math.fsum((s - m) ** 2 for s in fold_scores) / k)
    require(abs(mean - m) <= tol, f"cv: mean {mean!r}, recomputed {m!r}")
    require(abs(std - sd) <= tol, f"cv: std {std!r}, recomputed {sd!r}")


# ---------------------------------------------------------------------------
# Exact root split


def tree_stream(seed: int, tree_index: int) -> np.random.Generator:
    """rng.stream(seed, TAG_TREE, i): PCG64 over SeedSequence([seed, 1, i])."""
    entropy = [int(seed) & MASK64, TAG_TREE, int(tree_index) & MASK64]
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy)))


def root_draws(seed: int, tree_index: int, n_rows: int, n_features: int):
    """The tree's bootstrap rows, then the root's feature subset, drawn in
    the order train_forest and train_tree draw them (max_features=sqrt)."""
    rng = tree_stream(seed, tree_index)
    sample = rng.integers(0, n_rows, size=n_rows)
    m = max(1, int(math.sqrt(n_features)))
    if m < n_features:
        feats = np.sort(rng.choice(n_features, size=m, replace=False))
    else:
        feats = np.arange(n_features)
    return sample, feats


def columns_of(rows) -> dict:
    """Inverted index: column -> [(row, value)] over nonzero cells."""
    cols = {}
    for r, row in enumerate(rows):
        for c, v in row.items():
            cols.setdefault(c, []).append((r, v))
    return cols


def exact_best_split(columns: dict, codes, sample, feats, n_classes: int, min_leaf: int = 1):
    """Minimum weighted-Gini split over `feats` for the multiset of rows
    `sample`, scored in exact Fractions.  Thresholds are midpoints of
    consecutive distinct values (clamped down to the lower value when the
    midpoint rounds up to the upper), the predicate is x <= threshold, ties
    go to the lowest feature, then the lowest threshold.  Returns
    (feature, threshold), or None when the node is pure or cannot split."""
    mult = Counter(int(r) for r in sample)
    total = [0] * n_classes
    for r, m in mult.items():
        total[codes[r]] += m
    n = len(sample)
    if n < 2 or max(total) == n:
        return None
    best = best_q = None
    for f in (int(x) for x in feats):
        by_value = {}
        for r, v in columns.get(f, ()):
            m = mult.get(r)
            if m:
                by_value.setdefault(v, [0] * n_classes)[codes[r]] += m
        zeros = list(total)
        for counts in by_value.values():
            for c in range(n_classes):
                zeros[c] -= counts[c]
        if sum(zeros):
            by_value[0.0] = zeros
        values = sorted(by_value)
        left = [0] * n_classes
        n_left = 0
        for a, b in zip(values, values[1:]):
            for c, x in enumerate(by_value[a]):
                left[c] += x
            n_left += sum(by_value[a])
            n_right = n - n_left
            if n_left < min_leaf or n_right < min_leaf:
                continue
            # n * weighted Gini = n - q, so the best split maximizes q.
            q = Fraction(sum(x * x for x in left), n_left) + \
                Fraction(sum((t - x) ** 2 for t, x in zip(total, left)), n_right)
            if best_q is None or q > best_q:
                t = (a + b) / 2.0
                best_q, best = q, (f, a if t >= b else t)
    return best


def check_root_split(tree: dict, expected) -> None:
    if expected is None:
        require(tree["feature"][0] == -1, "root split: the root splits where no split exists")
        return
    got = (tree["feature"][0], tree["threshold"][0])
    require(got == expected, f"root split: model has {got}, exact minimum-Gini split is {expected}")

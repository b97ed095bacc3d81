"""Span recorder for the traced pass.

Wraps offlang functions from outside, by replacing module attributes for
the length of one pass; no file under src/ changes.  A name is wrapped
where its caller looks it up: cli imported most layer functions by name,
so those are replaced on offlang.cli, while functions that other modules
call through their own module globals (tokenize, stem, train_tree, kfold
and the forest's train_forest and predict inside cross_validate) are
replaced on their defining module.

Each span has a name, a start, an end and a parent, and is kept in memory
until `write`.  Counts are taken at the same boundaries, after the span's
end, so the work of counting is charged to the parent's self time.
"""

import importlib
import json
import resource
import time
from collections import Counter, defaultdict
from pathlib import Path

import numpy as np

MIB = 1024.0 * 1024.0

# (module, attribute, span name)
TARGETS = (
    ("offlang.cli", "load_corpus", "corpus.load_corpus"),
    ("offlang.cli", "preprocess", "textprep.preprocess"),
    ("offlang.textprep", "extract_emoji_sentiment", "textprep.extract_emoji_sentiment"),
    ("offlang.textprep", "tokenize", "textprep.tokenize"),
    ("offlang.stemming", "stem", "stemming.stem"),
    ("offlang.cli", "fit_vocabulary", "features.fit_vocabulary"),
    ("offlang.cli", "featurize", "features.featurize"),
    ("offlang.cli", "feature_matrix", "features.feature_matrix"),
    ("offlang.cli", "train_forest", "forest.train_forest"),
    ("offlang.forest", "train_forest", "forest.train_forest"),
    ("offlang.forest", "train_tree", "forest.train_tree"),
    ("offlang.cli", "cross_validate", "forest.cross_validate"),
    ("offlang.forest", "kfold", "forest.kfold"),
    ("offlang.cli", "forest_predict", "forest.predict"),
    ("offlang.forest", "predict", "forest.predict"),
    ("offlang.cli", "save_model", "forest.save_model"),
    ("offlang.cli", "load_model", "forest.load_model"),
    ("offlang.manifest", "file_digest", "manifest.file_digest"),
)


# Per-layer metric -> (unit, which way is better).  Seconds are scaled
# seconds of the traced pass; MB are MiB.
LAYER_METRICS = {
    "textprep.preprocess.s": ("s", "lower"),
    "textprep.preprocess.calls": ("count", "lower"),
    "textprep.preprocess.us_per_tweet": ("us", "lower"),
    "textprep.tokenize.calls_per_tweet": ("ratio", "lower"),
    "textprep.tokenize.s": ("s", "lower"),
    "textprep.extract_emoji_sentiment.s": ("s", "lower"),
    "stemming.stem.s": ("s", "lower"),
    "stemming.stem.calls": ("count", "lower"),
    "stemming.stem.distinct_ratio": ("ratio", "higher"),
    "corpus.load_corpus.s": ("s", "lower"),
    "corpus.rows": ("count", "higher"),
    "features.fit_vocabulary.s": ("s", "lower"),
    "features.vocab_terms": ("count", "higher"),
    "features.featurize.s": ("s", "lower"),
    "features.featurize.calls": ("count", "lower"),
    "features.feature_matrix.s": ("s", "lower"),
    "features.matrix_mb": ("MB", "lower"),
    "features.matrix_density": ("ratio", "higher"),
    "features.peak_rss_rise_mb": ("MB", "lower"),
    "forest.train_forest.s": ("s", "lower"),
    "forest.train_tree.s": ("s", "lower"),
    "forest.train_tree.calls": ("count", "lower"),
    "forest.s_per_tree": ("s", "lower"),
    "forest.nodes": ("count", "lower"),
    "forest.depth_max": ("count", "lower"),
    "forest.cross_validate.s": ("s", "lower"),
    "forest.folds": ("count", "lower"),
    "forest.bootstrap_mb": ("MB", "lower"),
    "forest.peak_rss_rise_mb": ("MB", "lower"),
    "forest.predict.s": ("s", "lower"),
    "forest.predict.rows": ("count", "higher"),
    "forest.save_model.s": ("s", "lower"),
    "forest.load_model.s": ("s", "lower"),
    "forest.model_bytes": ("bytes", "lower"),
    "manifest.file_digest.s": ("s", "lower"),
    "manifest.bytes_hashed": ("bytes", "lower"),
    "cli.sidecar_bytes": ("bytes", "lower"),
    "cli.self_s": ("s", "lower"),
    "bench.tracing_overhead_s": ("s", "lower"),
}


def _maxrss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def tree_depth(left, right, feature) -> int:
    """Depth of a preorder tree (a lone leaf has depth 0)."""
    depth = [0] * len(feature)
    for node in range(len(feature)):
        if feature[node] >= 0:
            depth[int(left[node])] = depth[int(right[node])] = depth[node] + 1
    return max(depth)


class Recorder:
    def __init__(self):
        self.name: list[str] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self._stack: list[int] = []
        self._saved: list = []
        self.counts: Counter = Counter()
        self.peak_rise: dict[str, float] = defaultdict(float)
        self.stems: set[str] = set()
        self.depth_max = 0

    # -- recording -----------------------------------------------------

    def call(self, name, fn, *args, **kwargs):
        """Run fn inside a span called `name`."""
        idx = len(self.name)
        self.name.append(name)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.start.append(0.0)
        self.end.append(0.0)
        self._stack.append(idx)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.end[idx] = time.perf_counter()
            self.start[idx] = t0
            self._stack.pop()

    def _wrap(self, name, fn):
        hook = getattr(self, "_on_" + name.replace(".", "_"), None)
        memory = name in ("features.feature_matrix", "forest.train_forest")

        def wrapper(*args, **kwargs):
            rss = _maxrss_mib() if memory else 0.0
            result = self.call(name, fn, *args, **kwargs)
            if memory:
                self.peak_rise[name] = max(self.peak_rise[name], _maxrss_mib() - rss)
            if hook is not None:
                hook(args, result)
            return result
        return wrapper

    def install(self):
        for module_name, attr, name in TARGETS:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr)
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(name, fn))

    def uninstall(self):
        while self._saved:
            module, attr, fn = self._saved.pop()
            setattr(module, attr, fn)

    # -- counts taken at span boundaries ---------------------------------

    def _on_corpus_load_corpus(self, args, corpus):
        self.counts["corpus.rows"] += len(corpus)

    def _on_stemming_stem(self, args, result):
        self.stems.add(args[0])

    def _on_features_fit_vocabulary(self, args, vocab):
        self.counts["features.vocab_terms"] += len(vocab)

    def _on_features_feature_matrix(self, args, mat):
        self.counts["features.matrix_bytes"] += mat.nbytes
        self.counts["features.matrix_cells"] += mat.size
        self.counts["features.matrix_nonzero"] += int(np.count_nonzero(mat))

    def _on_forest_train_forest(self, args, model):
        X, params = args[0], args[2]
        # X[sample] copies the whole matrix once per tree.
        self.counts["forest.bootstrap_bytes"] += params.n_trees * X.shape[0] * X.shape[1] * X.itemsize

    def _on_forest_train_tree(self, args, tree):
        self.counts["forest.nodes"] += len(tree.feature)
        self.depth_max = max(self.depth_max, tree_depth(tree.left, tree.right, tree.feature))

    def _on_forest_kfold(self, args, folds):
        self.counts["forest.folds"] += len(folds)

    def _on_forest_predict(self, args, labels):
        self.counts["forest.predict.rows"] += len(labels)

    def _on_forest_save_model(self, args, result):
        self.counts["forest.model_bytes"] += Path(args[1]).stat().st_size

    def _on_manifest_file_digest(self, args, result):
        self.counts["manifest.bytes_hashed"] += Path(args[0]).stat().st_size

    # -- results ---------------------------------------------------------

    def metrics(self, scale: float) -> dict:
        """Per-layer figures; seconds are multiplied by `scale`, the traced
        pass's reference scaling."""
        total = defaultdict(float)
        calls = Counter()
        child = defaultdict(float)
        for i, name in enumerate(self.name):
            d = self.end[i] - self.start[i]
            total[name] += d
            calls[name] += 1
            if self.parent[i] >= 0:
                child[self.parent[i]] += d
        roots = [i for i, p in enumerate(self.parent) if p < 0]
        c = self.counts
        n_prep = calls["textprep.preprocess"]
        n_trees = calls["forest.train_tree"]

        def s(name):
            return total[name] * scale

        def ratio(a, b):
            return a / b if b else 0.0

        return {
            "textprep.preprocess.s": s("textprep.preprocess"),
            "textprep.preprocess.calls": n_prep,
            "textprep.preprocess.us_per_tweet": ratio(s("textprep.preprocess") * 1e6, n_prep),
            "textprep.tokenize.calls_per_tweet": ratio(calls["textprep.tokenize"], n_prep),
            "textprep.tokenize.s": s("textprep.tokenize"),
            "textprep.extract_emoji_sentiment.s": s("textprep.extract_emoji_sentiment"),
            "stemming.stem.s": s("stemming.stem"),
            "stemming.stem.calls": calls["stemming.stem"],
            "stemming.stem.distinct_ratio": ratio(len(self.stems), calls["stemming.stem"]),
            "corpus.load_corpus.s": s("corpus.load_corpus"),
            "corpus.rows": c["corpus.rows"],
            "features.fit_vocabulary.s": s("features.fit_vocabulary"),
            "features.vocab_terms": c["features.vocab_terms"],
            "features.featurize.s": s("features.featurize"),
            "features.featurize.calls": calls["features.featurize"],
            "features.feature_matrix.s": s("features.feature_matrix"),
            "features.matrix_mb": c["features.matrix_bytes"] / MIB,
            "features.matrix_density": ratio(c["features.matrix_nonzero"], c["features.matrix_cells"]),
            "features.peak_rss_rise_mb": self.peak_rise["features.feature_matrix"],
            "forest.train_forest.s": s("forest.train_forest"),
            "forest.train_tree.s": s("forest.train_tree"),
            "forest.train_tree.calls": n_trees,
            "forest.s_per_tree": ratio(s("forest.train_tree"), n_trees),
            "forest.nodes": c["forest.nodes"],
            "forest.depth_max": self.depth_max,
            "forest.cross_validate.s": s("forest.cross_validate"),
            "forest.folds": c["forest.folds"],
            "forest.bootstrap_mb": c["forest.bootstrap_bytes"] / MIB,
            "forest.peak_rss_rise_mb": self.peak_rise["forest.train_forest"],
            "forest.predict.s": s("forest.predict"),
            "forest.predict.rows": c["forest.predict.rows"],
            "forest.save_model.s": s("forest.save_model"),
            "forest.load_model.s": s("forest.load_model"),
            "forest.model_bytes": c["forest.model_bytes"],
            "manifest.file_digest.s": s("manifest.file_digest"),
            "manifest.bytes_hashed": c["manifest.bytes_hashed"],
            "cli.self_s": sum(self.end[i] - self.start[i] - child[i] for i in roots) * scale,
        }

    def write(self, path):
        """Spans as parallel columns; names are indices into `names`."""
        names = sorted(set(self.name))
        code = {n: i for i, n in enumerate(names)}
        t0 = min(self.start, default=0.0)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": names,
                       "name": [code[n] for n in self.name],
                       "start": [round(t - t0, 7) for t in self.start],
                       "end": [round(t - t0, 7) for t in self.end],
                       "parent": self.parent}, fh)

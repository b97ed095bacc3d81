"""The names perfbench reaches into offlang by.

perfbench's traced pass wraps offlang functions by module and attribute
name (spans.TARGETS) and counts at their boundaries, its checks call
features.featurize(...).sparse, and its workloads pass --threads 1.  A
rename that breaks any of these fails here, in the tier-1 run, rather than
only in a full benchmark run.
"""

import importlib
import json
from pathlib import Path

from offlang.cli import main

from conftest import DATA_DIR, rows_to_tsv, separable_rows

BENCH_DIR = Path(__file__).resolve().parent.parent / "perfbench"


def test_benchmark_hooks(monkeypatch, tmp_path, capsys):
    # Import perfbench's modules as the benchmark does; sys.path is
    # restored afterwards.
    monkeypatch.syspath_prepend(str(BENCH_DIR))
    spans = importlib.import_module("spans")
    run = importlib.import_module("run")
    for module, attr, _ in spans.TARGETS:
        assert callable(getattr(importlib.import_module(module), attr)), (module, attr)

    corpus = tmp_path / "corpus.tsv"
    corpus.write_text(rows_to_tsv(separable_rows(40, seed=5)), encoding="utf-8")
    conf = tmp_path / "train.conf"
    model = tmp_path / "model.bin"
    conf.write_text("\n".join([
        "seed=3",
        f"corpus.train={corpus}",
        "forest.n_trees=3",
        f"lexicon.stopwords={DATA_DIR / 'stopwords_en.txt'}",
        f"lexicon.abusive={DATA_DIR / 'abusive_en.txt'}",
        f"lexicon.emoji={DATA_DIR / 'emoji_sentiment.csv'}",
        f"out.model={model}",
    ]) + "\n", encoding="utf-8")

    recorder = spans.Recorder()
    recorder.install()
    try:
        assert main(["train", str(conf), "--threads", "1"]) == 0
        assert main(["cv", str(conf), "--k", "2", "--threads", "1"]) == 0
        assert main(["predict", str(model), str(corpus),
                     "--out", str(tmp_path / "pred.tsv")]) == 0
    finally:
        recorder.uninstall()
    capsys.readouterr()
    layers = recorder.metrics(1.0)
    for name in ("features.featurize.calls", "features.matrix_mb",
                 "textprep.preprocess.calls", "forest.train_tree.calls",
                 "forest.folds", "forest.predict.rows"):
        assert layers[name] > 0, name

    meta = json.loads((tmp_path / "model.bin.meta.json").read_text(encoding="utf-8"))
    sparse, scores = run.offlang_features(BENCH_DIR.parent, meta,
                                          ["lovely sunny coffee", "!!"])
    assert len(sparse) == len(scores) == 2
    assert sparse[0] and sparse[1] == []
    assert all(isinstance(i, int) and isinstance(w, float) for i, w in sparse[0])

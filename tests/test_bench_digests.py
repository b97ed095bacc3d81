"""The seed-1 bench outputs, pinned in the tier-1 run.

Each workload's corpus is built by perfbench's own `prepare`, its command
runs in-process, and the sha256 of each pinned output must equal the one
recorded here: `train-A`'s model and its manifest (which holds the
training accuracy and macro-F1 of train's scoring pass), `cv-C`'s manifest
and `predict-emoji`'s predictions.  A grid search on the `cv-C` corpus
pins its best setting and its manifest, and a forest of ten unbounded
trees on the `train-A` corpus pins its model and its predictions on that
corpus.  A change meant to keep the
outputs byte-identical that does not fails here, not only in a full
benchmark run.  Fitting the CV features inside each fold (ROADMAP item 2)
will change the `cv-C` and grid search pins on purpose.  The seed-1 model
that `tools/output_digests.py` reports for `train-A` is pinned too.
"""

import hashlib
import importlib
from pathlib import Path

import pytest

from offlang.cli import main

BENCH_DIR = Path(__file__).resolve().parent.parent / "perfbench"
TOOLS_DIR = BENCH_DIR.parent / "tools"

# Per workload, its primary output first, then any other pinned outputs.
PINS = {
    "train-A": {
        "model.bin": "191d5eac0119c4006c7770e6462973fb22933f6d233134cf5a6e98bdb7e94057",
        "model.bin.manifest.json":
            "7b2cb6d002169b09bc2c5cec865b7586eafa32dcd503c47b84a44c1e7190e585",
    },
    "cv-C": {
        "cv.manifest.json": "3fb8af272cfcc104ccb17381fb0698c1db2241bbac991b4b6ecb16cb11e38700",
    },
    "predict-emoji": {
        "pred.tsv": "3814852192a06368c1f336136ddd9203b309089f4908be9de00418d60719cfd5",
    },
}

GRID_PINS = {
    "grid.conf.best.conf": "6b3968550ee51bafeed8606db1207608105e1272ab28dc84c407b08a4040c661",
    "grid.conf.best.conf.manifest.json":
        "c16550b3c08156afec07ba28263e23aa18f82472b8715261c23042322c4e12b2",
}


# The workloads' three depth-16 trees make about 230 split searches; ten
# unbounded trees grow through thousands of small nodes.
DEEP_PINS = {
    "model.bin": "03e69146ddd74dd551883d71a6a21cec73ad5c637999b8706b19897e8b1773ef",
    "pred.tsv": "b8aeaf4d3c09eb3f8669d9c241ad9d9df68f7374a245bc461e338388c0c4c280",
}


def _prepare(workload, monkeypatch, tmp_path):
    """Build the workload's seed-1 corpus and config in tmp_path, as the
    benchmark does, and return its context and perfbench's corpora module.
    sys.path and the working directory are restored afterwards."""
    monkeypatch.syspath_prepend(str(BENCH_DIR))
    run = importlib.import_module("run")
    corpora = importlib.import_module("corpora")
    lex = corpora.Lexicon(1)
    run.write_files(tmp_path, corpora.lexicon_files(lex))
    ctx = run.WORKLOADS[workload].prepare(BENCH_DIR.parent, tmp_path, 1, lex)
    monkeypatch.chdir(tmp_path)
    return ctx, corpora


def _digests(tmp_path, names) -> dict:
    return {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in names}


@pytest.mark.parametrize("workload", PINS)
def test_seed_1_bench_output_is_pinned(workload, monkeypatch, tmp_path, capsys):
    ctx, _ = _prepare(workload, monkeypatch, tmp_path)
    assert main(ctx.argv) == 0
    capsys.readouterr()
    assert ctx.output == next(iter(PINS[workload]))
    assert _digests(tmp_path, PINS[workload]) == PINS[workload]


def test_seed_1_grid_search_on_the_cv_corpus_is_pinned(monkeypatch, tmp_path, capsys):
    # Four grid points, each scored on the five folds the cv-C workload uses.
    _, corpora = _prepare("cv-C", monkeypatch, tmp_path)
    (tmp_path / "grid.conf").write_text(
        corpora.config_text(1, "train.tsv", "C", 4, 40)
        + "grid.n_trees = 2,4\ngrid.max_depth = none,8\n", encoding="utf-8")
    assert main(["gridsearch", "grid.conf", "--k", "5"]) == 0
    capsys.readouterr()
    assert _digests(tmp_path, GRID_PINS) == GRID_PINS


def test_seed_1_deep_forest_on_the_train_corpus_is_pinned(monkeypatch, tmp_path, capsys):
    _, corpora = _prepare("train-A", monkeypatch, tmp_path)
    (tmp_path / "train.conf").write_text(
        corpora.config_text(1, "train.tsv", "A", 10, "none", out_model="model.bin"),
        encoding="utf-8")
    assert main(["train", "train.conf", "--threads", "1"]) == 0
    assert main(["predict", "model.bin", "train.tsv", "--out", "pred.tsv"]) == 0
    capsys.readouterr()
    assert _digests(tmp_path, DEEP_PINS) == DEEP_PINS


def test_output_digests_reports_the_pinned_seed_1_train_model(monkeypatch, tmp_path):
    # The tool runs train in a fresh process on the corpus perfbench builds.
    # sys.path, which the tool extends with perfbench, is restored afterwards.
    monkeypatch.syspath_prepend(str(TOOLS_DIR))
    tool = importlib.import_module("output_digests")
    lines = tool.workload_lines(1, "train-A", tmp_path)
    assert f"{PINS['train-A']['model.bin']}  1/train-A/model.bin" in lines
    assert lines[-1].endswith("  1/train-A/stdout exit 0")

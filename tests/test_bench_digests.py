"""The seed-1 bench outputs, pinned in the tier-1 run.

Each workload's corpus is built by perfbench's own `prepare`, its command
runs in-process, and the sha256 of its primary output must equal the one
recorded here: `train-A`'s model, `cv-C`'s manifest and `predict-emoji`'s
predictions.  A change meant to keep the outputs byte-identical that does
not fails here, not only in a full benchmark run.  Fitting the CV features
inside each fold (ROADMAP item 2) will change the `cv-C` pin on purpose.
"""

import hashlib
import importlib
from pathlib import Path

import pytest

from offlang.cli import main

BENCH_DIR = Path(__file__).resolve().parent.parent / "perfbench"

PINS = {
    "train-A": ("model.bin", "191d5eac0119c4006c7770e6462973fb22933f6d233134cf5a6e98bdb7e94057"),
    "cv-C": ("cv.manifest.json",
             "3fb8af272cfcc104ccb17381fb0698c1db2241bbac991b4b6ecb16cb11e38700"),
    "predict-emoji": ("pred.tsv",
                      "3814852192a06368c1f336136ddd9203b309089f4908be9de00418d60719cfd5"),
}


@pytest.mark.parametrize("workload", PINS)
def test_seed_1_bench_output_is_pinned(workload, monkeypatch, tmp_path, capsys):
    # Import perfbench's modules as the benchmark does; sys.path is
    # restored afterwards.
    monkeypatch.syspath_prepend(str(BENCH_DIR))
    run = importlib.import_module("run")
    corpora = importlib.import_module("corpora")
    lex = corpora.Lexicon(1)
    run.write_files(tmp_path, corpora.lexicon_files(lex))
    ctx = run.WORKLOADS[workload].prepare(BENCH_DIR.parent, tmp_path, 1, lex)
    monkeypatch.chdir(tmp_path)
    assert main(ctx.argv) == 0
    capsys.readouterr()
    output, digest = PINS[workload]
    assert ctx.output == output
    assert hashlib.sha256((tmp_path / output).read_bytes()).hexdigest() == digest

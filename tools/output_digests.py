"""Digests of offlang's outputs on the benchmark's seeded corpora.

    python3 tools/output_digests.py SEED...

For each seed, each workload builds its corpora and config in a fresh
temporary directory with perfbench's own `prepare` (perfbench is imported,
never changed) and runs its commands there, each in a fresh process with
the offlang of the checkout this file lives in:

* train-A: `train` at level A on 13,240 tweets;
* cv-C: `cv`, 5 folds, at level C on 3,876 tweets;
* gridsearch-C: `gridsearch`, 5 folds, n_trees 2,4 x max_depth none,8,
  on the cv-C corpus;
* predict-emoji: `predict` on 12,000 unseen tweets, with the model that
  its `prepare` trained.

Prints one line per file left in the directory and per command's standard
output, `<sha256>  <seed>/<workload>/<name>`; a stdout line ends in the
command's exit code.  Run it in two checkouts (copy this file into one
that lacks it) and diff the two outputs to see whether a change keeps
every output byte-identical.
"""

import hashlib
import importlib
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
run = importlib.import_module("run")
corpora = importlib.import_module("corpora")

# Workload -> (the perfbench workload whose corpus it uses, extra config
# lines, command line or None for perfbench's own).
WORKLOADS = {
    "train-A": ("train-A", None, None),
    "cv-C": ("cv-C", None, None),
    "gridsearch-C": ("cv-C", "grid.n_trees = 2,4\ngrid.max_depth = none,8\n",
                     ["gridsearch", "grid.conf", "--k", str(run.CV_K)]),
    "predict-emoji": ("predict-emoji", None, None),
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def workload_lines(seed: int, workload: str, work: Path) -> list[str]:
    """The digest lines of one workload at one seed, run in the empty
    directory work."""
    base, grid, argv = WORKLOADS[workload]
    lex = corpora.Lexicon(seed)
    run.write_files(work, corpora.lexicon_files(lex))
    ctx = run.WORKLOADS[base].prepare(ROOT, work, seed, lex)
    if grid:
        bench = run.WORKLOADS[base]
        (work / "grid.conf").write_text(
            corpora.config_text(seed, "train.tsv", "C", bench.n_trees, bench.max_depth) + grid,
            encoding="utf-8")
    proc = subprocess.run([sys.executable, "-m", "offlang.cli", *(argv or ctx.argv)], cwd=work,
                          env=run.offlang_env(ROOT), capture_output=True,
                          timeout=run.CHILD_TIMEOUT_S)
    lines = [f"{_sha256(path.read_bytes())}  {seed}/{workload}/{path.name}"
             for path in sorted(work.iterdir())]
    return lines + [f"{_sha256(proc.stdout)}  {seed}/{workload}/stdout exit {proc.returncode}"]


def main(argv) -> int:
    if not argv or not all(arg.isdigit() for arg in argv):
        print(__doc__.strip().split("\n\n")[1], file=sys.stderr)
        return 2
    for seed in map(int, argv):
        for workload in WORKLOADS:
            with tempfile.TemporaryDirectory() as tmp:
                print("\n".join(workload_lines(seed, workload, Path(tmp))), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""Self-test of the benchmark's checks on tiny corpora.

    python3 perfbench/selftest.py        (from the root of a checkout)

Runs the real train, cv and predict commands in-process on tiny seeded
corpora, confirms every workload check accepts the real outputs, then hands
the checks deliberately wrong outputs and confirms each is rejected:

* a predictions file with one line dropped;
* a predictions file with one label flipped;
* a TF-IDF weight perturbed by 1e-6;
* a root split moved to a non-optimal feature and threshold.

Exits 0 when every check behaves, 1 otherwise.  Takes a few seconds.
"""

import contextlib
import hashlib
import io
import os
import shutil
import sys
import tempfile
from pathlib import Path

import checks
import corpora
import run

SEED = 5


def run_cli(root: Path, work: Path, argv) -> None:
    sys.path.insert(0, str(root / "src"))
    from offlang.cli import main
    cwd = os.getcwd()
    os.chdir(work)
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            rc = main(argv)
    finally:
        os.chdir(cwd)
    if rc != 0:
        raise RuntimeError(f"offlang {' '.join(argv)} exited {rc}")


def prepared(root: Path, base: Path, name: str, wl):
    """Set up `wl` in a fresh directory, run its command once in-process,
    and return (work, lex, ctx, passes) ready for wl.check."""
    work = base / name
    work.mkdir()
    lex = corpora.Lexicon(SEED)
    run.write_files(work, corpora.lexicon_files(lex))
    ctx = wl.prepare(root, work, SEED, lex)
    run_cli(root, work, ctx.argv)
    digest = hashlib.sha256((work / ctx.output).read_bytes()).hexdigest()
    return work, lex, ctx, [{"digest": digest}]


def expect_reject(label: str, fn) -> bool:
    try:
        fn()
    except checks.CheckFailed as exc:
        print(f"ok    rejects {label}: {exc}")
        return True
    print(f"FAIL  accepted {label}")
    return False


def expect_accept(label: str, fn) -> bool:
    try:
        fn()
    except checks.CheckFailed as exc:
        print(f"FAIL  rejected {label}: {exc}")
        return False
    print(f"ok    accepts {label}")
    return True


def rewrite_predictions(work: Path, edit) -> None:
    path = work / "pred.tsv"
    lines = path.read_text(encoding="utf-8").split("\n")[:-1]
    path.write_text("\n".join(edit(lines)) + "\n", encoding="utf-8")


def flip_one(lines):
    tid, label = lines[3].split("\t")
    lines[3] = f"{tid}\t{'NOT' if label == 'OFF' else 'OFF'}"
    return lines


def main() -> int:
    root = Path.cwd()
    if not (root / "src" / "offlang" / "cli.py").is_file():
        print("error: run from the root of an offlang checkout", file=sys.stderr)
        return 2
    (root / run.OUT_DIR).mkdir(exist_ok=True)
    base = Path(tempfile.mkdtemp(prefix="selftest-", dir=root / run.OUT_DIR))
    results = []
    try:
        train = run.TrainA(mix={"NOT": 160, "OFF": 80})
        work, lex, ctx, passes = prepared(root, base, "train", train)
        results.append(expect_accept("the real train outputs",
                                     lambda: train.check(root, work, SEED, lex, ctx, passes)))

        # A non-optimal root split: the exact best split over the root's
        # features is accepted; any other feature of the subset is not.
        model = checks.parse_model((work / "model.bin").read_bytes())
        vocab = checks.fit_vocabulary((t.tokens for t in ctx.tweets), min_df=2)
        rows = checks.feature_rows(ctx.tweets, vocab, lex.abusive)
        codes = [("NOT", "OFF").index(t.label) for t in ctx.tweets]
        sample, feats = checks.root_draws(SEED, 0, len(rows), model["n_features"])
        columns = checks.columns_of(rows)
        best = checks.exact_best_split(columns, codes, sample, feats, 2)
        other = next(checks.exact_best_split(columns, codes, sample, [f], 2)
                     for f in feats if f != best[0]
                     and checks.exact_best_split(columns, codes, sample, [f], 2))
        tree = dict(model["trees"][0])
        results.append(expect_accept("the exact best root split",
                                     lambda: checks.check_root_split(tree, best)))
        tree["feature"] = (other[0],) + tree["feature"][1:]
        tree["threshold"] = (other[1],) + tree["threshold"][1:]
        results.append(expect_reject("a non-optimal root split",
                                     lambda: checks.check_root_split(tree, best)))

        cv = run.CvC(mix={"IND": 600, "GRP": 270, "OTH": 100})
        work, lex, ctx, passes = prepared(root, base, "cv", cv)
        results.append(expect_accept("the real cv outputs",
                                     lambda: cv.check(root, work, SEED, lex, ctx, passes)))

        predict = run.PredictEmoji(train_rows=400, pool_rows=200, sampled_rows=50)
        work, lex, ctx, passes = prepared(root, base, "predict", predict)
        results.append(expect_accept("the real predict outputs",
                                     lambda: predict.check(root, work, SEED, lex, ctx, passes)))
        original = (work / "pred.tsv").read_text(encoding="utf-8")
        rewrite_predictions(work, lambda lines: lines[:7] + lines[8:])
        results.append(expect_reject("a dropped prediction line",
                                     lambda: predict.check(root, work, SEED, lex, ctx, passes)))
        (work / "pred.tsv").write_text(original, encoding="utf-8")
        rewrite_predictions(work, flip_one)
        results.append(expect_reject("a flipped label",
                                     lambda: predict.check(root, work, SEED, lex, ctx, passes)))
        (work / "pred.tsv").write_text(original, encoding="utf-8")

        real_features = run.offlang_features

        def perturbed_features(root_, meta, texts):
            sparse, scores = real_features(root_, meta, texts)
            row = next(r for r in sparse if r)
            row[0] = (row[0][0], row[0][1] + 1e-6)
            return sparse, scores

        run.offlang_features = perturbed_features
        try:
            results.append(expect_reject("a perturbed TF-IDF weight",
                                         lambda: predict.check(root, work, SEED, lex, ctx, passes)))
        finally:
            run.offlang_features = real_features
    finally:
        shutil.rmtree(base, ignore_errors=True)
    print(f"{sum(results)} of {len(results)} self-test cases behaved")
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())

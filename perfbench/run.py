"""Benchmark of offlang's train, cv and predict commands.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload train-A --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

A run generates seeded corpora under .perfbench-out/work/, measures set-up
in fresh interpreters, then starts worker.py in a fresh process with
PYTHONPATH=src, which calls offlang.cli.main([...]) for timed passes (with
--trace 1: one untraced pass, then one traced pass in a second fresh
worker).  The outputs of the passes are then checked against computations
made apart from offlang (checks.py).  The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}.  The exit code is 0
when every output checked out, 1 when one did not, 2 on a usage error or a
checkout without offlang's sources.
"""

import argparse
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import corpora
import spans

BENCH_DIR = Path(__file__).resolve().parent
OUT_DIR = ".perfbench-out"
SETUP_PROBES = 7
MIN_PASSES = 3
CHILD_TIMEOUT_S = 150
CV_K = 5
# The CV mean must beat always-the-majority-class by this much.  The
# planted class words are each in dozens of tweets, so fitting the
# vocabulary inside each fold (the leak fix) keeps them all.
CV_MARGIN = 0.2
PREDICT_MARGIN = 0.1

UNITS = {"rows_per_s": "rows/s", "peak_rss_mb": "MB", "setup_s": "s"}


class Context:
    """What a workload's set-up leaves for its passes and its checks."""

    def __init__(self, argv, output, rows, sidecar=None, **facts):
        self.argv = argv
        self.output = output
        self.rows = rows
        self.sidecar = sidecar
        self.__dict__.update(facts)


def write_files(work: Path, files: dict) -> None:
    for name, text in files.items():
        (work / name).write_text(text, encoding="utf-8")


def offlang_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    return env


# ---------------------------------------------------------------------------
# Workloads


class TrainA:
    """offlang train at level A on 13,240 tweets (OLID's size and OFF share)."""
    n_trees = 3
    max_depth = 16

    def __init__(self, mix=corpora.OLID_A):
        self.mix = mix

    def prepare(self, root, work, seed, lex):
        tweets = corpora.make_corpus(lex, seed, "a", self.mix, emoji_share=0.15, signal=0.85)
        write_files(work, {
            "train.tsv": corpora.labeled_tsv(tweets, "A"),
            "train.conf": corpora.config_text(seed, "train.tsv", "A", self.n_trees,
                                              self.max_depth, out_model="model.bin"),
        })
        return Context(["train", "train.conf", "--threads", "1"], "model.bin", len(tweets),
                       sidecar="model.bin.meta.json", tweets=tweets)

    def check(self, root, work, seed, lex, ctx, passes):
        classes = ["NOT", "OFF"]
        blob = (work / "model.bin").read_bytes()
        checks.require(len({p["digest"] for p in passes}) == 1,
                       "train: model sha256 differs between passes")
        manifest = json.loads((work / "model.bin.manifest.json").read_text(encoding="utf-8"))
        meta = json.loads((work / "model.bin.meta.json").read_text(encoding="utf-8"))
        vocab = checks.fit_vocabulary((t.tokens for t in ctx.tweets), min_df=2)
        checks.check_vocabulary(meta["vocabulary"], vocab)
        model = checks.parse_model(blob)
        n_features = len(vocab["terms"]) + 9
        checks.require(model["n_features"] == n_features, "train: model width")
        checks.require(model["classes"] == classes, "train: model classes")
        for tree in model["trees"]:
            checks.check_tree(tree, len(classes), n_features)
        rows = checks.feature_rows(ctx.tweets, vocab, lex.abusive)
        gold = [t.label for t in ctx.tweets]
        f1 = checks.macro_f1(gold, checks.model_predict(model, rows), classes)
        stated = manifest["training"]["training_macro_f1"]
        checks.require(abs(f1 - stated) <= 1e-12,
                       f"train: manifest macro-F1 {stated!r}, recomputed {f1!r}")
        columns = checks.columns_of(rows)
        codes = [classes.index(g) for g in gold]
        for i, tree in enumerate(model["trees"]):
            sample, feats = checks.root_draws(seed, i, len(rows), n_features)
            expected = checks.exact_best_split(columns, codes, sample, feats, len(classes))
            checks.check_root_split(tree, expected)
        return {"training_macro_f1": f1, "vocabulary": len(vocab["terms"]),
                "nodes": [len(t["feature"]) for t in model["trees"]],
                "model_sha256": passes[0]["digest"]}


class CvC:
    """offlang cv at level C on 3,876 targeted tweets (OLID's IND/GRP/OTH mix)."""
    n_trees = 4
    max_depth = 40

    def __init__(self, mix=corpora.OLID_C):
        self.mix = mix

    def prepare(self, root, work, seed, lex):
        tweets = corpora.make_corpus(lex, seed, "c", self.mix, emoji_share=0.15, signal=0.8)
        write_files(work, {
            "train.tsv": corpora.labeled_tsv(tweets, "C"),
            "train.conf": corpora.config_text(seed, "train.tsv", "C", self.n_trees,
                                              self.max_depth, out_manifest="cv.manifest.json"),
        })
        return Context(["cv", "train.conf", "--k", str(CV_K), "--threads", "1"],
                       "cv.manifest.json", len(tweets), tweets=tweets)

    def check(self, root, work, seed, lex, ctx, passes):
        classes = ["IND", "GRP", "OTH"]
        checks.require(len({p["digest"] for p in passes}) == 1,
                       "cv: manifest differs between passes")
        cv = json.loads((work / "cv.manifest.json").read_text(encoding="utf-8"))["cv"]
        checks.check_cv_summary(cv["fold_macro_f1"], cv["mean_macro_f1"], cv["std_macro_f1"], CV_K)
        gold = [t.label for t in ctx.tweets]
        codes = [classes.index(g) for g in gold]
        sys.path.insert(0, str(root / "src"))
        from offlang.forest import kfold
        checks.check_folds(kfold(len(codes), CV_K, codes, seed), codes, CV_K)
        baseline = checks.majority_macro_f1(gold, classes)
        checks.require(cv["mean_macro_f1"] >= baseline + CV_MARGIN,
                       f"cv: mean macro-F1 {cv['mean_macro_f1']:.4f} within {CV_MARGIN} "
                       f"of the majority baseline {baseline:.4f}")
        return {"mean_macro_f1": cv["mean_macro_f1"], "std_macro_f1": cv["std_macro_f1"],
                "majority_baseline": baseline}


class PredictEmoji:
    """offlang predict on 12,000 unseen text-only tweets, half with emoji,
    with a model trained beforehand on 3,000 labeled tweets."""
    n_trees = 3
    max_depth = 20

    def __init__(self, train_rows=3000, pool_rows=12000, sampled_rows=300):
        self.train_rows = train_rows
        self.pool_rows = pool_rows
        self.sampled_rows = sampled_rows

    def prepare(self, root, work, seed, lex):
        train = corpora.make_corpus(lex, seed, "m", corpora.scaled_mix(corpora.OLID_A, self.train_rows),
                                    emoji_share=0.5, signal=0.85)
        pool = corpora.make_corpus(lex, seed, "u", corpora.scaled_mix(corpora.OLID_A, self.pool_rows),
                                   emoji_share=0.5, signal=0.85)
        write_files(work, {
            "train.tsv": corpora.labeled_tsv(train, "A"),
            "train.conf": corpora.config_text(seed, "train.tsv", "A", self.n_trees,
                                              self.max_depth, out_model="model.bin"),
            "pool.tsv": corpora.text_only_tsv(pool),
        })
        # Preparation, not measured: the model comes from a child process
        # so that its memory never counts against the predict workload.
        subprocess.run([sys.executable, "-m", "offlang.cli", "train", "train.conf",
                        "--threads", "1"], cwd=work, env=offlang_env(root), check=True,
                       stdout=subprocess.DEVNULL, timeout=CHILD_TIMEOUT_S)
        return Context(["predict", "model.bin", "pool.tsv", "--out", "pred.tsv"], "pred.tsv",
                       len(pool), sidecar="model.bin.meta.json", train=train, pool=pool)

    def check(self, root, work, seed, lex, ctx, passes):
        classes = ["NOT", "OFF"]
        checks.require(len({p["digest"] for p in passes}) == 1,
                       "predict: predictions differ between passes")
        lines = (work / "pred.tsv").read_text(encoding="utf-8").split("\n")
        checks.require(lines[-1] == "", "predict: output does not end in a newline")
        labels = checks.check_predictions(lines[:-1], [t.id for t in ctx.pool], classes)
        meta = json.loads((work / "model.bin.meta.json").read_text(encoding="utf-8"))
        vocab = checks.fit_vocabulary((t.tokens for t in ctx.train), min_df=2)
        checks.check_vocabulary(meta["vocabulary"], vocab)
        model = checks.parse_model((work / "model.bin").read_bytes())
        rows = checks.feature_rows(ctx.pool, vocab, lex.abusive)
        checks.check_same_labels(labels, checks.model_predict(model, rows))
        gold = [t.label for t in ctx.pool]
        f1 = checks.macro_f1(gold, labels, classes)
        baseline = checks.majority_macro_f1(gold, classes)
        checks.require(f1 >= baseline + PREDICT_MARGIN,
                       f"predict: macro-F1 {f1:.4f} within {PREDICT_MARGIN} of the "
                       f"majority baseline {baseline:.4f}")
        sample = sorted(random.Random(seed).sample(range(len(ctx.pool)), self.sampled_rows))
        tweets = [ctx.pool[i] for i in sample]
        got_sparse, got_scores = offlang_features(root, meta, [t.text for t in tweets])
        checks.check_emoji_scores(got_scores, [t.emoji_score for t in tweets])
        index = {term: i for i, term in enumerate(vocab["terms"])}
        checks.check_tfidf(got_sparse, [checks.tfidf_row(t.tokens, index, vocab["df"], vocab["n_docs"])
                                        for t in tweets])
        return {"macro_f1": f1, "majority_baseline": baseline,
                "emoji_rows_sampled": sum(1 for t in tweets if t.emoji)}


def offlang_features(root: Path, meta: dict, texts):
    """The program's side of the sampled-row checks: offlang's own
    preprocess and featurize, configured from the sidecar as predict is."""
    sys.path.insert(0, str(root / "src"))
    from offlang.features import Vocabulary, featurize
    from offlang.textprep import PrepConfig, preprocess
    prep = PrepConfig(**meta["prep"])
    vocab = Vocabulary.from_jsonable(meta["vocabulary"])
    lexicons = meta["lexicons"]
    sparse, scores = [], []
    for text in texts:
        tt = preprocess(text, prep, stoplist=lexicons["stopwords"], emoji_lexicon=lexicons["emoji"])
        sparse.append(list(featurize(tt, vocab, lexicons["abusive"], meta["features"]["ngram_max"]).sparse))
        scores.append(tt.emoji_score)
    return sparse, scores


WORKLOADS = {"train-A": TrainA(), "cv-C": CvC(), "predict-emoji": PredictEmoji()}


# ---------------------------------------------------------------------------
# Measurement


def run_child(cmd, cwd, env) -> str:
    proc = subprocess.run(cmd, cwd=cwd, env=env, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"{cmd[1]} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return proc.stdout


def setup_probes(root: Path) -> list[dict]:
    """Time `import offlang.cli` in SETUP_PROBES fresh interpreters."""
    cmd = [sys.executable, str(BENCH_DIR / "worker.py"), "--probe"]
    return [json.loads(run_child(cmd, root, offlang_env(root)).splitlines()[-1])
            for _ in range(SETUP_PROBES)]


def run_worker(root: Path, work: Path, **spec) -> dict:
    """Passes in a fresh worker process; returns its result record."""
    spec["result"] = "worker.json"
    (work / "spec.json").write_text(json.dumps(spec), encoding="utf-8")
    run_child([sys.executable, str(BENCH_DIR / "worker.py"), "spec.json"], work, offlang_env(root))
    return json.loads((work / "worker.json").read_text(encoding="utf-8"))


def measure(root, work, name, seed, seconds, trace, ctx):
    """Timed passes, or with `trace` one untraced and one traced pass,
    each in a fresh process so that both start cold and the traced one's
    memory high-water marks start from the program's own state."""
    base = {"argv": ctx.argv, "output": ctx.output}
    if not trace:
        return run_worker(root, work, trace=False, seconds=seconds, min_passes=MIN_PASSES, **base)
    traces = root / OUT_DIR / "traces"
    traces.mkdir(parents=True, exist_ok=True)
    plain = run_worker(root, work, trace=False, seconds=0, min_passes=1, **base)
    traced = run_worker(root, work, trace=True, trace_out=str(traces / f"{name}-seed{seed}.json"),
                        **base)
    traced["passes"][0]["traced"] = True
    layers = traced["layers"]
    layers["bench.tracing_overhead_s"] = traced["passes"][0]["scaled_s"] - plain["passes"][0]["scaled_s"]
    layers["cli.sidecar_bytes"] = (work / ctx.sidecar).stat().st_size if ctx.sidecar else 0
    return {"passes": plain["passes"] + traced["passes"], "layers": layers,
            "import_s": traced["import_s"]}


def run_workload(root: Path, name: str, seed: int, seconds: int, trace: bool) -> int:
    wl = WORKLOADS[name]
    out = root / OUT_DIR
    work = out / "work" / f"{name}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        lex = corpora.Lexicon(seed)
        write_files(work, corpora.lexicon_files(lex))
        t0 = time.perf_counter()
        ctx = wl.prepare(root, work, seed, lex)
        prepare_s = time.perf_counter() - t0
        probes = [] if trace else setup_probes(root)
        result = measure(root, work, name, seed, seconds, trace, ctx)
        passes = result["passes"]
        failed = sum(1 for p in passes if p["rc"] != 0)
        for i, p in enumerate(passes, start=1):
            tag = " traced" if p.get("traced") else ""
            print(f"{name} pass {i}{tag}: rc {p['rc']}  wall {p['wall_s']:.3f} s  "
                  f"reference {p['ref_rate']:.4g} it/s ({p['samples']} samples)  "
                  f"scaled {p['scaled_s']:.3f} s")
            if p["rc"] != 0:
                print(p["stderr"].strip(), file=sys.stderr)
        try:
            if failed:
                raise checks.CheckFailed(f"{failed} of {len(passes)} passes exited non-zero")
            facts = wl.check(root, work, seed, lex, ctx, passes)
            correct = True
            print(f"{name} checks passed: {json.dumps(facts)}")
        except (checks.CheckFailed, OSError, KeyError, ValueError) as exc:
            correct = False
            facts = {"error": f"{type(exc).__name__}: {exc}"}
            print(f"{name} CHECK FAILED: {exc}", file=sys.stderr)

        if trace:
            metrics = {k: {"value": result["layers"][k], "unit": unit}
                       for k, (unit, _) in spans.LAYER_METRICS.items()}
            for k, m in metrics.items():
                print(f"{name} {k} {m['value']:.6g} {m['unit']}")
        else:
            scaled = statistics.median(p["scaled_s"] for p in passes)
            wall = statistics.median(p["wall_s"] for p in passes)
            # Import time is mostly file loading and extension set-up, which
            # does not follow the pure-Python reference: it is not scaled.
            setup = statistics.median(p["wall_s"] for p in probes)
            values = {"rows_per_s": ctx.rows / scaled, "peak_rss_mb": result["maxrss_mb"],
                      "setup_s": setup}
            metrics = {k: {"value": v, "unit": UNITS[k]} for k, v in values.items()}
            print(f"{name} rows_per_s {values['rows_per_s']:.2f} rows/s  ({ctx.rows} rows / "
                  f"median scaled pass {scaled:.3f} s over {len(passes)} passes; "
                  f"median wall {wall:.3f} s)")
            print(f"{name} peak_rss_mb {values['peak_rss_mb']:.1f} MB")
            print(f"{name} setup_s {setup:.4f} s  (median wall of {len(probes)} fresh imports, "
                  f"not scaled: {' '.join(format(p['wall_s'], '.3f') for p in probes)})")
        print(f"{name} attempted {len(passes)} failed {failed}  (preparation {prepare_s:.2f} s, "
              f"not measured)")
        record = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
                  "prepare_s": prepare_s, "probes": probes, "passes": passes,
                  "import_s": result["import_s"], "facts": facts, "metrics": metrics}
        (out / "runs").mkdir(exist_ok=True)
        suffix = "-trace" if trace else ""
        (out / "runs" / f"{name}-seed{seed}{suffix}.json").write_text(
            json.dumps(record, indent=1), encoding="utf-8")
        print(json.dumps({"correct": correct, "attempted": len(passes), "failed": failed,
                          "metrics": metrics}))
        return 0 if correct else 1
    finally:
        shutil.rmtree(work, ignore_errors=True)


def run_all(seed: int, seconds: int, trace: bool) -> int:
    """Every workload in turn, each in its own process; one summary."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run([sys.executable, str(BENCH_DIR / "run.py"), "--workload", name,
                               "--seed", str(seed), "--seconds", str(seconds),
                               "--trace", str(int(trace))],
                              capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        for line in lines[:-1]:
            print(line)
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            print(f"{name}: no result (exit {proc.returncode})", file=sys.stderr)
            total["correct"] = False
            continue
        total["correct"] &= result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for metric, m in result["metrics"].items():
            total["metrics"][f"{name}.{metric}"] = m
    print("summary:")
    for metric, m in total["metrics"].items():
        print(f"  {metric} {m['value']:.6g} {m['unit']}")
    print(f"  attempted {total['attempted']} failed {total['failed']} correct {total['correct']}")
    print(json.dumps(total))
    return 0 if total["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    root = Path.cwd()
    if not (root / "src" / "offlang" / "cli.py").is_file():
        print(f"error: no offlang sources under {root / 'src'}; run from the root of a "
              f"checkout", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_workload(root, args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())

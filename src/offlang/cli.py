"""Command-line interface.

Subcommands: validate, stats, balance, train, cv, gridsearch, predict,
evaluate, emostats.  Experiment commands read a flat key=value config with
a mandatory seed and write a deterministic manifest next to their primary
output; rerunning a command on the same inputs reproduces every output
byte for byte.  Output is plain text with no ANSI colors (NO_COLOR needs
no special handling) and no timestamps.

Exit codes: 0 success, 1 missing files / IO trouble, 2 malformed input or
contract violations (argparse usage errors also exit 2).
"""

import argparse
import itertools
import json
import math
import sys
from dataclasses import asdict, dataclass, fields, replace
from functools import cached_property
from pathlib import Path

import numpy as np

from . import __version__, manifest
from .balance import BalancePlan, apply_plan
from .config import ExperimentConfig, parse_bool
# load_corpus is not called here, but perfbench's traced pass wraps it here
# by name (tests/test_bench_hooks.py).
from .corpus import (check_unique_ids, classes_for, class_distribution, LEVELS,  # noqa: F401
                     load_corpus, load_weak_labels, names_file, read_columns, read_lines,
                     read_text, serialize_corpus)
from .emolex import BASES, emotion_counts, emotion_report, load_emotion_lexicon
from .errors import OfflangError, ParseError, ValidationError
# fit_vocabulary is not called here, but perfbench's traced pass wraps it
# here by name (tests/test_bench_hooks.py).
from .features import (N_SURFACE, Vocabulary, feature_matrix, featurize, fit_rows,  # noqa: F401
                       fit_vocabulary)
from .forest import (Columns, ForestParams, MAX_FEATURES_CHOICES, cross_validate,
                     grid_search, load_model, predict as forest_predict,
                     save_model, train_forest)
from .metrics import confusion, render_confusion, scores
from .textprep import PrepConfig, TextMemo, preprocess


# ---------------------------------------------------------------------------
# Shared helpers


def _require_file(path) -> Path:
    p = Path(path)
    if not p.is_file():
        raise FileNotFoundError(f"no such file: {p}")
    return p


def _load_corpus_file(path, schema: str | None = None):
    columns = read_columns(_require_file(path), schema)
    return columns.corpus(), columns.schema


def _read_wordlist(path) -> list[str]:
    words = []
    for line in read_text(_require_file(path)).split("\n"):
        word = line.strip()
        if word and not word.startswith("#"):
            words.append(word)
    return words


@names_file
def _read_emoji_lexicon(path) -> dict[str, float]:
    """CSV rows `emoji,score`; the emoji is the literal character(s)."""
    lex: dict[str, float] = {}
    for lineno, row in enumerate(read_lines(_require_file(path)), start=1):
        if not row or row.startswith("#"):
            continue
        emoji, sep, score_text = row.partition(",")
        if not sep or not emoji:
            raise ParseError(f"expected emoji,score, got {row!r}", lineno)
        try:
            score = float(score_text)
        except ValueError:
            raise ParseError(f"score must be a number, got {score_text!r}", lineno)
        if not math.isfinite(score):
            raise ParseError(f"score must be finite, got {score_text!r}", lineno)
        if emoji in lex:
            raise ParseError(f"duplicate emoji entry {emoji!r}", lineno)
        lex[emoji] = score
    return lex


@dataclass(frozen=True)
class Pipeline:
    """Tweet text to forest input: the preprocessing settings, the lexicons,
    the feature settings and, once fitted, the vocabulary.

    `fit_transform` returns the features of `train`, `cv` and
    `gridsearch` as the forest's `Columns`, built with the vocabulary from
    one run-level table of the texts' distinct raw chunks, which one walk
    over the texts finds and the text memo computes (`features.fit_rows`);
    `transform` preprocesses and featurizes tweet by tweet and returns a
    dense matrix, for `predict`'s bounded blocks.
    Its JSON form is the `.meta.json` sidecar written next to a model,
    from which `predict` rebuilds the featurization the model was trained
    on.
    """
    level: str
    prep: PrepConfig
    stopwords: list[str]
    abusive: list[str]
    emoji: dict[str, float]
    min_df: int
    ngram_max: int
    vocabulary: Vocabulary | None = None

    def __post_init__(self):
        classes_for(self.level)
        for key in ("min_df", "ngram_max"):
            value = getattr(self, key)
            # JSON true is a Python int; it must not pass as 1.
            if not (type(value) is int and value >= 1):
                raise ValidationError(f"features.{key} must be an integer >= 1, got {value!r}")

    # The text memo, bounded by the run's input like the vocabulary; valid
    # because prep and the lexicons are fixed.
    @cached_property
    def _memo(self) -> TextMemo:
        return TextMemo(self.prep, self.stopwords, self.emoji)

    def _prepped(self, texts) -> list:
        """texts preprocessed one by one, once the text memo has computed
        their new raw chunks in batches."""
        texts = list(texts)
        self._memo.fill(texts)
        return [preprocess(t, self.prep, memo=self._memo) for t in texts]

    def fit_transform(self, texts) -> tuple["Pipeline", Columns]:
        """Fit the vocabulary on texts; returns the fitted pipeline and the
        features of texts as Columns.  `fit_rows` splits each text once,
        numbering its raw chunks among the distinct ones, has the text
        memo compute the new ones in batches, and builds the vocabulary and
        the Columns' entries from one table of the distinct chunks, with no
        object per text."""
        vocab, entries = fit_rows(list(texts), self._memo, self.abusive, self.ngram_max,
                                  self.min_df)
        return replace(self, vocabulary=vocab), Columns.from_entries(*entries)

    def transform(self, texts) -> np.ndarray:
        """Dense feature matrix of texts.  The text memo computes their new
        raw chunks in batches, then each text is preprocessed and
        featurized in turn, which finds its raw chunks in the memo and
        keeps the tweet; `feature_matrix` then computes every row at once
        from tables of the block's distinct chunks, and the TF-IDF of all
        of them."""
        return feature_matrix([featurize(tt, self.vocabulary, self.abusive, self.ngram_max)
                               for tt in self._prepped(texts)], self.vocabulary)

    def to_jsonable(self) -> dict:
        return {
            "level": self.level,
            "classes": list(classes_for(self.level)),
            "prep": asdict(self.prep),
            "features": {"min_df": self.min_df, "ngram_max": self.ngram_max},
            "lexicons": {"stopwords": self.stopwords, "abusive": self.abusive,
                         "emoji": self.emoji},
            "vocabulary": self.vocabulary.to_jsonable(),
        }

    @classmethod
    def from_jsonable(cls, meta) -> "Pipeline":
        """Inverse of to_jsonable; a malformed document raises
        ValidationError."""
        try:
            lexicons = meta["lexicons"]
            stopwords, abusive, emoji = (lexicons[k] for k in ("stopwords", "abusive", "emoji"))
            if not (isinstance(stopwords, list) and isinstance(abusive, list)
                    and all(isinstance(w, str) for w in stopwords + abusive)
                    and isinstance(emoji, dict)
                    # type() rather than isinstance: JSON true is a Python int.
                    and all(type(v) in (int, float) and math.isfinite(v)
                            for v in emoji.values())):
                raise TypeError("lexicons must be two word lists and an emoji-to-finite-number map")
            pipeline = cls(level=meta["level"], prep=PrepConfig(**meta["prep"]),
                           stopwords=stopwords, abusive=abusive, emoji=emoji,
                           min_df=meta["features"]["min_df"],
                           ngram_max=meta["features"]["ngram_max"],
                           vocabulary=Vocabulary.from_jsonable(meta["vocabulary"]))
            classes = list(classes_for(pipeline.level))
            if meta["classes"] != classes:
                raise ValueError(f"classes must be {classes} at level {pipeline.level}, "
                                 f"got {meta['classes']!r}")
            return pipeline
        except KeyError as exc:
            raise ValidationError(f"missing key {exc}") from None
        except (TypeError, ValueError) as exc:
            raise ValidationError(str(exc)) from None


def _pipeline_from_config(cfg: ExperimentConfig, level: str) -> Pipeline:
    """The unfitted pipeline a training config describes.  Each PrepConfig
    field is read from its `prep.<field>` key."""
    read = {bool: cfg.get_bool, str: cfg.get}
    try:
        prep = PrepConfig(**{f.name: read[type(f.default)](f"prep.{f.name}", f.default)
                             for f in fields(PrepConfig)})
    except ValidationError as exc:
        # Each PrepConfig message starts with the field's name.
        raise ValidationError(f"prep.{exc}") from None
    stop_path = cfg.get("lexicon.stopwords")
    if stop_path:
        stoplist = _read_wordlist(stop_path)
    elif prep.remove_stopwords:
        # Stopword removal is on by default and needs its word list.
        raise FileNotFoundError(
            "stopword removal is enabled but lexicon.stopwords is not set")
    else:
        stoplist = []
    abusive = _read_wordlist(cfg.get("lexicon.abusive")) \
        if cfg.get("lexicon.abusive") else []
    emoji = _read_emoji_lexicon(cfg.get("lexicon.emoji")) \
        if cfg.get("lexicon.emoji") else {}
    return Pipeline(level=level, prep=prep, stopwords=stoplist, abusive=abusive,
                    emoji=emoji, min_df=cfg.get_int("features.min_df", 2),
                    ngram_max=cfg.get_int("features.ngram_max", 1))


# One parser per settable ForestParams field (all but the seed), with what
# it accepts; the same one reads `forest.<field>` and each value of a
# `grid.<field>` list.  bootstrap is not a grid axis.
_FOREST_PARSERS = {
    "n_trees": (int, "an integer"),
    "max_depth": (lambda v: None if v in ("", "none") else int(v), "an integer or none"),
    "min_samples_leaf": (int, "an integer"),
    "max_features": (lambda v: v if v in MAX_FEATURES_CHOICES else float(v),
                     f"{', '.join(MAX_FEATURES_CHOICES)} or a fraction"),
    "bootstrap": (parse_bool, "a boolean"),
}
_FOREST_FIELDS = tuple(f.name for f in fields(ForestParams) if f.name != "seed")
_GRID_AXES = tuple(name for name in _FOREST_FIELDS if name != "bootstrap")


def _forest_value(key: str, raw: str):
    """The value of forest.<field> or grid.<field> text `raw`, checked as
    ForestParams checks its field."""
    family, _, field = key.partition(".")
    parse, accepted = _FOREST_PARSERS[field]
    raw = raw.strip()
    try:
        value = parse(raw)
    except ValueError:
        raise ValidationError(f"{key} must be {accepted}, got {raw!r}") from None
    try:
        return getattr(ForestParams(**{field: value}), field)
    except ValidationError as exc:
        # Each ForestParams message starts with the field's name.
        raise ValidationError(f"{family}.{exc}") from None


def _forest_params_from(cfg: ExperimentConfig, seed: int) -> ForestParams:
    return ForestParams(seed=seed, **{
        name: _forest_value(f"forest.{name}", cfg.values[f"forest.{name}"])
        for name in _FOREST_FIELDS if f"forest.{name}" in cfg.values})


_TRAIN_KEYS = {
    "seed", "corpus.train", "train.level",
    "lexicon.stopwords", "lexicon.abusive", "lexicon.emoji",
    "features.min_df", "features.ngram_max", "out.model", "out.manifest",
    *(f"prep.{f.name}" for f in fields(PrepConfig)),
    *(f"forest.{name}" for name in _FOREST_FIELDS),
}
_GRID_KEYS = {"out.best", *(f"grid.{name}" for name in _GRID_AXES)}


def _level(cfg: ExperimentConfig, key: str, default: str) -> str:
    level = cfg.get(key, default)
    if level not in LEVELS:
        raise ValidationError(f"{key} must be one of {', '.join(LEVELS)}, got {level!r}")
    return level


def _read_experiment(args, keys=_TRAIN_KEYS, forest=_forest_params_from):
    """The config of a train, cv or gridsearch run, its seed, its forest
    values as `forest` reads them, and its unfitted pipeline.  Every key
    these take is read and checked here, before any corpus file is opened."""
    cfg = ExperimentConfig.from_file(_require_file(args.config))
    cfg.assert_known(keys, ("external.",))
    seed = cfg.seed()
    return cfg, seed, forest(cfg, seed), _pipeline_from_config(cfg, _level(cfg, "train.level", "A"))


def _training_rows(cfg: ExperimentConfig, level: str):
    """The training corpus's path, and the texts and labels of its rows
    labeled at level, in file order."""
    corpus_path = _require_file(cfg.require("corpus.train"))
    columns = read_columns(corpus_path, "olid_labeled")
    labels = columns.labels[level]
    # A label is a class name or None, so compress and filter keep the labeled rows.
    texts, y = tuple(itertools.compress(columns.texts, labels)), tuple(filter(None, labels))
    if not y:
        raise ValidationError(f"no rows labeled at level {level} in {corpus_path}")
    return corpus_path, texts, y


def _config_inputs(cfg: ExperimentConfig, corpus_path) -> dict:
    inputs = {"config": cfg.path, "corpus": corpus_path}
    for role, key in (("stopwords", "lexicon.stopwords"),
                      ("abusive", "lexicon.abusive"),
                      ("emoji", "lexicon.emoji")):
        if cfg.get(key):
            inputs[role] = cfg.get(key)
    return inputs


# ---------------------------------------------------------------------------
# Commands


def cmd_validate(args) -> int:
    corpus, schema = _load_corpus_file(args.corpus, args.schema)
    print(f"ok: {len(corpus)} rows ({schema})")
    if schema == "olid_labeled":
        for level in LEVELS:
            dist = class_distribution(corpus, level)
            labeled = sum(dist.values())
            cells = "  ".join(f"{c}={dist[c]}" for c in classes_for(level))
            print(f"level {level}: {cells}  unlabeled={len(corpus) - labeled}")
    return 0


def cmd_stats(args) -> int:
    corpus, _ = _load_corpus_file(args.corpus, None)
    dist = class_distribution(corpus, args.level)
    for c in classes_for(args.level):
        print(f"{c}\t{dist[c]}")
    print(f"unlabeled\t{len(corpus) - sum(dist.values())}")
    return 0


def cmd_balance(args) -> int:
    cfg = ExperimentConfig.from_file(_require_file(args.config))
    cfg.assert_known(
        {"seed", "corpus.base", "corpus.pool", "corpus.weak_labels",
         "balance.level", "balance.target_per_class", "out.corpus"},
        ("balance.add.", "external."))
    seed = cfg.seed()
    level = _level(cfg, "balance.level", "C")
    target = cfg.get_int("balance.target_per_class", 1)
    additions = {key.removeprefix("balance.add."): cfg.get_int(key)
                 for key in cfg.values if key.startswith("balance.add.")}
    try:
        plan = BalancePlan(seed=seed, level=level, target_per_class=target,
                           additions=additions)
    except ValidationError as exc:
        # The level is checked above; each other BalancePlan message starts
        # with the field's name.
        raise ValidationError(f"balance.{exc}") from None
    inputs = {role: cfg.require(f"corpus.{role}") for role in ("base", "pool", "weak_labels")}
    out_corpus = Path(cfg.require("out.corpus"))
    base, _ = _load_corpus_file(inputs["base"], "olid_labeled")
    pool, _ = _load_corpus_file(inputs["pool"], "olid_labeled")
    weak = load_weak_labels(_require_file(inputs["weak_labels"]))
    report = apply_plan(base, pool, weak, plan)

    out_corpus.write_bytes(serialize_corpus(report.corpus, "olid_labeled"))
    payload = manifest.build(
        "balance", cfg.values, plan.seed, inputs={"config": cfg.path, **inputs},
        outputs={"corpus": out_corpus},
        extra={"balance": {
            "level": plan.level, "target_per_class": plan.target_per_class,
            "before": report.before, "after_selection": report.after_selection,
            "after": report.after,
            "selected": [{"id": i, "label": l, "confidence": c, "std": s}
                         for i, l, c, s in report.selected],
            "duplicate_of": report.duplicate_of,
        }})
    manifest_path = Path(str(out_corpus) + ".manifest.json")
    manifest.write(manifest_path, payload)

    for c in classes_for(plan.level):
        print(f"{c}: {report.before[c]} -> {report.after_selection[c]} -> {report.after[c]}")
    print(f"total rows: {len(report.corpus)}")
    print(f"wrote {out_corpus} and {manifest_path}")
    return 0


def cmd_train(args) -> int:
    cfg, seed, params, pipeline = _read_experiment(args)
    out_model = Path(cfg.require("out.model"))
    manifest_path = Path(cfg.get("out.manifest") or str(out_model) + ".manifest.json")
    level, classes = pipeline.level, classes_for(pipeline.level)
    corpus_path, texts, y = _training_rows(cfg, level)
    pipeline, X = pipeline.fit_transform(texts)
    model = train_forest(X, y, params, classes=classes)

    train_scores = scores(confusion(y, forest_predict(model, X), classes), classes)
    save_model(model, out_model)
    meta_path = Path(str(out_model) + ".meta.json")
    meta = {**pipeline.to_jsonable(), "model_sha256": manifest.file_digest(out_model)}
    meta_path.write_text(manifest.canonical_json(meta), encoding="utf-8")

    payload = manifest.build(
        "train", cfg.values, seed,
        inputs=_config_inputs(cfg, corpus_path),
        outputs={"model": out_model, "meta": meta_path},
        extra={"training": {
            "rows": len(texts), "level": level,
            "vocabulary_size": len(pipeline.vocabulary),
            "params": params.to_jsonable(),
            "training_accuracy": train_scores.accuracy,
            "training_macro_f1": train_scores.macro_f1,
        }})
    manifest.write(manifest_path, payload)

    print(f"trained on {len(texts)} rows at level {level}; "
          f"vocabulary {len(pipeline.vocabulary)} terms")
    print(f"training accuracy {train_scores.accuracy:.4f}  "
          f"macro-F1 {train_scores.macro_f1:.4f}")
    print(f"wrote {out_model}, {meta_path} and {manifest_path}")
    return 0


def cmd_cv(args) -> int:
    cfg, seed, params, pipeline = _read_experiment(args)
    out_manifest = cfg.get("out.manifest")
    level = pipeline.level
    corpus_path, texts, y = _training_rows(cfg, level)
    # Rebound so that the unfitted pipeline's text memo is freed before the forests grow.
    pipeline, X = pipeline.fit_transform(texts)
    result = cross_validate(X, y, params, k=args.k, seed=seed, classes=classes_for(level))

    print(f"{args.k}-fold cross-validation on {len(texts)} rows (level {level})")
    print("fold  macro_f1")
    for i, score in enumerate(result.fold_scores, start=1):
        print(f"{i:>4}  {score:.4f}")
    print(f"mean {result.mean:.4f}  std {result.std:.4f}")

    if out_manifest:
        payload = manifest.build(
            "cv", cfg.values, seed, inputs=_config_inputs(cfg, corpus_path),
            extra={"cv": {"k": args.k, "rows": len(texts), "level": level,
                          "params": params.to_jsonable(),
                          "fold_macro_f1": list(result.fold_scores),
                          "mean_macro_f1": result.mean,
                          "std_macro_f1": result.std}})
        manifest.write(out_manifest, payload)
        print(f"wrote {out_manifest}")
    return 0


# Built-in grid used when the config names no grid.* axes at all.
_DEFAULT_GRID = {"n_trees": "100,300", "max_depth": "none,16",
                 "min_samples_leaf": "1,3"}


def _grid_from_config(cfg: ExperimentConfig, seed: int) -> list[ForestParams]:
    base = _forest_params_from(cfg, seed)
    defaults = {} if any(k.startswith("grid.") for k in cfg.values) else _DEFAULT_GRID
    axes = []
    for name in _GRID_AXES:
        raw = cfg.get(f"grid.{name}", defaults.get(name))
        values = [getattr(base, name)] if raw is None else [
            _forest_value(f"grid.{name}", v) for v in raw.split(",") if v.strip()]
        if not values:
            raise ValidationError(f"grid.{name} lists no values")
        axes.append(values)
    return [replace(base, **dict(zip(_GRID_AXES, point)))
            for point in itertools.product(*axes)]


def cmd_gridsearch(args) -> int:
    cfg, seed, grid, pipeline = _read_experiment(args, _TRAIN_KEYS | _GRID_KEYS,
                                                 _grid_from_config)
    out_best = Path(cfg.get("out.best") or str(cfg.path) + ".best.conf")
    manifest_path = Path(cfg.get("out.manifest") or str(out_best) + ".manifest.json")
    level = pipeline.level
    corpus_path, texts, y = _training_rows(cfg, level)
    # Rebound so that the unfitted pipeline's text memo is freed before the forests grow.
    pipeline, X = pipeline.fit_transform(texts)
    result = grid_search(grid, X, y, k=args.k, seed=seed, classes=classes_for(level))

    print(f"grid search over {len(grid)} settings, {args.k}-fold CV, "
          f"{len(texts)} rows (level {level})")
    print("rank  n_trees  max_depth  min_leaf  max_features  mean_f1     std")
    ranked = sorted(result.results, key=lambda pair: -pair[1].mean)
    for rank, (params, cv) in enumerate(ranked, start=1):
        star = " *" if params == result.best else ""
        print(f"{rank:>4}  {params.n_trees:>7}  {str(params.max_depth):>9}  "
              f"{params.min_samples_leaf:>8}  {str(params.max_features):>12}  "
              f"{cv.mean:.4f}  {cv.std:.4f}{star}")

    best = result.best
    # str() lowercased writes None and the booleans as none, true and false.
    out_best.write_text("".join(f"forest.{name}={str(getattr(best, name)).lower()}\n"
                                for name in _FOREST_FIELDS), encoding="utf-8")
    payload = manifest.build(
        "gridsearch", cfg.values, seed, inputs=_config_inputs(cfg, corpus_path),
        outputs={"best": out_best},
        extra={"gridsearch": {
            "k": args.k, "rows": len(texts), "level": level,
            "results": [{"params": p.to_jsonable(),
                         "fold_macro_f1": list(cv.fold_scores),
                         "mean_macro_f1": cv.mean, "std_macro_f1": cv.std}
                        for p, cv in result.results],
            "best": best.to_jsonable(),
        }})
    manifest.write(manifest_path, payload)
    print(f"wrote {out_best} and {manifest_path}")
    return 0


# Cells of the dense matrix `predict` builds per block of rows: 8 MiB of
# float64, so memory is bounded by the block and the model, not the corpus.
_PREDICT_BLOCK_CELLS = 1 << 20


def cmd_predict(args) -> int:
    model_path = _require_file(args.model)
    model = load_model(model_path)
    sidecar = Path(str(args.model) + ".meta.json")
    if not sidecar.is_file():
        raise FileNotFoundError(
            f"model sidecar missing: {sidecar} (produced by `offlang train` "
            f"next to the model file)")
    try:
        meta = json.loads(sidecar.read_text(encoding="utf-8"))
        pipeline = Pipeline.from_jsonable(meta)
        # A sidecar from another run can fit this model's width and still
        # featurize differently, so it must name this model's bytes.
        if meta.get("model_sha256") != manifest.file_digest(model_path):
            raise ValidationError(f"model_sha256 is missing or is not the sha256 of {model_path}")
        if classes_for(pipeline.level) != model.classes:
            raise ValidationError(f"its classes {list(classes_for(pipeline.level))} are not "
                                  f"the model's {list(model.classes)}")
        # Checked here because an empty corpus never reaches predict_proba's check.
        width = len(pipeline.vocabulary) + N_SURFACE
        if width != model.n_features:
            raise ValidationError(f"its vocabulary gives {width} features, "
                                  f"the model has {model.n_features}")
    except (ValueError, ValidationError) as exc:
        raise ValidationError(f"malformed model sidecar {sidecar}: {exc}") from None
    columns = read_columns(_require_file(args.corpus))
    # Each block's tweets, vectors and matrix are freed before the next
    # block; a row's label does not depend on the other rows of its block.
    block = max(1, _PREDICT_BLOCK_CELLS // model.n_features)
    labels = []
    for start in range(0, len(columns.texts), block):
        labels += forest_predict(model, pipeline.transform(columns.texts[start:start + block]))

    body = "".join(f"{tid}\t{label}\n" for tid, label in zip(columns.ids, labels))
    if args.out:
        Path(args.out).write_text(body, encoding="utf-8")
        print(f"wrote {len(columns.ids)} predictions to {args.out}")
    else:
        sys.stdout.write(body)
    if args.manifest:
        outputs = {"predictions": args.out} if args.out else None
        payload = manifest.build("predict", None, None,
                                 inputs={"model": args.model, "corpus": args.corpus},
                                 outputs=outputs)
        manifest.write(args.manifest, payload)
    return 0


@names_file
def _load_predictions(path) -> dict[str, str]:
    preds = []
    for lineno, raw in enumerate(read_lines(_require_file(path)), start=1):
        fields = raw.split("\t")
        if len(fields) != 2:
            raise ParseError(f"expected id<TAB>label, got {raw!r}", lineno)
        if fields[0] == "":
            raise ParseError("empty id", lineno)
        preds.append(fields)
    check_unique_ids((pid for pid, _ in preds), "duplicate ids in predictions")
    return dict(preds)


def cmd_evaluate(args) -> int:
    gold_corpus, schema = _load_corpus_file(args.gold, None)
    if schema != "olid_labeled":
        raise ValidationError("gold corpus must use the labeled schema")
    level = args.level
    rows = gold_corpus.labeled_at(level)
    if len(rows) == 0:
        raise ValidationError(f"no rows labeled at level {level} in {args.gold}")
    preds = _load_predictions(args.predictions)

    all_ids = set(gold_corpus.ids())
    unknown = [pid for pid in preds if pid not in all_ids]
    if unknown:
        raise ValidationError("prediction ids not present in the gold corpus", unknown)
    missing = [t.id for t in rows if t.id not in preds]
    if missing:
        raise ValidationError("gold rows without a prediction", missing)

    classes = classes_for(level)
    gold = [t.label_at(level) for t in rows]
    pred = [preds[t.id] for t in rows]
    mat = confusion(gold, pred, classes)
    sc = scores(mat, classes)

    print(render_confusion(mat, classes))
    print()
    print("class  precision  recall  f1      support")
    for c in classes:
        cs = sc.per_class[c]
        print(f"{c:<5}  {cs.precision:>9.4f}  {cs.recall:>6.4f}  {cs.f1:.4f}  {cs.support:>7}")
    print()
    print(f"accuracy {sc.accuracy:.4f}")
    print(f"macro-F1 {sc.macro_f1:.4f}")
    if args.manifest:
        payload = manifest.build(
            "evaluate", None, None,
            inputs={"gold": args.gold, "predictions": args.predictions},
            extra={"evaluate": {
                "level": level, "rows": len(rows),
                "accuracy": sc.accuracy, "macro_f1": sc.macro_f1,
                "confusion": mat.tolist(), "classes": list(classes),
            }})
        manifest.write(args.manifest, payload)
    return 0


def cmd_emostats(args) -> int:
    corpus, schema = _load_corpus_file(args.corpus, None)
    if schema != "olid_labeled":
        raise ValidationError("emotion profiling needs the labeled schema")
    lexicon = load_emotion_lexicon(str(_require_file(args.lexicon)))
    profiles = emotion_counts(corpus, lexicon, basis=args.basis)
    report = emotion_report(profiles)
    if args.out:
        Path(args.out).write_text(report + "\n", encoding="utf-8")
        print(f"wrote {args.out}")
    else:
        print(report)
    if args.manifest:
        payload = manifest.build(
            "emostats", None, None,
            inputs={"corpus": args.corpus, "lexicon": args.lexicon},
            extra={"emostats": {
                "basis": args.basis,
                "profiles": [{"label": p.label, "posts": p.n_posts,
                              "tokens": p.n_tokens, "raw": p.raw,
                              "normalized": p.normalized}
                             for p in profiles]}})
        manifest.write(args.manifest, payload)
    return 0


# ---------------------------------------------------------------------------
# Parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="offlang",
        description="Offensive-language classification experiments: corpus "
                    "tools, random-forest training and evaluation, corpus "
                    "balancing and emotion-lexicon profiling.")
    parser.add_argument("--version", action="version", version=f"offlang {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="parse a corpus file and report label counts")
    p.add_argument("corpus")
    p.add_argument("--schema", choices=("olid_labeled", "text_only"), default=None,
                   help="header schema (default: sniffed from the header row)")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("stats", help="class distribution at one label level")
    p.add_argument("corpus")
    p.add_argument("--level", choices=tuple(LEVELS), required=True)
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("balance", help="select confident pool rows and oversample")
    p.add_argument("config")
    p.set_defaults(func=cmd_balance)

    experiment = argparse.ArgumentParser(add_help=False)
    experiment.add_argument("config")
    experiment.add_argument("--threads", type=int, default=1, metavar="N",
                            help="must be >= 1 and has no effect: training runs in "
                                 "one thread whatever N is")
    folds = argparse.ArgumentParser(add_help=False, parents=[experiment])
    folds.add_argument("--k", type=int, default=10)

    p = sub.add_parser("train", parents=[experiment], help="train a random forest from a config")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("cv", parents=[folds], help="stratified k-fold cross-validation")
    p.set_defaults(func=cmd_cv)

    p = sub.add_parser("gridsearch", parents=[folds], help="cross-validate a parameter grid")
    p.set_defaults(func=cmd_gridsearch)

    p = sub.add_parser("predict", help="label a corpus with a trained model")
    p.add_argument("model")
    p.add_argument("corpus")
    p.add_argument("--out", default=None, help="write predictions here instead of stdout")
    p.add_argument("--manifest", default=None, help="also write a run manifest")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("evaluate", help="score a predictions file against gold labels")
    p.add_argument("gold")
    p.add_argument("predictions")
    p.add_argument("--level", choices=tuple(LEVELS), default="A")
    p.add_argument("--manifest", default=None, help="also write a run manifest")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("emostats", help="emotion-lexicon profile per level-A class")
    p.add_argument("corpus")
    p.add_argument("lexicon")
    p.add_argument("--basis", choices=BASES, default="per_1000_posts")
    p.add_argument("--out", default=None, help="write the report here instead of stdout")
    p.add_argument("--manifest", default=None, help="also write a run manifest")
    p.set_defaults(func=cmd_emostats)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if getattr(args, "threads", 1) < 1:
        print("error: --threads must be >= 1", file=sys.stderr)
        return 2
    if getattr(args, "k", 2) < 2:
        print("error: --k must be >= 2", file=sys.stderr)
        return 2
    try:
        return args.func(args)
    except OfflangError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

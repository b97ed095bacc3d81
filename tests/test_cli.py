"""End-to-end CLI behavior: every subcommand, exit codes, output files.

Commands run in-process through main(argv) so exit codes and stdout are
asserted directly; one subprocess test covers the installed entry point.
"""

import contextlib
import io
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from offlang import cli
from offlang.cli import _grid_from_config, _load_predictions, main
from offlang.config import ExperimentConfig
from offlang.features import feature_matrix
from offlang.forest import load_model, save_model
from offlang.manifest import file_digest

from conftest import DATA_DIR, rows_to_tsv, separable_rows

HEADER_LABELED = "id\ttweet\tsubtask_a\tsubtask_b\tsubtask_c"


@pytest.fixture(scope="module")
def env(tmp_path_factory):
    """A trained model plus the corpora and config files around it."""
    d = tmp_path_factory.mktemp("cli")
    (d / "corpus.tsv").write_text(rows_to_tsv(separable_rows(40, seed=99)),
                                  encoding="utf-8")
    (d / "train.conf").write_text(
        "\n".join([
            "seed=7",
            f"corpus.train={d / 'corpus.tsv'}",
            "train.level=A",
            "forest.n_trees=20",
            f"lexicon.stopwords={DATA_DIR / 'stopwords_en.txt'}",
            f"lexicon.abusive={DATA_DIR / 'abusive_en.txt'}",
            f"lexicon.emoji={DATA_DIR / 'emoji_sentiment.csv'}",
            f"out.model={d / 'model.bin'}",
        ]) + "\n", encoding="utf-8")
    assert main(["train", str(d / "train.conf")]) == 0
    return d


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# validate / stats


def test_validate_labeled(env, capsys):
    code, out, _ = run(capsys, "validate", str(env / "corpus.tsv"))
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "ok: 40 rows (olid_labeled)"
    assert lines[1] == "level A: NOT=20  OFF=20  unlabeled=0"
    assert lines[2] == "level B: TIN=20  UNT=0  unlabeled=20"
    assert lines[3] == "level C: IND=20  GRP=0  OTH=0  unlabeled=20"


def test_validate_text_only(env, capsys, tmp_path):
    p = tmp_path / "plain.tsv"
    p.write_text("id\ttweet\n9\thello there\n", encoding="utf-8")
    code, out, _ = run(capsys, "validate", str(p))
    assert code == 0
    assert out == "ok: 1 rows (text_only)\n"


def test_validate_missing_file_exits_1(capsys):
    code, _, err = run(capsys, "validate", "/nonexistent/corpus.tsv")
    assert code == 1
    assert err.startswith("error:")


def test_validate_bad_header_exits_2(capsys, tmp_path):
    p = tmp_path / "bad.tsv"
    p.write_text("completely wrong\n", encoding="utf-8")
    code, _, err = run(capsys, "validate", str(p))
    assert code == 2
    assert "unrecognized corpus header" in err


def test_validate_malformed_row_exits_2(capsys, tmp_path):
    p = tmp_path / "bad.tsv"
    p.write_text(HEADER_LABELED + "\n1\tonly two fields\n", encoding="utf-8")
    code, _, err = run(capsys, "validate", str(p))
    assert code == 2


def test_stats(env, capsys):
    code, out, _ = run(capsys, "stats", str(env / "corpus.tsv"), "--level", "A")
    assert code == 0
    assert out.splitlines() == ["NOT\t20", "OFF\t20", "unlabeled\t0"]
    code, out, _ = run(capsys, "stats", str(env / "corpus.tsv"), "--level", "C")
    assert out.splitlines() == ["IND\t20", "GRP\t0", "OTH\t0", "unlabeled\t20"]


# ---------------------------------------------------------------------------
# train


def test_train_outputs(env):
    assert (env / "model.bin").is_file()
    meta = json.loads((env / "model.bin.meta.json").read_text(encoding="utf-8"))
    assert meta["level"] == "A"
    assert meta["classes"] == ["NOT", "OFF"]
    assert meta["vocabulary"]["terms"]
    assert meta["model_sha256"] == file_digest(env / "model.bin")
    run_manifest = json.loads(
        (env / "model.bin.manifest.json").read_text(encoding="utf-8"))
    assert run_manifest["command"] == "train"
    assert run_manifest["seed"] == 7
    assert run_manifest["training"]["training_macro_f1"] == 1.0
    assert set(run_manifest["inputs"]) == {"config", "corpus", "stopwords",
                                           "abusive", "emoji"}
    for role in run_manifest["inputs"].values():
        assert len(role["sha256"]) == 64


def test_train_is_reproducible(env, capsys, tmp_path):
    conf = tmp_path / "re.conf"
    text = (env / "train.conf").read_text(encoding="utf-8")
    conf.write_text(text.replace(str(env / "model.bin"),
                                 str(tmp_path / "re.bin")), encoding="utf-8")
    assert run(capsys, "train", str(conf))[0] == 0
    first = (tmp_path / "re.bin").read_bytes()
    assert run(capsys, "train", str(conf), "--threads", "4")[0] == 0
    assert (tmp_path / "re.bin").read_bytes() == first
    assert first == (env / "model.bin").read_bytes()


def test_train_missing_stoplist_exits_1(env, capsys, tmp_path):
    conf = tmp_path / "nostop.conf"
    conf.write_text(
        f"seed=1\ncorpus.train={env / 'corpus.tsv'}\n"
        f"out.model={tmp_path / 'm.bin'}\n", encoding="utf-8")
    code, _, err = run(capsys, "train", str(conf))
    assert code == 1
    assert "stopword" in err


def test_train_stopwords_off_needs_no_list(env, capsys, tmp_path):
    conf = tmp_path / "nostop.conf"
    conf.write_text(
        f"seed=1\ncorpus.train={env / 'corpus.tsv'}\n"
        "prep.remove_stopwords=false\nforest.n_trees=3\n"
        f"out.model={tmp_path / 'm.bin'}\n", encoding="utf-8")
    code, _, _ = run(capsys, "train", str(conf))
    assert code == 0


def test_train_unknown_key_exits_2(env, capsys, tmp_path):
    # Misspelt keys under a known prefix were once ignored, so the run used
    # the default; a misspelt grid axis also dropped the default grid.
    for command, key, value in (("train", "froest.n_trees", "5"),
                                ("train", "forest.n_tress", "300"),
                                ("cv", "prep.lowercse", "false"),
                                ("gridsearch", "grid.n_tree", "1,2")):
        conf = tmp_path / "typo.conf"
        conf.write_text((env / "train.conf").read_text(encoding="utf-8")
                        + f"{key}={value}\n", encoding="utf-8")
        code, out, err = run(capsys, command, str(conf))
        assert code == 2, key
        assert out == ""
        assert err == f"error: unknown config keys: {key}\n"


@pytest.mark.parametrize("command, key, value, accepted", [
    ("train", "forest.max_depth", "abc", "an integer or none"),
    ("train", "forest.max_features", "most", "sqrt, all or a fraction"),
    ("train", "forest.bootstrap", "maybe", "a boolean"),
    ("gridsearch", "grid.n_trees", "1,x", "an integer"),
    ("gridsearch", "grid.max_depth", "abc", "an integer or none"),
    ("gridsearch", "grid.min_samples_leaf", "1, 2.5", "an integer"),
    ("gridsearch", "grid.max_features", "sqrt,most", "sqrt, all or a fraction"),
])
def test_bad_forest_or_grid_value_exits_2_naming_key(env, capsys, tmp_path, command,
                                                     key, value, accepted):
    # A bad grid value once ended in a ValueError traceback with exit 1.
    conf = tmp_path / "badvalue.conf"
    conf.write_text((env / "train.conf").read_text(encoding="utf-8")
                    .replace("forest.n_trees=20", "forest.n_trees=2")
                    + f"{key}={value}\n", encoding="utf-8")
    argv = [command, str(conf)] + ([] if command == "train" else ["--k", "2"])
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    bad = value.split(",")[-1].strip()
    assert err == f"error: {key} must be {accepted}, got {bad!r}\n"


@pytest.mark.parametrize("command", ["train", "cv", "gridsearch"])
@pytest.mark.parametrize("stem", ["true", "false"])
def test_unknown_stem_language_exits_2_naming_key(env, capsys, tmp_path, command, stem):
    # An unknown name once trained with exit 0 and reached the sidecar when
    # stemming was off, and failed only at the first stemmed token when on.
    conf = tmp_path / "klingon.conf"
    conf.write_text((env / "train.conf").read_text(encoding="utf-8")
                    + f"prep.stem={stem}\nprep.stem_language=klingon\n", encoding="utf-8")
    argv = [command, str(conf)] + ([] if command == "train" else ["--k", "2"])
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == ("error: stem_language must be one of danish, english, identity, "
                   "got 'klingon'\n")


def test_train_missing_seed_exits_2(env, capsys, tmp_path):
    conf = tmp_path / "noseed.conf"
    conf.write_text(f"corpus.train={env / 'corpus.tsv'}\n"
                    f"out.model={tmp_path / 'm.bin'}\n", encoding="utf-8")
    code, _, err = run(capsys, "train", str(conf))
    assert code == 2
    assert "seed" in err


def test_train_duplicate_key_exits_2(env, capsys, tmp_path):
    conf = tmp_path / "dup.conf"
    conf.write_text("seed=1\nseed=2\n", encoding="utf-8")
    code, _, err = run(capsys, "train", str(conf))
    assert code == 2
    assert "duplicate key" in err


def test_train_bad_emoji_lexicon_exits_2(env, capsys, tmp_path):
    bad = tmp_path / "emoji.csv"
    bad.write_text("😂;0.2\n", encoding="utf-8")
    conf = tmp_path / "bademoji.conf"
    conf.write_text(
        (env / "train.conf").read_text(encoding="utf-8").replace(
            str(DATA_DIR / "emoji_sentiment.csv"), str(bad)),
        encoding="utf-8")
    code, _, err = run(capsys, "train", str(conf))
    assert code == 2
    assert "emoji" in err


@pytest.mark.parametrize("score", ["nan", "inf", "-inf"])
def test_train_non_finite_emoji_score_exits_2(env, capsys, tmp_path, score):
    # A NaN score once reached the sidecar as invalid JSON, and predict then
    # failed on the dense block without naming the lexicon.
    bad = tmp_path / "emoji.csv"
    bad.write_text(f"😂,0.2\n😡,{score}\n", encoding="utf-8")
    conf = tmp_path / "nanemoji.conf"
    conf.write_text(
        (env / "train.conf").read_text(encoding="utf-8").replace(
            str(DATA_DIR / "emoji_sentiment.csv"), str(bad)),
        encoding="utf-8")
    code, _, err = run(capsys, "train", str(conf))
    assert code == 2
    assert err == f"error: {bad}: line 2: score must be finite, got {score!r}\n"


def test_long_y_run_trains_and_predicts(env, capsys, tmp_path):
    # The English stemmer's consonant test once recursed once per preceding
    # y, so an unreduced 1,500-letter y run ended both in a RecursionError.
    rows = separable_rows(40, seed=99)
    rows[0] = (rows[0][0], rows[0][1] + " " + "y" * 1500 + "ying", *rows[0][2:])
    corpus = tmp_path / "corpus.tsv"
    corpus.write_text(rows_to_tsv(rows), encoding="utf-8")
    conf = tmp_path / "yrun.conf"
    conf.write_text(
        (env / "train.conf").read_text(encoding="utf-8")
        .replace(str(env / "corpus.tsv"), str(corpus))
        .replace(str(env / "model.bin"), str(tmp_path / "m.bin"))
        + "prep.reduce_elongation=false\n", encoding="utf-8")
    assert run(capsys, "train", str(conf))[0] == 0
    code, out, _ = run(capsys, "predict", str(tmp_path / "m.bin"), str(corpus))
    assert code == 0
    assert len(out.splitlines()) == 40


def _train_with_lexicon(name):
    def argv(env, bad, tmp_path):
        conf = tmp_path / "lexicon.conf"
        conf.write_text((env / "train.conf").read_text(encoding="utf-8").replace(
            str(DATA_DIR / name), str(bad)), encoding="utf-8")
        return ["train", str(conf)]
    return argv


@pytest.mark.parametrize("argv", [
    pytest.param(lambda env, bad, tmp_path: ["train", str(bad)], id="config"),
    pytest.param(_train_with_lexicon("stopwords_en.txt"), id="stopwords"),
    pytest.param(_train_with_lexicon("abusive_en.txt"), id="abusive"),
    pytest.param(_train_with_lexicon("emoji_sentiment.csv"), id="emoji-lexicon"),
    pytest.param(lambda env, bad, tmp_path: ["emostats", str(env / "corpus.tsv"), str(bad)],
                 id="emotion-lexicon"),
    pytest.param(lambda env, bad, tmp_path: ["evaluate", str(env / "corpus.tsv"), str(bad)],
                 id="predictions"),
    pytest.param(lambda env, bad, tmp_path: ["validate", str(bad)], id="sniffed-corpus"),
])
def test_non_utf8_input_exits_2_naming_file(env, capsys, tmp_path, argv):
    # Each of these once ended in a UnicodeDecodeError traceback.
    bad = tmp_path / "latin1.txt"
    bad.write_bytes("caf\u00e9\n".encode("latin-1"))
    code, out, err = run(capsys, *argv(env, bad, tmp_path))
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {bad} is not valid UTF-8: ")


def _balance_with_weak_labels(env, bad, tmp_path):
    conf = tmp_path / "balance.conf"
    conf.write_text("\n".join([
        "seed=1", f"corpus.base={env / 'corpus.tsv'}", f"corpus.pool={env / 'corpus.tsv'}",
        f"corpus.weak_labels={bad}", f"out.corpus={tmp_path / 'out.tsv'}"]) + "\n",
        encoding="utf-8")
    return ["balance", str(conf)]


@pytest.mark.parametrize("argv, text, where", [
    pytest.param(lambda env, bad, tmp_path: ["train", str(bad)],
                 "seed=1\nno equals sign\n", "line 2: expected key=value", id="config"),
    pytest.param(lambda env, bad, tmp_path: ["validate", str(bad)],
                 "id\ttweet\n1\ta\tb\n", "line 2: expected 2 tab-separated fields, got 3",
                 id="corpus"),
    pytest.param(lambda env, bad, tmp_path: ["validate", str(bad)],
                 "completely wrong\n", "line 1: unrecognized corpus header", id="sniffed-corpus"),
    pytest.param(_balance_with_weak_labels, "p0\t2\t0\n", "line 1: confidence 2.0 outside",
                 id="weak-labels"),
    pytest.param(_train_with_lexicon("emoji_sentiment.csv"), "😂,0.2\n😡;0.1\n",
                 "line 2: expected emoji,score", id="emoji-lexicon"),
    pytest.param(lambda env, bad, tmp_path: ["emostats", str(env / "corpus.tsv"), str(bad)],
                 "word\tanger\n", "line 1: expected 3 tab-separated fields, got 2",
                 id="emotion-lexicon"),
    pytest.param(lambda env, bad, tmp_path: ["evaluate", str(env / "corpus.tsv"), str(bad)],
                 "t0 OFF\n", "line 1: expected id<TAB>label", id="predictions"),
])
def test_parse_error_names_file_and_line(env, capsys, tmp_path, argv, text, where):
    # These errors once gave the line but not the file, though most
    # commands read several files.
    bad = tmp_path / "bad.txt"
    bad.write_text(text, encoding="utf-8")
    code, out, err = run(capsys, *argv(env, bad, tmp_path))
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {bad}: {where}")


# ---------------------------------------------------------------------------
# predict / evaluate


def test_predict_and_evaluate_round_trip(env, capsys, tmp_path):
    preds = tmp_path / "preds.tsv"
    code, out, _ = run(capsys, "predict", str(env / "model.bin"),
                       str(env / "corpus.tsv"), "--out", str(preds))
    assert code == 0
    assert "wrote 40 predictions" in out
    lines = preds.read_text(encoding="utf-8").splitlines()
    assert len(lines) == 40
    assert all(line.split("\t")[1] in ("NOT", "OFF") for line in lines)

    code, out, _ = run(capsys, "evaluate", str(env / "corpus.tsv"), str(preds))
    assert code == 0
    assert "pred NOT" in out and "gold OFF" in out
    assert "accuracy 1.0000" in out
    assert "macro-F1 1.0000" in out


def test_predict_stdout_and_manifest(env, capsys, tmp_path):
    man = tmp_path / "pred.manifest.json"
    code, out, _ = run(capsys, "predict", str(env / "model.bin"),
                       str(env / "corpus.tsv"), "--manifest", str(man))
    assert code == 0
    assert len(out.splitlines()) == 40
    assert out.splitlines()[0].startswith("t0\t")
    payload = json.loads(man.read_text(encoding="utf-8"))
    assert payload["command"] == "predict"
    assert set(payload["inputs"]) == {"model", "corpus"}


@pytest.mark.parametrize("n_rows", [0, 2])
def test_predict_writes_one_line_per_row(env, capsys, tmp_path, n_rows):
    # A header-only corpus once gave a lone newline, which evaluate rejects.
    rows = separable_rows(40, seed=99)[:n_rows]
    corpus = tmp_path / "corpus.tsv"
    corpus.write_text(rows_to_tsv(rows), encoding="utf-8")
    preds = tmp_path / "preds.tsv"
    code, out, _ = run(capsys, "predict", str(env / "model.bin"), str(corpus),
                       "--out", str(preds))
    assert code == 0
    assert f"wrote {n_rows} predictions" in out
    assert _load_predictions(preds) == {r[0]: r[2] for r in rows}


def test_predict_missing_sidecar_exits_1(env, capsys, tmp_path):
    orphan = tmp_path / "orphan.bin"
    shutil.copyfile(env / "model.bin", orphan)
    code, _, err = run(capsys, "predict", str(orphan), str(env / "corpus.tsv"))
    assert code == 1
    assert "sidecar" in err


def _sidecar_without(key):
    return lambda meta: json.dumps({k: v for k, v in meta.items() if k != key})


def _sidecar_with(section, field, value):
    def edit(meta):
        meta[section][field] = value
        return json.dumps(meta)
    return edit


@pytest.mark.parametrize("corrupt", [
    pytest.param(lambda meta: "{not json", id="not-json"),
    *[pytest.param(_sidecar_without(key), id=f"no-{key}")
      for key in ("prep", "lexicons", "features", "vocabulary", "model_sha256")],
    pytest.param(_sidecar_with("prep", "shout", True), id="unknown-prep-field"),
    pytest.param(_sidecar_with("features", "ngram_max", "two"), id="ngram-max-not-int"),
    pytest.param(_sidecar_with("lexicons", "stopwords", 5), id="stopwords-not-list"),
    pytest.param(_sidecar_with("lexicons", "emoji", {"x": "high"}), id="emoji-score-text"),
    pytest.param(_sidecar_with("vocabulary", "n_docs", 0), id="df-above-n-docs"),
    pytest.param(_sidecar_with("lexicons", "emoji", {"😂": float("nan")}), id="emoji-score-nan"),
    pytest.param(_sidecar_with("prep", "lowercase", "false"), id="prep-flag-string"),
    pytest.param(_sidecar_with("prep", "stem_language", "klingon"), id="unknown-stem-language"),
    pytest.param(lambda meta: json.dumps({**meta, "model_sha256": "0" * 64}), id="other-model"),
    # Keys that were read but never checked, each once accepted with exit 0.
    pytest.param(lambda meta: json.dumps({**meta, "level": {}}), id="level-object"),
    pytest.param(lambda meta: json.dumps({**meta, "level": "D"}), id="level-unknown"),
    pytest.param(lambda meta: json.dumps({**meta, "classes": "x"}), id="classes-string"),
    pytest.param(lambda meta: json.dumps({**meta, "classes": ["OFF", "NOT"]}),
                 id="classes-reordered"),
    *[pytest.param(_sidecar_with("features", field, value), id=f"{field}-{value!r}")
      for field, value in (("ngram_max", True), ("ngram_max", 1.5), ("ngram_max", "1"),
                           ("ngram_max", 0), ("min_df", 1.5), ("min_df", -3),
                           ("min_df", False))],
])
def test_predict_malformed_sidecar_exits_2(env, capsys, tmp_path, corrupt):
    model = tmp_path / "model.bin"
    shutil.copyfile(env / "model.bin", model)
    meta = json.loads((env / "model.bin.meta.json").read_text(encoding="utf-8"))
    sidecar = tmp_path / "model.bin.meta.json"
    sidecar.write_text(corrupt(meta), encoding="utf-8")
    code, out, err = run(capsys, "predict", str(model), str(env / "corpus.tsv"))
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: malformed model sidecar {sidecar}: ")


def test_predict_sidecar_of_another_level_exits_2(env, capsys, tmp_path):
    # Level and classes agree with each other but not with the model.
    model = tmp_path / "model.bin"
    shutil.copyfile(env / "model.bin", model)
    meta = json.loads((env / "model.bin.meta.json").read_text(encoding="utf-8"))
    meta.update(level="B", classes=["TIN", "UNT"])
    sidecar = tmp_path / "model.bin.meta.json"
    sidecar.write_text(json.dumps(meta), encoding="utf-8")
    code, out, err = run(capsys, "predict", str(model), str(env / "corpus.tsv"))
    assert code == 2
    assert out == ""
    assert err == (f"error: malformed model sidecar {sidecar}: its classes ['TIN', 'UNT'] "
                   f"are not the model's ['NOT', 'OFF']\n")


@pytest.mark.parametrize("n_rows", [0, 5])
def test_predict_sidecar_narrower_than_model_exits_2(env, capsys, tmp_path, n_rows):
    # The width is checked before the corpus is read: an empty corpus
    # never reaches predict_proba's own check.
    model = tmp_path / "model.bin"
    shutil.copyfile(env / "model.bin", model)
    meta = json.loads((env / "model.bin.meta.json").read_text(encoding="utf-8"))
    width = len(meta["vocabulary"]["terms"]) + 9
    del meta["vocabulary"]["terms"][-1], meta["vocabulary"]["df"][-1]
    sidecar = tmp_path / "model.bin.meta.json"
    sidecar.write_text(json.dumps(meta), encoding="utf-8")
    corpus = tmp_path / "corpus.tsv"
    corpus.write_text(rows_to_tsv(separable_rows(40, seed=99)[:n_rows]), encoding="utf-8")
    code, out, err = run(capsys, "predict", str(model), str(corpus))
    assert code == 2
    assert out == ""
    assert err == (f"error: malformed model sidecar {sidecar}: its vocabulary gives "
                   f"{width - 1} features, the model has {width}\n")


@pytest.mark.parametrize("block", [1, 2, 3])
def test_predict_in_blocks_writes_the_same_bytes(env, capsys, tmp_path, monkeypatch, block):
    rows = separable_rows(40, seed=3)
    sizes = sorted({0, 1, block - 1, block, block + 1, 2 * block + 1})

    def predict_bytes(n, tag):
        corpus = tmp_path / f"corpus{n}.tsv"
        corpus.write_text(rows_to_tsv(rows[:n]), encoding="utf-8")
        preds = tmp_path / f"preds{n}.{tag}.tsv"
        assert run(capsys, "predict", str(env / "model.bin"), str(corpus),
                   "--out", str(preds))[0] == 0
        return preds.read_bytes()

    whole = {n: predict_bytes(n, "whole") for n in sizes}
    seen = []

    def recording(vectors, vocab_size):
        seen.append(len(vectors))
        return feature_matrix(vectors, vocab_size)

    n_features = load_model(env / "model.bin").n_features
    monkeypatch.setattr(cli, "_PREDICT_BLOCK_CELLS", block * n_features)
    monkeypatch.setattr(cli, "feature_matrix", recording)
    for n in sizes:
        assert predict_bytes(n, "blocks") == whole[n], n
    assert sum(seen) == sum(sizes)
    assert max(seen) == block


# Every JSON type, the integers around the >= 1 checks, a large integer and
# the floats JSON writes as Infinity and NaN.
_JSON_VALUE = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.just(10**30)
    | st.floats(allow_nan=True, allow_infinity=True) | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner,
                                                                max_size=3),
    max_leaves=6)
_SIDECAR_PATHS = [
    *[(key,) for key in ("level", "classes", "prep", "features", "lexicons", "vocabulary",
                         "model_sha256")],
    ("classes", 0),
    *[("prep", field) for field in ("lowercase", "strip_punct", "remove_stopwords", "stem",
                                    "split_hashtags", "reduce_elongation", "emoji_mode",
                                    "stem_language")],
    ("features", "min_df"), ("features", "ngram_max"),
    *[("lexicons", key) for key in ("stopwords", "abusive", "emoji")],
    ("lexicons", "stopwords", 0), ("lexicons", "abusive", 0),
    *[("vocabulary", key) for key in ("terms", "df", "n_docs")],
    ("vocabulary", "terms", 0), ("vocabulary", "df", 0),
]


def _fuzz_predict(env, model_bytes: bytes, edit) -> int:
    """predict's exit code on model_bytes with the trained sidecar changed
    by edit and model_sha256 set to the bytes' digest, unless edit replaced
    it.  An exception escaping main fails the test."""
    meta = json.loads((env / "model.bin.meta.json").read_text(encoding="utf-8"))
    with tempfile.TemporaryDirectory() as d:
        model = Path(d) / "model.bin"
        model.write_bytes(model_bytes)
        meta["model_sha256"] = file_digest(model)
        edit(meta)
        (Path(d) / "model.bin.meta.json").write_text(json.dumps(meta), encoding="utf-8")
        corpus = Path(d) / "corpus.tsv"
        corpus.write_text(rows_to_tsv(separable_rows(40, seed=99)[:5]), encoding="utf-8")
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            return main(["predict", str(model), str(corpus)])


@settings(deadline=None, max_examples=150)
@given(st.sampled_from(_SIDECAR_PATHS), _JSON_VALUE)
# int() of an infinite count once ended in an OverflowError traceback.
@example(("vocabulary", "n_docs"), float("inf"))
@example(("vocabulary", "df", 0), float("inf"))
def test_predict_fuzzed_sidecar_exits_0_or_2(env, path, value):
    def edit(meta):
        node = meta
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
    assert _fuzz_predict(env, (env / "model.bin").read_bytes(), edit) in (0, 2)


@settings(deadline=None, max_examples=150)
@given(st.data())
def test_predict_fuzzed_model_exits_0_or_2(env, data):
    blob = bytearray((env / "model.bin").read_bytes())
    if data.draw(st.booleans(), label="truncate"):
        blob = blob[:data.draw(st.integers(0, len(blob) - 1), label="length")]
    else:
        for _ in range(data.draw(st.integers(1, 3), label="changes")):
            blob[data.draw(st.integers(0, len(blob) - 1), label="at")] = \
                data.draw(st.integers(0, 255), label="byte")
    assert _fuzz_predict(env, bytes(blob), lambda meta: None) in (0, 2)


@pytest.mark.parametrize("field, value, message", [
    ("left", 0, "left link"),
    ("feature", 10**6, "feature beyond"),
])
def test_predict_corrupt_tree_exits_2(env, tmp_path, field, value, message):
    # A cycle in the child links once made predict loop forever, and an
    # out-of-range feature ended in an IndexError traceback.
    model = load_model(env / "model.bin")
    tree = model.trees[0]
    getattr(tree, field)[tree.feature >= 0] = value
    save_model(model, tmp_path / "model.bin")
    shutil.copyfile(env / "model.bin.meta.json", tmp_path / "model.bin.meta.json")
    proc = subprocess.run([sys.executable, "-m", "offlang.cli", "predict",
                           str(tmp_path / "model.bin"), str(env / "corpus.tsv")],
                          capture_output=True, text=True, timeout=30)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: corrupt model: tree 0 ")
    assert message in proc.stderr


def test_evaluate_unknown_prediction_id_exits_2(env, capsys, tmp_path):
    preds = tmp_path / "preds.tsv"
    preds.write_text("nosuch\tNOT\n", encoding="utf-8")
    code, _, err = run(capsys, "evaluate", str(env / "corpus.tsv"), str(preds))
    assert code == 2
    assert "not present" in err


def test_evaluate_missing_prediction_exits_2(env, capsys, tmp_path):
    preds = tmp_path / "preds.tsv"
    preds.write_text("t0\tOFF\n", encoding="utf-8")  # the other 39 missing
    code, _, err = run(capsys, "evaluate", str(env / "corpus.tsv"), str(preds))
    assert code == 2
    assert "without a prediction" in err


def test_evaluate_duplicate_prediction_ids_exit_2(env, capsys, tmp_path):
    preds = tmp_path / "preds.tsv"
    preds.write_text("t0\tOFF\nt0\tNOT\n", encoding="utf-8")
    code, _, err = run(capsys, "evaluate", str(env / "corpus.tsv"), str(preds))
    assert code == 2
    assert "duplicate" in err


def test_evaluate_rejects_text_only_gold(env, capsys, tmp_path):
    gold = tmp_path / "plain.tsv"
    gold.write_text("id\ttweet\nt0\thello\n", encoding="utf-8")
    preds = tmp_path / "preds.tsv"
    preds.write_text("t0\tNOT\n", encoding="utf-8")
    code, _, err = run(capsys, "evaluate", str(gold), str(preds))
    assert code == 2
    assert "labeled schema" in err


def test_evaluate_writes_manifest(env, capsys, tmp_path):
    preds = tmp_path / "preds.tsv"
    assert run(capsys, "predict", str(env / "model.bin"),
               str(env / "corpus.tsv"), "--out", str(preds))[0] == 0
    man = tmp_path / "eval.manifest.json"
    code, _, _ = run(capsys, "evaluate", str(env / "corpus.tsv"), str(preds),
                     "--manifest", str(man))
    assert code == 0
    payload = json.loads(man.read_text(encoding="utf-8"))
    assert payload["evaluate"]["accuracy"] == 1.0
    assert payload["evaluate"]["classes"] == ["NOT", "OFF"]


# ---------------------------------------------------------------------------
# cv / gridsearch


def test_cv_prints_fold_table(env, capsys, tmp_path):
    conf = tmp_path / "cv.conf"
    conf.write_text((env / "train.conf").read_text(encoding="utf-8")
                    .replace("forest.n_trees=20", "forest.n_trees=5")
                    + f"out.manifest={tmp_path / 'cv.manifest.json'}\n",
                    encoding="utf-8")
    code, out, _ = run(capsys, "cv", str(conf), "--k", "4")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "4-fold cross-validation on 40 rows (level A)"
    assert lines[1] == "fold  macro_f1"
    assert len([l for l in lines if l.lstrip().startswith(("1 ", "2 ", "3 ", "4 "))]) == 4
    assert any(l.startswith("mean ") for l in lines)
    payload = json.loads((tmp_path / "cv.manifest.json").read_text(encoding="utf-8"))
    assert payload["cv"]["k"] == 4
    assert len(payload["cv"]["fold_macro_f1"]) == 4


def test_cv_k_and_threads_guards(env, capsys):
    code, _, err = run(capsys, "cv", str(env / "train.conf"), "--k", "1")
    assert code == 2 and "--k" in err
    code, _, err = run(capsys, "cv", str(env / "train.conf"), "--threads", "0")
    assert code == 2 and "--threads" in err


def test_cv_manifest_is_the_same_at_every_thread_count(env, capsys, tmp_path):
    conf = tmp_path / "cv.conf"
    out = tmp_path / "cv.manifest.json"
    conf.write_text((env / "train.conf").read_text(encoding="utf-8")
                    .replace("forest.n_trees=20", "forest.n_trees=4")
                    + f"out.manifest={out}\n", encoding="utf-8")
    manifests = []
    for threads in ("1", "3"):
        assert run(capsys, "cv", str(conf), "--k", "3", "--threads", threads)[0] == 0
        manifests.append(out.read_bytes())
    assert manifests[0] == manifests[1]


def test_gridsearch_ranks_and_writes_best(env, capsys, tmp_path):
    conf = tmp_path / "grid.conf"
    conf.write_text(
        (env / "train.conf").read_text(encoding="utf-8")
        .replace("forest.n_trees=20", "grid.n_trees=3,6")
        + f"out.best={tmp_path / 'best.conf'}\n", encoding="utf-8")
    code, out, _ = run(capsys, "gridsearch", str(conf), "--k", "3")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("grid search over 2 settings")
    assert lines[1].split() == ["rank", "n_trees", "max_depth", "min_leaf",
                                "max_features", "mean_f1", "std"]
    assert sum(1 for l in lines if l.endswith(" *")) == 1
    best = ExperimentConfig.from_file(tmp_path / "best.conf")
    assert best.get("forest.n_trees") in ("3", "6")
    assert best.get("forest.max_features") == "sqrt"
    assert (tmp_path / "best.conf").read_text(encoding="utf-8") == (
        f"forest.n_trees={best.get('forest.n_trees')}\nforest.max_depth=none\n"
        "forest.min_samples_leaf=1\nforest.max_features=sqrt\nforest.bootstrap=true\n")
    assert (tmp_path / "best.conf.manifest.json").is_file()


def test_default_grid_axes(env):
    cfg = ExperimentConfig.from_text(
        f"seed=1\ncorpus.train={env / 'corpus.tsv'}\n")
    grid = _grid_from_config(cfg, seed=1)
    combos = {(p.n_trees, p.max_depth, p.min_samples_leaf) for p in grid}
    assert combos == {(nt, md, msl) for nt in (100, 300)
                      for md in (None, 16) for msl in (1, 3)}
    # Any explicit grid key suppresses every default axis.
    cfg = ExperimentConfig.from_text(
        f"seed=1\ncorpus.train={env / 'corpus.tsv'}\ngrid.n_trees=5,7\n")
    grid = _grid_from_config(cfg, seed=1)
    assert [(p.n_trees, p.max_depth, p.min_samples_leaf) for p in grid] \
        == [(5, None, 1), (7, None, 1)]


# ---------------------------------------------------------------------------
# balance


def test_balance_command(env, capsys, tmp_path):
    def row(tid, text, c):
        return (tid, text, "OFF", "TIN", c)

    base = [row(f"b{i}", f"base text {i}", "IND") for i in range(6)] \
        + [row(f"b{6 + i}", f"base text {6 + i}", "GRP") for i in range(3)] \
        + [row("b9", "base text 9", "OTH")]
    pool = [row(f"p{i}", f"pool text {i}", "GRP") for i in range(4)] \
        + [row(f"p{4 + i}", f"pool text {4 + i}", "OTH") for i in range(3)]
    (tmp_path / "base.tsv").write_text(rows_to_tsv(base), encoding="utf-8")
    (tmp_path / "pool.tsv").write_text(rows_to_tsv(pool), encoding="utf-8")
    (tmp_path / "weak.tsv").write_text(
        "".join(f"p{i}\t0.{9 - i}\t0.05\n" for i in range(7)), encoding="utf-8")
    conf = tmp_path / "balance.conf"
    conf.write_text("\n".join([
        "seed=11",
        f"corpus.base={tmp_path / 'base.tsv'}",
        f"corpus.pool={tmp_path / 'pool.tsv'}",
        f"corpus.weak_labels={tmp_path / 'weak.tsv'}",
        "balance.level=C",
        "balance.target_per_class=6",
        "balance.add.GRP=2",
        "balance.add.OTH=2",
        f"out.corpus={tmp_path / 'balanced.tsv'}",
    ]) + "\n", encoding="utf-8")

    code, out, _ = run(capsys, "balance", str(conf))
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "IND: 6 -> 6 -> 6"
    assert lines[1] == "GRP: 3 -> 5 -> 6"
    assert lines[2] == "OTH: 1 -> 3 -> 6"
    assert lines[3] == "total rows: 18"

    balanced = (tmp_path / "balanced.tsv").read_text(encoding="utf-8")
    assert len(balanced.splitlines()) == 19  # header + rows
    payload = json.loads(
        (tmp_path / "balanced.tsv.manifest.json").read_text(encoding="utf-8"))
    assert payload["balance"]["after"] == {"IND": 6, "GRP": 6, "OTH": 6}
    # Most confident pool rows win: p0 and p1 for GRP, p4 and p5 for OTH.
    picked = {row["id"] for row in payload["balance"]["selected"]}
    assert picked == {"p0", "p1", "p4", "p5"}

    # The balanced corpus is itself a valid labeled corpus.
    assert run(capsys, "validate", str(tmp_path / "balanced.tsv"))[0] == 0


def test_balance_pool_shortfall_exits_2(env, capsys, tmp_path):
    (tmp_path / "base.tsv").write_text(
        rows_to_tsv([("b0", "x", "OFF", "TIN", "IND")]), encoding="utf-8")
    (tmp_path / "pool.tsv").write_text(
        rows_to_tsv([("p0", "y", "OFF", "TIN", "GRP")]), encoding="utf-8")
    (tmp_path / "weak.tsv").write_text("p0\t0.9\t0.1\n", encoding="utf-8")
    conf = tmp_path / "short.conf"
    conf.write_text("\n".join([
        "seed=1",
        f"corpus.base={tmp_path / 'base.tsv'}",
        f"corpus.pool={tmp_path / 'pool.tsv'}",
        f"corpus.weak_labels={tmp_path / 'weak.tsv'}",
        "balance.target_per_class=2",
        "balance.add.GRP=5",
        f"out.corpus={tmp_path / 'out.tsv'}",
    ]) + "\n", encoding="utf-8")
    code, _, err = run(capsys, "balance", str(conf))
    assert code == 2
    assert "shortfall" in err


# ---------------------------------------------------------------------------
# emostats


def test_emostats(env, capsys, tmp_path):
    corpus = tmp_path / "emo.tsv"
    corpus.write_text(rows_to_tsv([
        ("1", "I hate this", "OFF", "TIN", "IND"),
        ("2", "what a lovely day", "NOT", "NULL", "NULL"),
    ]), encoding="utf-8")
    lexicon = tmp_path / "emo_lex.tsv"
    lexicon.write_text("hate\tanger\t1\nhate\tnegative\t1\nlovely\tjoy\t1\n",
                       encoding="utf-8")
    code, out, _ = run(capsys, "emostats", str(corpus), str(lexicon))
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "basis: per_1000_posts"
    assert lines[1] == "posts: NOT=1, OFF=1"
    anger = next(l for l in lines if l.startswith("anger"))
    assert anger.split() == ["anger", "0.000", "1000.000"]
    joy = next(l for l in lines if l.startswith("joy"))
    assert joy.split() == ["joy", "1000.000", "0.000"]

    report = tmp_path / "emo.txt"
    man = tmp_path / "emo.manifest.json"
    code, out, _ = run(capsys, "emostats", str(corpus), str(lexicon),
                       "--basis", "per_post", "--out", str(report),
                       "--manifest", str(man))
    assert code == 0
    assert report.read_text(encoding="utf-8").startswith("basis: per_post\n")
    payload = json.loads(man.read_text(encoding="utf-8"))
    assert payload["emostats"]["basis"] == "per_post"


def test_emostats_rejects_text_only(env, capsys, tmp_path):
    corpus = tmp_path / "plain.tsv"
    corpus.write_text("id\ttweet\n1\thello\n", encoding="utf-8")
    lexicon = tmp_path / "lex.tsv"
    lexicon.write_text("x\tanger\t1\n", encoding="utf-8")
    code, _, err = run(capsys, "emostats", str(corpus), str(lexicon))
    assert code == 2
    assert "labeled schema" in err


# ---------------------------------------------------------------------------
# entry point


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("offlang ")


def test_console_script_runs():
    proc = subprocess.run([sys.executable, "-m", "offlang.cli", "--version"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.startswith("offlang ")

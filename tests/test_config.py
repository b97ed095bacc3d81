"""Flat key=value experiment configuration files."""

import pytest

from offlang.config import ExperimentConfig
from offlang.errors import ParseError, ValidationError


def conf(text):
    return ExperimentConfig.from_text(text)


def test_parse_basics():
    cfg = conf("# comment\n\nseed = 7\ncorpus.path=data.tsv\n"
               "  forest.n_trees = 100  \n")
    assert cfg.values == {"seed": "7", "corpus.path": "data.tsv",
                          "forest.n_trees": "100"}


def test_parse_value_may_contain_equals():
    cfg = conf("note=a=b=c\n")
    assert cfg.get("note") == "a=b=c"


def test_parse_rejects_duplicates_and_garbage():
    with pytest.raises(ParseError) as exc:
        conf("a=1\na=2\n")
    assert exc.value.line == 2
    with pytest.raises(ParseError) as exc:
        conf("a=1\njust words\n")
    assert exc.value.line == 2
    with pytest.raises(ParseError):
        conf("=value\n")


def test_from_file_records_path(tmp_path):
    p = tmp_path / "exp.conf"
    p.write_text("seed=1\n", encoding="utf-8")
    cfg = ExperimentConfig.from_file(p)
    assert cfg.path == p
    assert cfg.seed() == 1


def test_typed_accessors():
    cfg = conf("i=42\nb1=true\nb2=OFF\nb3=Yes\ns=hello\n")
    assert cfg.get_int("i") == 42
    assert cfg.get_int("missing", 9) == 9
    assert cfg.get_int("missing") is None
    assert cfg.get_bool("b1", False) is True
    assert cfg.get_bool("b2", True) is False
    assert cfg.get_bool("b3", False) is True
    assert cfg.get_bool("missing", True) is True
    assert cfg.get("s") == "hello"
    assert cfg.require("s") == "hello"


def test_typed_accessors_reject_bad_values():
    cfg = conf("i=ten\nb=maybe\n")
    with pytest.raises(ValidationError, match="i must be an integer"):
        cfg.get_int("i")
    with pytest.raises(ValidationError, match="b must be a boolean"):
        cfg.get_bool("b", False)
    with pytest.raises(ValidationError, match="missing required key"):
        cfg.require("absent")


def test_seed_is_mandatory_and_integer():
    assert conf("seed=123\n").seed() == 123
    assert conf("seed=-5\n").seed() == -5
    with pytest.raises(ValidationError, match="seed"):
        conf("").seed()
    with pytest.raises(ValidationError, match="seed must be an integer"):
        conf("seed=lucky\n").seed()


def test_assert_known():
    cfg = conf("seed=1\nforest.n_trees=10\ncorpus.path=x\n")
    cfg.assert_known({"seed", "corpus.path"}, prefixes=("forest.",))
    with pytest.raises(ValidationError, match="unknown config keys: typo.key"):
        conf("seed=1\ntypo.key=1\n").assert_known({"seed"})
    # Multiple offenders are reported sorted.
    with pytest.raises(ValidationError, match="aaa, zzz"):
        conf("zzz=1\naaa=2\n").assert_known(set())

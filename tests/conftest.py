"""Shared fixtures and the acceptance-criteria terminal summary.

Every test named test_criterion_<N> in test_acceptance.py is tracked and a
"criterion N: PASS/FAIL" line per criterion is appended to the pytest
terminal summary.
"""

import random
import re
import warnings
from pathlib import Path

import pytest

# A failing Hypothesis test imports hypothesis.extra._patching to print a
# patch.  Where libcst is installed, that import warns with a
# DeprecationWarning, which the pytest filterwarnings setting turns into an
# error that ends the whole run.  Imported here first, with its warnings
# ignored, it is already loaded when a test fails.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:  # libcst is not installed
        pass

DATA_DIR = Path(__file__).resolve().parent.parent / "data"

# Whitespace that str.split splits on beyond the space: a tab, an
# information separator, NEL, the line separator and the ideographic space.
SPLIT_WHITESPACE = ["\t", "\x1c", "\x85", "\u2028", "\u3000"]

_CRITERION = re.compile(r"test_acceptance\.py::test_criterion_(\d+)")
_results: dict[int, str] = {}


def pytest_runtest_logreport(report):
    m = _CRITERION.search(report.nodeid)
    if m is None:
        return
    n = int(m.group(1))
    if report.when == "call":
        _results[n] = report.outcome
    elif report.outcome != "passed":  # setup error or skip
        _results.setdefault(n, report.outcome)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _results:
        return
    terminalreporter.section("acceptance criteria")
    for n in sorted(_results):
        status = "PASS" if _results[n] == "passed" else "FAIL"
        terminalreporter.write_line(f"criterion {n}: {status}")


# ---------------------------------------------------------------------------
# Synthetic corpora

HEADER = "id\ttweet\tsubtask_a\tsubtask_b\tsubtask_c"

# Word pools for a cleanly separable two-class corpus.  Every content word is
# class-specific, so bag-of-words carries a strong signal; the filler words
# appear on both sides.
_OFF_WORDS = [
    "idiot", "moron", "clown", "loser", "pathetic", "trash", "garbage",
    "disgusting", "stupid", "fool", "creep", "scum", "awful", "horrible",
    "worthless", "liar", "fraud", "disgrace", "shameful", "vile",
]
_NOT_WORDS = [
    "lovely", "sunny", "friends", "coffee", "morning", "garden", "music",
    "weekend", "holiday", "smile", "thanks", "beautiful", "wonderful",
    "delicious", "peaceful", "cheerful", "family", "picnic", "sunshine",
    "grateful",
]
_FILLER = ["today", "really", "again", "people", "everyone", "always",
           "never", "think", "going", "little"]


def separable_rows(n_rows: int, seed: int = 13) -> list[tuple[str, str, str, str, str]]:
    """n_rows alternating OFF/NOT tweets built from disjoint word pools."""
    rnd = random.Random(seed)
    rows = []
    for i in range(n_rows):
        offensive = i % 2 == 0
        pool = _OFF_WORDS if offensive else _NOT_WORDS
        words = rnd.sample(pool, 3) + rnd.sample(_FILLER, 2)
        rnd.shuffle(words)
        if rnd.random() < 0.3:
            words.insert(0, "@USER")
        if rnd.random() < 0.2:
            words.append("URL")
        text = " ".join(words)
        if offensive:
            rows.append((f"t{i}", text, "OFF", "TIN", "IND"))
        else:
            rows.append((f"t{i}", text, "NOT", "NULL", "NULL"))
    return rows


def rows_to_tsv(rows) -> str:
    return "\n".join([HEADER] + ["\t".join(r) for r in rows]) + "\n"


@pytest.fixture(scope="session")
def big_corpus_dir(tmp_path_factory):
    """3,000-row separable corpus plus a ready-to-run training config."""
    d = tmp_path_factory.mktemp("bigcorpus")
    corpus = d / "corpus.tsv"
    corpus.write_text(rows_to_tsv(separable_rows(3000)), encoding="utf-8")
    conf = d / "train.conf"
    conf.write_text(
        "\n".join([
            "seed=20240915",
            f"corpus.train={corpus}",
            "train.level=A",
            f"lexicon.stopwords={DATA_DIR / 'stopwords_en.txt'}",
            f"lexicon.abusive={DATA_DIR / 'abusive_en.txt'}",
            f"lexicon.emoji={DATA_DIR / 'emoji_sentiment.csv'}",
            f"out.model={d / 'model.bin'}",
        ]) + "\n",
        encoding="utf-8")
    return d

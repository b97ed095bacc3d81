"""tools/linecount.py, the line counter behind ROADMAP item 13's gate."""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("linecount", ROOT / "tools" / "linecount.py")
linecount = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(linecount)

SOURCES = sorted((ROOT / "src" / "offlang").glob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_counts_add_up_to_the_line_count(path):
    counts = linecount.count(path.read_text(encoding="utf-8"))
    assert list(counts) == ["code", "docstring", "comment", "blank"]
    assert sum(counts.values()) == len(path.read_bytes().splitlines())


def test_each_line_gets_its_kind():
    text = '''"""Module
docstring."""

# A comment.
x = 1  # code with a comment
TEXT = """a string

that is code"""


class A:
    """One line."""

    def f(self):
        \'\'\'Two
        lines.\'\'\'
        return (1,
                # inside brackets
                2)
'''
    assert linecount.count(text) == {"code": 8, "docstring": 5, "comment": 2, "blank": 4}


def test_main_prints_a_row_per_file_and_a_total(capsys, monkeypatch):
    monkeypatch.chdir(ROOT)
    assert linecount.main(["src/offlang"]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert rows[0] == ["code", "docstring", "comment", "blank", "lines", "file"]
    assert [ROOT / row[-1] for row in rows[1:-1]] == SOURCES
    assert rows[-1][-1] == "total"
    assert [int(v) for v in rows[-1][:5]] == [sum(int(row[i]) for row in rows[1:-1])
                                              for i in range(5)]

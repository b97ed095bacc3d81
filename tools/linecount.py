"""Count the lines of Python files by kind: code, docstring, comment, blank.

    python3 tools/linecount.py PATH...

Each PATH is a .py file or a directory searched for them.  Prints one row
per file and a total row.  A docstring is the string that is the first
statement of a module, class or function, and each of its lines counts as
docstring.  Any other line that holds part of a token counts as code, a
line with only a comment as comment and the rest as blank, so the four
counts add up to the file's line count.
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

KINDS = ("code", "docstring", "comment", "blank")
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENDMARKER}
_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def count(text: str) -> dict[str, int]:
    """The lines of Python source text by kind, in KINDS order."""
    kind = ["blank"] * (len(io.StringIO(text).readlines()) + 1)  # 1-based
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type == tokenize.COMMENT:
            if kind[tok.start[0]] == "blank":
                kind[tok.start[0]] = "comment"
        elif tok.type not in _LAYOUT:
            kind[tok.start[0]:tok.end[0] + 1] = ["code"] * (tok.end[0] + 1 - tok.start[0])
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, _SCOPES) and ast.get_docstring(node, clean=False) is not None:
            doc = node.body[0]
            kind[doc.lineno:doc.end_lineno + 1] = ["docstring"] * (doc.end_lineno + 1 - doc.lineno)
    return {k: kind[1:].count(k) for k in KINDS}


def _files(paths):
    for path in map(Path, paths):
        if path.is_dir():
            yield from sorted(path.rglob("*.py"))
        elif path.is_file():
            yield path
        else:
            sys.exit(f"error: no such file or directory: {path}")


def main(argv=None) -> int:
    paths = sys.argv[1:] if argv is None else argv
    if not paths:
        sys.exit("usage: linecount.py PATH...")
    row = "{:>6} {:>9} {:>7} {:>6} {:>6}  {}".format
    print(row(*KINDS, "lines", "file"))
    total = dict.fromkeys(KINDS, 0)
    for path in _files(paths):
        counts = count(path.read_text(encoding="utf-8"))
        print(row(*counts.values(), sum(counts.values()), path))
        for k in KINDS:
            total[k] += counts[k]
    print(row(*total.values(), sum(total.values()), "total"))
    return 0


if __name__ == "__main__":
    sys.exit(main())

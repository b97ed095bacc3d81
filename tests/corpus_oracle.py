"""The line-by-line corpus loader used to cross-check corpus.read_columns.

This is the loader before a corpus was read as columns: `oracle_load_corpus`
splits each line into its fields and checks them in order (field count,
empty id, then the A, B and C labels) before it moves to the next line, so
the first malformed line is the one reported; duplicate ids and hierarchy
violations are checked after every line has parsed.  `oracle_sniff_schema`
is the header sniff that `offlang validate` and the other commands that
take either schema ran over the whole file before loading it.  The line
splitting is copied too, so the oracle reads lines independently of the
package under test.
"""

from offlang.corpus import (Corpus, HEADER_LABELED, HEADER_TEXT_ONLY, LEVELS, NULL, SCHEMAS,
                            Tweet, check_unique_ids, names_file, read_text)
from offlang.errors import ParseError, ValidationError


def _read_lines(source) -> list[str]:
    lines = read_text(source).split("\n")
    if lines[-1] == "":
        lines.pop()
    return [line.rstrip("\r") for line in lines]


def _parse_label(raw: str, level: str, line: int) -> str | None:
    if raw == NULL:
        return None
    if raw not in LEVELS[level]:
        raise ParseError(
            f"invalid level-{level} label {raw!r}, expected one of "
            f"{', '.join(LEVELS[level])} or {NULL}", line)
    return raw


@names_file
def oracle_sniff_schema(path) -> str:
    text = read_text(path)
    if not text:
        raise ParseError("empty file, expected a header row", 1)
    first = text.partition("\n")[0].rstrip("\r")
    if first == HEADER_LABELED:
        return "olid_labeled"
    if first == HEADER_TEXT_ONLY:
        return "text_only"
    raise ParseError(f"unrecognized corpus header {first!r}", 1)


@names_file
def oracle_load_corpus(source, schema: str = "olid_labeled") -> Corpus:
    if schema not in SCHEMAS:
        raise ValidationError(f"unknown schema {schema!r}, expected one of {', '.join(SCHEMAS)}")
    lines = _read_lines(source)
    if not lines:
        raise ParseError("empty file, expected a header row", 1)

    expected_header = HEADER_LABELED if schema == "olid_labeled" else HEADER_TEXT_ONLY
    header = lines[0]
    if header != expected_header:
        raise ParseError(
            f"bad header for schema {schema!r}: expected {expected_header!r}, got {header!r}", 1)
    n_cols = len(expected_header.split("\t"))

    tweets = []
    for lineno, raw in enumerate(lines[1:], start=2):
        fields = raw.split("\t")
        if len(fields) != n_cols:
            raise ParseError(f"expected {n_cols} tab-separated fields, got {len(fields)}", lineno)
        tid = fields[0]
        if tid == "":
            raise ParseError("empty id", lineno)
        if schema == "olid_labeled":
            tweets.append(Tweet(
                id=tid, text=fields[1],
                label_a=_parse_label(fields[2], "A", lineno),
                label_b=_parse_label(fields[3], "B", lineno),
                label_c=_parse_label(fields[4], "C", lineno),
            ))
        else:
            tweets.append(Tweet(id=tid, text=fields[1]))

    check_unique_ids((t.id for t in tweets), "duplicate tweet ids")

    bad = [t.id for t in tweets if not t.hierarchy_ok()]
    if bad:
        raise ValidationError(
            "label hierarchy violations (level B requires OFF, level C requires TIN)", bad)

    return Corpus(tuple(tweets))

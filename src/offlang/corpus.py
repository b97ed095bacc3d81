"""Corpus model and TSV I/O for three-level offensive-language annotation.

A tweet carries up to three labels forming a hierarchy:

    level A: NOT | OFF          (offensive or not)
    level B: TIN | UNT          (targeted insult or untargeted), requires OFF
    level C: IND | GRP | OTH    (target type), requires TIN

Absent labels are stored as None and written as the literal string NULL.
Files are UTF-8 TSV with LF line endings; `serialize_corpus` inverts
`load_corpus` byte-for-byte on such files.  Ids are opaque strings and are
never interpreted.

`read_columns` reads a file as columns (`CorpusColumns`: the ids, the texts
and per level the labels, one tuple each).  After the tabs of each line are
counted, the rows are split into fields once, as one string, and each
column is checked whole: the ids for an empty one and, by a set's length,
for duplicates, each label column by comparing its set of values with the
level's, and the hierarchy by the set of (A, B, C) label triples.  Only
when a row's field count, id or label is wrong are the rows walked one by
one, each checked field by field (count, id, then labels A, B and C), so
the error names the first bad line, as a line-by-line reader would.
`load_corpus` builds a `Corpus` of `Tweet`s from the columns for the
commands that report through it; `train`, `cv`, `gridsearch` and `predict`
read the columns and make no `Tweet`.
"""

import functools
import io
import itertools
from dataclasses import dataclass
from pathlib import Path

from .errors import ParseError, ValidationError

LEVELS: dict[str, tuple[str, ...]] = {
    "A": ("NOT", "OFF"),
    "B": ("TIN", "UNT"),
    "C": ("IND", "GRP", "OTH"),
}

NULL = "NULL"

HEADER_LABELED = "id\ttweet\tsubtask_a\tsubtask_b\tsubtask_c"
HEADER_TEXT_ONLY = "id\ttweet"

SCHEMAS = ("olid_labeled", "text_only")


def classes_for(level: str) -> tuple[str, ...]:
    try:
        return LEVELS[level]
    except (KeyError, TypeError):  # TypeError: an unhashable level, as JSON can give
        raise ValidationError(f"unknown label level {level!r}, expected one of A, B, C")


def level_of_label(label: str) -> str:
    """Map a class name to its level (e.g. OTH -> C)."""
    for level, classes in LEVELS.items():
        if label in classes:
            return level
    raise ValidationError(f"unknown class label {label!r}")


@dataclass(frozen=True)
class Tweet:
    id: str
    text: str
    label_a: str | None = None
    label_b: str | None = None
    label_c: str | None = None

    def label_at(self, level: str) -> str | None:
        return {"A": self.label_a, "B": self.label_b, "C": self.label_c}[level]

    def hierarchy_ok(self) -> bool:
        """Lower-level labels require the specific parent label above them."""
        if self.label_b is not None and self.label_a != "OFF":
            return False
        if self.label_c is not None and self.label_b != "TIN":
            return False
        return True


@dataclass(frozen=True)
class Corpus:
    tweets: tuple[Tweet, ...]

    def __len__(self) -> int:
        return len(self.tweets)

    def __iter__(self):
        return iter(self.tweets)

    def ids(self) -> list[str]:
        return [t.id for t in self.tweets]

    def with_tweets(self, tweets) -> "Corpus":
        return Corpus(tuple(tweets))

    def labeled_at(self, level: str) -> "Corpus":
        """Sub-corpus of tweets carrying a label at the given level."""
        classes_for(level)
        return self.with_tweets(t for t in self.tweets if t.label_at(level) is not None)


@dataclass(frozen=True)
class WeakLabel:
    id: str
    confidence: float  # in [0, 1]
    std: float         # >= 0


def _source_name(source):
    if isinstance(source, (str, Path)):
        return source
    return getattr(source, "name", None) if hasattr(source, "read") else None


def names_file(reader):
    """Decorate reader(source, ...) so that a ParseError it raises at a line
    names the file, when source has a name: `<path>: line N: ...`."""
    @functools.wraps(reader)
    def read(source, *args, **kwargs):
        try:
            return reader(source, *args, **kwargs)
        except ParseError as exc:
            name = _source_name(source)
            if exc.line is None or name is None:
                raise
            raise ParseError(exc.reason, exc.line, name) from None
    return read


def check_unique_ids(ids, message: str) -> None:
    """ValidationError(message) listing each id that occurs more than once
    in ids, once, in order of its second occurrence."""
    seen, dupes = set(), {}
    for tid in ids:
        if tid in seen:
            dupes[tid] = None
        seen.add(tid)
    if dupes:
        raise ValidationError(message, list(dupes))


def read_text(source) -> str:
    """The text of source (bytes, a path, or a file object), which must be
    UTF-8 without a byte-order mark; otherwise ParseError, naming the file
    when source has a name.  A byte-order mark would be read as the first
    character of the first line, and a stopword or a config key that
    starts with it never matches."""
    name = _source_name(source)
    if isinstance(source, bytes):
        data = source
    elif isinstance(source, (str, Path)):
        data = Path(source).read_bytes()
    elif hasattr(source, "read"):
        data = source.read()
    else:
        raise TypeError(f"unsupported text source {type(source).__name__}")
    try:
        text = data if isinstance(data, str) else data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{name or 'input'} is not valid UTF-8: {exc}") from None
    if text.startswith("\ufeff"):
        raise ParseError(f"{name or 'input'} starts with a UTF-8 byte-order mark; "
                         "save it as UTF-8 without one")
    return text


def read_lines(source) -> list[str]:
    """The lines of read_text(source) without their LF or CRLF endings; a
    final newline ends the last line and starts no empty one."""
    text = read_text(source)
    lines = text.split("\n")
    if lines[-1] == "":
        lines.pop()
    return [line.rstrip("\r") for line in lines] if "\r" in text else lines


_HEADERS = {"olid_labeled": HEADER_LABELED, "text_only": HEADER_TEXT_ONLY}
# Each level's label as written in a file, mapped to its stored value.
_LABEL_VALUES = {level: {NULL: None, **{c: c for c in classes}}
                 for level, classes in LEVELS.items()}
# The (A, B, C) label triples that Tweet.hierarchy_ok accepts.
_HIERARCHY_OK = frozenset(
    labels for labels in itertools.product(*([None, *classes] for classes in LEVELS.values()))
    if Tweet("", "", *labels).hierarchy_ok())


@dataclass(frozen=True)
class CorpusColumns:
    """A corpus file as columns, one tuple each, in file order: the ids,
    the texts and per level (A, B, C) the labels, None where absent (every
    label in the text-only schema)."""
    schema: str
    ids: tuple[str, ...]
    texts: tuple[str, ...]
    labels: dict[str, tuple[str | None, ...]]

    def corpus(self) -> Corpus:
        return Corpus(tuple(map(Tweet, self.ids, self.texts, *self.labels.values())))


def _raise_first_bad_line(body, n_cols: int) -> None:
    """Raise the ParseError of the first malformed row of body (line 2 on),
    checking each row's field count, then its id, then its A, B and C
    labels."""
    for lineno, raw in enumerate(body, start=2):
        fields = raw.split("\t")
        if len(fields) != n_cols:
            raise ParseError(f"expected {n_cols} tab-separated fields, got {len(fields)}", lineno)
        if fields[0] == "":
            raise ParseError("empty id", lineno)
        for (level, classes), label in zip(LEVELS.items(), fields[2:]):
            if label not in _LABEL_VALUES[level]:
                raise ParseError(f"invalid level-{level} label {label!r}, expected one of "
                                 f"{', '.join(classes)} or {NULL}", lineno)


@names_file
def read_columns(source, schema: str | None = None) -> CorpusColumns:
    """Parse a TSV corpus file into columns.

    `source` may be bytes, a path, or a binary file object; with no
    `schema` the header row names it.  Raises ParseError (with the 1-based
    line number) on malformed rows and ValidationError (listing ids) on
    duplicate ids or label-hierarchy violations.
    """
    if schema is not None and schema not in SCHEMAS:
        raise ValidationError(f"unknown schema {schema!r}, expected one of {', '.join(SCHEMAS)}")
    lines = read_lines(source)
    if not lines:
        raise ParseError("empty file, expected a header row", 1)
    header, body = lines[0], lines[1:]
    if schema is None:
        schema = next((s for s, h in _HEADERS.items() if h == header), None)
        if schema is None:
            raise ParseError(f"unrecognized corpus header {header!r}", 1)
    expected_header = _HEADERS[schema]
    if header != expected_header:
        raise ParseError(
            f"bad header for schema {schema!r}: expected {expected_header!r}, got {header!r}", 1)
    n_cols = expected_header.count("\t") + 1

    # Every row is checked column by column; only a file with a malformed
    # row is walked row by row, so that its first bad line is reported.
    fields = "\t".join(body).split("\t") if body else []
    ids = tuple(fields[0::n_cols])
    raw_labels = dict(zip(LEVELS, (fields[i::n_cols] for i in range(2, n_cols))))
    if (any(map((n_cols - 1).__ne__, map(str.count, body, itertools.repeat("\t"))))
            or "" in ids
            or any(not set(col) <= _LABEL_VALUES[level].keys()
                   for level, col in raw_labels.items())):
        _raise_first_bad_line(body, n_cols)
    if schema == "olid_labeled":
        labels = {level: tuple(map(_LABEL_VALUES[level].__getitem__, col))
                  for level, col in raw_labels.items()}
    else:
        labels = dict.fromkeys(LEVELS, (None,) * len(ids))

    if len(set(ids)) != len(ids):
        check_unique_ids(ids, "duplicate tweet ids")
    if not set(zip(*labels.values())) <= _HIERARCHY_OK:
        raise ValidationError(
            "label hierarchy violations (level B requires OFF, level C requires TIN)",
            [tid for tid, row in zip(ids, zip(*labels.values())) if row not in _HIERARCHY_OK])

    return CorpusColumns(schema, ids, tuple(fields[1::n_cols]), labels)


def load_corpus(source, schema: str = "olid_labeled") -> Corpus:
    """Parse a TSV corpus file into a Corpus of Tweets; see read_columns."""
    return read_columns(source, schema).corpus()


def serialize_corpus(corpus: Corpus, schema: str = "olid_labeled") -> bytes:
    """Inverse of load_corpus for the given schema (LF endings, NULL markers)."""
    if schema not in SCHEMAS:
        raise ValidationError(f"unknown schema {schema!r}, expected one of {', '.join(SCHEMAS)}")
    out = io.StringIO()
    if schema == "olid_labeled":
        out.write(HEADER_LABELED + "\n")
        for t in corpus:
            out.write("\t".join((
                t.id, t.text,
                t.label_a or NULL, t.label_b or NULL, t.label_c or NULL)) + "\n")
    else:
        out.write(HEADER_TEXT_ONLY + "\n")
        for t in corpus:
            out.write(f"{t.id}\t{t.text}\n")
    return out.getvalue().encode("utf-8")


@names_file
def load_weak_labels(source) -> dict[str, WeakLabel]:
    """Parse a headerless TSV of id, confidence, std rows.

    Confidence must lie in [0, 1] and std must be >= 0 (ParseError with the
    line number otherwise); duplicate ids raise ValidationError.
    """
    labels = []
    for lineno, raw in enumerate(read_lines(source), start=1):
        fields = raw.split("\t")
        if len(fields) != 3:
            raise ParseError(f"expected 3 tab-separated fields, got {len(fields)}", lineno)
        tid = fields[0]
        if tid == "":
            raise ParseError("empty id", lineno)
        try:
            confidence = float(fields[1])
            std = float(fields[2])
        except ValueError:
            raise ParseError(f"confidence/std must be numbers, got {fields[1]!r}, {fields[2]!r}",
                             lineno) from None
        if not 0.0 <= confidence <= 1.0:
            raise ParseError(f"confidence {confidence} outside [0, 1]", lineno)
        if not std >= 0.0:
            raise ParseError(f"std {std} must be >= 0", lineno)
        labels.append(WeakLabel(tid, confidence, std))
    check_unique_ids((w.id for w in labels), "duplicate ids in weak-label file")
    return {w.id: w for w in labels}


def class_distribution(corpus: Corpus, level: str) -> dict[str, int]:
    """Count tweets per class at one level; every class appears, missing -> 0.

    Tweets without a label at the level are not counted.
    """
    counts = {c: 0 for c in classes_for(level)}
    for t in corpus:
        label = t.label_at(level)
        if label is not None:
            counts[label] += 1
    return counts

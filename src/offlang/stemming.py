"""Suffix-stripping stemmers, looked up by language name.

Ships two hand-implemented algorithmic stemmers plus an identity stemmer:

* "danish": the standard Danish suffix-stripping algorithm (R1 region with a
  3-letter minimum prefix, a fixed suffix table, consonant-pair trimming,
  final undoubling);
* "english": the classic 5-step English suffix stripper driven by the
  measure m of the word's consonant/vowel pattern;
* "identity": returns the token unchanged (useful in tests and for languages
  without a registered algorithm).

`stem()` lowercases its input first, so it is deterministic and idempotent
regardless of the caller's casing.
"""

from collections.abc import Callable

from .errors import ValidationError

# ---------------------------------------------------------------------------
# Danish


_DA_VOWELS = frozenset("aeiouyæåø")
# Letters that may precede a deletable final s.
_DA_S_ENDINGS = frozenset("abcdfghjklmnoprtvyzå")

_DA_STEP1_SUFFIXES = sorted(
    (
        "hed", "ethed", "ered", "e", "erede", "ende", "erende", "ene", "erne",
        "ere", "en", "heden", "eren", "er", "heder", "erer", "heds", "es",
        "endes", "erendes", "enes", "ernes", "eres", "ens", "hedens", "erens",
        "ers", "ets", "erets", "et", "eret",
    ),
    key=len, reverse=True,
)

_DA_CONSONANT_PAIRS = ("gd", "dt", "gt", "kt")


def _da_r1(word: str) -> int:
    """Start of R1: after the first non-vowel following a vowel, min 3."""
    r1 = len(word)
    for i in range(1, len(word)):
        if word[i] not in _DA_VOWELS and word[i - 1] in _DA_VOWELS:
            r1 = i + 1
            break
    return max(r1, 3)


def _da_consonant_pair(word: str, r1: int) -> str:
    """Drop the final letter of a gd/dt/gt/kt ending lying inside R1."""
    if len(word) >= 2 and word[-2:] in _DA_CONSONANT_PAIRS and len(word) - 2 >= r1:
        return word[:-1]
    return word


def danish_stem(word: str) -> str:
    if len(word) < 3:
        return word
    r1 = _da_r1(word)

    # Step 1: longest table suffix lying inside R1, plus the conditional s.
    for sfx in _DA_STEP1_SUFFIXES:
        if word.endswith(sfx) and len(word) - len(sfx) >= r1:
            word = word[: -len(sfx)]
            break
    else:
        if (word.endswith("s") and len(word) - 1 >= r1
                and len(word) >= 2 and word[-2] in _DA_S_ENDINGS):
            word = word[:-1]

    # Step 2: trim gd/dt/gt/kt endings by one letter.
    word = _da_consonant_pair(word, r1)

    # Step 3: superlative st after ig, then derivational suffixes.
    if word.endswith("igst"):
        word = word[:-2]
    for sfx in ("elig", "løst", "lig", "els", "ig"):
        if word.endswith(sfx) and len(word) - len(sfx) >= r1:
            if sfx == "løst":
                word = word[:-1]
            else:
                word = word[: -len(sfx)]
                word = _da_consonant_pair(word, r1)
            break

    # Step 4: undouble a final consonant pair inside R1.
    if (len(word) >= 2 and word[-1] == word[-2]
            and word[-1] not in _DA_VOWELS and len(word) - 1 >= r1):
        word = word[:-1]
    return word


# ---------------------------------------------------------------------------
# English


class _EnClasses(dict):
    """Code point -> "v" for a, e, i, o and u, "c" for any other character,
    a y included; filled on first lookup, so bounded by the character
    set."""

    def __missing__(self, point: int) -> str:
        value = self[point] = "v" if chr(point) in "aeiou" else "c"
        return value


_EN_CLASSES = _EnClasses()


def _en_cv(word: str) -> str:
    """word with each letter written as v (vowel) or c (consonant): a, e, i,
    o and u are vowels, y is a vowel exactly when the letter before it is a
    consonant (toy -> consonant y, happy -> vowel y), and every other
    letter, a leading y included, is a consonant.  A letter's class depends
    only on the letters before it, so the pattern of a prefix of word is
    that prefix of word's pattern."""
    cv = word.translate(_EN_CLASSES)
    if "y" not in word:
        return cv
    letters = list(cv)
    for i in range(1, len(word)):
        if word[i] == "y" and letters[i - 1] == "c":
            letters[i] = "v"
    return "".join(letters)


def _en_cvc(stem: str, cv: str) -> bool:
    """stem, whose pattern is cv, ends consonant-vowel-consonant, its final
    consonant not w, x or y."""
    return cv.endswith("cvc") and stem[-1] not in "wxy"


# (suffix, replacement) pairs; within a step only the longest matching suffix
# is considered, and if its measure condition fails the step does nothing.
_EN_STEP2 = sorted(
    (
        ("ational", "ate"), ("tional", "tion"), ("enci", "ence"),
        ("anci", "ance"), ("izer", "ize"), ("abli", "able"), ("alli", "al"),
        ("entli", "ent"), ("eli", "e"), ("ousli", "ous"), ("ization", "ize"),
        ("ation", "ate"), ("ator", "ate"), ("alism", "al"),
        ("iveness", "ive"), ("fulness", "ful"), ("ousness", "ous"),
        ("aliti", "al"), ("iviti", "ive"), ("biliti", "ble"),
    ),
    key=lambda rule: len(rule[0]), reverse=True,
)

_EN_STEP3 = sorted(
    (
        ("icate", "ic"), ("ative", ""), ("alize", "al"), ("iciti", "ic"),
        ("ical", "ic"), ("ful", ""), ("ness", ""),
    ),
    key=lambda rule: len(rule[0]), reverse=True,
)

_EN_STEP4 = sorted(
    (
        "al", "ance", "ence", "er", "ic", "able", "ible", "ant", "ement",
        "ment", "ent", "ion", "ou", "ism", "ate", "iti", "ous", "ive", "ize",
    ),
    key=len, reverse=True,
)


def _en_table(rules, measure: int):
    """Steps 2 to 4 as lookup tables: suffix -> (replacement, its pattern)
    for (suffix, replacement) rules, the suffix lengths, longest first, and
    the measure the stem must exceed.  No replacement holds a y, so its
    pattern is the same whatever precedes it."""
    table = {sfx: (rep, _en_cv(rep)) for sfx, rep in rules}
    return table, sorted(set(map(len, table)), reverse=True), measure


_EN_TABLES = (_en_table(_EN_STEP2, 0), _en_table(_EN_STEP3, 0),
              _en_table(((sfx, "") for sfx in _EN_STEP4), 1))


def english_stem(word: str) -> str:
    if len(word) <= 2:
        return word

    # Step 1a: plurals.
    if word.endswith("sses"):
        word = word[:-2]
    elif word.endswith("ies"):
        word = word[:-2]
    elif word.endswith("ss"):
        pass
    elif word.endswith("s"):
        word = word[:-1]

    # The word's c/v pattern, kept in step with each rewrite below.  The
    # measure m of a prefix, the number of vowel-consonant alternations in
    # [C](VC)^m[V], is the count of "vc" in the prefix of the pattern.
    cv = _en_cv(word)

    # Step 1b: -eed / -ed / -ing.
    if word.endswith("eed"):
        if cv[:-3].count("vc") > 0:
            word, cv = word[:-1], cv[:-1]
    elif word.endswith(("ed", "ing")):
        cut = 2 if word.endswith("ed") else 3
        if "v" in cv[:-cut]:
            word, cv = word[:-cut], cv[:-cut]
            if word.endswith(("at", "bl", "iz")):
                word, cv = word + "e", cv + "v"
            elif word[-2:] == word[-1] * 2 and word[-1] not in "lsz" and cv[-1] == "c":
                word, cv = word[:-1], cv[:-1]
            elif cv.count("vc") == 1 and _en_cvc(word, cv):
                word, cv = word + "e", cv + "v"

    # Step 1c: terminal y -> i after a stem containing a vowel.
    if word.endswith("y") and "v" in cv[:-1]:
        word, cv = word[:-1] + "i", cv[:-1] + "v"

    # Steps 2 and 3: derivational suffix rewrites, measure > 0; step 4:
    # drop residual suffixes when measure > 1 (only step 4 has "ion").
    # The first of a step's suffix lengths whose ending is in its table
    # gives the longest rule; a word shorter than k is its own last k
    # letters, and then no longer rule can match.
    for table, lengths, measure in _EN_TABLES:
        for k in lengths:
            sfx = word[-k:]
            if sfx in table:
                keep = len(word) - len(sfx)
                if cv[:keep].count("vc") > measure and (sfx != "ion" or word[keep - 1] in "st"):
                    rep, rep_cv = table[sfx]
                    word, cv = word[:keep] + rep, cv[:keep] + rep_cv
                break

    # Step 5a: tidy a final e.
    if word.endswith("e"):
        m = cv[:-1].count("vc")
        if m > 1 or (m == 1 and not _en_cvc(word[:-1], cv[:-1])):
            word, cv = word[:-1], cv[:-1]

    # Step 5b: undouble a final ll.
    if word.endswith("ll") and cv.count("vc") > 1:
        word = word[:-1]
    return word


# ---------------------------------------------------------------------------
# Registry


def identity_stem(word: str) -> str:
    return word


_REGISTRY: dict[str, Callable[[str], str]] = {
    "danish": danish_stem,
    "english": english_stem,
    "identity": identity_stem,
}


def supported_languages() -> tuple[str, ...]:
    return tuple(sorted(_REGISTRY))


def stem(token: str, language: str) -> str:
    """Stem one token with the registered algorithm for `language`.

    Input is lowercased first; raises ValidationError for a language with no
    registered stemmer.
    """
    try:
        fn = _REGISTRY[language]
    except KeyError:
        raise ValidationError(
            f"no stemmer registered for language {language!r}; "
            f"available: {', '.join(supported_languages())}") from None
    return fn(token.lower())

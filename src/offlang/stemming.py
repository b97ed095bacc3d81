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


def _en_cv(word: str) -> str:
    """word with each letter written as v (vowel) or c (consonant): a, e, i,
    o and u are vowels, y is a vowel exactly when the letter before it is a
    consonant (toy -> consonant y, happy -> vowel y), and every other
    letter, a leading y included, is a consonant."""
    cv = []
    prev = "v"
    for ch in word:
        prev = "v" if ch in "aeiou" or (ch == "y" and prev == "c") else "c"
        cv.append(prev)
    return "".join(cv)


def _en_measure(stem: str) -> int:
    """Number of vowel-consonant alternations: [C](VC)^m[V]."""
    return _en_cv(stem).count("vc")


def _en_cvc(stem: str) -> bool:
    """Ends consonant-vowel-consonant, final consonant not w, x or y."""
    return _en_cv(stem).endswith("cvc") and stem[-1] not in "wxy"


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

    # Step 1b: -eed / -ed / -ing.
    if word.endswith("eed"):
        if _en_measure(word[:-3]) > 0:
            word = word[:-1]
    elif word.endswith(("ed", "ing")):
        stem = word[:-2] if word.endswith("ed") else word[:-3]
        if "v" in _en_cv(stem):
            word = stem
            if word.endswith(("at", "bl", "iz")):
                word += "e"
            elif (word[-2:] == word[-1] * 2 and word[-1] not in "lsz"
                  and _en_cv(word)[-1] == "c"):
                word = word[:-1]
            elif _en_measure(word) == 1 and _en_cvc(word):
                word += "e"

    # Step 1c: terminal y -> i after a stem containing a vowel.
    if word.endswith("y") and "v" in _en_cv(word[:-1]):
        word = word[:-1] + "i"

    # Steps 2 and 3: derivational suffix rewrites, measure > 0.
    for rules in (_EN_STEP2, _EN_STEP3):
        for sfx, rep in rules:
            if word.endswith(sfx):
                stem = word[: -len(sfx)]
                if _en_measure(stem) > 0:
                    word = stem + rep
                break

    # Step 4: drop residual suffixes when measure > 1.
    for sfx in _EN_STEP4:
        if word.endswith(sfx):
            stem = word[: -len(sfx)]
            if _en_measure(stem) > 1 and (sfx != "ion" or stem.endswith(("s", "t"))):
                word = stem
            break

    # Step 5a: tidy a final e.
    if word.endswith("e"):
        stem = word[:-1]
        m = _en_measure(stem)
        if m > 1 or (m == 1 and not _en_cvc(stem)):
            word = stem

    # Step 5b: undouble a final ll.
    if word.endswith("ll") and _en_measure(word) > 1:
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

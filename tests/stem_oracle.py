"""The recursive English suffix stripper used to cross-check stemming's
English stemmer.

This is the stemmer before its consonant test became one c/v letter
pattern: `_en_is_consonant` decides a y by recursing on the letter before
it, and the measure, vowel, double-consonant and cvc tests each call it
letter by letter.  The suffix tables are copied, not imported, so the
oracle does not share code with the package under test.  The recursion
takes one Python frame per y in a run, so keep inputs to a few hundred
letters.
"""


def _en_is_consonant(word: str, i: int) -> bool:
    c = word[i]
    if c in "aeiou":
        return False
    if c == "y":
        # y is a consonant at the start and after a vowel, a vowel after a
        # consonant (toy -> consonant y, happy -> vowel y).
        return True if i == 0 else not _en_is_consonant(word, i - 1)
    return True


def _en_measure(stem: str) -> int:
    """Number of vowel-consonant alternations: [C](VC)^m[V]."""
    m = 0
    i = 0
    n = len(stem)
    while i < n and _en_is_consonant(stem, i):
        i += 1
    while i < n:
        while i < n and not _en_is_consonant(stem, i):
            i += 1
        if i >= n:
            break
        m += 1
        while i < n and _en_is_consonant(stem, i):
            i += 1
    return m


def _en_has_vowel(stem: str) -> bool:
    return any(not _en_is_consonant(stem, i) for i in range(len(stem)))


def _en_double_consonant(stem: str) -> bool:
    return (len(stem) >= 2 and stem[-1] == stem[-2]
            and _en_is_consonant(stem, len(stem) - 1))


def _en_cvc(stem: str) -> bool:
    """Ends consonant-vowel-consonant, final consonant not w, x or y."""
    return (len(stem) >= 3
            and _en_is_consonant(stem, len(stem) - 3)
            and not _en_is_consonant(stem, len(stem) - 2)
            and _en_is_consonant(stem, len(stem) - 1)
            and stem[-1] not in "wxy")


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


def oracle_english_stem(word: str) -> str:
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
    else:
        trimmed = None
        if word.endswith("ed") and _en_has_vowel(word[:-2]):
            trimmed = word[:-2]
        elif word.endswith("ing") and _en_has_vowel(word[:-3]):
            trimmed = word[:-3]
        if trimmed is not None:
            word = trimmed
            if word.endswith(("at", "bl", "iz")):
                word += "e"
            elif _en_double_consonant(word) and word[-1] not in "lsz":
                word = word[:-1]
            elif _en_measure(word) == 1 and _en_cvc(word):
                word += "e"

    # Step 1c: terminal y -> i after a stem containing a vowel.
    if word.endswith("y") and _en_has_vowel(word[:-1]):
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

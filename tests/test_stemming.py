"""Stemmer reference fixtures and registry behavior.

The expected outputs below were derived by hand-executing the published
suffix-stripping algorithms step by step, including the cross-step
interactions (a step-2 rewrite often exposes a suffix that steps 4 and 5
then strip, so e.g. electriciti ends at electr, not electric).
"""

import pytest
from hypothesis import example, given, settings, strategies as st

from offlang.errors import ValidationError
from offlang.stemming import (danish_stem, english_stem, identity_stem, stem,
                              supported_languages)

from stem_oracle import _EN_STEP2, _EN_STEP3, _EN_STEP4, oracle_english_stem

# Each pair is (input, full-pipeline output).
ENGLISH_PAIRS = [
    # plural handling
    ("caresses", "caress"),
    ("ponies", "poni"),
    ("ties", "ti"),
    ("flies", "fli"),
    ("dies", "di"),
    ("caress", "caress"),
    ("cats", "cat"),
    ("abilities", "abil"),
    # -eed / -ed / -ing and the restoration fixups
    ("feed", "feed"),
    ("agreed", "agre"),
    ("plastered", "plaster"),
    ("bled", "bled"),
    ("motoring", "motor"),
    ("sing", "sing"),
    ("running", "run"),
    ("conflated", "conflat"),
    ("troubled", "troubl"),
    ("sized", "size"),
    ("hopping", "hop"),
    ("tanned", "tan"),
    ("falling", "fall"),
    ("hissing", "hiss"),
    ("fizzed", "fizz"),
    ("failing", "fail"),
    ("filing", "file"),
    ("controlling", "control"),
    # terminal y
    ("happy", "happi"),
    ("sky", "sky"),
    # double-suffix rewrites and the residues later steps strip
    ("relational", "relat"),
    ("conditional", "condit"),
    ("rational", "ration"),
    ("valenci", "valenc"),
    ("hesitanci", "hesit"),
    ("digitizer", "digit"),
    ("conformabli", "conform"),
    ("radicalli", "radic"),
    ("differentli", "differ"),
    ("vileli", "vile"),
    ("analogousli", "analog"),
    ("vietnamization", "vietnam"),
    ("predication", "predic"),
    ("operator", "oper"),
    ("feudalism", "feudal"),
    ("decisiveness", "decis"),
    ("hopefulness", "hope"),
    ("callousness", "callous"),
    ("formaliti", "formal"),
    ("sensitiviti", "sensit"),
    ("sensibiliti", "sensibl"),
    ("generalization", "gener"),
    # -icate/-ative/-alize/-iciti/-ical/-ful/-ness
    ("triplicate", "triplic"),
    ("formative", "form"),
    ("formalize", "formal"),
    ("electriciti", "electr"),
    ("electrical", "electr"),
    ("hopeful", "hope"),
    ("goodness", "good"),
    # residual suffixes, measure > 1
    ("revival", "reviv"),
    ("allowance", "allow"),
    ("inference", "infer"),
    ("airliner", "airlin"),
    ("gyroscopic", "gyroscop"),
    ("adjustable", "adjust"),
    ("defensible", "defens"),
    ("irritant", "irrit"),
    ("replacement", "replac"),
    ("adjustment", "adjust"),
    ("dependent", "depend"),
    ("adoption", "adopt"),
    ("communism", "commun"),
    ("activate", "activ"),
    ("angulariti", "angular"),
    ("homologous", "homolog"),
    ("effective", "effect"),
    ("bowdlerize", "bowdler"),
    ("argument", "argument"),
    # final-e and double-l cleanup
    ("probate", "probat"),
    ("rate", "rate"),
    ("cease", "ceas"),
    ("controll", "control"),
    ("roll", "roll"),
    ("oscillators", "oscil"),
]

DANISH_PAIRS = [
    # plain suffix table
    ("hundene", "hund"),
    ("hunden", "hund"),
    ("hunde", "hund"),
    ("hund", "hund"),
    ("huset", "hus"),
    ("husets", "hus"),
    ("huses", "hus"),
    ("husenes", "hus"),
    ("pigerne", "pig"),
    ("piges", "pig"),
    ("barnet", "barn"),
    ("tabes", "tab"),
    # suffix region is empty (first non-vowel-after-vowel is the final s)
    ("frues", "frues"),
    ("bestemmelse", "bestem"),
    ("afbrydelse", "afbryd"),
    # conditional final s: the letter before must allow deletion
    ("hunds", "hund"),
    ("status", "status"),
    ("gas", "gas"),
    ("bys", "bys"),
    # consonant-pair trimming needs the whole pair inside the suffix region
    ("friskt", "frisk"),
    ("frisk", "frisk"),
    ("hedt", "hedt"),
    # derivational endings
    ("venlig", "ven"),
    ("venligst", "ven"),
    ("billig", "bil"),
    ("venskabelig", "venskab"),
    # the -løst rewrite applies only inside the suffix region
    ("forløst", "forløs"),
    ("løst", "løst"),
    # undoubling and the 3-letter minimum region
    ("kaffe", "kaf"),
    ("ene", "ene"),
]


@pytest.mark.parametrize("word,expected", ENGLISH_PAIRS)
def test_english_reference_pairs(word, expected):
    assert english_stem(word) == expected


@pytest.mark.parametrize("word,expected", DANISH_PAIRS)
def test_danish_reference_pairs(word, expected):
    assert danish_stem(word) == expected


def test_stem_lowercases_input():
    assert stem("Running", "english") == "run"
    assert stem("HUNDENE", "danish") == "hund"
    assert stem("MiXeD", "identity") == "mixed"


def test_identity_stemmer():
    assert identity_stem("whatever") == "whatever"
    assert stem("word", "identity") == "word"


def test_unknown_language_rejected():
    with pytest.raises(ValidationError, match="swedish"):
        stem("hus", "swedish")


def test_supported_languages_baseline():
    langs = supported_languages()
    assert "danish" in langs and "english" in langs and "identity" in langs


_WORD = st.text(alphabet=st.characters(codec="utf-8",
                                       categories=("Ll", "Lu")),
                min_size=1, max_size=24)


@given(_WORD)
def test_stemming_never_grows_words(word):
    # Compare against the lowercased input: lowercasing itself can add
    # codepoints (dotted capital I), but the stemmers only ever shrink.
    for language in ("danish", "english"):
        out = stem(word, language)
        assert len(out) <= len(word.lower())
        assert out == out.lower()


@given(_WORD)
def test_stemming_handles_arbitrary_letters(word):
    # No crashes on any letter sequence, including non-Latin scripts.
    for language in supported_languages():
        stem(word, language)


# ---------------------------------------------------------------------------
# English against the recursive stemmer in stem_oracle.py


# y-heavy letters and every suffix a step tests, so words reach each rule
# with y runs before it.
_EN_PIECES = [
    *"yyyyyyaeioubcdglmnrstwxz",
    *(sfx for sfx, _ in _EN_STEP2 + _EN_STEP3), *_EN_STEP4,
    "sses", "ies", "ss", "eed", "ed", "ing", "at", "bl", "iz", "ll",
]


# At most 60 letters keeps the oracle's recursion shallow.
@settings(max_examples=2000)
@given(st.lists(st.sampled_from(_EN_PIECES), max_size=20).map(lambda p: "".join(p)[-60:]))
@example("byyed")
@example("toying")
@example("happyness")
def test_english_stem_matches_oracle(word):
    assert english_stem(word) == oracle_english_stem(word)


def test_english_stem_of_a_long_y_run_returns():
    # The consonant test once recursed once per preceding y.
    assert stem("y" * 3000 + "ing", "english") == "y" * 2999 + "i"

"""Per-character emoji scanner used to cross-check textprep's compiled
pattern.

Everything here is deliberately independent of the package under test: the
character classes are range tuples and code point sets, and the scanner
walks the text one character at a time.  A display unit is:

* a pair of regional indicators (U+1F1E6-1F1FF), taken first;
* a base character, its modifiers, and any ZWJ-joined continuation of a
  base with its modifiers;
* otherwise a run of stray modifiers and ZWJs, which has no base.

Bases are U+1F000-1FAFF, U+2600-27BF and U+2B00-2BFF; modifiers are
U+FE0E, U+FE0F, U+20E3 and the skin tones U+1F3FB-1F3FF (which also lie in
the first base range).
"""

_EMOJI_BASE_RANGES = (
    (0x1F000, 0x1FAFF),  # emoticons, transport, supplemental, extended-A
    (0x2600, 0x27BF),    # misc symbols and dingbats
    (0x2B00, 0x2BFF),    # arrows and stars commonly rendered as emoji
)
_ZWJ = "\u200d"
_EMOJI_MODIFIER_CODEPOINTS = frozenset(
    {0xFE0E, 0xFE0F, 0x200D, 0x20E3} | set(range(0x1F3FB, 0x1F400)))


def _is_emoji_base(ch: str) -> bool:
    cp = ord(ch)
    return any(lo <= cp <= hi for lo, hi in _EMOJI_BASE_RANGES)


def _is_regional(ch: str) -> bool:
    return 0x1F1E6 <= ord(ch) <= 0x1F1FF


def _is_emoji_modifier(ch: str) -> bool:
    return ord(ch) in _EMOJI_MODIFIER_CODEPOINTS


def _is_emoji_char(ch: str) -> bool:
    return _is_emoji_base(ch) or _is_emoji_modifier(ch)


def _consume_emoji_unit(text: str, i: int) -> tuple[str, bool]:
    """Consume one display unit starting at i; returns (consumed substring,
    unit contains a base character)."""
    start = i
    n = len(text)
    if _is_regional(text[i]) and i + 1 < n and _is_regional(text[i + 1]):
        return text[start:i + 2], True
    if _is_emoji_base(text[i]):
        i += 1
        while i < n and _is_emoji_modifier(text[i]) and text[i] != _ZWJ:
            i += 1
        while i < n and text[i] == _ZWJ and i + 1 < n and _is_emoji_base(text[i + 1]):
            i += 2
            while i < n and _is_emoji_modifier(text[i]) and text[i] != _ZWJ:
                i += 1
        return text[start:i], True
    while i < n and _is_emoji_modifier(text[i]):
        i += 1
    return text[start:i], False


def oracle_emoji_spans(text: str) -> list[tuple[int, int, str, bool]]:
    """All emoji display units as (start, end, unit, has_base) spans."""
    spans = []
    i = 0
    while i < len(text):
        if _is_emoji_char(text[i]):
            unit, has_base = _consume_emoji_unit(text, i)
            spans.append((i, i + len(unit), unit, has_base))
            i += len(unit)
        else:
            i += 1
    return spans

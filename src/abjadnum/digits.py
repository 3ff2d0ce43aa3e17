"""Digit glyphs of three scripts, transliteration, and letter provenance.

Western digits are the ASCII block, the Eastern "Mashreki" digits the
Arabic-Indic block U+0660..U+0669.  The original Maghrebi digits predate
both and have no Unicode codepoints, so they are written with Western
proxy glyphs; the one machine-checkable difference survives: the glyphs of
4 and 5 are swapped relative to the modern shapes (value 4 looks like a
modern "5" and vice versa).  Strings of that script only mean what they
say together with the script tag.

Each digit of each script descends from one Arabic or Hebrew letter; the
provenance table ships as a TSV next to this module (script, digit, source
alphabet, source letter name, transformation note).
"""

import os
import sys
from collections import namedtuple
from enum import Enum

from .alphabets import Alphabet, letter_by_name
from .errors import InvalidGlyph, UnsupportedBase


class DigitScript(Enum):
    WESTERN = "western"
    MASHREKI_EASTERN = "mashreki"
    ORIGINAL_MAGHREBI = "original"


_GLYPHS = {
    DigitScript.WESTERN: "0123456789",
    DigitScript.MASHREKI_EASTERN: "٠١٢٣٤٥٦٧٨٩",  # U+0660..U+0669
    DigitScript.ORIGINAL_MAGHREBI: "0123546789",  # proxy glyphs, 4/5 swapped
}
_VALUES = {
    script: {glyph: value for value, glyph in enumerate(glyphs)}
    for script, glyphs in _GLYPHS.items()
}

# Non-digit codepoints passed through untouched by transliterate().
SEPARATORS = " .,-/"

_BASE16_GLYPHS = "0123456789ABCDEF"


class DigitProvenance(namedtuple("DigitProvenance", "digit script alphabet letter note")):
    """The source letter and reshaping behind one digit glyph."""

    __slots__ = ()


def _load_provenance() -> dict[tuple[DigitScript, int], DigitProvenance]:
    path = os.path.join(os.path.dirname(__file__), "data", "digit_provenance.tsv")
    with open(path, encoding="utf-8") as tsv:
        lines = tsv.read().splitlines()
    table = {}
    for line in lines:
        script, digit, alphabet, letter_name, note = line.split("\t")
        entry = DigitProvenance(
            digit=int(digit),
            script=DigitScript(script),
            alphabet=Alphabet(alphabet),
            letter=letter_by_name(Alphabet(alphabet), letter_name),
            note=note,
        )
        table[(entry.script, entry.digit)] = entry
    return table


_PROVENANCE = _load_provenance()


def render_digits(n: int, script: DigitScript) -> str:
    """Decimal digit string of n in the script's glyphs, big-endian."""
    if isinstance(n, bool) or not isinstance(n, int):
        raise ValueError(f"n must be an int, not {type(n).__name__}")
    if n < 0:
        raise ValueError("n must be non-negative")
    try:
        decimal = str(n)
    except ValueError:  # past the interpreter's int-to-str digit limit
        raise ValueError(
            f"n has more than {sys.get_int_max_str_digits()} decimal digits, "
            "the most that can be rendered"
        ) from None
    glyphs = _GLYPHS[script]
    return "".join(glyphs[int(d)] for d in decimal)


def parse_digits(text: str, script: DigitScript) -> int:
    """Inverse of render_digits; InvalidGlyph outside the script's glyph set."""
    if not text:
        raise ValueError("empty digit string")
    values = _VALUES[script]
    n = 0
    for ch in text:
        if ch not in values:
            raise InvalidGlyph(f"{ch!r} is not a {script.value} digit")
        n = n * 10 + values[ch]
    return n


def transliterate(text: str, src: DigitScript, dst: DigitScript) -> str:
    """Map digits of `src` to the value-equal glyphs of `dst`.

    Digit count and positions are preserved; the separators " .,-/" pass
    through unchanged (dates, folio labels).
    """
    values = _VALUES[src]
    glyphs = _GLYPHS[dst]
    out = []
    for ch in text:
        if ch in SEPARATORS:
            out.append(ch)
        elif ch in values:
            out.append(glyphs[values[ch]])
        else:
            raise InvalidGlyph(f"{ch!r} is not a {src.value} digit or separator")
    return "".join(out)


def digit_provenance(digit: int, script: DigitScript) -> DigitProvenance:
    """Source letter and transformation note of one digit glyph."""
    if not 0 <= digit <= 9:
        raise ValueError("digit must be 0..9")
    return _PROVENANCE[(script, digit)]


def base_digit_set(base: int) -> list[str]:
    """The first `base` glyphs of the canonical base-16 digit list."""
    if not 2 <= base <= 16:
        raise UnsupportedBase(f"base {base} is outside 2..16")
    return list(_BASE16_GLYPHS[:base])

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

Rendering, parsing and transliteration go through ``str.translate`` tables
built at import, one per (source, target) script pair.  A text is first
checked by deleting every character its script accepts (the ten glyphs,
and for transliterate the separators): whatever is left starts with the
first invalid glyph, which the InvalidGlyph message names.

A number has at most as many digits as the interpreter converts between
int and str (4300 unless raised with ``sys.set_int_max_str_digits``): past
that limit, rendering and parsing both raise a ValueError that names it.
"""

import os
from collections import namedtuple
from enum import Enum

from .alphabets import Alphabet, letter_by_name
from .errors import InvalidGlyph, check_int, check_text, decimal, digit_limit, wrong_type


class DigitScript(Enum):
    WESTERN = "western"
    MASHREKI_EASTERN = "mashreki"
    ORIGINAL_MAGHREBI = "original"


_GLYPHS = {
    DigitScript.WESTERN: "0123456789",
    DigitScript.MASHREKI_EASTERN: "٠١٢٣٤٥٦٧٨٩",  # U+0660..U+0669
    DigitScript.ORIGINAL_MAGHREBI: "0123546789",  # proxy glyphs, 4/5 swapped
}

# Non-digit codepoints passed through untouched by transliterate().
SEPARATORS = " .,-/"

# _TRANSLATE[src][dst] maps each glyph of src to the value-equal glyph of dst.
_TRANSLATE = {
    src: {dst: str.maketrans(src_glyphs, dst_glyphs) for dst, dst_glyphs in _GLYPHS.items()}
    for src, src_glyphs in _GLYPHS.items()
}
# Deleting tables: what survives them is not a digit (or separator) of the script.
_NOT_DIGITS = {script: str.maketrans("", "", glyphs) for script, glyphs in _GLYPHS.items()}
_NOT_DIGITS_OR_SEPARATORS = {
    script: str.maketrans("", "", glyphs + SEPARATORS) for script, glyphs in _GLYPHS.items()
}

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
    check_int("n", n)
    if n < 0:
        raise ValueError("n must be non-negative")
    try:
        table = _TRANSLATE[DigitScript.WESTERN][script]
    except (KeyError, TypeError):  # TypeError: an unhashable script
        raise wrong_type("script", "a DigitScript", script) from None
    return decimal(n, "n", "rendered").translate(table)


def parse_digits(text: str, script: DigitScript) -> int:
    """Inverse of render_digits; InvalidGlyph outside the script's glyph set."""
    check_text("text", text)
    if not text:
        raise ValueError("empty digit string")
    try:
        rest = text.translate(_NOT_DIGITS[script])
    except (KeyError, TypeError):  # TypeError: an unhashable script
        raise wrong_type("script", "a DigitScript", script) from None
    if rest:
        raise InvalidGlyph(f"{rest[0]!r} is not a {script.value} digit")
    western = text.translate(_TRANSLATE[script][DigitScript.WESTERN])
    try:
        return int(western)
    except ValueError:  # past the interpreter's int-from-str digit limit
        raise digit_limit("the digit string", "read") from None


def transliterate(text: str, src: DigitScript, dst: DigitScript) -> str:
    """Map digits of `src` to the value-equal glyphs of `dst`.

    Digit count and positions are preserved; the separators " .,-/" pass
    through unchanged (dates, folio labels).
    """
    check_text("text", text)
    try:
        to_dst = _TRANSLATE[src]
    except (KeyError, TypeError):  # TypeError: an unhashable script
        raise wrong_type("src", "a DigitScript", src) from None
    try:
        table = to_dst[dst]
    except (KeyError, TypeError):
        raise wrong_type("dst", "a DigitScript", dst) from None
    rest = text.translate(_NOT_DIGITS_OR_SEPARATORS[src])
    if rest:
        raise InvalidGlyph(f"{rest[0]!r} is not a {src.value} digit or separator")
    return text.translate(table)


def digit_provenance(digit: int, script: DigitScript) -> DigitProvenance:
    """Source letter and transformation note of one digit glyph."""
    check_int("digit", digit)
    if not 0 <= digit <= 9:
        raise ValueError("digit must be 0..9")
    try:
        return _PROVENANCE[(script, digit)]
    except (KeyError, TypeError):  # TypeError: an unhashable script
        raise wrong_type("script", "a DigitScript", script) from None

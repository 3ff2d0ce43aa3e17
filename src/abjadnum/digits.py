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
alphabet, source letter name, transformation note).  It is read on the
first ``digit_provenance`` call, not at import, and each row's letter name
is looked up among the ``letters()`` of the alphabet that row names.  The
README states what threads that make that first call together get.

Rendering and transliteration go through ``str.translate`` tables built at
import: none from a script to itself, a tuple indexed by ordinal from an
ASCII script (Western, Maghrebi), a dict from Mashreki.  A tuple is read
without hashing and maps each separator to itself, where a dict raises and
clears a KeyError for it; from Mashreki it would need 1642 entries
(``BENCH_38.json`` holds the figures).

A text is first checked with ``str.lstrip`` of every character its script
accepts (the ten glyphs, and for transliterate the separators): what is
left starts with the first invalid glyph, which InvalidGlyph names.  Only
then does parsing call ``int()``: it reads Western and Arabic-Indic
digits, but other decimal digits, signs, "_" and whitespace too.  Maghrebi
proxy glyphs get 4 and 5 swapped back first.

A number has at most as many digits as the interpreter converts between
int and str (4300 unless raised with ``sys.set_int_max_str_digits``): past
that limit, rendering and parsing both raise a ValueError that names it.
"""

from enum import Enum

from .alphabets import Alphabet, _rows, letters
from .errors import InvalidGlyph, Record, check_int, check_text, digit_limit, lookup


class DigitScript(Enum):
    """The three digit scripts.

    Members are singletons and compare by identity, so an identity hash
    agrees with ``==``; it is computed in C, where ``Enum.__hash__`` is a
    Python call, and every table keyed by a script pays it per lookup.
    """

    WESTERN = "western"
    MASHREKI_EASTERN = "mashreki"
    ORIGINAL_MAGHREBI = "original"

    __hash__ = object.__hash__


_GLYPHS = {
    DigitScript.WESTERN: "0123456789",
    DigitScript.MASHREKI_EASTERN: "٠١٢٣٤٥٦٧٨٩",  # U+0660..U+0669
    DigitScript.ORIGINAL_MAGHREBI: "0123546789",  # proxy glyphs, 4/5 swapped
}

# Non-digit codepoints passed through untouched by transliterate().
SEPARATORS = " .,-/"

# Every character up to "9".  Each character an ASCII script accepts (its
# glyphs and SEPARATORS) is one of them, so this tuple with the script's
# glyphs replaced is the whole table from that script.
_IDENTITY = tuple(map(chr, range(ord("9") + 1)))


def _table(src_glyphs: str, dst_glyphs: str):
    """The str.translate table from one script's glyphs to another's."""
    if not src_glyphs.isascii():
        return str.maketrans(src_glyphs, dst_glyphs)
    table = [*_IDENTITY]
    for glyph, to in zip(src_glyphs, dst_glyphs):
        table[ord(glyph)] = to
    return tuple(table)


# _TRANSLATE[src] is (accepted, to_dst): accepted holds the glyphs of src and
# the separators, and to_dst[dst] maps each glyph of src to the value-equal
# glyph of dst, or is None when dst is src.
_TRANSLATE = {
    src: (
        src_glyphs + SEPARATORS,
        {dst: None if dst is src else _table(src_glyphs, dst_glyphs)
         for dst, dst_glyphs in _GLYPHS.items()},
    )
    for src, src_glyphs in _GLYPHS.items()
}
_RENDER = _TRANSLATE[DigitScript.WESTERN][1]  # render_digits' tables, from Western
_SWAP_4_5 = bytes.maketrans(b"45", b"54")  # Maghrebi proxy glyphs to Western


class DigitProvenance(Record):
    """The source letter and reshaping behind one digit glyph."""

    __slots__ = ()

    def __new__(cls, digit, script, alphabet, letter, note):
        return tuple.__new__(cls, (digit, script, alphabet, letter, note))


def _read_provenance() -> dict[DigitScript, dict[int, DigitProvenance]]:
    """Script -> digit -> provenance, as the TSV lists them."""
    by_name = {(a.value, letter.name): letter for a in Alphabet for letter in letters(a)}
    table = {}
    for name, digit, alphabet, letter_name, note in _rows("digit_provenance"):
        entry = DigitProvenance(
            digit=int(digit),
            script=DigitScript(name),
            alphabet=Alphabet(alphabet),
            letter=by_name[alphabet, letter_name],
            note=note,
        )
        table.setdefault(entry.script, {})[entry.digit] = entry
    return table


# Script -> digit -> provenance; empty until the first digit_provenance call.
_PROVENANCE: dict[DigitScript, dict[int, DigitProvenance]] = {}


def render_digits(n: int, script: DigitScript) -> str:
    """Decimal digit string of n in the script's glyphs, big-endian."""
    n = n if type(n) is int else check_int("n", n)
    if n < 0:
        raise ValueError("n must be non-negative")
    table = (_RENDER[script] if type(script) is DigitScript
             else lookup(_RENDER, script, "script", "a DigitScript"))
    try:
        text = repr(n)  # n is an exact int by now
    except ValueError:  # past the interpreter's int-to-str digit limit
        raise digit_limit("n", "rendered") from None
    return text if table is None else text.translate(table)


def parse_digits(text: str, script: DigitScript) -> int:
    """Inverse of render_digits; InvalidGlyph outside the script's glyph set."""
    text = text if type(text) is str else check_text("text", text)
    if not text:
        raise ValueError("empty digit string")
    rest = text.lstrip(_GLYPHS[script] if type(script) is DigitScript
                       else lookup(_GLYPHS, script, "script", "a DigitScript"))
    if rest:
        raise InvalidGlyph(f"{rest[0]!r} is not a {script.value} digit")
    if script is DigitScript.ORIGINAL_MAGHREBI:
        text = text.encode().translate(_SWAP_4_5)  # int() reads ASCII bytes too
    try:
        return int(text)
    except ValueError:  # past the interpreter's int-from-str digit limit
        raise digit_limit("the digit string", "read") from None


def transliterate(text: str, src: DigitScript, dst: DigitScript) -> str:
    """Map digits of `src` to the value-equal glyphs of `dst`.

    Digit count and positions are preserved; the separators " .,-/" pass
    through unchanged (dates, folio labels).
    """
    text = text if type(text) is str else check_text("text", text)
    accepted, to_dst = (_TRANSLATE[src] if type(src) is DigitScript
                        else lookup(_TRANSLATE, src, "src", "a DigitScript"))
    table = (to_dst[dst] if type(dst) is DigitScript
             else lookup(to_dst, dst, "dst", "a DigitScript"))
    rest = text.lstrip(accepted)
    if rest:
        raise InvalidGlyph(f"{rest[0]!r} is not a {src.value} digit or separator")
    return text if table is None else text.translate(table)


def digit_provenance(digit: int, script: DigitScript) -> DigitProvenance:
    """Source letter and transformation note of one digit glyph."""
    digit = digit if type(digit) is int else check_int("digit", digit)
    if not 0 <= digit <= 9:
        raise ValueError("digit must be 0..9")
    if not _PROVENANCE:
        # One update publishes the whole table: a concurrent first call finds
        # it empty, and reads the TSV too, or full, never half filled.
        _PROVENANCE.update(_read_provenance())
    return (_PROVENANCE[script] if type(script) is DigitScript
            else lookup(_PROVENANCE, script, "script", "a DigitScript"))[digit]

"""Arabic and Hebrew letter tables in letter-value ("Abjadi") order.

The 28 Arabic letters carry the values {1..9, 10..90, 100..900, 1000}; the
22 Hebrew letters stop at 400.  Both tables ship as TSV files next to this
module (one line per letter: order, primary codepoint, comma-separated
variant codepoints, name, value) and are loaded once at import; everything
here is immutable afterwards.
"""

import os
from collections import namedtuple
from enum import Enum

from .errors import NotAnAbjadiValue, OutOfAlphabetRange, UnknownLetter, check_text, int_text
from .errors import wrong_type

# The 28 letter values: units, tens, hundreds, then 1000.
ABJADI_SEQUENCE = tuple(
    list(range(1, 10)) + list(range(10, 100, 10)) + list(range(100, 1000, 100)) + [1000]
)


class Alphabet(Enum):
    ARABIC = "arabic"
    HEBREW = "hebrew"


class Letter(namedtuple("Letter", "codepoint variants name value order alphabet")):
    """One letter with its value and place in the letter-value order."""

    __slots__ = ()

    @property
    def codepoints(self) -> tuple[str, ...]:
        """Primary codepoint followed by all variant forms."""
        return (self.codepoint, *self.variants)


def _load(alphabet: Alphabet) -> tuple[Letter, ...]:
    path = os.path.join(os.path.dirname(__file__), "data", f"{alphabet.value}.tsv")
    with open(path, encoding="utf-8") as tsv:
        lines = tsv.read().splitlines()
    letters = []
    for line in lines:
        order, primary, variants, name, value = line.split("\t")
        letters.append(
            Letter(
                codepoint=primary,
                variants=tuple(v for v in variants.split(",") if v),
                name=name,
                value=int(value),
                order=int(order),
                alphabet=alphabet,
            )
        )
    letters.sort(key=lambda letter: letter.order)
    return tuple(letters)


_LETTERS = {alphabet: _load(alphabet) for alphabet in Alphabet}
_BY_VALUE = {
    alphabet: {letter.value: letter for letter in table}
    for alphabet, table in _LETTERS.items()
}
_BY_NAME = {
    alphabet: {letter.name: letter for letter in table}
    for alphabet, table in _LETTERS.items()
}
# Variant forms resolve to the same letter as the primary codepoint.
_BY_CODEPOINT: dict[str, Letter] = {}
for _table in _LETTERS.values():
    for _letter in _table:
        for _cp in _letter.codepoints:
            assert _cp not in _BY_CODEPOINT, _cp
            _BY_CODEPOINT[_cp] = _letter


def _of(tables: dict, alphabet: Alphabet):
    """tables[alphabet], or a ValueError if `alphabet` is not an Alphabet."""
    try:
        return tables[alphabet]
    except (KeyError, TypeError):  # TypeError: an unhashable alphabet
        raise wrong_type("alphabet", "an Alphabet", alphabet) from None


def letters(alphabet: Alphabet) -> tuple[Letter, ...]:
    """All letters of one alphabet in letter-value order."""
    return _of(_LETTERS, alphabet)


def max_letter_value(alphabet: Alphabet) -> int:
    return letters(alphabet)[-1].value


def letter_by_value(alphabet: Alphabet, value: int) -> Letter:
    """The unique letter of `alphabet` carrying `value`.

    Raises NotAnAbjadiValue if no letter of any alphabet carries it, and
    OutOfAlphabetRange if the value exists but is past this alphabet's last
    letter (Hebrew stops at 400).
    """
    by_value = _of(_BY_VALUE, alphabet)
    # Checked first because True and 1.0 hash like 1 and would find Alif.
    if isinstance(value, int) and not isinstance(value, bool):
        if value in by_value:
            return by_value[value]
        if value in ABJADI_SEQUENCE:
            raise OutOfAlphabetRange(
                f"{value} exceeds the last {alphabet.value} letter value "
                f"({max_letter_value(alphabet)})"
            )
    raise NotAnAbjadiValue(f"{int_text(value)} is not a letter value")


def letter_by_name(alphabet: Alphabet, name: str) -> Letter:
    """The letter of `alphabet` called `name` (as in the TSV tables)."""
    by_name = _of(_BY_NAME, alphabet)
    try:
        return by_name[name]
    except (KeyError, TypeError):  # TypeError: an unhashable name
        shown = repr(name) if isinstance(name, str) else int_text(name)
        raise UnknownLetter(f"{shown} is not the name of a {alphabet.value} letter") from None


def letter_for_codepoint(codepoint: str) -> Letter:
    """Resolve a primary or variant codepoint to its letter."""
    try:
        return _BY_CODEPOINT[codepoint]
    except (KeyError, TypeError):  # TypeError: an unhashable codepoint
        check_text("codepoint", codepoint)
        raise UnknownLetter(f"{codepoint!r} is not a letter of either alphabet") from None

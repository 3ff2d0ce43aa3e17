"""Arabic and Hebrew letter tables in letter-value ("Abjadi") order.

The 28 Arabic letters carry the values {1..9, 10..90, 100..900, 1000}; the
22 Hebrew letters stop at 400.  Both tables ship as TSV files next to this
module (one line per letter: order, primary codepoint, comma-separated
variant codepoints, name, value) and are loaded once at import, in file
order: the rows must already be in letter-value order.  Everything here is
immutable afterwards.
"""

import os
from enum import Enum

from .errors import NotAnAbjadiValue, OutOfAlphabetRange, UnknownLetter, check_int, check_text
from .errors import Record, int_text, lookup

# The 28 letter values: units, tens, hundreds, then 1000.
ABJADI_SEQUENCE = tuple(
    list(range(1, 10)) + list(range(10, 100, 10)) + list(range(100, 1000, 100)) + [1000]
)


class Alphabet(Enum):
    """The two alphabets whose letters carry the values.

    Members are singletons and compare by identity, so an identity hash
    agrees with ``==``; it is computed in C, where ``Enum.__hash__`` is a
    Python call, and every table keyed by an alphabet pays it per lookup.
    """

    ARABIC = "arabic"
    HEBREW = "hebrew"

    __hash__ = object.__hash__


class Letter(Record):
    """One letter with its value and place in the letter-value order."""

    __slots__ = ()

    def __new__(cls, codepoint, variants, name, value, order, alphabet):
        return tuple.__new__(cls, (codepoint, variants, name, value, order, alphabet))

    @property
    def codepoints(self) -> tuple[str, ...]:
        """Primary codepoint followed by all variant forms."""
        return (self.codepoint, *self.variants)


def _rows(name: str) -> list[list[str]]:
    """The tab-separated fields of each line of data/<name>.tsv."""
    path = os.path.join(os.path.dirname(__file__), "data", f"{name}.tsv")
    with open(path, encoding="utf-8") as tsv:
        return [line.split("\t") for line in tsv.read().splitlines()]


def _load(alphabet: Alphabet) -> tuple[Letter, ...]:
    return tuple(
        Letter(
            codepoint=primary,
            variants=tuple(v for v in variants.split(",") if v),
            name=name,
            value=int(value),
            order=int(order),
            alphabet=alphabet,
        )
        for order, primary, variants, name, value in _rows(alphabet.value)
    )


_LETTERS = {alphabet: _load(alphabet) for alphabet in Alphabet}
_BY_VALUE = {
    alphabet: {letter.value: letter for letter in table}
    for alphabet, table in _LETTERS.items()
}
# Variant forms resolve to the same letter as the primary codepoint.
_BY_CODEPOINT: dict[str, Letter] = {}
for _table in _LETTERS.values():
    for _letter in _table:
        for _cp in _letter.codepoints:
            assert _cp not in _BY_CODEPOINT, _cp
            _BY_CODEPOINT[_cp] = _letter


def letters(alphabet: Alphabet) -> tuple[Letter, ...]:
    """All letters of one alphabet in letter-value order."""
    return lookup(_LETTERS, alphabet, "alphabet", "an Alphabet")


def letter_by_value(alphabet: Alphabet, value: int) -> Letter:
    """The unique letter of `alphabet` carrying `value`.

    Raises NotAnAbjadiValue if no letter of any alphabet carries it, and
    OutOfAlphabetRange if the value exists but is past this alphabet's last
    letter (Hebrew stops at 400).
    """
    by_value = lookup(_BY_VALUE, alphabet, "alphabet", "an Alphabet")
    try:
        # Read first, as an exact int: True and 1.0 hash like 1 and would find Alif.
        value = check_int("value", value)
    except ValueError:
        raise NotAnAbjadiValue(f"{int_text(value)} is not a letter value") from None
    if value in by_value:
        return by_value[value]
    if value in ABJADI_SEQUENCE:
        raise OutOfAlphabetRange(
            f"{value} exceeds the last {alphabet.value} letter value "
            f"({_LETTERS[alphabet][-1].value})"
        )
    raise NotAnAbjadiValue(f"{int_text(value)} is not a letter value")


def letter_for_codepoint(codepoint: str) -> Letter:
    """Resolve a primary or variant codepoint to its letter."""
    codepoint = check_text("codepoint", codepoint)
    try:
        return _BY_CODEPOINT[codepoint]
    except KeyError:
        raise UnknownLetter(f"{codepoint!r} is not a letter of either alphabet") from None

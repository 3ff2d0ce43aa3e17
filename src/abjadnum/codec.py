"""Encode integers as letter-words, decode letter-words, sum up phrases.

A canonical numeral word takes at most one letter from each rank band
(units 1..9, tens 10..90, hundreds 100..900, thousands 1000) and stores
them in ascending value order, so the units letter comes first in memory
and shows rightmost in right-to-left script.  "همرغ" is 5+40+200+1000 =
1245.  Arabic covers 1..1999, Hebrew 1..499; larger numbers have no single
agreed word form and are rejected.

Decoding and gematria count letters only.  A character is skipped when it
is whitespace, the tatweel (U+0640, elongation), a combining mark
(``unicodedata.combining`` nonzero: harakat, shadda, niqqud, any combining
diacritic) or, in gematria, listed in ``ignore``.  Every other character
must be a primary or variant codepoint of the chosen alphabet, else
UnknownLetter: "not a letter of either alphabet" when no alphabet has it,
"not a <alphabet> letter" when only the other one does.  Zero-width
joiners and other format characters are not skipped.

Each alphabet has one table, built at import from its letter codepoints.
A character the table lacks goes through the table's ``__missing__``,
the one place the rule above is applied: a skipped character is stored
as 0, so each is classified once, and anything else raises UnknownLetter
and is never stored.  In gematria a per-call copy of the table holds the
``ignore`` characters as 0, so they override letters and never reach the
shared table.
"""

import unicodedata
from collections import namedtuple

from .alphabets import (
    ABJADI_SEQUENCE,
    Alphabet,
    letter_by_value,
    letter_for_codepoint,
    letters,
)
from .errors import NonCanonical, OutOfRange, UnknownLetter, ZeroUnencodable
from .errors import check_int, check_text, int_text, wrong_type

MAX_ENCODABLE = {Alphabet.ARABIC: 1999, Alphabet.HEBREW: 499}

# Tatweel, the Arabic elongation mark; carries no value, appears freely.
_TATWEEL = "ـ"

# Rank band of each letter value: 0 units, 1 tens, 2 hundreds, 3 thousands.
_BAND = {value: len(str(value)) - 1 for value in ABJADI_SEQUENCE}


class AbjadNumeral(namedtuple("AbjadNumeral", "alphabet letters value")):
    """A canonical letter-word denoting `value` in one alphabet."""

    __slots__ = ()

    @property
    def text(self) -> str:
        return "".join([letter.codepoint for letter in self.letters])

    def __str__(self) -> str:
        return self.text


# per_word holds one (token, value) pair per whitespace-separated token.
GematriaResult = namedtuple("GematriaResult", "total per_word")

# _RANK_LETTERS[alphabet][r][d] is () for d == 0, else a one-tuple of the
# letter of value d * 10**r; digits past MAX_ENCODABLE have no entry.
_RANK_LETTERS = {
    alphabet: tuple(
        ((),)
        + tuple(
            (letter_by_value(alphabet, digit * scale),)
            for digit in range(1, 10)
            if digit * scale <= limit
        )
        for scale in (1, 10, 100, 1000)
    )
    for alphabet, limit in MAX_ENCODABLE.items()
}


def encode(n: int, alphabet: Alphabet) -> AbjadNumeral:
    """Encode 1 <= n <= 1999 (Arabic) or 1 <= n <= 499 (Hebrew) as a word.

    Each nonzero decimal rank contributes its letter: units digit d the
    letter of value d, tens digit t the letter of value 10t, hundreds digit
    h the letter of value 100h, and for Arabic a thousands part the letter
    of value 1000.  Letters come out in ascending value order.
    """
    check_int("n", n)
    if n == 0:
        raise ZeroUnencodable("zero is not a letter value and has no word form")
    try:
        limit = MAX_ENCODABLE[alphabet]
    except (KeyError, TypeError):  # TypeError: an unhashable alphabet
        raise wrong_type("alphabet", "an Alphabet", alphabet) from None
    if not 1 <= n <= limit:
        raise OutOfRange(f"{int_text(n)} is outside 1..{limit} for {alphabet.value}")
    units, tens, hundreds, thousands = _RANK_LETTERS[alphabet]
    picked = units[n % 10] + tens[n // 10 % 10] + hundreds[n // 100 % 10] + thousands[n // 1000]
    return tuple.__new__(AbjadNumeral, (alphabet, picked, n))


class _Values(dict):
    """Codepoint -> value of one alphabet; a miss applies the skip rule."""

    __slots__ = ("alphabet",)

    def __init__(self, alphabet: Alphabet, values: dict[str, int]):
        super().__init__(values)
        self.alphabet = alphabet

    def __missing__(self, ch: str) -> int:
        if ch.isspace() or ch == _TATWEEL or unicodedata.combining(ch):
            self[ch] = 0
            return 0
        letter_for_codepoint(ch)  # raises unless the other alphabet has it
        raise UnknownLetter(f"{ch!r} is not a {self.alphabet.value} letter")


_VALUES = {
    alphabet: _Values(
        alphabet, {cp: letter.value for letter in letters(alphabet) for cp in letter.codepoints}
    )
    for alphabet in Alphabet
}


def decode(word: str, alphabet: Alphabet, strict: bool = False) -> int:
    """Sum the letter values of `word` (diacritics and elongation ignored).

    Lax mode accepts the letters in any order and any multiplicity.  Strict
    mode additionally requires a canonical numeral: strictly ascending
    values, at most one letter per rank band.
    """
    check_text("word", word)
    try:
        table = _VALUES[alphabet]
    except (KeyError, TypeError):  # TypeError: an unhashable alphabet
        raise wrong_type("alphabet", "an Alphabet", alphabet) from None
    values = list(filter(None, map(table.__getitem__, word)))
    if not values:
        raise ValueError("empty word")
    # Strictly ascending bands means ascending values, one letter per band.
    if strict and not all(_BAND[a] < _BAND[b] for a, b in zip(values, values[1:])):
        raise NonCanonical(
            f"{word!r} is not a canonical numeral "
            "(ascending values, one letter per rank)"
        )
    return sum(values)


def gematria(phrase: str, alphabet: Alphabet, ignore: str = "") -> GematriaResult:
    """Per-word letter-value sums and the grand total of a phrase.

    Splits on whitespace; diacritics and the elongation mark never count.
    Codepoints listed in `ignore` (punctuation, typically) are skipped;
    anything else unmapped raises UnknownLetter.
    """
    check_text("phrase", phrase)
    try:
        table = _VALUES[alphabet]
    except (KeyError, TypeError):  # TypeError: an unhashable alphabet
        raise wrong_type("alphabet", "an Alphabet", alphabet) from None
    if ignore != "":  # not `if ignore`: a falsy non-str such as 0 is rejected too
        check_text("ignore", ignore)
        table = _Values(alphabet, table)
        table.update(dict.fromkeys(ignore, 0))
    value_of = table.__getitem__
    per_word = tuple([(token, sum(map(value_of, token))) for token in phrase.split()])
    return GematriaResult(total=sum([value for _, value in per_word]), per_word=per_word)

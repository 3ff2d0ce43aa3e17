"""Encode integers as letter-words, decode letter-words, sum up phrases.

A canonical numeral word takes at most one letter from each rank band
(units 1..9, tens 10..90, hundreds 100..900, thousands 1000) and stores
them in ascending value order, so the units letter comes first in memory
and shows rightmost in right-to-left script.  "همرغ" is 5+40+200+1000 =
1245.  Arabic covers 1..1999, Hebrew 1..499; larger numbers have no single
agreed word form and are rejected.  Any n <= 1999 is n % 100 plus n // 100
hundreds, so its letter values, units first, are two entries of one split
built at import: those of n % 100 (0..99) followed by those of
100 * (n // 100) (0..1900).  Encode maps each value to its letter, and
strict decoding compares a word's values with the two entries for its
total: each letter value is d * 10**r with d <= 9, so one letter per band
adds without carries, and a word is canonical exactly when its total is at
most 1999 and its values are those entries.

Each n has one canonical word, so encode hands out one shared AbjadNumeral
per alphabet and value, from a table per alphabet that fills an entry on
first use.  A miss maps the two entries of the split to their letters and
stores the record with setdefault, so two threads that miss together share
one record; a value outside the range raises and stores nothing.  The text
is kept in a dict keyed by id() of the stored record's letters, and the
miss has ``text`` join it, as for any record.  The tables are never
emptied, so each such id names a live tuple, and text, a pure function of
the immutable letters, is joined once per value; a record whose letters are
any other object (built by hand or unpickled) joins them on each read.  The
tables hold at most 1999 + 499 records, bounded by the values, not by the
inputs.  A warm ``encode(n, alphabet).text`` looks up the stored record
and its text, where it would otherwise build the record and join its text
on every call.  CHANGES.md records what that saves, in the entry that made
encode share its records, and what the filled tables hold, in the entry
that built encode from strict decode's band split.

Decoding and gematria count letters only.  A character is skipped when it
is whitespace, the tatweel (U+0640, elongation), a combining mark
(``unicodedata.combining`` nonzero: harakat, shadda, niqqud, any combining
diacritic) or, in gematria, listed in ``ignore``.  Every other character
must be a primary or variant codepoint of the chosen alphabet, else
UnknownLetter: "not a letter of either alphabet" when no alphabet has it,
"not a <alphabet> letter" when only the other one does.  Zero-width
joiners and other format characters are not skipped.

Each alphabet has a value table and a word memo.  The value table, built
at import from the letter codepoints, maps a character to its value.  A
character it lacks goes through its ``__missing__``, the one place the
rule above is applied: a skipped character is stored as 0, so each is
classified once, and anything else raises UnknownLetter and is never
stored.  The rule answers whitespace and ``_MARKS``, the tatweel and the
103 combining marks of U+0590-06FF written out as codepoint ranges, without
``unicodedata``; the Unicode Stability Policy keeps the ranges valid, since
an assigned character's canonical combining class never changes.  It
imports ``unicodedata`` for any other character, so a text of letters,
whitespace and the marks of the two scripts never loads it.  In a fresh
process that import costs more than building ``_MARKS`` at import does;
CHANGES.md records both, in the entry that wrote out the ranges.

The word memo maps a gematria token to its finished ``per_word`` entry,
the pair ``(token, value)``, whose first field is the key itself.  A word
that repeats in a text is summed once, and each repeat costs one dict
lookup and allocates nothing.  A miss sums the token through the value
table, and a token that raises is never stored.

An ``ignore`` set is summed through a memo of its own, over a copy of the
value table in which each of its characters, a letter too, counts 0.  Each
alphabet keeps one such memo, for the last nonempty set gematria was
called with; a call with another set replaces it.  The tokens keep their
places (one made only of ignored characters counts 0), and neither shared
table ever holds an ignored character.  ``ignore``, like every ``str``
argument, is read as the ``errors`` module docstring says.

Each memo is emptied by a miss that finds it holding 2**14 words, and a
token longer than 64 codepoints is summed but not stored.  The bound is a
length check, a clear and a store, not a lock: threads that miss together
can each store one word past it, and the next miss empties the memo.  At
that bound an alphabet's two memos hold at most about 13 MiB, with every
token at 64 codepoints stored four bytes a codepoint.  Both bounds are
chosen, not tuned.  A word met both with and without an ignore set is
summed once in each memo, and a caller that alternates two ignore sets
pays for a new memo and table copy on every call.  CHANGES.md records what
a full memo holds and what the memos cost, against pairing bare values
with their tokens on every call, in the entry that made gematria hand out
memoised pairs.  The README states what threads that make a first call
together get from these tables.
"""

from operator import itemgetter

from . import alphabets
from .alphabets import Alphabet, letter_for_codepoint, letters
from .errors import NonCanonical, OutOfRange, Record, UnknownLetter, ZeroUnencodable
from .errors import check_int, check_text, int_text, lookup

MAX_ENCODABLE = {Alphabet.ARABIC: 1999, Alphabet.HEBREW: 499}

# Tatweel, the Arabic elongation mark; carries no value, appears freely.
_TATWEEL = "ـ"

# The tatweel and every combining mark of U+0590-06FF, written out so that the
# skip rule answers them without unicodedata (the module docstring says why
# the ranges hold).
_MARKS = frozenset([_TATWEEL, *(chr(cp) for first, last in (
    (0x0591, 0x05BD), (0x05BF, 0x05BF), (0x05C1, 0x05C2), (0x05C4, 0x05C5), (0x05C7, 0x05C7),
    (0x0610, 0x061A), (0x064B, 0x065F), (0x0670, 0x0670), (0x06D6, 0x06DC), (0x06DF, 0x06E4),
    (0x06E7, 0x06E8), (0x06EA, 0x06ED),
) for cp in range(first, last + 1))])


class AbjadNumeral(Record):
    """A canonical letter-word denoting `value` in one alphabet."""

    __slots__ = ()

    def __new__(cls, alphabet, letters, value):
        return tuple.__new__(cls, (alphabet, letters, value))

    @property
    def text(self) -> str:
        letters = self.letters
        try:
            return _TEXTS[id(letters)]  # the letters of a record encode handed out
        except KeyError:
            pass
        # A loop: a comprehension is a frame of its own before CPython 3.12,
        # and map over an attrgetter is slower than either from 3.12 on.
        parts = []
        for letter in letters:
            parts.append(letter.codepoint)
        return "".join(parts)

    def __str__(self) -> str:
        return self.text


class GematriaResult(Record):
    """The `total` value of a phrase; `per_word` holds one (token, value) pair
    per whitespace-separated token."""

    __slots__ = ()

    def __new__(cls, total, per_word):
        return tuple.__new__(cls, (total, per_word))


def _two_digit():
    """(low, high): low[k] lists the letter values of k's parts, units first,
    for k in 0..99, and high[k] those of 100 * k, for k in 0..19."""
    units, tens, hundreds = (
        [[]] + [[digit * scale] for digit in range(1, 10)] for scale in (1, 10, 100)
    )
    return ([units[k % 10] + tens[k // 10] for k in range(100)],
            [hundreds[k % 10] + [1000] * (k // 10) for k in range(20)])


# The one band split, for encode and for strict decoding in either alphabet.
_PARTS = _two_digit()

_new = tuple.__new__  # positional record construction, as Record._make


class _Numerals(dict):
    """n -> the shared AbjadNumeral of n in one alphabet; a miss builds and stores it.

    `letter_of` maps a letter value to its letter.  A miss outside 1..limit
    raises OutOfRange and stores nothing.
    """

    __slots__ = ("alphabet", "limit", "letter_of")

    def __init__(self, alphabet: Alphabet, limit: int) -> None:
        self.alphabet, self.limit = alphabet, limit
        self.letter_of = alphabets._BY_VALUE[alphabet].__getitem__

    def __missing__(self, n: int) -> AbjadNumeral:
        if not 1 <= n <= self.limit:
            raise OutOfRange(f"{int_text(n)} is outside 1..{self.limit} for {self.alphabet.value}")
        low, high = _PARTS
        word = tuple(map(self.letter_of, low[n % 100] + high[n // 100]))
        # setdefault: two threads that miss together still share one record,
        # and only the letters of the record stored have their text kept.
        numeral = self.setdefault(n, _new(AbjadNumeral, (self.alphabet, word, n)))
        _TEXTS[id(numeral.letters)] = numeral.text  # joined by text while _TEXTS has no entry
        return numeral


# id of the letters of each record a _Numerals table holds -> their text.  The
# tables are never emptied, so each id names a live tuple for the life of the
# process, and a text is a pure function of its immutable letters.
_TEXTS = {}

_NUMERALS = {alphabet: _Numerals(alphabet, limit) for alphabet, limit in MAX_ENCODABLE.items()}


def encode(n: int, alphabet: Alphabet) -> AbjadNumeral:
    """Encode 1 <= n <= 1999 (Arabic) or 1 <= n <= 499 (Hebrew) as a word.

    Each nonzero decimal rank contributes its letter: units digit d the
    letter of value d, tens digit t the letter of value 10t, hundreds digit
    h the letter of value 100h, and for Arabic a thousands part the letter
    of value 1000.  Letters come out in ascending value order.
    """
    n = n if type(n) is int else check_int("n", n)
    if n == 0:
        raise ZeroUnencodable("zero is not a letter value and has no word form")
    numerals = (_NUMERALS[alphabet] if type(alphabet) is Alphabet
                else lookup(_NUMERALS, alphabet, "alphabet", "an Alphabet"))
    return numerals[n]  # a miss outside 1..limit raises OutOfRange


class _Values(dict):
    """Codepoint -> value of one alphabet; a miss applies the skip rule."""

    __slots__ = ("alphabet",)

    def __init__(self, alphabet: Alphabet, values: dict[str, int]):
        super().__init__(values)
        self.alphabet = alphabet

    def __missing__(self, ch: str) -> int:
        if not (ch.isspace() or ch in _MARKS):
            import unicodedata  # loaded here, past the marks of the two scripts, not at import

            if not unicodedata.combining(ch):
                letter_for_codepoint(ch)  # raises unless the other alphabet has it
                raise UnknownLetter(f"{ch!r} is not a {self.alphabet.value} letter")
        self[ch] = 0
        return 0


_VALUES = {
    alphabet: _Values(
        alphabet, {cp: letter.value for letter in letters(alphabet) for cp in letter.codepoints}
    )
    for alphabet in Alphabet
}


# Bounds of each word memo: it is emptied on reaching _MEMO_ENTRIES words,
# and a token longer than _MEMO_TOKEN_LEN codepoints is summed, not stored.
_MEMO_ENTRIES = 2**14
_MEMO_TOKEN_LEN = 64


class _Words(dict):
    """Token -> (token, summed value) in one alphabet; a miss sums the token's letters.

    `ignore` is the set of characters the value table counts 0 beyond the
    skip rule: "" for the plain memo.
    """

    __slots__ = ("value_of", "ignore")

    def __init__(self, values: _Values, ignore: str = ""):
        super().__init__()
        self.value_of = values.__getitem__
        self.ignore = ignore

    def __missing__(self, token: str) -> tuple[str, int]:
        entry = token, sum(map(self.value_of, token))  # UnknownLetter: nothing is stored
        if len(token) <= _MEMO_TOKEN_LEN:
            if len(self) >= _MEMO_ENTRIES:
                self.clear()
            self[token] = entry
        return entry


_WORDS = {alphabet: _Words(values) for alphabet, values in _VALUES.items()}

# _IGNORING[alphabet] is the memo of the last nonempty ignore set gematria
# was called with in that alphabet.  It starts as the plain memo, whose
# ignore "" no call with a set matches.
_IGNORING = dict(_WORDS)

_VALUE = itemgetter(1)  # the value of a memo entry

# CPython keeps one empty str, so the default and every "" a caller passes
# take gematria's fast path with one identity check.  Any other value, an
# empty str subclass included, is read as every str argument is.
_NO_IGNORE = ""


def decode(word: str, alphabet: Alphabet, strict: bool = False) -> int:
    """Sum the letter values of `word`, skipping what the module docstring's skip rule names.

    Lax mode accepts the letters in any order and any multiplicity.  Strict
    mode additionally requires a canonical numeral: strictly ascending
    values, at most one letter per rank band.
    """
    word = word if type(word) is str else check_text("word", word)
    table = (_VALUES[alphabet] if type(alphabet) is Alphabet
             else lookup(_VALUES, alphabet, "alphabet", "an Alphabet"))
    if not strict:
        total = sum(map(table.__getitem__, word))
        if not total:  # every letter is worth at least 1, a skipped character 0
            raise ValueError("empty word")
        return total
    values = list(filter(None, map(table.__getitem__, word)))
    if not values:
        raise ValueError("empty word")
    total = sum(values)
    low, high = _PARTS  # the module docstring says why this is the band rule
    if total > 1999 or values != low[total % 100] + high[total // 100]:
        raise NonCanonical(
            f"{word!r} is not a canonical numeral "
            "(ascending values, one letter per rank)"
        )
    return total


def gematria(phrase: str, alphabet: Alphabet, ignore: str = "") -> GematriaResult:
    """Per-word letter-value sums and the grand total of a phrase.

    Splits on whitespace; diacritics and the elongation mark never count.
    Codepoints listed in `ignore` (punctuation, typically) are skipped;
    anything else unmapped raises UnknownLetter.
    """
    phrase = phrase if type(phrase) is str else check_text("phrase", phrase)
    words = (_WORDS[alphabet] if type(alphabet) is Alphabet
             else lookup(_WORDS, alphabet, "alphabet", "an Alphabet"))
    if ignore is not _NO_IGNORE:
        ignore = ignore if type(ignore) is str else check_text("ignore", ignore)
        if ignore:
            words = _IGNORING[alphabet]
            if words.ignore != ignore:
                values = {**_VALUES[alphabet], **dict.fromkeys(ignore, 0)}
                words = _IGNORING[alphabet] = _Words(_Values(alphabet, values), ignore)
    per_word = tuple(map(words.__getitem__, phrase.split()))
    return tuple.__new__(GematriaResult, (sum(map(_VALUE, per_word)), per_word))

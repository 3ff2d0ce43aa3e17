"""Historical Arabic/Hebrew numeral systems as a library.

Covers the letter-value ("Abjadi") tables of both alphabets, encoding and
decoding of numbers as letter-words, phrase gematria, the three digit
scripts (Western, Eastern "Mashreki", original Maghrebi) with per-digit
letter provenance and transliteration, grouped right-to-left/left-to-right
number readings, and year-level Hijri/Gregorian conversion.
"""

from .alphabets import (
    ABJADI_SEQUENCE,
    Alphabet,
    Letter,
    letter_by_value,
    letter_for_codepoint,
    letters,
    max_letter_value,
)
from .chronology import gregorian_to_hijri_year, hijri_to_gregorian_year
from .codec import MAX_ENCODABLE, AbjadNumeral, GematriaResult, decode, encode, gematria
from .digits import (
    SEPARATORS,
    DigitProvenance,
    DigitScript,
    digit_provenance,
    parse_digits,
    render_digits,
    transliterate,
)
from .errors import (
    InsufficientLabels,
    InvalidGlyph,
    NonCanonical,
    NotAnAbjadiValue,
    NumeralError,
    OutOfAlphabetRange,
    OutOfRange,
    PreEpoch,
    UnknownLetter,
    ZeroUnencodable,
)
from .reading import (
    DEFAULT_LABELS,
    LEFT_TO_RIGHT,
    RIGHT_TO_LEFT,
    Group,
    NumberReading,
    RankComponent,
    decompose,
    format_reading,
)

__version__ = "0.1.0"

__all__ = [
    "ABJADI_SEQUENCE",
    "Alphabet",
    "Letter",
    "letters",
    "letter_by_value",
    "letter_for_codepoint",
    "max_letter_value",
    "AbjadNumeral",
    "GematriaResult",
    "MAX_ENCODABLE",
    "encode",
    "decode",
    "gematria",
    "DigitScript",
    "DigitProvenance",
    "SEPARATORS",
    "render_digits",
    "parse_digits",
    "transliterate",
    "digit_provenance",
    "NumberReading",
    "Group",
    "RankComponent",
    "DEFAULT_LABELS",
    "RIGHT_TO_LEFT",
    "LEFT_TO_RIGHT",
    "decompose",
    "format_reading",
    "hijri_to_gregorian_year",
    "gregorian_to_hijri_year",
    "NumeralError",
    "NotAnAbjadiValue",
    "OutOfAlphabetRange",
    "UnknownLetter",
    "OutOfRange",
    "ZeroUnencodable",
    "NonCanonical",
    "InvalidGlyph",
    "InsufficientLabels",
    "PreEpoch",
]

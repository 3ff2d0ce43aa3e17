"""Historical Arabic/Hebrew numeral systems as a library.

Covers the letter-value ("Abjadi") tables of both alphabets, encoding and
decoding of numbers as letter-words, phrase gematria, the three digit
scripts (Western, Eastern "Mashreki", original Maghrebi) with per-digit
letter provenance and transliteration, grouped right-to-left/left-to-right
number readings, and year-level Hijri/Gregorian conversion.

``import abjadnum`` loads none of the six modules below.  The first use of
a public name, or of a module's own name (``abjadnum.codec``), imports that
module and whatever it imports itself, and binds the name here, so later
uses are plain attribute reads (PEP 562).  ``from abjadnum import gematria``
thus loads ``codec``, ``alphabets`` and ``errors``, but not ``digits``,
``reading`` or ``chronology``.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

# Each module and the public names it exports, in __all__'s order.
_EXPORTS = {
    "alphabets": ("ABJADI_SEQUENCE", "Alphabet", "Letter", "letters", "letter_by_value",
                  "letter_for_codepoint"),
    "codec": ("AbjadNumeral", "GematriaResult", "MAX_ENCODABLE", "encode", "decode",
              "gematria"),
    "digits": ("DigitScript", "DigitProvenance", "SEPARATORS", "render_digits",
               "parse_digits", "transliterate", "digit_provenance"),
    "reading": ("NumberReading", "Group", "RankComponent", "DEFAULT_LABELS",
                "RIGHT_TO_LEFT", "LEFT_TO_RIGHT", "decompose", "format_reading"),
    "chronology": ("hijri_to_gregorian_year", "gregorian_to_hijri_year"),
    "errors": ("NumeralError", "NotAnAbjadiValue", "OutOfAlphabetRange", "UnknownLetter",
               "OutOfRange", "ZeroUnencodable", "NonCanonical", "InvalidGlyph",
               "InsufficientLabels", "PreEpoch"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)


def __getattr__(name: str):
    """Import the module that exports `name` and bind `name` here."""
    module = _MODULE_OF.get(name)
    if module is None:
        if name not in _EXPORTS:
            raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
        # Importing a submodule binds it as an attribute of this package.
        return _import_module(f"{__name__}.{name}")
    value = globals()[name] = getattr(_import_module(f"{__name__}.{module}"), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_EXPORTS})

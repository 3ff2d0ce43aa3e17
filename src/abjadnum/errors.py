"""Domain error classes.

Every error the library raises on bad domain input subclasses
:class:`NumeralError`, whose ``code`` is the stable machine-readable name
printed by the CLI as ``ERROR <code>: <detail>``.  Violated call
preconditions (empty input, negative counts) raise plain ``ValueError``.
"""

import sys


def wrong_type(name: str, kind: str, value) -> ValueError:
    """The error for an argument `name` that should be `kind` but is `value`."""
    return ValueError(f"{name} must be {kind}, not {type(value).__name__}")


def check_int(name: str, value) -> None:
    """Raise ValueError naming `name` unless `value` is an int (a bool is not)."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise wrong_type(name, "an int", value)


def check_text(name: str, value) -> None:
    """Raise ValueError naming `name` unless `value` is a str."""
    if not isinstance(value, str):
        raise wrong_type(name, "a str", value)


def int_text(n: int) -> str:
    """n in decimal for a message, or its size when it has too many digits to print."""
    try:
        return f"{n}"
    except ValueError:  # past the interpreter's int-to-str digit limit
        sign = "negative " if n < 0 else ""
        return f"a {sign}number of more than {sys.get_int_max_str_digits()} digits"


class NumeralError(ValueError):
    """Base class for all domain errors."""

    @property
    def code(self) -> str:
        return type(self).__name__


class NotAnAbjadiValue(NumeralError):
    """The value is not a member of the 28-number letter-value sequence."""


class OutOfAlphabetRange(NumeralError):
    """The value exceeds the highest letter value of the alphabet."""


class UnknownLetter(NumeralError):
    """A codepoint maps to no letter (primary or variant) of the alphabet."""


class OutOfRange(NumeralError):
    """The number lies outside the encodable range of the alphabet."""


class ZeroUnencodable(NumeralError):
    """Zero has no letter encoding; it is not a letter value."""


class NonCanonical(NumeralError):
    """Strict decoding rejected a word that is not a canonical numeral."""


class InvalidGlyph(NumeralError):
    """A codepoint is outside the digit script's glyph set."""


class InsufficientLabels(NumeralError):
    """More 3-digit groups than scale labels."""


class PreEpoch(NumeralError):
    """Gregorian year earlier than the first Hijri year (622 CE)."""

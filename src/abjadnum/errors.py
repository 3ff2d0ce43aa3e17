"""Domain error classes, and the one slow path of every argument check.

Every error the library raises on bad domain input subclasses
:class:`NumeralError`, whose ``code`` is the stable machine-readable name
printed by the CLI as ``ERROR <code>: <detail>``.  Violated call
preconditions (empty input, negative counts) raise plain ``ValueError``.
An argument of the wrong type does too, with a message built here.

A public function reads an exact argument in line: a ``str`` or ``int``
whose type is exactly that is used as it is, and an ``Alphabet`` or
``DigitScript`` member indexes its table directly (every member is a key
of every table keyed by its enum).  Any other value goes to this module,
the one place a non-exact argument is read and every such message is
built: :func:`lookup` finds an enum argument's entry or raises, and
:func:`check_text` and :func:`check_int` give a subclass's plain value
(``str.__str__`` or ``int.__index__``) or raise.  So a subclass answers as
its plain value does, and none of its own methods (comparison,
arithmetic, iteration, ``split``, ``translate``...) runs inside the
library.
"""

import sys


def wrong_type(name: str, kind: str, value) -> ValueError:
    """The error for an argument `name` that should be `kind` but is `value`."""
    return ValueError(f"{name} must be {kind}, not {type(value).__name__}")


def lookup(table: dict, key, name: str, kind: str):
    """table[key], or the wrong_type error for `name` if `key` is not a `kind`.

    Alphabet and DigitScript hash by identity, so an enum argument costs one
    C-level hash and one dict probe; against Enum's Python-level hash, that
    took encode to 0.83-0.90x, transliterate to 0.78-0.80x and
    digit_provenance to 0.66-0.75x of their time on CPython 3.10-3.13.
    """
    try:
        return table[key]
    except (KeyError, TypeError):  # TypeError: an unhashable key
        raise wrong_type(name, kind, key) from None


def check_int(name: str, value) -> int:
    """`value` as an exact int, or ValueError naming `name` unless it is an int (a bool is not)."""
    kind = type(value)
    if kind is int:
        return value
    if issubclass(kind, int) and kind is not bool:
        return int.__index__(value)
    raise wrong_type(name, "an int", value)


def check_text(name: str, value) -> str:
    """`value` as an exact str, or ValueError naming `name` unless it is a str."""
    kind = type(value)
    if kind is str:
        return value
    if issubclass(kind, str):
        return str.__str__(value)
    raise wrong_type(name, "a str", value)


def digit_limit(name: str, verb: str) -> ValueError:
    """The error for `name`, past the interpreter's int<->str digit limit."""
    return ValueError(
        f"{name} has more than {sys.get_int_max_str_digits()} decimal digits, "
        f"the most that can be {verb}"
    )


def int_text(value) -> str:
    """`value` for a message, or a description where it has too many digits to print.

    An int is then described by its size, anything else by its type.
    """
    if isinstance(value, bool) or not isinstance(value, int):
        try:
            return f"{value}"  # letter_by_value also names floats, lists and others
        except ValueError:  # e.g. a list holding an int past the digit limit
            return f"a {type(value).__name__}"
    try:
        # A subclass among the values must not run its own __repr__ or __str__.
        return int.__repr__(value)
    except ValueError:  # past the interpreter's int-to-str digit limit
        sign = "negative " if value < 0 else ""
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
    """The number lies outside the encodable range of the alphabet, or the
    year past the last one the Hijri conversion is stated for."""


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

"""Domain error classes, the one slow path of every argument check, and
the base of the result records.

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

Every result record subclasses :class:`Record`, a tuple with the API of a
named tuple, built without generating and compiling source for each class.
It lives here because every library module imports this one.  What
defining the seven records costs, against named tuples of ``collections``,
is recorded in CHANGES.md, in the entry that built them without
``namedtuple``.
"""

import sys

try:
    from collections import _tuplegetter  # a private name of collections
except ImportError:  # the fallback that collections itself takes
    from operator import itemgetter

    def _tuplegetter(index, doc):
        return property(itemgetter(index), doc=doc)


class Record(tuple):
    """Base of the result records: a tuple with the API of a named tuple.

    A record's fields are the parameters of its own ``__new__``, read here
    once per class, so each field name is written once.  Each field is read
    through the C descriptor that ``collections`` gives a named tuple's, or,
    where ``collections`` no longer has that private name, through the
    property it falls back to itself.
    """

    __slots__ = ()
    _field_defaults = {}

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        code = cls.__new__.__code__
        cls._fields = cls.__match_args__ = code.co_varnames[1:code.co_argcount]
        for index, name in enumerate(cls._fields):
            setattr(cls, name, _tuplegetter(index, f"Alias for field number {index}"))

    @classmethod
    def _make(cls, iterable):
        """A record from a sequence or iterable of its field values."""
        result = tuple.__new__(cls, iterable)
        if len(result) != len(cls._fields):
            raise TypeError(f"Expected {len(cls._fields)} arguments, got {len(result)}")
        return result

    def _replace(self, /, **changes):
        """A new record with the named fields replaced by new values."""
        result = self._make(map(changes.pop, self._fields, self))
        if changes:
            raise ValueError(f"Got unexpected field names: {list(changes)!r}")
        return result

    __replace__ = _replace  # copy.replace, from CPython 3.13 on

    def _asdict(self) -> dict:
        """A new dict mapping each field name to its value."""
        return dict(zip(self._fields, self))

    def __getnewargs__(self) -> tuple:
        """The record as a plain tuple, for copy and pickle."""
        return tuple(self)

    def __repr__(self) -> str:
        fields = ", ".join(map("{}={!r}".format, self._fields, self))
        return f"{type(self).__name__}({fields})"


def wrong_type(name: str, kind: str, value) -> ValueError:
    """The error for an argument `name` that should be `kind` but is `value`."""
    return ValueError(f"{name} must be {kind}, not {type(value).__name__}")


def lookup(table: dict, key, name: str, kind: str):
    """table[key], or the wrong_type error for `name` if `key` is not a `kind`.

    Alphabet and DigitScript hash by identity, so an enum argument costs one
    C-level hash and one dict probe, not Enum's Python-level hash.  CHANGES.md
    records what that saved each operation, in the entry that made the two
    enums hash by identity.
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

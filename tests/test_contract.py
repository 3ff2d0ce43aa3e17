"""The input contract, as properties.

Every callable in ``abjadnum.__all__`` either returns or raises a
``ValueError`` (``NumeralError`` is one) whose ``str()`` works, whatever it
is given.  The CLI exits 0, 1 or 2 for any argv and stdin and never lets an
exception out; a number argument it accepts is plain ASCII digits.
"""

import contextlib
import inspect
import io
import sys
import types

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import abjadnum
from abjadnum import Alphabet, DigitScript, decompose
from abjadnum.alphabets import letter_by_name
from abjadnum.cli import main

_ENUMS = [*Alphabet, *DigitScript]

_JUNK = st.one_of(
    st.integers(min_value=-3, max_value=12),
    st.integers(),
    st.sampled_from([10**4300, 10**5000, -10**5000, 400, 1000, 2000, True, False]),
    st.floats(),
    st.text(max_size=6),
    st.binary(max_size=4),
    st.none(),
    st.sampled_from(_ENUMS),
    st.sampled_from([member.value for member in _ENUMS]),
)
_JUNK = st.one_of(_JUNK, st.lists(_JUNK, max_size=3))

# One well-formed call per public function, all its positional arguments
# given.  A drawn call makes some of them junk and keeps the rest, so it gets
# past the first checks often enough to reach the later ones.
_WELL_FORMED = {
    abjadnum.letters: (Alphabet.ARABIC,),
    abjadnum.max_letter_value: (Alphabet.HEBREW,),
    abjadnum.letter_by_value: (Alphabet.HEBREW, 400),
    abjadnum.letter_for_codepoint: ("ب",),
    abjadnum.encode: (1245, Alphabet.ARABIC),
    abjadnum.decode: ("همرغ", Alphabet.ARABIC, True),
    abjadnum.gematria: ("احمد زينب!", Alphabet.ARABIC, "!"),
    abjadnum.render_digits: (1234, DigitScript.MASHREKI_EASTERN),
    abjadnum.parse_digits: ("١٢", DigitScript.MASHREKI_EASTERN),
    abjadnum.transliterate: ("12/4", DigitScript.WESTERN, DigitScript.ORIGINAL_MAGHREBI),
    abjadnum.digit_provenance: (4, DigitScript.ORIGINAL_MAGHREBI),
    abjadnum.decompose: (12_457_892,),
    abjadnum.format_reading: (decompose(12_457_892), "ltr", abjadnum.DEFAULT_LABELS, True),
    abjadnum.hijri_to_gregorian_year: (1445,),
    abjadnum.gregorian_to_hijri_year: (2024,),
}


def _arity(fn) -> tuple[int, int]:
    """The fewest and most positional arguments to call `fn` with."""
    try:
        params = inspect.signature(fn).parameters.values()
    except ValueError:  # exception classes have no signature
        return 1, 1
    positional = [p for p in params if p.kind in (p.POSITIONAL_ONLY, p.POSITIONAL_OR_KEYWORD)]
    required = sum(p.default is p.empty for p in positional)
    if isinstance(fn, type):  # a class: its optional arguments are another API (Enum's)
        return max(required, 1), max(required, 1)
    return required, len(positional)


_CALLABLES = {
    name: getattr(abjadnum, name)
    for name in abjadnum.__all__
    if callable(getattr(abjadnum, name))
}
_FUNCTIONS = sorted(name for name, obj in _CALLABLES.items() if not isinstance(obj, type))
_CLASSES = sorted(set(_CALLABLES) - set(_FUNCTIONS))


@st.composite
def _arguments(draw, fn):
    """Positional arguments for `fn`: its well-formed call with some made junk."""
    fewest, most = _arity(fn)
    count = draw(st.one_of(st.just(most), st.integers(min_value=fewest, max_value=most)))
    well_formed = _WELL_FORMED.get(fn)
    if well_formed is None:  # a class: every argument is junk
        return [draw(_JUNK) for _ in range(count)]
    junk = draw(st.sets(st.integers(min_value=0, max_value=most - 1), min_size=1))
    return [draw(_JUNK) if i in junk else well_formed[i] for i in range(count)]


def test_every_public_function_has_a_well_formed_call():
    assert {_CALLABLES[name] for name in _FUNCTIONS} == set(_WELL_FORMED)
    for fn, args in _WELL_FORMED.items():
        assert len(args) == _arity(fn)[1]
        fn(*args)


def _returns_or_raises_value_error(fn, args):
    try:
        fn(*args)
    except ValueError as err:
        assert isinstance(str(err), str)


@pytest.mark.parametrize("name", _FUNCTIONS)
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_public_functions_are_total(name, data):
    fn = _CALLABLES[name]
    _returns_or_raises_value_error(fn, data.draw(_arguments(fn), label="args"))


# Records, enums and errors: their constructors need fewer examples.
@pytest.mark.parametrize("name", _CLASSES)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_public_classes_are_total(name, data):
    cls = _CALLABLES[name]
    _returns_or_raises_value_error(cls, data.draw(_arguments(cls), label="args"))


# -- the CLI -----------------------------------------------------------------

_NUMBER_COMMANDS = ("encode", "read", "provenance", "hijri")
_OPTIONS = {
    "encode": [("--alphabet", ["arabic", "hebrew"])],
    "decode": [("--alphabet", ["arabic", "hebrew"]), ("--strict", None)],
    "gematria": [("--alphabet", ["arabic", "hebrew"])],
    "translit": [("--from", ["western", "mashreki", "original"]),
                 ("--to", ["western", "mashreki", "original"])],
    "read": [("--direction", ["rtl", "ltr"]), ("--labels", [",mille", "", "a,b,c,d,e"]),
             ("--figure-exact", None)],
    "provenance": [("--script", ["western", "mashreki", "original"])],
    "hijri": [("--reverse", None)],
}
# Plain numbers; what int() reads but a strict parse refuses; empty, malformed
# and over-limit numbers; anything.
_NUMBERS = st.one_of(
    st.integers(min_value=0, max_value=10**30).map(str),
    st.sampled_from([" 12 ", "+7", "-5", "1_2", "١٢٣", "٧", "\t3\n", "-0", "0_0"]),
    st.sampled_from(["", "1.5", "12x", "0", "00", "9" * 4300, "9" * 4301, "1" + "0" * 4300]),
    st.text(max_size=8),
)
_VALUES = st.one_of(_NUMBERS, st.sampled_from(["احمد", "שלום", "١٢", "1 2", "ـ"]))


def _rarely(draw) -> bool:
    return draw(st.integers(min_value=0, max_value=9)) == 0


@st.composite
def _argvs(draw):
    """argv and stdin of a command with its options, now and then a bad one, and the input."""
    command = draw(st.sampled_from(sorted(_OPTIONS)))
    argv = [command]
    for flag, choices in _OPTIONS[command]:
        if not _rarely(draw):
            argv.append(flag)
            if choices is not None:
                bad = _rarely(draw)
                argv.append(draw(st.sampled_from(["", "klingon"] if bad else choices)))
    if draw(st.booleans()):
        argv.append("--json")
    if _rarely(draw):
        argv.append(draw(st.sampled_from(["--bogus", "-x", "--", "--json"])))
    value = draw(_NUMBERS if command in _NUMBER_COMMANDS else _VALUES)
    if draw(st.booleans()):
        return argv + [value], "", value
    return argv, value, value.strip()


def _main(argv, stdin):
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = types.SimpleNamespace(buffer=io.BytesIO(stdin.encode("utf-8")))
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exit_:  # argparse's usage errors
                code = exit_.code
    finally:
        sys.stdin = saved
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=500, deadline=None)
@given(_argvs())
def test_cli_exits_0_1_or_2_and_reads_numbers_strictly(drawn):
    argv, stdin, value = drawn
    code, out, err = _main(argv, stdin)
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    if code == 0 and argv[0] in _NUMBER_COMMANDS:
        assert value.isascii() and value.isdigit(), value


# -- the leaks the properties found, one by one --------------------------------

W = DigitScript.WESTERN
A = Alphabet.ARABIC


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: abjadnum.digit_provenance(3, "western"), ValueError,
         "script must be a DigitScript, not str"),
        (lambda: abjadnum.render_digits(5, "western"), ValueError,
         "script must be a DigitScript, not str"),
        (lambda: abjadnum.parse_digits("12", ["western"]), ValueError,
         "script must be a DigitScript, not list"),
        (lambda: abjadnum.transliterate("12", "western", W), ValueError,
         "src must be a DigitScript, not str"),
        (lambda: abjadnum.transliterate("12", W, {}), ValueError,
         "dst must be a DigitScript, not dict"),
        (lambda: abjadnum.gematria("ا", A, ignore=123), ValueError,
         "ignore must be a str, not int"),
        (lambda: abjadnum.letter_by_value("arabic", 1), ValueError,
         "alphabet must be an Alphabet, not str"),
        (lambda: abjadnum.letter_by_value(W, 5), ValueError,
         "alphabet must be an Alphabet, not DigitScript"),
        (lambda: abjadnum.letters(10**5000), ValueError,
         "alphabet must be an Alphabet, not int"),
        (lambda: abjadnum.max_letter_value([A]), ValueError,
         "alphabet must be an Alphabet, not list"),
        (lambda: abjadnum.letter_for_codepoint([1]), ValueError,
         "codepoint must be a str, not list"),
        (lambda: letter_by_name(A, 10**5000), abjadnum.UnknownLetter,
         f"a number of more than {sys.get_int_max_str_digits()} digits "
         "is not the name of a arabic letter"),
        (lambda: abjadnum.format_reading("١٢"), ValueError,
         "reading must be a NumberReading, not str"),
        (lambda: abjadnum.format_reading(decompose(12), labels=5), ValueError,
         "labels must be a tuple of str, not int"),
    ],
    ids=["digit_provenance", "render_digits", "parse_digits", "transliterate-src",
         "transliterate-dst", "gematria-ignore", "letter_by_value-str",
         "letter_by_value-DigitScript", "letters", "max_letter_value", "letter_for_codepoint",
         "letter_by_name-huge", "format_reading", "format_reading-labels"],
)
def test_a_wrong_argument_type_is_a_value_error(call, error, message):
    with pytest.raises(ValueError) as exc:
        call()
    assert (type(exc.value), str(exc.value)) == (error, message)

"""The input contract, as properties.

Every callable in ``abjadnum.__all__`` either returns or raises a
``ValueError`` (``NumeralError`` is one) whose ``str()`` works, whatever it
is given.  The CLI exits 0, 1 or 2 for any argv and stdin and never lets an
exception out; a number argument it accepts is plain ASCII digits.
"""

import inspect
import sys
from operator import attrgetter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import abjadnum
from abjadnum import Alphabet, DigitScript, Group, NumberReading, RankComponent, decompose
from support import run_cli

_ENUMS = [*Alphabet, *DigitScript]


class _Int(int):
    pass


class _Str(str):
    pass


_SCALARS = st.one_of(
    st.integers(min_value=-3, max_value=12),
    st.integers(),
    st.sampled_from([400, 1000, 2000, True, False]),
    # Past the digit limit, built by map: a strategy's repr prints its values.
    st.sampled_from([4300, 5000, -5000]).map(lambda e: 10**e if e > 0 else -(10**-e)),
    st.floats(),
    st.text(max_size=6),
    st.binary(max_size=4),
    st.none(),
    st.sampled_from(_ENUMS),
    st.sampled_from([member.value for member in _ENUMS]),
    st.integers(min_value=-3, max_value=2000).map(_Int),
    st.text(max_size=6).map(_Str),
)


def _mix(*strategies):
    """Each of `strategies` as often (st.one_of weighs each of their branches alike)."""
    return st.sampled_from(strategies).flatmap(lambda strategy: strategy)


# Containers of junk or of short text (labels are a container of str), and
# the reading records built with junk fields.
_CONTAINERS = st.one_of(
    *(
        kind(items, max_size=4)
        for items in (_SCALARS, st.text(max_size=3))
        for kind in (st.lists, st.sets, st.frozensets)
    ),
    st.dictionaries(st.one_of(_SCALARS, st.text(max_size=3)), _SCALARS, max_size=4),
)
_FIELD = _mix(_SCALARS, _CONTAINERS)
_COMPONENT = st.builds(RankComponent, _FIELD, _FIELD)
_GROUP = st.builds(
    Group, _FIELD, _FIELD, _mix(st.lists(_COMPONENT, min_size=1, max_size=3).map(tuple), _FIELD)
)
_READING = st.builds(
    NumberReading, _FIELD, _mix(st.lists(_GROUP, min_size=1, max_size=3).map(tuple), _FIELD)
)
_JUNK = _mix(_SCALARS, _CONTAINERS, st.one_of(_READING, _GROUP, _COMPONENT))

# One well-formed call per public function, all its positional arguments
# given.  A drawn call makes some of them junk and keeps the rest, so it gets
# past the first checks often enough to reach the later ones.
_WELL_FORMED = {
    abjadnum.letters: (Alphabet.ARABIC,),
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


def _value_error(fn, args) -> str:
    """The text of the ValueError `fn(*args)` raises, or "" when it returns."""
    try:
        fn(*args)
    except ValueError as err:
        return str(err)
    return ""


@pytest.mark.parametrize("name", _FUNCTIONS)
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_public_functions_are_total(name, data):
    fn = _CALLABLES[name]
    message = _value_error(fn, data.draw(_arguments(fn), label="args"))
    # The interpreter's own digit-limit text is not a domain message.
    assert "set_int_max_str_digits" not in message


# Records, enums and errors: their constructors need fewer examples.
@pytest.mark.parametrize("name", _CLASSES)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_public_classes_are_total(name, data):
    cls = _CALLABLES[name]
    _value_error(cls, data.draw(_arguments(cls), label="args"))


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


@settings(max_examples=500, deadline=None)
@given(_argvs())
def test_cli_exits_0_1_or_2_and_reads_numbers_strictly(drawn):
    argv, stdin, value = drawn
    code, out, err = run_cli(argv, stdin)
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    if code == 0 and argv[0] in _NUMBER_COMMANDS:
        assert value.isascii() and value.isdigit(), value


# -- the leaks the properties found, one by one --------------------------------

W = DigitScript.WESTERN
A = Alphabet.ARABIC
_FIVE = decompose(5).groups[0].components


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
        (lambda: abjadnum.letter_for_codepoint([1]), ValueError,
         "codepoint must be a str, not list"),
        (lambda: abjadnum.format_reading("١٢"), ValueError,
         "reading must be a NumberReading, not str"),
        (lambda: abjadnum.format_reading(decompose(12), labels=5), ValueError,
         "labels must be a tuple of str, not int"),
        (lambda: abjadnum.format_reading(decompose(5), "rtl", b"ab"), ValueError,
         "labels must be a tuple of str, not bytes"),
        (lambda: abjadnum.format_reading(decompose(5), "ltr", [1, 2]), ValueError,
         "labels must be a tuple of str, not list"),
        (lambda: abjadnum.format_reading(decompose(5), "rtl", [10**5000]), ValueError,
         "labels must be a tuple of str, not list"),
        (lambda: abjadnum.letter_by_value(A, [10**5000]), abjadnum.NotAnAbjadiValue,
         "a list is not a letter value"),
        (lambda: abjadnum.format_reading(decompose(5000), "ltr", "ab"), ValueError,
         "labels must be a tuple of str, not str"),
        (lambda: abjadnum.format_reading(abjadnum.NumberReading(1, None)), ValueError,
         "reading.groups must be a tuple of Group, not NoneType"),
        (lambda: abjadnum.format_reading(abjadnum.NumberReading(1, [1, 2])), ValueError,
         "reading.groups must be a tuple of Group, not list"),
        (lambda: abjadnum.format_reading(abjadnum.NumberReading(1, [1, 2]), "ltr"), ValueError,
         "reading.groups must be a tuple of Group, not list"),
        (lambda: abjadnum.format_reading(decompose(5), "rtl", {"a"}), ValueError,
         "labels must be a tuple of str, not set"),
        (lambda: abjadnum.format_reading(decompose(5), "rtl", {"a": 1}), ValueError,
         "labels must be a tuple of str, not dict"),
        (lambda: abjadnum.format_reading(NumberReading(5, (Group(5, 5, _FIVE),))), ValueError,
         "reading.groups must be a tuple of Group, not tuple"),
        (lambda: abjadnum.format_reading(NumberReading(5, (Group("x", 5, _FIVE),))), ValueError,
         "reading.groups must be a tuple of Group, not tuple"),
        (lambda: abjadnum.format_reading(NumberReading(3, {1, 2}), "ltr"), ValueError,
         "reading.groups must be a tuple of Group, not set"),
        (lambda: abjadnum.format_reading(NumberReading(1, (Group(0, 10**5000, ()),)), "ltr"),
         ValueError, "reading.groups must be a tuple of Group, not tuple"),
    ],
    ids=["digit_provenance", "render_digits", "parse_digits", "transliterate-src",
         "transliterate-dst", "gematria-ignore", "letter_by_value-str",
         "letter_by_value-DigitScript", "letters", "letter_for_codepoint",
         "format_reading", "format_reading-labels",
         "format_reading-bytes-labels", "format_reading-int-labels",
         "format_reading-huge-labels", "letter_by_value-huge-list", "format_reading-str-labels",
         "format_reading-none-groups", "format_reading-int-groups",
         "format_reading-int-groups-ltr", "format_reading-set-labels",
         "format_reading-dict-labels", "format_reading-group-index-5",
         "format_reading-group-index-str",
         "format_reading-set-groups-ltr", "format_reading-huge-group-value-ltr"],
)
def test_a_wrong_argument_type_is_a_value_error(call, error, message):
    with pytest.raises(ValueError) as exc:
        call()
    assert (type(exc.value), str(exc.value)) == (error, message)


# -- the one resolver of enum arguments ---------------------------------------

_KINDS = {Alphabet: "an Alphabet", DigitScript: "a DigitScript"}
# (function, index, name, enum) for each enum parameter of each public function.
_ENUM_PARAMETERS = [
    (fn, index, param.name, param.annotation)
    for fn in _WELL_FORMED
    for index, param in enumerate(inspect.signature(fn).parameters.values())
    if param.annotation in _KINDS
]


def test_every_enum_parameter_is_found():
    found = sorted(f"{fn.__name__}.{name}" for fn, _, name, _ in _ENUM_PARAMETERS)
    assert found == [
        "decode.alphabet", "digit_provenance.script", "encode.alphabet", "gematria.alphabet",
        "letter_by_value.alphabet", "letters.alphabet",
        "parse_digits.script", "render_digits.script", "transliterate.dst",
        "transliterate.src",
    ]


@pytest.mark.parametrize(
    "fn, index, name, enum",
    _ENUM_PARAMETERS,
    ids=[f"{fn.__name__}-{name}" for fn, _, name, _ in _ENUM_PARAMETERS],
)
@pytest.mark.parametrize("bad", ["value", "list", "other-enum", "none"])
def test_a_wrong_enum_argument_names_its_parameter(fn, index, name, enum, bad):
    member = _WELL_FORMED[fn][index]
    other = DigitScript.WESTERN if enum is Alphabet else Alphabet.ARABIC
    value = {"value": member.value, "list": [member], "other-enum": other, "none": None}[bad]
    args = list(_WELL_FORMED[fn])
    args[index] = value
    with pytest.raises(ValueError) as exc:
        fn(*args)
    assert (type(exc.value), str(exc.value)) == (
        ValueError, f"{name} must be {_KINDS[enum]}, not {type(value).__name__}"
    )


# -- one rule reads every str and int argument ---------------------------------


class _Called(Exception):
    """A method of a hostile subclass ran inside the library."""


def _raises(name):
    def method(*args, **kwargs):
        raise _Called(name)

    return method


def _hostile(base, names):
    """A subclass of `base` whose methods `names` raise _Called.

    It keeps its base's hash, which overriding __eq__ would unset, so it can
    still be a dict key; its repr is tagged, so that it shows wherever it
    reaches a result or a message.
    """
    body = {name: _raises(name) for name in names}
    body["__hash__"] = base.__hash__
    body["__repr__"] = lambda self: f"hostile({base.__repr__(self)})"
    return type(f"Hostile{base.__name__.title()}", (base,), body)


_HOSTILE = {
    str: _hostile(str, [
        "split", "__iter__", "lstrip", "translate", "encode", "__eq__", "__ne__", "__len__",
        "__getitem__", "__contains__", "__str__", "__format__", "__add__", "isspace",
        "replace",
    ]),
    int: _hostile(int, [
        "__mod__", "__floordiv__", "__divmod__", "__lt__", "__le__", "__gt__", "__ge__",
        "__eq__", "__ne__", "__str__", "__format__", "__index__", "__int__", "__bool__",
        "__add__", "__radd__", "__sub__", "__mul__", "__rmul__", "__neg__",
    ]),
}

# Calls that take the other paths: the empty ignore set, and each domain error.
_OTHER_CALLS = [
    (abjadnum.gematria, ("ا", A, "")),
    (abjadnum.letter_by_value, (Alphabet.HEBREW, 1000)),
    (abjadnum.letter_by_value, (A, 7)),
    (abjadnum.letter_by_value, (A, 10**5000)),
    (abjadnum.letter_for_codepoint, ("x",)),
    (abjadnum.encode, (0, A)),
    (abjadnum.encode, (2000, A)),
    (abjadnum.encode, (-10**5000, A)),
    (abjadnum.decode, ("اب", A, True)),
    (abjadnum.decode, ("ـ", A, False)),
    (abjadnum.gematria, ("ا x!", A, "!")),
    (abjadnum.render_digits, (-1, W)),
    (abjadnum.render_digits, (10**5000, W)),
    (abjadnum.parse_digits, ("", W)),
    (abjadnum.parse_digits, ("12a", W)),
    (abjadnum.parse_digits, ("9" * 5000, W)),
    (abjadnum.transliterate, ("1a", W, DigitScript.MASHREKI_EASTERN)),
    (abjadnum.digit_provenance, (10, W)),
    (abjadnum.decompose, (-1,)),
    (abjadnum.format_reading, (decompose(5), "up", abjadnum.DEFAULT_LABELS, False)),
    (abjadnum.hijri_to_gregorian_year, (0,)),
    (abjadnum.hijri_to_gregorian_year, (455638,)),
    (abjadnum.gregorian_to_hijri_year, (600,)),
    (abjadnum.gregorian_to_hijri_year, (456834,)),
]

# (function, arguments, index) for each exact str or int argument of each call;
# a bool (strict, figure_exact) is a flag read by its truth value.
_SUBCLASSED = [
    (fn, args, index)
    for fn, args in [*_WELL_FORMED.items(), *_OTHER_CALLS]
    for index, arg in enumerate(args)
    if type(arg) in _HOSTILE
]


def _outcome(fn, args):
    """What fn(*args) gives: its result's type and repr, or its error's type and text."""
    try:
        result = fn(*args)
    except Exception as err:
        return type(err), str(err)
    return type(result), repr(result)


@pytest.mark.parametrize(
    "fn, args, index",
    _SUBCLASSED,
    ids=[f"{fn.__name__}-arg{index}" for fn, _, index in _SUBCLASSED],
)
def test_a_subclass_argument_answers_as_its_plain_value(fn, args, index):
    hostile = list(args)
    hostile[index] = _HOSTILE[type(args[index])](args[index])
    assert _outcome(fn, hostile) == _outcome(fn, args)


def _with(base, **methods):
    return type("Sub", (base,), methods)


@pytest.mark.parametrize(
    "fn, args, expected",
    [
        (abjadnum.transliterate,
         (_with(str, translate=lambda *a: "zz")("12"), W, DigitScript.MASHREKI_EASTERN),
         (str, repr("١٢"))),
        (abjadnum.parse_digits, (_with(str, lstrip=lambda *a: "")("abc"), W),
         (abjadnum.InvalidGlyph, "'a' is not a western digit")),
        (abjadnum.gematria, (_with(str, split=lambda *a: [1, 2])("ا"), A),
         (abjadnum.GematriaResult, repr(abjadnum.GematriaResult(1, (("ا", 1),))))),
        (abjadnum.decode, (_with(str, __iter__=lambda self: iter([1, 2]))("ا"), A),
         (int, "1")),
        (abjadnum.hijri_to_gregorian_year, (_with(int, __lt__=lambda *a: True)(1445),),
         (int, "2024")),
        (abjadnum.format_reading,
         (abjadnum.decompose(5000), "ltr", ("", _with(str, __format__=lambda *a: "zz")("mille"))),
         (str, repr("5 mille"))),
        (abjadnum.format_reading,
         (abjadnum.decompose(5000), "rtl", ("", _with(str, __format__=lambda *a: "zz")("mille"))),
         (str, repr("5 mille"))),
    ],
    ids=["transliterate-translate", "parse_digits-lstrip", "gematria-split", "decode-iter",
         "hijri-lt", "format_reading-ltr-label-format",
         "format_reading-rtl-label-format"],
)
def test_a_subclass_with_its_own_methods_is_read_as_its_value(fn, args, expected):
    assert _outcome(fn, args) == expected


# -- one Python frame per well-formed call -------------------------------------

O = DigitScript.ORIGINAL_MAGHREBI
_READ = decompose(12_457_892)
# (id, function, arguments) of a well-formed call of each hot public function.
_HOT_CALLS = [
    ("encode", abjadnum.encode, (1245, A)),
    ("decode-lax", abjadnum.decode, ("همرغ", A)),
    ("decode-strict", abjadnum.decode, ("همرغ", A, True)),
    ("gematria", abjadnum.gematria, ("احمد زينب", A)),
    ("gematria-ignore", abjadnum.gematria, ("احمد، زينب", A, "،")),
    ("render_digits", abjadnum.render_digits, (1234, DigitScript.MASHREKI_EASTERN)),
    ("parse_digits", abjadnum.parse_digits, ("١٢", DigitScript.MASHREKI_EASTERN)),
    ("parse_digits-original", abjadnum.parse_digits, ("1254", O)),
    ("transliterate", abjadnum.transliterate, ("12/4", W, O)),
    ("digit_provenance", abjadnum.digit_provenance, (4, O)),
    ("decompose", abjadnum.decompose, (12_457_892,)),
    ("format_reading-rtl", abjadnum.format_reading, (_READ,)),
    ("format_reading-ltr", abjadnum.format_reading, (_READ, "ltr")),
    ("format_reading-figure-exact", abjadnum.format_reading,
     (_READ, "rtl", abjadnum.DEFAULT_LABELS, True)),
    ("hijri_to_gregorian_year", abjadnum.hijri_to_gregorian_year, (1445,)),
    ("gregorian_to_hijri_year", abjadnum.gregorian_to_hijri_year, (2024,)),
]


def _python_calls(fn, *args) -> list[str]:
    """The name of each Python function that fn(*args) runs, in call order."""
    names = []

    def profile(frame, event, arg):
        if event == "call":
            names.append(frame.f_code.co_name)

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        fn(*args)
    except ValueError:  # a slow-path call that is refused
        pass
    finally:
        sys.setprofile(previous)
    return names


@pytest.mark.parametrize("fn, args", [call[1:] for call in _HOT_CALLS],
                         ids=[call[0] for call in _HOT_CALLS])
def test_a_well_formed_call_runs_in_one_python_frame(fn, args):
    fn(*args)  # fills whatever table the call fills on first use
    assert _python_calls(fn, *args) == [fn.__name__]


def test_a_numerals_text_runs_in_one_python_frame():
    assert _python_calls(attrgetter("text"), abjadnum.encode(1245, A)) == ["text"]


# The errors helper that reads each kind of argument off the fast path.
_HELPERS = {int: "check_int", str: "check_text", Alphabet: "lookup", DigitScript: "lookup"}


def _off_the_fast_path(arg) -> list:
    """(how, value) for each way of passing `arg` other than as its exact type."""
    if type(arg) in _KINDS:
        return [("value", arg.value), ("list", [arg])]
    return [("subclass", {int: _Int, str: _Str}[type(arg)](arg)), ("list", [arg])]


# (id, function, arguments, helper) for each int, str and enum argument of
# each hot call, passed off the fast path.
_SLOW_CALLS = [
    (f"{name}-arg{index}-{how}", fn, (*args[:index], bad, *args[index + 1:]),
     _HELPERS[type(arg)])
    for name, fn, args in _HOT_CALLS
    for index, arg in enumerate(args)
    if type(arg) in _HELPERS
    for how, bad in _off_the_fast_path(arg)
]


@pytest.mark.parametrize("fn, args, helper", [call[1:] for call in _SLOW_CALLS],
                         ids=[call[0] for call in _SLOW_CALLS])
def test_any_other_argument_is_read_by_the_errors_module(fn, args, helper):
    assert helper in _python_calls(fn, *args)

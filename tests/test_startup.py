"""Start-up loads only what the call uses.

``import abjadnum`` loads none of its modules: the first use of a public
name imports the module that exports it (and what that module imports).
``unicodedata`` is imported by the skip rule of codec only for a character
that is neither whitespace nor a mark of the Hebrew and Arabic blocks, so
vocalised Arabic and Hebrew text never loads it.  The digit-provenance TSV
is read on the first ``digit_provenance`` call.
``json`` is loaded by no call: the CLI writes its --json line itself.
``dataclasses`` and ``inspect`` (whose import pulls in ``ast``, ``dis`` and
``tokenize``) are never loaded, neither by the import nor by a call.
``import abjadnum.cli`` loads no library module but ``alphabets`` and
``errors``, and a CLI call loads the modules of its own subcommand alone; a
well-formed one loads no ``argparse``, ``gettext`` or ``locale``, which a
parser build loads.  Each case runs in a fresh interpreter with the directory
that holds the imported ``abjadnum`` on PYTHONPATH, so that the tree under
test is what starts, and compares ``sys.modules`` before and after, so a
``site`` that already imports one of these modules does not fail it.
"""

import ast
import importlib
from pathlib import Path

from abjadnum import Alphabet, letters
from support import PACKAGE, Race, fresh

DEFERRED = {"json", "unicodedata"}
NEVER_LOADED = {"dataclasses", "inspect"}

# Each first-use path, as one expression over the names _SCRIPT imports.
FIRST_USES = {
    "decode-harakat": 'decode("بِسْمِ", Alphabet.ARABIC)',
    "gematria-shadda": 'gematria("اللّه أكبر", Alphabet.ARABIC)',
    "provenance": "digit_provenance(4, DigitScript.ORIGINAL_MAGHREBI)",
    "provenance-not-a-script": 'digit_provenance(0, "western")',
    "cli-provenance-json": 'cli.main(["provenance", "--script", "original", "--json", "4"])',
    "cli-gematria-json": 'cli.main(["gematria", "--alphabet", "arabic", "--json", "اللّه"])',
    "cli-encode-json": 'cli.main(["encode", "--alphabet", "arabic", "--json", "1245"])',
    # A combining mark outside U+0590-06FF, which the skip rule asks unicodedata about.
    "decode-foreign-mark": 'decode("\\u0628\\u1ab0", Alphabet.ARABIC)',
}

# The DEFERRED modules the call under test should load, when site has not
# already; a first use not listed loads none.
LOADS = {
    "decode-harakat": set(),
    "gematria-shadda": set(),
    "cli-provenance-json": set(),
    "cli-gematria-json": set(),
    "decode-foreign-mark": {"unicodedata"},
}

# The paths that read the provenance table, all 30 entries of it.
READS_PROVENANCE = {"provenance", "provenance-not-a-script", "cli-provenance-json"}

_SCRIPT = """\
import io, sys
before = set(sys.modules)
import abjadnum
imported = set(sys.modules)
from abjadnum import Alphabet, DigitScript, cli, decode, digit_provenance, digits, gematria
with_cli = set(sys.modules)

def run(call):
    stdout, sys.stdout = sys.stdout, io.StringIO()
    try:
        result = repr(eval(call))
    except Exception as err:
        result = repr(err)
    printed, sys.stdout = sys.stdout.getvalue(), stdout
    return result, printed

for call in WARM_UP:
    run(call)
called = set(sys.modules)
result, printed = run(CALL)
print(repr(dict(
    preloaded=sorted(before & (DEFERRED | NEVER_LOADED)),
    imported=sorted(imported - before),
    cli=sorted(with_cli - before),
    called=sorted(set(sys.modules) - called),
    filled=sum(map(len, digits._PROVENANCE.values())),
    result=result,
    printed=printed,
)))
"""


def _first_call(call: str, warm_up=()) -> dict:
    """What one fresh process saw: `call` run right after import and `warm_up`."""
    return ast.literal_eval(
        fresh(_SCRIPT, CALL=call, WARM_UP=list(warm_up), DEFERRED=DEFERRED,
              NEVER_LOADED=NEVER_LOADED)
    )


def test_import_loads_neither_json_nor_unicodedata():
    seen = _first_call("None")
    assert DEFERRED.isdisjoint(seen["imported"]), seen
    assert "json" not in seen["cli"], seen
    assert NEVER_LOADED.isdisjoint(seen["cli"]), seen


def pytest_generate_tests(metafunc):
    if "first_use" in metafunc.fixturenames:
        metafunc.parametrize("first_use", list(FIRST_USES))
    if "statement" in metafunc.fixturenames:
        metafunc.parametrize("statement", list(LAZY_LOADS))
    if "command" in metafunc.fixturenames:
        metafunc.parametrize("command", list(CLI_LOADS))


def test_a_first_use_answers_as_a_warm_process(first_use):
    call = FIRST_USES[first_use]
    cold = _first_call(call)
    warm = _first_call(call, warm_up=FIRST_USES.values())
    assert (cold["result"], cold["printed"]) == (warm["result"], warm["printed"])
    # The call itself loaded what it needs and no other deferred module, and
    # the warm process already had.
    loads = LOADS.get(first_use, set()) - set(cold["preloaded"])
    assert DEFERRED & set(cold["called"]) == loads, cold
    assert DEFERRED.isdisjoint(warm["called"]), warm
    assert NEVER_LOADED.isdisjoint(cold["cli"] + cold["called"]), cold
    assert cold["filled"] == (30 if first_use in READS_PROVENANCE else 0)


def test_the_not_a_script_message_is_the_lookup_message():
    seen = _first_call(FIRST_USES["provenance-not-a-script"])
    assert seen["result"] == repr(ValueError("script must be a DigitScript, not str"))


# One first call of each public operation.
FIRST_CALLS = """\
from abjadnum import *

A, S = Alphabet.ARABIC, DigitScript.MASHREKI_EASTERN
letters(A)
letter_by_value(A, 40)
letter_for_codepoint("م")
encode(1245, A)
decode("همرغ", A)
decode("همرغ", A, strict=True)
gematria("بِسْمِ اللّه،", A, "،")
gematria("بِسْمِ اللّه", A)
parse_digits(render_digits(1225, S), S)
transliterate("1225/03/14", DigitScript.WESTERN, S)
digit_provenance(4, S)
format_reading(decompose(12457892), "ltr")
format_reading(decompose(12457892), "rtl")
hijri_to_gregorian_year(1225)
gregorian_to_hijri_year(1810)
"""

_NO_EVAL = """\
import builtins, sys

evaluated = []
real_eval = builtins.eval

def spy(source, *args, **kwargs):
    # Counted when an abjadnum frame is met before the import machinery: not
    # inside a stdlib module's own import (enum imports functools on CPython
    # 3.12, which builds a namedtuple of its own).
    frame = sys._getframe(1)
    while frame and not frame.f_globals.get("__name__", "").startswith("importlib"):
        if frame.f_globals.get("__name__", "").startswith("abjadnum"):
            evaluated.append(str(source)[:60])
            break
        frame = frame.f_back
    return real_eval(source, *args, **kwargs)

builtins.eval = spy
exec(FIRST_CALLS, {})
builtins.eval = real_eval
print(repr(evaluated))
"""


def test_import_and_first_calls_generate_no_code():
    # collections.namedtuple compiles each record class's __new__ with eval.
    assert ast.literal_eval(fresh(_NO_EVAL, FIRST_CALLS=FIRST_CALLS)) == []


# Every module-level dict, list, set and tuple of the package, and the
# package's own globals, each by the size of the table and of each dict, list
# or set it holds: as import leaves them, and those that FIRST_CALLS change.
_TABLES = """\
import importlib, pkgutil
import abjadnum

def state(table):
    held = table.values() if isinstance(table, dict) else table
    return (len(table), *[len(t) for t in held if isinstance(t, (dict, list, set))])

tables = {PACKAGE: vars(abjadnum)}
at_import = {PACKAGE: state(vars(abjadnum))}
bound = sorted(set(vars(abjadnum)) & {*abjadnum.__all__, *abjadnum._EXPORTS})
for info in pkgutil.iter_modules(abjadnum.__path__):
    if info.name != "__main__":
        module = importlib.import_module(f"abjadnum.{info.name}")
        for name, table in vars(module).items():
            if isinstance(table, (dict, list, set, tuple)) and not name.startswith("__"):
                tables[f"{info.name}.{name}"] = table
                at_import[f"{info.name}.{name}"] = state(table)
values = {alphabet.name: sorted(table) for alphabet, table in tables["codec._VALUES"].items()}
exec(FIRST_CALLS, {})
print(repr(dict(bound=bound, values=values, changed={
    name: at_import[name] for name, table in tables.items() if state(table) != at_import[name]
})))
"""


def _raced_tables():
    """Every table that the Race of some test module restores."""
    modules = [importlib.import_module(path.stem)
               for path in Path(__file__).parent.glob("test_*.py")]
    return {name for module in modules for race in vars(module).values()
            if isinstance(race, Race) for name in race.tables}


def test_every_table_a_first_call_fills_starts_empty_and_is_raced():
    seen = ast.literal_eval(fresh(_TABLES, FIRST_CALLS=FIRST_CALLS, PACKAGE=PACKAGE))
    assert sorted(seen["changed"]) == sorted(_raced_tables())
    # Import leaves each of them empty, or each table it holds: but the value
    # tables, which hold the letters, and the package, which binds no lazy
    # name yet.
    assert seen["bound"] == []
    assert seen["values"] == {
        alphabet.name: sorted(cp for letter in letters(alphabet) for cp in letter.codepoints)
        for alphabet in Alphabet
    }
    assert [name for name, (size, *held) in seen["changed"].items()
            if any(held or [size]) and name not in (PACKAGE, "codec._VALUES")] == []


# Eight threads make every first call of the provenance table and decode two
# words, 200 rounds over, each round from an empty provenance table.
_PROVENANCE_RACE = Race(("digits._PROVENANCE",), """\
from abjadnum import Alphabet, DigitScript, decode, digit_provenance
from support import race_rounds

WORDS = "بِسْمِ اللّٰهِ".split()
CALLS = [(digit_provenance, digit, script) for script in DigitScript for digit in range(10)]
CALLS += [(decode, word, Alphabet.ARABIC) for word in WORDS]
seen = race_rounds(lambda call: call[0](*call[1:]), [CALLS] * 8, 200, TABLES)
print(repr(dict(seen, words=[decode(word, Alphabet.ARABIC) for word in WORDS])))
""")


def test_a_concurrent_first_use_sees_whole_tables():
    assert _PROVENANCE_RACE.run() == dict(
        errors=[], stuck=0, calls=8 * 200, differing=0, faults=[], words=[102, 66]
    )


# Eight threads read and speak numbers, 50 rounds over, each round from empty
# group, components and speech tables.  Each thread reads the numbers in its
# own order, so they miss on different ones.
_GROUP_RACE = Race(("reading._GROUPS", "reading._COMPONENTS", "reading._SPOKEN"), """\
import random
from abjadnum import decompose, format_reading, reading
from support import race_rounds, reference_decompose, reference_format

rng = random.Random(19)
NUMBERS = [rng.randrange(10 ** rng.randint(1, 15)) for _ in range(200)] + [0, 10**12 + 5]
EXPECTED = {n: (got, reference_format(got, "rtl", LABELS, False))
            for n, got in zip(NUMBERS, map(reference_decompose, NUMBERS))}

def read(n):
    got = decompose(n)
    return got, format_reading(got, "rtl", LABELS)

def check(outs, expected):
    # A record of a shared index is the one its table holds, and every
    # group's components are the tuple the components table holds.
    return [n for out in outs for n, (got, _) in out.items()
            if any(group is not table[group.value]
                   for group, table in zip(got.groups, reading._GROUPS))
            or any(group.components is not reading._COMPONENTS[group.value]
                   for group in got.groups)]

ORDERS = [NUMBERS[25 * i:] + NUMBERS[:25 * i] for i in range(8)]
print(repr(race_rounds(read, ORDERS, 50, TABLES, EXPECTED, check)))
""")


def test_threads_racing_the_first_reading_share_whole_group_records():
    seen = _GROUP_RACE.run(LABELS=tuple(f"L{i}" for i in range(6)))
    assert seen == dict(errors=[], stuck=0, calls=8 * 50, differing=0, faults=[])


# The 39 public names, in the order __all__ has always listed them.
PUBLIC = [
    "ABJADI_SEQUENCE", "Alphabet", "Letter", "letters", "letter_by_value",
    "letter_for_codepoint",
    "AbjadNumeral", "GematriaResult", "MAX_ENCODABLE", "encode", "decode", "gematria",
    "DigitScript", "DigitProvenance", "SEPARATORS", "render_digits", "parse_digits",
    "transliterate", "digit_provenance",
    "NumberReading", "Group", "RankComponent", "DEFAULT_LABELS", "RIGHT_TO_LEFT",
    "LEFT_TO_RIGHT", "decompose", "format_reading",
    "hijri_to_gregorian_year", "gregorian_to_hijri_year",
    "NumeralError", "NotAnAbjadiValue", "OutOfAlphabetRange", "UnknownLetter", "OutOfRange",
    "ZeroUnencodable", "NonCanonical", "InvalidGlyph", "InsufficientLabels", "PreEpoch",
]

MODULES = ["alphabets", "chronology", "codec", "digits", "errors", "reading"]

# A statement run right after a bare `import abjadnum` -> the abjadnum.*
# modules it should load and the error it should raise, if any.
LAZY_LOADS = {
    "pass": ([], None),
    "from abjadnum import Alphabet, decode, gematria": (["alphabets", "codec", "errors"], None),
    "from abjadnum import gematria": (["alphabets", "codec", "errors"], None),
    "assert abjadnum.codec is sys.modules['abjadnum.codec']":
        (["alphabets", "codec", "errors"], None),
    "from abjadnum import PreEpoch": (["errors"], None),
    "from abjadnum import hijri_to_gregorian_year": (["chronology", "errors"], None),
    "from abjadnum import format_reading": (["errors", "reading"], None),
    "from abjadnum import *": (MODULES, None),
    "from abjadnum import nope":
        ([], "ImportError(\"cannot import name 'nope' from 'abjadnum'\")"),
    "abjadnum.nope": ([], "AttributeError(\"module 'abjadnum' has no attribute 'nope'\")"),
}

_LAZY = """\
import sys

def loaded():
    return sorted(name[9:] for name in sys.modules if name.startswith("abjadnum."))

import abjadnum
bare = loaded()
try:
    exec(STATEMENT)
    error = None
except Exception as err:
    # An ImportError's text goes on to name the package's file.
    error = f"{type(err).__name__}({str(err).split(' (')[0]!r})"
print(repr(dict(bare=bare, loaded=loaded(), error=error)))
"""


def test_a_first_use_loads_only_the_modules_it_needs(statement):
    seen = ast.literal_eval(fresh(_LAZY, STATEMENT=statement))
    modules, error = LAZY_LOADS[statement]
    assert seen == dict(bare=[], loaded=modules, error=error)


# Each subcommand -> a first cli.main call, what it prints, and the library
# modules it loads after `import abjadnum.cli`.
CLI_LOADS = {
    "encode": (["encode", "--alphabet", "arabic", "1245"], "همرغ\n", ["codec", "digits"]),
    "decode": (["decode", "--alphabet", "arabic", "همرغ"], "1245\n", ["codec"]),
    "gematria": (["gematria", "--alphabet", "arabic", "احمد زينب"], "122\n", ["codec"]),
    "translit": (["translit", "--from", "western", "--to", "mashreki", "1225"], "١٢٢٥\n",
                 ["digits"]),
    "read": (["read", "--direction", "ltr", "12457892"], "12 millions 457 mille 892\n",
             ["digits", "reading"]),
    "provenance": (["provenance", "--script", "western", "0"],
                   "arabic Sad ص: first letter of the word Sifr, the Arabic name of zero; "
                   "not picked for its letter value\n", ["digits"]),
    "hijri": (["hijri", "1225"], "1810\n", ["chronology", "digits"]),
}

# What argparse's import and its first message load; a well-formed call reads
# its argv itself and loads none of them.
PARSING = {"argparse", "gettext", "locale"}

_CLI = """\
import io, sys

def loaded():
    return {name[9:] for name in sys.modules if name.startswith("abjadnum.")}

before = set(sys.modules)
from abjadnum import cli
imported = loaded()
stdout, sys.stdout = sys.stdout, io.StringIO()
code = cli.main(ARGV)
printed, sys.stdout = sys.stdout.getvalue(), stdout
called = set(sys.modules)
modules = loaded() - imported
digits = sys.modules.get("abjadnum.digits")
cli.build_parser()
print(repr(dict(
    imported=sorted(imported), called=sorted(modules), code=code, printed=printed,
    parsing_or_json=sorted((PARSING | {"json"}) & (called - before)),
    filled=sum(map(len, digits._PROVENANCE.values())) if digits else 0,
    preloaded=sorted(PARSING & before),
    built=sorted(PARSING & (set(sys.modules) - called)),
)))
"""


def test_a_cli_call_loads_only_the_modules_of_its_subcommand(command):
    argv, printed, modules = CLI_LOADS[command]
    seen = ast.literal_eval(fresh(_CLI, ARGV=argv, PARSING=PARSING))
    built = seen.pop("built") + seen.pop("preloaded")
    assert seen == dict(imported=["alphabets", "cli", "errors"], called=modules, code=0,
                        printed=printed, parsing_or_json=[],
                        filled=30 if command == "provenance" else 0)
    # A parser build is what loads argparse, unless site already had.
    assert "argparse" in built


_NAMESPACE = """\
import importlib, sys
import abjadnum

public = list(abjadnum.__all__)
listed = set(dir(abjadnum))
star = {}
exec("from abjadnum import *", star)
modules = [importlib.import_module(f"abjadnum.{name}") for name in MODULES]
# Each public name is bound in the package, to the object in every module
# that holds it (an error class is held by errors and by its importers).
print(repr(dict(
    public=public,
    unlisted=sorted(set(public + MODULES) - listed),
    unbound=sorted(set(public) - set(vars(abjadnum))),
    star=sorted(set(star) - {"__builtins__"}),
    homeless=sorted(name for name in public if not any(name in vars(m) for m in modules)),
    differing=sorted(
        name for name in public
        if any(getattr(abjadnum, name) is not vars(m)[name] for m in modules if name in vars(m))
        or star[name] is not getattr(abjadnum, name)
    ),
    submodules=[getattr(abjadnum, name) is m for name, m in zip(MODULES, modules)],
)))
"""


def test_every_public_name_is_the_object_in_its_module():
    seen = ast.literal_eval(fresh(_NAMESPACE, MODULES=MODULES))
    assert seen == dict(public=PUBLIC, unlisted=[], unbound=[], star=sorted(PUBLIC),
                        homeless=[], differing=[], submodules=[True] * len(MODULES))


# Eight threads each read every public name and module of the package, 50
# rounds over, each round from a fresh package.  Each thread asks in its own
# order, so they start on different modules, and each must get the object
# bound after the round: for a module, the one imported.
_PACKAGE_RACE = Race((PACKAGE,), """\
import importlib, sys
import abjadnum
from support import race_rounds

NAMES = list(abjadnum.__all__) + MODULES

def check(outs, expected):
    return [name for out in outs for name, got in out.items() if got is not expected[name]] + [
        name for name in MODULES if expected[name] is not importlib.import_module(f"abjadnum.{name}")]

ORDERS = [NAMES[5 * i:] + NAMES[:5 * i] for i in range(8)]
print(repr(race_rounds(lambda name: getattr(sys.modules["abjadnum"], name), ORDERS, 50, TABLES,
                       check=check)))
""")


def test_threads_racing_the_first_access_get_the_same_objects():
    seen = _PACKAGE_RACE.run(MODULES=MODULES)
    assert seen == dict(errors=[], stuck=0, calls=8 * 50, differing=0, faults=[])

"""Start-up loads only what the call uses.

``import abjadnum`` loads none of its modules: the first use of a public
name imports the module that exports it (and what that module imports).
``unicodedata`` is imported by the skip rule of codec on its first miss, and
the digit-provenance TSV is read on the first ``digit_provenance`` call.
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

from support import fresh

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
}

# What the call under test should load, when site has not already.
LOADS = {
    "decode-harakat": {"unicodedata"},
    "gematria-shadda": {"unicodedata"},
    "cli-provenance-json": set(),
    "cli-gematria-json": {"unicodedata"},
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
filled_at_import = sum(map(len, digits._PROVENANCE.values()))

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
    filled_at_import=filled_at_import,
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


def test_import_loads_neither_json_nor_unicodedata_nor_the_provenance_table():
    seen = _first_call("None")
    assert DEFERRED.isdisjoint(seen["imported"]), seen
    assert "json" not in seen["cli"], seen
    assert NEVER_LOADED.isdisjoint(seen["cli"]), seen
    assert seen["filled_at_import"] == 0


def test_a_plain_cli_call_loads_no_json():
    seen = _first_call('cli.main(["encode", "--alphabet", "arabic", "1245"])')
    assert (seen["result"], seen["printed"]) == ("0", "همرغ\n")
    assert "json" not in seen["cli"] + seen["called"], seen
    assert seen["filled"] == 0


def test_a_json_cli_call_loads_no_json():
    seen = _first_call('cli.main(["encode", "--alphabet", "arabic", "--json", "1245"])')
    assert (seen["result"], seen["printed"]) == ("0", (
        '{"alphabet": "arabic", "value": 1245, "text": "همرغ", "letters": ['
        '{"codepoint": "ه", "name": "Haa", "value": 5}, '
        '{"codepoint": "م", "name": "Mim", "value": 40}, '
        '{"codepoint": "ر", "name": "Raa", "value": 200}, '
        '{"codepoint": "غ", "name": "Ghin", "value": 1000}]}\n'
    ))
    assert "json" not in seen["cli"] + seen["called"], seen
    assert seen["filled"] == 0


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
    # The call itself loaded what it needs, and the warm process already had.
    assert LOADS.get(first_use, set()) - set(cold["preloaded"]) <= set(cold["called"]), cold
    assert DEFERRED.isdisjoint(warm["called"]), warm
    assert "json" not in cold["called"], cold
    assert NEVER_LOADED.isdisjoint(cold["cli"] + cold["called"]), cold
    assert cold["filled"] == (30 if first_use in READS_PROVENANCE else 0)


def test_the_not_a_script_message_is_the_lookup_message():
    seen = _first_call(FIRST_USES["provenance-not-a-script"])
    assert seen["result"] == repr(ValueError("script must be a DigitScript, not str"))


_CONCURRENT = """\
from abjadnum import Alphabet, DigitScript, decode, digit_provenance, digits
from support import race

THREADS, ROUNDS = 8, 200
WORDS = "بِسْمِ اللّٰهِ".split()
PAIRS = [(script, digit) for script in DigitScript for digit in range(10)]
results, errors, stuck = [], [], 0

def first_use():
    results.append(([digit_provenance(d, s) for s, d in PAIRS],
                    [decode(word, Alphabet.ARABIC) for word in WORDS]))

# Round 0 is the first use of everything; each later round empties the
# provenance table, so that its first use races again.
for round_ in range(ROUNDS):
    if round_:
        digits._PROVENANCE.clear()
    raised, alive = race(first_use, [()] * THREADS)
    errors += raised
    stuck += alive
alone = ([digit_provenance(d, s) for s, d in PAIRS],
         [decode(word, Alphabet.ARABIC) for word in WORDS])
print(repr(dict(
    errors=sorted(set(errors)),
    stuck=stuck,
    calls=len(results) + len(errors),
    differing=sum(result != alone for result in results),
    pairs=len(alone[0]),
    words=alone[1],
)))
"""


def test_a_concurrent_first_use_sees_whole_tables():
    seen = ast.literal_eval(fresh(_CONCURRENT))
    assert seen == dict(
        errors=[], stuck=0, calls=8 * 200, differing=0, pairs=30, words=[102, 66]
    )


_GROUP_RACE = """\
import random
from abjadnum import Group, NumberReading, RankComponent, decompose, format_reading, reading
from support import race

THREADS, ROUNDS = 8, 50
rng = random.Random(19)
NUMBERS = [rng.randrange(10 ** rng.randint(1, 15)) for _ in range(200)] + [0, 10**12 + 5]
results, errors, stuck = [], [], 0

def rank_loop(n):
    groups, rest = [], n
    while True:
        value = rest % 1000
        components = tuple(
            RankComponent(rank, value // scale % 10 * scale)
            for rank, scale in (("units", 1), ("tens", 10), ("hundreds", 100))
            if value // scale % 10
        )
        groups.append(Group(len(groups), value, components))
        rest //= 1000
        if not rest:
            return NumberReading(n, tuple(groups))

def first_use(order):
    results.append({n: decompose(n) for n in order})

EXPECTED = {n: rank_loop(n) for n in NUMBERS}
calls = differing = unshared = 0
# Each round empties every group table, so that its first use races again;
# each thread reads the numbers in its own order, so they miss on different ones.
for _ in range(ROUNDS):
    for table in reading._GROUPS:
        table.clear()
    results.clear()
    raised, alive = race(first_use, [(NUMBERS[25 * i:] + NUMBERS[:25 * i],)
                                     for i in range(THREADS)])
    errors += raised
    stuck += alive
    calls += len(results)
    for readings in results:
        differing += readings != EXPECTED
        differing += any(
            format_reading(readings[n], "rtl", LABELS) != format_reading(EXPECTED[n], "rtl", LABELS)
            for n in NUMBERS
        )
        # A record of a shared index is the one its table holds.
        unshared += sum(
            group is not table[group.value]
            for got in readings.values()
            for group, table in zip(got.groups, reading._GROUPS)
        )
print(repr(dict(
    errors=sorted(set(errors)),
    stuck=stuck,
    calls=calls,
    differing=differing,
    unshared=unshared,
    tables=len(reading._GROUPS),
    largest=max(map(len, reading._GROUPS)),
)))
"""


def test_threads_racing_the_first_reading_share_whole_group_records():
    seen = ast.literal_eval(fresh(_GROUP_RACE, LABELS=tuple(f"L{i}" for i in range(6))))
    assert seen.pop("largest") <= 1000, seen
    assert seen == dict(errors=[], stuck=0, calls=8 * 50, differing=0, unshared=0, tables=4)


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

_CLI = """\
import io, sys

def loaded():
    return {name[9:] for name in sys.modules if name.startswith("abjadnum.")}

from abjadnum import cli
imported = loaded()
stdout, sys.stdout = sys.stdout, io.StringIO()
code = cli.main(ARGV)
printed, sys.stdout = sys.stdout.getvalue(), stdout
print(repr(dict(imported=sorted(imported), called=sorted(loaded() - imported), code=code,
                printed=printed)))
"""


def test_a_cli_call_loads_only_the_modules_of_its_subcommand(command):
    argv, printed, modules = CLI_LOADS[command]
    seen = ast.literal_eval(fresh(_CLI, ARGV=argv))
    assert seen == dict(imported=["alphabets", "cli", "errors"], called=modules, code=0,
                        printed=printed)


# What argparse's import and its first message load; a well-formed call reads
# its argv itself and loads none of them.
PARSING = {"argparse", "gettext", "locale"}

_NO_PARSER = """\
import io, sys
before = set(sys.modules)
from abjadnum import cli
stdout, sys.stdout = sys.stdout, io.StringIO()
code = cli.main(ARGV)
sys.stdout = stdout
called = set(sys.modules)
cli.build_parser()
print(repr(dict(code=code, preloaded=sorted(PARSING & before),
                called=sorted(PARSING & (called - before)),
                built=sorted(PARSING & (set(sys.modules) - called)))))
"""


def test_a_well_formed_cli_call_loads_no_argparse(command):
    seen = ast.literal_eval(fresh(_NO_PARSER, ARGV=CLI_LOADS[command][0], PARSING=PARSING))
    assert (seen["code"], seen["called"]) == (0, []), seen
    # A parser build is what loads argparse, unless site already had.
    assert "argparse" in seen["built"] + seen["preloaded"], seen


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


_RACE = """\
import importlib, sys
from support import race

THREADS, ROUNDS = 8, 50

def first_access(names, out):
    out.append([getattr(abjadnum, name) for name in names])

errors, stuck, differing, calls = [], 0, 0, 0
for _ in range(ROUNDS):
    # Each round starts from a fresh package, so the first access races again.
    for name in [name for name in sys.modules if name.split(".")[0] == "abjadnum"]:
        del sys.modules[name]
    import abjadnum
    names = list(abjadnum.__all__) + MODULES
    # Each thread asks in its own order, so they start on different modules.
    orders = [names[5 * i:] + names[:5 * i] for i in range(THREADS)]
    outs = [[] for _ in range(THREADS)]
    raised, alive = race(first_access, list(zip(orders, outs)))
    errors += raised
    stuck += alive
    alone = {name: getattr(abjadnum, name) for name in names}
    for order, out in zip(orders, outs):
        calls += len(out)
        differing += sum(got is not alone[name]
                         for values in out for name, got in zip(order, values))
    modules = [importlib.import_module(f"abjadnum.{name}") for name in MODULES]
    differing += sum(alone[name] is not module for name, module in zip(MODULES, modules))
print(repr(dict(errors=sorted(set(errors)), stuck=stuck, calls=calls, differing=differing)))
"""


def test_threads_racing_the_first_access_get_the_same_objects():
    seen = ast.literal_eval(fresh(_RACE, MODULES=MODULES))
    assert seen == dict(errors=[], stuck=0, calls=8 * 50, differing=0)

"""Start-up loads only what the call uses.

``json`` is imported by the CLI for --json output only, ``unicodedata`` by
the skip rule of codec on its first miss, and the digit-provenance TSV is
read on the first ``digit_provenance`` call.  ``dataclasses`` and
``inspect`` (whose import pulls in ``ast``, ``dis`` and ``tokenize``) are
never loaded, neither by the import nor by a call.  Each case runs in a fresh
interpreter with this checkout's ``src`` on PYTHONPATH, and compares
``sys.modules`` before and after, so a ``site`` that already imports one
of these modules does not fail it.

Parametrised by ``pytest_generate_tests`` rather than pytest.mark, so that
the module imports no pytest and its tests can be called without it.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

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
    "cli-provenance-json": {"json"},
    "cli-gematria-json": {"json", "unicodedata"},
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


def _fresh(code: str, **names) -> str:
    """stdout of `code` in a fresh interpreter, `names` bound as literals."""
    prelude = "".join(f"{name} = {value!r}\n" for name, value in names.items())
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run([sys.executable, "-c", prelude + code], capture_output=True,
                          env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr.decode("utf-8", "replace")
    return proc.stdout.decode("utf-8")


def _first_call(call: str, warm_up=()) -> dict:
    """What one fresh process saw: `call` run right after import and `warm_up`."""
    return ast.literal_eval(
        _fresh(_SCRIPT, CALL=call, WARM_UP=list(warm_up), DEFERRED=DEFERRED,
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


def pytest_generate_tests(metafunc):
    if "first_use" in metafunc.fixturenames:
        metafunc.parametrize("first_use", list(FIRST_USES))


def test_a_first_use_answers_as_a_warm_process(first_use):
    call = FIRST_USES[first_use]
    cold = _first_call(call)
    warm = _first_call(call, warm_up=FIRST_USES.values())
    assert (cold["result"], cold["printed"]) == (warm["result"], warm["printed"])
    # The call itself loaded what it needs, and the warm process already had.
    assert LOADS.get(first_use, set()) - set(cold["preloaded"]) <= set(cold["called"]), cold
    assert DEFERRED.isdisjoint(warm["called"]), warm
    assert NEVER_LOADED.isdisjoint(cold["cli"] + cold["called"]), cold
    assert cold["filled"] == (30 if first_use in READS_PROVENANCE else 0)


def test_the_not_a_script_message_is_the_lookup_message():
    seen = _first_call(FIRST_USES["provenance-not-a-script"])
    assert seen["result"] == repr(ValueError("script must be a DigitScript, not str"))


_CONCURRENT = """\
import sys, threading
from abjadnum import Alphabet, DigitScript, decode, digit_provenance, digits

THREADS, ROUNDS = 8, 200
WORDS = "بِسْمِ اللّٰهِ".split()
PAIRS = [(script, digit) for script in DigitScript for digit in range(10)]
barrier = threading.Barrier(THREADS, timeout=60)
results, errors, stuck = [], [], 0

def first_use():
    barrier.wait()
    try:
        results.append(([digit_provenance(d, s) for s, d in PAIRS],
                        [decode(word, Alphabet.ARABIC) for word in WORDS]))
    except Exception as err:
        errors.append(repr(err))

# Round 0 is the first use of everything; each later round empties the
# provenance table, so that its first use races again.
sys.setswitchinterval(1e-6)  # switch threads as often as the interpreter can
try:
    for round_ in range(ROUNDS):
        if round_:
            digits._PROVENANCE.clear()
        threads = [threading.Thread(target=first_use) for _ in range(THREADS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
            stuck += thread.is_alive()
finally:
    sys.setswitchinterval(0.005)
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
    seen = ast.literal_eval(_fresh(_CONCURRENT))
    assert seen == dict(
        errors=[], stuck=0, calls=8 * 200, differing=0, pairs=30, words=[102, 66]
    )

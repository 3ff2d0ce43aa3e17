"""Smoke-test an installed abjadnum from outside its checkout.

    python tools/smoke.py

Run it from a directory outside the checkout, where ``import abjadnum``
finds the installed package (or a copy of ``src/abjadnum`` on PYTHONPATH),
so that package and its data/*.tsv files are what runs.  Each check runs
one fresh ``python`` process, as a user would, and prints one JSON line:
the check's name and ``ok``, and on failure what the process gave.  The
first check finds where ``abjadnum`` imports from; if that is inside this
checkout, or nowhere, the script refuses to run the others.  A summary goes
to stderr, and the exit status is 1 if any check failed.
"""

import functools
import json
import subprocess
import sys
from pathlib import Path

CHECKOUT = Path(__file__).resolve().parent.parent
TIMEOUT_S = 60


@functools.cache
def _run(args: tuple[str, ...]) -> subprocess.CompletedProcess:
    # Cached: an exit status and the stderr it printed are two checks of one run.
    return subprocess.run([sys.executable, *args], capture_output=True,
                          encoding="utf-8", errors="replace", timeout=TIMEOUT_S)


def _cli(*argv: str) -> tuple[str, ...]:
    return ("-m", "abjadnum", *argv)


def _prints(expected: str):
    return lambda proc: (proc.returncode, proc.stdout) == (0, expected + "\n")


def _exits(code: int):
    return lambda proc: proc.returncode == code


def _first_error_line(prefix: str):
    return lambda proc: proc.stderr.partition("\n")[0].startswith(prefix)


def _succeeds(proc) -> bool:
    return proc.returncode == 0


def _outside_checkout(proc) -> bool:
    return proc.returncode == 0 and not Path(proc.stdout.strip()).resolve().is_relative_to(
        CHECKOUT
    )


def _reads_western_zero(proc) -> bool:
    payload = json.loads(proc.stdout)
    return (payload["digit"], payload["letter"]["name"]) == (0, "Sad")


# (name, arguments to python, test of the finished process), in order.
CHECKS = [
    ("installed-outside-checkout", ("-c", "import abjadnum; print(abjadnum.__file__)"),
     _outside_checkout),
    ("gematria", _cli("gematria", "--alphabet", "arabic", "احمد زينب"), _prints("122")),
    ("read", _cli("read", "12457892"),
     _prints("2 et 90 et 800 ; 7 et 50 et 400 mille ; 2 et 10 millions")),
    ("translit", _cli("translit", "--from", "mashreki", "--to", "original", "١٢٤٥/٠٣/١٧"),
     _prints("1254/03/17")),
    # A strict decode prints a canonical word's value and exits 1 with a
    # NonCanonical error on the same letters reversed.
    ("decode-strict", _cli("decode", "--alphabet", "arabic", "--strict", "همرغ"),
     _prints("1245")),
    ("decode-noncanonical-exit", _cli("decode", "--alphabet", "arabic", "--strict", "غرمه"),
     _exits(1)),
    ("decode-noncanonical-error", _cli("decode", "--alphabet", "arabic", "--strict", "غرمه"),
     _first_error_line("ERROR NonCanonical: ")),
    # Encode and strict decode reach the last entries of the two-digit tables
    # (1999, Hebrew 499), and encode exits 1 with an OutOfRange error one past
    # the Arabic limit.
    ("encode-arabic", _cli("encode", "--alphabet", "arabic", "1245"), _prints("همرغ")),
    ("encode-hebrew-499", _cli("encode", "--alphabet", "hebrew", "499"), _prints("טצת")),
    ("decode-strict-1999", _cli("decode", "--alphabet", "arabic", "--strict", "طصظغ"),
     _prints("1999")),
    ("encode-out-of-range-exit", _cli("encode", "--alphabet", "arabic", "2000"), _exits(1)),
    ("encode-out-of-range-error", _cli("encode", "--alphabet", "arabic", "2000"),
     _first_error_line("ERROR OutOfRange: ")),
    # A reading of four groups reaches the last shared group table (index 3);
    # one of five groups, past it, reads with five labels and exits 1 with
    # InsufficientLabels under the default four.
    ("read-four-groups", _cli("read", "--direction", "ltr", "999999999999"),
     _prints("999 milliards 999 millions 999 mille 999")),
    ("read-five-labels", _cli("read", "--direction", "ltr", "--labels", ",k,M,G,T",
                              "1002003004005"),
     _prints("1 T 2 G 3 M 4 k 5")),
    ("read-insufficient-labels-exit", _cli("read", "1002003004005"), _exits(1)),
    ("read-insufficient-labels-error", _cli("read", "1002003004005"),
     _first_error_line("ERROR InsufficientLabels: ")),
    # Gematria alternates two ignore sets, each a letter that then counts 0,
    # and none, in one process.
    ("gematria-ignore", ("-c", "from abjadnum import Alphabet, gematria; r = gematria('احمد، زينب', Alphabet.ARABIC, ignore='،'); assert (r.total, r.per_word) == (122, (('احمد،', 53), ('زينب', 69))), r"),
     _succeeds),
    ("gematria-alternating-ignore", ("-c", "from abjadnum import Alphabet, gematria; totals = [gematria('احمد زينب', Alphabet.ARABIC, ignore=i).total for i in ('ا', 'ب', 'ا', '')]; assert totals == [121, 120, 121, 122], totals"),
     _succeeds),
    # A str subclass is read as its plain value, whatever its own translate
    # returns.
    ("transliterate-str-subclass", ("-c", "from abjadnum import DigitScript as D, transliterate; S = type('S', (str,), {'translate': lambda *a: 'zz'}); r = transliterate(S('12'), D.WESTERN, D.MASHREKI_EASTERN); assert r == '١٢', r"),
     _succeeds),
    # Importing the CLI loads neither json nor unicodedata and reads no
    # provenance row; a bare import loads no module of the package, and
    # gematria loads none of digits, reading and chronology.
    ("import-cli-is-lean", ("-c", "import sys; before = set(sys.modules); import abjadnum.cli; loaded = {'json', 'unicodedata'} & (set(sys.modules) - before); assert not loaded and not abjadnum.digits._PROVENANCE, loaded"),
     _succeeds),
    ("bare-import-loads-no-module", ("-c", "import sys, abjadnum; loaded = [m for m in sys.modules if m.startswith('abjadnum.')]; assert not loaded, loaded"),
     _succeeds),
    ("gematria-loads-only-codec", ("-c", "import sys; from abjadnum import gematria; loaded = {'abjadnum.digits', 'abjadnum.reading', 'abjadnum.chronology'} & set(sys.modules); assert not loaded, loaded"),
     _succeeds),
    # An unknown option goes to argparse's one parser of all seven commands:
    # it exits 2 with the usage line that names them all.  A well-formed
    # hijri call loads neither codec nor reading.
    ("unknown-option-exit", _cli("hijri", "--bogus", "7"), _exits(2)),
    ("unknown-option-usage", _cli("hijri", "--bogus", "7"),
     lambda proc: "{encode,decode,gematria,translit,read,provenance,hijri}" in proc.stderr),
    ("hijri-loads-neither-codec-nor-reading", ("-c", "import sys; from abjadnum import cli; cli.main(['hijri', '1225']); loaded = {'abjadnum.codec', 'abjadnum.reading'} & set(sys.modules); assert not loaded, loaded"),
     _succeeds),
    # A well-formed call reads its own argv: no argparse, gettext or locale.
    ("cli-call-loads-no-argparse", ("-c", "import sys; before = set(sys.modules); from abjadnum import cli; code = cli.main(['hijri', '1225']); loaded = {'argparse', 'gettext', 'locale'} & (set(sys.modules) - before); assert code == 0 and not loaded, (code, loaded)"),
     _succeeds),
    # The provenance call reads the installed TSV on first use.
    ("provenance-json-exit", _cli("provenance", "--script", "western", "0", "--json"),
     _succeeds),
    ("provenance-json-payload", _cli("provenance", "--script", "western", "0", "--json"),
     _reads_western_zero),
    # The CLI writes its --json line without importing json.
    ("json-output-loads-no-json", ("-c", "import sys; before = set(sys.modules); from abjadnum import cli; code = cli.main(['provenance', '--script', 'western', '0', '--json']); loaded = {'json'} & (set(sys.modules) - before); assert code == 0 and not loaded, (code, loaded)"),
     lambda proc: _succeeds(proc) and _reads_western_zero(proc)),
]


def _passes(test, proc) -> bool:
    try:
        return bool(test(proc))
    except Exception:  # a payload that is not what the test reads fails it
        return False


def main() -> int:
    failed = 0
    for number, (name, args, test) in enumerate(CHECKS):
        try:
            proc = _run(args)
            ok = _passes(test, proc)
            got = {"exit": proc.returncode, "stdout": proc.stdout[-300:],
                   "stderr": proc.stderr[-300:]}
        except subprocess.TimeoutExpired:
            ok, got = False, f"timed out after {TIMEOUT_S} s"
        record = {"check": name, "ok": ok}
        if not ok:
            record["got"] = got
        print(json.dumps(record), flush=True)
        if not ok and number == 0:
            print(f"refusing to run: abjadnum must import from outside {CHECKOUT}",
                  file=sys.stderr)
            return 1
        failed += not ok
    print(f"{len(CHECKS) - failed}/{len(CHECKS)} smoke checks passed", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

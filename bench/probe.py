"""Set-up cost of one workload in a fresh interpreter, printed in seconds.

    PYTHONPATH=src python3 bench/probe.py manuscript
    PYTHONPATH=src python3 bench/probe.py manuscript --heap

Times the import of the modules the workload uses plus the first call of
each operation it runs.  Work moved into import time or into lazy first
calls shows here.  Nothing else is imported before the clock starts.

With ``--heap`` it prints instead the KiB of Python memory that the same
import and first calls leave allocated, traced by tracemalloc: the
library's tables, modules and caches, apart from the interpreter and the
benchmark.  Tracing slows the import, so the two are separate runs.
"""

import sys
import time

HEAP = sys.argv[2:] == ["--heap"]
if HEAP:
    import tracemalloc

    tracemalloc.start()
start = time.perf_counter()
workload = sys.argv[1]
if workload == "manuscript":
    from abjadnum import Alphabet, decode, gematria

    gematria("بِسْمِ اللّه،", Alphabet.ARABIC, "،")
    gematria("בְּרֵאשִׁית", Alphabet.HEBREW)
    decode("غرمه", Alphabet.ARABIC)
    decode("همرغ", Alphabet.ARABIC, strict=True)
elif workload == "numbers":
    from abjadnum import (Alphabet, DigitScript, decompose, encode, format_reading,
                          gregorian_to_hijri_year, hijri_to_gregorian_year, parse_digits,
                          render_digits, transliterate)

    encode(1245, Alphabet.ARABIC)
    parse_digits(render_digits(1225, DigitScript.MASHREKI_EASTERN), DigitScript.MASHREKI_EASTERN)
    transliterate("1225/03/14", DigitScript.WESTERN, DigitScript.ORIGINAL_MAGHREBI)
    format_reading(decompose(12457892), "ltr")
    hijri_to_gregorian_year(1225)
    gregorian_to_hijri_year(1810)
elif workload == "cli":
    import io

    from abjadnum import cli

    stdout = sys.stdout
    sys.stdout = io.StringIO()
    try:
        for argv in (
            ["encode", "--alphabet", "arabic", "1245"],
            ["decode", "--alphabet", "arabic", "--strict", "همرغ"],
            ["gematria", "--alphabet", "arabic", "احمد زينب"],
            ["translit", "--from", "western", "--to", "mashreki", "1225"],
            ["read", "--direction", "ltr", "12457892"],
            ["provenance", "--script", "western", "0"],
            ["hijri", "--json", "1225"],
        ):
            cli.main(argv)
    finally:
        sys.stdout = stdout
else:
    sys.exit(f"unknown workload {workload!r}")
elapsed = time.perf_counter() - start
print(tracemalloc.get_traced_memory()[0] / 1024 if HEAP else elapsed)

"""Golden transcript of the CLI: each row is one in-process ``cli.main`` call.

A row of ``data/cli_transcript.json`` holds argv and stdin and the exit
code, stdout and stderr they gave.  argparse wraps its usage text to the
terminal width, so for a row that argparse rejects (stderr starting with
``usage: ``) stderr is compared as its words, with each run of whitespace
taken as one break: the usage line and the error line are both checked,
whatever the width and the interpreter.  Inside ``(choose from ...)`` the
quotes around each choice are dropped on both sides, since argparse writes
them on some interpreters and not on others; the rejected value is
compared as written.

``python tests/test_cli_transcript.py`` rewrites the file from the CLI as it
stands, keeping each row's argv and stdin.  The file is the one table of CLI
input -> output examples.
"""

import json
import re
import sys
from pathlib import Path

from support import run_cli

TRANSCRIPT = Path(__file__).parent / "data" / "cli_transcript.json"

_CHOICES = re.compile(r"\(choose from [^)]*\)")
_QUOTED = re.compile(r"'([^']*)'")


def run(argv: list[str], stdin: str) -> dict:
    """The row of one ``main(argv)`` call reading `stdin`.

    The call runs under the interpreter's default digit limit, which the rows
    past 4300 digits pin, whatever ``PYTHONINTMAXSTRDIGITS`` says.
    """
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(sys.int_info.default_max_str_digits)
    try:
        code, stdout, stderr = run_cli(argv, stdin)
    finally:
        sys.set_int_max_str_digits(limit)
    return {"argv": argv, "stdin": stdin, "code": code, "stdout": stdout, "stderr": stderr}


def _rows() -> list[dict]:
    return json.loads(TRANSCRIPT.read_text(encoding="utf-8"))


def _row_id(row: dict) -> str:
    shown = " ".join(row["argv"])
    if row["stdin"]:
        shown += " <stdin"
        if not row["stdin"].removesuffix("\n").isprintable():  # CR or tab around the input
            shown += f" {row['stdin']!r}"
    return shown if len(shown) <= 60 else f"{shown[:60]}...({len(shown)})"


def pytest_generate_tests(metafunc):
    if "expected" in metafunc.fixturenames:
        rows = _rows()
        metafunc.parametrize("expected", rows, ids=[_row_id(row) for row in rows])


def _usage_words(stderr: str) -> list[str]:
    """The words of an argparse usage error, each listed choice unquoted."""
    return _CHOICES.sub(lambda choices: _QUOTED.sub(r"\1", choices[0]), stderr).split()


def test_row(expected):
    got = run(expected["argv"], expected["stdin"])
    if expected["stderr"].startswith("usage: ") and got["stderr"].startswith("usage: "):
        got["stderr"] = _usage_words(got["stderr"])
        expected = {**expected, "stderr": _usage_words(expected["stderr"])}
    assert got == expected


def test_no_two_rows_share_argv_and_stdin():
    """Each CLI example is one row.

    A new example needs only its ``argv`` and ``stdin``: append them as a
    row, and ``python tests/test_cli_transcript.py`` fills in the exit code,
    stdout and stderr.
    """
    keys = [(tuple(row["argv"]), row["stdin"]) for row in _rows()]
    assert len(keys) == len(set(keys))


if __name__ == "__main__":
    if sys.argv[1:]:
        sys.exit(f"usage: {sys.argv[0]}")
    rows = [run(row["argv"], row["stdin"]) for row in _rows()]
    TRANSCRIPT.write_text(json.dumps(rows, ensure_ascii=False, indent=1) + "\n", encoding="utf-8")

"""Golden transcript of the CLI: each row is one in-process ``cli.main`` call.

A row of ``data/cli_transcript.json`` holds argv and stdin and the exit
code, stdout and stderr they gave.  argparse wraps its usage text to the
terminal width, so for a row that argparse rejects (stderr starting with
``usage: ``) stderr is compared as its words, with each run of whitespace
taken as one break: the usage line and the error line are both checked,
whatever the width and the interpreter.

``python tests/test_cli_transcript.py`` rewrites the file from the CLI as it
stands, keeping each row's argv and stdin.
"""

import contextlib
import io
import json
import sys
import types
from pathlib import Path

from abjadnum.cli import main

TRANSCRIPT = Path(__file__).parent / "data" / "cli_transcript.json"


def run(argv: list[str], stdin: str) -> dict:
    """The row of one ``main(argv)`` call reading `stdin`."""
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = types.SimpleNamespace(buffer=io.BytesIO(stdin.encode("utf-8")))
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exit_:
                code = exit_.code
    finally:
        sys.stdin = saved
    return {"argv": argv, "stdin": stdin, "code": code,
            "stdout": out.getvalue(), "stderr": err.getvalue()}


def _rows() -> list[dict]:
    return json.loads(TRANSCRIPT.read_text(encoding="utf-8"))


def _row_id(row: dict) -> str:
    shown = " ".join(row["argv"])
    if row["stdin"]:
        shown += " <stdin"
    return shown if len(shown) <= 60 else f"{shown[:60]}...({len(shown)})"


def pytest_generate_tests(metafunc):
    if "expected" in metafunc.fixturenames:
        rows = _rows()
        metafunc.parametrize("expected", rows, ids=[_row_id(row) for row in rows])


def test_row(expected):
    got = run(expected["argv"], expected["stdin"])
    if expected["stderr"].startswith("usage: ") and got["stderr"].startswith("usage: "):
        got["stderr"] = got["stderr"].split()
        expected = {**expected, "stderr": expected["stderr"].split()}
    assert got == expected


if __name__ == "__main__":
    if sys.argv[1:]:
        sys.exit(f"usage: {sys.argv[0]}")
    rows = [run(row["argv"], row["stdin"]) for row in _rows()]
    TRANSCRIPT.write_text(json.dumps(rows, ensure_ascii=False, indent=1) + "\n", encoding="utf-8")

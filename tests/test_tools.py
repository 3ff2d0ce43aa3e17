"""The failure paths of ``tools/check_interpreters.py``.

Each case runs the checker as a process on an interpreter made to fail, and
reads its JSON lines and exit status.
"""

import json
import subprocess
import sys
from pathlib import Path

CHECKER = Path(__file__).resolve().parent.parent / "tools" / "check_interpreters.py"


def _check(python: Path) -> tuple[list[dict], int]:
    proc = subprocess.run([sys.executable, str(CHECKER), str(python)], capture_output=True,
                          text=True, timeout=600)
    return [json.loads(line) for line in proc.stdout.splitlines()], proc.returncode


def test_a_path_that_is_not_an_interpreter_fails_at_start(tmp_path):
    lines, code = _check(tmp_path)
    assert [(line["check"], line["ok"], line["version"]) for line in lines] == [
        ("start", False, None)
    ], lines
    assert code == 1


def test_an_interpreter_without_pytest_fails_tier1(tmp_path):
    # -S leaves site-packages off sys.path, and the checker puts only src on
    # PYTHONPATH, so pytest cannot be imported.
    python = tmp_path / "python"
    python.write_text(f'#!/bin/sh\nexec {sys.executable} -S "$@"\n')
    python.chmod(0o755)
    lines, code = _check(python)
    assert [line["check"] for line in lines] == ["smoke", "tier1"], lines
    smoke, tier1 = lines
    assert smoke["ok"], smoke
    assert "skipped" not in tier1 and not tier1["ok"], tier1
    assert "No module named pytest" in tier1["detail"], tier1
    assert code == 1

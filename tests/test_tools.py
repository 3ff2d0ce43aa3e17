"""The failure paths of ``tools/check_interpreters.py``.

Each case gives the checker an interpreter made to fail and reads its JSON
lines.  Most run the checker as a process and read its exit status too; the
failed build calls its functions in process, with ``sys.executable`` set to
an interpreter that cannot import setuptools.
"""

import importlib.util
import json
import runpy
import subprocess
import sys
from pathlib import Path

CHECKER = Path(__file__).resolve().parent.parent / "tools" / "check_interpreters.py"


def _check(python: Path) -> tuple[list[dict], int]:
    proc = subprocess.run([sys.executable, str(CHECKER), str(python)], capture_output=True,
                          text=True, timeout=600)
    return [json.loads(line) for line in proc.stdout.splitlines()], proc.returncode


def _without_site(tmp_path: Path) -> Path:
    """An interpreter that runs this one with -S: site-packages is off sys.path."""
    python = tmp_path / "python"
    python.write_text(f'#!/bin/sh\nexec {sys.executable} -S "$@"\n')
    python.chmod(0o755)
    return python


def test_a_path_that_is_not_an_interpreter_fails_at_start(tmp_path):
    lines, code = _check(tmp_path)
    assert [(line["check"], line["ok"], line["version"]) for line in lines] == [
        ("start", False, None)
    ], lines
    assert code == 1


def test_an_interpreter_without_pytest_fails_tier1(tmp_path):
    # -S leaves site-packages off sys.path, and the checker puts only the
    # built tree on PYTHONPATH, so pytest cannot be imported.
    lines, code = _check(_without_site(tmp_path))
    assert [line["check"] for line in lines] == ["tier1"], lines
    (tier1,) = lines
    # The checker builds with its own interpreter, this one: it can build only
    # where it has setuptools, which ensurepip no longer installs from 3.12 on.
    if importlib.util.find_spec("setuptools"):
        assert "No module named pytest" in tier1["detail"], tier1
    else:
        assert tier1["detail"] == "ModuleNotFoundError: No module named 'setuptools'", tier1
    assert "skipped" not in tier1 and not tier1["ok"], tier1
    assert code == 1


def test_a_failed_build_fails_each_tier1_line(tmp_path, monkeypatch, capsys):
    # The checker builds with its own interpreter.  Given one that cannot import
    # setuptools, the build fails, and each tier1 line gives the build's last line.
    checker = runpy.run_path(str(CHECKER))
    python = _without_site(tmp_path)
    monkeypatch.setattr(sys, "executable", str(python))
    built = checker["_build"](tmp_path)
    assert built == (None, "ModuleNotFoundError: No module named 'setuptools'")
    assert not checker["check"](str(python), None, built)
    lines = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert [(line["check"], line["ok"], line["detail"]) for line in lines] == [
        ("tier1", False, built[1])
    ], lines
    assert "console-script entry point is not checked" in lines[0]["tree"], lines[0]

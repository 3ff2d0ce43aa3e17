"""Run the repository's checks under each named Python interpreter.

    python3 tools/check_interpreters.py PYTHON... [--test-packages DIR]

For each interpreter, in order, it runs two checks from the repository root:

- ``smoke``: ``tools/smoke.py``, from a temp dir holding a copy of
  ``src/abjadnum``, which is then all that is on PYTHONPATH;
- ``tier1``: the Tier-1 command, ``-m pytest -q --continue-on-collection-errors``,
  with ``src`` (and DIR) on PYTHONPATH.  Before 3.11 it also puts
  ``tools/before_3_11`` there, for the test-only ``exceptiongroup`` stand-in,
  and its line says so.  An interpreter that cannot import pytest and
  hypothesis from its own site-packages or from DIR fails it.

DIR is a directory of pure-Python packages (pytest, hypothesis and what they
import) for interpreters that lack them.  Nothing is searched for or
installed.  Each check prints one JSON line: the interpreter, its version,
the check, ``ok``, the seconds taken and the last line of output.  The exit
status is 1 if any check failed.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

CHECKS = {
    "smoke": [str(ROOT / "tools" / "smoke.py")],
    "tier1": ["-m", "pytest", "-q", "--continue-on-collection-errors"],
}
# pytest and hypothesis import exceptiongroup before 3.11; a stand-in is here.
BEFORE_3_11 = ROOT / "tools" / "before_3_11"
TIMEOUT_S = 900


def _run(python: str, args: list[str], pythonpath: str,
         cwd: Path = ROOT) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": pythonpath}
    return subprocess.run([python, *args], cwd=cwd, env=env, capture_output=True,
                          text=True, errors="replace", timeout=TIMEOUT_S)


def _smoke(python: str, args: list[str]) -> subprocess.CompletedProcess:
    # The smoke script refuses a package that imports from inside the checkout.
    with tempfile.TemporaryDirectory() as tmp:
        shutil.copytree(ROOT / "src" / "abjadnum", Path(tmp) / "abjadnum",
                        ignore=shutil.ignore_patterns("__pycache__"))
        return _run(python, args, tmp, cwd=Path(tmp))


def _last_line(proc: subprocess.CompletedProcess) -> str:
    lines = (proc.stdout + proc.stderr).strip().splitlines()
    return lines[-1] if lines else ""


def check(python: str, packages: str | None) -> bool:
    """Print one JSON line per check of `python`; True if none failed."""
    pythonpath = os.pathsep.join(filter(None, [str(ROOT / "src"), packages]))
    try:
        probe = _run(python, ["-c", "import sys; print(sys.version.split()[0])"],
                     pythonpath)
    except OSError as err:
        probe = subprocess.CompletedProcess([python], 127, "", str(err))
    record = {"python": python, "version": probe.stdout.strip() if probe.returncode == 0 else None}
    if probe.returncode != 0:
        print(json.dumps({**record, "check": "start", "ok": False, "detail": _last_line(probe)}),
              flush=True)
        return False
    passed = True
    for name, args in CHECKS.items():
        line = {**record, "check": name}
        path = pythonpath
        if name == "tier1" and tuple(map(int, record["version"].split(".")[:2])) < (3, 11):
            path = os.pathsep.join([pythonpath, str(BEFORE_3_11)])
            line["with"] = "the exceptiongroup stand-in in tools/before_3_11"
        start = time.perf_counter()
        try:
            if name == "smoke":
                proc = _smoke(python, args)
            else:
                proc = _run(python, args, path)
            ok, detail = proc.returncode == 0, _last_line(proc)
        except subprocess.TimeoutExpired:
            ok, detail = False, f"timed out after {TIMEOUT_S} s"
        seconds = round(time.perf_counter() - start, 1)
        print(json.dumps({**line, "ok": ok, "seconds": seconds, "detail": detail}), flush=True)
        passed = passed and ok
    return passed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("pythons", nargs="+", metavar="PYTHON",
                        help="an interpreter to check, as a path or a command name")
    parser.add_argument("--test-packages", metavar="DIR",
                        help="a directory to put on PYTHONPATH for pytest and hypothesis")
    args = parser.parse_args(argv)
    results = [check(python, args.test_packages) for python in args.pythons]
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())

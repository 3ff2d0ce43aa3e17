"""Run the Tier-1 tests on the built package under each named Python interpreter.

    python3 tools/check_interpreters.py PYTHON... [--test-packages DIR]

It first builds the package once, with the interpreter running this script:
``python -c "import setuptools; setuptools.setup()" build --build-base B``,
run on a temp copy of ``pyproject.toml``, ``README.md`` and ``src``, so that
nothing is written into the checkout.  ``B/lib`` is then the tree a wheel
would hold, and that interpreter needs ``setuptools``.  For each
interpreter, in order, it runs one check, ``tier1``: the Tier-1 command,
``-m pytest -q --continue-on-collection-errors``, from the checkout root with
``B/lib`` (and DIR) on PYTHONPATH in place of ``src``, so that the package and
its data/*.tsv files as built are what the tests import.  The console-script
entry point is not checked this way, and the line says so.  Before 3.11 it
also puts ``tools/before_3_11`` there, for the test-only ``exceptiongroup``
stand-in, and its line says so.  If the build failed, each ``tier1`` line
fails with the build's last line.  An interpreter that cannot import pytest
and hypothesis from its own site-packages or from DIR fails it.

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

TIER1 = ["-m", "pytest", "-q", "--continue-on-collection-errors"]
# pytest and hypothesis import exceptiongroup before 3.11; a stand-in is here.
BEFORE_3_11 = ROOT / "tools" / "before_3_11"
TIMEOUT_S = 900


def _run(python: str, args: list[str], pythonpath: str,
         cwd: Path = ROOT) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": pythonpath}
    return subprocess.run([python, *args], cwd=cwd, env=env, capture_output=True,
                          text=True, errors="replace", timeout=TIMEOUT_S)


def _last_line(proc: subprocess.CompletedProcess) -> str:
    lines = (proc.stdout + proc.stderr).strip().splitlines()
    return lines[-1] if lines else ""


def _build(tmp: Path) -> tuple[Path | None, str]:
    """(B/lib, "") for the package built under `tmp`, or (None, the build's last line)."""
    source = tmp / "source"
    shutil.copytree(ROOT / "src", source / "src",
                    ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    for name in ("pyproject.toml", "README.md"):
        shutil.copy(ROOT / name, source / name)
    build = tmp / "build"
    try:
        proc = _run(sys.executable, ["-c", "import setuptools; setuptools.setup()", "build",
                                     "--build-base", str(build)], "", cwd=source)
    except subprocess.TimeoutExpired:
        return None, f"build timed out after {TIMEOUT_S} s"
    if proc.returncode != 0:
        return None, _last_line(proc)
    return build / "lib", ""


def check(python: str, packages: str | None, built: tuple[Path | None, str]) -> bool:
    """Print the JSON line of Tier-1 under `python` on the `built` tree; True if it passed."""
    lib, build_error = built
    pythonpath = os.pathsep.join(filter(None, [str(lib) if lib else None, packages]))
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
    line = {**record, "check": "tier1",
            "tree": "built by setuptools; the console-script entry point is not checked"}
    if tuple(map(int, record["version"].split(".")[:2])) < (3, 11):
        pythonpath = os.pathsep.join([pythonpath, str(BEFORE_3_11)])
        line["with"] = "the exceptiongroup stand-in in tools/before_3_11"
    start = time.perf_counter()
    try:
        if lib is None:
            ok, detail = False, build_error
        else:
            proc = _run(python, TIER1, pythonpath)
            ok, detail = proc.returncode == 0, _last_line(proc)
    except subprocess.TimeoutExpired:
        ok, detail = False, f"timed out after {TIMEOUT_S} s"
    seconds = round(time.perf_counter() - start, 1)
    print(json.dumps({**line, "ok": ok, "seconds": seconds, "detail": detail}), flush=True)
    return ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("pythons", nargs="+", metavar="PYTHON",
                        help="an interpreter to check, as a path or a command name")
    parser.add_argument("--test-packages", metavar="DIR",
                        help="a directory to put on PYTHONPATH for pytest and hypothesis")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        built = _build(Path(tmp))
        results = [check(python, args.test_packages, built) for python in args.pythons]
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())

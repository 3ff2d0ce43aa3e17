"""One helper per job the tests share: in-process CLI runs, fresh
interpreters, outcome checks against an oracle, and thread races.

No ``abjadnum`` module is imported here at the top level: a ``fresh`` child
imports this module for ``race``, and some children count what ``sys.modules``
holds.
"""

import contextlib
import io
import os
import subprocess
import sys
import threading
import types


def run_cli(argv, stdin=""):
    """The exit code, stdout and stderr of one in-process ``cli.main(argv)``.

    `stdin` is text (read as UTF-8), bytes, or None for a closed stdin.
    argparse's ``SystemExit`` gives its exit code.
    """
    from abjadnum.cli import main

    if isinstance(stdin, str):
        stdin = stdin.encode("utf-8")
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = None if stdin is None else types.SimpleNamespace(buffer=io.BytesIO(stdin))
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exit_:  # argparse's usage errors and help
                code = exit_.code
    finally:
        sys.stdin = saved
    return code, out.getvalue(), err.getvalue()


def fresh(code, **names):
    """stdout of `code` in a fresh interpreter, `names` bound as literals.

    The child finds the ``abjadnum`` this process imported, and this module,
    on its PYTHONPATH, and nothing else there.  It runs with ``-W error``, as
    pytest's own ``filterwarnings`` does, and must exit 0.
    """
    import abjadnum

    prelude = "".join(f"{name} = {value!r}\n" for name, value in names.items())
    path = os.pathsep.join([os.path.dirname(os.path.dirname(abjadnum.__file__)),
                           os.path.dirname(__file__)])
    proc = subprocess.run([sys.executable, "-W", "error", "-c", prelude + code],
                          capture_output=True, env={**os.environ, "PYTHONPATH": path},
                          timeout=120)
    assert proc.returncode == 0, proc.stderr.decode("utf-8", "replace")
    return proc.stdout.decode("utf-8")


def outcome(fn, *args):
    """``("value", fn(*args))``, or the type and text of its ``ValueError``."""
    try:
        return "value", fn(*args)
    except ValueError as err:
        return type(err), str(err)


def race(work, args):
    """Run ``work(*a)`` on one thread per tuple `a` of `args`, all released by
    one barrier, with the switch interval at its least.

    Returns the reprs of what the calls raised and the number of threads
    still alive after the wait.  The switch interval is put back as found.
    """
    barrier = threading.Barrier(len(args), timeout=60)
    errors = []

    def run(*a):
        try:
            barrier.wait()
            work(*a)
        except Exception as err:
            errors.append(repr(err))

    threads = [threading.Thread(target=run, args=a) for a in args]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads as often as the interpreter can
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    return errors, sum(thread.is_alive() for thread in threads)

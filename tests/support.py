"""One helper per job the tests share: in-process CLI runs, fresh
interpreters, outcome checks against an oracle, thread races and the rounds
of one.

No ``abjadnum`` module is imported here at the top level: a ``fresh`` child
imports this module for ``race``, and some children count what ``sys.modules``
holds.
"""

import ast
import contextlib
import importlib
import io
import os
import subprocess
import sys
import threading
import types
import typing


def run_cli(argv, stdin=""):
    """The exit code, stdout and stderr of one in-process ``cli.main(argv)``.

    `stdin` is text (read as UTF-8), bytes, or None for a closed stdin.
    """
    from abjadnum.cli import main

    if isinstance(stdin, str):
        stdin = stdin.encode("utf-8")
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = None if stdin is None else types.SimpleNamespace(buffer=io.BytesIO(stdin))
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
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


# The name that stands, among the tables a race restores, for the package's
# own globals, where each lazy name is bound on its first use.
PACKAGE = "abjadnum"


class Race(typing.NamedTuple):
    """A thread race: `script` runs in a fresh interpreter and prints the
    summary of ``race_rounds`` over TABLES, bound to `tables`.

    The tables a first call fills are checked against those that the Race of
    each test module names.
    """

    tables: tuple
    script: str

    def run(self, **names):
        return ast.literal_eval(fresh(self.script, TABLES=self.tables, **names))


def race_rounds(call, orders, rounds, tables, expected=None, check=None):
    """Race the first calls `rounds` times over; the summary of all rounds.

    Each round first puts back each table named in `tables`
    (``"codec._TEXTS"`` is ``abjadnum.codec._TEXTS``), and each dict it
    holds, as the first round found them: in a fresh interpreter that has
    made no call yet, as import left them.  PACKAGE is put back by importing
    the package afresh.  Then `race` releases one thread per order, which
    calls ``call(key)`` for each key of its order.  Each outcome is compared
    with ``expected[key]``, or with that of one more call made alone after
    the round when `expected` is None, and ``check(outs, expected)`` gets
    each finished thread's {key: outcome} and returns the faults it finds.
    """
    saved = [(table, dict(table)) for name in tables if name != PACKAGE
             for table in _dicts(name)]
    errors, faults, stuck, calls, differing = [], [], 0, 0, 0
    for _ in range(rounds):
        if PACKAGE in tables:
            for name in [name for name in sys.modules if name.split(".")[0] == PACKAGE]:
                del sys.modules[name]
            importlib.import_module(PACKAGE)
        for table, items in saved:
            table.clear()
            table.update(items)
        outs = []
        raised, alive = race(lambda order: outs.append({key: call(key) for key in order}),
                             [(order,) for order in orders])
        errors += raised
        stuck += alive
        calls += len(outs)
        alone = ({key: call(key) for order in orders for key in order} if expected is None
                 else expected)
        differing += sum(got != alone[key] for out in outs for key, got in out.items())
        if check is not None:
            faults += check(outs, alone)
    return dict(errors=sorted(set(errors)), stuck=stuck, calls=calls, differing=differing,
                faults=sorted(set(faults), key=repr))


def _dicts(name):
    """The named table, if a dict, and each dict it holds."""
    module, _, attr = name.rpartition(".")
    table = getattr(importlib.import_module(f"{PACKAGE}.{module}"), attr)
    return [held for held in (table, *(table.values() if isinstance(table, dict) else table))
            if isinstance(held, dict)]


def reference_decompose(n):
    """The reading of `n`, by a loop over its 3-digit groups and their ranks."""
    from abjadnum import Group, NumberReading, RankComponent

    if isinstance(n, bool) or not isinstance(n, int):
        raise ValueError(f"n must be an int, not {type(n).__name__}")
    if n < 0:
        raise ValueError("n must be non-negative")
    groups = []
    rest = n
    while True:
        value = rest % 1000
        components = tuple(
            RankComponent(rank=rank, value=value // scale % 10 * scale)
            for rank, scale in (("units", 1), ("tens", 10), ("hundreds", 100))
            if value // scale % 10
        )
        groups.append(Group(index=len(groups), value=value, components=components))
        rest //= 1000
        if rest == 0:
            break
    return NumberReading(value=n, groups=tuple(groups))


def reference_format(reading, direction, labels, figure_exact):
    """The speech of a reading of `reference_decompose`, group by group."""
    from abjadnum import InsufficientLabels

    if len(reading.groups) > len(labels):
        raise InsufficientLabels(f"{len(reading.groups)} groups but only {len(labels)} labels")
    parts = []
    if direction == "rtl":
        for group in reading.groups:
            if group.components:
                spoken = " et ".join(str(c.value) for c in group.components)
                label = labels[group.index]
                parts.append(f"{spoken} {label}" if label else spoken)
        return (" et " if figure_exact else " ; ").join(parts) if parts else "0"
    for group in reversed(reading.groups):
        if group.value:
            label = labels[group.index]
            parts.append(f"{group.value} {label}" if label else str(group.value))
    return " ".join(parts) if parts else "0"

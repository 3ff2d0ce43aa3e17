import argparse
import contextlib
import io
import json
import os
import subprocess
import sys
from enum import Enum

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from abjadnum import (
    Alphabet,
    DigitScript,
    Letter,
    decompose,
    digit_provenance,
    encode,
    gematria,
)
from abjadnum.cli import _json, _parse_exact, build_parser
from support import outcome, run_cli

# Each subcommand and the options it requires.
REQUIRED = {
    "encode": ["--alphabet", "arabic"],
    "decode": ["--alphabet", "arabic"],
    "gematria": ["--alphabet", "arabic"],
    "translit": ["--from", "western", "--to", "mashreki"],
    "read": [],
    "provenance": ["--script", "western"],
    "hijri": [],
}
COMMANDS = list(REQUIRED)


class TestStdin:
    def test_a_closed_stdin_is_a_usage_error_only_when_it_is_read(self):
        assert run_cli(["hijri", "1225"], None) == (0, "1810\n", "")
        assert run_cli(["decode", "--alphabet", "arabic"], None) == (
            2, "", "usage error: no value given and stdin is closed\n"
        )

    def test_stdin_that_is_not_utf8_is_a_usage_error(self):
        code, out, err = run_cli(["hijri"], b"\xff\n")
        assert (code, out) == (2, "")
        assert err.startswith("usage error: 'utf-8' codec can't decode byte 0xff")


@pytest.mark.parametrize("argv, unbuffered", [
    pytest.param(argv, unbuffered, id=name + mode)
    for argv, name in [(["hijri", "1225"], ""), (["-h"], "help-"), (["hijri", "-h"], "hijri-help-")]
    for unbuffered, mode in [(False, "buffered"), (True, "unbuffered")]
])
def test_a_closed_stdout_pipe_exits_1_and_prints_nothing(argv, unbuffered):
    env = {name: value for name, value in os.environ.items() if name != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    read_end, write_end = os.pipe()
    os.close(read_end)  # the reader has gone before the first write
    try:
        proc = subprocess.run([sys.executable, "-m", "abjadnum", *argv],
                              stdin=subprocess.DEVNULL, stdout=write_end,
                              stderr=subprocess.PIPE, env=env, timeout=60)
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (1, b"")


@pytest.mark.parametrize("argv", [["hijri", "1225"], ["-h"]], ids=["result", "help"])
def test_a_closed_stdout_exits_1_and_prints_nothing(argv):
    # As `abjadnum hijri 1225 >&-`: fd 1 is closed, so sys.stdout is None.
    proc = subprocess.run([sys.executable, "-m", "abjadnum", *argv],
                          stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, preexec_fn=lambda: os.close(1), timeout=60)
    assert (proc.returncode, proc.stderr) == (1, b"")


@pytest.mark.parametrize("argv", [["hijri", "1225"], ["-h"]], ids=["result", "help"])
def test_an_unwritable_stdout_exits_1_and_prints_nothing(argv):
    # As `abjadnum hijri 1225 1</dev/null`: fd 1 is open for reading only.
    proc = subprocess.run([sys.executable, "-m", "abjadnum", *argv],
                          stdin=subprocess.DEVNULL, stderr=subprocess.PIPE,
                          preexec_fn=lambda: os.dup2(os.open(os.devnull, os.O_RDONLY), 1),
                          timeout=60)
    assert (proc.returncode, proc.stderr) == (1, b"")


# fd 2 closed (`2>&-`), so sys.stderr is None; or open for reading only, as a
# wrapper's shell can leave it after `2>&-`, so every write to it fails.
_UNWRITABLE_STDERR = {"closed": lambda: os.close(2),
                      "read-only": lambda: os.dup2(os.open(os.devnull, os.O_RDONLY), 2)}


@pytest.mark.parametrize("stderr", list(_UNWRITABLE_STDERR))
@pytest.mark.parametrize("argv, code, out", [
    (["hijri", "x"], 1, ""), (["hijri", ""], 2, ""), (["frob"], 2, ""),
    (["hijri", "1225"], 0, "1810\n"), (["-h"], 0, None),
], ids=["domain-error", "usage-error", "argparse-error", "result", "help"])
def test_an_unwritable_stderr_keeps_the_exit_status_and_prints_no_error_on_stdout(
        argv, code, out, stderr, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help to it, here and in the child
    proc = subprocess.run([sys.executable, "-m", "abjadnum", *argv],
                          stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                          preexec_fn=_UNWRITABLE_STDERR[stderr], timeout=60)
    if out is None:
        out = build_parser().format_help()
    assert (proc.returncode, proc.stdout.decode("utf-8")) == (code, out)


@pytest.mark.parametrize("argv", [
    ["read", "--labels", b",\xff", "1000"], ["read", "--labels", b"a,\xff", "--json", "1000"],
    ["hijri", b"\xff"],
], ids=["labels", "labels-json", "value"])
def test_an_argument_that_is_not_utf8_is_a_usage_error(argv):
    # A real process: the StringIO of an in-process run would take the lone
    # surrogate that Python carries such a byte as.
    proc = subprocess.run([sys.executable, "-m", "abjadnum", *argv], stdin=subprocess.DEVNULL,
                          capture_output=True, env={**os.environ, "PYTHONUTF8": "1"},
                          timeout=60)
    assert (proc.returncode, proc.stdout) == (2, b"")
    bad = next(arg for arg in argv if isinstance(arg, bytes))
    assert proc.stderr == f"usage error: argument {bad!r} is not UTF-8\n".encode()


def _oracle(result):
    """The JSON-ready values that json.dumps was given before the CLI wrote
    its own JSON: records become dicts, tuples lists."""
    if isinstance(result, Letter):
        return {"codepoint": result.codepoint, "name": result.name, "value": result.value}
    if hasattr(result, "_asdict"):
        result = result._asdict()
    if isinstance(result, dict):
        return {key: _oracle(value) for key, value in result.items()}
    if isinstance(result, tuple):
        return [_oracle(item) for item in result]
    if isinstance(result, Enum):
        return result.value
    return result


# Every code point, with the ones json escapes or might be expected to
# escape (controls, quote, backslash, DEL, U+2028, lone surrogates) made frequent.
_TRICKY = [chr(c) for c in range(0x20)] + ['"', "\\", "\x7f", "\u2028", "\ud800", "\udfff"]
_TEXT = st.text(st.sampled_from(_TRICKY) | st.characters(exclude_categories=()), max_size=10)
_INTS = st.integers() | st.integers(1, 4000).flatmap(
    lambda digits: st.integers(-(10**digits) + 1, 10**digits - 1)
)
_SCALARS = _TEXT | _INTS | st.sampled_from([True, False, None])
# A list reaches json.dumps as it is, so it holds only plain JSON values.
_PLAIN = st.recursive(
    _SCALARS,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(_TEXT, inner, max_size=4),
    max_leaves=5,
)
# One record of each type the seven subcommands return, and their enums.
_RECORDS = [
    encode(1245, Alphabet.ARABIC),
    encode(1245, Alphabet.ARABIC).letters[0],
    gematria("احمد زينب", Alphabet.ARABIC),
    decompose(12457892),
    decompose(12457892).groups[1],
    decompose(12457892).groups[1].components[0],
    digit_provenance(0, DigitScript.WESTERN),
    Alphabet.HEBREW,
    DigitScript.ORIGINAL_MAGHREBI,
]
_RESULTS = st.recursive(
    _PLAIN | st.sampled_from(_RECORDS),
    lambda inner: (st.lists(inner, max_size=4).map(tuple)
                   | st.dictionaries(_TEXT, inner, max_size=4)),
    max_leaves=5,
)


def _dumps(result):
    return json.dumps(_oracle(result), ensure_ascii=False)


@given(_RESULTS)
def test_json_writes_what_json_dumps_wrote(result):
    # An int past the interpreter's digit limit raises the same ValueError in both.
    assert outcome(_json, result) == outcome(_dumps, result)


def test_json_writes_every_code_point_as_json_dumps_did():
    # A str is escaped one code point at a time, so this is every str.
    every = "".join(map(chr, range(sys.maxunicode + 1)))
    assert _json(every) == json.dumps(every, ensure_ascii=False)


class TestUsageErrors:
    def test_a_year_at_the_digit_limit_is_refused_naming_the_last_year(self):
        # No result can pass the digit limit: a year that long is refused.
        year = "9" * sys.get_int_max_str_digits()
        code, out, err = run_cli(["hijri", "--reverse", year])
        assert (code, out) == (1, "")
        assert err == (
            f"ERROR OutOfRange: {year} CE is past the last year converted (456833 CE)\n"
        )

    def test_rejected_argument_is_echoed_in_short(self):
        year = "9" * (sys.get_int_max_str_digits() + 1)
        code, out, err = run_cli(["hijri", "--reverse", year])
        assert (code, out) == (2, "")
        assert err == (
            f"usage error: the digit string has more than {sys.get_int_max_str_digits()} "
            "decimal digits, the most that can be read\n"
        )
        code, out, err = run_cli(["hijri", "--reverse", year + "x"])
        assert (code, out, err) == (1, "", "ERROR InvalidGlyph: 'x' is not a western digit\n")
        code, _, err = run_cli(["read", "12x"])
        assert (code, err) == (1, "ERROR InvalidGlyph: 'x' is not a western digit\n")


def _exit(parser, argv, capsys):
    """The exit code, stdout and stderr of `parser` given `argv`, which ends it."""
    with pytest.raises(SystemExit) as exc:
        parser.parse_args(argv)
    captured = capsys.readouterr()
    return exc.value.code, captured.out, captured.err


class TestParser:
    @pytest.mark.parametrize("name", COMMANDS)
    def test_prints_help_and_rejects_an_unknown_option(self, capsys, name):
        code, out, _ = _exit(build_parser(), [name, "--help"], capsys)
        assert code == 0 and out.startswith(f"usage: abjadnum {name} ")
        # argparse rejects an unknown option with the top-level usage.
        code, _, err = _exit(build_parser(), [name, *REQUIRED[name], "--bogus", "7"], capsys)
        assert code == 2
        assert err.split()[:4] == ["usage:", "abjadnum", "[-h]", "{" + ",".join(COMMANDS) + "}"]
        assert err.endswith("unrecognized arguments: --bogus\n")

    def test_holds_all_seven(self):
        assert list(_subparsers()) == COMMANDS


def _subparsers() -> dict[str, argparse.ArgumentParser]:
    """Each subcommand's parser in build_parser(), by name."""
    (commands,) = [action for action in build_parser()._actions
                   if isinstance(action, argparse._SubParsersAction)]
    return commands.choices


_SUBPARSERS = _subparsers()
# Each subcommand's option actions, read from its own parser, help left out.
_ACTIONS = {
    name: [action for action in parser._actions
           if action.option_strings and not isinstance(action, argparse._HelpAction)]
    for name, parser in _SUBPARSERS.items()
}
_JUNK = ["greek", "-h", "--help", "--", "-", "-5", "", "-a b", "--json=", "1225", "x y",
         ",mille"]


@st.composite
def _units(draw, name):
    """One option with its argument, if it takes one, or one other argument."""
    parser = _SUBPARSERS[name]
    options = [option for action in parser._actions for option in action.option_strings]
    choices = [choice for action in parser._actions if action.choices for choice in action.choices]
    kind = draw(st.sampled_from(["option", "option", "junk", "prefix", "equals", "command"]))
    if kind == "option":
        action = draw(st.sampled_from(_ACTIONS[name]))
        option = draw(st.sampled_from(action.option_strings))
        if action.nargs == 0:
            return [option]
        return [option, draw(st.sampled_from(action.choices or ["", ",mille", "a,b"])
                             | st.sampled_from(_JUNK))]
    if kind == "junk":
        return [draw(st.sampled_from(_JUNK + choices))]
    long = [option for option in options if len(option) > 3]
    if kind == "prefix":
        option = draw(st.sampled_from(long))
        return [option[:draw(st.integers(3, len(option) - 1))]]
    if kind == "equals":
        return [draw(st.sampled_from(long)) + "=" + draw(st.sampled_from(choices + ["", "x"]))]
    return [draw(st.sampled_from(COMMANDS))]


@st.composite
def _cli_argvs(draw):
    """A command and a shuffle of options, values and junk, often with every
    required option; now and then no command or a wrong one."""
    name = draw(st.sampled_from(COMMANDS))
    units = draw(st.lists(_units(name), max_size=3))
    if draw(st.integers(0, 3)):
        units += [[action.option_strings[0], draw(st.sampled_from(action.choices))]
                  for action in _ACTIONS[name] if action.required]
    if draw(st.booleans()):
        units.append([draw(st.sampled_from(["1225", "", "x y", "احمد", "12457892"]))])
    units = draw(st.permutations(units))
    first = draw(st.sampled_from([[name]] * 20 + [[], ["frobnicate"], ["-h"], ["--json"]]))
    return first + [arg for unit in units for arg in unit]


def _spelled_exactly(argv: list[str]) -> bool:
    """Whether argv is the exact spelling the fast path accepts, judged from
    the subcommand's own parser: each option in full and at most once, each
    option argument within its choices and no argument starting with a dash,
    at most one value, and every required option."""
    if not argv or argv[0] not in COMMANDS:
        return False
    actions = {option: action for action in _ACTIONS[argv[0]]
               for option in action.option_strings}
    seen, values, rest = [], [], iter(argv[1:])
    for arg in rest:
        if arg in actions:
            seen.append(actions[arg])
            if actions[arg].nargs != 0:
                given = next(rest, None)
                choices = actions[arg].choices
                if given is None or given.startswith("-") or choices and given not in choices:
                    return False
        elif arg.startswith("-"):
            return False
        else:
            values.append(arg)
    required = [action for action in _ACTIONS[argv[0]] if action.required]
    return (len(seen) == len(set(map(id, seen))) and len(values) <= 1
            and all(action in seen for action in required))


@settings(max_examples=500, deadline=None)
@given(_cli_argvs())
def test_the_exact_parser_agrees_with_argparse(argv):
    exact = _parse_exact(argv)
    assert (exact is not None) == _spelled_exactly(argv), (argv, exact)
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            parsed = build_parser().parse_args(argv)
    except SystemExit:
        assert exact is None, (argv, exact, err.getvalue())
        return
    if exact is not None:
        assert vars(exact) == vars(parsed), argv


def test_console_entry_point_emits_utf8():
    proc = subprocess.run(
        [sys.executable, "-m", "abjadnum", "encode", "--alphabet", "arabic", "1245"],
        capture_output=True,
        timeout=60,
    )
    assert proc.returncode == 0
    assert proc.stdout.decode("utf-8").strip() == "همرغ"

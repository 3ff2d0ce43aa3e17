import argparse
import contextlib
import io
import json
import os
import subprocess
import sys
import types
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
    format_reading,
    gematria,
    gregorian_to_hijri_year,
    hijri_to_gregorian_year,
)
from abjadnum.cli import _json, _parse_exact, build_parser, main

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


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestHappyPaths:
    def test_encode(self, capsys):
        code, out, err = run_cli(capsys, "encode", "--alphabet", "arabic", "1245")
        assert (code, err) == (0, "")
        assert out == "همرغ\n"

    def test_encode_matches_library_byte_for_byte(self, capsys):
        for n in (1, 200, 1245, 1999):
            code, out, _ = run_cli(capsys, "encode", "--alphabet", "arabic", str(n))
            assert code == 0
            assert out.encode() == (encode(n, Alphabet.ARABIC).text + "\n").encode()

    def test_decode(self, capsys):
        code, out, _ = run_cli(capsys, "decode", "--alphabet", "arabic", "همرغ")
        assert (code, out) == (0, "1245\n")

    def test_decode_strict(self, capsys):
        code, out, _ = run_cli(
            capsys, "decode", "--alphabet", "arabic", "--strict", "ر"
        )
        assert (code, out) == (0, "200\n")

    def test_gematria(self, capsys):
        code, out, _ = run_cli(capsys, "gematria", "--alphabet", "arabic", "احمد زينب")
        assert (code, out) == (0, "122\n")
        assert out.strip() == str(gematria("احمد زينب", Alphabet.ARABIC).total)

    def test_translit(self, capsys):
        code, out, _ = run_cli(
            capsys, "translit", "--from", "western", "--to", "mashreki", "1225"
        )
        assert (code, out) == (0, "١٢٢٥\n")

    def test_read_ltr(self, capsys):
        code, out, _ = run_cli(capsys, "read", "--direction", "ltr", "12457892")
        assert (code, out) == (0, "12 millions 457 mille 892\n")

    def test_read_rtl_default(self, capsys):
        code, out, _ = run_cli(capsys, "read", "12457892")
        assert code == 0
        assert out.strip() == format_reading(decompose(12457892), "rtl")

    def test_read_figure_exact(self, capsys):
        code, out, _ = run_cli(capsys, "read", "--figure-exact", "12457892")
        assert code == 0
        assert out == "2 et 90 et 800 et 7 et 50 et 400 mille et 2 et 10 millions\n"

    def test_read_custom_labels(self, capsys):
        code, out, _ = run_cli(
            capsys, "read", "--direction", "ltr", "--labels", ",thousand", "2500"
        )
        assert (code, out) == (0, "2 thousand 500\n")

    def test_provenance(self, capsys):
        code, out, _ = run_cli(capsys, "provenance", "--script", "western", "0")
        assert code == 0
        assert out.startswith("arabic Sad ص:")
        assert "Sifr" in out

    def test_hijri(self, capsys):
        code, out, _ = run_cli(capsys, "hijri", "1225")
        assert (code, out) == (0, "1810\n")

    def test_hijri_reverse(self, capsys):
        code, out, _ = run_cli(capsys, "hijri", "--reverse", "1810")
        assert (code, out) == (0, "1225\n")

    def test_hijri_400_digit_year_both_directions(self, capsys):
        year = int("9" * 400)
        code, out, _ = run_cli(capsys, "hijri", str(year))
        assert (code, out) == (0, f"{hijri_to_gregorian_year(year)}\n")
        code, out, _ = run_cli(capsys, "hijri", "--reverse", str(year))
        assert (code, out) == (0, f"{gregorian_to_hijri_year(year)}\n")


class TestStdin:
    def _feed(self, monkeypatch, text):
        monkeypatch.setattr(
            sys, "stdin", types.SimpleNamespace(buffer=io.BytesIO(text.encode()))
        )

    def test_decode_from_stdin(self, capsys, monkeypatch):
        self._feed(monkeypatch, "همرغ\n")
        code, out, _ = run_cli(capsys, "decode", "--alphabet", "arabic")
        assert (code, out) == (0, "1245\n")

    def test_encode_from_stdin(self, capsys, monkeypatch):
        self._feed(monkeypatch, "200\n")
        code, out, _ = run_cli(capsys, "encode", "--alphabet", "arabic")
        assert (code, out) == (0, "ر\n")

    @pytest.mark.parametrize(
        "argv, text, printed",
        [
            (["hijri"], "1225\r\n", "1810"),
            (["hijri"], "\t1225\t\n", "1810"),
            (["decode", "--alphabet", "arabic", "--strict"], "همرغ\r\n", "1245"),
        ],
        ids=["hijri-crlf", "hijri-tabs", "decode-strict-crlf"],
    )
    def test_carriage_returns_and_tabs_around_the_input_are_stripped(
        self, capsys, monkeypatch, argv, text, printed
    ):
        self._feed(monkeypatch, text)
        code, out, _ = run_cli(capsys, *argv)
        assert (code, out) == (0, printed + "\n")

    def test_a_closed_stdin_is_a_usage_error_only_when_it_is_read(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "stdin", None)
        assert run_cli(capsys, "hijri", "1225") == (0, "1810\n", "")
        assert run_cli(capsys, "decode", "--alphabet", "arabic") == (
            2, "", "usage error: no value given and stdin is closed\n"
        )

    def test_stdin_that_is_not_utf8_is_a_usage_error(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "stdin", types.SimpleNamespace(buffer=io.BytesIO(b"\xff\n")))
        code, out, err = run_cli(capsys, "hijri")
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


class TestJson:
    def test_encode_payload(self, capsys):
        code, out, _ = run_cli(capsys, "encode", "--alphabet", "arabic", "--json", "1245")
        assert code == 0
        payload = json.loads(out)
        assert payload["text"] == "همرغ"
        assert payload["value"] == 1245
        assert [l["value"] for l in payload["letters"]] == [5, 40, 200, 1000]
        assert payload["letters"][0]["name"] == "Haa"

    def test_gematria_payload(self, capsys):
        code, out, _ = run_cli(
            capsys, "gematria", "--alphabet", "arabic", "--json", "احمد زينب"
        )
        payload = json.loads(out)
        assert payload["total"] == 122
        assert payload["per_word"] == [
            {"word": "احمد", "value": 53},
            {"word": "زينب", "value": 69},
        ]

    def test_read_payload_mirrors_the_groups(self, capsys):
        code, out, _ = run_cli(capsys, "read", "--json", "1000")
        payload = json.loads(out)
        assert payload["groups"] == [
            {"index": 0, "value": 0, "components": []},
            {"index": 1, "value": 1, "components": [{"rank": "units", "value": 1}]},
        ]

    def test_provenance_payload(self, capsys):
        code, out, _ = run_cli(
            capsys, "provenance", "--script", "mashreki", "--json", "6"
        )
        payload = json.loads(out)
        assert payload["alphabet"] == "hebrew"
        assert payload["letter"]["name"] == "Vav"


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


@given(_RESULTS)
def test_json_writes_what_json_dumps_wrote(result):
    assert _json(result) == json.dumps(_oracle(result), ensure_ascii=False)


def test_json_writes_every_code_point_as_json_dumps_did():
    # A str is escaped one code point at a time, so this is every str.
    every = "".join(map(chr, range(sys.maxunicode + 1)))
    assert _json(every) == json.dumps(every, ensure_ascii=False)


class TestDomainErrors:
    CASES = [
        (["encode", "--alphabet", "hebrew", "500"], "OutOfRange"),
        (["encode", "--alphabet", "arabic", "2000"], "OutOfRange"),
        (["encode", "--alphabet", "arabic", "0"], "ZeroUnencodable"),
        (["decode", "--alphabet", "arabic", "XYZ"], "UnknownLetter"),
        (["decode", "--alphabet", "arabic", "--strict", "غرمه"], "NonCanonical"),
        (["gematria", "--alphabet", "arabic", "abc"], "UnknownLetter"),
        (["translit", "--from", "western", "--to", "mashreki", "12a"], "InvalidGlyph"),
        (["read", "--labels", ",mille", "12457892"], "InsufficientLabels"),
        (["hijri", "--reverse", "600"], "PreEpoch"),
    ]

    @pytest.mark.parametrize("argv,code_name", CASES)
    def test_exit_1_with_machine_readable_message(self, capsys, argv, code_name):
        code, out, err = run_cli(capsys, *argv)
        assert code == 1
        assert out == ""
        assert err.startswith(f"ERROR {code_name}: ")
        assert "\n" not in err.strip()


class TestUsageErrors:
    def test_unknown_command(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_missing_required_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["encode", "1245"])
        assert exc.value.code == 2

    def test_bad_flag_value(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["encode", "--alphabet", "greek", "7"])
        assert exc.value.code == 2

    def test_non_integer_input(self, capsys):
        # A number is read by parse_digits: a non-digit is a domain error.
        code, out, err = run_cli(capsys, "encode", "--alphabet", "arabic", "abc")
        assert (code, out, err) == (1, "", "ERROR InvalidGlyph: 'a' is not a western digit\n")

    def test_result_past_the_digit_limit_names_the_limit(self, capsys):
        year = "9" * sys.get_int_max_str_digits()
        code, out, err = run_cli(capsys, "hijri", "--reverse", year)
        assert (code, out) == (2, "")
        assert err.startswith(
            f"usage error: the result has more than {sys.get_int_max_str_digits()} "
            "decimal digits"
        )
        assert "set_int_max_str_digits" not in err

    def test_rejected_argument_is_echoed_in_short(self, capsys):
        year = "9" * (sys.get_int_max_str_digits() + 1)
        code, out, err = run_cli(capsys, "hijri", "--reverse", year)
        assert (code, out) == (2, "")
        assert err == (
            f"usage error: the digit string has more than {sys.get_int_max_str_digits()} "
            "decimal digits, the most that can be read\n"
        )
        code, out, err = run_cli(capsys, "hijri", "--reverse", year + "x")
        assert (code, out, err) == (1, "", "ERROR InvalidGlyph: 'x' is not a western digit\n")
        code, _, err = run_cli(capsys, "read", "12x")
        assert (code, err) == (1, "ERROR InvalidGlyph: 'x' is not a western digit\n")

    def test_empty_decode_input(self, capsys, monkeypatch):
        monkeypatch.setattr(
            sys, "stdin", types.SimpleNamespace(buffer=io.BytesIO(b"  \n"))
        )
        assert main(["decode", "--alphabet", "arabic"]) == 2


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

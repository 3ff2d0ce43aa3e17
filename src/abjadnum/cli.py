"""Command-line front end: one subcommand per library operation.

Results and help print to stdout, a result bare or as one JSON object with
--json; an error prints one line to stderr, a domain error as ``ERROR
<code>: <detail>``.  ``_write`` prints every line: with stderr closed or
unwritable, an error still exits 1 or 2 and prints nothing on stdout.  The
input comes from the final positional argument, or stdin when it is absent.
Stdin is read as UTF-8; one leading byte-order mark (U+FEFF, which some
editors write) is dropped, then the whitespace around the input.  Exit status:

- 0: a result or help was written;
- 1: a domain error, or stdout gone, closed or unwritable (nothing is printed);
- 2: a usage error, stdin closed with no value, or argv or stdin not UTF-8.

Each subcommand's options are declared once, in ``_options``: spelling,
dest, choices, default and required flag.  ``build_parser`` and
``_parse_exact`` both read that declaration.  An exactly spelled argv (a
command name, each option in full and at most once, each option argument
within its choices, at most one value, and no argument that starts with
``-``) is read by ``_parse_exact``: it builds no parser and loads no
argparse.  Any other argv (``-h``, an abbreviated option, ``--opt=value``,
``--``, a usage error) goes to argparse, so every help and error text is
argparse's; what it prints is captured and written as a result or an error.

That fallback builds all seven subparsers, so it also imports ``digits``
and ``reading`` for their options' choices.  Importing this module loads
``alphabets`` and ``errors``; an exactly spelled call's options and its run
import the other library modules it uses, and no others.
"""

import os
import sys
import types
from enum import Enum

from .alphabets import Alphabet, Letter
from .errors import NumeralError

_ALPHABETS = [alphabet.value for alphabet in Alphabet]
# Each subcommand's help and its value's help.
_HELP = {
    "encode": ("encode an integer as a letter-word", "number to encode"),
    "decode": ("decode a letter-word to an integer", "word to decode"),
    "gematria": ("sum the letter values of a phrase", "phrase"),
    "translit": ("transliterate digits between scripts", "digit string"),
    "read": ("narrate a number by 3-digit groups", "number to read"),
    "provenance": ("show the source letter behind a digit glyph", "digit 0..9"),
    "hijri": ("convert a Hijri year to Gregorian (or back)", "year"),
}
_COMMANDS = tuple(_HELP)


def _scripts() -> list[str]:
    from .digits import DigitScript

    return [script.value for script in DigitScript]


def _options(command: str) -> list[tuple[str, dict]]:
    """The options of `command`, in the order its help lists them, as
    (option string, add_argument keywords).

    build_parser adds them as they are, and _parse_exact reads the same
    keywords: dest (else the option string without its dashes), choices,
    default, required, and action "store_true" for a flag.
    """
    options = [("--json", {"action": "store_true", "help": "emit one JSON object"})]
    if command in ("encode", "decode", "gematria"):
        options.append(("--alphabet", {"choices": _ALPHABETS, "required": True}))
    if command == "decode":
        options.append(("--strict", {"action": "store_true",
                                     "help": "require a canonical numeral word"}))
    elif command == "translit":
        scripts = _scripts()
        options += [("--from", {"dest": "src", "choices": scripts, "required": True}),
                    ("--to", {"dest": "dst", "choices": scripts, "required": True})]
    elif command == "read":
        from . import reading

        options += [
            ("--direction", {"choices": [reading.RIGHT_TO_LEFT, reading.LEFT_TO_RIGHT],
                             "default": reading.RIGHT_TO_LEFT}),
            ("--labels", {"help": "comma-separated scale labels, first entry is the "
                                  "(usually empty) units label, e.g. ',mille,millions'"}),
            ("--figure-exact", {"action": "store_true",
                                "help": "join everything with 'et' instead of group separators"}),
        ]
    elif command == "provenance":
        options.append(("--script", {"choices": _scripts(), "required": True}))
    elif command == "hijri":
        options.append(("--reverse", {"action": "store_true",
                                      "help": "convert Gregorian to Hijri"}))
    return options


def _text_input(given: str | None) -> str:
    if given is not None:
        return given
    if sys.stdin is None:
        raise ValueError("no value given and stdin is closed")
    return sys.stdin.buffer.read().decode("utf-8").removeprefix("\ufeff").strip()


# json's escapes for a str: the two-character ones, and \u00XX for the rest of
# U+0000..001F.  Every other character, DEL and U+2028 included, is written as is.
_ESCAPES = str.maketrans({**{chr(i): f"\\u{i:04x}" for i in range(32)}, '"': '\\"',
                          "\\": "\\\\", "\b": "\\b", "\t": "\\t", "\n": "\\n",
                          "\f": "\\f", "\r": "\\r"})


def _json(result) -> str:
    """A result as the line json.dumps(..., ensure_ascii=False) writes for it,
    once records become objects, tuples arrays and enums their values."""
    if isinstance(result, Letter):
        result = {"codepoint": result.codepoint, "name": result.name, "value": result.value}
    elif hasattr(result, "_asdict"):
        result = result._asdict()
    if isinstance(result, dict):
        return "{" + ", ".join([f"{_json(key)}: {_json(value)}"
                                for key, value in result.items()]) + "}"
    if isinstance(result, (tuple, list)):
        return "[" + ", ".join([_json(item) for item in result]) + "]"
    if isinstance(result, Enum):
        result = result.value
    if isinstance(result, str):
        return '"' + result.translate(_ESCAPES) + '"'
    if result is None:
        return "null"
    if isinstance(result, bool):
        return "true" if result else "false"
    if isinstance(result, int):
        return int.__repr__(result)
    raise TypeError(f"Object of type {type(result).__name__} is not JSON serializable")


def _run(args) -> tuple[str, dict]:
    """The text line and the JSON payload of one subcommand."""
    command = args.command
    given = _text_input(args.value)
    if command not in ("decode", "gematria", "translit"):
        from .digits import DigitScript, parse_digits

        given = parse_digits(given, DigitScript.WESTERN)
    if command == "encode":
        from . import codec

        numeral = codec.encode(given, Alphabet(args.alphabet))
        return numeral.text, {"alphabet": numeral.alphabet, "value": numeral.value,
                              "text": numeral.text, "letters": numeral.letters}
    if command == "decode":
        from . import codec

        value = codec.decode(given, Alphabet(args.alphabet), strict=args.strict)
        return str(value), {"alphabet": args.alphabet, "word": given,
                            "strict": args.strict, "value": value}
    if command == "gematria":
        from . import codec

        result = codec.gematria(given, Alphabet(args.alphabet))
        per_word = [{"word": word, "value": value} for word, value in result.per_word]
        return str(result.total), {"alphabet": args.alphabet, "total": result.total,
                                   "per_word": per_word}
    if command == "translit":
        from .digits import DigitScript, transliterate

        out = transliterate(given, DigitScript(args.src), DigitScript(args.dst))
        return out, {"from": args.src, "to": args.dst, "input": given, "output": out}
    if command == "read":
        from . import reading

        labels = reading.DEFAULT_LABELS if args.labels is None else tuple(args.labels.split(","))
        decomposed = reading.decompose(given)
        text = reading.format_reading(
            decomposed, args.direction, labels=labels, figure_exact=args.figure_exact
        )
        return text, {"value": given, "direction": args.direction, "text": text,
                      "groups": decomposed.groups}
    if command == "provenance":
        from .digits import DigitScript, digit_provenance

        entry = digit_provenance(given, DigitScript(args.script))
        text = (
            f"{entry.alphabet.value} {entry.letter.name} {entry.letter.codepoint}: "
            f"{entry.note}"
        )
        return text, {"script": entry.script, **entry._asdict()}
    from . import chronology

    if args.reverse:
        out, direction = chronology.gregorian_to_hijri_year(given), "ce-to-ah"
    else:
        out, direction = chronology.hijri_to_gregorian_year(given), "ah-to-ce"
    return str(out), {"input": given, "output": out, "direction": direction}


def build_parser():
    """The argparse parser of all seven subcommands."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="abjadnum",
        description="Letter-numerals, gematria, digit scripts, number readings, Hijri years.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        help_text, value_help = _HELP[name]
        p = sub.add_parser(name, help=help_text)
        for option, keywords in _options(name):
            p.add_argument(option, **keywords)
        p.add_argument("value", nargs="?", help=f"{value_help} (stdin if absent)")
    return parser


def _parse_exact(argv: list[str]):
    """What build_parser().parse_args(argv) gives, when every argument
    is spelled exactly as declared; None for any other argv."""
    if not argv or argv[0] not in _COMMANDS:
        return None
    declared, parsed = {}, {"command": argv[0]}
    for option, keywords in _options(argv[0]):
        flag = keywords.get("action") == "store_true"
        dest = keywords.get("dest", option[2:].replace("-", "_"))
        declared[option] = dest, flag, keywords.get("choices"), keywords.get("required")
        parsed[dest] = keywords.get("default", False if flag else None)
    seen, values, rest = set(), [], iter(argv[1:])
    for arg in rest:
        if arg not in declared:
            values.append(arg)
            continue
        if arg in seen:
            return None
        seen.add(arg)
        dest, flag, choices, _ = declared[arg]
        if flag:
            parsed[dest] = True
            continue
        arg = next(rest, "-")  # a missing option argument is refused as a dash
        if arg.startswith("-") or (choices is not None and arg not in choices):
            return None
        parsed[dest] = arg
    if len(values) > 1 or values and values[0].startswith("-") or any(
            required and option not in seen
            for option, (_, _, _, required) in declared.items()):
        return None
    parsed["value"] = values[0] if values else None
    return types.SimpleNamespace(**parsed)


def _utf8_streams():
    for stream in (sys.stdout, sys.stderr):
        if hasattr(stream, "reconfigure"):
            stream.reconfigure(encoding="utf-8")


def _write(stream, text: str) -> int:
    """Write and flush text: 0, or 1 if the stream is closed, unwritable or its reader gone."""
    if stream is None:
        return 1
    try:
        stream.write(text)
        stream.flush()
    except OSError:
        # As the Python docs' note on SIGPIPE: the flush at exit then fails no more.
        os.dup2(os.open(os.devnull, os.O_WRONLY), stream.fileno())
        return 1
    return 0


def main(argv=None) -> int:
    _utf8_streams()
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        for arg in argv:  # an argv byte that is not UTF-8 arrives as a lone surrogate
            try:
                arg.encode("utf-8")
            except UnicodeEncodeError:
                raw = arg.encode("utf-8", "surrogateescape")
                raise ValueError(f"argument {raw!r} is not UTF-8") from None
        args = _parse_exact(argv)
        if args is None:
            import contextlib
            import io

            # argparse prints help and exits 0, or prints a usage error and exits 2.
            printed = io.StringIO()
            with contextlib.redirect_stdout(printed), contextlib.redirect_stderr(printed):
                args = build_parser().parse_args(argv)
        text, payload = _run(args)
        code, out = 0, (_json(payload) if args.json else text) + "\n"
    except SystemExit as exit_:
        code, out = exit_.code, printed.getvalue()
    except NumeralError as err:
        code, out = 1, f"ERROR {err.code}: {err}\n"
    except ValueError as err:
        code, out = 2, f"usage error: {err}\n"
    # Results and help go to stdout; an error exits 1 or 2 whatever its write gives.
    written = _write(sys.stderr if code else sys.stdout, out)
    return code or written


if __name__ == "__main__":
    sys.exit(main())

"""Command-line front end: one subcommand per library operation.

Results print bare to stdout (or as one JSON object with --json); domain
errors print to stderr as ``ERROR <code>: <detail>`` and exit 1; bad usage
exits 2.  The input comes from the final positional argument, or stdin
when it is absent.

A process builds the parser of the one subcommand that its first argument
names, and imports only the library modules that subcommand uses:
importing this module loads ``alphabets`` and ``errors``, and the rest are
imported where a subparser or a subcommand needs them.  Any other first
argument (none, ``-h``, a misspelt command) builds all seven subparsers, so
its help and its errors are the full parser's.  A one-command build gives
the command argument all seven names as its metavar, so that the usage line
argparse prints with an error such as ``hijri --bogus 7`` is the full
build's.  The full build leaves the metavar unset: argparse would also print
it in place of the name ``command`` in its missing-command and
invalid-choice errors.
"""

import argparse
import sys
from enum import Enum

from .alphabets import Alphabet, Letter
from .errors import NumeralError, decimal

_ALPHABETS = [alphabet.value for alphabet in Alphabet]
_COMMANDS = ("encode", "decode", "gematria", "translit", "read", "provenance", "hijri")


def _scripts() -> list[str]:
    from .digits import DigitScript

    return [script.value for script in DigitScript]


def _text_input(given: str | None) -> str:
    if given is not None:
        return given
    return sys.stdin.buffer.read().decode("utf-8").strip()


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

        labels = tuple(args.labels.split(",")) if args.labels else reading.DEFAULT_LABELS
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
    text = decimal(out, "the result", "printed")
    return text, {"input": given, "output": out, "direction": direction}


def build_parser(command=None) -> argparse.ArgumentParser:
    """The parser of the subcommand `command` alone, or of all seven if it
    names none of them."""
    parser = argparse.ArgumentParser(
        prog="abjadnum",
        description="Letter-numerals, gematria, digit scripts, number readings, Hijri years.",
    )
    one = command in _COMMANDS
    names = (command,) if one else _COMMANDS
    sub = parser.add_subparsers(dest="command", required=True,
                                metavar="{" + ",".join(_COMMANDS) + "}" if one else None)

    def add(name, help_text, value_help, alphabet=False):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--json", action="store_true", help="emit one JSON object")
        if alphabet:
            p.add_argument("--alphabet", choices=_ALPHABETS, required=True)
        p.add_argument("value", nargs="?", help=f"{value_help} (stdin if absent)")
        return p

    if "encode" in names:
        add("encode", "encode an integer as a letter-word", "number to encode", alphabet=True)

    if "decode" in names:
        p = add("decode", "decode a letter-word to an integer", "word to decode", alphabet=True)
        p.add_argument("--strict", action="store_true",
                       help="require a canonical numeral word")

    if "gematria" in names:
        add("gematria", "sum the letter values of a phrase", "phrase", alphabet=True)

    if "translit" in names:
        scripts = _scripts()
        p = add("translit", "transliterate digits between scripts", "digit string")
        p.add_argument("--from", dest="src", choices=scripts, required=True)
        p.add_argument("--to", dest="dst", choices=scripts, required=True)

    if "read" in names:
        from . import reading

        p = add("read", "narrate a number by 3-digit groups", "number to read")
        p.add_argument("--direction", choices=[reading.RIGHT_TO_LEFT, reading.LEFT_TO_RIGHT],
                       default=reading.RIGHT_TO_LEFT)
        p.add_argument("--labels",
                       help="comma-separated scale labels, first entry is the "
                            "(usually empty) units label, e.g. ',mille,millions'")
        p.add_argument("--figure-exact", action="store_true",
                       help="join everything with 'et' instead of group separators")

    if "provenance" in names:
        p = add("provenance", "show the source letter behind a digit glyph", "digit 0..9")
        p.add_argument("--script", choices=_scripts(), required=True)

    if "hijri" in names:
        p = add("hijri", "convert a Hijri year to Gregorian (or back)", "year")
        p.add_argument("--reverse", action="store_true", help="convert Gregorian to Hijri")

    return parser


def _utf8_streams():
    for stream in (sys.stdout, sys.stderr):
        if hasattr(stream, "reconfigure"):
            stream.reconfigure(encoding="utf-8")


def main(argv=None) -> int:
    _utf8_streams()
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser(argv[0] if argv else None).parse_args(argv)
    try:
        text, payload = _run(args)
    except NumeralError as err:
        print(f"ERROR {err.code}: {err}", file=sys.stderr)
        return 1
    except ValueError as err:
        print(f"usage error: {err}", file=sys.stderr)
        return 2
    print(_json(payload) if args.json else text)
    return 0


if __name__ == "__main__":
    sys.exit(main())

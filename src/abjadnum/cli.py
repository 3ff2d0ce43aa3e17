"""Command-line front end: one subcommand per library operation.

Results print bare to stdout (or as one JSON object with --json); domain
errors print to stderr as ``ERROR <code>: <detail>`` and exit 1; bad usage
exits 2.  The input comes from the final positional argument, or stdin
when it is absent.  ``json`` is imported only for --json output, so a
plain call does not pay for loading it.
"""

import argparse
import sys
from enum import Enum

from . import chronology, codec, digits, reading
from .alphabets import Alphabet, Letter
from .digits import DigitScript
from .errors import NumeralError, decimal

_SCRIPTS = [script.value for script in DigitScript]
_ALPHABETS = [alphabet.value for alphabet in Alphabet]


def _text_input(given: str | None) -> str:
    if given is not None:
        return given
    return sys.stdin.buffer.read().decode("utf-8").strip()


def _plain(result):
    """A result as JSON-ready values: records become dicts, tuples lists."""
    if isinstance(result, Letter):
        return {"codepoint": result.codepoint, "name": result.name, "value": result.value}
    if hasattr(result, "_asdict"):
        result = result._asdict()
    if isinstance(result, dict):
        return {key: _plain(value) for key, value in result.items()}
    if isinstance(result, tuple):
        return [_plain(item) for item in result]
    if isinstance(result, Enum):
        return result.value
    return result


def _run(args) -> tuple[str, dict]:
    """The text line and the JSON payload of one subcommand."""
    command = args.command
    given = _text_input(args.value)
    if command not in ("decode", "gematria", "translit"):
        given = digits.parse_digits(given, DigitScript.WESTERN)
    if command == "encode":
        numeral = codec.encode(given, Alphabet(args.alphabet))
        return numeral.text, {"alphabet": numeral.alphabet, "value": numeral.value,
                              "text": numeral.text, "letters": numeral.letters}
    if command == "decode":
        value = codec.decode(given, Alphabet(args.alphabet), strict=args.strict)
        return str(value), {"alphabet": args.alphabet, "word": given,
                            "strict": args.strict, "value": value}
    if command == "gematria":
        result = codec.gematria(given, Alphabet(args.alphabet))
        per_word = [{"word": word, "value": value} for word, value in result.per_word]
        return str(result.total), {"alphabet": args.alphabet, "total": result.total,
                                   "per_word": per_word}
    if command == "translit":
        out = digits.transliterate(given, DigitScript(args.src), DigitScript(args.dst))
        return out, {"from": args.src, "to": args.dst, "input": given, "output": out}
    if command == "read":
        labels = tuple(args.labels.split(",")) if args.labels else reading.DEFAULT_LABELS
        decomposed = reading.decompose(given)
        text = reading.format_reading(
            decomposed, args.direction, labels=labels, figure_exact=args.figure_exact
        )
        return text, {"value": given, "direction": args.direction, "text": text,
                      "groups": decomposed.groups}
    if command == "provenance":
        entry = digits.digit_provenance(given, DigitScript(args.script))
        text = (
            f"{entry.alphabet.value} {entry.letter.name} {entry.letter.codepoint}: "
            f"{entry.note}"
        )
        return text, {"script": entry.script, **entry._asdict()}
    if args.reverse:
        out, direction = chronology.gregorian_to_hijri_year(given), "ce-to-ah"
    else:
        out, direction = chronology.hijri_to_gregorian_year(given), "ah-to-ce"
    text = decimal(out, "the result", "printed")
    return text, {"input": given, "output": out, "direction": direction}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="abjadnum",
        description="Letter-numerals, gematria, digit scripts, number readings, Hijri years.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, help_text, value_help, alphabet=False):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--json", action="store_true", help="emit one JSON object")
        if alphabet:
            p.add_argument("--alphabet", choices=_ALPHABETS, required=True)
        p.add_argument("value", nargs="?", help=f"{value_help} (stdin if absent)")
        return p

    command("encode", "encode an integer as a letter-word", "number to encode", alphabet=True)

    p = command("decode", "decode a letter-word to an integer", "word to decode", alphabet=True)
    p.add_argument("--strict", action="store_true",
                   help="require a canonical numeral word")

    command("gematria", "sum the letter values of a phrase", "phrase", alphabet=True)

    p = command("translit", "transliterate digits between scripts", "digit string")
    p.add_argument("--from", dest="src", choices=_SCRIPTS, required=True)
    p.add_argument("--to", dest="dst", choices=_SCRIPTS, required=True)

    p = command("read", "narrate a number by 3-digit groups", "number to read")
    p.add_argument("--direction", choices=[reading.RIGHT_TO_LEFT, reading.LEFT_TO_RIGHT],
                   default=reading.RIGHT_TO_LEFT)
    p.add_argument("--labels",
                   help="comma-separated scale labels, first entry is the "
                        "(usually empty) units label, e.g. ',mille,millions'")
    p.add_argument("--figure-exact", action="store_true",
                   help="join everything with 'et' instead of group separators")

    p = command("provenance", "show the source letter behind a digit glyph", "digit 0..9")
    p.add_argument("--script", choices=_SCRIPTS, required=True)

    p = command("hijri", "convert a Hijri year to Gregorian (or back)", "year")
    p.add_argument("--reverse", action="store_true", help="convert Gregorian to Hijri")

    return parser


def _utf8_streams():
    for stream in (sys.stdout, sys.stderr):
        if hasattr(stream, "reconfigure"):
            stream.reconfigure(encoding="utf-8")


def main(argv=None) -> int:
    _utf8_streams()
    args = build_parser().parse_args(argv)
    try:
        text, payload = _run(args)
    except NumeralError as err:
        print(f"ERROR {err.code}: {err}", file=sys.stderr)
        return 1
    except ValueError as err:
        print(f"usage error: {err}", file=sys.stderr)
        return 2
    if args.json:
        import json

        text = json.dumps(_plain(payload), ensure_ascii=False)
    print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())

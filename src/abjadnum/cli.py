"""Command-line front end: one subcommand per library operation.

Results print bare to stdout (or as one JSON object with --json); domain
errors print to stderr as ``ERROR <code>: <detail>`` and exit 1; bad usage
exits 2.  The input comes from the final positional argument, or stdin
when it is absent.
"""

import argparse
import json
import sys

from . import chronology, codec, digits, reading
from .alphabets import Alphabet
from .digits import DigitScript
from .errors import NumeralError

_SCRIPTS = [script.value for script in DigitScript]
_ALPHABETS = [alphabet.value for alphabet in Alphabet]
# A rejected argument is echoed up to this many characters.
_ECHO_CHARS = 40


def _text_input(given: str | None) -> str:
    if given is not None:
        return given
    return sys.stdin.buffer.read().decode("utf-8").strip()


def _int_input(given: str | None) -> int:
    text = _text_input(given)
    try:
        return int(text)
    except ValueError:
        shown = repr(text[:_ECHO_CHARS])
        if len(text) > _ECHO_CHARS:
            shown += f"... ({len(text)} characters)"
        raise ValueError(f"expected an integer, got {shown}") from None


def _decimal(n: int) -> str:
    try:
        return str(n)
    except ValueError:  # past the interpreter's int-to-str digit limit
        raise ValueError(
            f"the result has more than {sys.get_int_max_str_digits()} decimal digits, "
            "the most that can be printed"
        ) from None


def _letter_dict(letter) -> dict:
    return {"codepoint": letter.codepoint, "name": letter.name, "value": letter.value}


def _cmd_encode(args) -> tuple[str, dict]:
    numeral = codec.encode(_int_input(args.value), Alphabet(args.alphabet))
    payload = {
        "alphabet": numeral.alphabet.value,
        "value": numeral.value,
        "text": numeral.text,
        "letters": [_letter_dict(letter) for letter in numeral.letters],
    }
    return numeral.text, payload


def _cmd_decode(args) -> tuple[str, dict]:
    word = _text_input(args.value)
    value = codec.decode(word, Alphabet(args.alphabet), strict=args.strict)
    payload = {
        "alphabet": args.alphabet,
        "word": word,
        "strict": args.strict,
        "value": value,
    }
    return str(value), payload


def _cmd_gematria(args) -> tuple[str, dict]:
    phrase = _text_input(args.value)
    result = codec.gematria(phrase, Alphabet(args.alphabet))
    payload = {
        "alphabet": args.alphabet,
        "total": result.total,
        "per_word": [{"word": w, "value": v} for w, v in result.per_word],
    }
    return str(result.total), payload


def _cmd_translit(args) -> tuple[str, dict]:
    text = _text_input(args.value)
    out = digits.transliterate(text, DigitScript(args.src), DigitScript(args.dst))
    payload = {"from": args.src, "to": args.dst, "input": text, "output": out}
    return out, payload


def _cmd_read(args) -> tuple[str, dict]:
    n = _int_input(args.value)
    labels = tuple(args.labels.split(",")) if args.labels else reading.DEFAULT_LABELS
    decomposed = reading.decompose(n)
    text = reading.format_reading(
        decomposed, args.direction, labels=labels, figure_exact=args.figure_exact
    )
    payload = {
        "value": n,
        "direction": args.direction,
        "text": text,
        "groups": [
            {
                "index": group.index,
                "value": group.value,
                "components": [{"rank": c.rank, "value": c.value} for c in group.components],
            }
            for group in decomposed.groups
        ],
    }
    return text, payload


def _cmd_provenance(args) -> tuple[str, dict]:
    entry = digits.digit_provenance(_int_input(args.value), DigitScript(args.script))
    text = (
        f"{entry.alphabet.value} {entry.letter.name} {entry.letter.codepoint}: "
        f"{entry.note}"
    )
    payload = {
        "script": entry.script.value,
        "digit": entry.digit,
        "alphabet": entry.alphabet.value,
        "letter": _letter_dict(entry.letter),
        "note": entry.note,
    }
    return text, payload


def _cmd_hijri(args) -> tuple[str, dict]:
    year = _int_input(args.value)
    if args.reverse:
        out = chronology.gregorian_to_hijri_year(year)
        direction = "ce-to-ah"
    else:
        out = chronology.hijri_to_gregorian_year(year)
        direction = "ah-to-ce"
    return _decimal(out), {"input": year, "output": out, "direction": direction}


_COMMANDS = {
    "encode": _cmd_encode,
    "decode": _cmd_decode,
    "gematria": _cmd_gematria,
    "translit": _cmd_translit,
    "read": _cmd_read,
    "provenance": _cmd_provenance,
    "hijri": _cmd_hijri,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="abjadnum",
        description="Letter-numerals, gematria, digit scripts, number readings, Hijri years.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--json", action="store_true", help="emit one JSON object")
        return p

    p = command("encode", "encode an integer as a letter-word")
    p.add_argument("--alphabet", choices=_ALPHABETS, required=True)
    p.add_argument("value", nargs="?", help="number to encode (stdin if absent)")

    p = command("decode", "decode a letter-word to an integer")
    p.add_argument("--alphabet", choices=_ALPHABETS, required=True)
    p.add_argument("--strict", action="store_true",
                   help="require a canonical numeral word")
    p.add_argument("value", nargs="?", help="word to decode (stdin if absent)")

    p = command("gematria", "sum the letter values of a phrase")
    p.add_argument("--alphabet", choices=_ALPHABETS, required=True)
    p.add_argument("value", nargs="?", help="phrase (stdin if absent)")

    p = command("translit", "transliterate digits between scripts")
    p.add_argument("--from", dest="src", choices=_SCRIPTS, required=True)
    p.add_argument("--to", dest="dst", choices=_SCRIPTS, required=True)
    p.add_argument("value", nargs="?", help="digit string (stdin if absent)")

    p = command("read", "narrate a number by 3-digit groups")
    p.add_argument("--direction", choices=[reading.RIGHT_TO_LEFT, reading.LEFT_TO_RIGHT],
                   default=reading.RIGHT_TO_LEFT)
    p.add_argument("--labels",
                   help="comma-separated scale labels, first entry is the "
                        "(usually empty) units label, e.g. ',mille,millions'")
    p.add_argument("--figure-exact", action="store_true",
                   help="join everything with 'et' instead of group separators")
    p.add_argument("value", nargs="?", help="number to read (stdin if absent)")

    p = command("provenance", "show the source letter behind a digit glyph")
    p.add_argument("--script", choices=_SCRIPTS, required=True)
    p.add_argument("value", nargs="?", help="digit 0..9 (stdin if absent)")

    p = command("hijri", "convert a Hijri year to Gregorian (or back)")
    p.add_argument("--reverse", action="store_true", help="convert Gregorian to Hijri")
    p.add_argument("value", nargs="?", help="year (stdin if absent)")

    return parser


def _utf8_streams():
    for stream in (sys.stdout, sys.stderr):
        if hasattr(stream, "reconfigure"):
            stream.reconfigure(encoding="utf-8")


def main(argv=None) -> int:
    _utf8_streams()
    args = build_parser().parse_args(argv)
    try:
        text, payload = _COMMANDS[args.command](args)
    except NumeralError as err:
        print(f"ERROR {err.code}: {err}", file=sys.stderr)
        return 1
    except ValueError as err:
        print(f"usage error: {err}", file=sys.stderr)
        return 2
    print(json.dumps(payload, ensure_ascii=False) if args.json else text)
    return 0


if __name__ == "__main__":
    sys.exit(main())

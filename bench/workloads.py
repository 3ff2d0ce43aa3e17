"""Seeded inputs for the benchmark's workloads, with their expected outputs.

Each workload is a list of ``Op`` records built from one seed: the same seed
gives the same list.  ``kind`` names the operation the worker runs,
``args`` holds plain strings and integers (alphabet and script names, not
abjadnum's enums), and ``expected`` comes from the independent reference,
either a value or ``Raised(code)``.  Nothing here imports abjadnum.
"""

import math
import random
from collections import namedtuple
from itertools import accumulate
from statistics import NormalDist

from reference import ARABIC_MARKS, HEBREW_MARKS, TATWEEL, Raised, Reference, letter_dict

Op = namedtuple("Op", "kind args expected")

WORKLOADS = ("manuscript", "numbers", "cli")

# Records per workload.  A pass of the in-process workloads walks the
# whole list; the cli workload cycles through its list until time is up.
SIZES = {"manuscript": 2000, "numbers": 4000, "cli": 42}

ALPHABETS = ("arabic", "hebrew")
SCRIPTS = ("western", "mashreki", "original")
LIMITS = {"arabic": 1999, "hebrew": 499}
PUNCTUATION = {"arabic": "،؛.:", "hebrew": "׃־,."}
# Marks mixed into words: harakat with shadda and tatweel, or niqqud with dagesh.
MARKS = {"arabic": ARABIC_MARKS + TATWEEL, "hebrew": HEBREW_MARKS}
MARKS_PER_LETTER = 0.4

VOCABULARY = 2000
ZIPF_S = 1.0
# Phrase lengths in words follow a log-normal law: median ~8, longest ~190.
PHRASE_WORDS = NormalDist(2.1, 1.1)
MAX_PHRASE_WORDS = 200


def build(workload: str, seed: int, ref: Reference) -> list[Op]:
    rng = random.Random(f"{workload}:{seed}")
    return _GENERATORS[workload](rng, ref, SIZES[workload])


# The seed picks the inputs; the amount of work they hold is fixed.  Mixes,
# lengths and mark counts are dealt in exact proportions rather than drawn
# independently, so that two seeds give passes of the same cost and the
# run-to-run spread measures the program, not the luck of the draw.


def _deal(rng, size: int, shares) -> list:
    """`size` values in the exact given shares, in seeded order."""
    out = []
    for value, share in shares:
        out += [value] * round(size * share)
    out = (out + [shares[-1][0]] * size)[:size]
    rng.shuffle(out)
    return out


def _even(rng, size: int, values) -> list:
    """`size` values cycling evenly through `values`, in seeded order."""
    values = list(values)
    out = [values[k % len(values)] for k in range(size)]
    rng.shuffle(out)
    return out


# -- text ----------------------------------------------------------------


def _decorate(rng, alphabet: str, codepoints: list[str]) -> str:
    """Mix MARKS_PER_LETTER marks per letter in, each after a random letter."""
    after = [""] * len(codepoints)
    for _ in range(round(MARKS_PER_LETTER * len(codepoints))):
        i = rng.randrange(len(codepoints))
        after[i] += rng.choice(MARKS[alphabet])
    return "".join(cp + marks for cp, marks in zip(codepoints, after))


def _spell(rng, alphabet: str, letters, variant_p: float = 0.25) -> list[str]:
    """Codepoints of `letters`, using variant forms.

    Arabic variants (hamza seats, Taa marbuta, Alif maqsura) appear
    anywhere; Hebrew final forms only at the end of a word.
    """
    last = len(letters) - 1
    out = []
    for i, letter in enumerate(letters):
        use_variant = letter.variants and (
            rng.random() < variant_p if alphabet == "arabic" else i == last
        )
        out.append(rng.choice(letter.variants) if use_variant else letter.codepoint)
    return out


def _vocabulary(rng, ref: Reference, alphabet: str) -> list[str]:
    """Words by falling frequency; as in real text, the frequent ones are short.

    Rank 1 has 2 letters, ranks 4.. have 3, 16.. 4, 64.. 5, 256.. 6, 1024.. 7.
    """
    table = ref.letters[alphabet]
    words = []
    for rank in range(1, VOCABULARY + 1):
        length = 2 + min(5, (rank.bit_length() - 1) // 2)
        letters = [rng.choice(table) for _ in range(length)]
        words.append(_decorate(rng, alphabet, _spell(rng, alphabet, letters)))
    return words


def _phrase_lengths(rng, size: int) -> list[int]:
    """`size` evenly spaced quantiles of PHRASE_WORDS, in seeded order."""
    lengths = [min(MAX_PHRASE_WORDS, max(1, round(math.exp(PHRASE_WORDS.inv_cdf((k + 0.5) / size)))))
               for k in range(size)]
    rng.shuffle(lengths)
    return lengths


def _other(alphabet: str) -> str:
    return "hebrew" if alphabet == "arabic" else "arabic"


def _foreign_letter(rng, ref: Reference, alphabet: str) -> str:
    return rng.choice(ref.letters[_other(alphabet)]).codepoint


def _numeral_word(rng, ref: Reference, alphabet: str, n: int, canonical: bool) -> str:
    letters = list(ref.encode_letters(n, alphabet))
    if not canonical:
        rng.shuffle(letters)
    return _decorate(rng, alphabet, _spell(rng, alphabet, letters, variant_p=0.2))


# -- manuscript ----------------------------------------------------------


def _manuscript(rng, ref: Reference, size: int) -> list[Op]:
    vocab = {alphabet: _vocabulary(rng, ref, alphabet) for alphabet in ALPHABETS}
    zipf = list(accumulate(1 / rank**ZIPF_S for rank in range(1, VOCABULARY + 1)))
    kinds = _deal(rng, size, [("gematria", 0.45), ("decode_lax", 0.30), ("decode_strict", 0.25)])
    alphabets = _deal(rng, size, [("arabic", 0.6), ("hebrew", 0.4)])
    lengths = iter(_phrase_lengths(rng, kinds.count("gematria")))
    ops = []
    for kind, alphabet in zip(kinds, alphabets):
        if kind == "gematria":
            words = rng.choices(vocab[alphabet], cum_weights=zipf, k=next(lengths))
            # The expected errors come at the end of the phrase, so that an
            # error op costs what its phrase costs, whatever the seed.
            roll = rng.random()
            ignore = PUNCTUATION[alphabet] if roll < 0.3 else ""
            if ignore:
                words = [w + rng.choice(ignore) if rng.random() < 0.2 else w for w in words]
            elif roll < 0.32:
                # without an ignore set, punctuation is an unknown letter
                words[-1] += rng.choice(PUNCTUATION[alphabet])
            elif roll < 0.33:
                words.append(rng.choice(vocab[_other(alphabet)]))
            phrase = " ".join(words)
            ops.append(Op("gematria", (phrase, alphabet, ignore),
                          ref.gematria(phrase, alphabet, ignore)))
            continue
        n = rng.randint(1, LIMITS[alphabet])
        strict = kind == "decode_strict"
        canonical = strict and rng.random() >= 0.05
        word = _numeral_word(rng, ref, alphabet, n, canonical)
        if strict and not canonical and ref.decode(word, alphabet, True) == n:
            # a shuffle that left the word canonical: add a second units letter
            word += ref.by_value[alphabet][rng.randint(1, 9)].codepoint
        if rng.random() < 0.01:
            word += _foreign_letter(rng, ref, alphabet)
        ops.append(Op(kind, (word, alphabet), ref.decode(word, alphabet, strict)))
    return ops


# -- numbers -------------------------------------------------------------


def _digits_n(rng, digits: int) -> int:
    return rng.randrange(10 ** (digits - 1) if digits > 1 else 0, 10**digits)


def _date_text(rng, ref: Reference, script: str) -> str:
    """A date or folio string in `script`, with separators."""
    y, m, d = rng.randint(600, 2100), rng.randint(1, 12), rng.randint(1, 30)
    folio = rng.randint(1, 480)
    fields, sep = rng.choice([
        ((y, m, d), "/"),
        ((d, m, y), "."),
        ((y, y + rng.randint(1, 9)), "-"),
        ((folio, rng.randint(1, 30)), ","),
        ((folio, folio + 1), " - "),
    ])
    return sep.join(ref.render(f, script) for f in fields)


def _numbers(rng, ref: Reference, size: int) -> list[Op]:
    kinds = _deal(rng, size, [("encode", 0.25), ("digits_round_trip", 0.20),
                              ("transliterate", 0.15), ("reading", 0.20),
                              ("hijri_to_ce", 0.10), ("ce_to_hijri", 0.10)])
    render_digits = iter(_even(rng, kinds.count("digits_round_trip"), range(1, 25)))
    reading_digits = iter(_even(rng, kinds.count("reading"), range(1, 13)))
    reading_modes = iter(_even(rng, kinds.count("reading"),
                               [("rtl", False), ("ltr", False), ("rtl", True)]))
    ops = []
    for kind in kinds:
        if kind == "encode":
            alphabet = rng.choice(ALPHABETS)
            limit = LIMITS[alphabet]
            if rng.random() < 0.04:
                n = rng.choice([0, limit + rng.randint(1, 500)])
            else:
                n = rng.randint(1, limit)
            ops.append(Op("encode", (n, alphabet), ref.encode(n, alphabet)))
        elif kind == "digits_round_trip":
            n, script = _digits_n(rng, next(render_digits)), rng.choice(SCRIPTS)
            ops.append(Op("digits_round_trip", (n, script), (ref.render(n, script), n)))
        elif kind == "transliterate":
            src, dst = rng.choice(SCRIPTS), rng.choice(SCRIPTS)
            text = _date_text(rng, ref, src)
            ops.append(Op("transliterate", (text, src, dst), ref.transliterate(text, src, dst)))
        elif kind == "reading":
            n = _digits_n(rng, next(reading_digits))
            direction, figure_exact = next(reading_modes)
            ops.append(Op("reading", (n, direction, figure_exact),
                          ref.reading(n, direction, figure_exact)))
        elif kind == "hijri_to_ce":
            h = rng.randint(1, 1500)
            ops.append(Op("hijri_to_ce", (h,), ref.hijri_to_ce(h)))
        else:
            g = rng.randint(622, 2100)
            ops.append(Op("ce_to_hijri", (g,), ref.ce_to_hijri(g)))
    return ops


# -- cli -----------------------------------------------------------------

# Each of these returns (options, value, expected) where expected is
# (plain text, JSON payload) or Raised(code).


def _cli_encode(rng, ref, vocab, error):
    alphabet = rng.choice(ALPHABETS)
    n = rng.choice([0, LIMITS[alphabet] + rng.randint(1, 99)]) if error \
        else rng.randint(1, LIMITS[alphabet])
    expected = ref.encode(n, alphabet)
    if not isinstance(expected, Raised):
        text = expected[0]
        payload = {"alphabet": alphabet, "value": n, "text": text,
                   "letters": [letter_dict(x) for x in ref.encode_letters(n, alphabet)]}
        expected = (text, payload)
    return ["--alphabet", alphabet], str(n), expected


def _cli_decode(rng, ref, vocab, error):
    alphabet = rng.choice(ALPHABETS)
    n = rng.randint(11, LIMITS[alphabet])
    strict = error or rng.random() < 0.5
    word = _numeral_word(rng, ref, alphabet, n, canonical=strict and not error)
    if error and ref.decode(word, alphabet, True) == n:
        word += ref.by_value[alphabet][rng.randint(1, 9)].codepoint
    value = ref.decode(word, alphabet, strict)
    expected = value if isinstance(value, Raised) else (
        str(value), {"alphabet": alphabet, "word": word, "strict": strict, "value": value})
    return ["--alphabet", alphabet] + (["--strict"] if strict else []), word, expected


def _cli_gematria(rng, ref, vocab, error):
    alphabet = rng.choice(ALPHABETS)
    words = rng.sample(vocab[alphabet], rng.randint(1, 6))
    if error:
        words.append(rng.choice(vocab[_other(alphabet)]))
    phrase = " ".join(words)
    result = ref.gematria(phrase, alphabet)
    expected = result if isinstance(result, Raised) else (
        str(result[0]), {"alphabet": alphabet, "total": result[0],
                         "per_word": [{"word": w, "value": v} for w, v in result[1]]})
    return ["--alphabet", alphabet], phrase, expected


def _cli_translit(rng, ref, vocab, error):
    src, dst = rng.sample(SCRIPTS, 2)
    text = _date_text(rng, ref, src)
    if error:
        # a glyph of another script, inside the digits
        stranger = "mashreki" if src != "mashreki" else "western"
        text = text[:1] + ref.render(rng.randint(1, 9), stranger) + text[1:]
        return ["--from", src, "--to", dst], text, Raised("InvalidGlyph")
    out = ref.transliterate(text, src, dst)
    return (["--from", src, "--to", dst], text,
            (out, {"from": src, "to": dst, "input": text, "output": out}))


def _cli_read(rng, ref, vocab, error):
    n = _digits_n(rng, rng.randint(13, 15) if error else rng.randint(1, 12))
    direction = rng.choice(["rtl", "ltr"])
    figure_exact = direction == "rtl" and rng.random() < 0.5
    options = ["--direction", direction] + (["--figure-exact"] if figure_exact else [])
    if error:
        return options, str(n), Raised("InsufficientLabels")
    text = ref.reading(n, direction, figure_exact)
    groups = [{"index": i, "value": value,
               "components": [{"rank": rank, "value": v} for rank, v in components]}
              for i, (value, components) in enumerate(ref.groups(n))]
    return options, str(n), (text, {"value": n, "direction": direction, "text": text,
                                    "groups": groups})


def _cli_provenance(rng, ref, vocab, error):
    script, digit = rng.choice(SCRIPTS), rng.randint(0, 9)
    return (["--script", script], str(digit),
            (ref.provenance_text(digit, script), ref.provenance_payload(digit, script)))


def _cli_hijri(rng, ref, vocab, error):
    reverse = error or rng.random() < 0.5
    if error:
        return ["--reverse"], str(rng.randint(1, 621)), Raised("PreEpoch")
    year = rng.randint(622, 2100) if reverse else rng.randint(1, 1500)
    out = ref.ce_to_hijri(year) if reverse else ref.hijri_to_ce(year)
    payload = {"input": year, "output": out, "direction": "ce-to-ah" if reverse else "ah-to-ce"}
    return ["--reverse"] if reverse else [], str(year), (str(out), payload)


CLI_COMMANDS = {
    "encode": _cli_encode,
    "decode": _cli_decode,
    "gematria": _cli_gematria,
    "translit": _cli_translit,
    "read": _cli_read,
    "provenance": _cli_provenance,
    "hijri": _cli_hijri,
}
# Subcommands with no domain error reachable from well-formed input.
_NO_DOMAIN_ERROR = {"provenance"}


def _cli(rng, ref: Reference, size: int) -> list[Op]:
    """`python -m abjadnum` invocations: args are (argv, stdin bytes or None).

    Expected is (exit code, plain text, JSON payload or None) on success and
    Raised(code) for a domain error, which exits 1 with ``ERROR <code>``.
    """
    vocab = {alphabet: _vocabulary(rng, ref, alphabet)[:50] for alphabet in ALPHABETS}
    names = list(CLI_COMMANDS)
    ops = []
    for i in range(size):
        name = names[i % len(names)]
        error = name not in _NO_DOMAIN_ERROR and rng.random() < 0.08
        options, value, expected = CLI_COMMANDS[name](rng, ref, vocab, error)
        as_json = rng.random() < 0.5
        argv = [name, *options] + (["--json"] if as_json else [])
        if rng.random() < 0.3:
            stdin = value.encode("utf-8")
        else:
            argv.append(value)
            stdin = None
        if not isinstance(expected, Raised):
            text, payload = expected
            expected = (text, payload if as_json else None)
        ops.append(Op("cli", (tuple(argv), stdin), expected))
    return ops


_GENERATORS = {"manuscript": _manuscript, "numbers": _numbers, "cli": _cli}

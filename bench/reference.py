"""Independent references that the benchmark checks abjadnum's outputs against.

Nothing here imports abjadnum.  Letter values are parsed straight from the
TSV files under ``src/abjadnum/data``, the digit glyph tables are written
out below, readings are built with ``divmod``, and Hijri years come from
exact rational arithmetic on the two published constants.  The characters
a reference skips are exactly the marks this benchmark itself inserts
(``MARKS``), not the library's Unicode rule.
"""

from collections import namedtuple
from fractions import Fraction
from pathlib import Path

# An expected (or observed) domain error, by its class name.
Raised = namedtuple("Raised", "code")

TATWEEL = "ـ"
# Arabic harakat U+064B..U+0650 and U+0652, shadda U+0651.
ARABIC_MARKS = "".join(chr(cp) for cp in range(0x064B, 0x0653))
# Hebrew points: sheva, hiriq, tsere, segol, patah, qamats, holam, dagesh.
HEBREW_MARKS = "".join(chr(cp) for cp in (0x05B0, 0x05B4, 0x05B5, 0x05B6, 0x05B7, 0x05B8,
                                          0x05B9, 0x05BC))
MARKS = frozenset(ARABIC_MARKS + HEBREW_MARKS + TATWEEL)

DIGIT_GLYPHS = {
    "western": "0123456789",
    "mashreki": "".join(chr(cp) for cp in range(0x0660, 0x066A)),
    # the original Maghrebi digits, written with Western proxy glyphs
    # whose 4 and 5 are swapped
    "original": "0123546789",
}
SEPARATORS = " .,-/"

RANK_NAMES = ("units", "tens", "hundreds")
DEFAULT_LABELS = ("", "mille", "millions", "milliards")

YEAR_RATIO = Fraction("0.970224")
EPOCH_OFFSET = Fraction("621.5774")
HIJRI_EPOCH_CE = 622

Letter = namedtuple("Letter", "codepoint variants name value")


def _read_letters(path: Path) -> list[Letter]:
    rows = []
    for line in path.read_text(encoding="utf-8").splitlines():
        order, primary, variants, name, value = line.split("\t")
        rows.append((int(order), Letter(primary, tuple(v for v in variants.split(",") if v),
                                        name, int(value))))
    return [letter for _, letter in sorted(rows)]


def _band(value: int) -> int:
    return len(str(value)) - 1


class Reference:
    """Expected outputs of every operation the workloads run."""

    def __init__(self, data_dir: Path):
        self.letters = {
            alphabet: _read_letters(data_dir / f"{alphabet}.tsv")
            for alphabet in ("arabic", "hebrew")
        }
        self.value_of = {
            alphabet: {cp: letter.value for letter in table
                       for cp in (letter.codepoint, *letter.variants)}
            for alphabet, table in self.letters.items()
        }
        self.by_value = {
            alphabet: {letter.value: letter for letter in table}
            for alphabet, table in self.letters.items()
        }
        self.provenance = {}
        for line in (data_dir / "digit_provenance.tsv").read_text(encoding="utf-8").splitlines():
            script, digit, alphabet, name, note = line.split("\t")
            letter = next(x for x in self.letters[alphabet] if x.name == name)
            self.provenance[(script, int(digit))] = (alphabet, letter, note)

    # -- codec -----------------------------------------------------------

    def encode_letters(self, n: int, alphabet: str):
        """Canonical letters of n, units first, or the expected error."""
        limit = 1999 if alphabet == "arabic" else 499
        if n == 0:
            return Raised("ZeroUnencodable")
        if not 1 <= n <= limit:
            return Raised("OutOfRange")
        thousands, rest = divmod(n, 1000)
        hundreds, rest = divmod(rest, 100)
        tens, units = divmod(rest, 10)
        values = (units, tens * 10, hundreds * 100, thousands * 1000)
        return [self.by_value[alphabet][v] for v in values if v]

    def encode(self, n: int, alphabet: str):
        """(text, value) of the canonical word, or the expected error."""
        letters = self.encode_letters(n, alphabet)
        if isinstance(letters, Raised):
            return letters
        return "".join(letter.codepoint for letter in letters), n

    def _values(self, word: str, alphabet: str, ignore: str = ""):
        table = self.value_of[alphabet]
        values = []
        for ch in word:
            if ch in MARKS or ch.isspace() or ch in ignore:
                continue
            if ch not in table:
                return Raised("UnknownLetter")
            values.append(table[ch])
        return values

    def decode(self, word: str, alphabet: str, strict: bool = False):
        values = self._values(word, alphabet)
        if isinstance(values, Raised):
            return values
        if strict:
            bands = [_band(v) for v in values]
            ascending = all(a < b for a, b in zip(values, values[1:]))
            if not ascending or len(set(bands)) != len(bands):
                return Raised("NonCanonical")
        return sum(values)

    def gematria(self, phrase: str, alphabet: str, ignore: str = ""):
        """(total, ((word, value), ...)), or the expected error."""
        per_word = []
        for word in phrase.split():
            values = self._values(word, alphabet, ignore)
            if isinstance(values, Raised):
                return values
            per_word.append((word, sum(values)))
        return sum(v for _, v in per_word), tuple(per_word)

    # -- digits ----------------------------------------------------------

    def render(self, n: int, script: str) -> str:
        glyphs = DIGIT_GLYPHS[script]
        out = []
        while True:
            n, d = divmod(n, 10)
            out.append(glyphs[d])
            if n == 0:
                return "".join(reversed(out))

    def parse(self, text: str, script: str) -> int:
        glyphs = DIGIT_GLYPHS[script]
        n = 0
        for ch in text:
            n = n * 10 + glyphs.index(ch)
        return n

    def transliterate(self, text: str, src: str, dst: str) -> str:
        table = dict(zip(DIGIT_GLYPHS[src], DIGIT_GLYPHS[dst]))
        return "".join(ch if ch in SEPARATORS else table[ch] for ch in text)

    def provenance_text(self, digit: int, script: str) -> str:
        alphabet, letter, note = self.provenance[(script, digit)]
        return f"{alphabet} {letter.name} {letter.codepoint}: {note}"

    def provenance_payload(self, digit: int, script: str) -> dict:
        alphabet, letter, note = self.provenance[(script, digit)]
        return {
            "script": script,
            "digit": digit,
            "alphabet": alphabet,
            "letter": letter_dict(letter),
            "note": note,
        }

    # -- readings --------------------------------------------------------

    @staticmethod
    def groups(n: int) -> list[tuple[int, list[tuple[str, int]]]]:
        """(group value, [(rank, component value)]), least significant first."""
        out = []
        while True:
            n, group = divmod(n, 1000)
            hundreds, rest = divmod(group, 100)
            tens, units = divmod(rest, 10)
            parts = zip(RANK_NAMES, (units, tens * 10, hundreds * 100))
            out.append((group, [(rank, v) for rank, v in parts if v]))
            if n == 0:
                return out

    def reading(self, n: int, direction: str, figure_exact: bool = False) -> str:
        groups = self.groups(n)
        if direction == "rtl":
            parts = []
            for index, (_, components) in enumerate(groups):
                if components:
                    spoken = " et ".join(str(v) for _, v in components)
                    label = DEFAULT_LABELS[index]
                    parts.append(f"{spoken} {label}" if label else spoken)
            return (" et " if figure_exact else " ; ").join(parts) or "0"
        parts = []
        for index in reversed(range(len(groups))):
            value = groups[index][0]
            if value:
                label = DEFAULT_LABELS[index]
                parts.append(f"{value} {label}" if label else str(value))
        return " ".join(parts) or "0"

    # -- chronology ------------------------------------------------------

    @staticmethod
    def hijri_to_ce(h: int) -> int:
        return round(YEAR_RATIO * h + EPOCH_OFFSET)

    @staticmethod
    def ce_to_hijri(g: int):
        if g < HIJRI_EPOCH_CE:
            return Raised("PreEpoch")
        return max(1, round((g - EPOCH_OFFSET) / YEAR_RATIO))


def letter_dict(letter: Letter) -> dict:
    return {"codepoint": letter.codepoint, "name": letter.name, "value": letter.value}

"""Codec tests.

The oracle below never touches the codec's digit arithmetic: it enumerates
every combination of at most one letter per rank band and records the
resulting (value, word) pairs.  That enumeration independently proves that
the canonical words cover 1..1999 (Arabic) and 1..499 (Hebrew) exactly
once each, and pins what encode() must return.
"""

import copy
import itertools
import pickle
import random
import unicodedata

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from abjadnum import (
    MAX_ENCODABLE,
    AbjadNumeral,
    Alphabet,
    GematriaResult,
    NonCanonical,
    NumeralError,
    OutOfRange,
    UnknownLetter,
    ZeroUnencodable,
    decode,
    encode,
    gematria,
    letters,
)
from abjadnum import codec
from support import fresh, outcome, race


_RANK_BANDS = ((1, 9), (10, 90), (100, 900), (1000, 1000))


def canonical_words(alphabet):
    """Oracle: every canonical (value, word) pair by band enumeration."""
    bands = []
    for lo, hi in _RANK_BANDS:
        band = [letter for letter in letters(alphabet) if lo <= letter.value <= hi]
        if band:
            bands.append([None] + band)
    table = {}
    for combo in itertools.product(*bands):
        picks = sorted((l for l in combo if l is not None), key=lambda l: l.value)
        if not picks:
            continue
        value = sum(letter.value for letter in picks)
        assert value not in table, "band enumeration must be value-unique"
        table[value] = "".join(letter.codepoint for letter in picks)
    return table


ARABIC_WORDS = canonical_words(Alphabet.ARABIC)
HEBREW_WORDS = canonical_words(Alphabet.HEBREW)


class TestOracle:
    def test_covers_the_full_ranges_exactly(self):
        assert sorted(ARABIC_WORDS) == list(range(1, 2000))
        assert sorted(HEBREW_WORDS) == list(range(1, 500))

    def test_encode_agrees_with_the_oracle_everywhere(self):
        for n, word in ARABIC_WORDS.items():
            assert encode(n, Alphabet.ARABIC).text == word
        for n, word in HEBREW_WORDS.items():
            assert encode(n, Alphabet.HEBREW).text == word


class TestEncode:
    def test_classic_examples(self):
        assert encode(1245, Alphabet.ARABIC).text == "همرغ"
        assert encode(200, Alphabet.ARABIC).text == "ر"
        assert encode(1, Alphabet.ARABIC).text == "ا"
        # The edges of the two-digit tables: the last entry of the low table,
        # the first and last hundreds, the thousand and each alphabet's limit.
        for n, alphabet, word in [
            (99, Alphabet.ARABIC, "طص"),
            (100, Alphabet.ARABIC, "ق"),
            (999, Alphabet.ARABIC, "طصظ"),
            (1000, Alphabet.ARABIC, "غ"),
            (1999, Alphabet.ARABIC, "طصظغ"),
            (99, Alphabet.HEBREW, "טצ"),
            (100, Alphabet.HEBREW, "ק"),
            (499, Alphabet.HEBREW, "טצת"),
        ]:
            assert encode(n, alphabet).text == word
            assert decode(word, alphabet, strict=True) == n

    def test_hebrew_maximum(self):
        # 499 = 9 + 90 + 400, frozen from the band-enumeration oracle
        numeral = encode(499, Alphabet.HEBREW)
        assert numeral.text == "טצת"
        assert [l.value for l in numeral.letters] == [9, 90, 400]

    def test_1945_versus_1999(self):
        # ط ص ظ غ sums to 9+90+900+1000 = 1999, so it cannot mean 1945;
        # the word for 1945 is pinned from the oracle
        assert decode("طصظغ", Alphabet.ARABIC) == 1999
        assert encode(1999, Alphabet.ARABIC).text == "طصظغ"
        assert encode(1945, Alphabet.ARABIC).text == "همظغ"

    def test_hebrew_15_and_16_stay_positional(self):
        # known divergence from scribal practice: the 9+6 / 9+7 euphemism
        # is not applied, 15 and 16 decompose by rank like everything else
        assert encode(15, Alphabet.HEBREW).text == "הי"
        assert encode(16, Alphabet.HEBREW).text == "וי"

    def test_numeral_invariants(self):
        for n in (1, 45, 317, 1006, 1999):
            numeral = encode(n, Alphabet.ARABIC)
            values = [letter.value for letter in numeral.letters]
            assert all(a < b for a, b in zip(values, values[1:]))
            assert sum(values) == numeral.value == n

    def test_size_bounds(self):
        assert all(len(encode(n, Alphabet.ARABIC).letters) <= 4 for n in range(1, 2000))
        assert all(len(encode(n, Alphabet.HEBREW).letters) <= 3 for n in range(1, 500))

    def test_rejects_zero(self):
        for alphabet in Alphabet:
            with pytest.raises(ZeroUnencodable):
                encode(0, alphabet)

    def test_rejects_out_of_range(self):
        with pytest.raises(OutOfRange):
            encode(2000, Alphabet.ARABIC)
        with pytest.raises(OutOfRange):
            encode(500, Alphabet.HEBREW)
        with pytest.raises(OutOfRange):
            encode(-7, Alphabet.ARABIC)

    @pytest.mark.parametrize("n", [True, False, 12.0, "12", None])
    def test_non_int_is_a_usage_error(self, n):
        with pytest.raises(ValueError, match=r"^n must be an int, not ") as raised:
            encode(n, Alphabet.ARABIC)
        assert not isinstance(raised.value, NumeralError)


class _Int(int):
    pass


# Run in a fresh interpreter, where every table is empty: each value's first
# encode builds its record, so its first text is the one the miss stored.
_COLD_TEXTS = """
from abjadnum import Alphabet, codec, encode
assert not codec._TEXTS and not any(codec._NUMERALS.values())
wrong = []
for alphabet in Alphabet:
    for n in range(1, codec.MAX_ENCODABLE[alphabet] + 1):
        numeral = encode(n, alphabet)
        joined = "".join([letter.codepoint for letter in numeral.letters])
        first = numeral.text
        second = numeral.text
        if (first, second) != (joined, joined):
            wrong.append((alphabet.name, n, first, second, joined))
print(len(codec._TEXTS), wrong)
"""


# Run in a fresh interpreter: threads, more than there are cores, walk every
# value in one order, so that they miss on the same value together, switching
# as often as the interpreter allows.  Each value must come out as one
# record, and each kept text must belong to the letters of a stored record:
# a text kept for a record that lost setdefault would name a freed tuple.
# Each round starts from empty tables, the texts emptied with them.
_COLD_THREADS = """
import random
from abjadnum import codec, encode
from support import race
calls = [(n, a) for a, limit in codec.MAX_ENCODABLE.items() for n in range(1, limit + 1)]
random.Random(1).shuffle(calls)

for _ in range(4):
    for table in codec._NUMERALS.values():
        table.clear()
    codec._TEXTS.clear()
    got = []
    assert race(lambda: got.append({call: encode(*call) for call in calls}), [()] * 8) == ([], 0)
    stored = {(n, a): numeral for a, table in codec._NUMERALS.items()
              for n, numeral in table.items()}
    assert len(got) == 8 and len(stored) == len(calls)
    assert all(numerals[call] is stored[call] for numerals in got for call in calls)
    assert set(codec._TEXTS) == {id(numeral.letters) for numeral in stored.values()}
    assert all(numeral.text == "".join([x.codepoint for x in numeral.letters])
               for numeral in stored.values())
print("ok")
"""


class TestSharedNumerals:
    def test_every_first_text_is_its_letters_joined(self):
        assert fresh(_COLD_TEXTS) == f"{sum(MAX_ENCODABLE.values())} []\n"

    def test_threads_that_miss_together_share_one_record(self):
        assert fresh(_COLD_THREADS) == "ok\n"

    @pytest.mark.parametrize("alphabet", list(Alphabet))
    def test_encode_hands_out_one_record_per_value(self, alphabet):
        for n in range(1, MAX_ENCODABLE[alphabet] + 1):
            assert encode(n, alphabet) is encode(n, alphabet)
        assert encode(_Int(7), alphabet) is encode(7, alphabet)
        table = codec._NUMERALS[alphabet]
        assert sorted(table) == list(range(1, MAX_ENCODABLE[alphabet] + 1))
        assert all(type(n) is int for n in table)

    def test_each_kept_text_belongs_to_a_stored_record(self):
        for alphabet in Alphabet:
            for n in range(1, MAX_ENCODABLE[alphabet] + 1):
                encode(n, alphabet)
        stored = [numeral.letters for table in codec._NUMERALS.values()
                  for numeral in table.values()]
        assert set(codec._TEXTS) == set(map(id, stored))
        for letters_ in stored:
            assert codec._TEXTS[id(letters_)] == "".join([x.codepoint for x in letters_])

    def test_a_hand_built_numeral_joins_its_own_letters(self):
        A = Alphabet.ARABIC
        shared = encode(1245, A)
        assert shared.text == "همرغ"
        for numeral, text in [
            (AbjadNumeral(A, tuple(list(shared.letters)), 1245), "همرغ"),  # fresh letters
            (AbjadNumeral(A, shared.letters[::-1], 1245), "غرمه"),
            (AbjadNumeral(A, encode(5, A).letters, 7), "ه"),  # shared letters, another value
            (AbjadNumeral(A, shared.letters, 5), "همرغ"),
            (AbjadNumeral(A, list(shared.letters), 1245), "همرغ"),
            (AbjadNumeral(A, list(shared.letters[::-1]), 1245), "غرمه"),
            (AbjadNumeral(A, (), 0), ""),
        ]:
            assert numeral.text == text == str(numeral), numeral

    def test_a_copied_numeral_has_the_same_text(self):
        for alphabet, n in [(Alphabet.ARABIC, 1245), (Alphabet.ARABIC, 5), (Alphabet.HEBREW, 499)]:
            shared = encode(n, alphabet)
            copies = [copy.copy(shared), copy.deepcopy(shared)] + [
                pickle.loads(pickle.dumps(shared, protocol))
                for protocol in range(pickle.HIGHEST_PROTOCOL + 1)
            ]
            for copied in copies:
                assert copied == shared
                assert copied.text == copied.text == shared.text

    @pytest.mark.parametrize("alphabet", list(Alphabet))
    def test_a_failed_encode_stores_nothing(self, alphabet):
        limit = MAX_ENCODABLE[alphabet]
        table = codec._NUMERALS[alphabet]
        before = dict(table), dict(codec._TEXTS)
        for n in (0, limit + 1, -1, -limit, 10**30, True, False, "5", 5.0, _Int(limit + 1), _Int(0)):
            with pytest.raises(ValueError):
                encode(n, alphabet)
        assert (dict(table), dict(codec._TEXTS)) == before
        assert len(table) <= limit
        assert len(codec._TEXTS) <= sum(MAX_ENCODABLE.values())


class TestDecode:
    def test_classic_examples(self):
        assert decode("همرغ", Alphabet.ARABIC) == 1245
        assert decode("ر", Alphabet.ARABIC, strict=True) == 200

    def test_strict_rejects_reversed_word(self):
        with pytest.raises(NonCanonical):
            decode("غرمه", Alphabet.ARABIC, strict=True)
        assert decode("غرمه", Alphabet.ARABIC) == 1245

    def test_strict_rejects_two_letters_of_one_rank(self):
        # A valid sum in lax mode, never a canonical word
        for word, alphabet, total in [
            ("תת", Alphabet.HEBREW, 800),  # 400 + 400: two letters of one rank
            ("غغ", Alphabet.ARABIC, 2000),  # past the limit: no letter is worth 2000
            ("תתק", Alphabet.HEBREW, 900),  # past the limit: no letter is worth 900
            ("اغغ", Alphabet.ARABIC, 2001),  # past the end of the hundreds table
            ("קת", Alphabet.HEBREW, 500),  # 500 has no Hebrew letter
            ("תק", Alphabet.HEBREW, 500),
        ]:
            assert decode(word, alphabet) == total
            with pytest.raises(NonCanonical):
                decode(word, alphabet, strict=True)

    @pytest.mark.parametrize("alphabet", list(Alphabet))
    def test_exhaustive_strict_round_trip(self, alphabet):
        for n in range(1, MAX_ENCODABLE[alphabet] + 1):
            assert decode(encode(n, alphabet).text, alphabet, strict=True) == n

    def test_lax_is_permutation_invariant(self):
        rng = random.Random(5417)
        for _ in range(300):
            n = rng.randrange(1, 2000)
            chars = list(encode(n, Alphabet.ARABIC).text)
            rng.shuffle(chars)
            assert decode("".join(chars), Alphabet.ARABIC) == n

    def test_ignores_diacritics_and_elongation(self):
        assert decode("مُحَمَّد", Alphabet.ARABIC) == 92
        assert decode("محمــد", Alphabet.ARABIC) == 92  # tatweel stretched
        assert decode("אֲשֶׁר", Alphabet.HEBREW) == 501

    def test_ignores_interior_whitespace(self):
        assert decode(" ه م ر غ ", Alphabet.ARABIC, strict=True) == 1245

    def test_variant_forms_decode(self):
        for word, alphabet, strict, value in [
            ("ים", Alphabet.HEBREW, False, 50),  # final Mem counts as 40
            # canonical words in variant forms, with marks between the letters
            ("أ\u064eى\u0651ـر", Alphabet.ARABIC, True, 211),
            ("ة\u0650ؤ", Alphabet.ARABIC, False, 11),
            ("ט\u05b8ם\u05bc", Alphabet.HEBREW, True, 49),
        ]:
            assert decode(word, alphabet, strict) == value

    def test_unknown_letter(self):
        for word, alphabet, strict in [
            ("Xyz", Alphabet.ARABIC, False),
            ("שלום", Alphabet.ARABIC, False),  # wrong alphabet
            # a non-canonical prefix: the unknown letter is reported first
            ("غرمهא", Alphabet.ARABIC, True),
            ("תתب", Alphabet.HEBREW, True),
        ]:
            with pytest.raises(UnknownLetter):
                decode(word, alphabet, strict)

    def test_empty_word_is_a_usage_error(self):
        for word, alphabet, strict in [
            ("  ", Alphabet.ARABIC, False),
            ("  ", Alphabet.ARABIC, True),
            ("\u064e\u0640 \u0651", Alphabet.ARABIC, True),  # marks, tatweel, a space
            ("\u05b8\t\u05bc", Alphabet.HEBREW, True),
        ]:
            with pytest.raises(ValueError, match="^empty word$") as raised:
                decode(word, alphabet, strict)
            assert not isinstance(raised.value, NumeralError)


@given(st.integers(min_value=1, max_value=1999), st.randoms())
def test_any_permutation_decodes_lax(n, rnd):
    chars = list(encode(n, Alphabet.ARABIC).text)
    rnd.shuffle(chars)
    assert decode("".join(chars), Alphabet.ARABIC) == n


class TestGematria:
    def test_published_phrase(self):
        result = gematria("احمد زينب", Alphabet.ARABIC)
        assert result.total == 122
        assert result.per_word == (("احمد", 53), ("زينب", 69))

    def test_empty_phrase(self):
        result = gematria("", Alphabet.ARABIC)
        assert result.total == 0
        assert result.per_word == ()

    def test_single_letter(self):
        assert gematria("ر", Alphabet.ARABIC).total == 200

    def test_matches_lax_decode_for_one_word(self):
        for word in ("همرغ", "احمد", "زينب"):
            assert gematria(word, Alphabet.ARABIC).total == decode(word, Alphabet.ARABIC)

    def test_unknown_codepoint_raises(self):
        with pytest.raises(UnknownLetter):
            gematria("احمد!", Alphabet.ARABIC)

    def test_configurable_ignorable_punctuation(self):
        result = gematria("احمد، زينب!", Alphabet.ARABIC, ignore="،!")
        assert result.total == 122

    @pytest.mark.parametrize(
        "phrase, ignore, per_word",
        [
            # A token of ignored characters only keeps its place, worth 0.
            ("ا ، ب", "،", (("ا", 1), ("،", 0), ("ب", 2))),
            # Whitespace in ignore neither splits nor joins tokens.
            ("ا ،ب", "، ", (("ا", 1), ("،ب", 2))),
            # A letter in ignore counts 0.  Run in this order, each set replaces
            # the last one's memo, and the empty set goes back to the plain memo.
            ("احمد زينب", "ا", (("احمد", 52), ("زينب", 69))),
            ("احمد زينب", "ب", (("احمد", 53), ("زينب", 67))),
            ("احمد زينب", "ا", (("احمد", 52), ("زينب", 69))),
            ("احمد زينب", "", (("احمد", 53), ("زينب", 69))),
        ],
    )
    def test_ignore_keeps_every_token_in_place(self, phrase, ignore, per_word):
        assert gematria(phrase, Alphabet.ARABIC, ignore=ignore).per_word == per_word

    def test_hebrew_with_niqqud(self):
        assert gematria("אֲשֶׁר", Alphabet.HEBREW).total == 501


@pytest.mark.parametrize(
    "call, args, message",
    [
        (decode, (123, Alphabet.ARABIC), "word must be a str, not int"),
        (decode, (["\u0627", "\u0628"], Alphabet.ARABIC), "word must be a str, not list"),
        (gematria, (None, Alphabet.ARABIC), "phrase must be a str, not NoneType"),
        (gematria, (b"abc", Alphabet.HEBREW), "phrase must be a str, not bytes"),
        (encode, (5, "arabic"), "alphabet must be an Alphabet, not str"),
        (decode, ("\u0627", "arabic"), "alphabet must be an Alphabet, not str"),
        (gematria, ("\u0627", "arabic"), "alphabet must be an Alphabet, not str"),
        (decode, ("\u0627", ["arabic"]), "alphabet must be an Alphabet, not list"),
    ],
)
def test_wrong_argument_type_is_a_usage_error(call, args, message):
    with pytest.raises(ValueError) as raised:
        call(*args)
    assert str(raised.value) == message
    assert not isinstance(raised.value, NumeralError)


def test_table_caches_skipped_characters_only():
    arabic = codec._VALUES[Alphabet.ARABIC]
    # An ignored character is skipped for that call only.
    assert gematria("\u0627!", Alphabet.ARABIC, ignore="!").total == 1
    with pytest.raises(UnknownLetter):
        gematria("\u0627!", Alphabet.ARABIC)
    # Ignore overrides a letter, and the letter keeps its value afterwards.
    assert gematria("\u0627", Alphabet.ARABIC, ignore="\u0627").total == 0
    assert decode("\u0627", Alphabet.ARABIC) == 1
    # A combining mark outside the Arabic, Hebrew and Combining Diacritical
    # Marks blocks, first met by decode, stays skipped in gematria.
    assert decode("\u0628\u1ab0", Alphabet.ARABIC) == 2
    assert arabic.get("\u1ab0") == 0  # get() does not call __missing__
    assert gematria("\u1ab0\u0628 \u0627\u1ab0", Alphabet.ARABIC).total == 3
    # Unknown characters raise and are never stored.
    size = len(arabic)
    for cp in range(0x4E00, 0x4E00 + 5000):
        with pytest.raises(UnknownLetter):
            decode(chr(cp), Alphabet.ARABIC)
    assert len(arabic) == size


class TestWordMemo:
    def test_entries_never_exceed_the_cap(self):
        alif, ba, jim, dal = "\u0627\u0628\u062c\u062f"
        tokens = ["".join(t) for t in itertools.product((alif, ba, jim, dal), repeat=8)]
        tokens = tokens[: 2**15 // 2] + [t + "\u0647" for t in tokens[: 2**15 // 2]]
        assert len(set(tokens)) == 2**15
        for ignore in ("", "!"):  # the plain memo, then the ignore set's
            gematria("", Alphabet.ARABIC, ignore)
            words = codec._IGNORING[Alphabet.ARABIC] if ignore else codec._WORDS[Alphabet.ARABIC]
            most = 0
            for token in tokens:
                assert gematria(token, Alphabet.ARABIC, ignore).total == decode(token, Alphabet.ARABIC)
                most = max(most, len(words))
                assert len(words) <= codec._MEMO_ENTRIES
            assert most == codec._MEMO_ENTRIES

    def test_a_long_token_is_summed_and_not_stored(self):
        words = codec._WORDS[Alphabet.ARABIC]
        longest = "\u0628" * codec._MEMO_TOKEN_LEN
        assert gematria(longest, Alphabet.ARABIC).total == 2 * codec._MEMO_TOKEN_LEN
        assert words.get(longest) == (longest, 2 * codec._MEMO_TOKEN_LEN)
        for token in ("\u0628" * (codec._MEMO_TOKEN_LEN + 1), "\u0627" * 10_000):
            assert gematria(token, Alphabet.ARABIC).total == decode(token, Alphabet.ARABIC)
            assert token not in words

    def test_an_unknown_letter_is_never_stored(self):
        words = codec._WORDS[Alphabet.HEBREW]
        for phrase, bad in (("\u05d0! \u05d1", "\u05d0!"), ("\u05d0 \u0627", "\u0627"), ("x", "x")):
            for _ in range(2):
                with pytest.raises(UnknownLetter):
                    gematria(phrase, Alphabet.HEBREW)
            assert bad not in words
        assert words.get("\u05d0") == ("\u05d0", 1)  # the token before the bad one is stored

    def test_an_ignored_character_never_reaches_the_memo(self):
        words, values = codec._WORDS[Alphabet.ARABIC], codec._VALUES[Alphabet.ARABIC]
        words.clear()
        before = dict(values)
        assert gematria("\u0627!", Alphabet.ARABIC, ignore="!") == (1, (("\u0627!", 1),))
        # Punctuation, a letter, a harakah, whitespace and a mark the skip rule
        # has not met yet, each ignored in turn and then all at once.
        phrases = ["\u0627\u0628! \u062c\u064e\u060c \u1ab1\u062f", "\u0627 \u0627\u0627! \u1ab1"]
        for ignore in ("!\u060c", "\u0627!\u060c", "\u064e!\u060c", " !\u060c", "!\u060c\u0627\u064e \u1ab1"):
            for phrase in phrases:
                assert outcome(gematria, phrase, Alphabet.ARABIC, ignore) == outcome(
                    _reference_gematria, phrase, Alphabet.ARABIC, ignore
                )
        assert not words
        assert dict(values) == before
        with pytest.raises(UnknownLetter):
            gematria("\u0627!", Alphabet.ARABIC)

    @pytest.mark.parametrize("ignore", ["", "!"])
    def test_a_repeated_word_is_the_memos_entry(self, ignore):
        ahmad = "\u0627\u062d\u0645\u062f" + ignore
        phrase = f"{ahmad} \u0632\u064a\u0646\u0628 {ahmad}"
        first, _, third = gematria(phrase, Alphabet.ARABIC, ignore).per_word
        memo = codec._IGNORING[Alphabet.ARABIC] if ignore else codec._WORDS[Alphabet.ARABIC]
        assert memo.ignore == ignore
        assert first is third is memo[first[0]]
        assert first[0] is next(key for key in memo if key == first[0])
        assert gematria(phrase, Alphabet.ARABIC, ignore).per_word[0] is first

    def test_each_alphabet_keeps_the_last_ignore_set(self):
        for ignore in ("!", "\u060c", "!"):
            gematria("\u0627!\u060c", Alphabet.ARABIC, ignore="!\u060c")
            gematria("\u05d0", Alphabet.HEBREW, ignore=ignore)
            assert codec._IGNORING[Alphabet.ARABIC].ignore == "!\u060c"
            assert codec._IGNORING[Alphabet.HEBREW].ignore == ignore
        gematria("\u05d0", Alphabet.HEBREW)  # no set: the memo of the last one stays
        assert codec._IGNORING[Alphabet.HEBREW].ignore == "!"


_arabic_word = st.lists(
    st.sampled_from(letters(Alphabet.ARABIC)), min_size=1, max_size=6
).map(lambda picks: "".join(letter.codepoint for letter in picks))


@given(_arabic_word, _arabic_word)
def test_gematria_is_additive_over_concatenation(a, b):
    joined = gematria(a + " " + b, Alphabet.ARABIC)
    assert joined.total == gematria(a, Alphabet.ARABIC).total + gematria(b, Alphabet.ARABIC).total


@given(_arabic_word)
def test_gematria_total_sums_per_word(word):
    result = gematria(word + " " + word, Alphabet.ARABIC)
    assert result.total == sum(value for _, value in result.per_word)


_OWNERS = {
    cp: (letter.alphabet, letter.value)
    for alphabet in Alphabet
    for letter in letters(alphabet)
    for cp in letter.codepoints
}


def _reference_values(text, alphabet, ignore=""):
    """The per-character skip rule, written out independently of the codec."""
    values = []
    for ch in text:
        if ch.isspace() or ch == "\u0640" or unicodedata.combining(ch) or ch in ignore:
            continue
        if ch not in _OWNERS:
            raise UnknownLetter(f"{ch!r} is not a letter of either alphabet")
        owner, value = _OWNERS[ch]
        if owner is not alphabet:
            raise UnknownLetter(f"{ch!r} is not a {alphabet.value} letter")
        values.append(value)
    return values


def _reference_gematria(phrase, alphabet, ignore):
    per_word = tuple(
        (token, sum(_reference_values(token, alphabet, ignore))) for token in phrase.split()
    )
    return GematriaResult(total=sum(value for _, value in per_word), per_word=per_word)


def _reference_decode(word, alphabet, strict):
    values = _reference_values(word, alphabet)
    if not values:
        raise ValueError("empty word")
    bands = [
        next(i for i, (lo, hi) in enumerate(_RANK_BANDS) if lo <= value <= hi)
        for value in values
    ]
    if strict and not (
        all(a < b for a, b in zip(values, values[1:])) and len(set(bands)) == len(bands)
    ):
        raise NonCanonical(
            f"{word!r} is not a canonical numeral (ascending values, one letter per rank)"
        )
    return sum(values)


@pytest.mark.parametrize("alphabet, count", [(Alphabet.ARABIC, 22764), (Alphabet.HEBREW, 11154)])
def test_every_word_of_up_to_three_letters_matches_the_band_rule(alphabet, count):
    # Every sequence of 1-3 letter values, each in its primary codepoint:
    # strict decode's check against the decimal parts of the total must agree
    # with the band rule on every short word, ordered or not.
    primary = [letter.codepoint for letter in letters(alphabet)]
    words = ["".join(seq) for size in (1, 2, 3) for seq in itertools.product(primary, repeat=size)]
    assert len(words) == count
    for word in words:
        for strict in (False, True):
            assert outcome(decode, word, alphabet, strict) == outcome(
                _reference_decode, word, alphabet, strict
            )


# The first and last letter value of each rank.
_EDGE_VALUES = {
    Alphabet.ARABIC: (1, 9, 10, 90, 100, 900, 1000),
    Alphabet.HEBREW: (1, 9, 10, 90, 100, 400),
}


@pytest.mark.parametrize("alphabet, count", [(Alphabet.ARABIC, 2401), (Alphabet.HEBREW, 1296)])
def test_every_four_letter_word_of_the_edge_values_matches_the_band_rule(alphabet, count):
    # Four edge letters in every order: totals reach 4000 (Arabic) and 1600
    # (Hebrew), past the end of each two-digit table, and 1999's word is
    # among them.
    values = _EDGE_VALUES[alphabet]
    primary = [letter.codepoint for letter in letters(alphabet) if letter.value in values]
    words = ["".join(seq) for seq in itertools.product(primary, repeat=4)]
    assert len(primary) == len(values) and len(words) == count
    for word in words:
        for strict in (False, True):
            assert outcome(decode, word, alphabet, strict) == outcome(
                _reference_decode, word, alphabet, strict
            )


_skippable_marks = (
    [chr(cp) for cp in range(0x064B, 0x0653)]  # Arabic harakat and shadda
    + ["\u0640"]  # tatweel
    + [chr(cp) for cp in range(0x05B0, 0x05BD)] + ["\u05C1", "\u05C2"]  # niqqud
)
_other_characters = [" ", "\t", "\n", "\u00a0", "\u200d", "\u1ab0", "\u20d0", "a", "Z", "!", "\u060c"]
_codec_text = st.text(
    alphabet=st.sampled_from(list(_OWNERS) + _skippable_marks + _other_characters),
    max_size=24,
)
# Few enough candidates that an ignore set often shares a character with the text.
_ignore_sets = st.text(
    alphabet=st.sampled_from(
        ["\u0627", "\u0623", "\u0628", "\u05d4", "\u05dd", "\u064e", "\u05b8",
         "\u200d", "\u20d0", "!", "\u060c", "a", " ", "\t", "\u00a0", "\u0640"]
    ),
    max_size=4,
)


@settings(max_examples=400)
@given(_codec_text, st.sampled_from(list(Alphabet)), _ignore_sets)
def test_codec_matches_the_per_character_rule(text, alphabet, ignore):
    expected = outcome(_reference_gematria, text, alphabet, ignore)
    # The first call misses the word memo, the second hits it.
    codec._WORDS[alphabet].clear()
    codec._IGNORING[alphabet].clear()
    for _ in range(2):
        assert outcome(gematria, text, alphabet, ignore) == expected
    for strict in (False, True):
        assert outcome(decode, text, alphabet, strict) == outcome(
            _reference_decode, text, alphabet, strict
        )


# A few fixed sets recur within one sequence, so the ignore-set memo is
# both kept and replaced between calls.
_recurring_ignore_sets = st.one_of(
    st.sampled_from(["", "!", "!،", "ا", "َب", "ה "]), _ignore_sets
)


@settings(max_examples=300)
@given(st.lists(st.tuples(_codec_text, st.sampled_from(list(Alphabet)), _recurring_ignore_sets), max_size=8))
def test_a_sequence_of_calls_matches_the_per_character_rule(calls):
    for text, alphabet, ignore in calls:
        assert outcome(gematria, text, alphabet, ignore) == outcome(
            _reference_gematria, text, alphabet, ignore
        )


class _Sly(str):
    """A str whose comparisons lie: equal to everything, unequal to nothing."""

    def __eq__(self, other):
        return True

    def __ne__(self, other):
        return False

    __hash__ = str.__hash__


class _Hollow(str):
    """A str that iterates as nothing."""

    def __iter__(self):
        return iter(())


@pytest.mark.parametrize("kind", [_Sly, _Hollow])
def test_an_ignore_set_of_a_str_subclass_is_applied_as_its_characters(kind):
    for _ in range(2):  # the second call finds the memo the first one made
        result = gematria("ا! ب", Alphabet.ARABIC, ignore=kind("!"))
        assert result == (3, (("ا!", 1), ("ب", 2)))
        assert type(codec._IGNORING[Alphabet.ARABIC].ignore) is str
    # An empty one ignores nothing.
    with pytest.raises(UnknownLetter):
        gematria("ا!", Alphabet.ARABIC, ignore=kind(""))


def test_threads_with_their_own_ignore_sets_share_one_alphabet():
    marks = "!?.،؛"
    sets = ["!", "?", ".", "،", "؛", "!?", "ا.", "ب،؛"]
    rng = random.Random(14)
    words = [letter.codepoint for letter in letters(Alphabet.ARABIC)]
    phrases = [
        " ".join(
            "".join(rng.choices(words, k=rng.randint(1, 5))) + rng.choice(["", "", *marks])
            for _ in range(rng.randint(1, 6))
        )
        for _ in range(40)
    ]
    phrases += ["ا ب", "ا! ب? ا. ب،"]
    expected = {
        (phrase, ignore): outcome(_reference_gematria, phrase, Alphabet.ARABIC, ignore)
        for phrase in phrases
        for ignore in sets
    }
    wrong = []

    def work(ignore):
        for phrase in phrases:
            got = outcome(gematria, phrase, Alphabet.ARABIC, ignore)
            if got != expected[phrase, ignore]:
                wrong.append((phrase, ignore, got))

    for _ in range(50):  # each round starts all threads at once
        assert race(work, [(ignore,) for ignore in sets]) == ([], 0)
    assert not wrong
    assert codec._IGNORING[Alphabet.ARABIC].ignore in sets


def _reference_encode(n, alphabet):
    """The per-rank loop that encode() replaced with per-rank tables."""
    if isinstance(n, bool) or not isinstance(n, int):
        raise ValueError(f"n must be an int, not {type(n).__name__}")
    if n == 0:
        raise ZeroUnencodable("zero is not a letter value and has no word form")
    limit = MAX_ENCODABLE[alphabet]
    if not 1 <= n <= limit:
        raise OutOfRange(f"{n} is outside 1..{limit} for {alphabet.value}")
    by_value = {letter.value: letter for letter in letters(alphabet)}
    picked = []
    rest = n
    for scale in (1, 10, 100, 1000):
        digit = rest % 10
        rest //= 10
        if digit:
            picked.append(by_value[digit * scale])
    return AbjadNumeral(alphabet=alphabet, letters=tuple(picked), value=n)


@settings(max_examples=400)
@given(
    st.one_of(
        st.integers(min_value=-20, max_value=2600),
        st.sampled_from([-(10**30), 10**30, True, False, 12.0, "12", None]),
    ),
    st.sampled_from(list(Alphabet)),
)
def test_encode_matches_the_rank_loop(n, alphabet):
    got, expected = outcome(encode, n, alphabet), outcome(_reference_encode, n, alphabet)
    assert got == expected
    if got[0] == "value":
        assert type(got[1]) is AbjadNumeral
        assert got[1].text == "".join(letter.codepoint for letter in expected[1].letters)

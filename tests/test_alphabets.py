import pytest

from abjadnum import (
    ABJADI_SEQUENCE,
    Alphabet,
    NotAnAbjadiValue,
    OutOfAlphabetRange,
    UnknownLetter,
    letter_by_value,
    letter_for_codepoint,
    letters,
)

EXPECTED_SEQUENCE = (
    1, 2, 3, 4, 5, 6, 7, 8, 9,
    10, 20, 30, 40, 50, 60, 70, 80, 90,
    100, 200, 300, 400, 500, 600, 700, 800, 900,
    1000,
)


class TestSequence:
    def test_exact_members(self):
        assert ABJADI_SEQUENCE == EXPECTED_SEQUENCE

    def test_shape(self):
        seq = ABJADI_SEQUENCE
        assert len(seq) == 28
        assert seq[0] == 1 and seq[-1] == 1000
        assert seq[9] == 10  # tenth value
        assert all(a < b for a, b in zip(seq, seq[1:]))


class TestTables:
    def test_sizes(self):
        assert len(letters(Alphabet.ARABIC)) == 28
        assert len(letters(Alphabet.HEBREW)) == 22

    @pytest.mark.parametrize("alphabet", list(Alphabet))
    def test_values_increase_with_order(self, alphabet):
        table = letters(alphabet)
        assert [letter.order for letter in table] == list(range(1, len(table) + 1))
        values = [letter.value for letter in table]
        assert all(a < b for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize("alphabet", list(Alphabet))
    def test_first_ten_values(self, alphabet):
        values = [letter.value for letter in letters(alphabet)[:10]]
        assert values == [1, 2, 3, 4, 5, 6, 7, 8, 9, 10]

    @pytest.mark.parametrize("alphabet", list(Alphabet))
    def test_values_are_sequence_members(self, alphabet):
        for letter in letters(alphabet):
            assert letter.value in ABJADI_SEQUENCE

    @pytest.mark.parametrize("alphabet", list(Alphabet))
    def test_no_codepoint_registered_twice(self, alphabet):
        seen = set()
        for letter in letters(alphabet):
            for cp in letter.codepoints:
                assert cp not in seen, cp
                seen.add(cp)

    def test_max_values(self):
        assert letters(Alphabet.ARABIC)[-1].value == 1000
        assert letters(Alphabet.HEBREW)[-1].value == 400

    def test_spot_rows(self):
        assert letter_by_value(Alphabet.ARABIC, 40).name == "Mim"
        assert letter_by_value(Alphabet.ARABIC, 40).codepoint == "م"
        assert letter_by_value(Alphabet.HEBREW, 400).name == "Tav"
        assert letter_by_value(Alphabet.HEBREW, 400).codepoint == "ת"
        assert letter_by_value(Alphabet.ARABIC, 1000).name == "Ghin"
        assert letter_by_value(Alphabet.ARABIC, 90).name == "Sad"


class TestLookups:
    def test_letter_by_value_rejects_non_members(self):
        with pytest.raises(NotAnAbjadiValue):
            letter_by_value(Alphabet.ARABIC, 11)
        with pytest.raises(NotAnAbjadiValue):
            letter_by_value(Alphabet.HEBREW, 450)
        with pytest.raises(NotAnAbjadiValue):
            letter_by_value(Alphabet.ARABIC, [40])  # unhashable
        with pytest.raises(NotAnAbjadiValue):
            letter_by_value(Alphabet.ARABIC, True)  # hashes like 1
        with pytest.raises(NotAnAbjadiValue):
            letter_by_value(Alphabet.ARABIC, 1.0)

    def test_letter_by_value_respects_alphabet_maximum(self):
        with pytest.raises(OutOfAlphabetRange):
            letter_by_value(Alphabet.HEBREW, 500)
        with pytest.raises(OutOfAlphabetRange):
            letter_by_value(Alphabet.HEBREW, 1000)

    def test_value_of_letter(self):
        cases = [
            ("ح", Alphabet.ARABIC, 8),
            ("ם", Alphabet.HEBREW, 40),  # final Mem
            ("ة", Alphabet.ARABIC, 5),  # Taa marbuta
        ]
        for cp, alphabet, value in cases:
            letter = letter_for_codepoint(cp)
            assert (letter.alphabet, letter.value) == (alphabet, value)

    def test_value_of_letter_rejects_unknown(self):
        for cp in ("X", "1", "؟"):
            with pytest.raises(UnknownLetter):
                letter_for_codepoint(cp)

    @pytest.mark.parametrize("alphabet", list(Alphabet))
    def test_codepoint_value_round_trip(self, alphabet):
        # every registered codepoint resolves back to the letter that owns it
        for letter in letters(alphabet):
            for cp in letter.codepoints:
                owner = letter_for_codepoint(cp)
                assert owner.alphabet is alphabet
                resolved = letter_by_value(owner.alphabet, owner.value)
                assert cp in resolved.codepoints

    @pytest.mark.parametrize("alphabet", list(Alphabet))
    def test_final_and_variant_forms_share_the_value(self, alphabet):
        for letter in letters(alphabet):
            for cp in letter.variants:
                resolved = letter_for_codepoint(cp)
                assert (resolved.alphabet, resolved.value) == (alphabet, letter.value)

    def test_hebrew_final_forms(self):
        finals = {"ך": 20, "ם": 40, "ן": 50, "ף": 80, "ץ": 90}
        for cp, value in finals.items():
            letter = letter_for_codepoint(cp)
            assert (letter.alphabet, letter.value) == (Alphabet.HEBREW, value)

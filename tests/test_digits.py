import itertools
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from abjadnum import (
    Alphabet,
    DigitScript,
    SEPARATORS,
    InvalidGlyph,
    digit_provenance,
    letters,
    parse_digits,
    render_digits,
    transliterate,
)
from support import outcome

W = DigitScript.WESTERN
M = DigitScript.MASHREKI_EASTERN
O = DigitScript.ORIGINAL_MAGHREBI


class TestRenderParse:
    def test_render_examples(self):
        assert render_digits(1810, W) == "1810"
        assert render_digits(1225, M) == "١٢٢٥"
        assert render_digits(45, O) == "54"  # proxy glyphs, 4/5 swapped

    def test_parse_examples(self):
        assert parse_digits("١٢٢٥", M) == 1225
        assert parse_digits("45", O) == 54
        assert parse_digits("1810", W) == 1810

    def test_zero(self):
        assert render_digits(0, W) == "0"
        assert render_digits(0, M) == "٠"
        assert parse_digits("٠", M) == 0

    def test_invalid_glyphs(self):
        with pytest.raises(InvalidGlyph):
            parse_digits("12a", W)
        with pytest.raises(InvalidGlyph):
            parse_digits("1٢", W)  # mixed scripts
        with pytest.raises(InvalidGlyph):
            parse_digits("12", M)

    def test_empty_text_is_a_usage_error(self):
        with pytest.raises(ValueError):
            parse_digits("", W)

    def test_negative_is_a_usage_error(self):
        with pytest.raises(ValueError):
            render_digits(-1, W)

    def test_past_the_digit_limit_names_the_limit(self):
        with pytest.raises(ValueError, match=r"^n has more than \d+ decimal digits") as exc:
            render_digits(10**5000, W)
        assert "set_int_max_str_digits" not in str(exc.value)

    @pytest.mark.parametrize("n", [True, False, 12.0, "12", None, 3.0, "3"])
    def test_non_int_is_a_usage_error(self, n):
        with pytest.raises(ValueError, match=r"^n must be an int, not "):
            render_digits(n, W)
        with pytest.raises(ValueError, match=r"^digit must be an int, not "):
            digit_provenance(n, W)

    def test_int_subclass_renders_its_digits(self):
        class Labelled(int):
            def __str__(self):
                return "folio"

            __repr__ = __str__

        assert render_digits(Labelled(45), O) == "54"

    @pytest.mark.parametrize("script", list(DigitScript))
    def test_round_trip_exhaustive(self, script):
        for n in range(10000):
            assert parse_digits(render_digits(n, script), script) == n


@given(st.integers(min_value=0, max_value=10**6), st.sampled_from(list(DigitScript)))
def test_round_trip_sampled(n, script):
    assert parse_digits(render_digits(n, script), script) == n


class TestGlyphPermutation:
    def test_four_and_five_swap_shapes_only(self):
        assert render_digits(4, O) == render_digits(5, W)
        assert render_digits(5, O) == render_digits(4, W)
        for d in (0, 1, 2, 3, 6, 7, 8, 9):
            assert render_digits(d, O) == render_digits(d, W)

    def test_values_are_preserved_across_scripts(self):
        for d in range(10):
            assert parse_digits(render_digits(d, O), O) == d


class TestTransliterate:
    def test_examples(self):
        assert transliterate("1225", W, M) == "١٢٢٥"
        assert transliterate("45", O, W) == "54"
        assert transliterate("7", W, W) == "7"

    @pytest.mark.parametrize("script", list(DigitScript))
    def test_identity_on_same_script(self, script):
        for n in (0, 7, 45, 1225, 987654):
            text = render_digits(n, script)
            assert transliterate(text, script, script) == text

    @pytest.mark.parametrize("src,dst", list(itertools.product(list(DigitScript), repeat=2)))
    def test_round_trip(self, src, dst):
        for n in (0, 4, 5, 45, 54, 1810, 991225):
            text = render_digits(n, src)
            assert transliterate(transliterate(text, src, dst), dst, src) == text

    def test_value_preserving(self):
        for n in (0, 45, 1225):
            assert parse_digits(transliterate(render_digits(n, W), W, M), M) == n

    def test_separators_pass_through(self):
        assert transliterate("12.5-3/4, 6", W, M) == "١٢.٥-٣/٤, ٦"
        assert transliterate("١٢٢٥-٧٧", M, W) == "1225-77"

    def test_rejects_foreign_glyphs(self):
        with pytest.raises(InvalidGlyph):
            transliterate("12a", W, M)
        with pytest.raises(InvalidGlyph):
            transliterate("١٢", W, M)  # text is not in the from-script


class TestProvenance:
    def test_zero_comes_from_sad(self):
        entry = digit_provenance(0, W)
        assert entry.alphabet is Alphabet.ARABIC
        assert entry.letter.name == "Sad"
        assert entry.letter.codepoint == "ص"
        assert "first letter" in entry.note and "Sifr" in entry.note

    def test_nine_is_a_reversed_letter(self):
        entry = digit_provenance(9, W)
        assert entry.letter.name == "T'aa"
        assert entry.note == "reversed form"

    def test_mashreki_borrows_two_hebrew_letters(self):
        six = digit_provenance(6, M)
        assert six.alphabet is Alphabet.HEBREW
        assert six.letter.name == "Vav"
        zero = digit_provenance(0, M)
        assert zero.alphabet is Alphabet.HEBREW
        assert zero.letter.name == "Yodh"
        assert zero.letter.value == 10

    @pytest.mark.parametrize(
        "script,hebrew_count", [(W, 0), (O, 0), (M, 2)]
    )
    def test_hebrew_source_counts(self, script, hebrew_count):
        sources = [digit_provenance(d, script).alphabet for d in range(10)]
        assert sources.count(Alphabet.HEBREW) == hebrew_count

    @pytest.mark.parametrize("script", [W, O])
    def test_digits_1_to_9_follow_the_letter_order(self, script):
        # digit d descends from the d-th letter of the Arabic order (the
        # 4/5 swap touched the glyphs only), with one exception: the shape
        # of digit 2 was taken from Yaa, the tenth letter, not from Baa
        for d in range(1, 10):
            entry = digit_provenance(d, script)
            assert entry.alphabet is Alphabet.ARABIC
            assert entry.letter.order == (10 if d == 2 else d)

    @pytest.mark.parametrize("script", list(DigitScript))
    def test_every_provenance_letter_is_its_alphabets_own_record(self, script):
        # the letter is looked up by name among its own alphabet's letters
        for d in range(10):
            entry = digit_provenance(d, script)
            assert entry.letter.alphabet is entry.alphabet
            assert any(entry.letter is letter for letter in letters(entry.alphabet))

    def test_digit_two_note_carries_the_value_caveat(self):
        # the source letter of digit 2 counts 10 in the letter-value order
        for script in (W, O):
            entry = digit_provenance(2, script)
            assert entry.letter.name == "Yaa"
            assert "10" in entry.note and "not 2" in entry.note

    def test_rejects_out_of_range_digits(self):
        with pytest.raises(ValueError):
            digit_provenance(10, W)
        with pytest.raises(ValueError):
            digit_provenance(-1, M)


@pytest.mark.parametrize("text", [123, ["1", "2"], b"12", None])
@pytest.mark.parametrize(
    "call", [lambda text: parse_digits(text, W), lambda text: transliterate(text, W, M)]
)
def test_non_str_text_is_a_usage_error(call, text):
    with pytest.raises(ValueError, match=rf"^text must be a str, not {type(text).__name__}$"):
        call(text)


@pytest.mark.parametrize("script", list(DigitScript))
def test_parse_past_a_lowered_digit_limit(script):
    western = "".join(random.Random(1000).choices("0123456789", k=1000))
    text = transliterate(western, W, script)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        with pytest.raises(ValueError) as exc:
            parse_digits(text, script)
        assert str(exc.value) == (
            "the digit string has more than 640 decimal digits, the most that can be read"
        )
        assert parse_digits(text[:640], script) == int(western[:640])
    finally:
        sys.set_int_max_str_digits(limit)


def test_parse_past_the_digit_limit_names_the_limit():
    # The digit loop that got round the limit was quadratic: 100,000 digits took seconds.
    with pytest.raises(ValueError) as exc:
        parse_digits("9" * 100_000, W)
    assert str(exc.value) == (
        f"the digit string has more than {sys.get_int_max_str_digits()} decimal digits, "
        "the most that can be read"
    )


# -- the table-driven paths against the per-character loops they replaced ----

_REF_GLYPHS = {W: "0123456789", M: "\u0660\u0661\u0662\u0663\u0664\u0665\u0666\u0667\u0668\u0669",
               O: "0123546789"}


def _reference_render(n, script):
    if isinstance(n, bool) or not isinstance(n, int):
        raise ValueError(f"n must be an int, not {type(n).__name__}")
    if n < 0:
        raise ValueError("n must be non-negative")
    try:
        decimal = str(n)
    except ValueError:
        raise ValueError(
            f"n has more than {sys.get_int_max_str_digits()} decimal digits, "
            "the most that can be rendered"
        ) from None
    return "".join(_REF_GLYPHS[script][int(d)] for d in decimal)


def _reference_parse(text, script):
    if not text:
        raise ValueError("empty digit string")
    n = 0
    for ch in text:
        if ch not in _REF_GLYPHS[script]:
            raise InvalidGlyph(f"{ch!r} is not a {script.value} digit")
        n = n * 10 + _REF_GLYPHS[script].index(ch)
    return n


def _reference_transliterate(text, src, dst):
    out = []
    for ch in text:
        if ch in " .,-/":
            out.append(ch)
        elif ch in _REF_GLYPHS[src]:
            out.append(_REF_GLYPHS[dst][_REF_GLYPHS[src].index(ch)])
        else:
            raise InvalidGlyph(f"{ch!r} is not a {src.value} digit or separator")
    return "".join(out)


# Glyphs of all three scripts, the separators, and characters int() would
# accept around or inside digits: "_", "+", whitespace, Extended Arabic-Indic one.
_SOUP = sorted(set("".join(_REF_GLYPHS.values()) + SEPARATORS + "_+ \t\n\u06f1"))
_scripts = st.sampled_from(list(DigitScript))


def _texts(script, extra=""):
    valid = st.text(alphabet=st.sampled_from(sorted(_REF_GLYPHS[script] + extra)), max_size=30)
    return st.one_of(valid, st.text(alphabet=st.sampled_from(_SOUP), max_size=30))


@settings(max_examples=300)
@given(
    st.one_of(
        st.integers(min_value=-10, max_value=10**40),
        st.sampled_from([10**4299, 10**4300, 10**5000, True, False]),
    ),
    _scripts,
)
def test_render_matches_the_digit_loop(n, script):
    assert outcome(render_digits, n, script) == outcome(_reference_render, n, script)


@settings(max_examples=300)
@given(_scripts.flatmap(lambda script: st.tuples(st.just(script), _texts(script))))
def test_parse_matches_the_digit_loop(drawn):
    script, text = drawn
    assert outcome(parse_digits, text, script) == outcome(_reference_parse, text, script)


@settings(max_examples=300)
@given(
    _scripts.flatmap(lambda src: st.tuples(st.just(src), _texts(src, SEPARATORS))), _scripts
)
def test_transliterate_matches_the_digit_loop(drawn, dst):
    src, text = drawn
    assert outcome(transliterate, text, src, dst) == outcome(
        _reference_transliterate, text, src, dst
    )


# -- the lstrip check against the deleting-table check it replaced -----------
# int() reads far more than the ten glyphs of a script, so the check before it
# must reject everything the deleting tables rejected, with the same message.

_INT_DIGITS = (
    "\u06f0\u06f1\u06f4\u06f5\u06f9"  # Persian (Extended Arabic-Indic)
    "\uff10\uff11\uff14\uff15\uff19"  # fullwidth
    "\u0966\u0967\u096a\u096f"  # Devanagari
    "\u00b2_+- \t\n\u00a0\u3000"  # superscript two, underscore, signs, whitespace
)


def _deleting_parse(text, script):
    if not text:
        raise ValueError("empty digit string")
    rest = text.translate(str.maketrans("", "", _REF_GLYPHS[script]))
    if rest:
        raise InvalidGlyph(f"{rest[0]!r} is not a {script.value} digit")
    return int(text.translate(str.maketrans(_REF_GLYPHS[script], "0123456789")))


def _deleting_transliterate(text, src, dst):
    rest = text.translate(str.maketrans("", "", _REF_GLYPHS[src] + SEPARATORS))
    if rest:
        raise InvalidGlyph(f"{rest[0]!r} is not a {src.value} digit or separator")
    return text.translate(str.maketrans(_REF_GLYPHS[src], _REF_GLYPHS[dst]))


def _mixed_texts(script):
    def drawn(extra):
        chars = sorted(set(_REF_GLYPHS[script] + extra))
        return st.text(alphabet=st.sampled_from(chars), min_size=1, max_size=20)

    # Mostly the script's own glyphs, so a single intruder is often the only one.
    return st.one_of(
        drawn(""), drawn(SEPARATORS), drawn(_INT_DIGITS), drawn(SEPARATORS + _INT_DIGITS)
    )


@settings(max_examples=400)
@given(_scripts.flatmap(lambda script: st.tuples(st.just(script), _mixed_texts(script))))
def test_parse_matches_the_deleting_check(drawn):
    script, text = drawn
    assert outcome(parse_digits, text, script) == outcome(_deleting_parse, text, script)


@settings(max_examples=400)
@given(_scripts.flatmap(lambda src: st.tuples(st.just(src), _mixed_texts(src))), _scripts)
def test_transliterate_matches_the_deleting_check(drawn, dst):
    src, text = drawn
    assert outcome(transliterate, text, src, dst) == outcome(
        _deleting_transliterate, text, src, dst
    )


def test_a_persian_digit_among_mashreki_ones_is_invalid():
    # int() would read "١٢۴٥" as 1245: Persian four is a decimal digit too.
    with pytest.raises(InvalidGlyph) as exc:
        parse_digits("١٢۴٥", M)
    assert str(exc.value) == "'۴' is not a mashreki digit"

import sys

import pytest

from abjadnum import (
    Alphabet,
    NotAnAbjadiValue,
    OutOfRange,
    PreEpoch,
    encode,
    gregorian_to_hijri_year,
    hijri_to_gregorian_year,
    letter_by_value,
)
from abjadnum.errors import check_int, check_text

LIMIT = sys.get_int_max_str_digits()
AT_LIMIT = int("9" * LIMIT)
PAST = f"a number of more than {LIMIT} digits"
NEGATIVE_PAST = f"a negative number of more than {LIMIT} digits"


def _encode(n):
    return encode(n, Alphabet.ARABIC)


def _letter(n):
    return letter_by_value(Alphabet.ARABIC, n)


@pytest.mark.parametrize(
    "call, n, error, message",
    [
        (_encode, 10**5000, OutOfRange, f"{PAST} is outside 1..1999 for arabic"),
        (_encode, -10**5000, OutOfRange, f"{NEGATIVE_PAST} is outside 1..1999 for arabic"),
        (_letter, 10**5000, NotAnAbjadiValue, f"{PAST} is not a letter value"),
        (gregorian_to_hijri_year, -10**5000, PreEpoch,
         f"{NEGATIVE_PAST} CE precedes the first Hijri year (622 CE)"),
        (gregorian_to_hijri_year, 10**5000, OutOfRange,
         f"{PAST} CE is past the last year converted (456833 CE)"),
        (hijri_to_gregorian_year, 10**5000, OutOfRange,
         f"{PAST} AH is past the last year converted (455637 AH)"),
        # At the limit the message still writes the number out.
        (_encode, AT_LIMIT, OutOfRange, f"{AT_LIMIT} is outside 1..1999 for arabic"),
        (_letter, AT_LIMIT, NotAnAbjadiValue, f"{AT_LIMIT} is not a letter value"),
        (gregorian_to_hijri_year, -AT_LIMIT, PreEpoch,
         f"{-AT_LIMIT} CE precedes the first Hijri year (622 CE)"),
    ],
    ids=["encode", "encode-negative", "letter_by_value", "gregorian_to_hijri_year",
         "gregorian_to_hijri_year-positive", "hijri_to_gregorian_year",
         "encode-at-limit", "letter_by_value-at-limit", "gregorian_to_hijri_year-at-limit"],
)
def test_huge_int_raises_the_domain_error(call, n, error, message):
    with pytest.raises(error) as exc:
        call(n)
    assert str(exc.value) == message


class _Text(str):
    pass


class _Number(int):
    pass


@pytest.mark.parametrize(
    "check, value, plain",
    [
        (check_text, "ab", "ab"),
        (check_text, _Text("ab"), "ab"),
        (check_int, 7, 7),
        (check_int, _Number(7), 7),
        (check_int, _Number(-10**5000), -10**5000),
    ],
    ids=["str", "str-subclass", "int", "int-subclass", "huge-int-subclass"],
)
def test_a_checked_argument_is_its_exact_builtin(check, value, plain):
    checked = check("x", value)
    assert type(checked) is type(plain) and checked == plain
    if type(value) is type(plain):
        assert checked is value


from datetime import date
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from abjadnum import OutOfRange, PreEpoch, gregorian_to_hijri_year, hijri_to_gregorian_year
from abjadnum.chronology import LAST_YEAR_AH, LAST_YEAR_CE


class TestForward:
    def test_manuscript_year(self):
        assert hijri_to_gregorian_year(1225) == 1810

    def test_epoch_within_tolerance(self):
        assert abs(hijri_to_gregorian_year(1) - 622) <= 1

    def test_later_manuscript_year(self):
        # 0.970224 * 1311 + 621.5774 = 1893.54...
        assert hijri_to_gregorian_year(1311) == 1894

    def test_pre_year_one_is_a_usage_error(self):
        with pytest.raises(ValueError):
            hijri_to_gregorian_year(0)


class TestBackward:
    def test_manuscript_year(self):
        assert gregorian_to_hijri_year(1810) == 1225

    def test_epoch(self):
        assert abs(gregorian_to_hijri_year(622) - 1) <= 1
        assert gregorian_to_hijri_year(622) >= 1  # Hijri years start at 1

    def test_inverse_of_forward(self):
        assert gregorian_to_hijri_year(1894) == 1311

    def test_pre_epoch(self):
        with pytest.raises(PreEpoch):
            gregorian_to_hijri_year(621)
        with pytest.raises(PreEpoch):
            gregorian_to_hijri_year(100)


class TestProperties:
    def test_round_trip_drift_at_most_one_year(self):
        for h in range(1, 2001):
            back = gregorian_to_hijri_year(hijri_to_gregorian_year(h))
            assert abs(back - h) <= 1

    def test_forward_is_monotonic(self):
        years = [hijri_to_gregorian_year(h) for h in range(1, 3001)]
        assert all(a <= b for a, b in zip(years, years[1:]))

    def test_backward_is_monotonic(self):
        years = [gregorian_to_hijri_year(g) for g in range(622, 3001)]
        assert all(a <= b for a, b in zip(years, years[1:]))

    def test_results_are_plain_ints(self):
        assert isinstance(hijri_to_gregorian_year(1225), int)
        assert isinstance(gregorian_to_hijri_year(1810), int)



HUGE = int("9" * 400)
# The exact rationals; round() of a Fraction rounds halves to even.
RATIO, OFFSET = Fraction("0.970224"), Fraction("621.5774")


class TestExactArithmetic:
    def test_400_digit_years(self):
        # Past the stated limits both directions refuse, naming the last year.
        with pytest.raises(OutOfRange) as exc:
            hijri_to_gregorian_year(HUGE)
        assert str(exc.value) == f"{HUGE} AH is past the last year converted (455637 AH)"
        with pytest.raises(OutOfRange) as exc:
            gregorian_to_hijri_year(HUGE)
        assert str(exc.value) == f"{HUGE} CE is past the last year converted (456833 CE)"

    @pytest.mark.parametrize("year", [True, 1225.0, "1225", None])
    def test_non_int_is_a_usage_error(self, year):
        for convert, name in ((hijri_to_gregorian_year, "h"), (gregorian_to_hijri_year, "g")):
            with pytest.raises(ValueError, match=rf"^{name} must be an int, not "):
                convert(year)

    @given(st.integers(min_value=1, max_value=LAST_YEAR_CE))
    def test_both_directions_match_exact_rationals(self, year):
        if year <= LAST_YEAR_AH:
            assert hijri_to_gregorian_year(year) == round(RATIO * year + OFFSET)
        if year >= 622:
            assert gregorian_to_hijri_year(year) == max(1, round((year - OFFSET) / RATIO))

    @pytest.mark.parametrize("k", [0, 1, 6, 10**20, 10**40 + 3],
                             ids=["0", "1", "6", "1e20", "1e40+3"])
    def test_a_tie_rounds_as_halves_to_even(self, k):
        # g = 46307 (mod 60639) is the one class of years whose Hijri year
        # lies exactly halfway between two integers.  k = 6 is the last tie
        # at or below the stated limit; past it the year is refused.
        g = 46307 + 60639 * k
        assert 2 * ((g - OFFSET) % RATIO) == RATIO
        if g > LAST_YEAR_CE:
            with pytest.raises(OutOfRange):
                gregorian_to_hijri_year(g)
        else:
            assert gregorian_to_hijri_year(g) == round((g - OFFSET) / RATIO)


# The arithmetical (tabular) Islamic calendar, in integer arithmetic: the
# Julian day number on which Hijri year h starts (epoch JDN 1948440, that is
# 16 July 622 Julian), and the proleptic Gregorian year of a Julian day number
# by the Fliegel-Van Flandern algorithm (exact for the positive day numbers here).
def _tabular_start(h: int) -> int:
    return 1948440 + 354 * (h - 1) + (3 + 11 * h) // 30


def _gregorian_year(jdn: int) -> int:
    l = jdn + 68569
    n = 4 * l // 146097
    l -= (146097 * n + 3) // 4
    i = 4000 * (l + 1) // 1461001
    l = l - 1461 * i // 4 + 31
    j = 80 * l // 2447
    return 100 * (n - 49) + i + j // 11


# The Julian day number of proleptic Gregorian ordinal 0 (31 December 1 BCE).
_JDN_OF_ORDINAL_0 = 1721425


def _span(h: int) -> tuple[int, int]:
    """The Gregorian years of Hijri year h's first and last day."""
    return _gregorian_year(_tabular_start(h)), _gregorian_year(_tabular_start(h + 1) - 1)


class TestTabularCalendar:
    def test_the_oracle_is_the_tabular_calendar(self):
        lengths = [_tabular_start(h + 1) - _tabular_start(h) for h in range(1, 31)]
        assert [h for h, days in enumerate(lengths, 1) if days == 355] == [
            2, 5, 7, 10, 13, 16, 18, 21, 24, 26, 29
        ]
        assert set(lengths) == {354, 355}
        assert _tabular_start(31) - _tabular_start(1) == 10631
        # 1 Muharram of 1 AH and of 1225 AH, as proleptic Gregorian dates.
        assert _tabular_start(1) == _JDN_OF_ORDINAL_0 + date(622, 7, 19).toordinal()
        assert _tabular_start(1225) == _JDN_OF_ORDINAL_0 + date(1810, 2, 6).toordinal()

    def test_the_gregorian_year_of_a_day_is_the_calendar_year(self):
        # Every first and last day of a Hijri year that datetime can date.
        days = [_tabular_start(h) - offset for h in range(1, 9600) for offset in (0, 1)]
        assert [_gregorian_year(jdn) for jdn in days] == [
            date.fromordinal(jdn - _JDN_OF_ORDINAL_0).year for jdn in days
        ]

    def test_a_hijri_year_converts_to_a_gregorian_year_it_overlaps(self):
        missed = [h for h in range(1, 10**4 + 1) if hijri_to_gregorian_year(h) not in _span(h)]
        assert missed == []

    def test_a_gregorian_year_converts_to_a_hijri_year_that_overlaps_it(self):
        missed = []
        for g in range(622, 10**4 + 1):
            first, last = _span(gregorian_to_hijri_year(g))
            if not first <= g <= last:
                missed.append(g)
        assert missed == []

    def test_the_stated_hijri_limit_is_the_first_miss(self):
        # The docstrings state the overlap for h up to 455637, and no further:
        # the rounded ratio misses the next year, which is refused.
        last = LAST_YEAR_AH
        missed = [h for h in range(1, last + 1) if hijri_to_gregorian_year(h) not in _span(h)]
        assert (last, missed) == (455637, [])
        assert round(RATIO * (last + 1) + OFFSET) not in _span(last + 1)
        with pytest.raises(OutOfRange, match=r"^455638 AH is past the last year converted "):
            hijri_to_gregorian_year(last + 1)

    def test_the_stated_gregorian_limit_is_the_first_miss(self):
        # The docstrings state the overlap for g up to 456833, and no further:
        # the rounded ratio misses the next year, which is refused.
        last = LAST_YEAR_CE
        missed = []
        for g in range(622, last + 1):
            first, end = _span(gregorian_to_hijri_year(g))
            if not first <= g <= end:
                missed.append(g)
        assert (last, missed) == (456833, [])
        first, end = _span(round((last + 1 - OFFSET) / RATIO))
        assert not first <= last + 1 <= end
        with pytest.raises(OutOfRange, match=r"^456834 CE is past the last year converted "):
            gregorian_to_hijri_year(last + 1)

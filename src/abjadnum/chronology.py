"""Year-level Hijri/Gregorian conversion: each answer is a year that
overlaps the given one.

The Hijri calendar is lunar: one Hijri year is about 0.970224 Gregorian
years, with year 1 AH starting in 622 CE.  Linear rounding at year
granularity is all the manuscript dates need; no month/day calendar here.
The arithmetic is exact integer arithmetic, rounding to the nearest year
(halves up, which here equals halves to even), so any size of year converts.

The calendar the answers are stated in is the arithmetical (tabular)
Islamic calendar: year 1 AH starts on Julian day number 1948440 (16 July
622 Julian), and years 2, 5, 7, 10, 13, 16, 18, 21, 24, 26 and 29 of each
30-year cycle have 355 days, the others 354; Gregorian years are proleptic.
In it, ``hijri_to_gregorian_year(h)`` is one of the two Gregorian years that
Hijri year h overlaps (the one in which h starts for 4931 of h = 1..10**4),
and ``gregorian_to_hijri_year(g)`` is one of the Hijri years that overlap
Gregorian year g.  Both hold for every h up to 455637 and g up to 456833,
and the tests check each of those years; h = 455638 and g = 456834 already
miss, because the fixed ratio drifts from the tabular mean year.  Observed
or Umm al-Qura dates can differ from the tabular ones by a day or two, so
near a year's edge their year can too.
"""

from .errors import PreEpoch, check_int, int_text

# Lunar-to-solar year length ratio (0.970224) and the epoch offset in
# Gregorian years (621.5774), both in millionths.
YEAR_RATIO_MILLIONTHS = 970_224
EPOCH_OFFSET_MILLIONTHS = 621_577_400

HIJRI_EPOCH_CE = 622


def _round_div(num: int, den: int) -> int:
    """num / den rounded to the nearest integer, halves up (den > 0)."""
    # Halves up equals halves to even on every input of the two callers.
    # hijri_to_gregorian_year meets no half: 970224 * h = 922600 (mod 10**6) has
    # no solution, as 16 divides 970224 and 10**6 but not 922600.
    # gregorian_to_hijri_year meets one only at g = 46307 (mod 60639), where the
    # quotient is odd: odd at 46307, it grows by 62500 = 60639 * 10**6 / 970224.
    return (2 * num + den) // (2 * den)


def hijri_to_gregorian_year(h: int) -> int:
    """A Gregorian year that Hijri year h overlaps (tabular calendar, h up to
    455637): the year in which h starts or the one in which it ends."""
    h = check_int("h", h)
    if h < 1:
        raise ValueError("Hijri years start at 1")
    return _round_div(YEAR_RATIO_MILLIONTHS * h + EPOCH_OFFSET_MILLIONTHS, 10**6)


def gregorian_to_hijri_year(g: int) -> int:
    """A Hijri year that overlaps Gregorian year g (tabular calendar, g up to
    456833)."""
    g = check_int("g", g)
    if g < HIJRI_EPOCH_CE:
        raise PreEpoch(f"{int_text(g)} CE precedes the first Hijri year ({HIJRI_EPOCH_CE} CE)")
    # 622 CE itself rounds to 0; Hijri years start at 1.
    return max(1, _round_div(g * 10**6 - EPOCH_OFFSET_MILLIONTHS, YEAR_RATIO_MILLIONTHS))

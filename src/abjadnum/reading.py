"""Split integers into 3-digit groups and narrate them in either direction.

A right-to-left reader speaks the components of each group starting from
the units: 12457892 becomes "2 et 90 et 800 ; 7 et 50 et 400 mille ; 2 et
10 millions".  A left-to-right reader first regroups, then reads the group
values from the top: "12 millions 457 mille 892".
"""

from collections import namedtuple

from .errors import InsufficientLabels, check_int, wrong_type

RANKS = ("units", "tens", "hundreds")

DEFAULT_LABELS = ("", "mille", "millions", "milliards")

RIGHT_TO_LEFT = "rtl"
LEFT_TO_RIGHT = "ltr"


# rank is "units", "tens" or "hundreds".
RankComponent = namedtuple("RankComponent", "rank value")


class Group(namedtuple("Group", "index value components")):
    """One base-1000 group: value = group value, weight 1000**index."""

    __slots__ = ()


# groups runs from the least significant group up.
NumberReading = namedtuple("NumberReading", "value groups")


# The rank records, shared by every reading: entry d of a rank's table is ()
# for d == 0, else a one-tuple of the component of value d * 10**rank.
_UNITS, _TENS, _HUNDREDS = tuple(
    ((),) + tuple((RankComponent(rank, digit * scale),) for digit in range(1, 10))
    for rank, scale in zip(RANKS, (1, 10, 100))
)

_new = tuple.__new__  # positional record construction, as namedtuple's _make


def _components(group_value: int) -> tuple[RankComponent, ...]:
    return (
        _UNITS[group_value % 10] + _TENS[group_value // 10 % 10] + _HUNDREDS[group_value // 100]
    )


def decompose(n: int) -> NumberReading:
    """Base-1000 groups of n, least significant first, zero parts omitted."""
    check_int("n", n)
    if n < 0:
        raise ValueError("n must be non-negative")
    groups = []
    rest = n
    while True:
        rest, value = divmod(rest, 1000)
        groups.append(_new(Group, (len(groups), value, _components(value))))
        if not rest:
            break
    return _new(NumberReading, (n, tuple(groups)))


def format_reading(
    reading: NumberReading,
    direction: str = RIGHT_TO_LEFT,
    labels: tuple[str, ...] = DEFAULT_LABELS,
    figure_exact: bool = False,
) -> str:
    """Narrate a reading right-to-left (units first) or left-to-right.

    Right-to-left joins each group's components with " et " and appends the
    group's scale label; groups are separated by " ; ", or joined with
    " et " throughout when figure_exact is set.  Left-to-right emits each
    nonzero group's value and label from the most significant group down.
    Zero is "0" either way.
    """
    try:
        groups = reading.groups
    except AttributeError:
        raise wrong_type("reading", "a NumberReading", reading) from None
    try:
        too_few = len(groups) > len(labels)
    except TypeError:
        raise wrong_type("labels", "a tuple of str", labels) from None
    if too_few:
        raise InsufficientLabels(f"{len(groups)} groups but only {len(labels)} labels")
    if direction == RIGHT_TO_LEFT:
        parts = []
        for group in groups:
            if not group.components:
                continue
            spoken = " et ".join([str(c.value) for c in group.components])
            label = labels[group.index]
            parts.append(f"{spoken} {label}" if label else spoken)
        joiner = " et " if figure_exact else " ; "
        return joiner.join(parts) if parts else "0"
    if direction == LEFT_TO_RIGHT:
        parts = []
        for group in reversed(groups):
            if group.value == 0:
                continue
            label = labels[group.index]
            parts.append(f"{group.value} {label}" if label else str(group.value))
        return " ".join(parts) if parts else "0"
    raise ValueError(f"direction must be {RIGHT_TO_LEFT!r} or {LEFT_TO_RIGHT!r}")

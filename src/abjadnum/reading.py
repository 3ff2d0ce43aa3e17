"""Split integers into 3-digit groups and narrate them in either direction.

A right-to-left reader speaks the components of each group starting from
the units: 12457892 becomes "2 et 90 et 800 ; 7 et 50 et 400 mille ; 2 et
10 millions".  A left-to-right reader first regroups, then reads the group
values from the top: "12 millions 457 mille 892".

A group value is one of 0..999, and each has one components tuple and one
right-to-left speech, each kept in a table keyed by the value.  Both tables
are filled on first use (nothing is built at import) and never hold more
than 1000 entries.  A reading is narrated from its groups' indices and
values alone, so a hand-built group reads the same in both directions.

A Group is fixed by its index and value, so the groups of the indices the
default labels can name (0..3) are shared the same way: one table per index,
each filled on first use and holding at most 1000 records.  A group past
index 3 is built afresh by each call and stored nowhere, so the tables stay
bounded however large n is.
"""

from collections import namedtuple
from collections.abc import Sequence

from .errors import InsufficientLabels, check_int, check_text, wrong_type

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


class _Table(dict):
    """Key -> build(key); a miss builds and stores it."""

    __slots__ = ("build",)

    def __init__(self, build) -> None:
        self.build = build

    def __missing__(self, key):
        # setdefault: two threads that miss together still share one value.
        return self.setdefault(key, self.build(key))


# Group value -> its components tuple.
_COMPONENTS = _Table(
    lambda value: _UNITS[value % 10] + _TENS[value // 10 % 10] + _HUNDREDS[value // 100]
)
# Group value -> its right-to-left speech.
_SPOKEN = _Table(lambda value: " et ".join([str(c.value) for c in _COMPONENTS[value]]))
# Entry i maps a group value to its Group record at index i, one table per
# index the default labels name.
_GROUPS = tuple(
    _Table(lambda value, index=index: _new(Group, (index, value, _COMPONENTS[value])))
    for index in range(len(DEFAULT_LABELS))
)


def decompose(n: int) -> NumberReading:
    """Base-1000 groups of n, least significant first.

    Every group up to the most significant is kept, a zero one too:
    1000005 has Group(1, 0, ()).  Only a group's zero rank components are
    left out, and 0 has the one group Group(0, 0, ()).
    """
    n = n if type(n) is int else check_int("n", n)
    if n < 0:
        raise ValueError("n must be non-negative")
    groups = []
    rest = n
    for table in _GROUPS:
        rest, value = divmod(rest, 1000)
        groups.append(table[value])
        if not rest:
            return _new(NumberReading, (n, tuple(groups)))
    # Past the default labels: built afresh, so the tables stay bounded.
    while rest:
        rest, value = divmod(rest, 1000)
        groups.append(_new(Group, (len(groups), value, _COMPONENTS[value])))
    return _new(NumberReading, (n, tuple(groups)))


def format_reading(
    reading: NumberReading,
    direction: str = RIGHT_TO_LEFT,
    labels: tuple[str, ...] = DEFAULT_LABELS,
    figure_exact: bool = False,
) -> str:
    """Narrate a reading right-to-left (units first) or left-to-right.

    Right-to-left speaks each nonzero group's components joined with " et "
    and appends its scale label; groups are separated by " ; ", or joined
    with " et " throughout when figure_exact is set.  Left-to-right emits
    each nonzero group's value and label from the most significant group
    down.  Zero is "0" either way.  Both read only each group's index, a
    non-negative int (not a bool) that is the position of its label and is
    greater than the index of the group before it, and its value, which must
    be an int (not a bool) in 0..999.  reading.value is not read.
    """
    try:
        groups = reading.groups
    except AttributeError:
        raise wrong_type("reading", "a NumberReading", reading) from None
    try:
        count = len(groups)
    except TypeError:
        raise wrong_type("reading.groups", "a tuple of Group", groups) from None
    try:
        # The default labels are known to be str; any others are read once, each
        # as its exact str.  A str is rejected too: each of its characters would
        # pass as a label.  A set or a dict is not indexed by position.
        if labels is not DEFAULT_LABELS:
            if isinstance(labels, str) or not isinstance(labels, Sequence):
                raise TypeError
            labels = [check_text("labels", label) for label in labels]
        too_few = count > len(labels)
    except (TypeError, ValueError):
        raise wrong_type("labels", "a tuple of str", labels) from None
    if too_few:
        raise InsufficientLabels(f"{count} groups but only {len(labels)} labels")
    direction = direction if type(direction) is str else check_text("direction", direction)
    rtl = direction == RIGHT_TO_LEFT
    if not rtl and direction != LEFT_TO_RIGHT:
        raise ValueError(f"direction must be {RIGHT_TO_LEFT!r} or {LEFT_TO_RIGHT!r}")
    parts = []
    last = -1
    try:
        for group in groups:
            index = group.index
            if index <= last or index is True or index is False:
                raise TypeError
            last = index
            label = labels[index]
            value = group.value
            if type(value) is not int or not 0 <= value <= 999:
                raise TypeError
            if value:
                said = _SPOKEN[value] if rtl else str(value)
                parts.append(f"{said} {label}" if label else said)
    except (AttributeError, IndexError, TypeError):
        # A group that is not a Group, or one whose index is negative, not
        # above the one before it, a bool, not usable as a position or past
        # the labels, or whose value is not an int in 0..999.
        raise wrong_type("reading.groups", "a tuple of Group", groups) from None
    if not parts:
        return "0"
    if rtl:
        return (" et " if figure_exact else " ; ").join(parts)
    parts.reverse()
    return " ".join(parts)

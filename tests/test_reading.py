import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from abjadnum import (
    DEFAULT_LABELS,
    Group,
    InsufficientLabels,
    NumberReading,
    RankComponent,
    decompose,
    format_reading,
)
from abjadnum import reading as reading_module
from support import outcome, reference_decompose, reference_format


def flat_components(reading):
    return [c.value for group in reading.groups for c in group.components]


class TestDecompose:
    def test_three_group_number(self):
        reading = decompose(12457892)
        assert [g.index for g in reading.groups] == [0, 1, 2]
        assert [g.value for g in reading.groups] == [892, 457, 12]
        assert flat_components(reading) == [2, 90, 800, 7, 50, 400, 2, 10]

    def test_thousand_keeps_its_empty_group(self):
        reading = decompose(1000)
        assert [(g.index, g.value) for g in reading.groups] == [(0, 0), (1, 1)]
        assert reading.groups[1].components[0].value == 1

    def test_component_ranks(self):
        (group,) = decompose(892).groups
        assert [(c.rank, c.value) for c in group.components] == [
            ("units", 2),
            ("tens", 90),
            ("hundreds", 800),
        ]

    def test_zero_components_are_omitted(self):
        (group,) = decompose(305).groups
        assert [(c.rank, c.value) for c in group.components] == [
            ("units", 5),
            ("hundreds", 300),
        ]

    def test_zero_groups_are_kept_and_only_zero_components_omitted(self):
        # The docstring's rule: every group up to the most significant is
        # kept, a zero one too; a group leaves out its zero rank components.
        units = lambda value: (RankComponent("units", value),)
        assert decompose(1000005).groups == (
            Group(0, 5, units(5)), Group(1, 0, ()), Group(2, 1, units(1)),
        )
        assert decompose(10**15).groups == (
            *(Group(index, 0, ()) for index in range(5)), Group(5, 1, units(1)),
        )
        assert decompose(0).groups == (Group(0, 0, ()),)

    def test_negative_is_a_usage_error(self):
        with pytest.raises(ValueError):
            decompose(-1)



@given(st.integers(min_value=0, max_value=10**9))
def test_reconstruction_sampled(n):
    reading = decompose(n)
    assert sum(g.value * 1000**g.index for g in reading.groups) == n
    for group in reading.groups:
        assert sum(c.value for c in group.components) == group.value


class TestFormat:
    def test_right_to_left_spoken_form(self):
        reading = decompose(12457892)
        assert (
            format_reading(reading, "rtl", labels=("", "mille", "millions"))
            == "2 et 90 et 800 ; 7 et 50 et 400 mille ; 2 et 10 millions"
        )

    def test_figure_exact_joins_everything_with_et(self):
        reading = decompose(12457892)
        assert (
            format_reading(reading, "rtl", figure_exact=True)
            == "2 et 90 et 800 et 7 et 50 et 400 mille et 2 et 10 millions"
        )

    def test_left_to_right_spoken_form(self):
        reading = decompose(12457892)
        assert format_reading(reading, "ltr") == "12 millions 457 mille 892"

    def test_single_unit(self):
        reading = decompose(5)
        assert format_reading(reading, "rtl") == "5"
        assert format_reading(reading, "ltr") == "5"

    def test_zero(self):
        reading = decompose(0)
        assert format_reading(reading, "rtl") == "0"
        assert format_reading(reading, "ltr") == "0"

    def test_empty_groups_are_skipped(self):
        reading = decompose(1000)
        assert format_reading(reading, "rtl") == "1 mille"
        assert format_reading(reading, "ltr") == "1 mille"
        reading = decompose(2000003)
        assert format_reading(reading, "rtl") == "3 ; 2 millions"
        assert format_reading(reading, "ltr") == "2 millions 3"

    def test_direction_determines_group_order(self):
        rtl = format_reading(decompose(12457892), "rtl")
        ltr = format_reading(decompose(12457892), "ltr")
        assert rtl.index("mille") < rtl.index("millions")
        assert ltr.index("millions") < ltr.index("mille")

    def test_default_labels_reach_milliards(self):
        assert DEFAULT_LABELS == ("", "mille", "millions", "milliards")
        assert format_reading(decompose(3 * 10**9), "ltr") == "3 milliards"

    def test_custom_labels(self):
        text = format_reading(decompose(2500), "ltr", labels=("", "thousand"))
        assert text == "2 thousand 500"

    def test_insufficient_labels(self):
        with pytest.raises(InsufficientLabels):
            format_reading(decompose(12457892), "rtl", labels=("", "mille"))
        with pytest.raises(InsufficientLabels):
            format_reading(decompose(10**12), "ltr")

    def test_unknown_direction(self):
        with pytest.raises(ValueError):
            format_reading(decompose(5), "boustrophedon")


@given(st.integers(min_value=0, max_value=10**9))
def test_emitted_content_matches_the_reading(n):
    # both directions narrate the same decomposition; only the traversal
    # order and joiners differ
    reading = decompose(n)
    rtl = format_reading(reading, "rtl")
    ltr = format_reading(reading, "ltr")
    rtl_numbers = [int(tok) for tok in rtl.replace(";", " ").split() if tok.isdigit()]
    ltr_numbers = [int(tok) for tok in ltr.split() if tok.isdigit()]
    if n == 0:
        assert rtl_numbers == ltr_numbers == [0]
    else:
        assert sorted(rtl_numbers) == sorted(flat_components(reading))
        assert ltr_numbers == [g.value for g in reversed(reading.groups) if g.value]


# -- the shared rank records against the per-rank loops they replaced --------


def _record_types(reading):
    return [type(reading)] + [
        (type(g), [type(c) for c in g.components]) for g in reading.groups
    ]


_MODES = [("rtl", False), ("ltr", False), ("rtl", True)]
_LONG_LABELS = tuple(f"L{i}" for i in range(20))


@settings(max_examples=400)
@given(
    st.one_of(st.integers(min_value=-5, max_value=10**40), st.booleans()),
    st.sampled_from(_MODES),
    st.sampled_from([DEFAULT_LABELS, _LONG_LABELS]),
)
def test_reading_matches_the_rank_loop(n, mode, labels):
    got, expected = outcome(decompose, n), outcome(reference_decompose, n)
    assert got == expected
    if got[0] != "value":
        return
    assert _record_types(got[1]) == _record_types(expected[1])
    direction, figure_exact = mode
    assert outcome(format_reading, got[1], direction, labels, figure_exact) == outcome(
        reference_format, expected[1], direction, labels, figure_exact
    )


# -- the per-group-value tables of components, speech and Group records -------


def test_each_reading_table_holds_at_most_one_entry_per_group_value():
    rng = random.Random(10)
    for _ in range(10**5):
        decompose(rng.randrange(10**40))
    tables = (*reading_module._GROUPS, reading_module._COMPONENTS, reading_module._SPOKEN)
    assert len(reading_module._GROUPS) == len(DEFAULT_LABELS)
    assert max(map(len, tables)) <= 1000


def test_a_second_reading_hands_out_the_same_group_records():
    first, second = decompose(999_999_999_999), decompose(999_999_999_999)
    assert first == reference_decompose(999_999_999_999)
    assert [g.index for g in second.groups] == [0, 1, 2, 3]
    assert all(a is b for a, b in zip(first.groups, second.groups, strict=True))
    assert all(g is table[999] for g, table in zip(second.groups, reading_module._GROUPS))


def test_a_group_past_the_default_labels_is_stored_nowhere():
    n = 10**12 + 5
    reading = decompose(n)
    assert reading == reference_decompose(n)
    assert _record_types(reading) == _record_types(reference_decompose(n))
    *shared, past = reading.groups
    assert (past.index, past.value) == (4, 1)
    assert all(g is table[g.value] for g, table in zip(shared, reading_module._GROUPS))
    assert not any(
        record is past for table in reading_module._GROUPS for record in table.values()
    )
    assert decompose(n).groups[4] is not past


def _hand_built(components):
    return NumberReading(2, (Group(0, 2, components),))


@pytest.mark.parametrize("direction", ["rtl", "ltr"])
@pytest.mark.parametrize(
    "reading, read",
    [
        # Whatever a hand-built group holds as components, both directions
        # read its value; the components are never looked at.
        (_hand_built((RankComponent("units", 2.0),)), "2"),
        (_hand_built((RankComponent("units", True),)), "2"),
        (_hand_built((RankComponent("units", 2),)), "2"),
        (_hand_built([RankComponent("units", 2), RankComponent("tens", 10)]), "2"),
        (NumberReading(5, (Group(0, 5, 5),)), "5"),
        (NumberReading(5, (Group(0, 5, ()),)), "5"),
    ],
    ids=["float", "bool", "equal-tuple", "list", "int-components", "empty-components"],
)
def test_a_hand_built_group_is_read_from_its_value(reading, read, direction):
    assert format_reading(reading, direction) == read


@pytest.mark.parametrize("direction", ["rtl", "ltr"])
@pytest.mark.parametrize(
    "value", [-1, 1000, True, 5.0, "5", None], ids=["-1", "1000", "True", "float", "str", "None"]
)
def test_a_group_value_is_an_int_from_0_to_999(value, direction):
    # A bool or a float would find a speech by hashing equal to an int, and
    # print as "True" or "5.0" left-to-right; -1 and 1000 have no speech.
    reading = NumberReading(5, (Group(0, value, decompose(5).groups[0].components),))
    with pytest.raises(ValueError) as exc:
        format_reading(reading, direction)
    assert (type(exc.value), str(exc.value)) == (
        ValueError, "reading.groups must be a tuple of Group, not tuple"
    )


@pytest.mark.parametrize("direction", ["rtl", "ltr"])
@pytest.mark.parametrize("value", [5, 0])
@pytest.mark.parametrize("index", [-1, -4, True, False], ids=["-1", "-4", "True", "False"])
def test_a_group_index_is_a_non_negative_int(index, value, direction):
    # A negative index would pick a label from the end ("5 milliards"), and a
    # bool would pass as 0 or 1 ("5 mille").  A zero group, which says nothing,
    # has its index checked too.
    group = Group(index, value, decompose(value).groups[0].components)
    reading = NumberReading(value, (group,))
    with pytest.raises(ValueError) as exc:
        format_reading(reading, direction)
    assert (type(exc.value), str(exc.value)) == (
        ValueError, "reading.groups must be a tuple of Group, not tuple"
    )


@pytest.mark.parametrize("direction", ["rtl", "ltr"])
def test_a_hand_built_group_index_picks_its_label(direction):
    reading = NumberReading(5000, (Group(1, 5, decompose(5).groups[0].components),))
    assert format_reading(reading, direction) == "5 mille"


@pytest.mark.parametrize("direction", ["rtl", "ltr"])
@pytest.mark.parametrize(
    "groups",
    [
        (Group(1, 5, ()), Group(0, 5, ())),
        (Group(0, 5, ()), Group(0, 5, ())),
        (Group(0, 5, ()), Group(2, 5, ()), Group(1, 5, ())),
        (Group(1, 0, ()), Group(1, 5, ())),
    ],
    ids=["descending", "repeated", "out-of-order-last", "repeated-after-zero"],
)
def test_group_indices_must_rise(groups, direction):
    # Unchecked, the first two would read "5 mille ; 5" and "5 5", neither of
    # which is the value the groups sum to (5005 and 10).
    reading = NumberReading(sum(g.value * 1000 ** g.index for g in groups), groups)
    with pytest.raises(ValueError) as exc:
        format_reading(reading, direction)
    assert (type(exc.value), str(exc.value)) == (
        ValueError, "reading.groups must be a tuple of Group, not tuple"
    )


@pytest.mark.parametrize("direction, read", [("rtl", "5 ; 5 millions"), ("ltr", "5 millions 5")])
def test_group_indices_may_skip(direction, read):
    # reading.value is never read: 0 here, not 5000005.
    reading = NumberReading(0, (Group(0, 5, ()), Group(2, 5, ())))
    assert format_reading(reading, direction) == read

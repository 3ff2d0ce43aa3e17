"""Alphabet and DigitScript hash by identity.

Their members are singletons: a pickle round trip, a copy, or a lookup by
value or by name gives back the member itself.  So every table keyed by one
of the enums finds its entry for each of them, and every public function
answers the same for each.
"""

import copy
import pickle

import pytest

from abjadnum import Alphabet, DigitScript, alphabets, codec, digit_provenance, digits

_ENUMS = (Alphabet, DigitScript)
_MEMBERS = [*Alphabet, *DigitScript]


def _copies(member):
    """(how, copy) for each way of getting a member back."""
    enum = type(member)
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        yield f"pickle-{protocol}", pickle.loads(pickle.dumps(member, protocol))
    yield "copy", copy.copy(member)
    yield "deepcopy", copy.deepcopy(member)
    yield "by-value", enum(member.value)
    yield "by-name", enum[member.name]


def _enum_tables():
    """name -> table for each module-level dict of alphabets, codec and digits
    keyed by an enum, and each to_dst table of digits._TRANSLATE.

    digits._PROVENANCE is filled on first use, so one call fills it first:
    run alone, this module would otherwise find it empty and skip it."""
    digit_provenance(0, DigitScript.WESTERN)
    tables = {
        f"{module.__name__.rsplit('.', 1)[1]}.{name}": value
        for module in (alphabets, codec, digits)
        for name, value in vars(module).items()
        if isinstance(value, dict)
        and value
        and all(isinstance(key, _ENUMS) for key in value)
    }
    for src, (_, to_dst) in digits._TRANSLATE.items():
        tables[f"digits._TRANSLATE[{src.name}][1]"] = to_dst
    return tables


def test_the_hash_is_the_identity_hash():
    assert Alphabet.__hash__ is object.__hash__
    assert DigitScript.__hash__ is object.__hash__
    for member in _MEMBERS:
        assert hash(member) == object.__hash__(member)


def test_every_enum_keyed_table_is_checked():
    assert sorted(_enum_tables()) == [
        "alphabets._BY_VALUE", "alphabets._LETTERS",
        "codec.MAX_ENCODABLE", "codec._IGNORING", "codec._NUMERALS", "codec._VALUES",
        "codec._WORDS",
        "digits._GLYPHS", "digits._PROVENANCE", "digits._RENDER", "digits._TRANSLATE",
        "digits._TRANSLATE[MASHREKI_EASTERN][1]", "digits._TRANSLATE[ORIGINAL_MAGHREBI][1]",
        "digits._TRANSLATE[WESTERN][1]",
    ]


@pytest.mark.parametrize("member", _MEMBERS, ids=[m.name for m in _MEMBERS])
def test_every_copy_is_the_member_and_finds_its_entries(member):
    tables = {
        name: table for name, table in _enum_tables().items() if type(member) in map(type, table)
    }
    assert tables
    for how, copied in _copies(member):
        assert copied is member, how
        for name, table in tables.items():
            assert table[copied] is table[member], (how, name)

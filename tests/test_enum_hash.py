"""Alphabet and DigitScript hash by identity.

Their members are singletons: a pickle round trip, a copy, or a lookup by
value or by name gives back the member itself.  So every table keyed by one
of the enums finds its entry for each of them, every public function answers
the same for each, and a member of the other enum is still the wrong type.
"""

import copy
import pickle

import pytest

from abjadnum import (
    Alphabet,
    DigitScript,
    alphabets,
    codec,
    decode,
    digit_provenance,
    digits,
    encode,
    gematria,
    letter_by_value,
    letters,
    parse_digits,
    render_digits,
    transliterate,
)

_KINDS = {Alphabet: "an Alphabet", DigitScript: "a DigitScript"}
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
        and all(isinstance(key, tuple(_KINDS)) for key in value)
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


_ALPHABET_CALLS = [
    lambda a: letters(a),
    lambda a: letter_by_value(a, 400),
    lambda a: encode(345, a),
    lambda a: decode("همرغ" if a is Alphabet.ARABIC else "הלש", a, True),
    lambda a: decode("غرمه" if a is Alphabet.ARABIC else "שלה", a),
    lambda a: gematria("احمد زينب!" if a is Alphabet.ARABIC else "שלום עולם!", a, "!"),
]
_SCRIPT_CALLS = [
    lambda s: render_digits(12457892, s),
    lambda s: parse_digits(render_digits(1245, s), s),
    lambda s: digit_provenance(4, s),
    *(lambda s, d=d: transliterate(render_digits(45, s) + "/" + render_digits(12, s), s, d) for d in DigitScript),
    *(lambda d, s=s: transliterate(render_digits(45, s) + "/" + render_digits(12, s), s, d) for s in DigitScript),
]


def _flat(result):
    if isinstance(result, tuple):
        for item in result:
            yield from _flat(item)
    else:
        yield result


@pytest.mark.parametrize("member", _MEMBERS, ids=[m.name for m in _MEMBERS])
def test_every_copy_gets_the_same_results(member):
    calls = _ALPHABET_CALLS if isinstance(member, Alphabet) else _SCRIPT_CALLS
    for call in calls:
        expected = call(member)
        for how, copied in _copies(member):
            result = call(copied)
            assert result == expected, how
            assert all(
                item is member
                for item in _flat(result)
                if isinstance(item, type(member))
            ), how


@pytest.mark.parametrize("member", _MEMBERS, ids=[m.name for m in _MEMBERS])
def test_a_copy_of_the_other_enum_is_still_the_wrong_type(member):
    calls = (
        [
            ("script", lambda v: render_digits(5, v)),
            ("script", lambda v: parse_digits("5", v)),
            ("script", lambda v: digit_provenance(5, v)),
            ("src", lambda v: transliterate("5", v, DigitScript.WESTERN)),
            ("dst", lambda v: transliterate("5", DigitScript.WESTERN, v)),
        ]
        if isinstance(member, Alphabet)
        else [
            ("alphabet", lambda v: letters(v)),
            ("alphabet", lambda v: letter_by_value(v, 5)),
            ("alphabet", lambda v: encode(5, v)),
            ("alphabet", lambda v: decode("ب", v)),
            ("alphabet", lambda v: gematria("ب", v)),
        ]
    )
    kind = _KINDS[DigitScript if isinstance(member, Alphabet) else Alphabet]
    for how, copied in [("member", member), *_copies(member)]:
        for name, call in calls:
            with pytest.raises(ValueError) as exc:
                call(copied)
            assert (type(exc.value), str(exc.value)) == (
                ValueError, f"{name} must be {kind}, not {type(member).__name__}"
            ), how

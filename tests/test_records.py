"""The result records: the contract callers rely on.

That neither importing ``abjadnum.cli`` nor any call loads ``dataclasses`` or
``inspect`` is checked with the other start-up checks, in
``tests/test_startup.py``: the import by
``test_import_loads_neither_json_nor_unicodedata_nor_the_provenance_table``.
"""

import pickle

import pytest

from abjadnum import (
    Alphabet,
    DigitScript,
    decompose,
    digit_provenance,
    encode,
    gematria,
    letter_by_value,
)


RECORDS = {
    "Letter": lambda: letter_by_value(Alphabet.ARABIC, 40),
    "AbjadNumeral": lambda: encode(1245, Alphabet.ARABIC),
    "GematriaResult": lambda: gematria("احمد زينب", Alphabet.ARABIC),
    "DigitProvenance": lambda: digit_provenance(6, DigitScript.MASHREKI_EASTERN),
    "RankComponent": lambda: decompose(1245).groups[0].components[0],
    "Group": lambda: decompose(1245).groups[0],
    "NumberReading": lambda: decompose(1245),
}


@pytest.mark.parametrize("name", list(RECORDS))
def test_record_contract(name):
    record = RECORDS[name]()
    cls = type(record)
    assert cls.__name__ == name

    rebuilt = cls(**record._asdict())
    assert rebuilt == record
    assert hash(rebuilt) == hash(record)
    assert repr(record).startswith(f"{name}({cls._fields[0]}=")

    with pytest.raises(AttributeError):
        setattr(record, cls._fields[0], None)
    assert not hasattr(record, "__dict__")  # no per-instance attributes either

    restored = pickle.loads(pickle.dumps(record))
    assert type(restored) is cls
    assert restored == record

"""The result records: a cheap import path and the contract callers rely on.

That no call loads ``dataclasses`` or ``inspect`` either is checked with
the other start-up checks, in ``tests/test_startup.py``.
"""

import pickle
import subprocess
import sys

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


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    # A fresh interpreter, because this one has long since imported both.
    code = (
        "import sys; before = set(sys.modules); import abjadnum.cli; "
        "print(' '.join(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before))))"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, timeout=60)
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout.decode().strip() == ""


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

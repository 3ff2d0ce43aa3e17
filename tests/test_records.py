"""The result records: the contract callers rely on.

That neither importing ``abjadnum.cli`` nor any call loads ``dataclasses`` or
``inspect`` is checked with the other start-up checks, in
``tests/test_startup.py``: the import by
``test_import_loads_neither_json_nor_unicodedata_nor_the_provenance_table``.
"""

import ast
import copy
import inspect
import pickle
from collections import namedtuple

import pytest

from abjadnum import (
    Alphabet,
    DigitScript,
    decompose,
    digit_provenance,
    encode,
    gematria,
    letters,
)
from support import fresh


# Each record's name -> an expression over the names imported above that
# builds one; a fresh interpreter builds them from the same text.
CALLS = {
    "Letter": "letters(Alphabet.ARABIC)[12]",  # Mim, 40
    "AbjadNumeral": "encode(1245, Alphabet.ARABIC)",
    "GematriaResult": 'gematria("احمد زينب", Alphabet.ARABIC)',
    "DigitProvenance": "digit_provenance(6, DigitScript.MASHREKI_EASTERN)",
    "RankComponent": "decompose(1245).groups[0].components[0]",
    "Group": "decompose(1245).groups[0]",
    "NumberReading": "decompose(1245)",
}
RECORDS = {name: lambda call=call: eval(call) for name, call in CALLS.items()}


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


@pytest.mark.parametrize("name", list(RECORDS))
def test_record_has_a_docstring(name):
    assert type(RECORDS[name]()).__doc__


def _bind(record, pattern):
    """The names that `pattern`, a class pattern over ``cls``, binds on `record`."""
    scope = {"cls": type(record), "record": record}
    exec(f"match record:\n    case {pattern}:\n        pass", scope)
    return {name: scope[name] for name in type(record)._fields if name in scope}


@pytest.mark.parametrize("name", list(RECORDS))
def test_record_api(name):
    record = RECORDS[name]()
    cls = type(record)
    fields = cls._fields
    assert list(inspect.signature(cls).parameters) == list(fields)
    assert cls.__match_args__ == fields
    assert cls._field_defaults == {}

    assert _bind(record, f"cls({', '.join(fields)})") == record._asdict()
    assert _bind(record, f"cls({', '.join(f'{f}={f}' for f in fields)})") == record._asdict()

    assert cls._make(iter(record)) == record and type(cls._make(record)) is cls
    with pytest.raises(TypeError):
        cls._make(record[1:])
    changed = record._replace(**{fields[-1]: None})
    assert type(changed) is cls
    assert changed == (*record[:-1], None)
    with pytest.raises(ValueError, match="unexpected field names: \\['bogus'\\]"):
        record._replace(bogus=1)
    if hasattr(copy, "replace"):  # CPython 3.13 on
        assert copy.replace(record, **{fields[0]: None}) == (None, *record[1:])
    assert copy.copy(record) == record and copy.deepcopy(record) == record

    descriptor = type(namedtuple("T", "a").a)
    assert [type(vars(cls)[f]) for f in fields] == [descriptor] * len(fields)
    assert [getattr(record, f) for f in fields] == list(record)


# pickle.dumps(RECORDS[name](), protocol) at commit f8ab762, where each
# record was a collections.namedtuple.
PICKLES = {
    ('Letter', 0): (
        b'ccopy_reg\n_reconstructor\np0\n(cabjadnum.alphabets\nLetter\np1\nc__builtin__'
        b'\ntuple\np2\n(V\\u0645\np3\n(tVMim\np4\nI40\nI13\ncabjadnum.alphabets\nAlphab'
        b'et\np5\n(Varabic\np6\ntp7\nRp8\ntp9\ntp10\nRp11\n.'
    ),
    ('Letter', 2): (
        b'\x80\x02cabjadnum.alphabets\nLetter\nq\x00(X\x02\x00\x00\x00\xd9\x85q\x01)X'
        b'\x03\x00\x00\x00Mimq\x02K(K\rcabjadnum.alphabets\nAlphabet\nq\x03X\x06\x00'
        b'\x00\x00arabicq\x04\x85q\x05Rq\x06tq\x07\x81q\x08.'
    ),
    ('AbjadNumeral', 0): (
        b'ccopy_reg\n_reconstructor\np0\n(cabjadnum.codec\nAbjadNumeral\np1\nc__builtin'
        b'__\ntuple\np2\n(cabjadnum.alphabets\nAlphabet\np3\n(Varabic\np4\ntp5\nRp6\n(g'
        b'0\n(cabjadnum.alphabets\nLetter\np7\ng2\n(V\\u0647\np8\n(V\\u0629\np9\ntp10\n'
        b'VHaa\np11\nI5\nI5\ng6\ntp12\ntp13\nRp14\ng0\n(g7\ng2\n(V\\u0645\np15\n(tVMim'
        b'\np16\nI40\nI13\ng6\ntp17\ntp18\nRp19\ng0\n(g7\ng2\n(V\\u0631\np20\n(tVRaa\np'
        b'21\nI200\nI20\ng6\ntp22\ntp23\nRp24\ng0\n(g7\ng2\n(V\\u063a\np25\n(tVGhin\np2'
        b'6\nI1000\nI28\ng6\ntp27\ntp28\nRp29\ntp30\nI1245\ntp31\ntp32\nRp33\n.'
    ),
    ('AbjadNumeral', 2): (
        b'\x80\x02cabjadnum.codec\nAbjadNumeral\nq\x00cabjadnum.alphabets\nAlphabet\nq'
        b'\x01X\x06\x00\x00\x00arabicq\x02\x85q\x03Rq\x04(cabjadnum.alphabets\nLetter\n'
        b'q\x05(X\x02\x00\x00\x00\xd9\x87q\x06X\x02\x00\x00\x00\xd8\xa9q\x07\x85q\x08X'
        b'\x03\x00\x00\x00Haaq\tK\x05K\x05h\x04tq\n\x81q\x0bh\x05(X\x02\x00\x00\x00\xd9'
        b'\x85q\x0c)X\x03\x00\x00\x00Mimq\rK(K\rh\x04tq\x0e\x81q\x0fh\x05(X\x02\x00\x00'
        b'\x00\xd8\xb1q\x10)X\x03\x00\x00\x00Raaq\x11K\xc8K\x14h\x04tq\x12\x81q\x13h'
        b'\x05(X\x02\x00\x00\x00\xd8\xbaq\x14)X\x04\x00\x00\x00Ghinq\x15M\xe8\x03K\x1ch'
        b'\x04tq\x16\x81q\x17tq\x18M\xdd\x04\x87q\x19\x81q\x1a.'
    ),
    ('GematriaResult', 0): (
        b'ccopy_reg\n_reconstructor\np0\n(cabjadnum.codec\nGematriaResult\np1\nc__built'
        b'in__\ntuple\np2\n(I122\n((V\\u0627\\u062d\\u0645\\u062f\np3\nI53\ntp4\n(V\\u0'
        b'632\\u064a\\u0646\\u0628\np5\nI69\ntp6\ntp7\ntp8\ntp9\nRp10\n.'
    ),
    ('GematriaResult', 2): (
        b'\x80\x02cabjadnum.codec\nGematriaResult\nq\x00KzX\x08\x00\x00\x00\xd8\xa7\xd8'
        b'\xad\xd9\x85\xd8\xafq\x01K5\x86q\x02X\x08\x00\x00\x00\xd8\xb2\xd9\x8a\xd9\x86'
        b'\xd8\xa8q\x03KE\x86q\x04\x86q\x05\x86q\x06\x81q\x07.'
    ),
    ('DigitProvenance', 0): (
        b'ccopy_reg\n_reconstructor\np0\n(cabjadnum.digits\nDigitProvenance\np1\nc__bui'
        b'ltin__\ntuple\np2\n(I6\ncabjadnum.digits\nDigitScript\np3\n(Vmashreki\np4\ntp'
        b'5\nRp6\ncabjadnum.alphabets\nAlphabet\np7\n(Vhebrew\np8\ntp9\nRp10\ng0\n(cabj'
        b'adnum.alphabets\nLetter\np11\ng2\n(V\\u05d5\np12\n(tVVav\np13\nI6\nI6\ng10\nt'
        b'p14\ntp15\nRp16\nVisolated form of the sixth Hebrew letter, value 6; the Arab'
        b'ic Waw would collide with the original digit 9\np17\ntp18\ntp19\nRp20\n.'
    ),
    ('DigitProvenance', 2): (
        b'\x80\x02cabjadnum.digits\nDigitProvenance\nq\x00(K\x06cabjadnum.digits\nDigit'
        b'Script\nq\x01X\x08\x00\x00\x00mashrekiq\x02\x85q\x03Rq\x04cabjadnum.alphabets'
        b'\nAlphabet\nq\x05X\x06\x00\x00\x00hebrewq\x06\x85q\x07Rq\x08cabjadnum.alphabe'
        b'ts\nLetter\nq\t(X\x02\x00\x00\x00\xd7\x95q\n)X\x03\x00\x00\x00Vavq\x0bK\x06K'
        b'\x06h\x08tq\x0c\x81q\rXi\x00\x00\x00isolated form of the sixth Hebrew letter,'
        b' value 6; the Arabic Waw would collide with the original digit 9q\x0etq\x0f'
        b'\x81q\x10.'
    ),
    ('RankComponent', 0): (
        b'ccopy_reg\n_reconstructor\np0\n(cabjadnum.reading\nRankComponent\np1\nc__buil'
        b'tin__\ntuple\np2\n(Vunits\np3\nI5\ntp4\ntp5\nRp6\n.'
    ),
    ('RankComponent', 2): (
        b'\x80\x02cabjadnum.reading\nRankComponent\nq\x00X\x05\x00\x00\x00unitsq\x01K'
        b'\x05\x86q\x02\x81q\x03.'
    ),
    ('Group', 0): (
        b'ccopy_reg\n_reconstructor\np0\n(cabjadnum.reading\nGroup\np1\nc__builtin__\nt'
        b'uple\np2\n(I0\nI245\n(g0\n(cabjadnum.reading\nRankComponent\np3\ng2\n(Vunits'
        b'\np4\nI5\ntp5\ntp6\nRp7\ng0\n(g3\ng2\n(Vtens\np8\nI40\ntp9\ntp10\nRp11\ng0\n('
        b'g3\ng2\n(Vhundreds\np12\nI200\ntp13\ntp14\nRp15\ntp16\ntp17\ntp18\nRp19\n.'
    ),
    ('Group', 2): (
        b'\x80\x02cabjadnum.reading\nGroup\nq\x00K\x00K\xf5cabjadnum.reading\nRankCompo'
        b'nent\nq\x01X\x05\x00\x00\x00unitsq\x02K\x05\x86q\x03\x81q\x04h\x01X\x04\x00'
        b'\x00\x00tensq\x05K(\x86q\x06\x81q\x07h\x01X\x08\x00\x00\x00hundredsq\x08K\xc8'
        b'\x86q\t\x81q\n\x87q\x0b\x87q\x0c\x81q\r.'
    ),
    ('NumberReading', 0): (
        b'ccopy_reg\n_reconstructor\np0\n(cabjadnum.reading\nNumberReading\np1\nc__buil'
        b'tin__\ntuple\np2\n(I1245\n(g0\n(cabjadnum.reading\nGroup\np3\ng2\n(I0\nI245\n'
        b'(g0\n(cabjadnum.reading\nRankComponent\np4\ng2\n(Vunits\np5\nI5\ntp6\ntp7\nRp'
        b'8\ng0\n(g4\ng2\n(Vtens\np9\nI40\ntp10\ntp11\nRp12\ng0\n(g4\ng2\n(Vhundreds\np'
        b'13\nI200\ntp14\ntp15\nRp16\ntp17\ntp18\ntp19\nRp20\ng0\n(g3\ng2\n(I1\nI1\n(g0'
        b'\n(g4\ng2\n(g5\nI1\ntp21\ntp22\nRp23\ntp24\ntp25\ntp26\nRp27\ntp28\ntp29\ntp3'
        b'0\nRp31\n.'
    ),
    ('NumberReading', 2): (
        b'\x80\x02cabjadnum.reading\nNumberReading\nq\x00M\xdd\x04cabjadnum.reading\nGr'
        b'oup\nq\x01K\x00K\xf5cabjadnum.reading\nRankComponent\nq\x02X\x05\x00\x00\x00u'
        b'nitsq\x03K\x05\x86q\x04\x81q\x05h\x02X\x04\x00\x00\x00tensq\x06K(\x86q\x07'
        b'\x81q\x08h\x02X\x08\x00\x00\x00hundredsq\tK\xc8\x86q\n\x81q\x0b\x87q\x0c\x87q'
        b'\r\x81q\x0eh\x01K\x01K\x01h\x02h\x03K\x01\x86q\x0f\x81q\x10\x85q\x11\x87q\x12'
        b'\x81q\x13\x86q\x14\x86q\x15\x81q\x16.'
    ),
}


@pytest.mark.parametrize("name, protocol", list(PICKLES))
def test_an_older_pickle_loads_as_an_equal_record(name, protocol):
    record = pickle.loads(PICKLES[name, protocol])
    assert type(record) is type(RECORDS[name]())
    assert record == RECORDS[name]()
    if name == "AbjadNumeral":
        assert record.text == "همرغ"


_FALLBACK = """\
import collections, enum, functools, pickle

# As on a CPython whose collections no longer has the private name.  The
# stdlib modules the package needs are imported first: functools builds a
# namedtuple, which reads that same name.
del collections._tuplegetter
from abjadnum import Alphabet, DigitScript, decompose, digit_provenance, encode, gematria, letters

seen = {}
for name, call in CALLS.items():
    record = eval(call)
    cls = type(record)
    fields = cls._fields
    seen[name] = dict(
        descriptors=sorted({type(vars(cls)[field]).__name__ for field in fields}),
        reads=[getattr(record, field) for field in fields] == list(record),
        made=cls._make(iter(record)) == record,
        replaced=repr(record._replace(**{fields[-1]: None})),
        asdict=repr(record._asdict()),
        repr=repr(record),
        pickles=[pickle.loads(PICKLES[name, protocol]) == record for protocol in (0, 2)],
        round_trip=pickle.loads(pickle.dumps(record)) == record,
    )
print(repr(seen))
"""


def test_records_answer_alike_where_collections_lacks_its_private_getter():
    seen = ast.literal_eval(fresh(_FALLBACK, CALLS=CALLS, PICKLES=PICKLES))
    for name, build in RECORDS.items():
        record = build()
        fields = type(record)._fields
        assert seen[name] == dict(
            descriptors=["property"],
            reads=True,
            made=True,
            replaced=repr(record._replace(**{fields[-1]: None})),
            asdict=repr(record._asdict()),
            repr=repr(record),
            pickles=[True, True],
            round_trip=True,
        ), name

"""One constructor for the plain records: fields by position, by keyword or both.

The nine records without defaults or checks take ``Frozen``'s constructor.
Every way of naming their fields builds the same record, and a call that
does not name each field once raises TypeError, as a hand-written
``__init__`` would.
"""

import copy
import pickle

import pytest

from weylmin.holomorphic import PhiTriple, RatLambda
from weylmin.parse import BinOp, Name, Neg, Num, Pow, Token
from weylmin.scalars import HbarPoly
from weylmin.surfaces import FirstFundamental, Provenance, VerificationReport
from weylmin.weyl import LAM, LAM_STAR, ONE

# Each record by name: its class and the values of its fields, in order.
RECORDS = {
    "Token": (Token, ("NUM", "12", 3)),
    "Num": (Num, (12, 3)),
    "Name": (Name, ("Ls", 0)),
    "Neg": (Neg, (Name("L", 1), 0)),
    "BinOp": (BinOp, ("+", Num(1, 0), Name("h", 2), 1)),
    "Pow": (Pow, (Name("L", 0), 3, 1)),
    "FirstFundamental": (FirstFundamental, (LAM, ONE - LAM_STAR, LAM_STAR)),
    "VerificationReport": (VerificationReport, ((True, False), (True, True), False, (("conformal:F", LAM),))),
    "PhiTriple": (PhiTriple, ((RatLambda(), RatLambda(HbarPoly({1: 1})), RatLambda(1)),)),
}


def _calls(cls, values):
    """The record built by position, by keyword (in field order and in
    reverse), and by both (the first field by position, the rest by
    keyword, last first)."""
    fields = cls._fields
    keywords = dict(zip(fields, values))
    return (
        cls(*values),
        cls(**keywords),
        cls(**dict(reversed(keywords.items()))),
        cls(values[0], **dict(reversed(list(zip(fields[1:], values[1:]))))),
    )


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_every_call_builds_the_same_record(name):
    cls, values = RECORDS[name]
    assert len(cls._fields) == len(values)
    want = cls(*values)
    assert tuple(getattr(want, f) for f in cls._fields) == values
    assert hash(want) == hash(values)
    for x in _calls(cls, values):
        assert type(x) is cls and x == want
        assert repr(x) == repr(want) and hash(x) == hash(want)
        for twin in (pickle.loads(pickle.dumps(x)), copy.copy(x), copy.deepcopy(x)):
            assert type(twin) is cls and twin == want
            assert repr(twin) == repr(want) and hash(twin) == hash(want)


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_a_call_that_does_not_name_each_field_once_raises(name):
    cls, values = RECORDS[name]
    fields = cls._fields
    keywords = dict(zip(fields, values))
    bad_calls = [
        lambda: cls(*values, None),  # too many
        lambda: cls(*values[:-1]),  # one missing
        lambda: cls(),  # all missing
        lambda: cls(**{f: v for f, v in keywords.items() if f != fields[0]}),  # missing by keyword
        lambda: cls(*values, bogus=1),  # unknown keyword
        lambda: cls(*values[:-1], bogus=1),  # an unknown keyword for the last field
        lambda: cls(**keywords, bogus=1),
        lambda: cls(*values, **{fields[0]: values[0]}),  # one field twice
    ]
    if len(fields) > 1:  # the first field twice, the last missing
        bad_calls.append(lambda: cls(*values[:-1], **{fields[0]: values[0]}))
    for call in bad_calls:
        with pytest.raises(TypeError):
            call()


def test_the_error_names_the_fields():
    for call in (lambda: Num(1, bogus=2), lambda: Num(1, 2, 3), lambda: Num(pos=1)):
        with pytest.raises(TypeError) as info:
            call()
        assert str(info.value) == "Num() takes the fields value, pos, each once, by position or keyword"


def test_provenance_keeps_its_defaults():
    raw = Provenance("raw")
    assert (raw.kind, raw.params, raw.primitives) == ("raw", (), ())
    assert Provenance(kind="raw") == raw == Provenance("raw", (), ())
    assert repr(raw) == "Provenance(kind='raw', params=(), primitives=())"
    prims = (RatLambda(HbarPoly({1: 1})).num,)
    assert Provenance("F", primitives=prims) == Provenance("F", (), prims)
    with pytest.raises(TypeError):
        Provenance()
    with pytest.raises(TypeError):
        Provenance("raw", bogus=1)

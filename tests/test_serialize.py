"""JSON documents: exact rationals, canonical emission, full
re-validation of algebras on the way back in, observable parsing."""

from fractions import Fraction

import pytest

from effecta.errors import NonUniqueSupplement, ParseError
from effecta.serialize import (algebra_from_obj, algebra_to_obj, dumps,
                               frac_from_str, loads,
                               observable_from_obj)

from zoo_instances import boolean, chain

F = Fraction


# ---------------------------------------------------------------------------
# rationals and canonical emission


def test_frac_roundtrip():
    assert str(F(1, 3)) == "1/3"
    assert str(F(2)) == "2"
    assert str(F(-3, 4)) == "-3/4"
    assert frac_from_str("5/8") == F(5, 8)
    assert frac_from_str("7") == F(7)
    assert frac_from_str(str(F(22, 7))) == F(22, 7)
    assert frac_from_str("-3/4") == F(-3, 4)
    assert frac_from_str(0) == F(0)        # a JSON integer


def test_frac_parse_errors():
    with pytest.raises(ParseError):
        frac_from_str("one third")
    with pytest.raises(ParseError):
        frac_from_str("1/0")
    # only integers and p/q: no exponent, decimal point, blank or underscore
    for text in ("1e5", "1/2e3", "0.5", " 1/2", "1_0", "inf", 0.5, True):
        with pytest.raises(ParseError):
            frac_from_str(text)


def test_dumps_is_canonical():
    a = dumps({"b": 1, "a": [2, 3]})
    b = dumps({"a": [2, 3], "b": 1})
    assert a == b
    assert a.endswith("\n")
    assert a.index('"a"') < a.index('"b"')


def test_loads_rejects_bad_json():
    assert loads('{"x": 1}') == {"x": 1}
    with pytest.raises(ParseError):
        loads("{not json")
    with pytest.raises(ParseError):
        loads("[" * 200000)
    with pytest.raises(ParseError):
        loads("1" * 5000)


# ---------------------------------------------------------------------------
# algebras


def test_algebra_roundtrip():
    M = chain(3)
    obj = algebra_to_obj(M)
    assert obj["elements"] == ["0", "1", "2", "3"]
    assert obj["zero"] == "0" and obj["one"] == "3"
    back = algebra_from_obj(obj)
    assert back.labels == M.labels
    assert sorted(map(tuple, algebra_to_obj(back)["sum"])) == sorted(
        map(tuple, obj["sum"]))


def test_algebra_reader_symmetrizes_one_sided_tables():
    obj = {"elements": ["0", "a", "1"], "zero": "0", "one": "1",
           "sum": [["0", "0", "0"], ["0", "a", "a"], ["0", "1", "1"],
                   ["a", "a", "1"]]}
    M = algebra_from_obj(obj)
    assert M.add(M.index("a"), M.index("0")) == M.index("a")
    assert M.add(M.index("a"), M.index("a")) == M.one


def test_algebra_reader_revalidates():
    obj = algebra_to_obj(chain(3))
    obj["sum"] = [s if s != ["1", "1", "2"] else ["1", "1", "3"]
                  for s in obj["sum"]]
    with pytest.raises(NonUniqueSupplement):
        algebra_from_obj(obj)


def test_algebra_parse_errors():
    with pytest.raises(ParseError):
        algebra_from_obj(["not", "an", "object"])
    with pytest.raises(ParseError):
        algebra_from_obj({"elements": ["0", "1"], "zero": "0"})


# ---------------------------------------------------------------------------
# observables


def test_observable_roundtrip():
    M = boolean(2)
    obj = {"support": ["0", "1"], "values": ["{1}", "{2}"]}
    x = observable_from_obj(M, obj)
    assert x.support == (F(0), F(1))
    assert x.values == (M.index("{1}"), M.index("{2}"))
    assert {"support": [str(t) for t in x.support],
            "values": [M.label(a) for a in x.values]} == obj
    # the reader sorts the outcome points and keeps labels aligned
    back = observable_from_obj(M, {"support": ["1", "0"],
                                   "values": ["{2}", "{1}"]})
    assert back == x


def test_observable_parse_errors():
    M = boolean(2)
    with pytest.raises(ParseError):
        observable_from_obj(M, "nope")
    with pytest.raises(ParseError):
        observable_from_obj(M, {"support": ["0"], "values": ["martian"]})
    with pytest.raises(ParseError):
        observable_from_obj(M, {"support": ["0"], "values": [3]})

"""JSON serialization: exact rationals, canonical emission, full
re-validation on the way back in."""

from fractions import Fraction

import pytest

from effecta import make_observable, spectral_measure, state_polytope
from effecta.errors import NonUniqueSupplement, ParseError
from effecta.representation import canonical_representation
from effecta.serialize import (algebra_from_obj, algebra_to_obj, dumps,
                               frac_from_str, frac_to_str, loads,
                               observable_from_obj, observable_to_obj,
                               polytope_to_obj, representation_to_obj,
                               spectral_to_obj, state_from_obj, state_to_obj)

from zoo_instances import boolean, chain

F = Fraction


# ---------------------------------------------------------------------------
# rationals and canonical emission


def test_frac_roundtrip():
    assert frac_to_str(F(1, 3)) == "1/3"
    assert frac_to_str(F(2)) == "2"
    assert frac_to_str(F(-3, 4)) == "-3/4"
    assert frac_from_str("5/8") == F(5, 8)
    assert frac_from_str("7") == F(7)
    assert frac_from_str(frac_to_str(F(22, 7))) == F(22, 7)


def test_frac_parse_errors():
    with pytest.raises(ParseError):
        frac_from_str("one third")
    with pytest.raises(ParseError):
        frac_from_str("1/0")


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
# states and polytopes


def test_state_roundtrip():
    M = chain(3)
    s = state_polytope(M).vertices[0]
    obj = state_to_obj(M, s)
    assert obj == {"values": {"0": "0", "1": "1/3", "2": "2/3", "3": "1"}}
    assert state_from_obj(M, obj).values == s.values


def test_state_parse_errors():
    M = chain(3)
    with pytest.raises(ParseError):
        state_from_obj(M, {"wrong": {}})
    with pytest.raises(ParseError):
        state_from_obj(M, {"values": {"0": "0", "1": "1/3", "2": "2/3"}})


def test_polytope_serialization_shape():
    M = boolean(2)
    obj = polytope_to_obj(state_polytope(M))
    assert obj["dimension"] == 1
    assert [v["values"] for v in obj["vertices"]] == [
        {"{}": "0", "{1}": "0", "{2}": "1", "{1,2}": "1"},
        {"{}": "0", "{1}": "1", "{2}": "0", "{1,2}": "1"},
    ]
    # only nonzero coefficients are materialized
    assert all(all(c != "0" for c in row["coeffs"].values())
               for row in obj["constraints"])
    assert {"coeffs": {"{1,2}": "1"}, "rhs": "1"} in obj["constraints"]


# ---------------------------------------------------------------------------
# observables


def test_observable_roundtrip():
    M = boolean(2)
    x = make_observable(M, (0, 1), ("{1}", "{2}"))
    obj = observable_to_obj(x)
    assert obj == {"support": ["0", "1"], "values": ["{1}", "{2}"]}
    back = observable_from_obj(M, obj)
    assert back.support == x.support and back.values == x.values


def test_observable_parse_errors():
    M = boolean(2)
    with pytest.raises(ParseError):
        observable_from_obj(M, "nope")
    with pytest.raises(ParseError):
        observable_from_obj(M, {"support": ["0"], "values": ["martian"]})
    with pytest.raises(ParseError):
        observable_from_obj(M, {"support": ["0"], "values": [3]})


# ---------------------------------------------------------------------------
# representations and measures


def test_representation_serialization():
    rep = canonical_representation(boolean(2))
    obj = representation_to_obj(rep)
    assert obj == {
        "carrier": ["s0", "s1"],
        "omega0": ["s0", "s1"],
        "ideal": [[]],
        "functions": [["0", "0"], ["0", "1"], ["1", "0"], ["1", "1"]],
        "h": ["{}", "{1}", "{2}", "{1,2}"],
    }


def test_spectral_serialization():
    M = boolean(2)
    rep = canonical_representation(M)
    obj = spectral_to_obj(M, spectral_measure(rep, 2))
    assert obj == {
        "element": "{2}",
        "support": ["0", "1"],
        "masses": {"0": "{1}", "1": "{2}"},
    }


"""Algebra families: chains, powersets, interval algebras, products,
horizontal sums, and the token parser behind the command line."""

import pytest

import oracles
import zoo_instances as zoo
from effecta import generate, parse_family_tokens, validate_effect_algebra
from effecta.errors import AxiomViolation, ParseError, SizeLimitExceeded
from effecta.generators import _build
from effecta.serialize import algebra_to_obj, dumps


def test_chain_structure():
    M = zoo.chain(5)
    assert M.n == 6
    assert M.labels == ("0", "1", "2", "3", "4", "5")
    assert M.label(M.one) == "5"
    assert M.add(M.index("2"), M.index("3")) == M.index("5")
    assert M.add(M.index("3"), M.index("3")) is None
    assert M.label(M.comp(M.index("1"))) == "4"


def test_boolean_structure():
    M = zoo.boolean(3)
    assert M.n == 8
    assert set(M.labels) == {"{}", "{1}", "{2}", "{3}", "{1,2}", "{1,3}",
                             "{2,3}", "{1,2,3}"}
    a, b = M.index("{1}"), M.index("{2,3}")
    assert M.add(a, b) == M.index("{1,2,3}")
    assert M.add(a, M.index("{1,2}")) is None       # overlapping sets
    assert M.comp(M.index("{1,3}")) == M.index("{2}")


def test_interval_structure():
    M = zoo.interval(1, 2)
    assert M.n == 6
    assert M.label(M.zero) == "(0,0)" and M.label(M.one) == "(1,2)"
    assert M.add(M.index("(0,1)"), M.index("(1,1)")) == M.index("(1,2)")
    assert M.add(M.index("(1,1)"), M.index("(1,1)")) is None
    assert M.label(M.comp(M.index("(0,2)"))) == "(1,0)"


def test_product_is_componentwise():
    M = zoo.product_of(("chain", 2), ("chain", 3))
    assert M.n == 12
    a = M.index("(1,2)")
    b = M.index("(1,1)")
    assert M.add(a, b) == M.index("(2,3)")
    assert M.add(a, a) is None                       # 2+2 > 2 in the left slot
    assert M.label(M.comp(a)) == "(1,1)"


def test_horizontal_sum_shares_only_bounds(mo2):
    assert mo2.n == 6
    assert set(mo2.labels) == {"0", "1", "h0:{1}", "h0:{2}",
                               "h1:{1}", "h1:{2}"}
    a = mo2.index("h0:{1}")
    b = mo2.index("h1:{1}")
    assert mo2.add(a, b) is None                     # different summands
    assert mo2.add(a, mo2.index("h0:{2}")) == mo2.one


def test_generate_rejects_bad_specs():
    with pytest.raises(ParseError):
        generate(("chain", 0))
    with pytest.raises(ParseError):
        generate(("boolean", 0))
    with pytest.raises(ParseError):
        generate(("interval", ()))
    with pytest.raises(ParseError):
        generate(("nope", 3))
    for spec, message in [
            ((), "malformed family spec ()"),
            ("chain", "malformed family spec 'chain'"),
            (("horizontal_sum", []),
             "horizontal sum needs at least one summand"),
            (("product", []), "product needs at least one factor")]:
        with pytest.raises(ParseError) as exc:
            generate(spec)
        assert str(exc.value) == message


def test_degenerate_one_member_composites_are_relabelings():
    assert generate(("horizontal_sum", [("chain", 2)])).n == 3
    assert generate(("product", [("chain", 3)])).n == 4


def test_generate_respects_the_size_budget():
    """Interval and boolean check their own size before they build any
    chain factor, so the message names the family asked for."""
    with pytest.raises(SizeLimitExceeded) as exc:
        generate(("interval", (5000,)), max_size=4096)
    assert str(exc.value) == \
        "interval(5000,) has 5001 elements, exceeding the bound 4096"
    with pytest.raises(SizeLimitExceeded) as exc:
        generate(("boolean", 5), max_size=16)
    assert str(exc.value) == "boolean(5) has 32 elements, exceeding the bound 16"
    with pytest.raises(SizeLimitExceeded) as exc:
        generate(("product", [("chain", 100), ("chain", 100)]), max_size=4096)
    assert str(exc.value) == \
        "product has 10201 elements, exceeding the bound 4096"
    assert generate(("boolean", 4), max_size=16).n == 16


NINES = 10 ** 4000 - 1      # the largest int of 4,000 digits


@pytest.mark.parametrize("spec, message", [
    # 4,215 digits, below the limit on converting an int to a str
    (("boolean", 14000), f"boolean(14000) has {2 ** 14000} elements"),
    (("boolean", 15000), "boolean(15000) has 2**15000 elements"),
    (("boolean", 100000), "boolean(100000) has 2**100000 elements"),
    (("chain", NINES), f"chain({NINES}) has {NINES + 1} elements"),
    (("chain", 10 ** 4300 - 1),
     f"chain({10 ** 4300 - 1}) has more than 2**14284 elements"),
    (("interval", (NINES, NINES)),
     f"interval({NINES}, {NINES}) has more than 2**26575 elements"),
    (("product", [("interval", (NINES, NINES)), ("chain", 1)]),
     f"interval({NINES}, {NINES}) has more than 2**26575 elements"),
    (("chain", 10 ** 5000),
     "chain(more than 2**16609) has more than 2**16609 elements")],
    ids=["boolean14000", "boolean15000", "boolean100000", "chain-4000-digits",
         "chain-4300-digits", "interval", "product", "chain-5001-digits"])
def test_a_huge_size_is_refused_without_writing_a_huge_int(spec, message):
    """A count past the digit limit of int-to-str conversion is written as
    the power of two it is or exceeds, and a Boolean algebra's size is
    decided from k, so no huge 2**k is formed."""
    with pytest.raises(SizeLimitExceeded) as exc:
        generate(spec, max_size=4096)
    assert str(exc.value) == message + ", exceeding the bound 4096"


@pytest.mark.parametrize("family, message", [
    ("product", "product has 1048576 elements, exceeding the bound 1024"),
    ("horizontal_sum",
     "horizontal sum has 2046 elements, exceeding the bound 1024")])
def test_an_oversize_composite_validates_no_large_factor(family, message,
                                                         monkeypatch):
    """A product or a horizontal sum checks its size on the factors' raw
    tables, so an oversize one of two boolean 10 factors validates no
    1,024-element table before it is refused."""
    from effecta import generators
    large = []
    validate = generators.validate_effect_algebra

    def counted(labels, *args, **kwargs):
        if len(labels) >= 1024:
            large.append(len(labels))
        return validate(labels, *args, **kwargs)
    monkeypatch.setattr(generators, "validate_effect_algebra", counted)
    with pytest.raises(SizeLimitExceeded) as exc:
        generate((family, [("boolean", 10), ("boolean", 10)]), max_size=1024)
    assert str(exc.value) == message
    assert large == []


NESTED = ("product", [("chain", 1), ("horizontal_sum", [("chain", 2),
                                                        ("chain", 1)])])


@pytest.mark.parametrize("spec", [
    ("chain", 3), ("boolean", 3), ("interval", (1, 2)),
    ("product", [("chain", 2), ("boolean", 2)]),
    ("horizontal_sum", [("boolean", 2), ("chain", 3)]), NESTED], ids=str)
def test_generate_validates_once(spec, monkeypatch):
    """Members of products and horizontal sums go in as raw tables: the
    whole is the one table validated."""
    from effecta import generators
    calls = []
    validate = generators.validate_effect_algebra

    def counted(labels, *args, **kwargs):
        calls.append(len(labels))
        return validate(labels, *args, **kwargs)
    monkeypatch.setattr(generators, "validate_effect_algebra", counted)
    M = generate(spec)
    assert calls == [M.n]


@pytest.mark.parametrize("spec, witness", [
    (("product", [("chain", 2), ("chain", 1)]), "(1,0)"),
    (("horizontal_sum", [("chain", 2), ("boolean", 2)]), "h0:1"),
    (NESTED, "(0,h0:1)")], ids=["product", "horizontal_sum", "nested"])
def test_a_broken_member_breaks_the_whole(spec, witness, monkeypatch):
    """A chain 2 whose table drops 1 + 1 = 2 leaves 1 with no
    orthosupplement.  Unvalidated as a member, it fails the whole's
    validation at its copy there."""
    from effecta import generators
    build = generators._build

    def doctored(s, bound):
        labels, zero, one, sums = build(s, bound)
        if s == ("chain", 2):
            sums = [t for t in sums if t != ("1", "1", "2")]
        return labels, zero, one, sums
    monkeypatch.setattr(generators, "_build", doctored)
    with pytest.raises(AxiomViolation) as exc:
        generate(spec)
    assert (exc.value.axiom, exc.value.witnesses) == ("iii", (witness,))


# the families whose generated pairs are set against the n^2 walk, with the
# products of ``zoo.PRODUCT_SPECS``
DENSE_FAMILIES = [
    ("chain", 1), ("chain", 3), ("chain", 30), ("chain", 200),
    ("boolean", 1), ("boolean", 2), ("boolean", 4), ("boolean", 6),
    ("boolean", 8),
    ("interval", (1,)), ("interval", (3,)), ("interval", (1, 2)),
    ("interval", (2, 1)), ("interval", (1, 1, 2)), ("interval", (1, 2, 3, 4)),
    ("product", [("chain", 3)]),
    ("product", [("chain", 2), ("chain", 3)]),
    ("product", [("boolean", 2), ("chain", 3)]),
    ("product", [("interval", (1, 2)), ("chain", 2)]),
    ("product", [("horizontal_sum", [("chain", 2), ("chain", 2)]),
                 ("chain", 1)]),
    ("horizontal_sum", [("boolean", 2), ("boolean", 2)]),
    ("horizontal_sum", [("boolean", 3), ("interval", (1, 2)), ("chain", 2)]),
] + [spec for _, _, spec in zoo.PRODUCT_SPECS]


@pytest.mark.parametrize("spec", DENSE_FAMILIES, ids=str)
def test_generators_list_the_pairs_of_the_dense_walk(spec):
    """The generators list only summable pairs; the reference tests every
    candidate pair.  Labels, bounds and the set of triples agree, no
    triple is listed twice, and the generated documents are the same
    bytes."""
    labels, zero, one, sums = _build(spec, 4096)
    ref = oracles.dense_build(spec, 4096)
    assert (labels, zero, one) == ref[:3]
    assert len(sums) == len(set(sums))
    assert set(sums) == set(ref[3])
    dense = validate_effect_algebra(*ref, max_size=4096)
    assert dumps(algebra_to_obj(generate(spec, max_size=4096))) == \
        dumps(algebra_to_obj(dense))


def test_parse_family_tokens_full_grammar():
    assert parse_family_tokens(["chain", "3"]) == ("chain", 3)
    assert parse_family_tokens(["boolean", "2"]) == ("boolean", 2)
    assert parse_family_tokens(["interval", "1", "2"]) == ("interval", (1, 2))
    assert parse_family_tokens(["product", "chain2", "chain3"]) == \
        ("product", [("chain", 2), ("chain", 3)])
    assert parse_family_tokens(["horizontal-sum", "boolean2", "chain2"]) == \
        ("horizontal_sum", [("boolean", 2), ("chain", 2)])
    assert parse_family_tokens(["horizontal_sum", "boolean2", "boolean2"]) == \
        ("horizontal_sum", [("boolean", 2), ("boolean", 2)])


def test_parse_family_tokens_rejects_garbage():
    for tokens in (["chain"], ["chain", "x"], ["martian", "3"],
                   ["interval"], ["product", "widget9"], []):
        with pytest.raises(ParseError):
            parse_family_tokens(tokens)


def test_parsed_tokens_generate_the_same_algebra(mo2):
    spec = parse_family_tokens(["horizontal-sum", "boolean2", "boolean2"])
    M = generate(spec)
    assert M.labels == mo2.labels
    assert M.defined_sums() == mo2.defined_sums()
    assert [M.comp(a) for a in M.elements()] == \
        [mo2.comp(a) for a in mo2.elements()]

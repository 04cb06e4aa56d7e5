"""Axioms, the derived order, refinement, sharp elements, and MV detection
(the test oracle that double-checks refinement)."""

import json
import tracemalloc
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
import zoo_instances as zoo
from effecta import (
    check_rdp,
    generate,
    iterated_sum,
    sharp_elements,
    validate_effect_algebra,
)
from effecta import algebra, cli
from effecta.errors import (
    AxiomViolation,
    EffectaError,
    NonUniqueSupplement,
    SizeLimitExceeded,
)
from effecta.serialize import algebra_to_obj


def test_validate_accepts_a_plain_chain():
    M = validate_effect_algebra(
        ["0", "a", "1"], "0", "1",
        [("0", "0", "0"), ("0", "a", "a"), ("0", "1", "1"), ("a", "a", "1")])
    assert M.n == 3
    assert M.add(M.index("a"), M.index("a")) == M.index("1")
    assert M.comp(M.index("a")) == M.index("a")


def test_size_bounds_default_to_64_in_the_library_and_4096_in_the_cli():
    labels = [str(i) for i in range(65)]
    with pytest.raises(SizeLimitExceeded, match="bound 64"):
        validate_effect_algebra(labels, "0", "64", [])
    # an explicit bound is used as given: 65 elements pass the size check
    # and reach the axioms
    with pytest.raises(AxiomViolation):
        validate_effect_algebra(labels, "0", "64", [], max_size=65)
    assert generate(("chain", 63)).n == 64
    with pytest.raises(SizeLimitExceeded):
        generate(("chain", 64))
    parser = cli.build_parser()
    for argv in (["generate", "chain", "3"], ["check", "--input", "a.json"],
                 ["smear", "--input", "a.json", "--observable", "o.json"]):
        assert parser.parse_args(argv).max_size == 4096
        assert parser.parse_args(argv + ["--max-size", "5"]).max_size == 5


@pytest.mark.parametrize("labels, first", [
    (["a", "b", "b", "a"], "a"), (["0", "b", "c", "c", "b"], "b"),
    (["x", "0", "1", "1"], "1")])
def test_a_duplicate_label_is_named_by_its_first_position(labels, first):
    """The witness is the first label in document order that occurs again,
    not the first repeat met: on [a, b, b, a] it is a."""
    with pytest.raises(AxiomViolation) as err:
        validate_effect_algebra(labels, "0", "1", [])
    assert (err.value.axiom, err.value.witnesses) == ("i", (first,))
    assert str(err.value).endswith("duplicate element label")


def test_validate_rejects_commutativity_clash():
    with pytest.raises(AxiomViolation) as err:
        validate_effect_algebra(
            ["0", "a", "b", "1"], "0", "1",
            [("0", "0", "0"), ("0", "a", "a"), ("0", "b", "b"),
             ("0", "1", "1"), ("a", "b", "1"), ("b", "a", "0")])
    assert err.value.axiom == "i"


def test_validate_rejects_associativity_break():
    # (a+b)+d = 1 but a+(b+d) = a+a stays undefined
    labels = ["0", "a", "b", "c", "d", "1"]
    sums = [("0", "0", "0"), ("0", "a", "a"), ("0", "b", "b"), ("0", "c", "c"),
            ("0", "d", "d"), ("0", "1", "1"), ("a", "b", "c"), ("c", "d", "1"),
            ("b", "d", "a")]
    oracles.assert_associativity_matches(labels, "0", "1", sums)
    with pytest.raises(AxiomViolation) as err:
        validate_effect_algebra(labels, "0", "1", sums)
    assert err.value.axiom == "ii"
    assert err.value.witnesses == ("a", "b", "d")
    assert str(err.value) == ("axiom (ii) violated at ('a', 'b', 'd'): "
                              "(a+b)+c = 1, a+(b+c) = None")


def test_associativity_pins_a_first_failure_with_a_plus_b_undefined():
    """Boolean 4 without {1} + {2}: only a+(b+c) = {1} + {2,3} is defined,
    which the row comparison skips and the img[b] & dom[a] test catches."""
    doc = algebra_to_obj(generate(("boolean", 4)))
    sums = [s for s in doc["sum"] if set(s[:2]) != {"{1}", "{2}"}]
    args = doc["elements"], doc["zero"], doc["one"], sums
    assert oracles.validator_rejection(*args) == (
        AxiomViolation, "ii", ("{1}", "{2}", "{3}"),
        "axiom (ii) violated at ('{1}', '{2}', '{3}'): "
        "(a+b)+c = None, a+(b+c) = {1,2,3}")
    oracles.assert_associativity_matches(*args)


def test_associativity_matches_the_triple_loop_on_the_zoo():
    """Each zoo table as it is, and with each one of its sums of two nonzero
    elements dropped.  The drops break associativity both at a defined and
    at an undefined a + b."""
    a_plus_b_defined = set()
    for name, M in zoo.rdp_zoo() + zoo.non_rdp_zoo():
        if M.n > 18:
            continue
        doc = algebra_to_obj(M)
        args = doc["elements"], doc["zero"], doc["one"]
        assert oracles.associativity_violation(*args, doc["sum"]) is None, name
        assert oracles.validator_rejection(*args, doc["sum"]) is None, name
        for dropped in doc["sum"]:
            if M.label(M.zero) in dropped[:2]:
                continue
            sums = [s for s in doc["sum"] if s != dropped]
            oracles.assert_associativity_matches(*args, sums)
            ref = oracles.associativity_violation(*args, sums)
            if ref is not None:
                a, b, _ = ref.witnesses
                a_plus_b_defined.add(any({a, b} == {x, y} for x, y, _ in sums))
    assert a_plus_b_defined == {False, True}


def test_validate_rejects_missing_supplement():
    with pytest.raises(AxiomViolation) as err:
        validate_effect_algebra(
            ["0", "a", "1"], "0", "1",
            [("0", "0", "0"), ("0", "a", "a"), ("0", "1", "1")])
    assert err.value.axiom == "iii"
    assert "a" in err.value.witnesses


def test_validate_rejects_double_supplement():
    with pytest.raises((AxiomViolation, NonUniqueSupplement)):
        validate_effect_algebra(
            ["0", "a", "b", "1"], "0", "1",
            [("0", "0", "0"), ("0", "a", "a"), ("0", "b", "b"),
             ("0", "1", "1"), ("a", "a", "1"), ("a", "b", "1")])


def test_validate_rejects_positivity_break():
    with pytest.raises(AxiomViolation) as err:
        validate_effect_algebra(
            ["0", "1"], "0", "1",
            [("0", "0", "0"), ("0", "1", "1"), ("1", "1", "0")])
    assert err.value.axiom == "iv"
    assert err.value.witnesses == ("1",)


def test_size_limit_is_enforced():
    with pytest.raises(SizeLimitExceeded):
        zoo.chain(200)


@pytest.mark.parametrize("spec", [("boolean", 8), ("interval", (3, 3, 3, 3))],
                         ids=["boolean8", "interval3333"])
def test_validation_builds_one_table(spec):
    """Validation allocates one n x n table, of T = 8 n^2 bytes of row
    slots, and the algebra keeps it as built: the differences are read off
    it as (a + b')', so no second table and no tuple copies are made.  The
    peak stays under 2.25 T and the algebra holds under 1.5 T; with a
    difference table and tuple copies of both they were about 4.7 T and
    2.2 T.  The triples are built before tracing starts."""
    doc = algebra_to_obj(generate(spec, max_size=256))
    sums = [tuple(t) for t in doc["sum"]]
    T = 8 * len(doc["elements"]) ** 2
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        M = validate_effect_algebra(doc["elements"], doc["zero"], doc["one"],
                                    sums, max_size=256)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert M.n == 256
    assert peak - base < 2.25 * T
    assert held - base < 1.5 * T


def test_order_and_difference_on_a_chain():
    M = zoo.chain(4)
    two, three = M.index("2"), M.index("3")
    assert M.leq(two, three)
    assert not M.leq(three, two)
    assert M.minus(three, two) == M.index("1")
    assert M.minus(two, three) is None
    assert oracles.meet(M, two, three) == two
    assert oracles.join(M, two, three) == three


def test_double_complement_and_difference_hold_zoo_wide():
    """minus is read as (a + b')'; it must be the difference exactly where
    a <= b, and None everywhere else."""
    products = [(name, M) for name, _, M in zoo.generated_products()]
    for name, M in zoo.rdp_zoo() + zoo.non_rdp_zoo() + products:
        for a in M.elements():
            assert M.comp(M.comp(a)) == a, name
        for a in M.elements():
            for b in M.elements():
                c = M.minus(b, a)
                if M.leq(a, b):
                    assert c is not None and M.add(a, c) == b, name
                else:
                    assert c is None, name
        sums = algebra_to_obj(M)["sum"]
        assert oracles.derived_order_failure(sums) is None, name
    # the order oracle names both failures on lists no validator accepts
    assert oracles.derived_order_failure(
        [("a", "c", "b"), ("a", "d", "b")]) == ("difference", "a", "b", "c", "d")
    assert oracles.derived_order_failure(
        [("a", "c", "b"), ("b", "d", "a")]) == ("antisymmetry", "a", "b")


def _brute_down(sums):
    """{b: {a : a + c = b for some c}} read off listed label triples."""
    down = {}
    for a, c, b in sums:
        down.setdefault(b, set()).update((a, c))
    return down


def _down_labels(M, b):
    return {M.label(a) for a in M.elements() if M.down_mask(b) >> a & 1}


def test_down_masks_match_the_brute_order():
    """down_mask(b) is read as the summable mask of b'; it must be every a
    with a + c = b for some c, as the listed sums give it."""
    products = [(name, M) for name, _, M in zoo.generated_products()]
    for name, M in zoo.rdp_zoo() + zoo.non_rdp_zoo() + products:
        brute = _brute_down(algebra_to_obj(M)["sum"])
        for b in M.elements():
            assert _down_labels(M, b) == brute[M.label(b)], (name, b)


def test_iterated_sum_folds_and_fails():
    M = zoo.chain(3)
    one = M.index("1")
    assert iterated_sum(M, [one, one, one]) == M.index("3")
    assert iterated_sum(M, [one, one, one, one]) is None
    assert iterated_sum(M, []) == M.zero


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=1, max_value=8), st.data())
def test_sum_is_commutative_where_defined(n, data):
    M = zoo.chain(n)
    a = data.draw(st.integers(min_value=0, max_value=M.n - 1))
    b = data.draw(st.integers(min_value=0, max_value=M.n - 1))
    assert M.add(a, b) == M.add(b, a)


# ---------------------------------------------------------------------------
# atom coordinates


def _lower_bounds(M, a):
    return {x for x in M.elements() if M.leq(x, a)}


ZOO = zoo.rdp_zoo() + zoo.non_rdp_zoo()


@pytest.mark.parametrize("name,M", ZOO, ids=[name for name, _ in ZOO])
def test_atom_coordinates_sum_back_to_every_element(name, M):
    atoms, coords = algebra.atom_coordinates(M)
    assert atoms == tuple(a for a in M.elements() if a != M.zero and
                          _lower_bounds(M, a) == {M.zero, a})
    assert len(coords) == M.n and None not in coords
    for i, a in enumerate(atoms):
        assert coords[a] == tuple(int(j == i) for j in range(len(atoms)))
    for x, mx in enumerate(coords):
        parts = [a for a, c in zip(atoms, mx) for _ in range(c)]
        assert iterated_sum(M, parts) == x, (name, M.label(x))


@pytest.mark.parametrize("M", [
    zoo.chain(5), zoo.boolean(4), zoo.interval(1, 1, 2),
    zoo.product_of(("chain", 3), ("chain", 4)),
    zoo.product_of(("chain", 7), ("chain", 7)),
])
def test_every_state_equation_vanishes_on_a_product_of_chains(M):
    _, m = algebra.atom_coordinates(M)
    for a, b, c in M.defined_sums():
        assert [p + q for p, q in zip(m[a], m[b])] == list(m[c])


# ---------------------------------------------------------------------------
# refinement: main algorithm vs the quantifier oracle


def _oracle_refines(labels, table, quad):
    from itertools import product
    a1, a2, b1, b2 = quad
    return any(
        table.get((c11, c12)) == a1 and table.get((c21, c22)) == a2
        and table.get((c11, c21)) == b1 and table.get((c12, c22)) == b2
        for c11, c12, c21, c22 in product(labels, repeat=4))


def test_rdp_verdicts_match_the_brute_oracle():
    for name, M in zoo.rdp_zoo() + zoo.non_rdp_zoo():
        if M.n > 18:
            continue          # the n^8 quantifier scan stops being a tool
        labels = list(M.labels)
        table = oracles.sum_table_dict(M)
        brute = oracles.brute_rdp(labels, table)
        main = check_rdp(M)
        assert main.holds == (brute is None), name
        assert _certified(M) == (brute is None), name
        if not main.holds:
            # each route may surface a different quadruple; both must be
            # genuine: equal sums, no refinement
            for quad in (brute, main.witness_labels()):
                a1, a2, b1, b2 = quad
                assert table[(a1, a2)] == table[(b1, b2)], name
                assert not _oracle_refines(labels, table, quad), name


def test_chain3xchain4_oracle_agreement():
    M = zoo.product_of(("chain", 3), ("chain", 4))
    assert oracles.brute_rdp(list(M.labels), oracles.sum_table_dict(M)) is None
    assert check_rdp(M).holds


def test_mo2_refinement_witness_has_the_complement_shape(mo2):
    r = check_rdp(mo2)
    assert not r.holds
    a1, a2, b1, b2 = r.witness
    one = mo2.one
    assert mo2.add(a1, a2) == one and mo2.add(b1, b2) == one
    assert mo2.comp(a1) == a2 and mo2.comp(b1) == b2
    assert r.witness_labels() == ("h0:{1}", "h0:{2}", "h1:{1}", "h1:{2}")


def test_loop4_fails_refinement_across_blocks():
    M = zoo.loop4()
    r = check_rdp(M)
    assert not r.holds
    assert r.witness_labels() == ("a1", "a1'", "a3", "a3'")


# ---------------------------------------------------------------------------
# refinement: the product-of-chains certificate against the scan and oracles


def _certified(M):
    return algebra._chain_heights(M) is not None


PRODUCTS = list(zoo.generated_products())


@pytest.mark.parametrize("name,heights,M", PRODUCTS,
                         ids=[name for name, _, _ in PRODUCTS])
def test_generated_products_of_chains_are_certified(name, heights, M):
    assert sorted(algebra._chain_heights(M)) == sorted(heights)
    assert oracles.chain_heights_reference(M) == algebra._chain_heights(M)
    assert algebra._refinement_scan(M).holds
    if M.n <= 64:
        assert isinstance(oracles.detect_mv(M), oracles.MVStructure)


def _with_coordinates(M, coords):
    """M with its cached atom coordinates replaced by ``coords``."""
    M._memo["atom_coordinates",] = (algebra.atom_coordinates(M)[0],
                                    tuple(coords))
    return M


@pytest.mark.parametrize("broken,coords", [
    # the chain 3 numbering: box of 4, but 10 pairs, not 9
    ("pair count", [(0,), (1,), (2,), (3,)]),
])
def test_the_certificate_needs_each_of_its_conditions(broken, coords):
    """The certificate is the box count and the pair count: on a valid
    algebra the breadth-first coordinates are injective and, with the box
    count, add along every defined sum exactly when the pair count is met
    (the proof is in ``_chain_heights``).  The pair count is pinned here on
    boolean 2 with a coordinate map that fills the box and breaks it."""
    M = _with_coordinates(generate(("boolean", 2)), coords)
    heights = tuple(map(max, zip(*coords)))
    box = list(product(*(range(h + 1) for h in heights)))
    pairs = [(v, w) for v in box for w in box
             if all(x + y <= h for x, y, h in zip(v, w, heights))]
    holds = {
        "box": M.n == len(box),
        "pair count": sum(2 - (a == b) for a, b, _ in M.defined_sums())
                      == len(pairs),
    }
    assert [k for k, ok in holds.items() if not ok] == [broken]
    assert algebra._chain_heights(M) is None
    assert oracles.chain_heights_reference(M) is None


FUZZ_BASES = [algebra_to_obj(M) for M in (
    generate(("chain", 4)), generate(("boolean", 3)),
    generate(("interval", (1, 2))),
    generate(("product", [("chain", 2), ("chain", 3)])),
    generate(("product", [("chain", 1), ("boolean", 2)])),
    zoo.mo2(), zoo.diamond(), zoo.hsum_mixed(), zoo.loop4(),
    generate(("horizontal_sum", [("chain", 3), ("chain", 3)])))]


@st.composite
def valid_mutated_tables(draw):
    """A base table with its element order shuffled, summands swapped and
    entries listed twice or in both orders, which all keep it valid, and
    now and then a sum dropped or redirected, which the validator may
    turn away."""
    doc = json.loads(json.dumps(draw(st.sampled_from(FUZZ_BASES))))
    doc["elements"] = draw(st.permutations(doc["elements"]))
    sums = doc["sum"]
    for _ in range(draw(st.integers(0, 4))):
        i = draw(st.integers(0, len(sums) - 1))
        a, b, c = sums[i]
        kind = draw(st.sampled_from(("swap", "twice", "both-orders", "swap",
                                     "drop", "redirect")))
        if kind == "swap":
            sums[i] = [b, a, c]
        elif kind == "twice":
            sums.insert(i, [a, b, c])
        elif kind == "both-orders":
            sums.append([b, a, c])
        elif kind == "drop":
            sums[:] = [s for s in sums if {s[0], s[1]} != {a, b}]
        else:
            new = draw(st.sampled_from(doc["elements"]))
            sums[:] = [s for s in sums if {s[0], s[1]} != {a, b}]
            sums.append([a, b, new])
    return doc


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(valid_mutated_tables())
def test_the_certificate_agrees_with_the_scan_on_mutated_tables(doc):
    try:
        M = validate_effect_algebra(doc["elements"], doc["zero"], doc["one"],
                                    doc["sum"])
    except EffectaError:
        return
    # the validator checks neither; axioms (i)-(iv) prove both
    assert oracles.derived_order_failure(doc["sum"]) is None
    brute = _brute_down(doc["sum"])
    assert all(_down_labels(M, b) == brute[M.label(b)]
               for b in M.elements())
    scan = algebra._refinement_scan(M)
    assert _certified(M) == scan.holds
    assert _certified(M) == isinstance(oracles.detect_mv(M), oracles.MVStructure)
    assert algebra._chain_heights(M) == oracles.chain_heights_reference(M)
    assert check_rdp(M) == scan
    sh = sharp_elements(M)
    assert sh.members == tuple(a for a in M.elements()
                               if oracles.meet(M, a, M.comp(a)) == M.zero)
    assert check_rdp(M).holds == scan.holds
    if scan.holds:
        assert oracles.boolean_law_scan(M, sh.members) is None


# ---------------------------------------------------------------------------
# sharp elements


def test_sharp_members_match_the_order_oracle():
    for name, M in zoo.rdp_zoo() + zoo.non_rdp_zoo():
        table = oracles.sum_table_dict(M)
        brute = oracles.brute_sharp(list(M.labels), table,
                                    M.label(M.zero), M.label(M.one))
        sh = sharp_elements(M)
        assert sorted(M.label(a) for a in sh.members) == sorted(brute), name


def test_certified_sharp_members_match_the_meet_route_and_the_oracles():
    """The corners of the certified box are the members the meet scan finds,
    they pass the law-by-law Boolean scan, and so does the order oracle."""
    instances = zoo.rdp_zoo() + [(name, M) for name, _, M in PRODUCTS]
    for name, M in instances:
        sh = sharp_elements(M)
        assert _certified(M) and check_rdp(M).holds, name
        assert sh.members == tuple(
            a for a in M.elements()
            if oracles.meet(M, a, M.comp(a)) == M.zero), name
        assert oracles.boolean_law_scan(M, sh.members) is None, name
        if M.n <= 36:
            brute = oracles.brute_sharp(list(M.labels), oracles.sum_table_dict(M),
                                        M.label(M.zero), M.label(M.one))
            assert [M.label(a) for a in sh.members] == brute, name


def test_sharp_set_is_boolean_under_refinement():
    for name, M in zoo.rdp_zoo():
        sh = sharp_elements(M)
        assert check_rdp(M).holds, name
        assert oracles.boolean_law_scan(M, sh.members) is None, name


def test_sharp_atoms_of_a_product():
    M = zoo.product_of(("chain", 2), ("chain", 3))
    members = sharp_elements(M).members
    assert sorted(M.label(a) for a in members) == [
        "(0,0)", "(0,3)", "(2,0)", "(2,3)"]
    # the minimal nonzero members are the two factor units
    atoms = [a for a in members if a != M.zero and not any(
        b not in (M.zero, a) and M.leq(b, a) for b in members)]
    assert sorted(M.label(a) for a in atoms) == ["(0,3)", "(2,0)"]


def test_boolean_certificate_agrees_with_the_law_scan():
    """The product-of-chains certificate decides the Boolean sharp set:
    every algebra it certifies has sharp elements that satisfy every
    Boolean law in the O(k^3) reference scan, and without it the scan
    gives both verdicts."""
    verdicts = []
    for name, M in zoo.rdp_zoo() + zoo.non_rdp_zoo():
        members = tuple(a for a in M.elements()
                        if oracles.meet(M, a, M.comp(a)) == M.zero)
        assert sharp_elements(M).members == members, name
        scan_ok = oracles.boolean_law_scan(M, members) is None
        verdicts.append((check_rdp(M).holds, scan_ok))
    assert all(ok for rdp, ok in verdicts if rdp)
    non_rdp = [ok for rdp, ok in verdicts if not rdp]
    assert True in non_rdp and False in non_rdp


def test_boolean_certificate_rejects_at_the_meet():
    """Four members of interval(3,3) that pair off under complement and
    look like a four-element Boolean algebra by their atoms, but whose
    meet leaves the set: the law scan names the meet of (2,1) with its
    complement (1,2), which is (1,1) and not zero."""
    M = zoo.interval(3, 3)
    members = tuple(M.index(x) for x in ("(0,0)", "(2,1)", "(1,2)", "(3,3)"))
    found = oracles.boolean_law_scan(M, members)
    assert found is not None
    assert found == ("a /\\ a' = 0", (M.index("(2,1)"),))


def test_sharp_members_of_chain_and_mo2(c3, mo2):
    assert [c3.label(a) for a in sharp_elements(c3).members] == ["0", "3"]
    sh = sharp_elements(mo2)
    assert len(sh.members) == mo2.n       # horizontal sums are all sharp
    assert not check_rdp(mo2).holds


# ---------------------------------------------------------------------------
# MV detection (tests/oracles.py)


def test_mv_detection_on_mv_instances():
    for name, M in [("chain3", zoo.chain(3)), ("boolean2", zoo.boolean(2)),
                    ("interval12", zoo.interval(1, 2)),
                    ("chain2xchain3", zoo.product_of(("chain", 2),
                                                     ("chain", 3)))]:
        r = oracles.detect_mv(M)
        assert isinstance(r, oracles.MVStructure), name
        # total, commutative, consistent with the partial sum
        for a in M.elements():
            for b in M.elements():
                assert r.oplus[a][b] == r.oplus[b][a]
                if M.add(a, b) is not None:
                    assert r.oplus[a][b] == M.add(a, b)


def test_mv_detection_failures_are_pinpointed(mo2):
    r = oracles.detect_mv(mo2)
    assert isinstance(r, oracles.MvFailure)
    assert (r.kind, r.axiom, r.witness) == ("axiom", "viii",
                                            ("h0:{1}", "h1:{1}"))
    r = oracles.detect_mv(zoo.diamond())
    assert (r.kind, r.axiom, r.witness) == ("axiom", "viii",
                                            ("h0:1", "h1:1"))
    r = oracles.detect_mv(zoo.loop4())
    assert (r.kind, r.witness) == ("not-a-lattice", ("a1", "a3"))


def _horizontal_sums():
    blocks = [("chain", 1), ("chain", 2), ("chain", 3), ("chain", 4),
              ("boolean", 2), ("boolean", 3), ("interval", (1, 2))]
    for i, first in enumerate(blocks):
        for second in blocks[i:]:
            yield (f"hsum-{first[0]}{first[1]}-{second[0]}{second[1]}",
                   generate(("horizontal_sum", [first, second])))
    yield "hsum-boolean2x3", zoo.mo3()
    yield "hsum-chain2-boolean2-chain3", generate(
        ("horizontal_sum", [("chain", 2), ("boolean", 2), ("chain", 3)]))
    yield "product-hsum-chain1", generate(
        ("product", [("horizontal_sum", [("chain", 2), ("chain", 2)]),
                     ("chain", 1)]))


def test_mv_detection_agrees_with_the_refinement_check():
    """A finite effect algebra has the refinement property exactly when it
    is an MV-effect algebra, so the two routes must give the same verdict;
    the product-of-chains certificate and the quadruple scan give it too."""
    instances = (zoo.rdp_zoo() + zoo.non_rdp_zoo()
                 + list(_horizontal_sums()))
    for name, M in instances:
        mv = oracles.detect_mv(M)
        scan = algebra._refinement_scan(M)
        assert isinstance(mv, oracles.MVStructure) == check_rdp(M).holds, name
        assert _certified(M) == scan.holds == check_rdp(M).holds, name
        assert (algebra._chain_heights(M)
                == oracles.chain_heights_reference(M)), name
        assert check_rdp(M) == scan, name
    assert sum(check_rdp(M).holds for _, M in instances) >= 18
    assert sum(not check_rdp(M).holds for _, M in instances) >= 10

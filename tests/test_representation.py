"""Function-system representations: the canonical build by evaluation and
its order certificate, the sharp-set sigma-algebra, the sharp-image
characterization, and the reference checks in ``oracles``.

On the canonical representation the product-of-chains certificate proves
that B0 is the power set of the carrier, that xi is a sharp observable,
that h maps B0 onto the sharp elements and that every member is
measurable, so the library checks none of these; the pair scans in
``oracles`` check them here.

The canonical representation is built from the evaluation vectors and
certified by one order check; the validated route of ``oracles``
(``validate_tribe``, then ``make_representation``) checks the same system
pair by pair, and the two are compared on algebras with the refinement
property and, past the refinement gate, on horizontal sums without it.
Regularity, ideal congruence, the sandwich and the null-point extension
hold by construction on the canonical representation, so no check suite
reports them; their oracles are exercised here.

The hand-built tribes exercise exactly the behaviours the canonical
construction can never show: a non-measurable member over a trivial
sigma-algebra, a union-closure failure, and regularity / congruence
breaking for a deliberately bad choice of distinguished points or ideal.
"""

from fractions import Fraction

import pytest

from effecta import (Representation, canonical_representation, generate,
                     sharp_elements)
from effecta.errors import PreconditionFailed, RdpRequired, TheoremViolation
from effecta.observables import atom_integrals
from effecta.representation import _evaluation_representation
from effecta.spectral import levels
from effecta.states import inseparable_pair, state_polytope

from oracles import (EffectTribe, RepresentationViolation,
                     TribeAxiomViolation, b0_sets, b0_sigma_law_failure, chi,
                     congruence_failure, doctored_polytope,
                     extend_carrier_with_null_point, functions, h_of,
                     irregular_member, make_representation, measurable,
                     negligible_ideal, non_measurable, representation_of,
                     sandwich, sharp_image, sharp_observable_failure,
                     spectral_injectivity, support, tribe_of,
                     tribe_to_algebra, validate_tribe,
                     validated_representation, vertices)
from zoo_instances import (boolean, chain, diamond, generated_products,
                           interval, mo2, non_sigma_tribe, product_of,
                           rdp_zoo, two_point_tribe)

F = Fraction
Z = F(0)
O = F(1)
HALF = F(1, 2)


# ---------------------------------------------------------------------------
# tribes


def test_validate_tribe_accepts_and_sorts():
    tribe = validate_tribe(["p", "q"], [(O, O), (Z, Z), (HALF, HALF)])
    assert tribe.carrier == ("p", "q")
    assert tribe.functions == ((Z, Z), (HALF, HALF), (O, O))
    assert (HALF, HALF) in tribe.functions
    assert (F(1, 3), Z) not in tribe.functions
    # equality and hashing see only the carrier and the functions
    twin = EffectTribe(tribe.carrier, tribe.functions)
    assert twin == tribe and hash(twin) == hash(tribe)
    assert tribe == (tribe.carrier, tribe.functions)


@pytest.mark.parametrize("carrier, fns, reason", [
    (["p", "p"], [(Z, Z), (O, O)], "carrier labels must be distinct"),
    (["p", "q"], [(Z, Z), (O, O), (Z,)], "function arity != carrier size"),
    (["p", "q"], [(Z, Z), (O, O), (F(3, 2), Z)], "values outside [0,1]"),
    (["p", "q"], [(Z, Z)], "constant 1 missing"),
    (["p", "q"], [(Z, Z), (O, O), (F(1, 3), Z)], "complement not closed"),
    (["p", "q"], [(Z, Z), (O, O), (F(1, 4), Z), (F(3, 4), O)],
     "sum not closed"),
])
def test_validate_tribe_rejections(carrier, fns, reason):
    with pytest.raises(TribeAxiomViolation) as err:
        validate_tribe(carrier, fns)
    assert err.value.reason == reason


def test_tribe_to_algebra_roundtrip():
    tribe = two_point_tribe()
    M = tribe_to_algebra(tribe)
    assert [M.label(a) for a in M.elements()] == [
        "(0,0)", "(1/3,2/3)", "(2/3,1/3)", "(1,1)"]
    assert M.label(M.zero) == "(0,0)" and M.label(M.one) == "(1,1)"
    # complements pair up the two middle functions
    assert M.label(M.comp(1)) == "(2/3,1/3)"
    # the only nontrivial sum is the complement pair
    assert M.add(1, 2) == M.one
    assert M.add(1, 1) is None


# ---------------------------------------------------------------------------
# the canonical representation and its gates


def test_canonical_representation_of_boolean2():
    B = boolean(2)
    rep = canonical_representation(B)
    assert rep.carrier == ("s0", "s1")
    assert functions(rep) == ((Z, Z), (Z, O), (O, Z), (O, O))
    assert rep.h == (0, 1, 2, 3)            # evaluation is bijective here
    b0 = rep.b0()
    assert b0_sets(rep) == (frozenset(), frozenset({0}), frozenset({1}),
                       frozenset({0, 1}))
    assert b0.atoms == (frozenset({0}), frozenset({1}))
    assert all(measurable(rep, f) for f in functions(rep))


def test_canonical_representation_of_chain3_has_one_point():
    rep = canonical_representation(chain(3))
    assert rep.carrier == ("s0",)
    assert functions(rep) == ((Z,), (F(1, 3),), (F(2, 3),), (O,))
    assert rep.h == (0, 1, 2, 3)
    b0 = rep.b0()
    assert b0_sets(rep) == (frozenset(), frozenset({0}))
    assert b0.atoms == (frozenset({0}),)
    assert all(measurable(rep, f) for f in functions(rep))


def test_canonical_representation_gates():
    with pytest.raises(RdpRequired) as err:
        canonical_representation(mo2())
    assert err.value.witness == ("h0:{1}", "h0:{2}", "h1:{1}", "h1:{2}")

    # the diamond fails at the refinement gate before its states are read
    with pytest.raises(RdpRequired):
        canonical_representation(diamond())

    # past the gate, the order check rejects a vertex list that cannot tell
    # two elements apart, and an empty one
    for rows, dimension, below in (([(Z, O, O)], 0, "1"), ([], -1, "0")):
        M = chain(2)
        M._memo["state_polytope",] = doctored_polytope(M, rows, dimension)
        with pytest.raises(TheoremViolation) as err:
            canonical_representation(M)
        assert str(err.value).endswith(f"order below {below}")


def _generated_rdp_algebras():
    yield from rdp_zoo()
    yield from ((f"boolean{k}", boolean(k)) for k in (5, 6))
    yield "interval222", interval(2, 2, 2)
    yield "interval123", interval(1, 2, 3)
    yield "chain4xchain5", product_of(("chain", 4), ("chain", 5))
    yield "chain2x2x3", product_of(("chain", 2), ("chain", 2), ("chain", 3))


def test_the_evaluation_build_matches_the_validated_route():
    """Members, h and polytope of the certified build equal those of the
    evaluation vectors run through validate_tribe and make_representation
    on a polytope computed apart, the members read as Fractions.  The
    certified rows are the columns of the polytope's numerators in h
    order, over its denominator."""
    for name, M in _generated_rdp_algebras():
        rep = canonical_representation(M)
        P = state_polytope(M)
        ref = validated_representation(M, P)
        assert tribe_of(rep) == tribe_of(ref), name
        assert rep.h == ref.h, name
        columns = list(zip(*P.numerators))
        assert rep.evaluation == (tuple(columns[a] for a in rep.h),
                                  P.den), name
        assert vertices(rep.polytope) == vertices(P), name
        assert rep.polytope.dimension == P.dimension, name


HORIZONTAL_SUMS = {
    "chain2+chain3": [("chain", 2), ("chain", 3)],
    "boolean2+boolean2": [("boolean", 2), ("boolean", 2)],
    "boolean2+boolean2+boolean2": [("boolean", 2)] * 3,
    "boolean3+boolean3": [("boolean", 3), ("boolean", 3)],
    "boolean2+chain2": [("boolean", 2), ("chain", 2)],
}


@pytest.mark.parametrize("name", HORIZONTAL_SUMS)
def test_the_order_certificate_fails_exactly_where_validation_does(name):
    """Past the refinement gate, on separating algebras without the
    property, the certificate raises exactly when the validated route
    does, naming the first element whose down-set differs, and otherwise
    builds the same tribe and h."""
    M = generate(("horizontal_sum", HORIZONTAL_SUMS[name]))
    P = state_polytope(M)
    assert inseparable_pair(P) is None
    try:
        ref = validated_representation(M, P)
    except (TribeAxiomViolation, RepresentationViolation):
        ref = None
    if ref is None:
        with pytest.raises(TheoremViolation) as err:
            _evaluation_representation(M, P)
        assert str(err.value) == (
            "the pointwise order on the extremal states differs from the "
            "algebra's order below h0:1")
    else:
        rep = _evaluation_representation(M, P)
        assert (tribe_of(rep), rep.h) == (tribe_of(ref), ref.h)
    assert (ref is None) == (name == "chain2+chain3")


def test_make_representation_structural_checks():
    B = boolean(2)
    rep = canonical_representation(B)
    tribe, h = tribe_of(rep), rep.h
    with pytest.raises(RepresentationViolation):
        make_representation(tribe, B, h[:-1])
    with pytest.raises(RepresentationViolation):        # constant map, not onto
        make_representation(tribe, B, (0, 0, 0, 3))
    # swapping the middle layers of a three-chain breaks 1/3 + 1/3 = 2/3
    C = chain(3)
    crep = canonical_representation(C)
    with pytest.raises(RepresentationViolation):        # sum not preserved
        make_representation(tribe_of(crep), C, (0, 2, 1, 3))


def test_negligible_ideal_structural_checks():
    rep = canonical_representation(boolean(2))
    assert negligible_ideal(rep, [0, 1], [[]]) == (
        frozenset({0, 1}), frozenset({frozenset()}))
    with pytest.raises(RepresentationViolation):        # not carrier points
        negligible_ideal(rep, {0, 2}, [frozenset()])
    with pytest.raises(RepresentationViolation):        # empty set missing
        negligible_ideal(rep, {0, 1}, [])
    with pytest.raises(RepresentationViolation):        # outside omega0
        negligible_ideal(rep, {0}, [frozenset(), frozenset({1})])
    with pytest.raises(RepresentationViolation):        # not union-closed
        negligible_ideal(rep, {0, 1}, [frozenset(), frozenset({0}),
                                       frozenset({1})])
    with pytest.raises(RepresentationViolation):        # not downward closed
        negligible_ideal(rep, {0, 1}, [frozenset(), frozenset({0, 1})])


# ---------------------------------------------------------------------------
# the sharp-set sigma-algebra on hand-built tribes


def test_union_closure_failure_is_reported():
    tribe = non_sigma_tribe()
    M = tribe_to_algebra(tribe)
    rep = make_representation(tribe, M, range(M.n))
    law, witnesses = b0_sigma_law_failure(rep)
    assert law == "union"
    assert witnesses == ([0, 1], [1, 2])
    # B0 is still the characteristic sets, with the atoms they cut out,
    # none of which is in B0
    assert len(b0_sets(rep)) == 6
    assert rep.b0().atoms == tuple(frozenset({i}) for i in range(4))
    assert sharp_observable_failure(rep) == "an atom is outside B0"


def test_two_point_tribe_over_chain3():
    tribe = two_point_tribe()
    M = chain(3)
    rep = make_representation(tribe, M, (0, 1, 2, 3))
    b0 = rep.b0()
    # only the trivial sets have characteristic members
    assert b0_sets(rep) == (frozenset(), frozenset({0, 1}))
    assert b0.atoms == (frozenset({0, 1}),)
    # the middle layer is not constant on the single atom
    assert not measurable(rep, (F(1, 3), F(2, 3)))
    assert non_measurable(rep) == (F(1, 3), F(2, 3))
    assert b0_sigma_law_failure(rep) is None
    assert sharp_observable_failure(rep) is None
    report = sharp_image(rep)
    image = {M.label(h_of(rep, chi(rep, A))) for A in b0_sets(rep)}
    sharp = {M.label(a) for a in sharp_elements(M).members}
    assert report.ok and image == {"0", "3"} == sharp
    assert not report.all_measurable and not report.min_closed
    assert irregular_member(rep, {0, 1}) is None
    assert congruence_failure(rep, {0, 1}, {frozenset()}) is None


def test_the_certificate_proves_b0_xi_and_the_sharp_image():
    """On a certified product of k chains the carrier is the k coordinate
    states, B0 is its power set with the singletons as atoms, xi is a
    sharp observable, h maps B0 onto the sharp elements, every member is
    measurable and the spectral measures tell the elements apart."""
    instances = rdp_zoo() + [(name, M) for name, _, M in generated_products()]
    assert "boolean7" in dict(instances)
    for name, M in instances:
        rep = canonical_representation(M)
        p = len(rep.carrier)
        b0 = rep.b0()
        assert p == len(b0.atoms) == rep.polytope.dimension + 1, name
        assert b0.atoms == tuple(frozenset({i}) for i in range(p)), name
        assert len(b0_sets(rep)) == 2 ** p, name
        assert b0.xi == {A: h_of(rep, chi(rep, A)) for A in b0.xi}, name
        assert b0_sigma_law_failure(rep) is None, name
        assert sharp_observable_failure(rep) is None, name
        assert sharp_image(rep).ok, name
        assert non_measurable(rep) is None, name
        assert spectral_injectivity(rep).ok, name
    # a labelling that swaps 0 and 1 keeps every xi(A) sharp, not additive
    rep = canonical_representation(boolean(2))
    M = rep.target
    swap = {M.zero: M.one, M.one: M.zero}
    doctored = Representation(rep.carrier, rep.evaluation, M,
                              [swap.get(a, a) for a in rep.h])
    assert sharp_observable_failure(doctored) == "not additive at [], []"


@pytest.mark.parametrize("use", [
    lambda rep: rep.row_of(1),
    lambda rep: atom_integrals(rep, {0: 0, 2: 1}, 1),
    lambda rep: levels(rep, 1),
], ids=["row_of", "atom_integrals", "levels"])
def test_a_representation_that_is_not_onto_is_refused_when_built(use):
    """h must reach every element of the target; the constructor names the
    first it misses, so no lookup later fails on a missing preimage."""
    M = chain(2)
    tribe = EffectTribe(("p",), ((Z,), (O,)))
    with pytest.raises(PreconditionFailed,
                       match="^element 1 has no preimage$"):
        use(representation_of(tribe, M, (M.zero, M.one)))


def test_b0_lists_a_repeated_function_once_with_xi_at_its_first_member():
    tribe = EffectTribe(("p",), ((Z,), (Z,), (O,)))
    rep = representation_of(tribe, chain(2), (0, 1, 2))
    b0 = rep.b0()
    assert b0_sets(rep) == (frozenset(), frozenset({0}))
    assert b0.xi == {frozenset(): 0, frozenset({0}): 2}


def test_support_and_measurable_preconditions():
    rep = canonical_representation(boolean(2))
    assert support((Z, HALF, Z, O), frozenset({0, 1, 2})) == frozenset({1})
    with pytest.raises(PreconditionFailed):
        measurable(rep, (HALF, HALF))


def _lookup_cases():
    """Representations whose tribes and atoms the lookup tests scan: the
    RDP zoo but chain7xchain7, a null-point extension, and the two-point
    tribe whose middle layer is not measurable."""
    reps = [canonical_representation(M) for name, M in rdp_zoo()
            if name != "chain7xchain7"]
    reps.append(extend_carrier_with_null_point(reps[-1], "null"))
    reps.append(make_representation(two_point_tribe(), chain(3),
                                    (0, 1, 2, 3)))
    return reps


def test_measurable_agrees_with_a_direct_atom_scan():
    cases = _lookup_cases()
    for rep in cases:
        atoms = rep.b0().atoms
        for f in functions(rep):
            direct = all(len({f[i] for i in A}) == 1 for A in atoms)
            assert measurable(rep, f) == direct
        with pytest.raises(PreconditionFailed):
            measurable(rep, (F(1, 997),) * len(rep.carrier))
    assert not measurable(cases[-1], (F(1, 3), F(2, 3)))


def test_sharp_functions_match_the_pointwise_definition():
    """B0 is the family of sets whose characteristic function is a sharp
    member: no nonzero member lies below both it and its complement."""
    for rep in _lookup_cases():
        fns = functions(rep)
        below_both = {f for f in fns for g in fns if any(g)
                      and all(x <= y for x, y in zip(g, f))
                      and all(x <= O - y for x, y in zip(g, f))}
        sharp = set(fns) - below_both
        p = len(rep.carrier)
        subsets = [frozenset(i for i in range(p) if mask >> i & 1)
                   for mask in range(1 << p)]
        expected = {A for A in subsets
                    if tuple(O if i in A else Z for i in range(p)) in sharp}
        assert set(b0_sets(rep)) == expected
        assert len(b0_sets(rep)) == len(expected)


# ---------------------------------------------------------------------------
# regularity and congruence, positive and negative


def test_bad_omega0_breaks_regularity_and_congruence():
    tribe = validate_tribe(
        ["p", "q"], [(Z, Z), (Z, F(2, 3)), (O, F(1, 3)), (O, O)])
    M = tribe_to_algebra(tribe)
    assert [M.label(a) for a in M.elements()] == [
        "(0,0)", "(0,2/3)", "(1,1/3)", "(1,1)"]
    rep = make_representation(tribe, M, range(M.n))
    # omega0 sees only the first point, where (0,2/3) vanishes
    assert irregular_member(rep, {0}) == (Z, F(2, 3))
    assert congruence_failure(rep, {0}, {frozenset()}) == (
        (Z, Z), (Z, F(2, 3)))
    # seeing both points, h is one-to-one and both hold
    assert irregular_member(rep, {0, 1}) is None
    assert congruence_failure(rep, {0, 1}, {frozenset()}) is None


def test_null_point_extension_outside_omega0():
    rep = canonical_representation(boolean(2))
    ext = extend_carrier_with_null_point(rep, "null")
    assert ext.carrier == ("s0", "s1", "null")
    assert len(functions(ext)) == 12           # 4 members x 3 grid values
    # the null point stays outside omega0
    assert irregular_member(ext, {0, 1}) is None
    assert congruence_failure(ext, {0, 1}, {frozenset()}) is None


def test_null_point_extension_inside_omega0():
    rep = canonical_representation(boolean(2))
    ext = extend_carrier_with_null_point(rep, "null")
    omega0, ideal = negligible_ideal(ext, {0, 1, 2},
                                     [frozenset(), frozenset({2})])
    assert irregular_member(ext, omega0) is None
    assert congruence_failure(ext, omega0, ideal) is None
    # keeping the old ideal instead breaks the congruence at the new point
    assert congruence_failure(ext, omega0, {frozenset()}) == (
        (Z, Z, Z), (Z, Z, HALF))


def test_null_point_grid_preconditions():
    rep = canonical_representation(boolean(2))
    with pytest.raises(PreconditionFailed):
        extend_carrier_with_null_point(rep, "s0")


def test_null_point_extension_matches_the_validated_construction():
    """The extension is built without validation; the same fanned-out
    family run through validate_tribe and make_representation must give
    the same tribe, h and polytope."""
    for name, M in rdp_zoo():
        if name == "chain7xchain7":
            continue
        rep = canonical_representation(M)
        ext = extend_carrier_with_null_point(rep, "null")
        fanned = {f + (v,): a for f, a in zip(functions(rep), rep.h)
                  for v in (Z, HALF, O)}
        tribe = validate_tribe(rep.carrier + ("null",), fanned)
        ref = make_representation(tribe, M, [fanned[f] for f in tribe.functions],
                                  polytope=rep.polytope)
        assert tribe_of(ext) == tribe_of(ref), name
        assert ext.h == ref.h, name
        assert (ext.target, ext.polytope) == (ref.target, ref.polytope), name


# ---------------------------------------------------------------------------
# sandwich


def test_sandwich_squeeze():
    B = boolean(2)
    rep = canonical_representation(B)
    lo, hi = (Z, Z), (O, O)
    for c in B.elements():
        s = sandwich(rep, lo, hi, c)
        assert h_of(rep, s) == c
        assert all(x <= y <= z for x, y, z in zip(lo, s, hi))
    # a tight squeeze pins the function completely
    assert sandwich(rep, (Z, O), (Z, O), 1) == (Z, O)


def test_sandwich_preconditions():
    rep = canonical_representation(boolean(2))
    with pytest.raises(PreconditionFailed):
        sandwich(rep, (HALF, HALF), (O, O), 1)      # bound not a member
    with pytest.raises(PreconditionFailed):
        sandwich(rep, (O, O), (Z, Z), 1)            # bounds out of order
    with pytest.raises(PreconditionFailed):
        sandwich(rep, (Z, O), (O, O), 2)            # c not above h(lower bound)

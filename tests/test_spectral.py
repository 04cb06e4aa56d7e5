"""Spectral measures, their integral tables, and unique state extension.

The measures of the smallest instances are frozen value-by-value; the
square transform on the three-chain is the standard counterexample showing
that non-identity transforms break the integral law while keeping the
transformed assignment injective.  The integral tables are cross-checked
against a level-set oracle that never builds a spectral measure.
"""

from fractions import Fraction

import pytest

import oracles
from effecta import sharp_elements, spectral
from effecta.errors import PreconditionFailed, TheoremViolation
from effecta.report import FAIL, PASS, Record
from effecta.representation import Representation, canonical_representation
from effecta.states import state_polytope
from effecta.suites import run_extension, run_spectral
from oracles import (NotAStateOnSharp, extension_of, level_table, measure_of,
                     seeded_mixtures, sharp_kernel, sharp_table,
                     validate_sharp_state_fraction, vertices)

from zoo_instances import boolean, chain, generated_products, interval, rdp_zoo

F = Fraction
Z = F(0)
O = F(1)
THIRD = F(1, 3)


# ---------------------------------------------------------------------------
# the measures themselves


def test_chain3_measures_are_one_point():
    rep = canonical_representation(chain(3))
    for a, lam in enumerate((Z, THIRD, F(2, 3), O)):
        sm = measure_of(rep, a)
        assert sm.support == (lam,)
        assert sm.masses == {lam: 3}        # all mass on the unit


def test_boolean2_measures():
    rep = canonical_representation(boolean(2))
    assert oracles.measure_key(measure_of(rep, 0)) == ((Z,), (3,))
    assert oracles.measure_key(measure_of(rep, 1)) == ((Z, O), (2, 1))
    assert oracles.measure_key(measure_of(rep, 2)) == ((Z, O), (1, 2))
    assert oracles.measure_key(measure_of(rep, 3)) == ((O,), (3,))

    sm = measure_of(rep, 2)
    assert oracles.mass_of_set(sm, lambda t: t == 1) == 2
    assert oracles.mass_of_set(sm, lambda t: t == 0) == 1
    assert oracles.mass_of_set(sm, lambda t: True) == 3
    assert oracles.mass_of_set(sm, lambda t: False) == 0


def test_integral_reproduces_every_state_value():
    for M in (chain(3), boolean(2)):
        rep = canonical_representation(M)
        P = state_polytope(M)
        for m in vertices(P):
            assert level_table(rep, m.values) == m.values


def test_assignment_is_injective():
    for M in (chain(3), boolean(2)):
        rep = canonical_representation(M)
        report = oracles.spectral_injectivity(rep)
        assert report.ok and report.collision is None


# ---------------------------------------------------------------------------
# the endpoint rule for sharp elements (an oracle: the product-of-chains
# certificate proves it, so no record restates it)


def test_sharp_table_four_cases():
    B = boolean(2)
    rep = canonical_representation(B)
    a = 1
    assert sharp_table(rep, a, lambda t: t == 1) == a
    assert sharp_table(rep, a, lambda t: t == 0) == B.comp(a)
    assert sharp_table(rep, a, lambda t: t in (0, 1)) == B.one
    assert sharp_table(rep, a, lambda t: False) == B.zero
    # interval variants hit the same four branches
    assert sharp_table(rep, a, lambda t: F(1, 2) <= t <= 2) == a
    assert sharp_table(rep, a, lambda t: 0 <= t <= F(1, 2)) == B.comp(a)


# the outcome sets the spectral suite once walked for its sharp-table
# record, as membership tests
SHARP_E_SETS = (
    ("empty", lambda t: False),
    ("point-0", lambda t: t == 0),
    ("point-1", lambda t: t == 1),
    ("both-points", lambda t: t in (0, 1)),
    ("lower-half-open", lambda t: 0 <= t < F(1, 2)),
    ("upper-half", lambda t: F(1, 2) < t <= 1),
    ("everything", lambda t: True),
)


def _first_sharp_table_break(rep):
    """[element, outcome set, message] of the first sharp element and
    outcome set where the endpoint rule and the measure disagree."""
    M = rep.target
    for a in sharp_elements(M).members:
        for name, E in SHARP_E_SETS:
            try:
                sharp_table(rep, a, E)
            except TheoremViolation as exc:
                return [M.label(a), name, str(exc)]
    return None


def test_the_sharp_table_checks_the_planned_measure():
    """The endpoint rule is set against the measure the integration plan
    holds: a measure with its two masses swapped there is named at the
    first outcome set where the two disagree, with the witness the
    ``spectral:sharp-table`` record carried."""
    B = boolean(2)
    rep = canonical_representation(B)
    assert _first_sharp_table_break(rep) is None
    lvs, lams = spectral._level_plan(rep)
    (l0, b0), (l1, b1) = lvs[1]
    rep._memo["_level_plan",] = (
        lvs[:1] + (((l0, b1), (l1, b0)),) + lvs[2:], lams)
    assert _first_sharp_table_break(rep) == [
        "{1}", "point-0", "endpoint rule gives {2} but the measure gives {1}"]


def test_sharp_table_rejects_fuzzy_elements():
    rep = canonical_representation(chain(3))
    with pytest.raises(PreconditionFailed):
        sharp_table(rep, 1, lambda t: t == 1)


# ---------------------------------------------------------------------------
# transforms


def square(v):
    return v * v


def identity(v):
    return v


def test_identity_transform_changes_nothing():
    rep = canonical_representation(chain(3))
    m = vertices(rep.polytope)[0]
    assert level_table(rep, m.values, identity) == m.values
    assert level_table(rep, m.values) == m.values
    # a mapping over the sharp elements alone gives the same table
    assert level_table(rep, {0: Z, 3: O}) == m.values


def test_square_transform_breaks_the_integral_law():
    rep = canonical_representation(chain(3))
    m = vertices(rep.polytope)[0]
    table = level_table(rep, m.values, square)
    # still injective across the whole algebra ...
    keys = {_squared_key(measure_of(rep, a)) for a in range(4)}
    assert len(keys) == 4
    # ... yet the unique state integrates to 1/9 where it assigns 1/3
    assert table[1] == F(1, 9) and m.values[1] == THIRD
    assert table == (Z, F(1, 9), F(4, 9), O)


def _squared_key(sm):
    return (tuple(square(lam) for lam in sm.support),
            tuple(sm.masses[lam] for lam in sm.support))


def test_integral_tables_match_the_level_set_oracle():
    """On every zoo instance with the refinement property, the tables for
    the identity and the square agree with level sets read straight off the
    vertex columns, both on full states and on their sharp restrictions."""
    for name, M in rdp_zoo():
        P = state_polytope(M)
        rep = canonical_representation(M)
        sharp = sharp_elements(M).members
        states = list(vertices(P))
        for seed in (0, 1):
            states += seeded_mixtures(P, 10, seed)
        for m in states:
            restricted = {b: m.values[b] for b in sharp}
            for phi in (None, square):
                expected = oracles.level_set_integral(
                    M, P, m.values, phi or identity)
                assert level_table(rep, m.values, phi) == expected, name
                assert level_table(rep, restricted, phi) == expected, name
        # the square is injective, so it keeps distinct measures distinct
        keys = {_squared_key(measure_of(rep, a)) for a in M.elements()}
        assert len(keys) == M.n, name


def thrice_floor(v):
    return 3 * v.numerator // v.denominator


def test_integral_tables_match_the_level_set_oracle_off_states():
    """The integer tables agree with the level-set oracle on weightings that
    are no states (negative, above 1, plain ints, mixed denominators, and
    restricted to the sharp elements), for the identity, the square and an
    int-valued transform."""
    instances = rdp_zoo() + [("boolean5", boolean(5)), ("boolean6", boolean(6)),
                             ("interval222", interval(2, 2, 2))]
    checked = 0
    for seed, (name, M) in enumerate(instances):
        P = state_polytope(M)
        rep = canonical_representation(M)
        sharp = sharp_elements(M).members
        for full, restricted in oracles.sharp_weightings(M, sharp, 3, seed):
            for phi in (None, square, thrice_floor):
                expected = oracles.level_set_integral(M, P, full,
                                                      phi or identity)
                assert level_table(rep, full, phi) == expected, name
                assert level_table(rep, restricted, phi) == expected, name
                checked += 1
    assert checked == 9 * len(instances)


# ---------------------------------------------------------------------------
# states on the sharp elements, and their unique extensions


def test_the_sharp_state_reference_rejects_each_kind():
    """The Fraction validator that the tests hold the extension suite's
    restricted states to rejects a missing value, a value outside [0,1],
    the unit not at 1 and a failed sum, naming each."""
    B = boolean(2)
    with pytest.raises(NotAStateOnSharp) as err:
        validate_sharp_state_fraction(B, {0: Z, 1: Z, 2: O})
    assert err.value.reason == "missing value"
    assert err.value.witnesses == ("{1,2}",)
    with pytest.raises(NotAStateOnSharp) as err:
        validate_sharp_state_fraction(B, {0: Z, 1: F(3, 2), 2: O, 3: O})
    assert err.value.reason == "value outside [0,1]"
    assert err.value.witnesses == ("{1}", "3/2")
    with pytest.raises(NotAStateOnSharp) as err:
        validate_sharp_state_fraction(B, {0: Z, 1: Z, 2: F(1, 2), 3: F(1, 2)})
    assert err.value.reason == "unit not sent to 1"
    assert err.value.witnesses == ("1/2",)
    with pytest.raises(NotAStateOnSharp) as err:
        validate_sharp_state_fraction(B, {0: Z, 1: THIRD, 2: THIRD, 3: O})
    assert err.value.reason == "not additive"
    assert err.value.witnesses == ("{1}", "{2}", "{1,2}")


def test_extension_fills_in_the_fuzzy_layers():
    C = chain(3)
    rep = canonical_representation(C)
    # the sharp elements are only 0 and 1, yet they pin the whole state
    ext = extension_of(rep, {0: Z, 3: O})
    assert ext.values == (Z, THIRD, F(2, 3), O)
    report = oracles.extension_uniqueness(rep, {0: Z, 3: O})
    assert report.unique and report.kernel is None
    assert report.extension.values == ext.values


def test_extension_restricts_to_its_input():
    B = boolean(2)
    rep = canonical_representation(B)
    given = {0: Z, 1: F(1, 4), 2: F(3, 4), 3: O}
    ext = extension_of(rep, given)
    assert ext.values == (Z, F(1, 4), F(3, 4), O)
    report = oracles.extension_uniqueness(rep, given)
    assert report.unique and report.kernel is None
    assert report.extension.values == ext.values


def test_rank_deficit_yields_a_kernel_witness():
    C = chain(3)
    rep = canonical_representation(C)
    # only 0 and 1 are sharp; a second vertex that agrees with the true
    # state there leaves the sharp values unable to fix the state
    v0 = vertices(rep.polytope)[0].values
    v1 = (Z, F(1, 2), F(1, 2), O)
    doctored = oracles.doctored_polytope(C, [v0, v1], 1)
    fake = Representation(rep.carrier, rep.evaluation, C, rep.h,
                          polytope=doctored)
    report = oracles.extension_uniqueness(fake, {0: Z, 3: O})
    assert report.unique is False
    assert report.kernel == (Z, F(1, 6), F(-1, 6), Z)
    sharp = sharp_elements(C).members
    assert all(report.kernel[b] == 0 for b in sharp)
    assert any(report.kernel)
    # the LP oracle on the line through the two vertices agrees: the sharp
    # values leave the fuzzy elements free across the whole unit box
    pins = [[O if i == b else Z for i in C.elements()] for b in sharp]
    bounds = oracles.coordinate_bounds(
        list(v0), [[x - y for x, y in zip(v1, v0)]], pins, [Z, O])
    assert bounds == [(Z, Z), (Z, O), (Z, O), (O, O)]
    # the first element the kernel direction moves, and by how much
    kernel = sharp_kernel(fake)
    a = next(a for a in C.elements() if kernel[a])
    assert [C.label(a), str(kernel[a])] == [C.label(1), "1/6"]


DOCTORED = {
    "chain3": (chain(3), [
        ("spectral", "integral-identity", FAIL,
         ["1", 0, "spectral integral of 1 gives 1/3, but the state "
                  "assigns 5/12"], "4 elements x 1 states"),
        ("spectral", "phi-square", PASS, ["1", 0, ["1/9", "5/12"]],
         "2 non-sharp elements break the integral"),
        ("extension", "roundtrip", FAIL, [0, "1", "1/3", "5/12"],
         "1 states restricted to 2 sharp elements"),
    ]),
    "interval12": (interval(1, 2), [
        ("spectral", "integral-identity", FAIL,
         ["(0,1)", 1, "spectral integral of (0,1) gives 1/2, but the state "
                      "assigns 7/12"], "6 elements x 2 states"),
        ("spectral", "phi-square", PASS, ["(0,1)", 1, ["1/4", "7/12"]],
         "2 non-sharp elements break the integral"),
        ("extension", "roundtrip", FAIL, [1, "(0,1)", "1/2", "7/12"],
         "2 states restricted to 4 sharp elements"),
    ]),
}


@pytest.mark.parametrize("name", sorted(DOCTORED))
def test_doctored_states_yield_the_recorded_failures(name):
    """The failure witnesses of the spectral and extension suites, recorded
    at 143056e: no golden document reaches these paths.  The suites
    evaluate the vertices alone, two on interval 1 2 and one on chain 3,
    where they evaluated ten mixtures besides on interval 1 2 (and the
    round trip three); the witnesses did not move."""
    M, checks = DOCTORED[name]
    rep = oracles.raised_last_vertex(M)
    records = run_spectral(M, name, rep) + run_extension(M, name, rep)
    assert records == [Record(suite, name, *rest) for suite, *rest in checks]


def test_phi_square_stops_at_the_first_sharp_element_that_breaks():
    """With the two masses of the sharp (0,2) swapped in the level plan of
    interval 1 2, the square law breaks at the non-sharp (0,1), at (0,2)
    and at the non-sharp (1,1): the record names (0,2) and counts (0,1)
    alone, the one non-sharp element before it."""
    M = interval(1, 2)
    rep = canonical_representation(M)
    lvs, lams = spectral._level_plan(rep)
    (l0, b0), (l1, b1) = lvs[2]
    rep._memo["_level_plan",] = (
        lvs[:2] + (((l0, b1), (l1, b0)),) + lvs[3:], lams)
    assert run_spectral(M, "i12", rep)[1] == Record(
        "spectral", "i12", "phi-square", FAIL,
        ["(0,2)", "sharp element broke the integral"],
        "1 non-sharp elements break the integral")


def test_the_rank_certificate_holds_on_every_product_of_chains():
    """The product-of-chains certificate proves the extension unique; the
    rank check agrees on the generated products of two chains, interval
    2 2 3 and the Boolean algebras up to 2^7."""
    for name, _, M in generated_products():
        assert sharp_kernel(canonical_representation(M)) is None, name


def test_rank_certificate_agrees_with_the_lp_oracle_on_the_zoo():
    """Wherever the certificate says unique, exact LP bounds over every
    state with the given sharp values collapse onto the extension."""
    for name, M in rdp_zoo():
        if name == "chain7xchain7":
            continue
        P = state_polytope(M)
        rep = canonical_representation(M)
        assert sharp_kernel(rep) is None, name
        x0, directions, _ = oracles.dense_solve_affine(
            *oracles.raw_state_system(M))
        sharp = sharp_elements(M).members
        pins = [[O if i == b else Z for i in M.elements()] for b in sharp]
        for m in list(vertices(P)) + seeded_mixtures(P, 3, seed=1):
            bounds = oracles.coordinate_bounds(
                x0, directions, pins, [m.values[b] for b in sharp])
            ext = oracles.extension_uniqueness(
                rep, {b: m.values[b] for b in sharp}).extension
            assert bounds == [(v, v) for v in ext.values], name


def test_uniqueness_probe_finds_no_alternatives():
    for M in (chain(3), boolean(2)):
        rep = canonical_representation(M)
        for a in M.elements():
            assert oracles.spectral_uniqueness_probe(rep, a) == ()

"""The smearing, spectral and extension layers on integer numerators,
against the Fraction route they replaced.

The suites call the integer cores (``atom_integrals``, ``levels`` and
``level_integrals``) on the polytope's integer vertices; the extension
suite reads the smearing suite's comparison of the vertices with their
atom tables (``sample_mismatches``), each table the extension of its
state's sharp restriction.  The suites evaluate the vertices alone because
every table is linear in its state; seeded mixtures of the vertices, with
denominators of their own, cross-check that shortcut here.
``oracles`` keeps the Fraction bodies the library had before, with no cache
on the representation; here both routes must give the same tables,
measures, states and errors, on the refinement zoo, on the generated
products, on representations built by hand, and on doctored
representations whose records must keep the witnesses the Fraction route
gave.  The states the extension suite reads, and their extensions, are
checked to be states by the Fraction references, since the suite relies on
the theorems that make them so.
"""

import hashlib
from fractions import Fraction

import pytest

import oracles
from effecta import generate, parse_family_tokens, sharp_elements
from effecta.errors import EffectaError, TheoremViolation
from effecta.observables import _atom_plan, atom_integrals
from effecta.report import render_jsonl
from effecta.representation import Representation, canonical_representation
from effecta.serialize import algebra_to_obj
from effecta.spectral import _level_plan, level_integrals
from effecta.suites import (SUITE_NAMES, check_document, run_extension,
                            run_smearing, run_spectral)

from zoo_instances import (boolean, chain, generated_products, interval,
                           non_rdp_zoo, product_of, rdp_zoo, two_point_tribe)


def _square(lam):
    return lam * lam


def _fractions(nums, den):
    return tuple(Fraction(v, den) for v in nums)


def _outcome(fn, *args):
    """What a call returns, or the type, message and witness it raises."""
    try:
        return "value", fn(*args)
    except EffectaError as exc:
        return ("raises", type(exc), str(exc),
                getattr(exc, "witnesses", None), getattr(exc, "atom", None))


# ---------------------------------------------------------------------------
# the defined-sum triples


def test_defined_sums_are_the_stored_slot_walk():
    """The triples are walked once and stored, in the order of a walk over
    the table slots a <= b."""
    for name, M in rdp_zoo() + non_rdp_zoo():
        walk = tuple((a, b, M.add(a, b)) for a in M.elements()
                     for b in range(a, M.n) if M.add(a, b) is not None)
        assert M.defined_sums() == walk, name
        assert M.defined_sums() is M.defined_sums(), name


# ---------------------------------------------------------------------------
# the integer cores against the Fraction route


def _instances():
    return rdp_zoo() + [(name, M) for name, _, M in generated_products()]


def test_the_integer_cores_match_the_fraction_route():
    """Atom integrals, spectral tables (identity and square), measures, xi
    on the atoms and extensions, on every zoo algebra with the refinement
    property and every generated product: on the vertices, and on ten
    seeded mixtures at each of seeds 0 to 3."""
    tables = 0
    for name, M in _instances():
        rep = canonical_representation(M)
        P = rep.polytope
        sharp = sharp_elements(M).members
        measures = [oracles.spectral_measure_fraction(rep, a)
                    for a in M.elements()]
        assert [oracles.measure_of(rep, a) for a in M.elements()] == measures
        xi = oracles.sharp_observable(rep)
        assert _atom_plan(rep)[0] == tuple(map(xi, xi.atoms)), name
        states = [(row, P.den) for row in P.numerators]
        for seed in range(4):
            states += oracles.mixture_rows(P, 10, seed)
        for row, den in states:
            values = _fractions(row, den)
            atom = oracles.element_integrals_fraction(rep, values)
            assert _fractions(*atom_integrals(rep, row, den)) == atom, name
            for phi in (None, _square):
                level = oracles.spectral_integral_fraction(
                    rep, values, phi, measures)
                assert _fractions(*level_integrals(rep, row, den,
                                                   phi)) == level, name
            # the atom table is the atom formula on the restriction
            restricted = {b: values[b] for b in sharp}
            ext = oracles.extend_state_fraction(rep, restricted, measures)
            assert ext.values == values, name
            assert _fractions(*atom_integrals(
                rep, {b: row[b] for b in sharp}, den)) == values, name
            tables += 1
    assert tables > 2000


def test_the_extension_suite_reads_states_and_extends_them_to_states():
    """The extension suite checks neither that a vertex restricts to a
    state on the sharp elements nor that its extension is a state: past
    the certificate the atom formula gives the vertex back.  The Fraction
    references check both on every vertex the suite reads."""
    checked = 0
    for name, M in _instances():
        rep = canonical_representation(M)
        P = rep.polytope
        sharp = sharp_elements(M).members
        for row in P.numerators:
            restricted = {b: row[b] for b in sharp}
            oracles.validate_sharp_state_fraction(
                M, {b: Fraction(v, P.den) for b, v in restricted.items()})
            table = _fractions(*atom_integrals(rep, restricted, P.den))
            check = oracles.fraction_is_state(M, table)
            assert check.ok, (name, row, check.violation)
            checked += 1
    assert checked == 119


def test_the_extension_core_is_the_atom_formula_on_any_weighting():
    """The extension the suite reads is the atom formula, which checks no
    weighting: on any weighting of the sharp elements it is the Fraction
    atom formula.  A weighting that the formula does not give back is no
    state on the sharp elements, and the Fraction reference refuses it as
    such; an affine, not convex, combination of two vertices is extended
    to the same combination of the vertices, whose values may leave
    [0, 1], and the reference refuses it when it is no state."""
    refused = extended = 0
    not_states = 0
    for seed, (name, M) in enumerate(rdp_zoo()):
        rep = canonical_representation(M)
        sharp = sharp_elements(M).members
        for _, restricted in oracles.sharp_weightings(M, sharp, 4, seed):
            atom = oracles.element_integrals_fraction(rep, restricted)
            assert (oracles.extension_of(rep, restricted)
                    == oracles.State(atom)), name
            if all(atom[b] == restricted[b] for b in restricted):
                extended += 1
                continue
            with pytest.raises(oracles.NotAStateOnSharp):
                oracles.extend_state_fraction(rep, restricted)
            refused += 1
        vertices = oracles.vertices(rep.polytope)
        if len(vertices) < 2:
            continue
        combo = tuple(2 * u - v for u, v in zip(vertices[0].values,
                                                 vertices[1].values))
        restricted = {b: combo[b] for b in sharp}
        assert (oracles.extension_of(rep, restricted)
                == oracles.State(combo)), name
        if not oracles.fraction_is_state(M, combo).ok:
            with pytest.raises(oracles.NotAStateOnSharp):
                oracles.extend_state_fraction(rep, restricted)
            not_states += 1
        extended += 1
    assert refused > 4 * len(rdp_zoo()) // 2
    assert extended > len(rdp_zoo()) // 2
    assert not_states > 0


def test_a_representation_built_by_hand_needs_no_polytope():
    """On the two-point tribe over the three-chain, with no polytope, the
    integer rows are its functions over their common denominator: both
    routes fail the middle layer's integrand and its level sets alike.  A
    carrier extended by a null point keeps the canonical polytope but not
    its rows, and both routes agree there on every table, measure and
    extension."""
    C = chain(3)
    rep = oracles.make_representation(two_point_tribe(), C, (0, 1, 2, 3))
    assert rep.polytope is None
    state = (Fraction(0), Fraction(1, 3), Fraction(2, 3), Fraction(1))
    expected = _outcome(oracles.element_integrals_fraction, rep, state)
    assert expected[0] == "raises" and expected[4] == [0, 1]
    assert _outcome(oracles.integral_table, rep, state) == expected
    for a in C.elements():
        assert (_outcome(oracles.measure_of, rep, a)
                == _outcome(oracles.spectral_measure_fraction, rep, a)), a
    sharp_state = {0: Fraction(0), 3: Fraction(1)}
    assert (_outcome(oracles.extension_of, rep, sharp_state)
            == _outcome(oracles.extend_state_fraction, rep, sharp_state))

    for M in (chain(3), boolean(2), interval(1, 2)):
        base = canonical_representation(M)
        ext = oracles.extend_carrier_with_null_point(base, "null")
        sharp = sharp_elements(M).members
        for a in M.elements():
            assert (oracles.measure_of(ext, a)
                    == oracles.spectral_measure_fraction(ext, a))
        for m in oracles.vertices(base.polytope):
            assert (oracles.integral_table(ext, m.values)
                    == oracles.element_integrals_fraction(ext, m.values))
            assert (oracles.level_table(ext, m.values, _square)
                    == oracles.spectral_integral_fraction(ext, m.values,
                                                          _square))
            restricted = {b: m.values[b] for b in sharp}
            assert (oracles.extension_of(ext, restricted)
                    == oracles.extend_state_fraction(ext, restricted) == m)


# ---------------------------------------------------------------------------
# doctored representations keep the Fraction route's witnesses


def _swapped_measure(M, a):
    """The two masses of element a's measure swapped in the level plan."""
    rep = canonical_representation(M)
    lvs, lams = _level_plan(rep)
    (l0, b0), (l1, b1) = lvs[a]
    rep._memo["_level_plan",] = (
        lvs[:a] + (((l0, b1), (l1, b0)),) + lvs[a + 1:], lams)
    return rep


def _swapped_xi(M):
    """xi on the first two atoms of B0 swapped in the atom plan."""
    rep = canonical_representation(M)
    masses, rows, den = _atom_plan(rep)
    rep._memo["_atom_plan",] = ((masses[1], masses[0]) + masses[2:], rows,
                                den)
    return rep


# the smearing, spectral and extension records, as the Fraction
# route wrote them: the sha256 of the JSONL report, and each FAIL's witness.
# The digests were re-recorded without the records the product-of-chains
# certificate proves (kernel-measurable, sharp-table and uniqueness), each
# report being the earlier one minus exactly those lines.  boolean2-swap's
# sharp-table witness is kept by the oracle test in test_spectral.py, on the
# same doctored representation.  The four -swap and -xi digests were
# re-recorded when the round trip came to read the smearing suite's atom
# tables, each report differing in its roundtrip line alone: a swapped
# measure no longer fails it (integral-identity still does), and a swapped
# xi fails it at the first element the table does not give back.  The
# Fraction reference keeps both refusals, in the test below.  Every digest
# but chain 3's, whose one vertex was always its one state, was re-recorded
# again when the suites came to evaluate the vertices alone: each report
# differs in the state counts of its eq-residual-zero, integral-identity
# and roundtrip details alone, and every witness stayed.
DOCTORED = {
    "chain3": (
        lambda: oracles.raised_last_vertex(chain(3)),
        "ab389036f61a96e60050cfb22dc6499803b83324a25831d995e57b82762a6e95",
        {"roundtrip": [0, "1", "1/3", "5/12"],
         "eq-residual-zero": [["0", "1", "2"], ["1/2"], 0, "1/12"],
         "integral-identity": ["1", 0, "spectral integral of 1 gives 1/3, "
                                       "but the state assigns 5/12"]}),
    "interval12": (
        lambda: oracles.raised_last_vertex(interval(1, 2)),
        "7290b4dc55d5fa87441e0b77d7bf5c67b5e18a4b1935fb5adc940d9e4b8921df",
        {"roundtrip": [1, "(0,1)", "1/2", "7/12"],
         "eq-residual-zero": [["(0,0)", "(0,1)", "(1,1)"], ["1/2"], 1,
                              "1/12"],
         "integral-identity": ["(0,1)", 1, "spectral integral of (0,1) "
                                           "gives 1/2, but the state assigns "
                                           "7/12"]}),
    "chain2xchain3": (
        lambda: oracles.raised_last_vertex(product_of(("chain", 2), ("chain", 3))),
        "178c8078a87f055aba0f956c85d683289b17608c1c18801ccc4090290f70fb11",
        {"roundtrip": [1, "(0,1)", "1/3", "5/12"],
         "eq-residual-zero": [["(0,0)", "(0,1)", "(2,2)"], ["1/2"], 1,
                              "1/12"],
         "integral-identity": ["(0,1)", 1, "spectral integral of (0,1) "
                                           "gives 1/3, but the state assigns "
                                           "5/12"]}),
    "boolean2-swap": (
        lambda: _swapped_measure(boolean(2), 1),
        "343b8f95c6bee21ee0c883a7209dea22c63d90e21e667fef8329c9e4bf3b52b6",
        {"integral-identity": ["{1}", 0, "spectral integral of {1} gives 1, "
                                         "but the state assigns 0"],
         "phi-square": ["{1}", "sharp element broke the integral"]}),
    "boolean2-xi": (
        lambda: _swapped_xi(boolean(2)),
        "717e139b2bb083521daef8d56cb871560543c0aa2c3199585af2a2aab9eae773",
        {"roundtrip": [0, "{1}", "1", "0"],
         "eq-residual-zero": [["{}", "{1}", "{2}"], ["1/2"], 0, "-1"]}),
    "interval12-xi": (
        lambda: _swapped_xi(interval(1, 2)),
        "e8bc5eebdc632e7e1385091e4da44327908d37f72f5c40cb662d2a91c63c6a5e",
        {"roundtrip": [0, "(0,1)", "1/2", "0"],
         "eq-residual-zero": [["(0,0)", "(0,1)", "(1,1)"], ["1/2"], 0,
                              "-1/2"]}),
    "interval12-swap": (
        lambda: _swapped_measure(interval(1, 2), 1),
        "1c736d993c575dcaa1b4482ca1acb72eb5bd93532382111a3a26503f99852f13",
        {"integral-identity": ["(0,1)", 0, "spectral integral of (0,1) gives "
                                           "1/2, but the state assigns 0"]}),
}


@pytest.mark.parametrize("name", sorted(DOCTORED))
def test_doctored_representations_keep_the_fraction_witnesses(name):
    doctor, digest, failures = DOCTORED[name]
    rep = doctor()
    M = rep.target
    records = (run_smearing(M, name, rep) + run_spectral(M, name, rep)
               + run_extension(M, name, rep))
    assert {r.check: r.witness for r in records
            if r.status == "fail"} == failures
    report = render_jsonl(records).encode("utf-8")
    assert hashlib.sha256(report).hexdigest() == digest


# ---------------------------------------------------------------------------
# the vertices decide every state


def _linearity_inputs():
    """The refinement zoo, the generated products, and every doctored
    representation here and in ``test_spectral``."""
    from test_spectral import DOCTORED as SPECTRAL_DOCTORED
    for name, M in _instances():
        yield name, canonical_representation(M)
    for name, (doctor, _, _) in DOCTORED.items():
        yield name, doctor()
    for name, (M, _) in SPECTRAL_DOCTORED.items():
        yield name, oracles.raised_last_vertex(M)


def _squared_levels(rep, row, den):
    return level_integrals(rep, row, den, _square)


def test_a_mixture_misses_its_table_only_where_a_vertex_does():
    """The smearing, spectral and extension suites evaluate the vertices
    alone, since every table is linear in its state.  On ten seeded
    mixtures at each of seeds 0 to 3, each over a denominator of its own,
    the atom table and the spectral tables of the identity and the square
    are the same mixture of the vertices' tables, summed as Fractions
    (``test_the_integer_cores_match_the_fraction_route`` holds the
    undoctored tables to the Fraction route), and an element at which some
    mixture differs from its table is one at which some vertex differs from
    its own."""
    missed = 0
    for name, rep in _linearity_inputs():
        P = rep.polytope
        for core in (atom_integrals, level_integrals, _squared_levels):
            vertex_tables = [_fractions(*core(rep, row, P.den))
                             for row in P.numerators]
            at_vertices = {a for row, table in zip(P.numerators, vertex_tables)
                           for a, v in enumerate(table)
                           if v != Fraction(row[a], P.den)}
            at_mixtures = set()
            for seed in range(4):
                for raw, (row, den) in zip(
                        oracles.mixture_weights(P, 10, seed),
                        oracles.mixture_rows(P, 10, seed)):
                    table = _fractions(*core(rep, row, den))
                    weights = [Fraction(w, sum(raw)) for w in raw]
                    assert table == tuple(
                        sum((w * t[a] for w, t in zip(weights, vertex_tables)),
                            start=Fraction(0))
                        for a in range(len(table))), (name, seed)
                    at_mixtures |= {a for a, v in enumerate(table)
                                    if v != Fraction(row[a], den)}
            assert at_mixtures <= at_vertices, (name, core)
            missed += bool(at_mixtures)
    assert missed > len(DOCTORED)


@pytest.mark.parametrize("M, doctoring, message", [
    (boolean(2), "xi", "extension restricts to 1 at {1}, expected 0"),
    (interval(1, 2), "xi", "extension restricts to 1 at (0,2), expected 0"),
    (boolean(2), "swap", "atom form 0 and spectral form 1 disagree at {1}"),
    (interval(1, 2), "swap",
     "atom form 0 and spectral form 1/2 disagree at (0,1)"),
], ids=["boolean2-xi", "interval12-xi", "boolean2-swap", "interval12-swap"])
def test_the_fraction_extension_refuses_a_doctored_xi_or_measure(
        M, doctoring, message):
    """The restriction and spectral-form checks the extension suite leaves
    to its round trip and to ``spectral:integral-identity`` stay in the
    Fraction reference: on the first vertex, with xi swapped on the first
    two atoms of B0 or element 1's two masses swapped, as ``_swapped_xi``
    and ``_swapped_measure`` doctor the library's plans, it names the first
    sharp element the extension misses, or the first element whose atom
    and spectral forms differ."""
    base = canonical_representation(M)
    rep = Representation(base.carrier, base.evaluation, M, base.h,
                         polytope=base.polytope)
    measures = [oracles.spectral_measure_fraction(rep, a)
                for a in M.elements()]
    if doctoring == "xi":
        xi = oracles.sharp_observable(rep).assignment
        A, B = rep.b0().atoms[:2]
        xi[A], xi[B] = xi[B], xi[A]
    else:
        sm = measures[1]
        l0, l1 = sm.support
        measures[1] = sm._replace(masses={l0: sm.masses[l1],
                                          l1: sm.masses[l0]})
    m = oracles.vertices(rep.polytope)[0]
    with pytest.raises(TheoremViolation) as err:
        oracles.extend_state_fraction(
            rep, {b: m.values[b] for b in rep.sharp}, measures)
    assert str(err.value) == message


# ---------------------------------------------------------------------------
# a Fraction is built only for a witness or a returned state


def _fractions_built(monkeypatch, doc, name, suites):
    """The records of a check, and the number of Fractions it built, after
    a first run that imports every layer it needs."""
    check_document(doc, name, suites)
    built = 0
    new = Fraction.__new__

    def counting(cls, *args, **kwargs):
        nonlocal built
        built += 1
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counting))
    records = check_document(doc, name, suites)
    monkeypatch.undo()
    return records, built


def test_a_boolean6_check_builds_few_fractions(monkeypatch):
    """``check_document`` with every suite on boolean 6 at seed 0 built
    6,692 Fractions on the Fraction route; on integer numerators it builds
    a few dozen, for the outcome sets and the squared lambdas.  700 leaves
    room for neither route's bulk."""
    doc = algebra_to_obj(generate(parse_family_tokens(["boolean", "6"])))
    records, built = _fractions_built(monkeypatch, doc, "boolean6",
                                      SUITE_NAMES)
    assert all(r.status == "pass" for r in records)
    assert 0 < built <= 700


@pytest.mark.parametrize("tokens,suites", [
    (["product", "chain7", "chain7"], ("states",)),
    (["horizontal-sum", "boolean2", "boolean2", "boolean2"], SUITE_NAMES),
], ids=["chain7xchain7-states", "hsum3-boolean2-all"])
def test_the_polytope_path_builds_no_fraction(monkeypatch, tokens, suites):
    """The state equations are eliminated over integers, the cuts are
    integer and the vertices homogeneous integer tuples, so a check that
    stops at the state polytope builds no Fraction: the states suite on
    chain 7 x chain 7 (594 equality rows), and every suite on a horizontal
    sum without the refinement property, whose gated suites stop at the
    refinement gate.  The Fraction solve built 9 and 58."""
    doc = algebra_to_obj(generate(parse_family_tokens(tokens)))
    records, built = _fractions_built(monkeypatch, doc, "doc", suites)
    assert any(r.suite == "states" for r in records)
    assert built == 0

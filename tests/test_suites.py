"""The check-suite layer: per-suite record inventories, gating, the error
boundary, the smearing record against the per-observable reference, and
determinism of the produced records."""

import json
from collections import Counter
from fractions import Fraction

import pytest

from effecta import cli, generate, observables, suites
from effecta.algebra import EffectAlgebra
from effecta.errors import (NotMeasurable, ParseError, RdpRequired,
                            TheoremViolation)
from effecta.representation import Representation, canonical_representation
from effecta.report import FAIL, SKIP, Record, render_jsonl
from effecta.serialize import algebra_from_obj, algebra_to_obj, dumps
from effecta.states import StatePolytope, state_polytope
from effecta.suites import SUITE_NAMES, check_document, resolve_suites

import oracles
from zoo_instances import (boolean, chain, interval, loop4, mo2,
                           non_rdp_zoo, product_of, rdp_zoo)


def by_key(records):
    return {(r.suite, r.check): r for r in records}


def test_resolve_suites():
    assert resolve_suites("all") == SUITE_NAMES
    assert resolve_suites("rdp") == ("rdp",)
    assert resolve_suites("states") == ("states",)
    with pytest.raises(ValueError):
        resolve_suites("martian")


def test_chain3_full_inventory_passes():
    recs = check_document(algebra_to_obj(chain(3)), "c3", SUITE_NAMES)
    assert len(recs) == 10
    assert all(r.status == "pass" for r in recs)
    assert all(r.instance == "c3" for r in recs)
    names = {(r.suite, r.check) for r in recs}
    assert ("axioms", "validate") in names
    assert ("rdp", "refinement") in names
    assert ("sharp", "members") in names
    assert ("states", "separating") in names
    assert ("representation", "canonical-representation") in names
    assert ("smearing", "eq-residual-zero") in names
    assert ("spectral", "phi-square") in names
    assert ("extension", "roundtrip") in names


def test_mo2_gating_and_skip():
    recs = check_document(algebra_to_obj(mo2()), "mo2", SUITE_NAMES)
    k = by_key(recs)
    witness = ["h0:{1}", "h0:{2}", "h1:{1}", "h1:{2}"]

    r = k[("rdp", "refinement")]
    assert r.status == "fail" and r.witness == witness

    # the listing is the sharp suite's one record, with or without the
    # refinement property
    assert [(r.check, r.status) for r in recs if r.suite == "sharp"] == [
        ("members", "pass")]

    # every suite needing the canonical construction fails at its gate,
    # each with the same record
    detail = str(RdpRequired(tuple(witness)))
    for suite in ("representation", "smearing", "spectral", "extension"):
        assert [(r.check, r.status, r.witness, r.detail)
                for r in recs if r.suite == suite] == [
            ("canonical-representation", "fail", witness, detail)]

    # the state layer is indifferent to the refinement property
    assert [(r.check, r.status) for r in recs if r.suite == "states"] == [
        ("non-empty", "pass"), ("separating", "pass")]


def test_box_cap_skips_the_suites_that_need_the_polytope(monkeypatch):
    monkeypatch.setattr("effecta.polytope.MAX_BOX_DIM", 0)
    recs = check_document(algebra_to_obj(boolean(2)), "b2", SUITE_NAMES)
    k = by_key(recs)
    # the refinement property holds, so every gated suite reaches the cap
    for suite in ("states", "representation", "smearing", "spectral",
                  "extension"):
        r = k[(suite, "size-limit")]
        assert r.status == "skip"
        assert r.detail == "parameter dimension 1 exceeds 0"
    assert all(r.status == "pass" for r in recs if r.status != "skip")
    assert {r.suite for r in recs} == set(SUITE_NAMES)


def _count_solves_and_builds(monkeypatch):
    """Calls of the state polytope's vertex enumeration and of the
    evaluation build of the canonical representation."""
    from effecta import representation, states
    calls = Counter()
    for module, name in ((states, "enumerate_vertices"),
                         (representation, "_evaluation_representation")):
        def counted(*args, _name=name, _original=getattr(module, name)):
            calls[_name] += 1
            return _original(*args)
        monkeypatch.setattr(module, name, counted)
    return calls


def test_the_polytope_and_the_representation_are_cached_on_the_algebra(
        monkeypatch):
    """A full check of boolean 4 solves its state polytope once and builds
    its canonical representation once; on an algebra of its own, repeated
    calls return the values of the first."""
    calls = _count_solves_and_builds(monkeypatch)
    M = boolean(4)
    recs = check_document(algebra_to_obj(M), "b4", SUITE_NAMES)
    assert all(r.status == "pass" for r in recs)
    assert calls == Counter(enumerate_vertices=1, _evaluation_representation=1)
    calls.clear()
    assert state_polytope(M) is state_polytope(M)
    assert canonical_representation(M) is canonical_representation(M)
    assert canonical_representation(M).polytope is state_polytope(M)
    assert calls == Counter(enumerate_vertices=1, _evaluation_representation=1)


def test_the_refinement_gate_comes_before_the_state_polytope(monkeypatch):
    """Without the refinement property the gated suites fail at the gate
    and solve no states; the states suite still solves them."""
    calls = _count_solves_and_builds(monkeypatch)
    doc = algebra_to_obj(mo2())
    gated = ("representation", "smearing", "spectral", "extension")
    recs = check_document(doc, "mo2", gated)
    assert [r.check for r in recs] == ["canonical-representation"] * 4
    assert calls == Counter()
    recs = check_document(doc, "mo2", ("states",) + gated)
    assert [(r.check, r.status) for r in recs if r.suite == "states"] == [
        ("non-empty", "pass"), ("separating", "pass")]
    assert calls == Counter(enumerate_vertices=1)


def test_invalid_algebra_shorts_every_suite():
    bad = algebra_to_obj(chain(3))
    bad["sum"] = [s if s != ["1", "1", "2"] else ["1", "1", "3"]
                  for s in bad["sum"]]
    recs = check_document(bad, "broken", SUITE_NAMES)
    k = by_key(recs)
    r = k[("axioms", "validate")]
    assert r.status == "fail" and r.witness == ["1", "2"]
    for suite in SUITE_NAMES[1:]:
        assert k[(suite, "requires-valid-algebra")].status == "fail"
    assert len(recs) == 8


def test_an_empty_polytope_fails_non_empty_and_skips_separating():
    M = chain(2)
    M._memo["state_polytope",] = oracles.doctored_polytope(M, [], -1)
    recs = suites.run_states(M, "c2")
    assert recs == [
        Record("states", "c2", "non-empty", FAIL, detail="0 extremal states"),
        Record("states", "c2", "separating", SKIP, detail="no states")]


def test_malformed_document_raises():
    with pytest.raises(ParseError):
        check_document({"elements": ["0"]}, "x", SUITE_NAMES)


def test_subset_runs_and_determinism():
    doc = algebra_to_obj(chain(4))
    axioms_only = check_document(doc, "c4", ("axioms",))
    assert {r.suite for r in axioms_only} == {"axioms"}
    assert len(axioms_only) == 1

    once = render_jsonl(check_document(doc, "c4", SUITE_NAMES))
    twice = render_jsonl(check_document(doc, "c4", SUITE_NAMES))
    assert once == twice


# ---------------------------------------------------------------------------
# the error boundary


def test_an_internal_error_fails_only_its_suite(tmp_path, capsys,
                                                monkeypatch):
    """A ``NotMeasurable`` out of the atom plan (a hand-built tribe whose
    B0 atoms are not singletons would raise one) is one ``error`` FAIL of
    each suite that reads it, smearing and extension; every other suite's
    records stand."""
    doc = algebra_to_obj(chain(3))
    clean = check_document(doc, "c3", SUITE_NAMES)

    def broken(rep):
        raise NotMeasurable("integrand", [0, 1])

    monkeypatch.setattr("effecta.observables.atom_plan", broken)
    recs = check_document(doc, "c3", SUITE_NAMES)
    readers = ("smearing", "extension")
    for suite in readers:
        (err,) = [r for r in recs if r.suite == suite]
        assert (err.check, err.status, err.witness, err.detail) == (
            "error", "fail", None,
            "'integrand' is not constant on atom [0, 1]"), suite
    assert ([r for r in recs if r.suite not in readers]
            == [r for r in clean if r.suite not in readers])

    path = tmp_path / "c3.json"
    path.write_text(dumps(doc))
    assert cli.main(["check", "--input", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.err == ""
    failing = [p for p in map(json.loads, captured.out.splitlines())
               if p["status"] == "fail"]
    assert [(p["suite"], p["check"]) for p in failing] == [
        ("extension", "error"), ("smearing", "error")]


def _count_memo_stores(monkeypatch):
    """The values that ``once`` stores, by (object, name): every algebra,
    state polytope and representation made from here on gets a ``_memo``
    that counts its stores."""
    stores = Counter()

    class Memo(dict):
        def __setitem__(self, key, value):
            stores[id(self), key[0]] += 1
            super().__setitem__(key, value)

    for cls in (EffectAlgebra, StatePolytope, Representation):
        def init(self, *args, _init=cls.__init__):
            _init(self, *args)
            self._memo = Memo()
        monkeypatch.setattr(cls, "__init__", init)
    return stores


def _names(stores):
    return Counter(name for _, name in stores.elements())


def test_the_smearing_suite_builds_its_integration_plan_once(monkeypatch):
    """One plan serves the tables of every vertex of boolean 4."""
    stores = _count_memo_stores(monkeypatch)
    rep = canonical_representation(boolean(4))
    recs = suites.run_smearing(rep.target, "b4", rep)
    assert [r.status for r in recs] == ["pass"]
    assert (_names(stores)["atom_plan"], _names(stores)["level_plan"]) == (
        1, 0)


def test_a_full_check_builds_each_integration_plan_once(monkeypatch):
    """The smearing, spectral and extension suites share the
    representation's two plans."""
    stores = _count_memo_stores(monkeypatch)
    recs = check_document(algebra_to_obj(boolean(4)), "b4", SUITE_NAMES)
    assert all(r.status == "pass" for r in recs)
    assert (_names(stores)["atom_plan"], _names(stores)["level_plan"]) == (
        1, 1)


ALGEBRA_VALUES = ("atom_coordinates", "check_rdp", "sharp_elements",
                  "state_polytope")


@pytest.mark.parametrize("instance, kept", [
    ("boolean4", ALGEBRA_VALUES + ("canonical_representation", "compute_b0",
                                   "atom_plan", "level_plan",
                                   "sample_mismatches")),
    # the four gated suites each meet the refinement gate, which keeps nothing
    ("loop4", ALGEBRA_VALUES)])
def test_a_full_check_runs_each_kept_body_once_per_object(instance, kept,
                                                          monkeypatch):
    """Every value ``once`` keeps is computed once per object in a full
    check, though the suites ask for most of them many times."""
    stores = _count_memo_stores(monkeypatch)
    doc = algebra_to_obj(boolean(4) if instance == "boolean4" else loop4())
    stores.clear()
    check_document(doc, instance, SUITE_NAMES)
    assert set(stores.values()) == {1}
    assert _names(stores) == Counter(kept)


@pytest.mark.parametrize("M", [boolean(4), interval(2, 2, 2)],
                         ids=["boolean4", "interval222"])
def test_a_full_check_of_a_certified_algebra_lists_no_defined_sum(
        M, monkeypatch):
    """Refinement, the smearing zoo's size and the state equations are read
    off the down masks and the atom steps, so a full check of a product of
    chains never lists the n^2 / 2 defined sums."""
    read = []

    def reading(doc, **kwargs):
        read.append(algebra_from_obj(doc, **kwargs))
        return read[-1]
    monkeypatch.setattr(suites, "algebra_from_obj", reading)
    recs = check_document(algebra_to_obj(M), "m", SUITE_NAMES)
    assert len(recs) == 10 and all(r.status == "pass" for r in recs)
    assert ("defined_sums",) not in read[0]._memo


@pytest.mark.parametrize("M, calls", [
    pytest.param(boolean(4), (4, 4, 4), id="boolean4"),
    pytest.param(chain(3), (1, 1, 1), id="chain3"),
])
def test_a_full_check_builds_one_table_per_sample_state(M, calls,
                                                        monkeypatch):
    """One atom table, one spectral table and one squared table per vertex:
    the extension suite reads the smearing suite's atom tables and builds
    no table of its own, and the squared plan is derived once, not per
    vertex.  boolean 4 has 4 vertices; chain 3 has one."""
    from effecta import linalg, spectral
    counts = Counter()
    squares = []
    evaluate, square = linalg.integrals, spectral.squared_plan

    # observables evaluates the atom plan, the spectral suite the level plan
    # and the plan squared_plan returned
    def counting(kind):
        def count(plan, values, den):
            counts["squared" if any(plan is p for p in squares) else kind] += 1
            return evaluate(plan, values, den)
        return count

    def squaring(rep):
        squares.append(square(rep))
        return squares[-1]

    monkeypatch.setattr(observables, "integrals", counting("atom"))
    monkeypatch.setattr(linalg, "integrals", counting("level"))
    monkeypatch.setattr(spectral, "squared_plan", squaring)
    recs = check_document(algebra_to_obj(M), "x", SUITE_NAMES)
    assert all(r.status == "pass" for r in recs)
    assert (counts["atom"], counts["level"], counts["squared"]) == calls
    assert len(squares) == 1


def test_a_full_check_compares_each_table_set_with_its_states_once(
        monkeypatch):
    """Three comparisons on boolean 4: the atom tables of the vertices,
    which the smearing and extension suites share, and the spectral suite's
    identity and squared tables."""
    from effecta import linalg
    sizes = []
    compare = linalg.mismatches

    def counting(rows, den, tables):
        sizes.append((len(rows), len(tables)))
        return compare(rows, den, tables)

    monkeypatch.setattr(linalg, "mismatches", counting)
    monkeypatch.setattr(observables, "mismatches", counting)
    recs = check_document(algebra_to_obj(boolean(4)), "b4", SUITE_NAMES)
    assert all(r.status == "pass" for r in recs)
    assert sorted(sizes) == [(4, 4), (4, 4), (4, 4)]


def _count_refinement_work(monkeypatch):
    """Calls of ``_refine``, and the breadth-first walks behind
    ``atom_coordinates`` (calls that find no cached result)."""
    from effecta import algebra, states
    work = Counter()
    refine = algebra._refine

    def counted(*args):
        work["_refine"] += 1
        return refine(*args)
    monkeypatch.setattr(algebra, "_refine", counted)
    walk = algebra.atom_coordinates

    def walked(M):
        work["walks"] += ("atom_coordinates",) not in M._memo
        return walk(M)
    monkeypatch.setattr(algebra, "atom_coordinates", walked)
    monkeypatch.setattr(states, "atom_coordinates", walked)
    return work


def test_a_full_check_of_boolean4_certifies_refinement_without_scans(
        monkeypatch):
    """The product-of-chains certificate decides refinement and the sharp
    Boolean algebra, and the state polytope reads the same coordinates."""
    work = _count_refinement_work(monkeypatch)
    recs = check_document(algebra_to_obj(boolean(4)), "b4", SUITE_NAMES)
    assert all(r.status == "pass" for r in recs)
    assert work == Counter(walks=1)


def test_a_failed_certificate_leaves_its_coordinates_to_the_states(
        monkeypatch):
    """Without refinement the scan names the witness, and the state polytope
    reuses the coordinates the failed certificate walked."""
    work = _count_refinement_work(monkeypatch)
    recs = check_document(algebra_to_obj(mo2()), "mo2", SUITE_NAMES)
    assert by_key(recs)[("rdp", "refinement")].status == FAIL
    assert work["walks"] == 1 and work["_refine"] > 0


def test_the_sharp_suite_asks_for_no_refinement_verdict(tmp_path, capsys,
                                                        monkeypatch):
    """``check --suite sharp`` reads the sharp elements off the down masks:
    on mo2 and loop4, which lack the refinement property, it lists the
    order oracle's members and calls neither ``check_rdp`` nor the
    refinement scan, which ``--suite rdp`` still calls once each."""
    from effecta import algebra
    calls = Counter()
    for name in ("check_rdp", "_refinement_scan"):
        def counted(M, _name=name, _original=getattr(algebra, name)):
            calls[_name] += 1
            return _original(M)
        monkeypatch.setattr(algebra, name, counted)
    monkeypatch.setattr(suites, "check_rdp", algebra.check_rdp)

    def check(path, suite):
        code = cli.main(["check", "--input", str(path), "--suite", suite])
        (payload,) = map(json.loads, capsys.readouterr().out.splitlines())
        return code, payload

    for instance, M in (("mo2", mo2()), ("loop4", loop4())):
        path = tmp_path / f"{instance}.json"
        path.write_text(dumps(algebra_to_obj(M)))
        code, payload = check(path, "sharp")
        assert code == 0 and payload["status"] == "pass"
        assert payload["witness"] == oracles.brute_sharp(
            list(M.labels), oracles.sum_table_dict(M), M.label(M.zero),
            M.label(M.one)), instance
    assert calls == Counter()
    code, payload = check(tmp_path / "mo2.json", "rdp")
    assert code == 1 and payload["status"] == "fail"
    assert calls == Counter(check_rdp=1, _refinement_scan=1)


def test_a_failed_order_certificate_is_one_error_per_gated_suite(
        monkeypatch):
    """With the refinement gate forced open on chain2 + chain3, which lacks
    the property, the order certificate fails: each gated suite gets one
    ``error`` FAIL with its message, and the other suites are unchanged."""
    from effecta import representation
    from effecta.algebra import RdpResult

    M = generate(("horizontal_sum", [("chain", 2), ("chain", 3)]))
    with pytest.raises(TheoremViolation) as err:
        representation._evaluation_representation(M, state_polytope(M))
    doc = algebra_to_obj(M)
    clean = check_document(doc, "c2+c3", SUITE_NAMES)
    monkeypatch.setattr(representation, "check_rdp",
                        lambda M: RdpResult(True, None, M))
    recs = check_document(doc, "c2+c3", SUITE_NAMES)
    for suite in ("representation", "smearing", "spectral", "extension"):
        assert [(r.check, r.status, r.witness, r.detail)
                for r in recs if r.suite == suite] == [
            ("error", "fail", None, str(err.value))]
    table = ("axioms", "rdp", "sharp", "states")
    assert ([r for r in recs if r.suite in table]
            == [r for r in clean if r.suite in table])
    assert by_key(clean)[("rdp", "refinement")].status == "fail"


# ---------------------------------------------------------------------------
# eq-residual-zero: one residual per element and state, against the
# per-observable loop of oracles.smearing_residual_record


def _states(rep):
    return oracles.vertices(rep.polytope)


def _residual_record(M, rep):
    (r,) = [r for r in suites.run_smearing(M, "x", rep)
            if r.check == "eq-residual-zero"]
    return r.status, r.witness, r.detail


def test_residual_record_matches_the_per_observable_loop():
    for name, M in rdp_zoo():
        if name == "chain7xchain7":
            continue
        rep = canonical_representation(M)
        expected = oracles.smearing_residual_record(M, rep, _states(rep))
        assert expected[0] == "pass"
        assert _residual_record(M, rep) == expected, name


def _first_reached(M, rep):
    """Element -> index of the first zoo observable whose kernel reaches it."""
    first = {}
    for k, x in enumerate(suites._zoo_observables(M)):
        for a in observables.smear(rep, x).elements.values():
            first.setdefault(a, k)
    return first


@pytest.mark.parametrize("M", [
    pytest.param(chain(3), id="chain3"),
    pytest.param(boolean(3), id="boolean3"),
    pytest.param(interval(1, 2), id="interval12"),
    pytest.param(product_of(("chain", 2), ("chain", 3)), id="chain2xchain3"),
])
def test_residual_record_matches_the_loop_on_doctored_tables(M, monkeypatch):
    rep = canonical_representation(M)
    states = _states(rep)
    first = _first_reached(M, rep)
    assert set(first) == set(M.elements())     # every element is some x(E)
    late = max(M.elements(), key=lambda a: (first[a], a))
    early = min((a for a in M.elements() if a not in (M.zero, late)),
                key=lambda a: (first[a], a))
    assert first[early] < first[late]
    # a lone vertex is the only test state, so every doctoring lands on it
    last = len(states) - 1
    middle = len(states) // 2
    second = min(1, last)
    seventh = Fraction(1, 7)
    doctorings = [
        {(late, 0): seventh},
        {(early, middle): seventh},
        {(M.zero, last): seventh},
        {(M.one, second): seventh},
        # observable order puts the early element's break first, state
        # order the late element's
        {(late, 0): seventh, (early, middle): seventh},
        {(late, 0): -seventh, (M.zero, last): seventh,
         (early, second): seventh},
    ]
    from effecta import linalg
    real = linalg.integrals
    for doctored in doctorings:
        # the tables are kept per representation, so each doctoring reads
        # them on a fresh one
        fresh = Representation(rep.carrier, rep.evaluation, M, rep.h,
                               polytope=rep.polytope)
        shift = {(a, states[i].values): d for (a, i), d in doctored.items()}

        def table(plan, row, den):
            values = tuple(Fraction(v, den) for v in row)
            nums, tden = real(plan, row, den)
            return oracles.over_one_denominator(
                [Fraction(t, tden) + shift.get((a, values), 0)
                 for a, t in enumerate(nums)])

        with monkeypatch.context() as mp:
            mp.setattr(linalg, "integrals", table)
            mp.setattr(observables, "integrals", table)
            got = _residual_record(M, fresh)
        expected = oracles.smearing_residual_record(M, rep, states, shift)
        assert expected[0] == "fail"
        assert got == expected, doctored


def test_a_passing_smearing_suite_smears_no_observable(monkeypatch):
    M = boolean(3)
    rep = canonical_representation(M)
    calls = {"smear": 0, "tables": 0}
    smear, integrals = observables.smear, observables.integrals

    def counting_smear(*args):
        calls["smear"] += 1
        return smear(*args)

    def counting_tables(*args):
        calls["tables"] += 1
        return integrals(*args)

    monkeypatch.setattr(observables, "smear", counting_smear)
    monkeypatch.setattr(observables, "integrals", counting_tables)
    recs = suites.run_smearing(M, "b3", rep)
    assert all(r.status == "pass" for r in recs)
    # the zoo is counted in closed form and walked only to name a break,
    # so a pass smears nothing; one table per vertex
    assert calls == {"smear": 0, "tables": len(_states(rep))}


# ---------------------------------------------------------------------------
# the observable zoo, counted in closed form


@pytest.mark.parametrize("tokens", [
    None,
    ("product", [("chain", 2), ("boolean", 2)]),
    ("product", [("chain", 1), ("chain", 3), ("chain", 4)]),
    ("interval", (2, 3)),
    ("interval", (1, 1, 1, 2)),
    ("horizontal_sum", [("chain", 3), ("chain", 4)]),
    ("horizontal_sum", [("boolean", 3), ("chain", 2), ("boolean", 2)]),
], ids=["zoo", "chain2xboolean2", "chain1xchain3xchain4", "interval23",
        "interval1112", "hsum-chain3-chain4", "hsum-boolean3-chain2-boolean2"])
def test_the_zoo_size_counts_the_walk(tokens):
    """(1,), one (a, a') per element and one (a, b, (a + b)') per defined
    ordered pair: with or without the refinement property."""
    algebras = (rdp_zoo() + non_rdp_zoo() if tokens is None
                else [(tokens[0], generate(tokens))])
    for name, M in algebras:
        lengths = Counter(len(fam)
                          for fam in observables.summable_families(M, 3))
        pairs = sum(M.add(a, b) is not None
                    for a in M.elements() for b in M.elements())
        assert lengths == {1: 1, 2: M.n, 3: pairs}, name
        assert suites._zoo_size(M) == sum(lengths.values()), name


# ---------------------------------------------------------------------------
# records that cannot fail past the gate, kept as reference checks: the
# canonical representation's h is one-to-one, omega0 is its whole carrier
# and the ideal is {empty}


def test_the_dropped_records_hold_on_every_zoo_instance_past_the_gate():
    """Regularity, ideal congruence, the sandwich squeeze, kernel
    independence at a null point (on the vertices and the seeded mixtures
    of seeds 0 and 3) and
    additivity of every spectral measure on all pairs of disjoint outcome
    sets, through the reference checks in ``oracles``."""
    half = Fraction(1, 2)
    passed = 0
    for name, M in rdp_zoo() + non_rdp_zoo():
        try:
            rep = canonical_representation(M)
        except RdpRequired:
            continue
        passed += 1
        points = range(len(rep.carrier))
        assert oracles.irregular_member(rep, points) is None, name
        assert oracles.congruence_failure(
            rep, points, {frozenset()}) is None, name

        # squeezed between 0 and 1, or between cf and cf, the sandwich of c
        # is c's function cf; the oracle asserts that it maps to c
        zero_fn = oracles.function_of(rep, M.zero)
        one_fn = oracles.function_of(rep, M.one)
        for c in M.elements():
            cf = oracles.function_of(rep, c)
            assert oracles.sandwich(rep, zero_fn, one_fn, c) == cf, (name, c)
            assert oracles.sandwich(rep, cf, cf, c) == cf, (name, c)

        for a in M.elements():
            sm = oracles.measure_of(rep, a)
            assert oracles.measure_additivity_failure(M, sm) is None, (name, a)

        # the null point is a B0 atom of weight m(h(chi_null)) = m(0) = 0
        ext = oracles.extend_carrier_with_null_point(rep, "null")
        null = frozenset({len(rep.carrier)})
        assert null in ext.b0().atoms, name
        assert oracles.h_of(ext, oracles.chi(ext, null)) == M.zero, name
        kernels = [observables.smear(ext, observables.make_observable(
                       M, (0, 1), (a, M.comp(a)))) for a in M.elements()]
        states = list(dict.fromkeys(
            list(oracles.vertices(rep.polytope))
            + oracles.seeded_mixtures(rep.polytope, 10, 0)
            + oracles.seeded_mixtures(rep.polytope, 10, 3)))
        for kernel in kernels:
            # each kernel function has value 0 at the null point; move it
            # to 1/2 or 1, by turns
            alts = {key: f[:-1] + ((half, Fraction(1))[i % 2],)
                    for i, (key, f) in enumerate(
                        oracles.kernel_functions(ext, kernel).items())}
            for m in states:
                assert oracles.kernel_independence_check(
                    ext, kernel, m, alts), name
    assert passed == len(rdp_zoo())

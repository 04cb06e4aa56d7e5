"""Acceptance gate: nine exact, timed criteria over the instance zoo.

Each criterion is one test that prints a single ``ACCEPTANCE n ...: PASS``
or ``FAIL`` line (visible with ``pytest -s``) and enforces its runtime
budget.  All equality is exact rational equality; nothing is checked
within a tolerance.  Instances, polytopes, and representations are built
once and shared across criteria, with construction time charged to the
first criterion that needs them.
"""

import time
from contextlib import contextmanager
from fractions import Fraction

from effecta import (check_rdp, make_observable, sharp_elements,
                     state_polytope)
from effecta import cli
from effecta.observables import smear, summable_families
from effecta.representation import canonical_representation

from oracles import (b0_sets, boolean_law_scan, brute_rdp, brute_vertices,
                     vertices,
                     congruence_failure, extension_of, extension_uniqueness,
                     integral_table, irregular_member, level_table,
                     make_representation, measurable, measure_of,
                     raw_state_system, seeded_mixtures,
                     sharp_image, sharp_table, spectral_form_value,
                     spectral_injectivity, sum_table_dict)
from zoo_instances import non_rdp_zoo, rdp_zoo, two_point_tribe

F = Fraction
Z = F(0)
O = F(1)

ORACLE_RDP_CAP = 16       # the quantifier oracle scans n**4 quadruples
ORACLE_VERTEX_CAP = 12    # the basic-solution oracle scans C(n, n-rank) bases

_RDP: list = []
_NON: list = []
_POLY: dict = {}
_REPS: dict = {}


def rdp_instances():
    if not _RDP:
        _RDP.extend(rdp_zoo())
    return _RDP


def non_rdp_instances():
    if not _NON:
        _NON.extend(non_rdp_zoo())
    return _NON


def all_instances():
    return rdp_instances() + non_rdp_instances()


def polytope_of(name, M):
    P = _POLY.get(name)
    if P is None:
        P = state_polytope(M)
        _POLY[name] = P
    return P


def rep_of(name, M):
    rep = _REPS.get(name)
    if rep is None:
        rep = canonical_representation(M)
        _REPS[name] = rep
    return rep


def mixed_states_of(name, M, count, seed):
    P = polytope_of(name, M)
    return list(vertices(P)) + seeded_mixtures(P, count, seed)


@contextmanager
def criterion(number, title, limit_seconds):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} {title}: FAIL")
        raise
    elapsed = time.monotonic() - start
    if limit_seconds is not None and elapsed >= limit_seconds:
        print(f"ACCEPTANCE {number} {title}: FAIL "
              f"({elapsed:.2f}s over the {limit_seconds:.0f}s budget)")
        raise AssertionError(
            f"criterion {number} took {elapsed:.2f}s, budget {limit_seconds}s")
    print(f"ACCEPTANCE {number} {title}: PASS ({elapsed:.2f}s)")


# ---------------------------------------------------------------------------


def test_criterion_1_axioms_and_order():
    with criterion(1, "axioms and order on the zoo", 5.0):
        instances = all_instances()       # construction validates every axiom
        assert len(instances) >= 20
        for _name, M in instances:
            for a in M.elements():
                assert M.comp(M.comp(a)) == a
            for a in M.elements():
                for b in M.elements():
                    diffs = [c for c in M.elements() if M.add(a, c) == b]
                    if M.leq(a, b):
                        assert len(diffs) == 1
                        assert diffs[0] == M.minus(b, a)
                    else:
                        assert diffs == []


def test_criterion_2_rdp_oracle_equivalence():
    with criterion(2, "refinement-property oracle equivalence", 10.0):
        checked = 0
        for _name, M in all_instances():
            if M.n > ORACLE_RDP_CAP:
                continue                  # larger instances: unit-test coverage
            offender = brute_rdp(list(M.labels), sum_table_dict(M))
            assert (offender is None) == check_rdp(M).holds
            checked += 1
        assert checked >= 16

        mo2 = dict(non_rdp_instances())["mo2"]
        result = check_rdp(mo2)
        assert not result.holds
        a1, a2, b1, b2 = (mo2.index(x) for x in result.witness_labels())
        assert result.witness_labels() == (
            "h0:{1}", "h0:{2}", "h1:{1}", "h1:{2}")
        # the witness is the double decomposition 1 = a + a' = b + b'
        assert a2 == mo2.comp(a1) and b2 == mo2.comp(b1)
        assert mo2.add(a1, a2) == mo2.one == mo2.add(b1, b2)


def test_criterion_3_sharp_boolean_structure():
    with criterion(3, "sharp elements form a Boolean algebra", 5.0):
        for _name, M in rdp_instances():
            # the members are the corners of the certified box; the
            # reference scan checks every Boolean law on them (at most 16
            # members in this zoo, so its k**3 triples stay small)
            ss = sharp_elements(M)
            assert check_rdp(M).holds
            assert boolean_law_scan(M, ss) is None
            assert M.zero in ss and M.one in ss
            for a in ss:
                assert M.comp(a) in ss


def test_criterion_4_state_polytopes():
    with criterion(4, "state polytopes and the vertex oracle", 10.0):
        for name, M in rdp_instances():
            assert not polytope_of(name, M).is_empty
        confirmed = 0
        for name, M in all_instances():
            if M.n > ORACLE_VERTEX_CAP:
                continue
            P = polytope_of(name, M)
            rows, rhs = raw_state_system(M)
            assert sorted(s.values for s in vertices(P)) == \
                brute_vertices(rows, rhs, M.n)
            confirmed += 1
        assert confirmed >= 15

        C = dict(rdp_instances())["chain3"]
        P = polytope_of("chain3", C)
        assert [s.values for s in vertices(P)] == [(Z, F(1, 3), F(2, 3), O)]


def test_criterion_5_representation_characterizations():
    with criterion(5, "representation characterizations", 5.0):
        for name, M in rdp_instances():
            rep = rep_of(name, M)
            points = range(len(rep.carrier))
            assert irregular_member(rep, points) is None
            assert congruence_failure(rep, points, {frozenset()}) is None
            assert sharp_image(rep).ok

        # the hand-built two-point tribe: trivial sigma-algebra, yet a
        # member that is not constant on its single atom
        C = dict(rdp_instances())["chain3"]
        tribe = two_point_tribe()
        rep = make_representation(tribe, C, (0, 1, 2, 3))
        b0 = rep.b0()
        assert b0_sets(rep) == (frozenset(), frozenset({0, 1}))
        assert b0.atoms == (frozenset({0, 1}),)
        assert not measurable(rep, (F(1, 3), F(2, 3)))


def test_criterion_6_smearing_residuals():
    with criterion(6, "smearing residuals are exactly zero", 30.0):
        families = 0
        for name, M in rdp_instances():
            rep = rep_of(name, M)
            states = mixed_states_of(name, M, 10, seed=0)
            tables = [integral_table(rep, m.values) for m in states]
            for fam in summable_families(M, 3):
                x = make_observable(M, range(len(fam)), fam)
                kernel = smear(rep, x)
                for m, table in zip(states, tables):
                    residuals = [m.values[a] - table[a]
                                 for a in kernel.elements.values()]
                    assert not any(residuals)
                    assert set(residuals) == {Z}
                families += 1
        assert families >= 1000


def test_criterion_7_spectral_measures():
    with criterion(7, "spectral measures and the transform", 20.0):
        for name, M in rdp_instances():
            rep = rep_of(name, M)
            # one integral table per state, every element at once
            for m in mixed_states_of(name, M, 10, seed=0):
                assert level_table(rep, m.values) == m.values
            assert spectral_injectivity(rep).ok
            for a in sharp_elements(M):
                assert sharp_table(rep, a, lambda t: t == 1) == a
                assert sharp_table(rep, a, lambda t: t == 0) == M.comp(a)
                assert sharp_table(rep, a, lambda t: t in (0, 1)) == M.one
                assert sharp_table(rep, a, lambda t: False) == M.zero

        C = dict(rdp_instances())["chain3"]
        rep = rep_of("chain3", C)
        vertex = vertices(rep.polytope)[0]
        squared = level_table(rep, vertex.values, squared=True)
        keys = set()
        for a in C.elements():
            sm = measure_of(rep, a)
            keys.add((tuple(lam * lam for lam in sm.support),
                      tuple(sm.masses[lam] for lam in sm.support)))
        assert len(keys) == C.n                 # distinctness survives
        # the integral law does not: 1/9 against 1/3 at vertex 0
        assert (squared[1], vertex.values[1]) == (F(1, 9), F(1, 3))


def test_criterion_8_unique_state_extension():
    with criterion(8, "unique extension from the sharp elements", 20.0):
        for name, M in rdp_instances():
            rep = rep_of(name, M)
            sharp = sharp_elements(M)
            for m in mixed_states_of(name, M, 3, seed=1):
                restricted = {b: m.values[b] for b in sharp}
                # the atom form on the restriction; the spectral form is
                # the third route below
                ext = extension_of(rep, restricted)
                report = extension_uniqueness(rep, restricted)
                assert report.unique
                assert ext.values == report.extension.values == m.values
            if M.n <= 20:
                # third route: level-set summation straight off the vertices
                values = {b: vertices(polytope_of(name, M))[0].values[b]
                          for b in sharp}
                direct = extension_of(rep, values)
                for a in M.elements():
                    assert spectral_form_value(rep, a, values) == direct.values[a]


def test_criterion_9_determinism(tmp_path):
    with criterion(9, "byte-identical reports", None):
        specs = {
            "c3": ("chain", "3"),
            "i12": ("interval", "1", "2"),
            "mo2": ("horizontal-sum", "boolean2", "boolean2"),
        }
        for stem, family in specs.items():
            algebra = tmp_path / f"{stem}.json"
            assert cli.main(["generate", *family,
                             "--output", str(algebra)]) == 0
            first = tmp_path / f"{stem}.first.jsonl"
            second = tmp_path / f"{stem}.second.jsonl"
            rc1 = cli.main(["check", "--input", str(algebra), "--seed", "7",
                            "--output", str(first)])
            rc2 = cli.main(["check", "--input", str(algebra), "--seed", "7",
                            "--output", str(second)])
            assert rc1 == rc2 and rc1 in (0, 1)
            assert first.read_bytes() == second.read_bytes()

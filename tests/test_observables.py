"""Observables, smearing kernels, and the defining identity.

The kernel for a representation is pinned down function-by-function on the
small instances, and the smearing identity is checked to hold with exact
zero residuals; the measurability and legitimacy gates are exercised with
the hand-built tribe that violates them.
"""

from fractions import Fraction
from types import SimpleNamespace

import pytest

from effecta import make_observable, sharp_elements
from effecta.errors import (NotMeasurable, PreconditionFailed,
                            SizeLimitExceeded, SumNotOne, SumUndefined)
from effecta.observables import atom_plan, smear, summable_families
from effecta.representation import canonical_representation
from effecta.states import state_polytope

import oracles
from oracles import (State, function_of, kernel_functions, make_representation,
                     seeded_mixtures, sharp_observable, vertices)
from zoo_instances import boolean, chain, interval, rdp_zoo, two_point_tribe

F = Fraction
Z = F(0)
O = F(1)
HALF = F(1, 2)


# ---------------------------------------------------------------------------
# observables


def test_make_observable_sorts_and_resolves_labels():
    B = boolean(2)
    x = make_observable(B, (1, 0), ("{2}", "{1}"))
    assert x.support == (Z, O)
    assert x.values == (1, 2)               # sorted along with the support
    assert x.element_at(()) == B.zero
    assert x.element_at((0, 1)) == B.one
    assert x.element_at((0,)) == 1
    assert x.element_at((1,)) == 2


def test_make_observable_rejections():
    M = chain(3)
    with pytest.raises(PreconditionFailed):
        make_observable(M, (0, 1), (1,))            # misaligned
    with pytest.raises(PreconditionFailed):
        make_observable(M, (), ())                  # empty
    with pytest.raises(PreconditionFailed):
        make_observable(M, (0, 0), (1, 2))          # duplicate outcome point
    with pytest.raises(PreconditionFailed):
        make_observable(M, (0, 1), (1, 99))         # id out of range
    with pytest.raises(PreconditionFailed,
                       match=r"^unknown element label 'nope'$"):
        make_observable(M, (0, 1), ("nope", "3"))   # no such label
    with pytest.raises(PreconditionFailed,
                       match=r"^not an element label or id: 1\.9$"):
        make_observable(M, (0, 1), (1.9, 2))        # no truncation to 1
    with pytest.raises(PreconditionFailed,
                       match=r"^not an element label or id: None$"):
        make_observable(M, (0, 1), (None, "3"))     # neither label nor id
    with pytest.raises(PreconditionFailed,
                       match=r"^not an element label or id: True$"):
        make_observable(M, (0, 1), (True, 2))       # a bool is no id
    with pytest.raises(SumUndefined):
        make_observable(M, (0, 1), (3, 3))          # 1 + 1 undefined
    with pytest.raises(SumNotOne):
        make_observable(M, (0, 1), (1, 1))          # sums to 2/3, not 1


def test_summable_families_counts():
    assert sorted(summable_families(chain(1), 2)) == [(0, 1), (1,), (1, 0)]
    assert sorted(summable_families(boolean(2), 2)) == [
        (0, 3), (1, 2), (2, 1), (3,), (3, 0)]
    assert len(list(summable_families(chain(3), 3))) == 15


# ---------------------------------------------------------------------------
# sharp observables


def test_sharp_observable_on_boolean2():
    rep = canonical_representation(boolean(2))
    xi = sharp_observable(rep)
    assert xi(frozenset()) == 0
    assert xi(frozenset({0})) == 2          # chi_{s0} is the evaluation (1,0)
    assert xi(frozenset({1})) == 1
    assert xi(frozenset({0, 1})) == 3
    assert xi.atoms == (frozenset({0}), frozenset({1}))
    assert sharp_observable(rep) is xi      # built once, then cached
    # the library reads xi on the atoms alone
    atom_plan(rep)
    rows, _ = rep._memo["atom_plan",]
    assert {tuple(b for _, b in row) for row in rows} == {(2, 1)}


# ---------------------------------------------------------------------------
# smearing


def test_smear_kernel_on_boolean2():
    B = boolean(2)
    rep = canonical_representation(B)
    x = make_observable(B, (0, 1), ("{1}", "{2}"))
    kernel = smear(rep, x)
    assert rep.evaluation[1] == 1
    assert kernel.functions == {
        frozenset(): (0, 0),
        frozenset({0}): (0, 1),
        frozenset({1}): (1, 0),
        frozenset({0, 1}): (1, 1),
    }


def test_smear_kernel_on_chain3_is_the_constant_layer():
    C = chain(3)
    rep = canonical_representation(C)
    x = make_observable(C, (0, 1), (1, 2))
    kernel = smear(rep, x)
    assert kernel.functions[frozenset({0})] == rep.row_of(1)
    assert kernel_functions(rep, kernel)[frozenset({0})] == (F(1, 3),)
    assert kernel_functions(rep, kernel)[frozenset({1})] == (F(2, 3),)


def test_smear_requires_matching_algebra():
    rep = canonical_representation(boolean(2))
    C = chain(3)
    x = make_observable(C, (0,), (3,))
    with pytest.raises(PreconditionFailed):
        smear(rep, x)


def test_smear_caps_the_outcome_points(monkeypatch):
    monkeypatch.setattr("effecta.observables.MAX_POINTS", 2)
    C = chain(3)
    rep = canonical_representation(C)
    assert len(smear(rep, make_observable(C, (0, 1), (1, 2))).functions) == 4
    with pytest.raises(SizeLimitExceeded) as err:
        smear(rep, make_observable(C, (0, 1, 2), (1, 1, 1)))
    assert str(err.value) == "observable of 3 outcome points exceeds 2"


def test_smear_rejects_non_measurable_kernel():
    C = chain(3)
    tribe = two_point_tribe()
    rep = make_representation(tribe, C, (0, 1, 2, 3))
    x = make_observable(C, (0, 1), (1, 2))
    with pytest.raises(NotMeasurable) as err:
        smear(rep, x)
    assert err.value.what == "{0}"
    assert err.value.atom == [0, 1]


def test_smearing_residuals_are_exactly_zero():
    for M in (chain(3), boolean(2)):
        rep = canonical_representation(M)
        P = state_polytope(M)
        for values in summable_families(M, 2):
            x = make_observable(M, range(len(values)), values)
            kernel = smear(rep, x)
            for m in vertices(P):
                table = oracles.integral_table(rep, m.values)
                residuals = {key: m.values[a] - table[a]
                             for key, a in kernel.elements.items()}
                assert len(residuals) == 1 << len(values)
                assert not any(residuals.values())
                assert set(residuals.values()) == {Z}


def test_residuals_match_the_reference_integral():
    """Every residual equals m(x(E)) minus an integral recomputed from
    scratch, so the per-state integral table cannot hide a wrong value."""
    checked = 0
    for name, M in rdp_zoo():
        if name == "chain7xchain7":
            continue
        rep = canonical_representation(M)
        states = list(vertices(rep.polytope)) + seeded_mixtures(
            rep.polytope, 10, 0)
        tables = [oracles.integral_table(rep, m.values) for m in states]
        for values in summable_families(M, 3):
            x = make_observable(M, range(len(values)), values)
            kernel = smear(rep, x)
            for m, table in zip(states, tables):
                for key, f in kernel_functions(rep, kernel).items():
                    a = kernel.elements[key]
                    assert a == x.element_at(key)
                    expected = (m.values[x.element_at(key)]
                                - oracles.smearing_integral(rep, f, m))
                    assert m.values[a] - table[a] == expected, (name, key)
                    checked += 1
    assert checked > 10000


def test_atom_integrals_match_the_reference_integral():
    """The table entry of every element is the integral of its function,
    formed afresh by the oracle, for every test state of the zoo."""
    checked = 0
    for name, M in rdp_zoo():
        rep = canonical_representation(M)
        states = list(vertices(rep.polytope)) + seeded_mixtures(
            rep.polytope, 10, 0)
        for m in states:
            table = oracles.integral_table(rep, m.values)
            assert len(table) == M.n
            for a in M.elements():
                assert table[a] == oracles.smearing_integral(
                    rep, function_of(rep, a), m), (name, M.label(a))
                checked += 1
    assert checked > 1000


def test_atom_integrals_match_the_reference_off_states():
    """The integer tables agree with the Fraction reference on weightings
    that are no states: negative values, values above 1, plain ints, mixed
    denominators, and mappings over the sharp elements alone."""
    instances = rdp_zoo() + [("boolean5", boolean(5)), ("boolean6", boolean(6)),
                             ("interval222", interval(2, 2, 2))]
    checked = 0
    for seed, (name, M) in enumerate(instances):
        rep = canonical_representation(M)
        sharp = sharp_elements(M)
        for full, restricted in oracles.sharp_weightings(M, sharp, 3, seed):
            expected = tuple(
                oracles.smearing_integral(rep, function_of(rep, a),
                                          SimpleNamespace(values=full))
                for a in M.elements())
            assert oracles.integral_table(rep, full) == expected, name
            assert oracles.integral_table(rep, restricted) == expected, name
            checked += 1
    assert checked == 3 * len(instances)


def test_atom_integrals_reject_a_non_measurable_integrand_every_time():
    """On the two-point tribe the middle layer is not constant on the one
    atom of B0; no half-built plan is kept, so a second call raises too."""
    C = chain(3)
    rep = make_representation(two_point_tribe(), C, (0, 1, 2, 3))
    for _ in range(2):
        with pytest.raises(NotMeasurable) as err:
            atom_plan(rep)
        assert err.value.what == "integrand"
        assert err.value.atom == [0, 1]


def test_fresh_states_never_share_an_integral():
    """States built and dropped in turn, with different values, each get
    their own integrals; a cache keyed on a bare id(state) would hand a
    dropped state's integrals to the next state given its id."""
    M = boolean(2)
    rep = canonical_representation(M)
    v0, v1 = (s.values for s in vertices(rep.polytope))
    x = make_observable(M, (0, 1), ("{1}", "{2}"))
    kernel = smear(rep, x)
    for k in range(40):
        t = F(k, 39)
        m = State(tuple(t * a + (1 - t) * b for a, b in zip(v0, v1)))
        table = oracles.integral_table(rep, m.values)
        for key, f in kernel_functions(rep, kernel).items():
            a = kernel.elements[key]
            expected = (m.values[x.element_at(key)]
                        - oracles.smearing_integral(rep, f, m))
            assert m.values[a] - table[a] == expected == 0, (k, key)
        del m, table        # frees the state's id for the next one


# ---------------------------------------------------------------------------
# kernel independence (the reference check in oracles)


def test_alternative_kernel_leaves_integrals_unchanged():
    B = boolean(2)
    rep = canonical_representation(B)
    ext = oracles.extend_carrier_with_null_point(rep, "null")
    kernel = smear(ext, make_observable(B, (0, 1), ("{1}", "{2}")))
    m = vertices(state_polytope(B))[0]
    # same kernel except at the null point, where anything goes
    assert oracles.kernel_independence_check(ext, kernel, m,
                                             {(0,): (Z, O, HALF)})
    assert oracles.kernel_independence_check(ext, kernel, m,
                                             {(0,): (Z, O, O)})


def test_illegitimate_alternatives_are_rejected():
    B = boolean(2)
    rep = canonical_representation(B)
    ext = oracles.extend_carrier_with_null_point(rep, "null")
    kernel = smear(ext, make_observable(B, (0, 1), ("{1}", "{2}")))
    m = vertices(state_polytope(B))[0]
    with pytest.raises(PreconditionFailed):     # not a member function
        oracles.kernel_independence_check(ext, kernel, m,
                                          {(0,): (HALF, F(1, 4), Z)})
    with pytest.raises(PreconditionFailed):     # member, wrong element
        oracles.kernel_independence_check(ext, kernel, m,
                                          {(0,): (Z, Z, Z)})

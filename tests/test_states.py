"""States: the polytope, its vertices, and the predicates around them.

Vertex tables for the small instances are frozen from an independent
basic-solution enumeration (see oracles.brute_vertices); a sample of
instances is additionally cross-checked against that oracle here so the
two routes stay in agreement.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from effecta import generate, state_polytope
from effecta.errors import SizeLimitExceeded
from effecta.algebra import atom_coordinates
from effecta.states import inseparable_pair

from oracles import (State, brute_vertices, convex_combination,
                     doctored_polytope, fraction_is_state, is_sigma_additive,
                     matrix_rank, raw_state_system, seeded_mixtures,
                     seeded_mixtures_reference, vertex_difference_rank,
                     vertices, x_space_vertices)
from zoo_instances import (boolean, chain, diamond, grid_pasting, interval,
                           mo2, mo3, non_rdp_zoo, product_of, rdp_zoo)

F = Fraction
Z = F(0)
O = F(1)


def values_of(polytope):
    return tuple(s.values for s in vertices(polytope))


def test_chain3_has_exactly_one_state():
    P = state_polytope(chain(3))
    assert P.dimension == 0
    assert values_of(P) == ((Z, F(1, 3), F(2, 3), O),)


def test_frozen_vertex_tables():
    # boolean 2^2, elements {}, {1}, {2}, {1,2}: the two evaluations at atoms
    assert values_of(state_polytope(boolean(2))) == (
        (Z, Z, O, O), (Z, O, Z, O))
    # horizontal sum of two four-element Boolean blocks: one 0/1 choice per block
    assert values_of(state_polytope(mo2())) == (
        (Z, O, Z, O, Z, O),
        (Z, O, Z, O, O, Z),
        (Z, O, O, Z, Z, O),
        (Z, O, O, Z, O, Z))
    # divisible two-chain product: a 0/1 vertex and a half-step vertex
    assert values_of(state_polytope(interval(1, 2))) == (
        (Z, Z, Z, O, O, O),
        (Z, F(1, 2), O, Z, F(1, 2), O))


def test_mo3_vertex_count_and_dimension():
    P = state_polytope(mo3())
    assert len(vertices(P)) == 8
    assert P.dimension == 3
    assert all(fraction_is_state(P.algebra, s).ok for s in vertices(P))


@pytest.mark.parametrize("make", [
    lambda: chain(5),
    lambda: boolean(2),
    lambda: mo2(),
    lambda: interval(1, 1, 2),
    lambda: product_of(("chain", 2), ("chain", 3)),
])
def test_vertices_match_basic_solution_oracle(make):
    M = make()
    P = state_polytope(M)
    rows, rhs = raw_state_system(M)
    assert sorted(values_of(P)) == brute_vertices(rows, rhs, M.n)


# chain7xchain7 is left out: the dense oracle takes seconds on its 594
# rows; the product-of-chains test below pins its vertices instead
ORACLE_ZOO = [(name, M) for name, M in rdp_zoo() + non_rdp_zoo()
              if name != "chain7xchain7"]


def assert_matches_the_x_space_oracle(M):
    """Vertices and dimension from the atom values against the raw
    element-space system (which agrees with brute_vertices below its cap,
    see test_acceptance), and the dimension against the dense rank."""
    P = state_polytope(M)
    expected = x_space_vertices(M)
    assert list(values_of(P)) == expected
    assert P.dimension == matrix_rank(
        [[a - b for a, b in zip(v, expected[0])] for v in expected[1:]])


@pytest.mark.parametrize("name,M", ORACLE_ZOO,
                         ids=[name for name, _ in ORACLE_ZOO])
def test_atom_route_matches_the_x_space_oracle(name, M):
    assert_matches_the_x_space_oracle(M)


_BLOCKS = st.sampled_from([("boolean", 2), ("chain", 2), ("chain", 3)])


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(st.one_of(
    st.builds(lambda blocks, b3: ("horizontal_sum", blocks + b3),
              st.lists(_BLOCKS, min_size=1, max_size=3),
              st.sampled_from([[], [("boolean", 3)]])),
    st.builds(lambda hs: ("product", [("chain", h) for h in hs]),
              st.lists(st.integers(1, 3), min_size=2, max_size=3)
              .filter(lambda hs: len(hs) == 2 or max(hs) < 3))))
def test_atom_route_matches_the_x_space_oracle_on_generated_algebras(spec):
    assert_matches_the_x_space_oracle(generate(spec))


@pytest.mark.parametrize("make", [
    lambda: boolean(4),
    lambda: interval(1, 1, 2),
    lambda: product_of(("chain", 3), ("chain", 4)),
    lambda: product_of(("chain", 7), ("chain", 7)),
])
def test_a_product_of_chains_has_the_coordinate_simplex(make):
    """The states of a product of chains are the mixtures of its k
    coordinate states, which give atom i the value 1/h_i and every other
    atom 0.  A state is fixed by its atom values, so this pins the
    vertices."""
    M = make()
    P = state_polytope(M)
    atoms, m = atom_coordinates(M)
    k = len(atoms)
    assert all(fraction_is_state(M, s).ok for s in vertices(P))
    assert sorted(tuple(s.values[a] for a in atoms) for s in vertices(P)) == \
        sorted(tuple(F(1, m[M.one][i]) if j == i else Z for j in range(k))
               for i in range(k))
    assert P.dimension == k - 1


def test_inseparable_pair_is_the_first_pair_valued_alike():
    for name, M in rdp_zoo() + non_rdp_zoo():
        P = state_polytope(M)
        states = vertices(P)
        alike = [(a, b) for b in M.elements() for a in range(b)
                 if all(s.values[a] == s.values[b] for s in states)]
        assert inseparable_pair(P) == next(iter(alike), None), name


def test_the_state_reference_names_each_violation_kind():
    """The Fraction predicate that the tests hold every vertex, mixture and
    extension to names the first constraint a vector breaks."""
    M = chain(3)
    third = F(1, 3)

    check = fraction_is_state(M, (Z, third, O))
    assert not check.ok and check.violation.kind == "length"
    assert check.violation.witness == (3, 4)

    check = fraction_is_state(M, (Z, F(-1, 3), F(2, 3), O))
    assert not check.ok and check.violation.kind == "range"
    assert check.violation.witness == ("1",)

    check = fraction_is_state(M, (Z, F(1, 4), F(1, 2), F(3, 4)))
    assert not check.ok and check.violation.kind == "one"
    assert check.violation.witness == ("3",)

    check = fraction_is_state(M, (Z, F(1, 4), F(2, 3), O))
    assert not check.ok and check.violation.kind == "additivity"
    assert check.violation.witness == ("1", "1", "2")

    assert fraction_is_state(M, (Z, third, 2 * third, O)).ok


def test_evaluate_and_separating():
    P = state_polytope(chain(3))
    assert [s.values[1] for s in vertices(P)] == [F(1, 3)]
    assert inseparable_pair(P) is None

    Q = state_polytope(boolean(2))
    assert [s.values[1] for s in vertices(Q)] == [Z, O]
    assert inseparable_pair(Q) is None


def test_diamond_states_do_not_separate():
    M = diamond()
    P = state_polytope(M)
    assert values_of(P) == ((Z, O, F(1, 2), F(1, 2)),)
    # the two middle elements are distinct but evaluate identically
    a, b = inseparable_pair(P)
    assert (a, b) == (2, 3)
    assert M.label(a) != M.label(b)
    assert [s.values[a] for s in vertices(P)] == [s.values[b]
                                                  for s in vertices(P)]


def test_empty_polytope_gates():
    M = chain(2)
    empty = doctored_polytope(M, [], -1)
    assert empty.is_empty
    with pytest.raises(ValueError):
        seeded_mixtures(empty, 3, seed=0)
    assert inseparable_pair(empty) == (0, 1)


def test_a_size_cap_is_met_again_on_every_call(monkeypatch):
    """The polytope is kept once solved, but an exception is not: with the
    box cap at 0 every call raises, and with it lifted the same algebra is
    solved."""
    M = boolean(2)
    monkeypatch.setattr("effecta.polytope.MAX_BOX_DIM", 0)
    for _ in range(2):
        with pytest.raises(SizeLimitExceeded):
            state_polytope(M)
    monkeypatch.undo()
    assert state_polytope(M) is state_polytope(M)
    assert state_polytope(M).dimension == 1


def test_convex_combination_values_and_weight_checks():
    s = State((Z, Z, O, O))
    t = State((Z, O, Z, O))
    mix = convex_combination([s, t], [F(1, 4), F(3, 4)])
    assert mix.values == (Z, F(3, 4), F(1, 4), O)
    with pytest.raises(ValueError):
        convex_combination([s, t], [F(1, 2), F(1, 4)])
    with pytest.raises(ValueError):
        convex_combination([s, t], [F(3, 2), F(-1, 2)])


def test_seeded_mixtures_deterministic_and_valid():
    M = mo2()
    P = state_polytope(M)
    first = seeded_mixtures(P, 10, seed=7)
    second = seeded_mixtures(P, 10, seed=7)
    assert first == second
    assert len(first) == 10
    assert all(fraction_is_state(M, s).ok for s in first)
    assert seeded_mixtures(P, 10, seed=8) != first


def _hsum_boolean2(k):
    return generate(("horizontal_sum", [("boolean", 2)] * k))


def test_dimension_is_the_rank_of_the_state_differences():
    """The dimension comes from the implicit equalities, the elements
    valued 0 or 1 at every vertex; the rank of the value-vector
    differences, by the dense oracle, must agree.  A horizontal sum of k
    boolean 2 blocks has 2**k vertices spanning dimension k."""
    for name, M in rdp_zoo() + non_rdp_zoo() + [("grid", grid_pasting())]:
        P = state_polytope(M)
        assert P.dimension == vertex_difference_rank(P), name
    for k in range(2, 11):
        P = state_polytope(_hsum_boolean2(k))
        assert (len(P.numerators), P.dimension) == (2 ** k, k)
        assert P.dimension == vertex_difference_rank(P), k


def test_the_grid_pasting_has_elements_every_state_values_0_or_1():
    """On the grid pasting the x_j are atoms that every state values 0, and
    each column's three grid atoms sum to an element every state values 1:
    implicit equalities besides the box.  Its states are the doubly
    stochastic matrices, so the six permutation matrices span
    dimension 4."""
    M = grid_pasting()
    P = state_polytope(M)
    states = vertices(P)
    constant = {M.label(a) for a in M.elements()
                if len({s.values[a] for s in states}) == 1
                and states[0].values[a] in (Z, O)}
    assert constant == {"0", "1", "x0", "x1", "x2", "g00+g10+g20",
                        "g01+g11+g21", "g02+g12+g22"}
    grid = [[M.index(f"g{i}{j}") for j in range(3)] for i in range(3)]
    permutations = [tuple(tuple(s.values[g] for g in row) for row in grid)
                    for s in states]
    assert len(set(permutations)) == 6
    assert all(sorted(map(sorted, (*p, *zip(*p)))) == [[Z, Z, O]] * 6
               for p in permutations)
    assert P.dimension == 4 == vertex_difference_rank(P)


MIXTURE_ZOO = rdp_zoo() + non_rdp_zoo() + [
    ("hsum3-boolean3", generate(("horizontal_sum", [("boolean", 3)] * 3)))]


@pytest.mark.parametrize("name,M", MIXTURE_ZOO,
                         ids=[name for name, _ in MIXTURE_ZOO])
def test_seeded_mixtures_match_the_fraction_reference(name, M):
    P = state_polytope(M)
    for seed in range(4):
        assert (seeded_mixtures(P, 10, seed)
                == seeded_mixtures_reference(P, 10, seed))


@settings(max_examples=25, deadline=None)
@given(st.lists(st.integers(min_value=1, max_value=9), min_size=2, max_size=2))
def test_mixtures_of_boolean2_vertices_are_states(raw):
    M = boolean(2)
    P = state_polytope(M)
    total = sum(raw)
    weights = [F(w, total) for w in raw]
    mix = convex_combination(vertices(P), weights)
    assert fraction_is_state(M, mix).ok


def test_sigma_additivity_on_a_finite_carrier():
    M = boolean(2)
    P = state_polytope(M)
    assert all(is_sigma_additive(M, s) for s in vertices(P))
    assert not is_sigma_additive(M, State((Z, O, O, O)))
    assert not fraction_is_state(M, State((Z, O, O, O))).ok


def test_sigma_additivity_is_state_validity():
    """Every vertex and seeded mixture of the zoo is a state, by the
    Fraction reference, and the sigma-additivity oracle, which also scans
    monotonicity, agrees.  The states suite reports no validity records:
    this is where vertex and mixture validity are checked."""
    checked = 0
    for name, M in rdp_zoo() + non_rdp_zoo():
        P = state_polytope(M)
        states = (list(vertices(P)) + seeded_mixtures(P, 10, seed=0)
                  + seeded_mixtures(P, 10, seed=3))
        for s in states:
            assert fraction_is_state(M, s).ok, name
            assert is_sigma_additive(M, s), name
            checked += 1
    assert checked == 514

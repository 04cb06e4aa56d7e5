"""The integer echelon form against the dense rref oracle, and the affine
solutions read off it certified directly against the equations they solve.

The Fraction systems are scaled to integer rows (``oracles.integer_row``)
and the solutions read off ``echelon`` in the shape of
``oracles.dense_solve_affine`` (``oracles.echelon_solve``)."""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import zoo_instances as zoo
from effecta import generate
from effecta.linalg import echelon
from oracles import (dense_rref, dense_solve_affine, echelon_solve,
                     integer_row, raw_state_system)

F = Fraction
Z, O = F(0), F(1)

# the four algebras of the benchmark's states-rows workload
STATES_ROWS = [
    ("chain7xchain7", ("product", [("chain", 7), ("chain", 7)])),
    ("interval333", ("interval", (3, 3, 3))),
    ("chain30", ("chain", 30)),
    ("interval223", ("interval", (2, 2, 3))),
]


def dot(row, x):
    return sum(a * v for a, v in zip(row, x))


def augmented(rows, rhs):
    return [integer_row([*row, b]) for row, b in zip(rows, rhs)]


def assert_reduced(basis):
    """Each row leads at its pivot with a positive entry, is gcd-reduced
    and is zero in every other pivot column."""
    for p, r in basis.items():
        assert next(c for c, x in enumerate(r) if x) == p
        assert r[p] > 0 and gcd(*r) == 1
        assert all(r[q] == 0 for q in basis if q != p)


def assert_matches_dense_rref(basis, rows):
    """The basis, each row divided by its pivot entry, is the dense rref."""
    dense = [[F(x) for x in row] for row in rows]
    pivots = dense_rref(dense)
    assert sorted(basis) == pivots
    for i, p in enumerate(pivots):
        assert [F(x, basis[p][p]) for x in basis[p]] == dense[i]


# chain7xchain7 is left out: the dense oracle takes seconds on its 594 rows
ZOO = [(name, M) for name, M in zoo.rdp_zoo() + zoo.non_rdp_zoo()
       if name != "chain7xchain7"]


@pytest.mark.parametrize("name,M", ZOO, ids=[name for name, _ in ZOO])
def test_sparse_solve_equals_the_dense_oracle_on_the_zoo(name, M):
    rows, rhs = raw_state_system(M)
    basis = echelon(augmented(rows, rhs))
    assert_reduced(basis)
    assert_matches_dense_rref(basis, augmented(rows, rhs))
    assert echelon_solve(rows, rhs) == dense_solve_affine(rows, rhs)


@pytest.mark.parametrize("name,spec", STATES_ROWS,
                         ids=[name for name, _ in STATES_ROWS])
def test_solution_certificates_on_the_large_state_systems(name, spec):
    rows, rhs = raw_state_system(generate(spec))
    assert_reduced(echelon(augmented(rows, rhs)))
    x0, dirs, free = echelon_solve(rows, rhs)
    assert all(dot(row, x0) == b for row, b in zip(rows, rhs))
    assert all(x0[f] == 0 for f in free)
    assert len(dirs) == len(free)
    for j, d in enumerate(dirs):
        assert all(dot(row, d) == 0 for row in rows)
        assert [d[f] for f in free] == [O if i == j else Z
                                        for i in range(len(free))]


def test_inconsistent_and_empty_systems():
    assert echelon([]) == {} == echelon([[0, 0, 0]])
    assert echelon_solve([], []) == dense_solve_affine([], []) == ([], [], [])
    assert echelon_solve([[O, O], [F(2), F(2)]], [O, O]) is None
    # 0 = 1 with no variables at all
    assert echelon([[1]]) == {0: [1]}
    assert echelon_solve([[]], [O]) is None
    assert echelon_solve([[Z, Z]], [Z]) == ([Z, Z], [[O, Z], [Z, O]], [0, 1])


@st.composite
def integer_systems(draw):
    n = draw(st.integers(min_value=1, max_value=8))
    m = draw(st.integers(min_value=1, max_value=12))
    entry = st.integers(min_value=-2, max_value=2)
    rows = [draw(st.lists(entry, min_size=n, max_size=n)) for _ in range(m)]
    rhs = draw(st.lists(entry, min_size=m, max_size=m))
    if draw(st.booleans()):
        # the sum of two rows with a right-hand side off by one: inconsistent
        i, j = draw(st.integers(0, m - 1)), draw(st.integers(0, m - 1))
        rows.append([a + b for a, b in zip(rows[i], rows[j])])
        rhs.append(rhs[i] + rhs[j] + 1)
    return ([[F(v) for v in row] for row in rows], [F(b) for b in rhs])


@settings(max_examples=60, deadline=None, derandomize=True)
@given(integer_systems(), st.data())
def test_sparse_solve_matches_dense_and_ignores_row_order(system, data):
    rows, rhs = system
    expected = dense_solve_affine([list(r) for r in rows], list(rhs))
    assert echelon_solve(rows, rhs) == expected
    basis = echelon(augmented(rows, rhs))
    assert_reduced(basis)
    assert_matches_dense_rref(basis, augmented(rows, rhs))

    order = data.draw(st.permutations(range(len(rows))))
    assert echelon(augmented([rows[i] for i in order],
                             [rhs[i] for i in order])) == basis
    repeats = data.draw(st.lists(st.integers(0, len(rows) - 1), max_size=6))
    assert echelon(augmented(rows + [rows[i] for i in repeats],
                             rhs + [rhs[i] for i in repeats])) == basis

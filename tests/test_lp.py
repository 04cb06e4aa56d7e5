"""Exact linear algebra and vertex enumeration, plus the reference simplex
and coordinate-bounding oracles that cross-check the extension certificate.

The library's echelon and cuts are integer; rational systems and cuts are
scaled to integers by ``oracles.integer_row`` and ``oracles.integer_cut``,
and the brute vertex oracle keeps the rational cuts."""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from effecta.linalg import echelon
from effecta.polytope import MAX_BOX_DIM, HalfSpace, enumerate_vertices
from effecta.errors import SizeLimitExceeded
from oracles import (box_vertices_brute, coordinate_bounds, dense_rref,
                     echelon_solve, integer_cut, integer_row, matrix_rank,
                     simplex_min)

F = Fraction
Z, O = F(0), F(1)


def fraction_vertices(d, cuts):
    """``enumerate_vertices`` on the rational cuts scaled to integers, as
    sorted Fraction points, the form the brute oracle gives, after checking
    that each homogeneous vertex is gcd-reduced with a positive
    denominator."""
    verts = enumerate_vertices(d, [integer_cut(c) for c in cuts])
    assert all(len(w) == d + 1 and w[-1] > 0 and gcd(*w) == 1 for w in verts)
    return sorted(tuple(F(n, w[-1]) for n in w[:-1]) for w in verts)


def test_rref_and_rank_basics():
    assert echelon([[2, 4], [1, 2]]) == {0: [1, 2]}
    assert echelon([[2, 4], [1, 2], [0, 3]]) == {0: [1, 0], 1: [0, 1]}
    assert echelon([[-2, 3], [4, 1]]) == {0: [1, 0], 1: [0, 1]}
    assert echelon([[0, -3, 6]]) == {1: [0, 1, -2]}    # positive pivot
    assert echelon([]) == {} and echelon([[0, 0]]) == {}
    rows = [[F(1), F(2)], [F(3), F(5)]]
    pivots = dense_rref(rows)              # reduces in place
    assert pivots == [0, 1]
    assert rows == [[O, Z], [Z, O]]


def test_solve_affine_point_line_and_inconsistent():
    # x + y = 1, x - y = 0  ->  unique point (1/2, 1/2)
    x0, dirs, free = echelon_solve([[O, O], [O, -O]], [O, Z])
    assert x0 == [F(1, 2), F(1, 2)] and dirs == [] and free == []
    # x + y = 1  ->  a line with one free parameter
    x0, dirs, free = echelon_solve([[O, O]], [O])
    assert len(dirs) == 1
    t = F(3, 7)
    pt = [x0[i] + t * dirs[0][i] for i in range(2)]
    assert pt[0] + pt[1] == O
    # inconsistent
    assert echelon_solve([[O, O], [O, O]], [O, F(2)]) is None


def test_solve_affine_matches_the_gauss_oracle():
    rows = [[F(1), F(2), F(0)], [F(0), F(1), F(1)], [F(1), F(0), F(-1)]]
    rhs = [F(3), F(2), F(0)]
    ours = echelon_solve(rows, rhs)
    theirs = oracles.gauss_solve(rows, rhs)
    assert ours is not None and theirs is not None
    assert ours[0] == theirs and ours[1] == []


def test_simplex_min_optimal_unbounded_infeasible():
    # min x + y subject to x >= 1, y >= 2 (as -x <= -1, -y <= -2)
    status, value, x = simplex_min([O, O], [[-O, Z], [Z, -O]], [-O, -F(2)])
    assert status == "optimal" and value == F(3) and x == [O, F(2)]
    # min -x with x unconstrained above
    status, value, x = simplex_min([-O], [[-O]], [Z])
    assert status == "unbounded"
    # x <= -1 and -x <= -1 is empty
    status, value, x = simplex_min([O], [[O], [-O]], [-O, -O])
    assert status == "infeasible"


def test_halfspace_slack_convention():
    # coeffs . t <= bound is the inside, with integer coefficients: a point
    # on the hyperplane stays, and negated data cut the opposite side
    assert enumerate_vertices(2, [HalfSpace((2, 2), 1)]) == [
        (0, 0, 1), (0, 1, 2), (1, 0, 2)]
    assert sorted(enumerate_vertices(2, [HalfSpace((-1, -1), -1)])) == [
        (0, 1, 1), (1, 0, 1), (1, 1, 1)]
    assert enumerate_vertices(0, [HalfSpace((), 0)]) == [(1,)]
    assert enumerate_vertices(0, [HalfSpace((), -1)]) == []


def test_vertex_enumeration_triangle_both_methods():
    cuts = [HalfSpace((O, O), O)]          # x + y <= 1 inside the unit box
    want = sorted([(Z, Z), (Z, O), (O, Z)])
    assert fraction_vertices(2, cuts) == want
    assert box_vertices_brute(2, cuts) == want


def test_vertex_enumeration_cube_and_degenerate_cut():
    assert len(fraction_vertices(3, [])) == 8
    # the zero-dimensional box is one point unless a constant cut fails
    assert fraction_vertices(0, [HalfSpace((), Z)]) == [()]
    assert fraction_vertices(0, [HalfSpace((), -O)]) == []
    # slicing the square exactly through two corners changes nothing
    cuts = [HalfSpace((O, -O), Z)]          # x <= y
    got = fraction_vertices(2, cuts)
    assert got == box_vertices_brute(2, cuts)
    assert (Z, Z) in got and (O, O) in got and (O, Z) not in got


def test_vertex_enumeration_crosses_an_edge_made_by_an_earlier_cut():
    # x + y <= 3/2 makes the edge (1, 1/2)-(1/2, 1); x <= 3/4 then crosses
    # it, which the adjacency test sees only through the first cut's bit
    h = F(1, 2)
    cuts = [HalfSpace((O, O), 3 * h), HalfSpace((O, Z), F(3, 4))]
    want = [(Z, Z), (Z, O), (h, O), (F(3, 4), Z), (F(3, 4), F(3, 4))]
    assert fraction_vertices(2, cuts) == box_vertices_brute(2, cuts) == want


rationals = st.builds(F, st.integers(-4, 4), st.integers(1, 3))


@st.composite
def cut_systems(draw):
    """A dimension d <= 5 and up to six cuts: fresh rational halfspaces,
    hyperplanes through box corners (small integer data), exact duplicates
    and loosened or rescaled copies of earlier cuts, so that degenerate
    vertices, redundant cuts and empty intersections all occur."""
    d = draw(st.integers(1, 5))
    cuts = []
    for _ in range(draw(st.integers(0, 6 if d < 5 else 4))):
        kind = draw(st.sampled_from(("fresh", "corner", "duplicate", "copy")))
        if kind == "fresh" or (kind in ("duplicate", "copy") and not cuts):
            cuts.append(HalfSpace(
                tuple(draw(rationals) for _ in range(d)), draw(rationals)))
        elif kind == "corner":
            cuts.append(HalfSpace(
                tuple(F(draw(st.integers(-1, 1))) for _ in range(d)),
                F(draw(st.integers(-1, 2)))))
        else:
            base = draw(st.sampled_from(cuts))
            if kind == "duplicate":
                cuts.append(base)
            else:
                scale = F(draw(st.integers(1, 3)), draw(st.integers(1, 3)))
                slack = F(draw(st.integers(0, 1)), 2)
                cuts.append(HalfSpace(tuple(scale * c for c in base.coeffs),
                                      scale * base.bound + slack))
    return d, cuts


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(cut_systems())
def test_vertex_enumeration_matches_the_brute_oracle(system):
    d, cuts = system
    assert fraction_vertices(d, cuts) == box_vertices_brute(d, cuts)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 5).flatmap(lambda n: st.lists(
    st.lists(rationals, min_size=n, max_size=n), max_size=8)))
def test_rank_matches_the_dense_oracle(rows):
    assert len(echelon(map(integer_row, rows))) == matrix_rank(rows)


def test_vertex_enumeration_dimension_guard():
    with pytest.raises(SizeLimitExceeded):
        enumerate_vertices(MAX_BOX_DIM + 1, [])


# ---------------------------------------------------------------------------
# coordinate bounds through an affine parametrization (test oracle)


def _b2_parametrization():
    """States of the four-element powerset algebra: values at
    ({}, {1}, {2}, {1,2}) are (0, t, 1-t, 1)."""
    x0 = [Z, Z, O, O]
    dirs = [[Z, O, -O, Z]]
    return x0, dirs


def test_coordinate_bounds_unpinned_spans_the_segment():
    x0, dirs = _b2_parametrization()
    bounds = coordinate_bounds(x0, dirs, [], [])
    assert bounds[0] == (Z, Z)
    assert bounds[1] == (Z, O)
    assert bounds[2] == (Z, O)
    assert bounds[3] == (O, O)


def test_coordinate_bounds_composes_pins_through_the_parametrization():
    # regression: pins constrain x-space coordinates, not raw parameters;
    # they must be rewritten in parameter space before solving
    x0, dirs = _b2_parametrization()
    pin = [[Z, O, Z, Z]]                    # x_1 = 1/4
    bounds = coordinate_bounds(x0, dirs, pin, [F(1, 4)])
    assert bounds[1] == (F(1, 4), F(1, 4))
    assert bounds[2] == (F(3, 4), F(3, 4))
    assert bounds[0] == (Z, Z) and bounds[3] == (O, O)


def test_coordinate_bounds_full_pins_give_a_point():
    x0, dirs = _b2_parametrization()
    pins = [[O, Z, Z, Z], [Z, O, Z, Z], [Z, Z, O, Z], [Z, Z, Z, O]]
    rhs = [Z, F(1, 4), F(3, 4), O]
    bounds = coordinate_bounds(x0, dirs, pins, rhs)
    assert [b[0] for b in bounds] == [Z, F(1, 4), F(3, 4), O]
    assert all(lo == hi for lo, hi in bounds)


def test_coordinate_bounds_infeasible_pin_returns_none():
    x0, dirs = _b2_parametrization()
    assert coordinate_bounds(x0, dirs, [[O, Z, Z, Z]], [F(1, 2)]) is None
    # x_1 = 2 is outside the box even though the line allows it
    assert coordinate_bounds(x0, dirs, [[Z, O, Z, Z]], [F(2)]) is None


def test_coordinate_bounds_fixed_point_without_directions():
    bounds = coordinate_bounds([F(1, 3), F(2, 3)], [], [], [])
    assert bounds == [(F(1, 3), F(1, 3)), (F(2, 3), F(2, 3))]
    # a pin that contradicts the fixed point
    assert coordinate_bounds([F(1, 3)], [], [[O]], [F(1, 2)]) is None


def test_brute_vertex_oracle_on_a_square_slice():
    # x + y = 1 inside [0,1]^2: the two endpoint vertices
    rows = [[O, O]]
    rhs = [O]
    assert oracles.brute_vertices(rows, rhs, 2) == [(Z, O), (O, Z)]
    with pytest.raises(ValueError):
        oracles.brute_vertices([], [], 13)

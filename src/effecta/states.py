"""States on a finite effect algebra, and their polytope.

A state assigns a rational in [0,1] to every element, sends the unit to 1
and is additive across every defined sum.  The set of all states is a
polytope cut out by those equations inside the unit box; its vertices (the
extremal states) are enumerated exactly and listed in lexicographic order
of their value vectors, which fixes a canonical carrier order for the
representation machinery.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from operator import mul
from typing import Sequence

from .algebra import EffectAlgebra
from .errors import EmptyStateSpace
from .linalg import rank, solve_affine
from .polytope import HalfSpace, enumerate_vertices

ZERO = Fraction(0)
ONE = Fraction(1)


@dataclass(frozen=True)
class State:
    """Value vector aligned with the element ids of its algebra."""
    values: tuple[Fraction, ...]


@dataclass(frozen=True)
class StateViolation:
    kind: str          # "length" | "range" | "one" | "additivity"
    witness: tuple


@dataclass(frozen=True)
class StateCheck:
    ok: bool
    violation: StateViolation | None


class StatePolytope:
    """The extremal states and the rank of their differences (the
    dimension; -1 when there are no states)."""

    def __init__(self, algebra, vertices, dimension):
        self.algebra: EffectAlgebra = algebra
        self.vertices: tuple[State, ...] = vertices
        self.dimension: int = dimension

    @property
    def is_empty(self) -> bool:
        return not self.vertices

    def __repr__(self) -> str:  # pragma: no cover
        return f"StatePolytope(vertices={len(self.vertices)}, dim={self.dimension})"


def build_state_equalities(M: EffectAlgebra) -> tuple[list[list[Fraction]], list[Fraction]]:
    """One row per defined sum (s(a) + s(b) - s(a+b) = 0) plus s(1) = 1,
    with duplicate rows removed."""
    n = M.n
    rows: list[list[Fraction]] = []
    rhs: list[Fraction] = []
    seen = set()
    for a, b, c in M.defined_sums():
        row = [ZERO] * n
        row[a] += ONE
        row[b] += ONE
        row[c] -= ONE
        key = tuple(row)
        if any(x != 0 for x in key) and key not in seen:
            seen.add(key)
            rows.append(row)
            rhs.append(ZERO)
    unit = [ZERO] * n
    unit[M.one] = ONE
    rows.append(unit)
    rhs.append(ONE)
    return rows, rhs


def state_polytope(M: EffectAlgebra) -> StatePolytope:
    """The states solve the equalities as x = x0 + sum_j t_j dirs[j], so the
    polytope is the part of the parameter box where every dependent
    coordinate lies in [0,1].  Its vertices are mapped back to x over one
    common denominator, and its dimension is the rank of the parameter
    differences: the map is affine and injective (direction j has a 1 in its
    own free column), so that is the rank of the state differences."""
    rows, rhs = build_state_equalities(M)
    sol = solve_affine(rows, rhs)
    if sol is None:
        return StatePolytope(M, (), -1)
    x0, dirs, free = sol
    d = len(free)

    if d == 0:
        feasible = all(ZERO <= v <= ONE for v in x0)
        states = (State(tuple(x0)),) if feasible else ()
        return StatePolytope(M, states, 0 if feasible else -1)

    cuts = []
    dependent = [i for i in range(M.n) if i not in free]
    for i in dependent:
        coeffs = tuple(dv[i] for dv in dirs)
        if all(x == 0 for x in coeffs):
            if not (ZERO <= x0[i] <= ONE):
                return StatePolytope(M, (), -1)
            continue
        cuts.append(HalfSpace(coeffs, ONE - x0[i]))                  # x_i <= 1
        cuts.append(HalfSpace(tuple(-x for x in coeffs), x0[i]))     # x_i >= 0
    tverts = enumerate_vertices(d, cuts)
    if not tverts:
        return StatePolytope(M, (), -1)

    # x_i = (X0_i + sum_j D_ji T_j) / (scale * tscale), all four integers
    scale = lcm(*(v.denominator for v in x0),
                *(v.denominator for dv in dirs for v in dv))
    tscale = lcm(*(t.denominator for tv in tverts for t in tv))
    X0 = [v.numerator * (scale // v.denominator) * tscale for v in x0]
    D = [[(j, dv[i].numerator * (scale // dv[i].denominator))
          for j, dv in enumerate(dirs) if dv[i]] for i in range(M.n)]
    T = [[t.numerator * (tscale // t.denominator) for t in tv]
         for tv in tverts]
    numerators = sorted(
        tuple(X0[i] + sum(c * Tt[j] for j, c in D[i])
              for i in range(M.n))
        for Tt in T)
    den = scale * tscale
    states = tuple(State(tuple(Fraction(v, den) for v in num))
                   for num in numerators)
    dim = rank([[a - b for a, b in zip(Tt, T[0])] for Tt in T[1:]])
    return StatePolytope(M, states, dim)


# ---------------------------------------------------------------------------
# predicates


def is_state(M: EffectAlgebra, values: Sequence[Fraction] | State) -> StateCheck:
    """Exact check; the first violated constraint is reported."""
    if isinstance(values, State):
        values = values.values
    if len(values) != M.n:
        return StateCheck(False, StateViolation("length", (len(values), M.n)))
    vals = [Fraction(v) for v in values]
    for a, v in enumerate(vals):
        if v < 0 or v > 1:
            return StateCheck(False, StateViolation("range", (M.label(a),)))
    if vals[M.one] != 1:
        return StateCheck(False, StateViolation("one", (M.label(M.one),)))
    for a, b, c in M.defined_sums():
        if vals[a] + vals[b] != vals[c]:
            return StateCheck(False, StateViolation(
                "additivity", (M.label(a), M.label(b), M.label(c))))
    return StateCheck(True, None)


def separating(polytope: StatePolytope) -> bool:
    """Do the extremal states distinguish every pair of elements?"""
    if polytope.is_empty:
        return False
    n = polytope.algebra.n
    vectors = {tuple(s.values[a] for s in polytope.vertices) for a in range(n)}
    return len(vectors) == n


# ---------------------------------------------------------------------------
# seeded mixtures


def seeded_mixtures(polytope: StatePolytope, count: int, seed: int) -> list[State]:
    """Deterministic rational mixtures of the vertices; the same seed always
    produces the same list."""
    if polytope.is_empty:
        raise EmptyStateSpace("cannot mix vertices of an empty polytope")
    rng = random.Random(seed)
    k = len(polytope.vertices)
    # value_i = sum_k raw_k * N_k,i / (total * scale), N the integer numerators
    scale = lcm(*(v.denominator for s in polytope.vertices for v in s.values))
    columns = list(zip(*([v.numerator * (scale // v.denominator)
                          for v in s.values] for s in polytope.vertices)))
    out = []
    for _ in range(count):
        raw = [rng.randint(1, 10) for _ in range(k)]
        den = sum(raw) * scale
        out.append(State(tuple(Fraction(sum(map(mul, raw, col)), den)
                               for col in columns)))
    return out

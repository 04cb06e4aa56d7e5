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
    rows, rhs = build_state_equalities(M)
    sol = solve_affine(rows, rhs)
    if sol is None:
        return StatePolytope(M, (), -1)
    x0, dirs, free = sol
    d = len(free)

    if d == 0:
        feasible = all(ZERO <= v <= ONE for v in x0)
        verts = [tuple(x0)] if feasible else []
    else:
        cuts = []
        dependent = [i for i in range(M.n) if i not in free]
        empty = False
        for i in dependent:
            coeffs = tuple(dv[i] for dv in dirs)
            if all(x == 0 for x in coeffs):
                if not (ZERO <= x0[i] <= ONE):
                    empty = True
                    break
                continue
            cuts.append(HalfSpace(coeffs, ONE - x0[i]))                  # x_i <= 1
            cuts.append(HalfSpace(tuple(-x for x in coeffs), x0[i]))     # x_i >= 0
        if empty:
            verts = []
        else:
            tverts = enumerate_vertices(d, cuts)
            verts = sorted(
                tuple(x0[i] + sum(t[j] * dirs[j][i] for j in range(d))
                      for i in range(M.n))
                for t in tverts
            )

    states = tuple(State(tuple(v)) for v in verts)
    if states:
        v0 = states[0].values
        dim = rank([[a - b for a, b in zip(s.values, v0)] for s in states[1:]])
    else:
        dim = -1
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
# convex combinations


def convex_combination(states: Sequence[State], weights: Sequence[Fraction]) -> State:
    total = sum(weights, start=ZERO)
    if total != 1 or any(w < 0 for w in weights):
        raise ValueError("weights must be nonnegative and sum to one")
    n = len(states[0].values)
    return State(tuple(
        sum((w * s.values[i] for w, s in zip(weights, states)), start=ZERO)
        for i in range(n)))


def seeded_mixtures(polytope: StatePolytope, count: int, seed: int) -> list[State]:
    """Deterministic rational mixtures of the vertices; the same seed always
    produces the same list."""
    if polytope.is_empty:
        raise EmptyStateSpace("cannot mix vertices of an empty polytope")
    rng = random.Random(seed)
    out = []
    k = len(polytope.vertices)
    for _ in range(count):
        raw = [rng.randint(1, 10) for _ in range(k)]
        total = sum(raw)
        weights = [Fraction(w, total) for w in raw]
        out.append(convex_combination(polytope.vertices, weights))
    return out

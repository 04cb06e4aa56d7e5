"""States on a finite effect algebra, and their polytope.

A state assigns a rational in [0,1] to every element, sends the unit to 1
and is additive across every defined sum.  Every element is a sum of atoms,
so a state is fixed by its values on the atoms, and the set of all states
is a polytope in those few coordinates: cut out by one equation per
distinct defined sum and by 0 <= s(x) <= 1.  Its vertices (the extremal
states) are enumerated exactly and listed in lexicographic order of their
value vectors, which fixes a canonical carrier order for the
representation machinery.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import lcm
from operator import mul
from typing import NamedTuple, Sequence

from .algebra import EffectAlgebra, atom_coordinates
from .errors import EmptyStateSpace
from .linalg import over_common_denominator, rank, solve_affine
from .polytope import HalfSpace, enumerate_vertices


class State(NamedTuple):
    """Value vector aligned with the element ids of its algebra."""
    values: tuple[Fraction, ...]


class StateViolation(NamedTuple):
    kind: str          # "length" | "range" | "one" | "additivity"
    witness: tuple


class StateCheck(NamedTuple):
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


def state_polytope(M: EffectAlgebra) -> StatePolytope:
    """A state is fixed by its values t on the atoms: s(x) = m(x) . t for
    the integer vectors m of :func:`atom_coordinates`.  So the states are
    the t with (m(a) + m(b) - m(a+b)) . t = 0 for every defined sum,
    m(1) . t = 1 and every m(x) . t in [0,1].  The equalities give
    t = t0 + sum_j u_j dirs[j], u_j the value of free atom j, so the
    polytope is the part of the box [0,1]^d where every other element's
    value lies in [0,1].  u -> x is affine and injective, so the dimension
    is the rank of the parameter differences."""
    atoms, m = atom_coordinates(M)
    rows = {tuple(p + q - r for p, q, r in zip(m[a], m[b], m[c]))
            for a, b, c in M.defined_sums()} - {(0,) * len(atoms)}
    sol = solve_affine([list(map(Fraction, row)) for row in (*rows, m[M.one])],
                       [Fraction(0)] * len(rows) + [Fraction(1)])
    if sol is None:
        return StatePolytope(M, (), -1)
    t0, dirs, free = sol
    d = len(free)

    # x = (X0 + sum_j D_j u_j) / scale with an integer form (X0, D_0, ...)
    # per element; a cut that holds on the whole box is left out, so a free
    # atom (form (0, scale e_j)) adds none, and a constant adds one only
    # when it lies outside [0,1], which leaves no vertex
    scale = lcm(*(v.denominator for col in (t0, *dirs) for v in col))
    per_atom = [tuple(v.numerator * (scale // v.denominator) for v in col)
                for col in zip(t0, *dirs)]
    forms = [tuple(sum(c * col[j] for c, col in zip(mx, per_atom))
                   for j in range(d + 1)) for mx in m]
    cuts = {}
    for x0, *coeffs in dict.fromkeys(forms):
        for cut in ((tuple(coeffs), scale - x0),                  # x <= 1
                    (tuple(-c for c in coeffs), x0)):             # x >= 0
            if sum(c for c in cut[0] if c > 0) > cut[1]:
                cuts[cut] = None
    tverts = enumerate_vertices(d, [HalfSpace(*cut) for cut in cuts])
    if not tverts:
        return StatePolytope(M, (), -1)

    # x_i = form_i . (tscale, T) / (scale * tscale), all integers, with
    # each homogeneous vertex (numerators..., w) rescaled to w = tscale; the
    # vertices (tscale, T) share their first entry, so the rank of their
    # differences is one less than their rank
    tscale = lcm(*(w[-1] for w in tverts))
    T = [(tscale, *(t * (tscale // w[-1]) for t in w[:-1])) for w in tverts]
    sparse = [[(j, c) for j, c in enumerate(form) if c] for form in forms]
    numerators = sorted(tuple(sum(c * Tt[j] for j, c in terms)
                              for terms in sparse) for Tt in T)
    den = scale * tscale
    states = tuple(State(tuple(Fraction(v, den) for v in num))
                   for num in numerators)
    dim = rank(T) - 1
    return StatePolytope(M, states, dim)


# ---------------------------------------------------------------------------
# predicates


def is_state(M: EffectAlgebra, values: Sequence[Fraction] | State) -> StateCheck:
    """Exact check; the first violated constraint is reported.

    The values are compared as integer numerators over one common
    denominator, so each is converted to a Fraction at most once."""
    if isinstance(values, State):
        values = values.values
    if len(values) != M.n:
        return StateCheck(False, StateViolation("length", (len(values), M.n)))
    vals = [v if type(v) is Fraction else Fraction(v) for v in values]
    n, den = over_common_denominator(vals)
    for a, v in enumerate(n):
        if v < 0 or v > den:
            return StateCheck(False, StateViolation("range", (M.label(a),)))
    if n[M.one] != den:
        return StateCheck(False, StateViolation("one", (M.label(M.one),)))
    for a, b, c in M.defined_sums():
        if n[a] + n[b] != n[c]:
            return StateCheck(False, StateViolation(
                "additivity", (M.label(a), M.label(b), M.label(c))))
    return StateCheck(True, None)


def inseparable_pair(polytope: StatePolytope) -> tuple[int, int] | None:
    """The first two elements that every extremal state values alike, in
    the order the second one is met; None when the states separate.  With
    no states every element is valued alike, so the pair is ids 0 and 1."""
    seen: dict[tuple, int] = {}
    for a in range(polytope.algebra.n):
        first = seen.setdefault(tuple(s.values[a] for s in polytope.vertices),
                                a)
        if first != a:
            return first, a
    return None


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

"""States on a finite effect algebra, and their polytope.

A state assigns a rational in [0,1] to every element, sends the unit to 1
and is additive across every defined sum.  Every element is a sum of atoms,
so a state is fixed by its values on the atoms, and the set of all states
is a polytope in those few coordinates: cut out by one equation per
distinct defined sum and by 0 <= s(x) <= 1.  Its vertices (the extremal
states) are enumerated exactly and listed in lexicographic order of their
value vectors, which fixes a canonical carrier order for the
representation machinery.

The polytope is solved once per algebra (see ``algebra.once``) and holds
its vertices as one integer matrix over one common denominator, and
nothing else: non-emptiness, separation, the dimension (see
:func:`state_polytope`), the states the gated suites evaluate, and the
canonical representation's member rows all read those integers.  The
gated suites evaluate the vertices alone: the identities they check are
linear in the state, and every state is a convex combination of the
vertices, so an identity that holds at every vertex holds at every state.
No state is taken from a caller, so none is checked here: the tests check
the vertices with a Fraction state predicate of their own.
"""

from __future__ import annotations

from math import lcm

from .algebra import EffectAlgebra, atom_coordinates, once
from .linalg import echelon
from .polytope import HalfSpace, enumerate_vertices


class StatePolytope:
    """The extremal states as one integer matrix: row i of ``numerators``
    holds the values of vertex i times ``den``, and the rows are in
    lexicographic order.  ``dimension`` is the polytope's (-1 when there
    are no states)."""

    def __init__(self, algebra, numerators, den, dimension):
        self.algebra: EffectAlgebra = algebra
        self.numerators: tuple[tuple[int, ...], ...] = numerators
        self.den: int = den
        self.dimension: int = dimension

    @property
    def is_empty(self) -> bool:
        return not self.numerators

    def __repr__(self) -> str:  # pragma: no cover
        return (f"StatePolytope(vertices={len(self.numerators)}, "
                f"dim={self.dimension})")


@once
def state_polytope(M: EffectAlgebra) -> StatePolytope:
    """The state polytope of M.  A state is fixed by its values t on the
    atoms: s(x) = m(x) . t for the integer vectors m of
    :func:`atom_coordinates`.  So the states are the t with
    (m(a) + m(b) - m(a+b)) . t = 0 for every defined sum, m(1) . t = 1 and
    every m(x) . t in [0,1].  The integer echelon form of the equalities,
    with the constant in column k, gives t = t0 + sum_j u_j dirs[j], u_j
    the value of free atom j, so the polytope is
    P = {u : 0 <= s_x(u) <= 1 for every element x}; the box of the free
    atoms is among these constraints, since free atoms are elements.

    The dimension is d minus the rank of the implicit equalities, the
    constraints tight on all of P (Schrijver 1986, section 8.2).  P is the
    convex hull of its vertices, so a constraint is tight on all of P
    exactly when it is tight at every vertex: the implicit equalities are
    the linear parts of the elements valued 0 at every vertex or 1 at
    every vertex.  An element valued 1 everywhere has its complement
    valued 0 everywhere, with the opposite linear part (s(x') = 1 - s(x)),
    so the elements valued 0 at every vertex carry the whole rank."""
    atoms, m = atom_coordinates(M)
    k = len(atoms)
    rows = {(*(p + q - r for p, q, r in zip(m[a], m[b], m[c])), 0)
            for a, b, c in M.defined_sums()}
    basis = echelon((*rows, (*m[M.one], 1)))
    if k in basis:                      # a pivot in the constant column
        return StatePolytope(M, (), 1, -1)
    free = [j for j in range(k) if j not in basis]
    d = len(free)

    # x = (X0 + sum_j D_j u_j) / scale with an integer form (X0, D_0, ...)
    # per element; pivot atom p of row r is (r[k] - sum_j r[free_j] u_j) /
    # r[p], a free atom (form (0, scale e_j)) adds no cut, since a cut that
    # holds on the whole box is left out, and a constant adds one only
    # when it lies outside [0,1], which leaves no vertex
    scale = lcm(*(r[p] for p, r in basis.items()))
    per_atom = [
        tuple(scale // r[j] * v for v in (r[k], *(-r[f] for f in free)))
        if (r := basis.get(j)) else (0, *(scale * (f == j) for f in free))
        for j in range(k)]
    forms = [tuple(sum(c * col[j] for c, col in zip(mx, per_atom))
                   for j in range(d + 1)) for mx in m]
    cuts = {}
    for x0, *coeffs in dict.fromkeys(forms):
        for cut in (HalfSpace(tuple(coeffs), scale - x0),          # x <= 1
                    HalfSpace(tuple(-c for c in coeffs), x0)):     # x >= 0
            if sum(c for c in cut.coeffs if c > 0) > cut.bound:
                cuts[cut] = None
    tverts = enumerate_vertices(d, list(cuts))
    if not tverts:
        return StatePolytope(M, (), 1, -1)

    # x = (X0 * tscale + D . T) / (scale * tscale), all integers, with each
    # homogeneous vertex (numerators..., w) rescaled to (T, tscale); one
    # column of numerators per distinct form, one pass per nonzero D_j
    tscale = lcm(*(w[-1] for w in tverts))
    tcols = [[w[j] * (tscale // w[-1]) for w in tverts] for j in range(d)]
    den = scale * tscale
    columns = {}
    for form in dict.fromkeys(forms):
        col = [form[0] * tscale] * len(tverts)
        for c, tcol in zip(form[1:], tcols):
            if c:
                col = [x + c * t for x, t in zip(col, tcol)]
        columns[form] = col
    numerators = tuple(sorted(zip(*map(columns.__getitem__, forms))))
    tight = [form[1:] for form, col in columns.items() if not any(col)]
    return StatePolytope(M, numerators, den, d - len(echelon(tight)))


# ---------------------------------------------------------------------------
# separation


def inseparable_pair(polytope: StatePolytope) -> tuple[int, int] | None:
    """The first two elements that every extremal state values alike, in
    the order the second one is met; None when the states separate.  With
    no states every element is valued alike, so the pair is ids 0 and 1."""
    if polytope.is_empty:
        return 0, 1
    seen: dict[tuple[int, ...], int] = {}
    for a, column in enumerate(zip(*polytope.numerators)):
        first = seen.setdefault(column, a)
        if first != a:
            return first, a
    return None


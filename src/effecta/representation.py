"""Function-algebra representations of a finite effect algebra.

A representation carries the algebra onto a system of rational fuzzy
functions over a finite point set.  The canonical one is built by
evaluation: every element becomes its vector of values on the extremal
states, read as integers off the state polytope's numerators over its one
denominator, and one order check certifies that these vectors form an
effect-tribe and that h, which sends each vector back to its element, is
an isomorphism.  This module also computes the sharp-set sigma-algebra B0
of the function system; on the canonical representation B0 is the power
set of the carrier and h maps it onto the sharp elements (see
:func:`compute_b0`), which makes the smearing and spectral machinery sound.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple, Sequence

from .algebra import EffectAlgebra, check_rdp, once, sharp_elements
from .errors import PreconditionFailed, RdpRequired, TheoremViolation
from .states import StatePolytope, state_polytope


# ---------------------------------------------------------------------------
# representations


class Representation:
    """A system of fuzzy functions on a carrier, with h a sum-preserving
    surjection onto the target algebra.  ``evaluation`` holds the member
    functions as integer rows over one denominator, lexicographically
    sorted, which fixes every later iteration order; h sends row i to its
    element.  Closure under pointwise limits of monotone sequences is
    automatic: a monotone sequence drawn from a finite set is eventually
    constant.  The constructor checks that h is onto, so every element of
    the target has a first preimage."""

    def __init__(self, carrier: Sequence[str], evaluation: tuple[tuple, int],
                 target: EffectAlgebra, h: Sequence[int],
                 polytope: StatePolytope | None = None):
        self.carrier = tuple(carrier)
        self.evaluation = evaluation
        self.target = target
        self.h = tuple(h)
        self.polytope = polytope
        self.sharp = frozenset(sharp_elements(target).members)
        self._first_preimage: dict[int, int] = {}
        for i, a in enumerate(self.h):
            self._first_preimage.setdefault(a, i)
        for a in target.elements():
            if a not in self._first_preimage:
                raise PreconditionFailed(
                    f"element {target.label(a)} has no preimage")
        self._memo: dict = {}

    def row_of(self, a: int) -> tuple[int, ...]:
        """The integer row of the first member mapping to a."""
        return self.evaluation[0][self._first_preimage[a]]

    def b0(self) -> "SigmaAlgebraB0":
        return compute_b0(self)


@once
def canonical_representation(M: EffectAlgebra) -> Representation:
    """Evaluate every element on the extremal states.

    The carrier is the vertex list of the state polytope in its canonical
    order; the function system is exactly the evaluation vectors; h sends
    each evaluation back to its element.  The one gate, the refinement
    property, comes before the states are solved; past it one order check
    certifies the build (see :func:`_evaluation_representation`).
    """
    rdp = check_rdp(M)
    if not rdp.holds:
        raise RdpRequired(rdp.witness_labels())
    return _evaluation_representation(M, state_polytope(M))


def _evaluation_representation(M: EffectAlgebra,
                               P: StatePolytope) -> Representation:
    """The evaluation vectors ev(a) = (s(a) for s in the vertices), the
    columns of the vertices' numerators over their one denominator, sorted
    lexicographically, with h sending each back to its element.

    One check certifies the build: ev(b) <= ev(a) pointwise exactly when
    b <= a in M.  The vertices are states, so ev is additive and
    ev(a') = 1 - ev(a).  With the orders equal, ev(a) + ev(b) <= 1 <=>
    ev(a) <= ev(b') <=> a <= b' <=> a + b is defined, and then
    ev(a + b) = ev(a) + ev(b): the vectors are closed under sums and h
    preserves them.  Complements, h(0) = 0 and h(1) = 1 follow from the
    state laws.  Below each element, the pointwise down-set is the AND
    over the vertices of the elements valued at most as high there; the
    vertices' integer numerators share one denominator, so they order the
    elements as the values do.

    The check also rejects an empty or non-separating vertex list, so
    neither needs a gate: with no vertices the down-set of zero is every
    element; if a != b have equal columns, each lies pointwise below the
    other, and by antisymmetry at least one of their down-sets differs
    from ``down_mask`` (on chain 2: "order below 0" for no vertices,
    "order below 1" for the one vertex (0, 1, 1))."""
    below = [(1 << M.n) - 1] * M.n
    for row in P.numerators:
        at_value: dict[int, int] = {}
        for a, v in enumerate(row):
            at_value[v] = at_value.get(v, 0) | 1 << a
        upto, acc = {}, 0
        for v in sorted(at_value):
            acc |= at_value[v]
            upto[v] = acc
        below = [mask & upto[v] for mask, v in zip(below, row)]
    for a, mask in enumerate(below):
        if mask != M.down_mask(a):
            raise TheoremViolation(
                "the pointwise order on the extremal states differs from "
                f"the algebra's order below {M.label(a)}")
    columns = list(zip(*P.numerators))
    h = sorted(M.elements(), key=columns.__getitem__)
    rows = tuple(columns[a] for a in h)
    carrier = [f"s{i}" for i in range(len(P.numerators))]
    return Representation(carrier, (rows, P.den), M, h, P)


# ---------------------------------------------------------------------------
# the sharp-set sigma-algebra


class SigmaAlgebraB0(NamedTuple):
    """Subsets whose characteristic functions are sharp members, and the
    sharp observable xi on them.

    In the pointwise order min(chi_A, 1 - chi_A) = 0, so no nonzero member
    lies below both chi_A and its complement: every characteristic member
    is sharp.  The sets are therefore exactly the A with chi_A among the
    members, the keys of ``xi``, which maps each A to h of the first member
    equal to chi_A.
    Each atom is the intersection of all members containing one of its
    points; the atoms partition the carrier when the sets are closed under
    complement, as on the canonical representation.
    """

    atoms: tuple[frozenset[int], ...]
    xi: dict[frozenset[int], int]


def _sorted_sets(family: Iterable[frozenset[int]]) -> tuple[frozenset[int], ...]:
    return tuple(sorted(family, key=lambda A: (len(A), sorted(A))))


@once
def compute_b0(rep: Representation) -> SigmaAlgebraB0:
    """The characteristic members, xi on them and their per-point atoms.

    On the canonical representation no sigma-law needs a scan.  Past the
    refinement gate the target is a certified product of chains
    prod C_{h_i} with k factors, so a state is a vector t >= 0 on the k
    atoms with sum t_i h_i = 1, and the extremal states are the k
    coordinate states s_i = m_i / h_i: the carrier has k points.  The
    corner c_S with m(c_S)_i = h_i for i in S and 0 elsewhere evaluates to
    chi_S.  So B0 is the whole power set of the carrier, its atoms are the
    singletons, and every member is constant on them.  xi maps S to c_S,
    and the corners are exactly ``sharp_elements(M).members``, so xi maps
    B0 onto the sharp elements, and the separating states make it
    one-to-one.  On a hand-built representation the family may fail the
    laws, and the atoms are still the intersections of the members through
    a point.
    """
    rows, den = rep.evaluation
    xi: dict[frozenset[int], int] = {}
    for row, a in zip(rows, rep.h):
        if set(row) <= {0, den}:
            xi.setdefault(frozenset(i for i, v in enumerate(row) if v), a)
    full = frozenset(range(len(rep.carrier)))
    atoms = {full.intersection(*(A for A in xi if i in A)) for i in full}
    return SigmaAlgebraB0(_sorted_sets(atoms), xi)

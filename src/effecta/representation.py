"""Function-algebra representations of a finite effect algebra.

A representation carries the algebra onto a system of rational fuzzy
functions over a finite point set.  The canonical one is built by
evaluation: every element becomes its vector of values on the extremal
states, and one order check certifies that these vectors form an
effect-tribe and that h, which sends each vector back to its element, is
an isomorphism.  This module also computes the sharp-set sigma-algebra of
the function system and checks the sharp-image characterization that
makes the smearing and spectral machinery sound.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from typing import Iterable, NamedTuple, Sequence

from .algebra import EffectAlgebra, check_rdp, sharp_elements
from .errors import (
    EmptyStateSpace,
    NonSeparatingStates,
    NotASigmaAlgebra,
    PreconditionFailed,
    RdpRequired,
    SizeLimitExceeded,
    TheoremViolation,
)
from .states import StatePolytope, inseparable_pair, state_polytope

ZERO = Fraction(0)
ONE = Fraction(1)

MAX_CARRIER = 16      # subset scans are exponential in the carrier size

FnValues = tuple[Fraction, ...]


def _fmt(values: Iterable[Fraction]) -> str:
    return "(" + ",".join(str(v) for v in values) + ")"


# ---------------------------------------------------------------------------
# effect-tribes


class EffectTribe:
    """A finite system of fuzzy functions closed under the effect operations.

    ``functions`` is sorted lexicographically, which fixes every later
    iteration order.  Closure under pointwise limits of monotone sequences
    is automatic here: a monotone sequence drawn from a finite set is
    eventually constant, so its limit is already a member.  Equality and
    hashing see only the carrier and the functions.
    """

    def __init__(self, carrier: tuple[str, ...],
                 functions: tuple[FnValues, ...]):
        self.carrier = carrier
        self.functions = functions

    def __eq__(self, other) -> bool:
        if type(other) is not EffectTribe:
            return NotImplemented
        return (self.carrier, self.functions) == (other.carrier,
                                                  other.functions)

    def __hash__(self) -> int:
        return hash((self.carrier, self.functions))

    @cached_property
    def _index(self) -> dict[FnValues, int]:
        # built once per tribe; the first position wins, as in tuple.index
        return {f: i for i, f in reversed(list(enumerate(self.functions)))}

    def index_of(self, values: FnValues) -> int | None:
        return self._index.get(tuple(values))

    def __contains__(self, values) -> bool:
        return self.index_of(tuple(values)) is not None


# ---------------------------------------------------------------------------
# representations


class Representation:
    """A triple (carrier, tribe, h) with h a sum-preserving surjection onto
    the target algebra."""

    def __init__(self, tribe: EffectTribe, target: EffectAlgebra,
                 h: Sequence[int], polytope: StatePolytope | None = None):
        self.tribe = tribe
        self.target = target
        self.h = tuple(h)
        self.polytope = polytope
        self._first_preimage: dict[int, int] = {}
        for i, a in enumerate(self.h):
            self._first_preimage.setdefault(a, i)
        self._b0: SigmaAlgebraB0 | None = None
        self._xi = None    # cache for the verified sharp-set observable
        self._spectral: dict[int, object] = {}   # verified measures per element
        self._atom_plan = self._level_plan = None   # integration plans

    # -- basic access -------------------------------------------------------

    @property
    def carrier(self) -> tuple[str, ...]:
        return self.tribe.carrier

    def h_of(self, values: FnValues) -> int:
        i = self.tribe.index_of(tuple(values))
        if i is None:
            raise PreconditionFailed(f"{_fmt(values)} is not a member function")
        return self.h[i]

    def function_of(self, a: int) -> FnValues:
        """A member function mapping to a (the first in sorted order)."""
        try:
            return self.tribe.functions[self._first_preimage[a]]
        except KeyError:
            raise PreconditionFailed(
                f"element {self.target.label(a)} has no preimage") from None

    def chi(self, points: frozenset[int]) -> FnValues:
        return tuple(ONE if i in points else ZERO
                     for i in range(len(self.carrier)))

    def b0(self) -> "SigmaAlgebraB0":
        if self._b0 is None:
            self._b0 = compute_b0(self)
        return self._b0

    @cached_property
    def sharp(self) -> frozenset[int]:
        """The sharp elements of the target, as a set."""
        return frozenset(sharp_elements(self.target).members)

    @cached_property
    def non_measurable(self) -> FnValues | None:
        """The first member that is not measurable, or None."""
        return next((f for f in self.tribe.functions
                     if not measurable(self, f)), None)


def canonical_representation(M: EffectAlgebra, *,
                             polytope: StatePolytope | None = None) -> Representation:
    """Evaluate every element on the extremal states.

    The carrier is the vertex list of the state polytope in its canonical
    order; the function system is exactly the evaluation vectors; h sends
    each evaluation back to its element.  Gate order: refinement property,
    then non-emptiness, then separation (h would otherwise be ill-defined);
    past the gates one order check certifies the build.
    """
    rdp = check_rdp(M)
    if not rdp.holds:
        raise RdpRequired(rdp.witness_labels())
    P = polytope if polytope is not None else state_polytope(M)
    if P.is_empty:
        raise EmptyStateSpace(f"no states on {M.n}-element algebra")
    pair = inseparable_pair(P)
    if pair is not None:
        raise NonSeparatingStates(tuple(map(M.label, pair)))
    return _evaluation_representation(M, P)


def _evaluation_representation(M: EffectAlgebra,
                               P: StatePolytope) -> Representation:
    """The tribe of evaluation vectors ev(a) = (s(a) for s in the vertices),
    sorted lexicographically, with h sending each back to its element.

    Separating states make the n vectors distinct.  One check certifies
    the rest: ev(b) <= ev(a) pointwise exactly when b <= a in M.  The
    vertices are states, so ev is additive and ev(a') = 1 - ev(a).  With
    the orders equal, ev(a) + ev(b) <= 1 <=> ev(a) <= ev(b') <=> a <= b'
    <=> a + b is defined, and then ev(a + b) = ev(a) + ev(b): the vectors
    are closed under sums and h preserves them.  Complements, h(0) = 0 and
    h(1) = 1 follow from the state laws.  Below each element, the pointwise
    down-set is the AND over the vertices of the elements valued at most
    as high there; the vertices' integer numerators share one denominator,
    so they order the elements as the values do."""
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
    evals = list(zip(*(s.values for s in P.vertices)))
    h = sorted(M.elements(), key=evals.__getitem__)
    carrier = tuple(f"s{i}" for i in range(len(P.vertices)))
    tribe = EffectTribe(carrier, tuple(evals[a] for a in h))
    return Representation(tribe, M, h, P)


# ---------------------------------------------------------------------------
# the sharp-set sigma-algebra


class SigmaAlgebraB0(NamedTuple):
    """Subsets whose characteristic functions are sharp members.

    In the pointwise order min(chi_A, 1 - chi_A) = 0, so no nonzero member
    lies below both chi_A and its complement: every characteristic member
    is sharp.  The sets are therefore exactly those with a characteristic
    function in the tribe.  ``atoms`` partition the carrier; each atom is
    the intersection of all members containing one of its points.
    """

    sets: tuple[frozenset[int], ...]
    atoms: tuple[frozenset[int], ...]


def _sorted_sets(family: Iterable[frozenset[int]]) -> tuple[frozenset[int], ...]:
    return tuple(sorted(family, key=lambda A: (len(A), sorted(A))))


def compute_b0(rep: Representation) -> SigmaAlgebraB0:
    tribe = rep.tribe
    p = len(tribe.carrier)
    if p > MAX_CARRIER:
        raise SizeLimitExceeded(f"carrier of {p} points exceeds {MAX_CARRIER}")
    # the characteristic members in the order of their point bitmasks,
    # which fixes the witness of a failed law
    b0 = [frozenset(i for i, v in enumerate(f) if v)
          for f in sorted(tribe.functions, key=lambda f: f[::-1])
          if set(f) <= {ZERO, ONE}]

    full = frozenset(range(p))
    in_b0 = set(b0)
    if frozenset() not in in_b0:
        raise NotASigmaAlgebra("empty-set", ())
    if full not in in_b0:
        raise NotASigmaAlgebra("whole-space", ())
    for A in b0:
        if full - A not in in_b0:
            raise NotASigmaAlgebra("complement", (sorted(A),))
    for A in b0:
        for B in b0:
            if A | B not in in_b0:
                raise NotASigmaAlgebra("union", (sorted(A), sorted(B)))

    atoms = []
    for i in range(p):
        atom = full
        for A in b0:
            if i in A:
                atom &= A
        if atom not in atoms:
            atoms.append(atom)
    return SigmaAlgebraB0(_sorted_sets(b0), _sorted_sets(atoms))


def measurable(rep: Representation, f: Sequence[Fraction]) -> bool:
    """Is f constant on every atom of the sharp-set sigma-algebra?"""
    f = tuple(Fraction(v) for v in f)
    if f not in rep.tribe:
        raise PreconditionFailed(f"{_fmt(f)} is not a member function")
    return all(len({f[i] for i in atom}) == 1 for atom in rep.b0().atoms)


# ---------------------------------------------------------------------------
# the sharp-image characterization


class SharpImageReport(NamedTuple):
    ok: bool
    all_measurable: bool                 # theorem hypothesis 1
    min_closed: bool                     # theorem hypothesis 2


def sharp_image(rep: Representation) -> SharpImageReport:
    """Does h map the sharp-set sigma-algebra onto the sharp elements?

    The two hypothesis flags record whether every member is measurable and
    whether the system is closed under min(f, 1-f); when both hold on a
    regular representation the equality is a theorem, so a failure in that
    regime raises instead of reporting.  The canonical representation is
    regular: its h is one-to-one, so h(f) = 0 only for f = 0."""
    M = rep.target
    b = rep.b0()
    image = {rep.h_of(rep.chi(A)) for A in b.sets}
    ok = image == rep.sharp

    all_meas = rep.non_measurable is None
    min_closed = all(
        tuple(min(v, ONE - v) for v in f) in rep.tribe
        for f in rep.tribe.functions)
    if not ok and all_meas and min_closed:
        raise TheoremViolation(
            "sharp image mismatch under the full theorem hypotheses: "
            f"image {sorted(M.label(a) for a in image)} vs "
            f"sharp {sorted(M.label(a) for a in rep.sharp)}")
    return SharpImageReport(ok, all_meas, min_closed)

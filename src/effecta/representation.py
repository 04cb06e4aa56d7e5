"""Function-algebra representations of a finite effect algebra.

A representation carries the algebra onto a system of rational fuzzy
functions over a finite point set: the canonical one evaluates every
element on the extremal states.  This module builds and validates such
triples, computes the sharp-set sigma-algebra of the function system, and
checks the sharp-image characterization that makes the smearing and
spectral machinery sound.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from math import lcm
from typing import Iterable, NamedTuple, Sequence

from .algebra import EffectAlgebra, check_rdp, sharp_elements
from .errors import (
    EmptyStateSpace,
    NonSeparatingStates,
    NotASigmaAlgebra,
    PreconditionFailed,
    RdpRequired,
    RepresentationViolation,
    SizeLimitExceeded,
    TheoremViolation,
    TribeAxiomViolation,
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


def _compatible_sums(fns: Sequence[FnValues]):
    """(f, g, f + g) for every ordered pair with f <= 1 - g pointwise, in
    the order of the double loop over fns.  Each function and complement is
    formed once as integer numerators over a common denominator d."""
    d = lcm(*(v.denominator for f in fns for v in f))
    nums = [tuple(v.numerator * (d // v.denominator) for v in f) for f in fns]
    comps = [tuple(d - y for y in g) for g in nums]
    for f, nf in zip(fns, nums):
        for g, comp in zip(fns, comps):
            if all(x <= y for x, y in zip(nf, comp)):
                yield f, g, tuple(x + y for x, y in zip(f, g))


def validate_tribe(carrier: Sequence[str], functions: Iterable[Sequence[Fraction]]) -> EffectTribe:
    carrier = tuple(carrier)
    if len(set(carrier)) != len(carrier):
        raise TribeAxiomViolation("carrier labels must be distinct", (carrier,))
    p = len(carrier)
    fns = sorted({tuple(Fraction(v) for v in f) for f in functions})
    for f in fns:
        if len(f) != p:
            raise TribeAxiomViolation("function arity != carrier size", (_fmt(f),))
        if any(v < 0 or v > 1 for v in f):
            raise TribeAxiomViolation("values outside [0,1]", (_fmt(f),))
    members = set(fns)
    one = tuple([ONE] * p)
    if one not in members:
        raise TribeAxiomViolation("constant 1 missing", ())
    for f in fns:
        g = tuple(ONE - v for v in f)
        if g not in members:
            raise TribeAxiomViolation("complement not closed", (_fmt(f),))
    for f, g, s in _compatible_sums(fns):
        if s not in members:
            raise TribeAxiomViolation(
                "sum not closed", (_fmt(f), _fmt(g), _fmt(s)))
    return EffectTribe(carrier, tuple(fns))


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


def make_representation(tribe: EffectTribe, target: EffectAlgebra,
                        h: Sequence[int],
                        polytope: StatePolytope | None = None) -> Representation:
    """Validate and assemble; every structural requirement is checked."""
    h = tuple(h)
    if len(h) != len(tribe.functions):
        raise RepresentationViolation("h must cover every member function")
    if set(h) != set(range(target.n)):
        missing = sorted(set(range(target.n)) - set(h))
        raise RepresentationViolation(
            "h is not surjective; missing "
            + ", ".join(target.label(a) for a in missing))
    p = len(tribe.carrier)
    one = tuple([ONE] * p)
    zero = tuple([ZERO] * p)
    by_fn = dict(zip(tribe.functions, h))
    if by_fn[one] != target.one or by_fn[zero] != target.zero:
        raise RepresentationViolation("h must send 1 to 1 and 0 to 0")
    for f, g, s in _compatible_sums(list(by_fn)):
        c = target.add(by_fn[f], by_fn[g])
        if c is None or c != by_fn[s]:
            raise RepresentationViolation(
                f"h does not preserve the sum at {_fmt(f)} + {_fmt(g)}")
    return Representation(tribe, target, h, polytope)


def canonical_representation(M: EffectAlgebra, *,
                             polytope: StatePolytope | None = None) -> Representation:
    """Evaluate every element on the extremal states.

    The carrier is the vertex list of the state polytope in its canonical
    order; the function system is exactly the evaluation vectors; h sends
    each evaluation back to its element.  Gate order: refinement property,
    then non-emptiness, then separation (h would otherwise be ill-defined).
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
    evals = {v: a for a, v in enumerate(zip(*(s.values for s in P.vertices)))}
    carrier = tuple(f"s{i}" for i in range(len(P.vertices)))
    tribe = validate_tribe(carrier, evals.keys())
    h = tuple(evals[f] for f in tribe.functions)
    return make_representation(tribe, M, h, polytope=P)


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
    for atom in rep.b0().atoms:
        vals = {f[i] for i in atom}
        if len(vals) > 1:
            return False
    return True


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
    sharp = set(sharp_elements(M).members)
    ok = image == sharp

    all_meas = all(measurable(rep, f) for f in rep.tribe.functions)
    min_closed = all(
        tuple(min(v, ONE - v) for v in f) in rep.tribe
        for f in rep.tribe.functions)
    if not ok and all_meas and min_closed:
        raise TheoremViolation(
            "sharp image mismatch under the full theorem hypotheses: "
            f"image {sorted(M.label(a) for a in image)} vs "
            f"sharp {sorted(M.label(a) for a in sharp)}")
    return SharpImageReport(ok, all_meas, min_closed)

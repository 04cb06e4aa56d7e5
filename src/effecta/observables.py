"""Finite-support observables and their smearing against sharp observables.

An observable assigns algebra elements to finitely many rational outcome
points so that the assigned elements sum to 1; evaluating it on an outcome
set just adds up the elements at the points inside.  Smearing rewrites such
an observable through a representation: each generated outcome set E gets a
member function f_E with h(f_E) = x(E), and the defining identity

    m(x(E)) = sum over atoms A of B0:  f_E(A) * m(xi(A))

holds exactly, state by state.  Both sides depend only on the element x(E)
and the state m, not on the observable: ``atom_integrals`` builds the
right-hand side for every element in one table per state, so the identity
is checked once per (element, state), and the kernel holds x(E) next to f_E
for reading off the outcome set that breaks it.  One plan per representation
holds every element's values on the atoms as integers over one denominator.
"""

from __future__ import annotations

from fractions import Fraction
from operator import mul
from typing import Iterable, Mapping, NamedTuple, Sequence

from .algebra import EffectAlgebra, iterated_sum
from .errors import (
    NotMeasurable,
    PreconditionFailed,
    SizeLimitExceeded,
    SumNotOne,
    SumUndefined,
)
from .linalg import over_common_denominator
from .representation import Representation

MAX_POINTS = 16       # a kernel holds one function per subset of its points


# ---------------------------------------------------------------------------
# outcome sets: finite unions of rational intervals plus isolated points


class Interval(NamedTuple):
    lo: Fraction | None        # None = unbounded below
    hi: Fraction | None        # None = unbounded above
    lo_closed: bool = True
    hi_closed: bool = True

    def contains(self, t: Fraction) -> bool:
        if self.lo is not None and (t < self.lo or (t == self.lo and not self.lo_closed)):
            return False
        if self.hi is not None and (t > self.hi or (t == self.hi and not self.hi_closed)):
            return False
        return True


class OutcomeSet(NamedTuple):
    intervals: tuple[Interval, ...] = ()
    points: frozenset = frozenset()

    def contains(self, t: Fraction) -> bool:
        return t in self.points or any(iv.contains(t) for iv in self.intervals)

    @staticmethod
    def of_points(*ts) -> "OutcomeSet":
        return OutcomeSet((), frozenset(Fraction(t) for t in ts))

    @staticmethod
    def interval(lo, hi, *, lo_closed: bool = True, hi_closed: bool = True) -> "OutcomeSet":
        return OutcomeSet((Interval(
            None if lo is None else Fraction(lo),
            None if hi is None else Fraction(hi),
            lo_closed, hi_closed),))

    @staticmethod
    def everything() -> "OutcomeSet":
        return OutcomeSet((Interval(None, None),))


# ---------------------------------------------------------------------------
# observables


class Observable(NamedTuple):
    algebra: EffectAlgebra
    support: tuple[Fraction, ...]    # strictly increasing outcome points
    values: tuple[int, ...]          # element ids, aligned with support

    def element_at(self, indices: Iterable[int]) -> int:
        """x(E) for E described by which support points it contains."""
        parts = [self.values[i] for i in sorted(set(indices))]
        total = iterated_sum(self.algebra, parts)
        if total is None:  # cannot happen for a validated observable
            raise SumUndefined([self.algebra.label(p) for p in parts])
        return total


def make_observable(M: EffectAlgebra, support: Sequence, values: Sequence) -> Observable:
    """Validate outcome points and the unit-sum requirement."""
    if len(support) != len(values) or not support:
        raise PreconditionFailed("support and values must align and be non-empty")
    pts = [Fraction(t) for t in support]
    ids = [M.index(v) if isinstance(v, str) else int(v) for v in values]
    pairs = sorted(zip(pts, ids))
    pts = [t for t, _ in pairs]
    ids = [a for _, a in pairs]
    if any(s == t for s, t in zip(pts, pts[1:])):
        raise PreconditionFailed("outcome points must be distinct")
    for a in ids:
        if not 0 <= a < M.n:
            raise PreconditionFailed(f"element id {a} out of range")
    total = iterated_sum(M, ids)
    if total is None:
        raise SumUndefined([M.label(a) for a in ids])
    if total != M.one:
        raise SumNotOne(M.label(total))
    return Observable(M, tuple(pts), tuple(ids))


def summable_families(M: EffectAlgebra, max_parts: int) -> Iterable[tuple[int, ...]]:
    """All tuples (a_1, ..., a_k), k <= max_parts, whose iterated sum is 1.

    Tuples are ordered (outcome slots are ordered), so (a, a') and (a', a)
    are distinct families; repetition is allowed when the sums permit it.
    """
    def walk(prefix: tuple[int, ...], acc: int):
        if prefix and acc == M.one:
            yield prefix
        if len(prefix) == max_parts:
            return
        for a in M.elements():
            nxt = M.add(acc, a)
            if nxt is not None:
                yield from walk(prefix + (a,), nxt)

    yield from walk((), M.zero)


# ---------------------------------------------------------------------------
# smearing


class SmearingKernel(NamedTuple):
    """One member function per outcome set generated by the support points,
    keyed by the frozenset of support indices the set picks out, together
    with the element x(E) that the function maps to."""
    observable: Observable
    functions: Mapping  # frozenset[int] -> function values
    elements: Mapping   # frozenset[int] -> element id x(E)


def smear(rep: Representation, x: Observable) -> SmearingKernel:
    if rep.target is not x.algebra:
        raise PreconditionFailed("observable lives on a different algebra")
    k = len(x.support)
    if k > MAX_POINTS:
        raise SizeLimitExceeded(
            f"observable of {k} outcome points exceeds {MAX_POINTS}")
    kernel = {}
    elements = {}
    for mask in range(1 << k):
        key = frozenset(i for i in range(k) if mask >> i & 1)
        elements[key] = x.element_at(key)
        f = kernel[key] = rep.function_of(elements[key])
        for atom in rep.b0().atoms:
            if len({f[i] for i in atom}) > 1:
                raise NotMeasurable(_key_name(x, key), sorted(atom))
    return SmearingKernel(x, kernel, elements)


def _key_name(x: Observable, key: frozenset) -> str:
    return "{" + ",".join(str(x.support[i]) for i in sorted(key)) + "}"


def element_integrals(rep: Representation,
                      values: Sequence | Mapping) -> tuple[Fraction, ...]:
    """The integral of every element's function against A -> values[xi(A)],
    indexed by element id: m(a) for each a when ``values`` is a state."""
    nums, den = atom_integrals(rep, values)
    return tuple(Fraction(v, den) for v in nums)


def atom_integrals(rep: Representation, values: Sequence | Mapping,
                   den: int | None = None) -> tuple[list[int], int]:
    """:func:`element_integrals` with ``values`` mapping element ids to
    integer numerators over ``den`` (rationals when den is None), as
    numerators over one denominator."""
    if rep._atom_plan is None:
        rep._atom_plan = _atom_plan(rep)
    masses, rows, pden = rep._atom_plan
    w = [values[b] for b in masses]
    if den is None:
        w, den = over_common_denominator(w)
    return [sum(map(mul, row, w)) for row in rows], pden * den


def _atom_plan(rep: Representation) -> tuple[tuple, tuple, int]:
    """The sharp observable xi(A) = h(chi_A) on each atom A of B0 and every
    element's integer values on the atoms; raises at the first non-constant
    (element, atom).  On the canonical representation xi(S) is the corner
    with support S (see ``compute_b0``), additive, so its atoms fix it."""
    atoms = rep.b0().atoms
    den = rep.evaluation[1]
    p = len(rep.carrier)
    masses = tuple(rep.evaluation[2].get(tuple(den if i in A else 0
                                               for i in range(p)))
                   for A in atoms)
    if None in masses:
        raise PreconditionFailed("an atom of B0 is no characteristic member")
    rows = []
    for a in rep.target.elements():
        f = rep.row_of(a)
        for A in atoms:
            if len(A) > 1 and len({f[i] for i in A}) > 1:
                raise NotMeasurable("integrand", sorted(A))
        rows.append(tuple(f[min(A)] for A in atoms))
    return masses, tuple(rows), den

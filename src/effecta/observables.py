"""Finite-support observables and their smearing against sharp observables.

An observable assigns algebra elements to finitely many rational outcome
points so that the assigned elements sum to 1; evaluating it on an outcome
set just adds up the elements at the points inside.  Smearing rewrites such
an observable through a representation: each generated outcome set E gets a
member function f_E with h(f_E) = x(E), and the defining identity

    m(x(E)) = sum over atoms A of B0:  f_E(A) * m(xi(A))

holds exactly, state by state.  Both sides depend only on the element x(E)
and the state m, not on the observable, so the identity is checked once per
(element, state), and the kernel holds x(E) next to f_E for reading off the
outcome set that breaks it.  ``atom_plan`` writes the right-hand side of
every element once per representation, as the terms (f(A), xi(A)) over one
denominator; ``linalg.integrals`` turns the plan and a state, integer
numerators over one denominator, into the state's table the same way.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping, NamedTuple, Sequence

from .algebra import EffectAlgebra, iterated_sum, once
from .errors import (
    NotMeasurable,
    PreconditionFailed,
    SizeLimitExceeded,
    SumNotOne,
    SumUndefined,
)
from .linalg import integrals, mismatches
from .representation import Representation

MAX_POINTS = 16       # a kernel holds one function per subset of its points


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
    for v in values:
        if isinstance(v, bool) or not isinstance(v, (str, int)):
            raise PreconditionFailed(f"not an element label or id: {v!r}")
    try:
        ids = [M.index(v) if isinstance(v, str) else v for v in values]
    except KeyError as exc:
        raise PreconditionFailed(
            f"unknown element label {exc.args[0]!r}") from None
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
    keyed by the frozenset of support indices the set picks out, as its
    integer row over the representation's denominator, together with the
    element x(E) that the function maps to."""
    observable: Observable
    functions: Mapping  # frozenset[int] -> integer row
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
        f = kernel[key] = rep.row_of(elements[key])
        for atom in rep.b0().atoms:
            if len({f[i] for i in atom}) > 1:
                raise NotMeasurable(_key_name(x, key), sorted(atom))
    return SmearingKernel(x, kernel, elements)


def first_mismatch(kernel: SmearingKernel, bad: list) -> tuple | None:
    """(state index, key) of the first state, then the first outcome set E,
    at whose x(E) a state and its table differ, given each such pair."""
    at = set(bad)
    return next(((i, key) for i in dict.fromkeys(i for i, _ in bad)
                 for key, a in kernel.elements.items() if (i, a) in at), None)


def _key_name(x: Observable, key: frozenset) -> str:
    return "{" + ",".join(str(x.support[i]) for i in sorted(key)) + "}"


@once
def sample_mismatches(rep: Representation) -> list:
    """Every (vertex index, element) at which an extremal state of
    ``rep.polytope`` and its atom table differ, which the smearing and
    extension suites and ``effecta smear`` share.  A table is linear in its
    state, so a mixture of the vertices differs from its table only at an
    element where some vertex does: the vertices decide the identity for
    every state.  A table extends its state's restriction to the sharp
    elements: ``atom_plan`` reads a state only at xi of the atoms of B0,
    the sharp corners on the canonical representation (see
    ``compute_b0``)."""
    P = rep.polytope
    plan = atom_plan(rep)
    return mismatches(P.numerators, P.den,
                      [integrals(plan, row, P.den) for row in P.numerators])


@once
def atom_plan(rep: Representation) -> tuple[tuple, int]:
    """Every element's terms (its value on atom A of B0, xi(A)), one per
    atom, over the evaluation's denominator; raises at the first
    non-constant (element, atom).  On the canonical representation xi(S)
    is the corner with support S (see ``compute_b0``), additive, so its
    atoms fix it."""
    b0 = rep.b0()
    masses = [b0.xi.get(A) for A in b0.atoms]
    if None in masses:
        raise PreconditionFailed("an atom of B0 is no characteristic member")
    rows = []
    for a in rep.target.elements():
        f = rep.row_of(a)
        for A in b0.atoms:
            if len(A) > 1 and len({f[i] for i in A}) > 1:
                raise NotMeasurable("integrand", sorted(A))
        rows.append(tuple((f[min(A)], b) for A, b in zip(b0.atoms, masses)))
    return tuple(rows), rep.evaluation[1]

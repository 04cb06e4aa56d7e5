"""Spectral measures of algebra elements, and unique state extension from
the sharp elements.

The spectral measure of an element a collects, for each value lambda that
the evaluation of a attains, the sharp element whose characteristic set is
the corresponding level set.  It reproduces the element under integration:
m(a) = sum of lambda * m(mass(lambda)), for every state m.  That sum is
written once, in :func:`spectral_integral`, as one table over all elements
per state; a transform phi of the outcome values is a plain function
applied to each lambda.  One plan per representation holds every measure,
the lambdas as integers over one denominator.  Callers compare the table
with the state, so the law is checked exactly wherever used, never assumed.
A measure determines its element: its levels and their sets give back
the evaluation, and h is one-to-one on the canonical representation.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Mapping, NamedTuple

from .algebra import EffectAlgebra, iterated_sum, sharp_elements
from .errors import (
    NotAStateOnSharp,
    NotSharp,
    PreconditionFailed,
    SpectralObstruction,
    TheoremViolation,
)
from .linalg import over_common_denominator, rank, solve_affine
from .observables import OutcomeSet, element_integrals
from .representation import Representation
from .states import State, is_state

ZERO = Fraction(0)
ONE = Fraction(1)


class SpectralMeasure(NamedTuple):
    algebra: EffectAlgebra
    element: int
    support: tuple[Fraction, ...]          # ascending attained values
    masses: Mapping                         # Fraction -> sharp element id

    def mass_of_set(self, E: OutcomeSet) -> int:
        """The measure of an outcome set: masses at support points inside."""
        parts = [self.masses[t] for t in self.support if E.contains(t)]
        total = iterated_sum(self.algebra, parts)
        if total is None:  # masses are pairwise summable by construction
            raise TheoremViolation("spectral masses failed to sum")
        return total

    def key(self) -> tuple:
        return (self.support, tuple(self.masses[t] for t in self.support))


def spectral_measure(rep: Representation, a: int) -> SpectralMeasure:
    """Level-set decomposition of the evaluation of a.

    Verified on first computation, then cached on the representation."""
    cached = rep._spectral.get(a)
    if cached is not None:
        return cached
    M = rep.target
    f = rep.function_of(a)
    p = len(rep.carrier)
    values = sorted({f[i] for i in range(p)})
    masses = {}
    for lam in values:
        chi = tuple(ONE if f[i] == lam else ZERO for i in range(p))
        if chi not in rep.tribe:
            raise SpectralObstruction(M.label(a), lam)
        masses[lam] = rep.h_of(chi)
    for lam, mass in masses.items():
        if mass not in rep.sharp:
            raise SpectralObstruction(M.label(a), lam)
    if iterated_sum(M, [masses[lam] for lam in values]) != M.one:
        raise TheoremViolation(
            f"masses of {M.label(a)} do not sum to 1")
    result = SpectralMeasure(M, a, tuple(values), masses)
    rep._spectral[a] = result
    return result


def spectral_integral(rep: Representation, values,
                      phi: Callable[[Fraction], Fraction] | None = None
                      ) -> tuple[Fraction, ...]:
    """The table a -> sum of phi(lambda) * values[mass_a(lambda)] over the
    spectral measure of every element a; phi is the identity when None.

    ``values`` is a state's value vector or any mapping over the sharp
    elements.  For a state m, ``spectral_integral(rep, m.values)`` equals
    ``m.values`` exactly when every measure reproduces m.  phi sees each
    distinct lambda once."""
    if rep._level_plan is None:
        rep._level_plan = _level_plan(rep)
    lams, lam_ints, masses, rows = rep._level_plan
    c, cden = lam_ints if phi is None else over_common_denominator(
        [phi(lam) for lam in lams])
    w, wden = over_common_denominator([values[b] for b in masses])
    return tuple(Fraction(sum(c[i] * w[j] for i, j in row), cden * wden)
                 for row in rows)


def _level_plan(rep: Representation) -> tuple:
    """Each measure as (lambda, mass) index pairs into the lambdas and the
    masses in the order first met, the lambdas also as integer numerators."""
    lams, masses, rows = {}, {}, []
    for a in rep.target.elements():
        sm = spectral_measure(rep, a)
        rows.append(tuple((lams.setdefault(lam, len(lams)),
                           masses.setdefault(sm.masses[lam], len(masses)))
                          for lam in sm.support))
    return (tuple(lams), over_common_denominator(list(lams)), tuple(masses),
            tuple(rows))


def sharp_table(rep: Representation, a: int, E: OutcomeSet) -> int:
    """The four-way endpoint rule for sharp elements, cross-checked against
    the actual spectral measure."""
    if a not in rep.sharp:
        raise NotSharp(rep.target.label(a))
    return _endpoint_rule(rep, a, E, E.contains(ZERO), E.contains(ONE))


def _endpoint_rule(rep: Representation, a: int, E: OutcomeSet,
                   z: bool, o: bool) -> int:
    """:func:`sharp_table` for a sharp a, given whether E holds 0 and 1."""
    M = rep.target
    result = (M.one if o else M.comp(a)) if z else (a if o else M.zero)
    actual = spectral_measure(rep, a).mass_of_set(E)
    if actual != result:
        raise TheoremViolation(
            f"endpoint rule gives {M.label(result)} but the measure "
            f"gives {M.label(actual)}")
    return result


# ---------------------------------------------------------------------------
# state extension from the sharp elements


def validate_sharp_state(M: EffectAlgebra, m: Mapping) -> dict[int, Fraction]:
    """Check a candidate weighting of the sharp elements; normalized copy out."""
    members = sharp_elements(M).members
    vals: dict[int, Fraction] = {}
    for b in members:
        if b not in m:
            raise NotAStateOnSharp("missing value", (M.label(b),))
        v = Fraction(m[b])
        if v < 0 or v > 1:
            raise NotAStateOnSharp("value outside [0,1]", (M.label(b), str(v)))
        vals[b] = v
    if vals[M.one] != 1:
        raise NotAStateOnSharp("unit not sent to 1", (str(vals[M.one]),))
    # each unordered pair once: the table is symmetric, the members ascend
    num = dict(zip(vals, over_common_denominator(list(vals.values()))[0]))
    for a, b, c in M.defined_sums():
        if a not in num or b not in num:
            continue
        if c not in num:
            raise NotAStateOnSharp(
                "sharp sum escapes the sharp set", (M.label(a), M.label(b)))
        if num[a] + num[b] != num[c]:
            raise NotAStateOnSharp(
                "not additive", (M.label(a), M.label(b), M.label(c)))
    return vals


def extend_state(rep: Representation, m: Mapping) -> State:
    """The unique full state restricting to a given sharp-element state.

    Computed by the atom formula: the value at a is the integral of the
    evaluation of a against the measure A -> m(xi(A)) on the atoms of B0,
    read from ``element_integrals``.  Both the restriction property and the
    agreement with the spectral form are asserted before anything is
    returned.
    """
    M = rep.target
    vals = validate_sharp_state(M, m)
    result = State(element_integrals(rep, vals))

    check = is_state(M, result)
    if not check.ok:
        raise TheoremViolation(
            f"extension is not a state: {check.violation.kind} at "
            f"{check.violation.witness!r}")
    for bb, v in vals.items():
        if result.values[bb] != v:
            raise TheoremViolation(
                f"extension restricts to {result.values[bb]} at "
                f"{M.label(bb)}, expected {v}")
    spectral_form = spectral_integral(rep, vals)
    for a in M.elements():
        if spectral_form[a] != result.values[a]:
            raise TheoremViolation(
                f"atom form {result.values[a]} and spectral form "
                f"{spectral_form[a]} disagree at {M.label(a)}")
    return result


def sharp_kernel(rep: Representation) -> tuple[Fraction, ...] | None:
    """None when the sharp values fix every state, else a nonzero direction
    of the state space that vanishes on every sharp element.

    The differences v_i - v_0 of the vertices span the directions of the
    state polytope's affine hull, and ``P.dimension`` is their rank.  When
    their sharp coordinates keep that rank, the restriction to the sharp
    elements is injective on the hull, so every state on the sharp elements
    extends in at most one way.  The rank is taken over the integer
    numerator differences, which are the differences times ``P.den``.
    Otherwise some combination of the differences is zero on the sharp
    elements but not everywhere.
    """
    P = rep.polytope
    if P is None or P.is_empty:
        raise PreconditionFailed("the extension certificate needs the states")
    sharp = sharp_elements(rep.target).members
    n0, *rest = P.numerators
    if rank([[row[b] - n0[b] for b in sharp] for row in rest]) == P.dimension:
        return None
    # combinations c with sum_i c_i d_i[b] = 0 at every sharp b; one basis
    # direction of that kernel must leave the kernel of the full map
    v0 = P.vertices[0].values
    diffs = [[x - y for x, y in zip(v.values, v0)] for v in P.vertices[1:]]
    _, combos, _ = solve_affine([[d[b] for d in diffs] for b in sharp],
                                [ZERO] * len(sharp))
    for c in combos:
        k = tuple(sum((ci * d[a] for ci, d in zip(c, diffs)), start=ZERO)
                  for a in rep.target.elements())
        if any(k):
            return k
    raise TheoremViolation("rank deficit without a kernel direction")


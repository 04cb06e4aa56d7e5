"""Spectral measures of algebra elements, and unique state extension from
the sharp elements.

The spectral measure of an element a collects, for each value lambda that
the evaluation of a attains, the sharp element whose characteristic set is
the corresponding level set.  It reproduces the element under integration:
m(a) = sum of lambda * m(mass(lambda)), for every state m.  That sum is
written once, in :func:`level_integrals`, as one table over all elements
per state; a transform phi of the outcome values is a plain function
applied to each lambda.  One plan per representation holds every measure,
the lambdas as integers over one denominator.  Callers compare the table
with the state, so the law is checked exactly wherever used, never assumed.
A measure determines its element: its levels and their sets give back
the evaluation, and h is one-to-one on the canonical representation.

That the extension is unique is a theorem of the product-of-chains
certificate, not a check: on prod C_{h_i} with k factors a state is fixed
by its k atom values, and the top of each factor is sharp with h_i times
its factor's atom value, so the sharp columns of the vertex differences
have rank k - 1, the polytope's dimension.  ``oracles.sharp_kernel`` in the
tests keeps that rank check.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Mapping, NamedTuple

from .algebra import EffectAlgebra, iterated_sum, once, sharp_elements
from .errors import NotAStateOnSharp, SpectralObstruction, TheoremViolation
from .linalg import over_common_denominator
from .observables import atom_integrals
from .representation import Representation
from .states import State, is_state


class SpectralMeasure(NamedTuple):
    algebra: EffectAlgebra
    element: int
    support: tuple[Fraction, ...]          # ascending attained values
    masses: Mapping                         # Fraction -> sharp element id


@once
def spectral_measure(rep: Representation, a: int) -> SpectralMeasure:
    """Level-set decomposition of the evaluation of a: its integer
    :func:`levels` read as Fractions."""
    lv = levels(rep, a)
    support = tuple(Fraction(lam, rep.evaluation[1]) for lam, _ in lv)
    return SpectralMeasure(rep.target, a, support,
                           dict(zip(support, (b for _, b in lv))))


def levels(rep: Representation, a: int) -> tuple[tuple[int, int], ...]:
    """Each value of a's integer evaluation row, ascending, with xi of B0
    on that level set; the masses are sharp and sum to 1."""
    M = rep.target
    f = rep.row_of(a)
    den = rep.evaluation[1]
    xi = rep.b0().xi
    out = tuple((lam, xi.get(frozenset(i for i, v in enumerate(f)
                                       if v == lam)))
                for lam in sorted(set(f)))
    for lam, mass in out:
        if mass not in rep.sharp:       # None, for no member, is not sharp
            raise SpectralObstruction(M.label(a), Fraction(lam, den))
    if iterated_sum(M, [mass for _, mass in out]) != M.one:
        raise TheoremViolation(f"masses of {M.label(a)} do not sum to 1")
    return out


def spectral_integral(rep: Representation, values,
                      phi: Callable[[Fraction], Fraction] | None = None
                      ) -> tuple[Fraction, ...]:
    """The table a -> sum of phi(lambda) * values[mass_a(lambda)] over the
    spectral measure of every element a; phi is the identity when None.

    ``values`` is a state's value vector or any mapping over the sharp
    elements.  For a state m, ``spectral_integral(rep, m.values)`` equals
    ``m.values`` exactly when every measure reproduces m."""
    nums, den = level_integrals(rep, values, None, phi)
    return tuple(Fraction(v, den) for v in nums)


def level_integrals(rep: Representation, values, den: int | None = None,
                    phi: Callable[[Fraction], Fraction] | None = None
                    ) -> tuple[list[int], int]:
    """:func:`spectral_integral` with ``values`` mapping element ids to
    integer numerators over ``den`` (rationals when den is None), as
    numerators over one denominator; phi sees each distinct lambda once."""
    lvs, lams, masses = _level_plan(rep)
    if den is None:
        nums, den = over_common_denominator([values[b] for b in masses])
        values = dict(zip(masses, nums))
    c, cden = lams, rep.evaluation[1]
    if phi is not None:
        c, cden = over_common_denominator(
            [phi(Fraction(lam, cden)) for lam in lams])
    c = dict(zip(lams, c))
    return [sum(c[lam] * values[b] for lam, b in lv) for lv in lvs], cden * den


@once
def _level_plan(rep: Representation) -> tuple:
    """Every element's levels, then the distinct lambdas and masses."""
    lvs = tuple(levels(rep, a) for a in rep.target.elements())
    return (lvs, tuple(dict.fromkeys(lam for lv in lvs for lam, _ in lv)),
            tuple(dict.fromkeys(b for lv in lvs for _, b in lv)))


# ---------------------------------------------------------------------------
# state extension from the sharp elements


def validate_sharp_state(M: EffectAlgebra, m: Mapping,
                         den: int | None = None) -> tuple[dict, int]:
    """Check a candidate weighting of the sharp elements, given as integer
    numerators over ``den`` (rationals when den is None); numerators out."""
    members = sharp_elements(M).members
    if den is None:
        vals = {b: Fraction(m[b]) for b in members if b in m}
        nums, den = over_common_denominator(list(vals.values()))
        m = dict(zip(vals, nums))
    for b in members:
        if b not in m:
            raise NotAStateOnSharp("missing value", (M.label(b),))
        if m[b] < 0 or m[b] > den:
            raise NotAStateOnSharp("value outside [0,1]",
                                   (M.label(b), str(Fraction(m[b], den))))
    if m[M.one] != den:
        raise NotAStateOnSharp("unit not sent to 1",
                               (str(Fraction(m[M.one], den)),))
    # each unordered pair once: the table is symmetric, the members ascend
    for a, b, c in M.defined_sums():
        if a not in m or b not in m:
            continue
        if c not in m:
            raise NotAStateOnSharp(
                "sharp sum escapes the sharp set", (M.label(a), M.label(b)))
        if m[a] + m[b] != m[c]:
            raise NotAStateOnSharp(
                "not additive", (M.label(a), M.label(b), M.label(c)))
    return m, den


def extend_state(rep: Representation, m: Mapping) -> State:
    """The unique full state restricting to a given sharp-element state."""
    nums, den = extension_numerators(rep, m)
    return State(tuple(Fraction(v, den) for v in nums))


def extension_numerators(rep: Representation, m: Mapping,
                         den: int | None = None) -> tuple[list[int], int]:
    """:func:`extend_state` of m as in :func:`validate_sharp_state`, as
    numerators over one denominator, by the atom formula: the value at a is
    the integral of the evaluation of a against A -> m(xi(A)) on the atoms
    of B0.  The restriction and the spectral form are checked on it."""
    M = rep.target
    num, den = validate_sharp_state(M, m, den)
    ext, eden = atom_integrals(rep, num, den)
    check = is_state(M, ext, eden)
    if not check.ok:
        raise TheoremViolation(
            f"extension is not a state: {check.violation.kind} at "
            f"{check.violation.witness!r}")
    for bb, v in num.items():
        if ext[bb] * den != v * eden:
            raise TheoremViolation(
                f"extension restricts to {Fraction(ext[bb], eden)} at "
                f"{M.label(bb)}, expected {Fraction(v, den)}")
    spectral_form, sden = level_integrals(rep, num, den)
    for a in M.elements():
        if spectral_form[a] * eden != ext[a] * sden:
            raise TheoremViolation(
                f"atom form {Fraction(ext[a], eden)} and spectral form "
                f"{Fraction(spectral_form[a], sden)} disagree at {M.label(a)}")
    return ext, eden


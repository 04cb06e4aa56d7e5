"""Spectral measures of algebra elements.

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
Every table is integer numerators over one denominator, taken and returned
as such; a Fraction is built only for a transform's lambdas and for a
message.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable

from .algebra import iterated_sum, once
from .errors import SpectralObstruction, TheoremViolation
from .linalg import over_common_denominator
from .representation import Representation


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


def level_integrals(rep: Representation, values, den: int,
                    phi: Callable[[Fraction], Fraction] | None = None
                    ) -> tuple[list[int], int]:
    """The table a -> sum of phi(lambda) * values[mass_a(lambda)] over the
    spectral measure of every element a, phi the identity when None, as
    numerators over one denominator.  ``values`` maps element ids (at
    least the sharp ones) to integer numerators over ``den``; for a state
    the table equals the state exactly when every measure reproduces it.
    phi sees each distinct lambda once, as a Fraction."""
    lvs, lams = _level_plan(rep)
    c, cden = lams, rep.evaluation[1]
    if phi is not None:
        c, cden = over_common_denominator(
            [phi(Fraction(lam, cden)) for lam in lams])
    c = dict(zip(lams, c))
    return [sum(c[lam] * values[b] for lam, b in lv) for lv in lvs], cden * den


@once
def _level_plan(rep: Representation) -> tuple:
    """Every element's levels, then the distinct lambdas."""
    lvs = tuple(levels(rep, a) for a in rep.target.elements())
    return lvs, tuple(dict.fromkeys(lam for lv in lvs for lam, _ in lv))

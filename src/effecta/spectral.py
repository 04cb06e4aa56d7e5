"""Spectral measures of algebra elements.

The spectral measure of an element a collects, for each value lambda that
the evaluation of a attains, the sharp element whose characteristic set is
the corresponding level set.  It reproduces the element under integration:
m(a) = sum of lambda * m(mass(lambda)), for every state m.  ``level_plan``
holds every element's levels once per representation, as the terms
(lambda, mass) over the evaluation's denominator, the plan shape of
``observables.atom_plan``; ``linalg.integrals`` turns it and a state into
the state's table, and ``squared_plan`` holds lambda squared, the standard
transform under which the law breaks off the sharp elements.  Callers
compare the table with the state, so the law is checked exactly wherever
used, never assumed.  A measure determines its element: its levels and
their sets give back the evaluation, and h is one-to-one on the canonical
representation.  A Fraction is built only for a message.
"""

from __future__ import annotations

from fractions import Fraction

from .algebra import iterated_sum, once
from .errors import SpectralObstruction, TheoremViolation
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


@once
def level_plan(rep: Representation) -> tuple[tuple, int]:
    """Every element's levels over the evaluation's denominator."""
    lvs = tuple(levels(rep, a) for a in rep.target.elements())
    return lvs, rep.evaluation[1]


def squared_plan(rep: Representation) -> tuple[tuple, int]:
    """The level plan with every lambda squared, over the square of its
    denominator."""
    lvs, den = level_plan(rep)
    squares = tuple(tuple((lam * lam, b) for lam, b in lv) for lv in lvs)
    return squares, den * den

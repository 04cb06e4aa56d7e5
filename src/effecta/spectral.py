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
Every table and extension is integer numerators over one denominator,
taken and returned as such; a Fraction is built only for a transform's
lambdas and for a message.

That the extension is unique is a theorem of the product-of-chains
certificate, not a check: on prod C_{h_i} with k factors a state is fixed
by its k atom values, and the top of each factor is sharp with h_i times
its factor's atom value, so the sharp columns of the vertex differences
have rank k - 1, the polytope's dimension.  ``oracles.sharp_kernel`` in the
tests keeps that rank check.  That the extension of a restricted state is
a state is not checked either: past the certificate the atom formula is
the smearing identity, so the extension gives the state back, and a
caller that compares the two has checked it.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Mapping

from .algebra import iterated_sum, once
from .errors import SpectralObstruction, TheoremViolation
from .linalg import over_common_denominator
from .observables import atom_integrals
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
    lvs, lams, masses = _level_plan(rep)
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


def extension_numerators(rep: Representation, m: Mapping,
                         den: int) -> tuple[list[int], int]:
    """The full state extending a state m on the sharp elements, given as
    integer numerators over ``den``, as numerators over one denominator, by
    the atom formula: the value at a is the integral of the evaluation of a
    against A -> m(xi(A)) on the atoms of B0.  The restriction and the
    spectral form are checked on it, not that it is a state: a caller
    restricts a state, and the extension is one whenever it gives that
    state back, which the extension suite compares."""
    M = rep.target
    ext, eden = atom_integrals(rep, m, den)
    for bb, v in m.items():
        if ext[bb] * den != v * eden:
            raise TheoremViolation(
                f"extension restricts to {Fraction(ext[bb], eden)} at "
                f"{M.label(bb)}, expected {Fraction(v, den)}")
    spectral_form, sden = level_integrals(rep, m, den)
    for a in M.elements():
        if spectral_form[a] * eden != ext[a] * sden:
            raise TheoremViolation(
                f"atom form {Fraction(ext[a], eden)} and spectral form "
                f"{Fraction(spectral_form[a], sden)} disagree at {M.label(a)}")
    return ext, eden


"""Small exact linear algebra over integers.

``echelon`` is fraction-free Gaussian elimination (Bareiss 1968, with each
row divided by its content instead of by the previous pivot): rows are
reduced one at a time against the basis of the earlier ones by
cross-multiplication, so no Fraction is built.  The state polytope calls it
on its state equations, with k columns for the values of the k atoms plus
one for the constant, and on the parameter forms of its implicit
equalities, whose rank fixes the dimension.  ``integrals`` is the one
evaluator of the smearing and spectral plans: each element's terms
(integer coefficient, sharp element id) over the plan's denominator,
integrated against a state.  ``mismatches`` is the one comparison of
integer tables with the states they should give back.
"""

from __future__ import annotations

from math import gcd
from typing import Iterable, Sequence


def integrals(plan: tuple, values, den: int) -> tuple[list[int], int]:
    """The table a -> sum of c * values[b] over the terms (c, b) of a in
    ``plan``, as numerators over the plan's denominator times ``den``.
    ``values`` maps element ids (at least those the terms name) to integer
    numerators over ``den``."""
    rows, pden = plan
    return [sum(c * values[b] for c, b in row) for row in rows], pden * den


def mismatches(rows, den: int, tables) -> list[tuple[int, int]]:
    """Every (i, a), state by state, at which table i differs from state i:
    the states integer numerators over the one ``den``, each table integer
    numerators over its own denominator."""
    return [(i, a) for i, (row, (t, tden)) in enumerate(zip(rows, tables))
            for a, (x, y) in enumerate(zip(row, t)) if y * den != x * tden]


def _primitive(row: list[int], lead: int) -> list[int]:
    """The row divided by its content, signed so its entry at lead is
    positive."""
    g = gcd(*row)
    if row[lead] < 0:
        g = -g
    return row if g == 1 else [x // g for x in row]


def echelon(rows: Iterable[Sequence[int]]) -> dict[int, list[int]]:
    """The reduced row echelon form of integer rows, as ``{pivot column:
    row}``: each row is gcd-reduced, positive at its pivot and zero in
    every other pivot column, and zero rows are dropped.

    A new row is cleared at every pivot column it holds, then its first
    nonzero column becomes a pivot and is cleared from the older rows.  Up
    to the positive factor of each row this is the unique reduced row
    echelon form of the rows, so the result depends neither on their order
    nor on duplicates, and its size is their rank.
    """
    basis: dict[int, list[int]] = {}
    for row in rows:
        row = list(row)
        for col, pivot in basis.items():
            c = row[col]
            if c:
                p = pivot[col]
                row = [p * x - c * y for x, y in zip(row, pivot)]
        lead = next((c for c, x in enumerate(row) if x), None)
        if lead is None:
            continue
        row = _primitive(row, lead)
        p = row[lead]
        for col, other in basis.items():
            c = other[lead]
            if c:
                basis[col] = _primitive(
                    [p * x - c * y for x, y in zip(other, row)], col)
        basis[lead] = row
    return basis

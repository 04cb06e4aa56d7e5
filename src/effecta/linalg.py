"""Small exact linear algebra: ranks and affine solution spaces.

``rank`` eliminates over integers, one vector at a time, and stops once the
rank reaches the number of columns; the state polytope calls it on the
parameter-space forms of its implicit equalities (d columns).
``solve_affine`` reduces sparse rows incrementally over Fractions.  Its
systems are small: the distinct state equations over the values of the k
atoms have k columns.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Sequence

ZERO = Fraction(0)
ONE = Fraction(1)


def over_common_denominator(values: Sequence) -> tuple[list[int], int]:
    """Integer numerators of the values over their least common denominator."""
    den = lcm(*(v.denominator for v in values))
    return [v.numerator * (den // v.denominator) for v in values], den


def rank(vectors: Sequence[Sequence[Fraction | int]]) -> int:
    """Rank of the vectors (Fractions or integers).

    Each vector is scaled to integers and reduced against an echelon basis
    ``{leading column: integer row}`` by cross-multiplication at its leading
    entry, so the leading column only moves right; a vector that reduces to
    zero is dependent.
    """
    basis: dict[int, list[int]] = {}
    for v in vectors:
        if len(basis) == len(v):
            break
        row, _ = over_common_denominator(v)
        lead = next((c for c, x in enumerate(row) if x), None)
        while lead in basis:
            pivot = basis[lead]
            f, g = pivot[lead], row[lead]
            row = [f * x - g * y for x, y in zip(row, pivot)]
            common = gcd(*row)
            if common > 1:
                row = [x // common for x in row]
            lead = next((c for c, x in enumerate(row) if x), None)
        if lead is not None:
            basis[lead] = row
    return len(basis)


def _subtract(target: dict, f: Fraction, source: dict) -> None:
    """target -= f * source, in place, keeping only nonzero entries."""
    for col, v in source.items():
        w = target.get(col, ZERO) - f * v
        if w:
            target[col] = w
        else:
            target.pop(col, None)


def solve_affine(
    coeffs: Sequence[Sequence[Fraction]], rhs: Sequence[Fraction]
) -> tuple[list[Fraction], list[list[Fraction]], list[int]] | None:
    """Solve ``A x = b``; None when inconsistent.

    Returns (x0, directions, free_columns): the solution set is
    x0 + span(directions), where direction j has a 1 in free column j and the
    free columns are exactly the non-pivot variables.

    Rows are reduced one at a time against a fully reduced sparse basis
    ``{pivot column: {column: value}}`` with the right-hand side at column n.
    A row that reduces to zero is dropped; one that reduces to the
    right-hand side alone proves the system inconsistent.  Otherwise its
    smallest nonzero column becomes a pivot and is eliminated from the older
    rows that hold it; their pivots are all smaller, so every row still leads
    with its own pivot.  The basis is therefore always the unique reduced row
    echelon form of the augmented matrix, and the result depends neither on
    the order of the rows nor on duplicate rows.
    """
    if not coeffs:
        return [], [], []
    n = len(coeffs[0])
    basis: dict[int, dict[int, Fraction]] = {}
    for coeff_row, b in zip(coeffs, rhs):
        row = {col: v for col, v in enumerate(coeff_row) if v}
        if b:
            row[n] = b
        for col in [c for c in row if c in basis]:
            _subtract(row, row[col], basis[col])
        pivot = min(row, default=n)
        if pivot == n:
            if row:  # 0 = nonzero
                return None
            continue
        inv = ONE / row[pivot]
        if inv != 1:
            row = {col: v * inv for col, v in row.items()}
        for other in basis.values():
            f = other.get(pivot)
            if f:
                _subtract(other, f, row)
        basis[pivot] = row

    free = [c for c in range(n) if c not in basis]
    x0 = [ZERO] * n
    dirs = [[ONE if c == f else ZERO for c in range(n)] for f in free]
    slot = {f: j for j, f in enumerate(free)}
    for pivot, row in basis.items():
        for col, v in row.items():
            if col == n:
                x0[pivot] = v
            elif col != pivot:
                dirs[slot[col]][pivot] = -v
    return x0, dirs, free

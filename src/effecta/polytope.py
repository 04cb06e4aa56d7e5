"""Exact vertex enumeration for bounded polytopes inside a unit box.

The systems handled here live in a low-dimensional parameter space t of the
unit box [0,1]^d, cut by further halfspaces coeffs . t <= bound.  The
vertices are found by incremental cutting: keep the vertex set, slice with
one halfspace at a time, generate candidate points as crossings of vertex
pairs and keep exactly the points whose tight constraints have full rank
(which is what being a vertex means).

Vertices are exact Fraction tuples.  The test suite cross-checks them
against a brute-force solve of every d-subset of constraints and against
basic-solution enumeration of the raw state equalities.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product as iproduct

from .errors import SizeLimitExceeded
from .linalg import rref

ZERO = Fraction(0)
ONE = Fraction(1)

MAX_BOX_DIM = 12


@dataclass(frozen=True)
class HalfSpace:
    coeffs: tuple[Fraction, ...]
    bound: Fraction

    def value(self, point: tuple[Fraction, ...]) -> Fraction:
        """Slack at the point: >= 0 inside, 0 on the hyperplane."""
        return self.bound - sum(c * x for c, x in zip(self.coeffs, point))


def _box_constraints(d: int) -> list[HalfSpace]:
    cons = []
    for j in range(d):
        e = [ZERO] * d
        e[j] = ONE
        cons.append(HalfSpace(tuple(-x for x in e), ZERO))   # -t_j <= 0
        cons.append(HalfSpace(tuple(e), ONE))                # t_j <= 1
    return cons


def _tight_rank(point, constraints) -> int:
    rows = [list(c.coeffs) for c in constraints if c.value(point) == 0]
    return len(rref(rows))


def enumerate_vertices(d: int, cuts: list[HalfSpace]) -> list[tuple[Fraction, ...]]:
    """Vertices of [0,1]^d intersected with the given halfspaces.

    Empty list when the intersection is empty.
    """
    if d > MAX_BOX_DIM:
        raise SizeLimitExceeded(f"parameter dimension {d} exceeds {MAX_BOX_DIM}")
    if d == 0:
        point: tuple[Fraction, ...] = ()
        ok = all(c.value(point) >= 0 for c in cuts)
        return [point] if ok else []
    frac01 = (ZERO, ONE)
    verts = [tuple(p) for p in iproduct(frac01, repeat=d)]
    seen = _box_constraints(d)
    for cut in cuts:
        vals = [cut.value(v) for v in verts]
        seen.append(cut)
        if all(x >= 0 for x in vals):
            continue
        inside = [v for v, x in zip(verts, vals) if x >= 0]
        candidates = set(inside)
        for (v1, x1) in zip(verts, vals):
            if x1 <= 0:
                continue
            for (v2, x2) in zip(verts, vals):
                if x2 >= 0:
                    continue
                f = x1 / (x1 - x2)
                candidates.add(tuple(a + f * (b - a) for a, b in zip(v1, v2)))
        verts = [p for p in sorted(candidates) if _tight_rank(p, seen) == d]
        if not verts:
            return []
    return sorted(verts)


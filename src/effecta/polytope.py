"""Exact vertex enumeration for bounded polytopes inside a unit box.

The systems handled here live in a low-dimensional parameter space t of the
unit box [0,1]^d, cut by further halfspaces coeffs . t <= bound with integer
coefficients and bounds.  The vertices are found by the double description
method (Motzkin et al. 1953; Fukuda and Prodon, "Double description method
revisited", 1996): start from the corners of the box, slice with one
halfspace at a time, keep the vertices on its inner side and add one new
vertex on the hyperplane for every edge that crosses it.  Two vertices span
an edge exactly when at least d - 1 constraints are tight at both and no
third vertex is tight at all of them (the combinatorial adjacency test), so
no rank is ever computed and every new vertex is distinct.

The arithmetic is over integers.  Each vertex is held as a gcd-reduced
homogeneous tuple (numerators..., denominator) together with the bitmask of
the constraints tight at it, so its dot product with (-coeffs..., bound) is
its slack at the cut times its positive denominator; a crossing's mask is
the two endpoints' common mask plus the cut.  The vertices are returned in
that homogeneous form; no Fraction is built.  The test suite cross-checks
the vertices against a brute-force solve of every d-subset of constraints
and against basic-solution enumeration of the raw state equalities.
"""

from __future__ import annotations

from itertools import product as iproduct
from math import gcd
from operator import mul
from typing import NamedTuple

from .errors import SizeLimitExceeded

MAX_BOX_DIM = 12


class HalfSpace(NamedTuple):
    """The integer cut coeffs . t <= bound."""
    coeffs: tuple[int, ...]
    bound: int


def _adjacent(common: int, masks: list[int]) -> bool:
    """True when only the two vertices whose masks meet in ``common`` are
    tight at every constraint in it."""
    holders = 0
    for m in masks:
        if m & common == common:
            holders += 1
            if holders > 2:
                return False
    return True


def enumerate_vertices(d: int, cuts: list[HalfSpace]) -> list[tuple[int, ...]]:
    """Vertices of [0,1]^d intersected with the given halfspaces, each as
    its gcd-reduced homogeneous integer tuple (numerators..., denominator)
    with a positive denominator, in an order fixed by the input.

    Empty list when the intersection is empty.
    """
    if d > MAX_BOX_DIM:
        raise SizeLimitExceeded(f"parameter dimension {d} exceeds {MAX_BOX_DIM}")
    # constraint 2j is t_j >= 0, 2j + 1 is t_j <= 1, 2d + k is cut k
    corners = list(iproduct((0, 1), repeat=d))
    verts = [(*corner, 1) for corner in corners]
    masks = [sum(bits) for bits in iproduct(*((1 << 2 * j, 2 << 2 * j)
                                              for j in range(d)))]
    for k, cut in enumerate(cuts):
        row = (*(-c for c in cut.coeffs), cut.bound)
        bit = 1 << (2 * d + k)
        slacks = [sum(map(mul, row, w)) for w in verts]
        masks = [m | bit if s == 0 else m for m, s in zip(masks, slacks)]
        minus = [i for i, s in enumerate(slacks) if s < 0]
        if not minus:
            continue
        kept = [i for i, s in enumerate(slacks) if s >= 0]
        new_verts = [verts[i] for i in kept]
        new_masks = [masks[i] for i in kept]
        for i in kept:
            s1 = slacks[i]
            if s1 == 0:
                continue
            for j in minus:
                common = masks[i] & masks[j]
                if common.bit_count() < d - 1 or not _adjacent(common, masks):
                    continue
                s2 = slacks[j]
                w = [s1 * b - s2 * a for a, b in zip(verts[i], verts[j])]
                g = gcd(*w)
                new_verts.append(tuple(x // g for x in w))
                new_masks.append(common | bit)
        if not new_verts:
            return []
        verts, masks = new_verts, new_masks
    return verts

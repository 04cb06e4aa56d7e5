"""Finite effect algebras.

An effect algebra here is a finite carrier with a partial commutative,
associative sum, a zero, a unit, unique orthosupplements and the positivity
law (a + 1 defined forces a = 0).  Everything downstream (states, function
representations, smearing, spectral measures) consumes the validated
structure built by :func:`validate_effect_algebra`.

Elements are dense integer ids ``0..n-1``; human-readable labels live in a
parallel tuple and appear in every error witness.
"""

from __future__ import annotations

from functools import wraps
from math import prod
from operator import itemgetter
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence

from .errors import (
    AxiomViolation,
    NonUniqueSupplement,
    SizeLimitExceeded,
    TheoremViolation,
)

DEFAULT_MAX_SIZE = 64       # elements, when no bound is given


def once(fn):
    """``fn(obj, *args)`` computed on first use and kept in ``obj._memo``,
    keyed by the function's name and its arguments.  A call that raises
    keeps nothing, so the next call meets the same size cap or gate."""
    @wraps(fn)
    def kept(obj, *args):
        key = (fn.__name__, *args)
        if key not in obj._memo:
            obj._memo[key] = fn(obj, *args)
        return obj._memo[key]
    return kept


def _bits(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class EffectAlgebra:
    """Validated finite effect algebra.

    Instances are immutable by convention and should only be created through
    :func:`validate_effect_algebra` (or the generator families built on it).
    """

    __slots__ = (
        "labels", "zero", "one",
        "_sum", "_comp", "_down", "_index", "_pairs", "_memo",
    )

    def __init__(self, labels, zero, one, sum_table, comp, down, index, pairs):
        self.labels: tuple[str, ...] = labels
        self.zero: int = zero
        self.one: int = one
        self._sum = sum_table          # tuple[list[int | None]]
        self._comp = comp              # tuple[int]
        self._down = down              # bitmask of {x : x <= a} per element
        self._index = index            # label -> id
        self._pairs = pairs            # number of defined ordered pairs
        self._memo: dict = {}          # the values of ``once``

    # -- basic structure ----------------------------------------------------

    @property
    def n(self) -> int:
        return len(self.labels)

    def elements(self) -> range:
        return range(len(self.labels))

    def label(self, a: int) -> str:
        return self.labels[a]

    def index(self, label: str) -> int:
        return self._index[label]

    def add(self, a: int, b: int) -> Optional[int]:
        """Partial sum; None when undefined."""
        return self._sum[a][b]

    def comp(self, a: int) -> int:
        """The unique orthosupplement."""
        return self._comp[a]

    @once
    def defined_sums(self) -> tuple[tuple[int, int, int], ...]:
        """All (a, b, a+b) with a <= b as indices; each unordered pair once."""
        return tuple((a, b, c) for a, row in enumerate(self._sum)
                     for b, c in enumerate(row[a:], a) if c is not None)

    # -- derived order ------------------------------------------------------

    def leq(self, a: int, b: int) -> bool:
        return bool(self._down[b] >> a & 1)

    def minus(self, b: int, a: int) -> Optional[int]:
        """The unique c with a + c = b, or None when a is not below b.

        a <= b exactly when a + b' is defined, and then c = (a + b')':
        - if a + c = b, then (a + b') + c = 1 by (ii) and (iii), so
          c = (a + b')';
        - if a + b' is defined, then a + (a + b')' = b by uniqueness of the
          orthosupplement."""
        s = self._sum[a][self._comp[b]]
        return None if s is None else self._comp[s]

    def down_mask(self, a: int) -> int:
        return self._down[a]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"EffectAlgebra(n={self.n}, zero={self.labels[self.zero]!r}, one={self.labels[self.one]!r})"


def iterated_sum(M: EffectAlgebra, parts: Sequence[int]) -> Optional[int]:
    """Left fold of the partial sum; None as soon as a prefix is undefined.

    For valid inputs the result is order independent (generalized
    associativity), so the fold order is just a convention.
    """
    acc = M.zero
    for p in parts:
        acc = M.add(acc, p)
        if acc is None:
            return None
    return acc


@once
def atom_coordinates(M: EffectAlgebra) -> tuple[tuple[int, ...], tuple]:
    """The atoms (the elements with no lower bounds but 0 and themselves) in
    id order, and per element x the integer vector m(x) that writes x as a
    sum of m(x)[i] copies of atom i.

    m(x) is read off the first path to x of a breadth-first walk from 0
    that adds one atom at a time.  Every element is a sum of atoms and every
    prefix of a defined sum is defined, so the walk reaches them all; by
    additivity along the path, a state s has s(x) = m(x) . (s(atom_i))_i."""
    atoms = tuple(a for a in M.elements() if a != M.zero
                  and M.down_mask(a) == 1 << M.zero | 1 << a)
    coords: list = [None] * M.n
    coords[M.zero] = (0,) * len(atoms)
    queue = [M.zero]
    for x in queue:                     # grows while it is walked
        mx = coords[x]
        for i, a in enumerate(atoms):
            y = M.add(x, a)
            if y is not None and coords[y] is None:
                coords[y] = mx[:i] + (mx[i] + 1,) + mx[i + 1:]
                queue.append(y)
    return atoms, tuple(coords)


# ---------------------------------------------------------------------------
# validation


def validate_effect_algebra(
    labels: Sequence[str],
    zero: str,
    one: str,
    sums: Iterable[tuple[str, str, str]],
    *,
    max_size: int | None = None,
) -> EffectAlgebra:
    """Check the four defining axioms exhaustively and build the algebra.

    ``sums`` lists defined sums as label triples (a, b, a+b).  A pair listed
    in one order only is treated as defined in both (the table of a
    commutative operation); listing both orders with different results is a
    commutativity violation.
    """
    labels = tuple(labels)
    n = len(labels)
    bound = DEFAULT_MAX_SIZE if max_size is None else max_size
    if n > bound:
        raise SizeLimitExceeded(f"{n} elements exceeds the size bound {bound}")
    index = {lbl: i for i, lbl in enumerate(labels)}    # last positions
    if len(index) != n:     # the first label in document order met again
        dup = next(lbl for i, lbl in enumerate(labels) if index[lbl] != i)
        raise AxiomViolation("i", (dup,), "duplicate element label")
    if zero not in index or one not in index:
        raise AxiomViolation("iv", (zero, one), "zero/one not among the elements")
    zi, oi = index[zero], index[one]
    if zi == oi:
        raise AxiomViolation("iv", (zero,), "zero and one coincide")

    table: list[list[int | None]] = [[None] * n for _ in range(n)]
    for la, lb, lc in sums:
        try:
            a, b, c = index[la], index[lb], index[lc]
        except KeyError as exc:
            raise AxiomViolation("i", (la, lb, lc), f"unknown label {exc}") from None
        if table[a][b] is not None and table[a][b] != c:
            raise AxiomViolation("i", (la, lb), "conflicting entries for the same pair")
        table[a][b] = c

    # symmetrize: a pair given in one order is defined in both
    for a in range(n):
        for b in range(a, n):
            x, y = table[a][b], table[b][a]
            if x is not None and y is not None and x != y:
                raise AxiomViolation("i", (labels[a], labels[b]),
                                     f"{labels[x]} vs {labels[y]}")
            if x is None:
                table[a][b] = y
            elif y is None:
                table[b][a] = x

    # axiom (ii): a+b and (a+b)+c defined  iff  b+c and a+(b+c) defined, equal.
    # Row b mapped through row a must equal row a+b.  With a+b undefined,
    # no sum b+c (bits img[b]) may be summable with a.  Otherwise both rows
    # are undefined outside dom[b] | dom[a+b]: no c of dom[a+b] may lie
    # outside dom[b], and at the c in dom[b] row a+b (picked by at_dom[b])
    # must equal row a at the sums b+c (picked by at_sum[b]).  A row b with
    # nothing defined leaves every a+b undefined, so it is never picked.
    # The witness is the lowest c where the two rows differ.
    defined = [[y for y, v in enumerate(row) if v is not None]
               for row in table]
    dom = [sum(1 << y for y in ys) for ys in defined]
    img = [sum({1 << row[y] for y in ys}) for row, ys in zip(table, defined)]
    at_dom = [itemgetter(*ys) if ys else None for ys in defined]
    at_sum = [itemgetter(*(row[y] for y in ys)) if ys else None
              for row, ys in zip(table, defined)]
    for a in range(n):
        ta = table[a]
        for b, ab in enumerate(ta):
            if ab is None:
                if not img[b] & dom[a]:
                    continue
                lefts = [None] * n
            else:
                lefts = table[ab]
                if (not dom[ab] & ~dom[b]
                        and at_dom[b](lefts) == at_sum[b](ta)):
                    continue
            rights = [None if v is None else ta[v] for v in table[b]]
            c = next(c for c in range(n) if lefts[c] != rights[c])
            left, right = lefts[c], rights[c]
            raise AxiomViolation(
                "ii", (labels[a], labels[b], labels[c]),
                f"(a+b)+c = {None if left is None else labels[left]}, "
                f"a+(b+c) = {None if right is None else labels[right]}")

    # axiom (iii): unique orthosupplement, among the defined entries of row a
    comp: list[int] = [0] * n
    for a, (row, ys) in enumerate(zip(table, defined)):
        cands = [x for x in ys if row[x] == oi]
        if not cands:
            raise AxiomViolation("iii", (labels[a],), "no orthosupplement")
        if len(cands) > 1:
            raise NonUniqueSupplement(labels[a], tuple(labels[x] for x in cands))
        comp[a] = cands[0]

    # axiom (iv): a + 1 defined only for a = 0
    for a in range(n):
        if a != zi and table[a][oi] is not None:
            raise AxiomViolation("iv", (labels[a],), "a + 1 is defined")

    # the derived order.  a <= b when a + c = b for some c, which after
    # (i)-(iv) holds exactly when a + b' is defined: the elements below b
    # are the summable mask of b'.  If a + c = b, (c + a) + b' = 1 makes
    # a + b' defined by (ii); if a + b' is defined, c = (a + b')' gives
    # (b' + a) + c = 1, so by (ii) b' + (a + c) = 1 and a + c = b by (iii).
    # That c is unique (see ``EffectAlgebra.minus``), and antisymmetry is a
    # theorem: a + c = b and b + d = a give a + (c + d) = a, so c + d = 0
    # by cancellation, and c = d = 0 by positivity.
    down = [dom[c] for c in comp]

    return EffectAlgebra(labels, zi, oi, tuple(table), tuple(comp),
                         tuple(down), index, sum(map(len, defined)))


# ---------------------------------------------------------------------------
# 2x2 refinement (interpolation) property


class RdpResult(NamedTuple):
    holds: bool
    witness: tuple[int, int, int, int] | None
    algebra: EffectAlgebra

    def witness_labels(self) -> tuple[str, str, str, str] | None:
        if self.witness is None:
            return None
        return tuple(self.algebra.label(x) for x in self.witness)  # type: ignore[return-value]


def _refine(M: EffectAlgebra, a1: int, a2: int, b1: int, b2: int) -> bool:
    """Does a1 + a2 = b1 + b2 admit a 2x2 refinement?  Fixing the top-left
    entry determines the rest through differences, so one scan over
    candidates suffices."""
    lowers = M.down_mask(a1) & M.down_mask(b1)
    for c11 in _bits(lowers):
        c12 = M.minus(a1, c11)
        c21 = M.minus(b1, c11)
        if not M.leq(c21, a2):
            continue
        c22 = M.minus(a2, c21)
        if M.add(c12, c22) == b2:
            return True
    return False


def _chain_heights(M: EffectAlgebra) -> tuple[int, ...] | None:
    """The h of a verified isomorphism of M onto the product of the chains
    C_{h_i}, or None.  With h_i the largest m_i, m maps M into the box of
    prod (h_i + 1) vectors; M is that product when it has as many elements
    and prod (h_i + 1)(h_i + 2)/2 defined ordered pairs.

    m is injective on a validated algebra: x is the sum of the atoms m(x)
    counts, and by generalized associativity a multiset of atoms has one
    sum.  With the box count, m is a bijection onto the box.  For u + v in
    the box, the atoms u + v counts sum to the z with m(z) = u + v, so
    their sub-multisets u and v sum to the x and y with m(x) = u and
    m(y) = v, and x + y = z: each of those box pairs is a defined pair
    that m adds along.  Every other defined pair has an m-sum outside the
    box.  So the defined pairs number prod (h_i + 1)(h_i + 2)/2 exactly
    when m adds along every defined sum and maps them onto the box pairs.
    Validation counts the defined pairs once, from the rows it builds."""
    _, m = atom_coordinates(M)
    heights = tuple(map(max, zip(*m)))
    if (M.n == prod(h + 1 for h in heights)
            and M._pairs == prod((h + 1) * (h + 2) // 2 for h in heights)):
        return heights
    return None


@once
def check_rdp(M: EffectAlgebra) -> RdpResult:
    """Decide whether every pair of equal defined sums admits a 2x2
    refinement.  A finite effect algebra with the refinement property is a
    finite MV-effect algebra, so a product of chains: refinement holds
    exactly when the certificate does, and otherwise the scan names the
    failing quadruple.  A scan that finds none where the certificate failed is a
    ``TheoremViolation``."""
    if _chain_heights(M) is not None:
        return RdpResult(True, None, M)
    scan = _refinement_scan(M)
    if scan.holds:
        raise TheoremViolation(
            "the refinement scan found no failure, but the algebra "
            "is no certified product of chains")
    return scan


def _refinement_scan(M: EffectAlgebra) -> RdpResult:
    """Refine every pair of equal defined sums; the first failure is the witness."""
    decomp: list[list[tuple[int, int]]] = [[] for _ in range(M.n)]
    for a, row in enumerate(M._sum):
        for b, v in enumerate(row):
            if v is not None:
                decomp[v].append((a, b))
    for pairs in decomp:
        for a1, a2 in pairs:
            for b1, b2 in pairs:
                if not _refine(M, a1, a2, b1, b2):
                    return RdpResult(False, (a1, a2, b1, b2), M)
    return RdpResult(True, None, M)


# ---------------------------------------------------------------------------
# sharp elements


class SharpSet(NamedTuple):
    """The elements a with a /\\ a' existing and equal to zero."""
    members: tuple[int, ...]


@once
def sharp_elements(M: EffectAlgebra) -> SharpSet:
    """The a with a /\\ a' = 0, in id order: that meet exists and is 0
    exactly when 0 is the only common lower bound of a and a', one AND of
    their down masks, on any algebra.  On a certified product of chains
    the common lower bounds of a and a' are the m with m_i at most
    min(m_i(a), h_i - m_i(a)), so the sharp elements are the m with each
    m_i in {0, h_i}: the corners of the box, a power set whose meet, join
    and complement the isomorphism carries, so a Boolean algebra."""
    return SharpSet(tuple(
        a for a in M.elements()
        if M.down_mask(a) & M.down_mask(M.comp(a)) == 1 << M.zero))

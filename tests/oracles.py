"""Independent reference implementations used to cross-check the library.

Everything here is deliberately written from first principles against the
raw data (sum tables as dicts, equality systems as row lists) rather than
through the library's own algorithms, so that agreement between the two
routes is evidence and not tautology.
"""

import random
import weakref
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, permutations, product
from math import lcm
from typing import NamedTuple

from effecta.errors import AxiomViolation, EffectaError

ZERO = Fraction(0)
ONE = Fraction(1)


# ---------------------------------------------------------------------------
# Fraction views of the library's integer data: the extremal states and the
# member functions are integer rows over one denominator there, and read as
# rationals here, so a test states and compares values as rationals


class State(NamedTuple):
    """Value vector aligned with the element ids of its algebra."""
    values: tuple[Fraction, ...]


def vertices(P):
    """The extremal states of the polytope P as States, in its order."""
    return tuple(State(tuple(Fraction(v, P.den) for v in row))
                 for row in P.numerators)


def functions(rep):
    """The member functions of rep as Fraction tuples, in its order."""
    rows, den = rep.evaluation
    return tuple(tuple(Fraction(v, den) for v in row) for row in rows)


def function_of(rep, a):
    """The first member function mapping to a, as a Fraction tuple."""
    return tuple(Fraction(v, rep.evaluation[1]) for v in rep.row_of(a))


def kernel_functions(rep, kernel):
    """The member functions of a smearing kernel over rep, by outcome key,
    as Fraction tuples."""
    den = rep.evaluation[1]
    return {key: tuple(Fraction(v, den) for v in f)
            for key, f in kernel.functions.items()}


# ---------------------------------------------------------------------------
# generator families, by a walk over every candidate pair


def dense_build(spec, bound):
    """(labels, zero, one, sums) of a valid family spec, found by testing
    every candidate pair of elements for summability: the reference for
    ``generators._build``, which lists only the summable pairs.  Members of
    products and horizontal sums are built by this walk as well."""
    from effecta.algebra import validate_effect_algebra

    def member(s):
        return validate_effect_algebra(*dense_build(s, bound), max_size=bound)

    family, arg = spec
    if family == "chain":
        labels = [str(k) for k in range(arg + 1)]
        sums = [(str(i), str(j), str(i + j))
                for i in range(arg + 1) for j in range(i, arg + 1)
                if i + j <= arg]
        return labels, "0", str(arg), sums

    if family == "boolean":
        subsets = [frozenset(i + 1 for i in range(arg) if mask >> i & 1)
                   for mask in range(2 ** arg)]
        lbl = lambda s: "{" + ",".join(str(x) for x in sorted(s)) + "}"
        sums = [(lbl(s), lbl(t), lbl(s | t))
                for s in subsets for t in subsets if not s & t]
        return ([lbl(s) for s in subsets], lbl(frozenset()),
                lbl(frozenset(range(1, arg + 1))), sums)

    if family == "interval":
        points = list(product(*(range(x + 1) for x in arg)))
        lbl = lambda v: "(" + ",".join(str(x) for x in v) + ")"
        sums = []
        for v in points:
            for w in points:
                s = tuple(a + b for a, b in zip(v, w))
                if all(a <= b for a, b in zip(s, arg)):
                    sums.append((lbl(v), lbl(w), lbl(s)))
        return ([lbl(v) for v in points], lbl((0,) * len(arg)), lbl(arg),
                sums)

    if family == "product":
        factors = [member(s) for s in arg]
        points = list(product(*(F.elements() for F in factors)))
        lbl = lambda v: "(" + ",".join(F.label(x)
                                       for F, x in zip(factors, v)) + ")"
        sums = []
        for v in points:
            for w in points:
                parts = [F.add(a, b) for F, a, b in zip(factors, v, w)]
                if None not in parts:
                    sums.append((lbl(v), lbl(w), lbl(parts)))
        return ([lbl(v) for v in points], lbl([F.zero for F in factors]),
                lbl([F.one for F in factors]), sums)

    assert family == "horizontal_sum", family
    summands = [member(s) for s in arg]

    def tr(i, a):
        S = summands[i]
        return ("0" if a == S.zero else "1" if a == S.one
                else f"h{i}:{S.label(a)}")

    labels = ["0", "1"] + [tr(i, a) for i, S in enumerate(summands)
                           for a in S.elements() if a not in (S.zero, S.one)]
    # each unordered pair of a summand once, the lower id first, and 0 + x
    table = {}
    for i, S in enumerate(summands):
        for a in S.elements():
            for b in range(a, S.n):
                c = S.add(a, b)
                if c is not None:
                    table[(tr(i, a), tr(i, b))] = tr(i, c)
    for l in labels:
        table[("0", l)] = l
    return labels, "0", "1", [(a, b, c) for (a, b), c in table.items()]


# ---------------------------------------------------------------------------
# refinement property, by brute quantifier scan over a raw sum table


def sum_table_dict(M):
    """Symmetrized {(label, label): label} table read off the algebra's
    serialized form; the oracle below consumes only this dict."""
    table = {}
    for a, b, c in M.defined_sums():
        la, lb, lc = M.label(a), M.label(b), M.label(c)
        table[(la, lb)] = lc
        table[(lb, la)] = lc
    return table


def brute_rdp(labels, table):
    """Return None when every pair of equal sums refines, else the first
    offending quadruple (a1, a2, b1, b2) in label-list order.

    A refinement of a1 + a2 = b1 + b2 is any (c11, c12, c21, c22) with
    row sums a1, a2 and column sums b1, b2 — all four membership and sum
    conditions checked literally against the table.  The candidate rows
    (c11, c12) and (c21, c22) are the table's own pairs with sums a1 and
    a2, since no other pair meets its row-sum condition.
    """
    pairs_to = {}
    for pair, total in table.items():
        pairs_to.setdefault(total, []).append(pair)
    for a1, a2 in product(labels, repeat=2):
        v = table.get((a1, a2))
        if v is None:
            continue
        for b1, b2 in product(labels, repeat=2):
            if table.get((b1, b2)) != v:
                continue
            if not any(
                table.get((c11, c12)) == a1
                and table.get((c21, c22)) == a2
                and table.get((c11, c21)) == b1
                and table.get((c12, c22)) == b2
                for c11, c12 in pairs_to.get(a1, ())
                for c21, c22 in pairs_to.get(a2, ())
            ):
                return (a1, a2, b1, b2)
    return None


def dense_pair_count(M):
    """The defined ordered pairs, counted over all n^2 slots."""
    return sum(M.add(a, b) is not None
               for a in M.elements() for b in M.elements())


def refinement_scan_reference(M):
    """The refinement scan with each element's decompositions listed by a
    walk of all n^2 slots in row-major order, refined by the library's
    ``_refine``: the first failing quadruple, grouped by sum in id order."""
    from effecta.algebra import RdpResult, _refine
    decomp = [[] for _ in M.elements()]
    for a in M.elements():
        for b in M.elements():
            if (v := M.add(a, b)) is not None:
                decomp[v].append((a, b))
    for pairs in decomp:
        for a1, a2 in pairs:
            for b1, b2 in pairs:
                if not _refine(M, a1, a2, b1, b2):
                    return RdpResult(False, (a1, a2, b1, b2), M)
    return RdpResult(True, None, M)


def chain_heights_reference(M):
    """The product-of-chains certificate with all four of its conditions
    tested literally: with h_i the largest atom count m_i, m must be
    injective, fill the box of prod (h_i + 1) vectors, add along every
    defined sum, and give prod (h_i + 1)(h_i + 2)/2 defined ordered pairs.
    Returns h, or None.  The library tests the box and pair counts alone,
    which on a validated algebra imply the other two."""
    from effecta.algebra import atom_coordinates
    _, m = atom_coordinates(M)
    heights = tuple(map(max, zip(*m)))
    box = 1
    pair_box = 1
    for h in heights:
        box *= h + 1
        pair_box *= (h + 1) * (h + 2) // 2
    sums = list(M.defined_sums())
    pairs = sum(2 - (a == b) for a, b, _ in sums)
    if (len(set(m)) == M.n == box and pairs == pair_box
            and all(tuple(x + y for x, y in zip(m[a], m[b])) == m[c]
                    for a, b, c in sums)):
        return heights
    return None


# ---------------------------------------------------------------------------
# associativity, by the full triple loop over the raw sum list


def associativity_violation(labels, zero, one, sums):
    """The axiom (ii) violation that the loop over every (a, b, c) in id
    order meets first, as the ``AxiomViolation`` the validator raises, or
    None.  None also when the table is turned away before associativity:
    a repeated label, zero or one missing or equal, an unknown label, or
    two different results for one pair in either order."""
    labels = list(labels)
    n = len(labels)
    index = {lbl: i for i, lbl in enumerate(labels)}
    if len(index) != n or zero not in index or one not in index or zero == one:
        return None
    table = {}
    for la, lb, lc in sums:
        if la not in index or lb not in index or lc not in index:
            return None
        for pair in ((index[la], index[lb]), (index[lb], index[la])):
            if table.setdefault(pair, index[lc]) != index[lc]:
                return None
    lab = lambda x: None if x is None else labels[x]
    for a, b, c in product(range(n), repeat=3):
        ab, bc = table.get((a, b)), table.get((b, c))
        left = None if ab is None else table.get((ab, c))
        right = None if bc is None else table.get((a, bc))
        if left != right:
            return AxiomViolation(
                "ii", (labels[a], labels[b], labels[c]),
                f"(a+b)+c = {lab(left)}, a+(b+c) = {lab(right)}")
    return None


def validator_rejection(labels, zero, one, sums):
    """What the library's validator raises on a table, as comparable data
    (type, axiom, witnesses, message), or None when it accepts it."""
    from effecta import validate_effect_algebra
    try:
        validate_effect_algebra(labels, zero, one, sums, max_size=4096)
    except EffectaError as exc:
        return (type(exc), getattr(exc, "axiom", None),
                getattr(exc, "witnesses", None), str(exc))
    return None


def derived_order_failure(sums):
    """None when the symmetrized sum list has unique differences (at most
    one c with a + c = b for each a and b) and an antisymmetric derived
    order (a + c = b and b + d = a only for a = b); else the first failure,
    as ("difference", a, b, c, c') or ("antisymmetry", a, b)."""
    table = {}
    for a, b, c in sums:
        table[(a, b)] = table[(b, a)] = c
    diffs = {}
    for (a, c), b in sorted(table.items()):
        diffs.setdefault((a, b), set()).add(c)
    for (a, b), cs in sorted(diffs.items()):
        if len(cs) > 1:
            return ("difference", a, b, *sorted(cs)[:2])
    for a, b in sorted(diffs):
        if a != b and (b, a) in diffs:
            return ("antisymmetry", a, b)
    return None


def assert_associativity_matches(labels, zero, one, sums):
    """The validator raises exactly the axiom (ii) violation that the full
    loop meets first, and none when that loop passes."""
    ref = associativity_violation(labels, zero, one, sums)
    got = validator_rejection(labels, zero, one, sums)
    if ref is None:
        assert got is None or got[1] != "ii", got
    else:
        assert got == (AxiomViolation, "ii", ref.witnesses, str(ref)), got


# ---------------------------------------------------------------------------
# sharpness, by the order defined straight from the sum table


def brute_lower_bounds(labels, table, a, b):
    """Elements x with x <= a and x <= b, where x <= y means some z has
    x + z = y in the table."""
    below = lambda x, y: any(table.get((x, z)) == y for z in labels)
    return [x for x in labels if below(x, a) and below(x, b)]


def brute_sharp(labels, table, zero, one):
    """Labels a such that the only common lower bound of a and its
    complement (the unique b with a + b = one) is zero."""
    out = []
    for a in labels:
        comp = next(b for b in labels if table.get((a, b)) == one)
        lowers = brute_lower_bounds(labels, table, a, comp)
        if lowers == [zero]:
            out.append(a)
    return out


def meet(M, a, b):
    """a /\\ b: the common lower bound of a and b whose own lower bounds
    are all of them, read off M's down masks.  None when there is none."""
    lowers = M.down_mask(a) & M.down_mask(b)
    return next((x for x in M.elements() if M.down_mask(x) == lowers), None)


def join(M, a, b):
    """a \\/ b, read off the meet as (a' /\\ b')': x -> x' reverses the
    order, so it carries the meet of the complements to the join.  None
    when that meet does not exist."""
    m = meet(M, M.comp(a), M.comp(b))
    return None if m is None else M.comp(m)


def boolean_law_scan(M, members):
    """The first Boolean-algebra law that ``members`` breaks under M's
    meet, join and complement, as (law, witnesses), or None when all hold.

    Every law is checked literally, pairs and triples alike: bounds,
    complement closure and laws, meet/join closure, De Morgan, absorption,
    distributivity and meet associativity.  O(k^3) for k members.
    """
    meets = {(a, b): meet(M, a, b) for a in members for b in members}
    joins = {(a, b): join(M, a, b) for a in members for b in members}
    if M.zero not in members or M.one not in members:
        return "bounds", (M.zero, M.one)
    for a in members:
        if M.comp(a) not in members:
            return "complement-closure", (a,)
        if meets[(a, M.comp(a))] != M.zero:
            return "a /\\ a' = 0", (a,)
        if joins[(a, M.comp(a))] != M.one:
            return "a \\/ a' = 1", (a,)
    for a in members:
        for b in members:
            m, j = meets[(a, b)], joins[(a, b)]
            if m is None or m not in members:
                return "meet-closure", (a, b)
            if j is None or j not in members:
                return "join-closure", (a, b)
            if M.comp(m) != joins[(M.comp(a), M.comp(b))]:
                return "de-morgan", (a, b)
            if meets[(a, j)] != a or joins[(a, m)] != a:
                return "absorption", (a, b)
    for a in members:
        for b in members:
            for c in members:
                if meets[(a, joins[(b, c)])] != joins[(meets[(a, b)], meets[(a, c)])]:
                    return "distributivity", (a, b, c)
                if meets[(meets[(a, b)], c)] != meets[(a, meets[(b, c)])]:
                    return "meet-associativity", (a, b, c)
    return None


# ---------------------------------------------------------------------------
# exact linear algebra, independent of the library's solver


def gauss_solve(rows, rhs):
    """Solve the linear system rows . x = rhs exactly.

    Returns the unique solution vector, or None when the system is
    singular or inconsistent.  Plain Gaussian elimination with partial
    (first-nonzero) pivoting over Fractions.
    """
    m = len(rows)
    if m == 0:
        return None
    n = len(rows[0])
    aug = [[Fraction(v) for v in row] + [Fraction(b)]
           for row, b in zip(rows, rhs)]
    row = 0
    pivots = []
    for col in range(n):
        pivot = next((r for r in range(row, m) if aug[r][col] != 0), None)
        if pivot is None:
            continue
        aug[row], aug[pivot] = aug[pivot], aug[row]
        inv = aug[row][col]
        aug[row] = [v / inv for v in aug[row]]
        for r in range(m):
            if r != row and aug[r][col] != 0:
                factor = aug[r][col]
                aug[r] = [v - factor * w for v, w in zip(aug[r], aug[row])]
        pivots.append(col)
        row += 1
        if row == m:
            break
    for r in range(row, m):
        if aug[r][n] != 0:
            return None                      # inconsistent
    if len(pivots) < n:
        return None                          # underdetermined
    x = [ZERO] * n
    for r, col in enumerate(pivots):
        x[col] = aug[r][n]
    return x


def matrix_rank(rows):
    if not rows:
        return 0
    n = len(rows[0])
    work = [[Fraction(v) for v in row] for row in rows]
    rank = 0
    for col in range(n):
        pivot = next((r for r in range(rank, len(work)) if work[r][col] != 0),
                     None)
        if pivot is None:
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        inv = work[rank][col]
        work[rank] = [v / inv for v in work[rank]]
        for r in range(len(work)):
            if r != rank and work[r][col] != 0:
                f = work[r][col]
                work[r] = [v - f * w for v, w in zip(work[r], work[rank])]
        rank += 1
    return rank


def dense_rref(rows):
    """Reduce in place to reduced row echelon form, return pivot columns."""
    if not rows:
        return []
    ncols = len(rows[0])
    pivots = []
    r = 0
    for col in range(ncols):
        pivot_row = None
        for i in range(r, len(rows)):
            if rows[i][col] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        inv = ONE / rows[r][col]
        if inv != 1:
            rows[r] = [x * inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][col] != 0:
                f = rows[i][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(col)
        r += 1
        if r == len(rows):
            break
    return pivots


def dense_solve_affine(coeffs, rhs):
    """The affine solve as a dense rref of the whole augmented matrix: the
    reference for the state equations the library reduces with its integer
    ``echelon``.

    Returns None when inconsistent, else (x0, directions, free_columns) with
    direction j equal to 1 in free column j, read off the reduced rows.
    """
    if not coeffs:
        return [], [], []
    n = len(coeffs[0])
    aug = [list(row) + [b] for row, b in zip(coeffs, rhs)]
    pivots = dense_rref(aug)
    if n in pivots:  # pivot in the constant column: 0 = nonzero
        return None
    free = [c for c in range(n) if c not in pivots]
    x0 = [ZERO] * n
    for r, col in enumerate(pivots):
        x0[col] = aug[r][n]
    dirs = []
    for f in free:
        d = [ZERO] * n
        d[f] = ONE
        for r, col in enumerate(pivots):
            d[col] = -aug[r][f]
        dirs.append(d)
    return x0, dirs, free


# ---------------------------------------------------------------------------
# the library's integer echelon and cuts, read in the Fraction shapes above


def integer_row(values):
    """Rationals times the least common multiple of their denominators."""
    values = [Fraction(v) for v in values]
    scale = lcm(*(v.denominator for v in values))
    return [(v * scale).numerator for v in values]


def integer_cut(cut):
    """A rational halfspace as the library's integer ``HalfSpace`` with the
    same inside."""
    from effecta.polytope import HalfSpace

    *coeffs, bound = integer_row([*cut.coeffs, cut.bound])
    return HalfSpace(tuple(coeffs), bound)


def echelon_solve(coeffs, rhs):
    """``dense_solve_affine``'s result read off the library's ``echelon`` of
    the augmented rows scaled to integers: pivot column p of row r is
    (r[n] - sum_f r[f] x_f) / r[p] over the free columns f."""
    from effecta.linalg import echelon

    if not coeffs:
        return [], [], []
    n = len(coeffs[0])
    basis = echelon(integer_row([*row, b]) for row, b in zip(coeffs, rhs))
    if n in basis:
        return None
    free = [c for c in range(n) if c not in basis]
    x0 = [ZERO] * n
    dirs = [[ONE if c == f else ZERO for c in range(n)] for f in free]
    for p, r in basis.items():
        x0[p] = Fraction(r[n], r[p])
        for d, f in zip(dirs, free):
            d[p] = Fraction(-r[f], r[p])
    return x0, dirs, free


# ---------------------------------------------------------------------------
# vertices of {x in [0,1]^n : rows . x = rhs}, by basic feasible solutions


def brute_vertices(rows, rhs, n, limit=12):
    """All extreme points, enumerated as basic solutions.

    Every vertex is the unique solution of the equality rows plus some
    choice of n - rank coordinates fixed at 0 or 1; we try every such
    choice, keep the feasible solutions, and deduplicate.  Exponential and
    guarded, which is the point: it shares no code with the incremental
    enumeration it checks.
    """
    if n > limit:
        raise ValueError(f"brute vertex oracle capped at {limit} variables")
    rank = matrix_rank(rows)
    need = n - rank
    found = set()
    for coords in combinations(range(n), need):
        for values in product((ZERO, ONE), repeat=need):
            full_rows = [list(row) for row in rows]
            full_rhs = list(rhs)
            for c, v in zip(coords, values):
                unit = [ZERO] * n
                unit[c] = ONE
                full_rows.append(unit)
                full_rhs.append(v)
            x = gauss_solve(full_rows, full_rhs)
            if x is None:
                continue
            if any(v < 0 or v > 1 for v in x):
                continue
            if any(sum(r * v for r, v in zip(row, x)) != b
                   for row, b in zip(rows, rhs)):
                continue
            found.add(tuple(x))
    return sorted(found)


# ---------------------------------------------------------------------------
# vertices of a cut unit box, by brute force over constraint subsets


def box_vertices_brute(d, cuts):
    """Vertices of [0,1]^d cut by halfspaces (objects with ``coeffs`` and
    ``bound``, inside meaning coeffs . t <= bound), by solving every d-subset
    of the box and cut constraints and keeping the feasible solutions: the
    reference for the library's incremental cutting."""
    cons = []
    for i in range(d):
        e = tuple(ONE if j == i else ZERO for j in range(d))
        cons.append((tuple(-x for x in e), ZERO))   # -t_i <= 0
        cons.append((e, ONE))                        # t_i <= 1
    cons += [(tuple(c.coeffs), c.bound) for c in cuts]
    found = set()
    for subset in combinations(range(len(cons)), d):
        rows = [list(cons[i][0]) + [cons[i][1]] for i in subset]
        pivots = dense_rref(rows)
        if len(pivots) != d or d in pivots:
            continue
        point = [ZERO] * d
        for r, col in enumerate(pivots):
            point[col] = rows[r][d]
        p = tuple(point)
        if all(sum(c * x for c, x in zip(coeffs, p)) <= bound
               for coeffs, bound in cons):
            found.add(p)
    return sorted(found)


# ---------------------------------------------------------------------------
# exact linear programming, and coordinate bounds over an affine
# parametrization: the reference for the rank certificate on extension


def simplex_min(c, A, b):
    """Minimize c . x subject to A x <= b, x free.

    Returns (status, value, x) with status one of "optimal", "infeasible",
    "unbounded".
    """
    n = len(c)
    m = len(A)
    # columns: p_0..p_{n-1}, q_0..q_{n-1} (x = p - q), s_0..s_{m-1}
    base_cols = 2 * n + m
    T = []
    rhs = []
    basis = []
    art_rows = []
    for i in range(m):
        row = [ZERO] * base_cols
        sign = ONE if b[i] >= 0 else -ONE
        for j in range(n):
            row[j] = sign * Fraction(A[i][j])
            row[n + j] = -sign * Fraction(A[i][j])
        row[2 * n + i] = sign
        T.append(row)
        rhs.append(sign * Fraction(b[i]))
        if sign == ONE:
            basis.append(2 * n + i)
        else:
            art_rows.append(i)
            basis.append(-1)  # placeholder, artificial assigned below

    art_cols = []
    for k, i in enumerate(art_rows):
        col = base_cols + k
        art_cols.append(col)
        for r in range(m):
            T[r].append(ONE if r == i else ZERO)
        basis[i] = col

    total_cols = base_cols + len(art_cols)

    if art_cols:
        cost1 = [ZERO] * total_cols
        for col in art_cols:
            cost1[col] = ONE
        status = _iterate(T, rhs, basis, cost1, allowed=range(total_cols))
        assert status == "optimal"  # phase 1 is always bounded below by 0
        val1 = sum(cost1[bv] * rv for bv, rv in zip(basis, rhs))
        if val1 != 0:
            return "infeasible", None, None
        # drive zero-level artificials out of the basis
        drop = []
        for r in range(len(T)):
            if basis[r] in art_cols:
                piv = next((j for j in range(base_cols) if T[r][j] != 0), None)
                if piv is None:
                    drop.append(r)
                else:
                    _pivot(T, rhs, basis, r, piv)
        for r in sorted(drop, reverse=True):
            del T[r], rhs[r], basis[r]

    cost2 = [ZERO] * total_cols
    for j in range(n):
        cost2[j] = Fraction(c[j])
        cost2[n + j] = -Fraction(c[j])
    status = _iterate(T, rhs, basis, cost2, allowed=range(base_cols))
    if status == "unbounded":
        return "unbounded", None, None
    value = sum(cost2[bv] * rv for bv, rv in zip(basis, rhs))
    assign = [ZERO] * total_cols
    for bv, rv in zip(basis, rhs):
        assign[bv] = rv
    x = [assign[j] - assign[n + j] for j in range(n)]
    return "optimal", value, x


def _reduced_costs(T, rhs, basis, cost):
    rc = list(cost)
    for r, bv in enumerate(basis):
        cb = cost[bv]
        if cb != 0:
            row = T[r]
            for j in range(len(rc)):
                if row[j] != 0:
                    rc[j] -= cb * row[j]
    return rc


def _iterate(T, rhs, basis, cost, allowed):
    while True:
        rc = _reduced_costs(T, rhs, basis, cost)
        enter = next((j for j in allowed if rc[j] < 0), None)
        if enter is None:
            return "optimal"
        leave = None
        best = None
        for r in range(len(T)):
            a = T[r][enter]
            if a > 0:
                ratio = rhs[r] / a
                if best is None or ratio < best or (ratio == best and basis[r] < basis[leave]):
                    best = ratio
                    leave = r
        if leave is None:
            return "unbounded"
        _pivot(T, rhs, basis, leave, enter)


def _pivot(T, rhs, basis, r, col):
    piv = T[r][col]
    inv = ONE / piv
    T[r] = [x * inv for x in T[r]]
    rhs[r] *= inv
    for i in range(len(T)):
        if i != r:
            f = T[i][col]
            if f != 0:
                T[i] = [a - f * b for a, b in zip(T[i], T[r])]
                rhs[i] -= f * rhs[r]
    basis[r] = col


def coordinate_bounds(x0, directions, pin_rows, pin_rhs):
    """Exact min and max of every coordinate of x = x0 + directions . t over
    the set {t : pins hold, 0 <= x <= 1}.

    ``directions`` is a list of d vectors (one per parameter).  Returns None
    when the set is empty.  When the pinned equations already determine t the
    LP degenerates to a feasibility check of the single point.
    """
    n = len(x0)
    d = len(directions)
    if pin_rows:
        # compose each pin r . x = v with x(t) = x0 + directions . t
        trows = [[sum(Fraction(r[i]) * directions[j][i] for i in range(n))
                  for j in range(d)] for r in pin_rows]
        trhs = [Fraction(v) - sum(Fraction(r[i]) * x0[i] for i in range(n))
                for r, v in zip(pin_rows, pin_rhs)]
        sol = dense_solve_affine(trows, trhs)
    else:
        sol = ([ZERO] * d, _eye(d), list(range(d)))
    if sol is None:
        return None
    t0, tdirs, _ = sol
    # compose: x(u) = base + Bu . u
    base = [x0[i] + sum(directions[j][i] * t0[j] for j in range(d)) for i in range(n)]
    du = len(tdirs)
    Bu = [[sum(directions[j][i] * tdirs[k][j] for j in range(d)) for k in range(du)]
          for i in range(n)]

    if du == 0:
        if any(v < 0 or v > 1 for v in base):
            return None
        return [(v, v) for v in base]

    A = []
    b = []
    const_ok = True
    for i in range(n):
        row = Bu[i]
        if all(x == 0 for x in row):
            if base[i] < 0 or base[i] > 1:
                const_ok = False
            continue
        A.append([x for x in row])             # x_i <= 1
        b.append(ONE - base[i])
        A.append([-x for x in row])            # x_i >= 0
        b.append(base[i])
    if not const_ok:
        return None

    bounds = []
    for i in range(n):
        row = Bu[i]
        if all(x == 0 for x in row):
            bounds.append((base[i], base[i]))
            continue
        status, lo, _ = simplex_min(row, A, b)
        if status == "infeasible":
            return None
        assert status == "optimal", status
        status, hi_neg, _ = simplex_min([-x for x in row], A, b)
        assert status == "optimal", status
        bounds.append((base[i] + lo, base[i] - hi_neg))
    return bounds


def _eye(d):
    return [[ONE if i == j else ZERO for j in range(d)] for i in range(d)]


# ---------------------------------------------------------------------------
# the validated route: a function system and its labelling map checked pair
# by pair as arbitrary input, the reference for the canonical build and the
# constructor of the hand-made tribes


class TribeAxiomViolation(EffectaError):
    """A family of fuzzy functions is not closed the way a tribe must be."""

    def __init__(self, reason, witnesses):
        self.reason = reason
        self.witnesses = witnesses
        super().__init__(f"not a valid function system ({reason}) at {witnesses!r}")


class RepresentationViolation(EffectaError):
    """The labelling map of a representation is not a homomorphism."""


def _fmt(values):
    return "(" + ",".join(str(v) for v in values) + ")"


def _compatible_sums(fns):
    """(f, g, f + g) for every ordered pair with f <= 1 - g pointwise, in
    the order of the double loop over fns, compared as integer numerators
    over a common denominator."""
    d = lcm(*(v.denominator for f in fns for v in f))
    nums = [tuple(v.numerator * (d // v.denominator) for v in f) for f in fns]
    comps = [tuple(d - y for y in g) for g in nums]
    for f, nf in zip(fns, nums):
        for g, comp in zip(fns, comps):
            if all(x <= y for x, y in zip(nf, comp)):
                yield f, g, tuple(x + y for x, y in zip(f, g))


class EffectTribe(NamedTuple):
    """A finite system of fuzzy functions on a carrier, as Fraction tuples
    sorted lexicographically."""

    carrier: tuple[str, ...]
    functions: tuple[tuple[Fraction, ...], ...]


def validate_tribe(carrier, functions):
    """The functions, deduplicated and sorted, as an EffectTribe after every
    closure law is checked: distinct labels, arity, values in [0,1], the
    constant 1, complements and every compatible sum."""
    carrier = tuple(carrier)
    if len(set(carrier)) != len(carrier):
        raise TribeAxiomViolation("carrier labels must be distinct", (carrier,))
    p = len(carrier)
    fns = sorted({tuple(Fraction(v) for v in f) for f in functions})
    for f in fns:
        if len(f) != p:
            raise TribeAxiomViolation("function arity != carrier size", (_fmt(f),))
        if any(v < 0 or v > 1 for v in f):
            raise TribeAxiomViolation("values outside [0,1]", (_fmt(f),))
    members = set(fns)
    if (ONE,) * p not in members:
        raise TribeAxiomViolation("constant 1 missing", ())
    for f in fns:
        if tuple(ONE - v for v in f) not in members:
            raise TribeAxiomViolation("complement not closed", (_fmt(f),))
    for f, g, s in _compatible_sums(fns):
        if s not in members:
            raise TribeAxiomViolation(
                "sum not closed", (_fmt(f), _fmt(g), _fmt(s)))
    return EffectTribe(carrier, tuple(fns))


def representation_of(tribe, target, h, polytope=None):
    """The Representation of a Fraction tribe, unchecked: its functions as
    integer rows over their least common denominator, with h."""
    from effecta.representation import Representation

    p = len(tribe.carrier)
    nums, den = _over_common_denominator(
        [v for f in tribe.functions for v in f])
    rows = tuple(tuple(nums[i:i + p]) for i in range(0, len(nums), p))
    return Representation(tribe.carrier, (rows, den), target, h, polytope)


def tribe_of(rep):
    """The member functions of rep with its carrier, as an EffectTribe."""
    return EffectTribe(rep.carrier, functions(rep))


def make_representation(tribe, target, h, polytope=None):
    """The Representation (tribe, target, h) after checking that h covers
    every member, is onto, sends 1 to 1 and 0 to 0, and preserves every
    compatible sum."""
    h = tuple(h)
    if len(h) != len(tribe.functions):
        raise RepresentationViolation("h must cover every member function")
    if set(h) != set(range(target.n)):
        missing = sorted(set(range(target.n)) - set(h))
        raise RepresentationViolation(
            "h is not surjective; missing "
            + ", ".join(target.label(a) for a in missing))
    p = len(tribe.carrier)
    by_fn = dict(zip(tribe.functions, h))
    if by_fn[(ONE,) * p] != target.one or by_fn[(ZERO,) * p] != target.zero:
        raise RepresentationViolation("h must send 1 to 1 and 0 to 0")
    for f, g, s in _compatible_sums(list(by_fn)):
        c = target.add(by_fn[f], by_fn[g])
        if c is None or c != by_fn[s]:
            raise RepresentationViolation(
                f"h does not preserve the sum at {_fmt(f)} + {_fmt(g)}")
    return representation_of(tribe, target, h, polytope)


def validated_representation(M, polytope):
    """The canonical representation by the validated route: the evaluation
    vectors on the vertices through validate_tribe, then
    make_representation."""
    states = vertices(polytope)
    evals = {v: a for a, v in enumerate(zip(*(s.values for s in states)))}
    carrier = tuple(f"s{i}" for i in range(len(states)))
    tribe = validate_tribe(carrier, evals)
    return make_representation(tribe, M, [evals[f] for f in tribe.functions],
                               polytope)


# ---------------------------------------------------------------------------
# a function tribe read back as an effect algebra


def tribe_to_algebra(tribe):
    """The tribe as an effect algebra under the pointwise partial sum:
    f + g is defined when f <= 1 - g at every point.  Labels print the
    value vectors, e.g. "(1/3,2/3)"."""
    from effecta import validate_effect_algebra

    fns = tribe.functions
    p = len(tribe.carrier)
    sums = [(_fmt(f), _fmt(g), _fmt(tuple(x + y for x, y in zip(f, g))))
            for f in fns for g in fns
            if all(x + y <= 1 for x, y in zip(f, g))]
    return validate_effect_algebra([_fmt(f) for f in fns], _fmt((ZERO,) * p),
                                   _fmt((ONE,) * p), sums)


# ---------------------------------------------------------------------------
# characterizations that hold by construction on the canonical
# representation, whose h is one-to-one: regularity and ideal congruence
# for a distinguished point set omega0 and an ideal of negligible subsets
# of it, the sandwich, a carrier point that carries no information, and
# kernel independence there


def negligible_ideal(rep, omega0, ideal):
    """(omega0, ideal) as frozensets, after the structural checks: omega0
    holds carrier indices, and the ideal holds the empty set, lies inside
    omega0 and is closed under unions and subsets."""
    omega0 = frozenset(omega0)
    if not omega0 <= set(range(len(rep.carrier))):
        raise RepresentationViolation("omega0 must be a set of carrier indices")
    ideal = frozenset(frozenset(A) for A in ideal)
    if frozenset() not in ideal:
        raise RepresentationViolation("the ideal must contain the empty set")
    for A in ideal:
        if not A <= omega0:
            raise RepresentationViolation("ideal members must lie inside omega0")
        for B in ideal:
            if A | B not in ideal:
                raise RepresentationViolation("ideal must be closed under unions")
        for x in A:
            if A - {x} not in ideal:
                raise RepresentationViolation("ideal must be downward closed")
    return omega0, ideal


def support(f, omega0):
    """The points of omega0 where f does not vanish."""
    return frozenset(i for i in omega0 if f[i] != 0)


def irregular_member(rep, omega0):
    """The first member f where "h(f) = 0" and "the characteristic
    function of the omega0 support of f is a member mapping to 0"
    disagree; None when the representation is regular."""
    zero = rep.target.zero
    for f in functions(rep):
        indicator = chi(rep, support(f, omega0))
        if (h_of(rep, f) == zero) != (indicator in members(rep)
                                     and h_of(rep, indicator) == zero):
            return f
    return None


def congruence_failure(rep, omega0, ideal):
    """The first pair (f, g) of members, g from f on in sorted order, where
    "h(f) = h(g)" and "f and g differ on a member of the ideal" disagree;
    None when h identifies exactly the members that differ negligibly."""
    fns = functions(rep)
    for i, f in enumerate(fns):
        for g in fns[i:]:
            diff = frozenset(w for w in omega0 if f[w] != g[w])
            if (h_of(rep, f) == h_of(rep, g)) != (diff in ideal):
                return f, g
    return None


def sandwich(rep, f, g, c):
    """A member s with f <= s <= g pointwise and h(s) = c, built as
    max(f, min(g, s1)) from the first preimage s1 of c; that it is a
    member mapping to c is asserted."""
    from effecta.errors import PreconditionFailed

    f = tuple(Fraction(v) for v in f)
    g = tuple(Fraction(v) for v in g)
    if f not in members(rep) or g not in members(rep):
        raise PreconditionFailed("sandwich bounds must be member functions")
    if any(x > y for x, y in zip(f, g)):
        raise PreconditionFailed("need f <= g pointwise")
    M = rep.target
    if not (M.leq(h_of(rep, f), c) and M.leq(c, h_of(rep, g))):
        raise PreconditionFailed("need h(f) <= c <= h(g) in the target")
    s = tuple(max(x, min(y, z))
              for x, y, z in zip(f, g, function_of(rep, c)))
    assert s in members(rep) and h_of(rep, s) == c, (s, c)
    return s


_NULL_GRID = (ZERO, Fraction(1, 2), ONE)


def extend_carrier_with_null_point(rep, label):
    """Adjoin one carrier point that carries no information.

    Every member f fans out to f + (v,) for v in {0, 1/2, 1}, and h ignores
    the new coordinate.  Two fanned members are compatible exactly when
    both parts are, and the grid is symmetric and closed under sums <= 1,
    so the family is a tribe and h a sum-preserving surjection by
    construction; neither is validated.  Fanning the sorted members out
    over the sorted grid keeps the functions sorted.
    """
    from effecta.errors import PreconditionFailed

    if label in rep.carrier:
        raise PreconditionFailed(f"label {label!r} already used")
    tribe = EffectTribe(rep.carrier + (label,),
                        tuple(f + (v,) for f in functions(rep)
                              for v in _NULL_GRID))
    h = tuple(a for a in rep.h for _ in _NULL_GRID)
    return representation_of(tribe, rep.target, h, polytope=rep.polytope)


def kernel_independence_check(rep, kernel, m, alternatives):
    """Do alternative kernel functions leave every integral against m
    unchanged?  ``alternatives`` maps outcome keys of ``kernel`` to
    functions; each must be a member mapping to x(E), or PreconditionFailed
    is raised.  Each B0 atom A weighs m(h(chi_A)), with h read off the raw
    tuple, and every integrand must be constant on every atom."""
    from effecta.errors import PreconditionFailed

    weights = {A: m.values[h_of(rep, chi(rep, A))] for A in rep.b0().atoms}

    def integral(f):
        assert all(len({f[i] for i in A}) == 1 for A in weights), f
        return sum((f[min(A)] * w for A, w in weights.items()), start=ZERO)

    for key, alt in alternatives.items():
        alt = tuple(Fraction(v) for v in alt)
        target = kernel.elements[frozenset(key)]
        if alt not in members(rep) or h_of(rep, alt) != target:
            raise PreconditionFailed(f"not a kernel function for {sorted(key)}")
        if integral(alt) != integral(function_of(rep, target)):
            return False
    return True


def mass_of_set(sm, E):
    """The measure of an outcome set, given as its membership test on
    rationals: the sum of the masses at the support points inside it."""
    from effecta.algebra import iterated_sum

    total = iterated_sum(sm.algebra, [sm.masses[t] for t in sm.support
                                      if E(t)])
    assert total is not None, "spectral masses failed to sum"
    return total


def measure_additivity_failure(M, sm):
    """The first pair (E, F) of disjoint sets of support points of the
    spectral measure sm, in bitmask order, whose masses do not add to the
    mass of E | F; None when the measure is additive."""
    pts = sm.support
    subsets = [frozenset(p for i, p in enumerate(pts) if mask >> i & 1)
               for mask in range(1 << len(pts))]
    mass = {E: mass_of_set(sm, E.__contains__) for E in subsets}
    for E in subsets:
        for F in subsets:
            if not E & F and M.add(mass[E], mass[F]) != mass[E | F]:
                return E, F
    return None


# ---------------------------------------------------------------------------
# the sharp-set sigma-algebra, the sharp observable and the spectral
# measures, checked pair by pair.  On the canonical representation the
# product-of-chains certificate proves every one of these (see
# ``compute_b0`` and ``effecta.observables.atom_plan``); on a hand-built
# tribe they can fail.


_MEMBERS = weakref.WeakKeyDictionary()


def members(rep):
    """The tribe's index {member function: its first position}, built once
    per representation."""
    if rep not in _MEMBERS:
        fns = functions(rep)
        _MEMBERS[rep] = {f: i for i, f in reversed(list(enumerate(fns)))}
    return _MEMBERS[rep]


def h_of(rep, values):
    """h of a member function, through the tribe's index."""
    from effecta.errors import PreconditionFailed

    i = members(rep).get(tuple(values))
    if i is None:
        raise PreconditionFailed(f"{_fmt(values)} is not a member function")
    return rep.h[i]


def chi(rep, points):
    """The characteristic function of a set of carrier points."""
    return tuple(ONE if i in points else ZERO for i in range(len(rep.carrier)))


def b0_sets(rep):
    """The sets of B0, the keys of the library's ``xi``, by size and then
    by their sorted points."""
    return tuple(sorted(rep.b0().xi, key=lambda A: (len(A), sorted(A))))


def _characteristic_sets(rep):
    """The supports of the 0/1 members, in the order of their point
    bitmasks, which fixes the witness of a failed law."""
    return [frozenset(i for i, v in enumerate(f) if v)
            for f in sorted(functions(rep), key=lambda f: f[::-1])
            if set(f) <= {ZERO, ONE}]


def b0_sigma_law_failure(rep):
    """None when the characteristic sets hold the empty set and the whole
    carrier and are closed under complement and union; else the first
    failing law and its witness, as (law, witnesses), in that order."""
    b0 = _characteristic_sets(rep)
    full = frozenset(range(len(rep.carrier)))
    in_b0 = set(b0)
    if frozenset() not in in_b0:
        return "empty-set", ()
    if full not in in_b0:
        return "whole-space", ()
    for A in b0:
        if full - A not in in_b0:
            return "complement", (sorted(A),)
    for A in b0:
        for B in b0:
            if A | B not in in_b0:
                return "union", (sorted(A), sorted(B))
    return None


def measurable(rep, f):
    """Is the member f constant on every atom of B0?"""
    from effecta.errors import PreconditionFailed

    f = tuple(Fraction(v) for v in f)
    if f not in members(rep):
        raise PreconditionFailed(f"{_fmt(f)} is not a member function")
    return all(len({f[i] for i in atom}) == 1 for atom in rep.b0().atoms)


def non_measurable(rep):
    """The first member that is not measurable, or None."""
    return next((f for f in functions(rep) if not measurable(rep, f)),
                None)


@dataclass(frozen=True)
class SharpImageReport:
    ok: bool                             # h(B0) is the set of sharp elements
    all_measurable: bool                 # theorem hypothesis 1
    min_closed: bool                     # theorem hypothesis 2


def sharp_image(rep):
    """Does h map the characteristic sets onto the sharp elements, read by
    the meet?  The flags record whether every member is measurable and
    whether the system is closed under min(f, 1 - f); when both hold on a
    regular representation the equality is a theorem."""
    M = rep.target
    image = {h_of(rep, chi(rep, A)) for A in _characteristic_sets(rep)}
    sharp = {a for a in M.elements() if meet(M, a, M.comp(a)) == M.zero}
    min_closed = all(tuple(min(v, ONE - v) for v in f) in members(rep)
                     for f in functions(rep))
    return SharpImageReport(image == sharp, non_measurable(rep) is None,
                            min_closed)


@dataclass(frozen=True)
class SharpObservable:
    """xi(A) = h(chi_A) on every set of B0."""
    rep: object
    assignment: dict     # frozenset of carrier points -> element id

    def __call__(self, A):
        return self.assignment[frozenset(A)]

    @property
    def atoms(self):
        return self.rep.b0().atoms


_XI = weakref.WeakKeyDictionary()


def sharp_observable(rep):
    """The sharp observable on all of B0, through the Fraction tribe index,
    built once per representation.  The library reads xi on the atoms of B0
    alone (``effecta.observables.atom_plan``)."""
    if rep not in _XI:
        _XI[rep] = SharpObservable(
            rep, {A: h_of(rep, chi(rep, A)) for A in b0_sets(rep)})
    return _XI[rep]


def sharp_observable_failure(rep):
    """None when xi is h(chi_A) on B0, sharp by the meet,
    additive on every pair of disjoint sets, and sums to 1 over the atoms;
    else a description of the first failure."""
    from effecta.algebra import iterated_sum
    M = rep.target
    xi = sharp_observable(rep)
    sets = b0_sets(rep)
    if set(xi.assignment) != set(sets):
        return "domain"
    for A in sets:
        a = xi(A)
        if a != h_of(rep, chi(rep, A)) or meet(M, a, M.comp(a)) != M.zero:
            return f"xi({sorted(A)}) = {M.label(a)}"
    for A in sets:
        for B in sets:
            if not A & B and M.add(xi(A), xi(B)) != xi.assignment.get(A | B):
                return f"not additive at {sorted(A)}, {sorted(B)}"
    if any(A not in xi.assignment for A in xi.atoms):
        return "an atom is outside B0"
    if iterated_sum(M, [xi(A) for A in xi.atoms]) != M.one:
        return "atom masses do not sum to 1"
    return None


def measure_key(sm):
    """A spectral measure as (support, masses in support order): equal
    exactly when the two measures are."""
    return (sm.support, tuple(sm.masses[t] for t in sm.support))


@dataclass(frozen=True)
class InjectivityReport:
    ok: bool
    collision: tuple | None


def spectral_injectivity(rep):
    """Do distinct elements have distinct spectral measures?  The first
    collision is reported by label, in element order."""
    seen = {}
    M = rep.target
    for a in M.elements():
        k = measure_key(measure_of(rep, a))
        if k in seen:
            return InjectivityReport(False, (M.label(seen[k]), M.label(a)))
        seen[k] = a
    return InjectivityReport(True, None)


# ---------------------------------------------------------------------------
# state equalities straight from the sum table (for feeding the oracle)


def raw_state_system(M):
    """One row e_a + e_b - e_c = 0 per defined sum plus the unit row,
    assembled directly from the public sum iterator."""
    n = M.n
    rows = []
    rhs = []
    seen = set()
    for a, b, c in M.defined_sums():
        row = [ZERO] * n
        row[a] += ONE
        row[b] += ONE
        row[c] -= ONE
        key = tuple(row)
        if key not in seen:
            seen.add(key)
            rows.append(row)
            rhs.append(ZERO)
    unit = [ZERO] * n
    unit[M.one] = ONE
    rows.append(unit)
    rhs.append(ONE)
    return rows, rhs


def state_equation_rows(M):
    """In the atom coordinates m of ``atom_coordinates``, one integer row
    m(a) + m(b) - m(a+b) with constant 0 per defined sum, and the unit row
    m(1) with constant 1."""
    from effecta.algebra import atom_coordinates
    _, m = atom_coordinates(M)
    rows = [(*(p + q - r for p, q, r in zip(m[a], m[b], m[c])), 0)
            for a, b, c in M.defined_sums()]
    return rows + [(*m[M.one], 1)]


@dataclass(frozen=True)
class _Cut:
    coeffs: tuple
    bound: Fraction


def x_space_vertices(M):
    """The extremal states from the raw element-space system, by a route
    that reaches past the basic-solution oracle's cap: the dense solve
    writes every solution as x0 + sum_j t_j dirs[j], and the vertices of
    the parameter box cut by 0 <= x_i <= 1 for every element are found by
    brute force over constraint subsets, then mapped back, all over
    Fractions.  No atoms are involved."""
    sol = dense_solve_affine(*raw_state_system(M))
    if sol is None:
        return []
    x0, dirs, _ = sol
    cuts = {}
    for i in range(M.n):
        coeffs = tuple(dv[i] for dv in dirs)
        cuts[coeffs, ONE - x0[i]] = None                    # x_i <= 1
        cuts[tuple(-c for c in coeffs), x0[i]] = None       # x_i >= 0
    params = box_vertices_brute(len(dirs), [_Cut(*c) for c in cuts])
    return sorted(tuple(x0[i] + sum(t * dv[i] for t, dv in zip(p, dirs))
                        for i in range(M.n)) for p in params)


# ---------------------------------------------------------------------------
# convex mixtures of states: seeded mixtures of the vertices as integer
# rows, and summed weight by weight over Fractions


def convex_combination(states, weights):
    total = sum(weights, start=ZERO)
    if total != 1 or any(w < 0 for w in weights):
        raise ValueError("weights must be nonnegative and sum to one")
    n = len(states[0].values)
    return State(tuple(
        sum((w * s.values[i] for w, s in zip(weights, states)), start=ZERO)
        for i in range(n)))


def mixture_weights(polytope, count, seed):
    """``count`` rounds of one seeded ``randint(1, 10)`` weight per vertex
    of the polytope."""
    if polytope.is_empty:
        raise ValueError("cannot mix vertices of an empty polytope")
    rng = random.Random(seed)
    return [[rng.randint(1, 10) for _ in polytope.numerators]
            for _ in range(count)]


def mixture_rows(polytope, count, seed):
    """The mixtures of ``mixture_weights`` as integer (numerators,
    denominator) pairs: value_i = sum_k raw_k * N_k,i / (sum(raw) * den),
    N the vertices' numerators.  The denominators differ from the
    vertices', which is what lets a mixture catch a denominator slip in an
    integer core that the vertices alone would not."""
    from operator import mul

    columns = list(zip(*polytope.numerators))
    return [(tuple(sum(map(mul, raw, col)) for col in columns),
             sum(raw) * polytope.den)
            for raw in mixture_weights(polytope, count, seed)]


def seeded_mixtures(polytope, count, seed):
    """``mixture_rows`` read as Fraction States."""
    return [State(tuple(Fraction(v, den) for v in row))
            for row, den in mixture_rows(polytope, count, seed)]


def seeded_mixtures_reference(polytope, count, seed):
    """The seeded mixtures of ``mixture_weights`` combined as Fraction
    weights raw / total through ``convex_combination``."""
    states = vertices(polytope)
    return [convex_combination(states, [Fraction(w, sum(raw)) for w in raw])
            for raw in mixture_weights(polytope, count, seed)]


def doctored_polytope(M, states, dimension):
    """A StatePolytope over the given value vectors (States or sequences of
    rationals), kept in the given order and put over their least common
    denominator: the one way the tests build a polytope that
    ``state_polytope`` would not."""
    from effecta.states import StatePolytope

    rows = [tuple(map(Fraction, getattr(v, "values", v))) for v in states]
    den = lcm(*(x.denominator for row in rows for x in row))
    numerators = tuple(tuple(x.numerator * (den // x.denominator) for x in row)
                       for row in rows)
    return StatePolytope(M, numerators, den, dimension)


def raised_last_vertex(M):
    """The canonical representation of M, with the first non-sharp value of
    its last vertex raised by 1/12: no longer a state the measures
    reproduce."""
    from effecta.algebra import sharp_elements
    from effecta.representation import Representation, canonical_representation

    rep = canonical_representation(M)
    P = rep.polytope
    sharp = sharp_elements(M)
    a = next(a for a in M.elements() if a not in sharp)
    *kept, last = vertices(P)
    last = list(last.values)
    last[a] += Fraction(1, 12)
    return Representation(
        rep.carrier, rep.evaluation, M, rep.h,
        polytope=doctored_polytope(M, [*kept, last], P.dimension))


def vertex_difference_rank(polytope):
    """Rank of the differences v_i - v_0 of the Fraction vertices, by dense
    elimination: the dimension of the polytope read off its vertices."""
    states = vertices(polytope)
    if not states:
        return -1
    v0 = states[0].values
    return matrix_rank([[a - b for a, b in zip(s.values, v0)]
                        for s in states[1:]])


# ---------------------------------------------------------------------------
# extension values by direct spectral summation (third route, no LP, no atoms)


def spectral_form_value(rep, a, sharp_values):
    """Sum of lambda * m(mass(lambda)) over the spectral support of a,
    computed from the representation's raw data: level sets are read off
    the evaluation vector, their images looked up through h directly."""
    f = function_of(rep, a)
    p = len(rep.carrier)
    total = ZERO
    for lam in sorted({f[i] for i in range(p)}):
        chi = tuple(ONE if f[i] == lam else ZERO for i in range(p))
        total += lam * sharp_values[h_of(rep, chi)]
    return total


def level_set_integral(M, P, values, phi):
    """Per element a, the sum of phi(lambda) * values[b] over the level sets
    of a's evaluation column on the extremal states of P, where b is
    the element whose column is that level set's indicator.

    Each b is found by scanning every element's column: no spectral
    measure, no representation and no tribe index is consulted."""
    columns = list(zip(*(v.values for v in vertices(P))))
    table = []
    for col in columns:
        total = ZERO
        for lam in sorted(set(col)):
            indicator = tuple(ONE if x == lam else ZERO for x in col)
            b = next(b for b, other in enumerate(columns)
                     if other == indicator)
            total += phi(lam) * values[b]
        table.append(total)
    return tuple(table)


def sharp_weightings(M, sharp, count, seed):
    """Seeded rational weightings that need not be states: plain ints and
    Fractions of mixed denominators, negative and above 1.  Each comes as
    a full vector, arbitrary off the sharp elements too, and as its
    restriction to the sharp elements."""
    rng = random.Random(seed)

    def value():
        if rng.randrange(3) == 0:
            return rng.randint(-3, 3)
        return Fraction(rng.randint(-20, 20), rng.randint(1, 12))

    out = []
    for _ in range(count):
        full = tuple(value() for _ in range(M.n))
        out.append((full, {b: full[b] for b in sharp}))
    return out


# ---------------------------------------------------------------------------
# the smearing right-hand side, recomputed on every call


def smearing_integral(rep, f, m):
    """Sum of f(A) * m(h(chi_A)) over the atoms A of B0, formed afresh on
    every call: the characteristic row is found by a scan of the member
    rows and mapped through the raw h tuple, with no cache, no sharp
    observable and no index lookup."""
    rows, den = rep.evaluation
    total = ZERO
    for A in rep.b0().atoms:
        values = {f[i] for i in A}
        assert len(values) == 1, f"integrand not constant on atom {sorted(A)}"
        chi = tuple(den if i in A else 0 for i in range(len(rep.carrier)))
        total += values.pop() * m.values[rep.h[rows.index(chi)]]
    return total


def smearing_residual_record(M, rep, states, shift=None):
    """Status, witness and detail of ``smearing:eq-residual-zero`` by the
    per-observable loop: every observable of one to three parts on the
    supports (1), (0, 1), (0, 1/2, 1) is smeared, and for every state and
    outcome set E the residual m(x(E)) - integral of f_E is formed with
    ``smearing_integral``.  The witness is the first nonzero residual in the
    order observable, state, outcome set.  ``shift`` maps (element, state
    values) to an amount added to the integral, as a doctored table would."""
    from effecta.observables import make_observable, smear, summable_families

    supports = {1: (ONE,), 2: (ZERO, ONE), 3: (ZERO, Fraction(1, 2), ONE)}
    shift = shift or {}
    first_bad = None
    n_obs = 0
    for fam in summable_families(M, 3):
        n_obs += 1
        x = make_observable(M, supports[len(fam)], fam)
        kernel = smear(rep, x)
        for i, m in enumerate(states):
            for key, f in kernel_functions(rep, kernel).items():
                a = x.element_at(key)
                residual = (m.values[a] - smearing_integral(rep, f, m)
                            - shift.get((a, m.values), ZERO))
                if residual and first_bad is None:
                    first_bad = [[M.label(v) for v in fam],
                                 sorted(str(x.support[j]) for j in key),
                                 i, str(residual)]
    return ("pass" if first_bad is None else "fail", first_bad,
            f"{n_obs} observables x {len(states)} states")


# ---------------------------------------------------------------------------
# the endpoint rule for sharp elements


def sharp_table(rep, a, E):
    """x(E) for the sharp observable {0: a', 1: a}, with the outcome set E
    given as its membership test on rationals: the four-way endpoint
    rule, by whether E holds 0 and 1, cross-checked against a's levels as
    the spectral integration plan holds them (built when absent), so a
    doctored plan is caught.  The product-of-chains certificate proves the
    two equal on the canonical representation."""
    from effecta.algebra import iterated_sum
    from effecta.errors import PreconditionFailed, TheoremViolation
    from effecta.spectral import level_plan

    M = rep.target
    if a not in rep.sharp:
        raise PreconditionFailed(f"element {M.label(a)!r} is not sharp")
    lvs = level_plan(rep)[0]
    den = rep.evaluation[1]

    def inside(v):
        return E(Fraction(v, den))

    result = ((M.one if inside(den) else M.comp(a)) if inside(0)
              else (a if inside(den) else M.zero))
    actual = iterated_sum(M, [b for lam, b in lvs[a] if inside(lam)])
    if actual is None:
        raise TheoremViolation("spectral masses failed to sum")
    if actual != result:
        raise TheoremViolation(
            f"endpoint rule gives {M.label(result)} but the measure "
            f"gives {M.label(actual)}")
    return result


# ---------------------------------------------------------------------------
# unique extension: the rank certificate, and one report composing it


def sharp_kernel(rep):
    """None when the sharp values fix every state, else a nonzero direction
    of the state space that vanishes on every sharp element.

    The differences v_i - v_0 of the vertices span the directions of the
    state polytope's affine hull, and ``P.dimension`` is their rank.  When
    their sharp coordinates keep that rank, the restriction to the sharp
    elements is injective on the hull, so every state on the sharp elements
    extends in at most one way.  Otherwise some combination of the
    differences is zero on the sharp elements but not everywhere.  The
    product-of-chains certificate proves the rank kept on the canonical
    representation.
    """
    from effecta.algebra import sharp_elements
    from effecta.errors import PreconditionFailed, TheoremViolation

    P = rep.polytope
    if P is None or P.is_empty:
        raise PreconditionFailed("the extension certificate needs the states")
    sharp = sharp_elements(rep.target)
    v0, *rest = (v.values for v in vertices(P))
    diffs = [[x - y for x, y in zip(v, v0)] for v in rest]
    if matrix_rank([[d[b] for b in sharp] for d in diffs]) == P.dimension:
        return None
    # combinations c with sum_i c_i d_i[b] = 0 at every sharp b; one basis
    # direction of that kernel must leave the kernel of the full map
    _, combos, _ = dense_solve_affine([[d[b] for d in diffs] for b in sharp],
                                      [ZERO] * len(sharp))
    for c in combos:
        k = tuple(sum((ci * d[a] for ci, d in zip(c, diffs)), start=ZERO)
                  for a in rep.target.elements())
        if any(k):
            return k
    raise TheoremViolation("rank deficit without a kernel direction")


@dataclass(frozen=True)
class ExtensionReport:
    unique: bool
    kernel: tuple | None       # see sharp_kernel
    extension: object          # the State from ``extension_of``


def extension_uniqueness(rep, m):
    """The extension of m, and whether it is the only one.

    Uniqueness is the rank certificate of ``sharp_kernel``, which does not
    depend on m; the extension is the library's atom formula through
    ``extension_of``.
    """
    extension = extension_of(rep, m)
    kernel = sharp_kernel(rep)
    return ExtensionReport(kernel is None, kernel, extension)


# ---------------------------------------------------------------------------
# bounded search for alternative spectral measures


def spectral_uniqueness_probe(rep, a):
    """Other (support, masses) pairs of sharp measures that reproduce the
    integral law for a, in the order found.

    Enumerates families of nonzero sharp elements summing to 1 (support
    size at most 3), then solves exactly for the support values from the
    vertex-state equations.  When a system is underdetermined only its base
    point is inspected, so the search is not exhaustive.
    """
    from effecta.algebra import sharp_elements

    M = rep.target
    P = rep.polytope
    sharp = [b for b in sharp_elements(M) if b != M.zero]
    canonical = measure_key(measure_of(rep, a))
    states = vertices(P)
    found = []

    def families(prefix, acc, rest):
        if acc == M.one:
            yield prefix
            return
        if len(prefix) == 3:
            return
        for i, b in enumerate(rest):
            nxt = M.add(acc, b)
            if nxt is not None:
                yield from families(prefix + (b,), nxt, rest[i + 1:])

    for fam in families((), M.zero, tuple(sharp)):
        for perm in permutations(fam):
            rows = [[s.values[b] for b in perm] for s in states]
            rhs = [s.values[a] for s in states]
            sol = dense_solve_affine(rows, rhs)
            if sol is None:
                continue
            lams = sol[0]
            if any(l < 0 or l > 1 for l in lams):
                continue
            if any(x >= y for x, y in zip(lams, lams[1:])):
                continue
            key = (tuple(lams), tuple(perm))
            if key != canonical and key not in found:
                found.append(key)
    return tuple(found)


# ---------------------------------------------------------------------------
# MV-structure detection: a second, independent refinement oracle.  A finite
# effect algebra has the refinement property exactly when it is an
# MV-effect algebra (Ravindran 1996; Dvurecenskij and Pulmannova, New Trends
# in Quantum Structures, 2000), so detect_mv succeeds exactly where
# check_rdp holds.


@dataclass(frozen=True)
class MVStructure:
    """A total truncated sum extending the partial one and satisfying the
    eight MV laws; ``star`` is the orthosupplement table."""
    oplus: tuple[tuple[int, ...], ...]
    star: tuple[int, ...]
    algebra: object


@dataclass(frozen=True)
class MvFailure:
    kind: str                      # "not-a-lattice" | "axiom"
    axiom: str | None
    witness: tuple


def _mv_axiom_failure(M, oplus):
    """First failing MV law for a candidate total operation, or None."""
    n = M.n
    star = tuple(M.comp(a) for a in M.elements())
    zi, oi = M.zero, M.one
    lab = M.label
    # consistency with the partial sum where that is defined
    for a in range(n):
        for b in range(n):
            s = M.add(a, b)
            if s is not None and oplus[a][b] != s:
                return "consistency", (lab(a), lab(b))
    for a in range(n):
        for b in range(n):
            if oplus[a][b] != oplus[b][a]:
                return "i", (lab(a), lab(b))
    for a in range(n):
        for b in range(n):
            ab = oplus[a][b]
            for c in range(n):
                if oplus[ab][c] != oplus[a][oplus[b][c]]:
                    return "ii", (lab(a), lab(b), lab(c))
    for a in range(n):
        if oplus[a][zi] != a:
            return "iii", (lab(a),)
        if oplus[a][oi] != oi:
            return "iv", (lab(a),)
        if star[star[a]] != a:
            return "v", (lab(a),)
        if oplus[a][star[a]] != oi:
            return "vi", (lab(a),)
    if star[zi] != oi:
        return "vii", (lab(zi),)
    for a in range(n):
        for b in range(n):
            left = oplus[star[oplus[star[a]][b]]][b]
            right = oplus[star[oplus[a][star[b]]]][a]
            if left != right:
                return "viii", (lab(a), lab(b))
    return None


def detect_mv(M):
    """Try to extend the partial sum to a total MV operation.

    Two closures of the partial sum are tried: the truncated sum
    a (+) b = a + (a' /\\ b), and completion by the join where the partial sum
    is undefined.  If neither passes all eight laws the failure of the
    candidate that got furthest is reported.
    """
    for a in range(M.n):
        for b in range(a, M.n):
            if meet(M, a, b) is None or join(M, a, b) is None:
                return MvFailure("not-a-lattice", None, (M.label(a), M.label(b)))

    def truncated(a, b):
        return M.add(a, meet(M, M.comp(a), b))    # a' /\ b <= a', so defined

    def join_completed(a, b):
        s = M.add(a, b)
        return s if s is not None else join(M, a, b)

    order = ["consistency", "i", "ii", "iii", "iv", "v", "vi", "vii", "viii"]
    best: tuple[int, str, tuple] | None = None
    for formula in (truncated, join_completed):
        oplus = tuple(tuple(formula(a, b) for b in range(M.n)) for a in range(M.n))
        failure = _mv_axiom_failure(M, oplus)
        if failure is None:
            return MVStructure(oplus, tuple(M.comp(a) for a in M.elements()), M)
        axiom, witness = failure
        score = order.index(axiom)
        if best is None or score > best[0]:
            best = (score, axiom, witness)
    assert best is not None
    return MvFailure("axiom", best[1], best[2])


# ---------------------------------------------------------------------------
# state predicate in Fraction arithmetic


class StateViolation(NamedTuple):
    kind: str          # "length" | "range" | "one" | "additivity"
    witness: tuple


class StateCheck(NamedTuple):
    ok: bool
    violation: StateViolation | None


def fraction_is_state(M, values):
    """Is the value vector a state?  Its length, each value in [0,1], the
    unit at 1, then additivity on every defined sum, in that order, each
    value compared as a Fraction; the first violation is named."""
    if isinstance(values, State):
        values = values.values
    if len(values) != M.n:
        return StateCheck(False, StateViolation("length", (len(values), M.n)))
    vals = [Fraction(v) for v in values]
    for a, v in enumerate(vals):
        if v < 0 or v > 1:
            return StateCheck(False, StateViolation("range", (M.label(a),)))
    if vals[M.one] != 1:
        return StateCheck(False, StateViolation("one", (M.label(M.one),)))
    for a, b, c in M.defined_sums():
        if vals[a] + vals[b] != vals[c]:
            return StateCheck(False, StateViolation(
                "additivity", (M.label(a), M.label(b), M.label(c))))
    return StateCheck(True, None)


# ---------------------------------------------------------------------------
# sigma-additivity, with a monotonicity scan


def is_sigma_additive(M, state):
    """Countable additivity degenerates on a finite carrier: every monotone
    chain is eventually constant, so its supremum is its maximum and the
    limit condition holds as soon as the state is a state.  The order scan
    below cannot fire for a genuine state, which is monotone."""
    if not fraction_is_state(M, state).ok:
        return False
    for a in M.elements():
        for b in M.elements():
            if M.leq(a, b) and state.values[a] > state.values[b]:
                return False
    return True


# ---------------------------------------------------------------------------
# the Fraction route to the smearing, spectral and extension tables: the
# library's bodies before it moved onto integer numerators, kept whole and
# with no cache on the representation, so the integer cores have a
# reference that builds a Fraction per value


def _over_common_denominator(values):
    den = lcm(*(v.denominator for v in values))
    return [v.numerator * (den // v.denominator) for v in values], den


def element_integrals_fraction(rep, values):
    """xi on every set of B0 through the Fraction tribe index, then every
    element's value on every atom, integrated against A -> values[xi(A)]."""
    from operator import mul

    from effecta.errors import NotMeasurable
    xi = sharp_observable(rep)
    w, wden = _over_common_denominator([values[xi(A)] for A in xi.atoms])
    flat = []
    for a in rep.target.elements():
        f = function_of(rep, a)
        for A in xi.atoms:
            if len({f[i] for i in A}) > 1:
                raise NotMeasurable("integrand", sorted(A))
            flat.append(f[min(A)])
    nums, den = _over_common_denominator(flat)
    k = len(xi.atoms)
    rows = [nums[i:i + k] for i in range(0, len(nums), k)]
    return tuple(Fraction(sum(map(mul, row, w)), den * wden) for row in rows)


class SpectralMeasure(NamedTuple):
    algebra: object
    element: int
    support: tuple            # ascending attained values, as Fractions
    masses: dict              # Fraction -> sharp element id


def spectral_measure_fraction(rep, a):
    """The level sets of a's Fraction evaluation, each looked up in the
    Fraction tribe index, verified as the library verifies them."""
    from effecta.algebra import iterated_sum
    from effecta.errors import SpectralObstruction, TheoremViolation

    M = rep.target
    f = function_of(rep, a)
    p = len(rep.carrier)
    values = sorted({f[i] for i in range(p)})
    masses = {}
    for lam in values:
        chi = tuple(ONE if f[i] == lam else ZERO for i in range(p))
        if chi not in members(rep):
            raise SpectralObstruction(M.label(a), lam)
        masses[lam] = h_of(rep, chi)
    for lam, mass in masses.items():
        if mass not in rep.sharp:
            raise SpectralObstruction(M.label(a), lam)
    if iterated_sum(M, [masses[lam] for lam in values]) != M.one:
        raise TheoremViolation(f"masses of {M.label(a)} do not sum to 1")
    return SpectralMeasure(M, a, tuple(values), masses)


def spectral_integral_fraction(rep, values, phi=None, measures=None):
    """The table a -> sum of phi(lambda) * values[mass_a(lambda)] over the
    measures of ``spectral_measure_fraction``, or over ``measures``, that
    list computed once."""
    lams, masses, rows = {}, {}, []
    for a in rep.target.elements():
        sm = (measures[a] if measures is not None
              else spectral_measure_fraction(rep, a))
        rows.append(tuple((lams.setdefault(lam, len(lams)),
                           masses.setdefault(sm.masses[lam], len(masses)))
                          for lam in sm.support))
    c, cden = _over_common_denominator(
        list(lams) if phi is None else [phi(lam) for lam in lams])
    w, wden = _over_common_denominator([values[b] for b in masses])
    return tuple(Fraction(sum(c[i] * w[j] for i, j in row), cden * wden)
                 for row in rows)


class NotAStateOnSharp(EffectaError):
    def __init__(self, reason, witnesses):
        self.reason = reason
        self.witnesses = witnesses
        super().__init__(
            f"not a state on the sharp elements ({reason}) at {witnesses!r}")


def validate_sharp_state_fraction(M, m):
    """Missing and out-of-range values, the unit, then additivity on the
    defined sums of sharp elements, compared as Fractions."""
    from effecta.algebra import sharp_elements

    vals = {}
    for b in sharp_elements(M):
        if b not in m:
            raise NotAStateOnSharp("missing value", (M.label(b),))
        v = Fraction(m[b])
        if v < 0 or v > 1:
            raise NotAStateOnSharp("value outside [0,1]", (M.label(b), str(v)))
        vals[b] = v
    if vals[M.one] != 1:
        raise NotAStateOnSharp("unit not sent to 1", (str(vals[M.one]),))
    for a, b, c in M.defined_sums():
        if a not in vals or b not in vals:
            continue
        if c not in vals:
            raise NotAStateOnSharp(
                "sharp sum escapes the sharp set", (M.label(a), M.label(b)))
        if vals[a] + vals[b] != vals[c]:
            raise NotAStateOnSharp(
                "not additive", (M.label(a), M.label(b), M.label(c)))
    return vals


def extend_state_fraction(rep, m, measures=None):
    """The atom formula over Fractions, then the state check, the
    restriction and the spectral form, each raising as the library does."""
    from effecta.errors import TheoremViolation

    M = rep.target
    vals = validate_sharp_state_fraction(M, m)
    result = State(element_integrals_fraction(rep, vals))
    check = fraction_is_state(M, result)
    if not check.ok:
        raise TheoremViolation(
            f"extension is not a state: {check.violation.kind} at "
            f"{check.violation.witness!r}")
    for bb, v in vals.items():
        if result.values[bb] != v:
            raise TheoremViolation(
                f"extension restricts to {result.values[bb]} at "
                f"{M.label(bb)}, expected {v}")
    spectral_form = spectral_integral_fraction(rep, vals, measures=measures)
    for a in M.elements():
        if spectral_form[a] != result.values[a]:
            raise TheoremViolation(
                f"atom form {result.values[a]} and spectral form "
                f"{spectral_form[a]} disagree at {M.label(a)}")
    return result


# ---------------------------------------------------------------------------
# the library's integer cores read with Fraction values: a weighting goes
# in over one denominator, and a table, measure or extension comes out as
# Fractions, so a test states its values as rationals and still runs the
# code the suites run


def over_one_denominator(values):
    """A weighting (a sequence, or a mapping over element ids) of rationals
    as integer numerators over their least common denominator, in the same
    shape."""
    if isinstance(values, dict):
        nums, den = _over_common_denominator(
            [Fraction(v) for v in values.values()])
        return dict(zip(values, nums)), den
    return _over_common_denominator([Fraction(v) for v in values])


def _read(nums, den):
    return tuple(Fraction(v, den) for v in nums)


def integral_table(rep, values):
    """``effecta.linalg.integrals`` of the atom plan on a rational
    weighting: the integral of every element's function against
    A -> values[xi(A)]."""
    from effecta.linalg import integrals
    from effecta.observables import atom_plan

    return _read(*integrals(atom_plan(rep), *over_one_denominator(values)))


def level_table(rep, values, squared=False):
    """``effecta.linalg.integrals`` of the level plan, or of its square, on
    a rational weighting: the sum of lambda * values[mass_a(lambda)], or of
    lambda squared, over every element's levels."""
    from effecta.linalg import integrals
    from effecta.spectral import level_plan, squared_plan

    plan = (squared_plan if squared else level_plan)(rep)
    return _read(*integrals(plan, *over_one_denominator(values)))


def measure_of(rep, a):
    """``effecta.spectral.levels`` of a as a SpectralMeasure: its levels
    over the evaluation's denominator, each with its sharp mass."""
    from effecta.spectral import levels

    lv = levels(rep, a)
    support = tuple(Fraction(lam, rep.evaluation[1]) for lam, _ in lv)
    return SpectralMeasure(rep.target, a, support,
                           dict(zip(support, (b for _, b in lv))))


def extension_of(rep, m):
    """The extension of a rational weighting of the sharp elements, as a
    State: the library's atom formula (``integral_table``) on the weighting,
    which it reads only at xi of the atoms of B0.  It checks neither that
    the weighting is a state nor that the extension gives it back;
    ``extend_state_fraction`` checks both."""
    return State(integral_table(rep, m))

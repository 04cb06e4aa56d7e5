"""Named instances shared across the test modules.

Generated families come through the public generators; the hand-built
instances (a four-block loop pasting, a grid pasting, several small
function tribes) are spelled out sum-by-sum or value-by-value so that they
do not depend on any library construction they are used to test.
"""

from fractions import Fraction
from itertools import combinations

from effecta import generate, validate_effect_algebra

from oracles import validate_tribe

F = Fraction


def chain(n):
    return generate(("chain", n))


def boolean(k):
    return generate(("boolean", k))


def interval(*u):
    return generate(("interval", tuple(u)))


def product_of(*specs):
    return generate(("product", list(specs)))


def mo2():
    return generate(("horizontal_sum", [("boolean", 2), ("boolean", 2)]))


def mo3():
    return generate(("horizontal_sum",
                     [("boolean", 2), ("boolean", 2), ("boolean", 2)]))


def diamond():
    return generate(("horizontal_sum", [("chain", 2), ("chain", 2)]))


def hsum_mixed():
    return generate(("horizontal_sum", [("boolean", 2), ("chain", 3)]))


def rdp_zoo():
    """(name, algebra) pairs that all carry the refinement property."""
    out = [(f"chain{n}", chain(n)) for n in range(1, 9)]
    out += [(f"boolean{k}", boolean(k)) for k in range(1, 5)]
    out += [
        ("interval12", interval(1, 2)),
        ("interval112", interval(1, 1, 2)),
        ("chain2xchain3", product_of(("chain", 2), ("chain", 3))),
        ("chain3xchain4", product_of(("chain", 3), ("chain", 4))),
        ("chain1x1x2", product_of(("chain", 1), ("chain", 1), ("chain", 2))),
        ("chain7xchain7", product_of(("chain", 7), ("chain", 7))),
    ]
    return out


# (name, heights, spec) for the products of two chains up to
# chain7 x chain7, interval 2 2 3 and the Boolean algebras up to 2^7
PRODUCT_SPECS = (
    [(f"chain{p}xchain{q}", (p, q), ("product", [("chain", p), ("chain", q)]))
     for p in range(1, 8) for q in range(p, 8)]
    + [("interval223", (2, 2, 3), ("interval", (2, 2, 3)))]
    + [(f"boolean{k}", (1,) * k, ("boolean", k)) for k in range(1, 8)])


def generated_products():
    """(name, heights, algebra) for each of ``PRODUCT_SPECS``."""
    for name, heights, spec in PRODUCT_SPECS:
        yield name, heights, generate(spec, max_size=128)


def non_rdp_zoo():
    """(name, algebra) pairs that all fail the refinement property."""
    return [
        ("mo2", mo2()),
        ("mo3", mo3()),
        ("diamond", diamond()),
        ("hsum-mixed", hsum_mixed()),
        ("loop4", loop4()),
    ]


def loop4():
    """Four eight-element Boolean blocks pasted in a loop.

    Block i has three atoms (a_i, b_i, a_{i+1}), indices mod 4, so
    consecutive blocks share one atom.  Identified elements: 0, 1, the
    shared atoms, and each atom's complement (the co-atom above the other
    two atoms of any block containing it).  18 elements, a standard
    example of a sum that refines nowhere across blocks.
    """
    atoms = [f"a{i}" for i in range(1, 5)] + [f"b{i}" for i in range(1, 5)]
    labels = ["0", "1"] + atoms + [x + "'" for x in atoms]
    blocks = [("a1", "b1", "a2"), ("a2", "b2", "a3"),
              ("a3", "b3", "a4"), ("a4", "b4", "a1")]
    sums = [("0", x, x) for x in labels]
    for x in atoms:
        sums.append((x, x + "'", "1"))
    for p, q, r in blocks:
        sums.append((p, q, r + "'"))
        sums.append((p, r, q + "'"))
        sums.append((q, r, p + "'"))
    return validate_effect_algebra(labels, "0", "1", sums)


def grid_pasting():
    """Six Boolean blocks pasted along a 3 x 3 grid of atoms g_ij.

    Row i is the eight-element block (g_i0, g_i1, g_i2); column j is the
    sixteen-element block (g_0j, g_1j, g_2j, x_j).  A row and a column share
    one grid atom and its complement.  Summing the three rows and the three
    columns gives 3 = 3 + s(x_0) + s(x_1) + s(x_2), so every state values
    each x_j at 0 and each column's three grid atoms together at 1.  The
    states are the 3 x 3 doubly stochastic matrices: six vertices (the
    permutation matrices) spanning dimension 4.  44 elements.
    """
    grid = [[f"g{i}{j}" for j in range(3)] for i in range(3)]
    shared = {g for row in grid for g in row}
    blocks = [tuple(row) for row in grid]
    blocks += [(*(row[j] for row in grid), f"x{j}") for j in range(3)]

    def label(block, part):
        rest = [a for a in block if a not in part]
        if not part or not rest:
            return "1" if part else "0"
        if len(part) == 1 and part[0] in shared:
            return part[0]
        if len(rest) == 1 and rest[0] in shared:
            return rest[0] + "'"
        return "+".join(part)

    labels, sums = {}, []
    for block in blocks:
        parts = [p for k in range(len(block) + 1)
                 for p in combinations(block, k)]
        labels.update((label(block, p), None) for p in parts)
        sums += [(label(block, p), label(block, q),
                  label(block, tuple(a for a in block if a in p or a in q)))
                 for p in parts for q in parts if not set(p) & set(q)]
    return validate_effect_algebra(list(labels), "0", "1", sums)


# ---------------------------------------------------------------------------
# hand-built tribes


def two_point_tribe():
    """Four functions on two points; closed, but h onto C3 collapses the
    middle layer to functions that are constant on no single-atom split."""
    return validate_tribe(
        ["p", "q"],
        [(F(0), F(0)), (F(1, 3), F(2, 3)), (F(2, 3), F(1, 3)), (F(1), F(1))])


def non_sigma_tribe():
    """Functions on four points whose characteristic members are closed
    under complement but not union: {0,1} and {1,2} overlap, and the
    characteristic function of their union is missing."""
    Z, O = F(0), F(1)
    fns = [
        (Z, Z, Z, Z),
        (O, O, Z, Z), (Z, Z, O, O),      # {0,1} and its complement
        (Z, O, O, Z), (O, Z, Z, O),      # {1,2} and its complement
        (O, O, O, O),
    ]
    return validate_tribe(["w", "x", "y", "z"], fns)

"""Named instances shared across the test modules.

Generated families come through the public generators; the hand-built
instances (a four-block loop pasting, several small function tribes) are
spelled out sum-by-sum or value-by-value so that they do not depend on any
library construction they are used to test.
"""

from fractions import Fraction

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

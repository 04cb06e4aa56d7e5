"""Constructors for the standard families of finite effect algebras.

Every family builds a raw label/sum table and pushes it through the full
validator, so a bug in a constructor surfaces as an axiom violation rather
than as a quietly wrong structure.  It runs once per family: members of
products and horizontal sums go in as raw tables, since a member's axioms
restrict the whole's (a summand sits in a horizontal sum as itself, a
factor F in a product as F x {0}), so a broken member breaks the whole.
A raw table's sums are a generator, read only once the whole has checked
its size, so an oversize whole lists no member's pairs.

The chain is the one primitive.  Interval algebras and Boolean algebras
are products of chains, built by the same componentwise product as the
product family, and every family lists only its summable pairs.

A family spec is a tuple:

    ("chain", n)                    0 < 1 < ... < n, i + j defined when <= n
    ("boolean", k)                  subsets of {1..k} under disjoint union:
                                    k copies of chain 1
    ("interval", (u1, ..., uk))     integer boxes 0 <= v <= u, componentwise:
                                    the product of the chains u1, ..., uk
    ("product", [spec, ...])        componentwise partial sum
    ("horizontal_sum", [spec, ...]) summands glued at zero and one
"""

from __future__ import annotations

from itertools import product as iproduct
from math import prod
from typing import Sequence

from .algebra import (DEFAULT_MAX_SIZE, EffectAlgebra,
                      validate_effect_algebra)
from .errors import ParseError, SizeLimitExceeded

FamilySpec = tuple


def generate(spec: FamilySpec, *, max_size: int | None = None) -> EffectAlgebra:
    bound = DEFAULT_MAX_SIZE if max_size is None else max_size
    labels, zero, one, sums = _build(spec, bound)
    return validate_effect_algebra(labels, zero, one, sums, max_size=bound)


def _check_size(n: int, bound: int, what: str) -> None:
    if n > bound:
        raise _too_large(what, _decimal(n), bound)


def _too_large(what: str, count: str, bound: int) -> SizeLimitExceeded:
    return SizeLimitExceeded(f"{what} has {count} elements, exceeding the bound {_decimal(bound)}")


def _decimal(x: int) -> str:
    """x in decimal or, past the digit limit of int-to-str conversion, the
    power of two that it is or exceeds."""
    try:
        return str(x)
    except ValueError:
        e = x.bit_length() - 1
        return f"{'more than ' * (x != 1 << e)}2**{e}"


def _build(spec: FamilySpec, bound: int):
    if not isinstance(spec, (tuple, list)) or not spec:
        raise ParseError(f"malformed family spec {spec!r}")
    family = spec[0]
    if family == "chain":
        (n,) = spec[1:]
        if n < 1:
            raise ParseError("chain needs n >= 1")
        _check_size(n + 1, bound, f"chain({_decimal(n)})")
        labels = [str(k) for k in range(n + 1)]
        return labels, "0", str(n), ((str(i), str(j), str(i + j))
                                     for i in range(n + 1)
                                     for j in range(i, n + 1 - i))

    if family == "boolean":
        (k,) = spec[1:]
        if k < 1:
            raise ParseError("boolean needs k >= 1")
        if k >= max(bound, 0).bit_length():     # 2**k > bound, not formed
            raise _too_large(f"boolean({_decimal(k)})", f"2**{k}" if k > 1 << 16
                             else _decimal(1 << k), bound)
        # the last coordinate is element 1, so ids run in subset-mask order
        return _product([("chain", 1)] * k, bound, lambda v: "{" + ",".join(
            str(i) for i, x in enumerate(reversed(v), 1) if x) + "}")

    if family == "interval":
        (u,) = spec[1:]
        u = tuple(int(x) for x in u)
        if not u or any(x < 1 for x in u):
            raise ParseError("interval needs a unit with all components >= 1")
        _check_size(prod(x + 1 for x in u), bound, "interval({}{})".format(
            ", ".join(map(_decimal, u)), "," * (len(u) == 1)))
        return _product([("chain", x) for x in u], bound)

    if family == "product":
        (subspecs,) = spec[1:]
        return _product(subspecs, bound)

    if family == "horizontal_sum":
        (subspecs,) = spec[1:]
        tables = [_build(s, bound) for s in subspecs]
        if not tables:
            raise ParseError("horizontal sum needs at least one summand")
        _check_size(2 + sum(len(t[0]) - 2 for t in tables), bound,
                    "horizontal sum")
        labels, renames = ["0", "1"], []
        for i, (names, zero, one, _) in enumerate(tables):
            tr = {a: f"h{i}:{a}" for a in names}
            tr[zero], tr[one] = "0", "1"
            labels.extend(tr[a] for a in names if a not in (zero, one))
            renames.append(tr)

        def sums():
            # each unordered pair once, the earlier label first; the pairs
            # 0 + 0 and 0 + 1 come from every summand and are kept once
            glued = {}
            for (names, _, _, triples), tr in zip(tables, renames):
                pos = {a: k for k, a in enumerate(names)}
                for a, b, c in triples:
                    if pos[a] > pos[b]:
                        a, b = b, a
                    glued[tr[a], tr[b], tr[c]] = None
            yield from glued
        return labels, "0", "1", sums()

    raise ParseError(f"unknown family {family!r}")


def _product(subspecs, bound: int, name=None):
    """The componentwise product of the factors' raw tables.  Its ordered
    defined pairs are exactly the tuples of the factors' ordered defined
    pairs, so they are listed as such and no candidate pair is walked.
    Element ids run over the factors' ids (their label positions) in
    row-major order, the first factor outermost; ``name`` labels a tuple
    of factor ids, by default as the tuple of the factors' labels.  The
    size is checked first, and the pairs are listed only when read.  The
    factors are not validated: the product's axioms on F x {0} are F's
    own, so a broken factor breaks the product."""
    tables = [_build(s, bound) for s in subspecs]
    if not tables:
        raise ParseError("product needs at least one factor")
    _check_size(prod(len(t[0]) for t in tables), bound, "product")
    if name is None:
        name = lambda v: "(" + ",".join(
            t[0][x] for t, x in zip(tables, v)) + ")"
    labels = [name(v) for v in iproduct(*(range(len(t[0])) for t in tables))]
    pos = [{a: k for k, a in enumerate(t[0])} for t in tables]

    def sums():
        triples = [(0, 0, 0)]
        for (names, _, _, listed), p in zip(tables, pos):
            # every ordered pair once, whatever orders the table lists
            pairs = dict.fromkeys(t for a, b, c in listed for t in (
                (p[a], p[b], p[c]), (p[b], p[a], p[c])))
            n = len(names)
            triples = [(v * n + a, w * n + b, s * n + c)
                       for v, w, s in triples for a, b, c in pairs]
        for v, w, s in triples:
            yield labels[v], labels[w], labels[s]
    zero, one = (name(tuple(p[t[k]] for p, t in zip(pos, tables)))
                 for k in (1, 2))
    return labels, zero, one, sums()


# ---------------------------------------------------------------------------
# compact text form used by the command line


def parse_family_tokens(tokens: Sequence[str]) -> FamilySpec:
    """Parse e.g. ["chain", "3"], ["product", "chain2", "chain3"] or
    ["interval", "1", "2"] into a family spec."""
    if not tokens:
        raise ParseError("missing family")
    family = tokens[0].replace("-", "_")
    args = tokens[1:]
    if family in ("chain", "boolean"):
        if len(args) != 1:
            raise ParseError(f"{family} takes exactly one integer argument")
        return (family, _int(args[0]))
    if family == "interval":
        if not args:
            raise ParseError("interval needs unit components")
        return ("interval", tuple(_int(a) for a in args))
    if family in ("product", "horizontal_sum"):
        if not args:
            raise ParseError(f"{family} needs member specs")
        return (family, [_parse_compact(a) for a in args])
    raise ParseError(f"unknown family {tokens[0]!r}")


def _parse_compact(token: str) -> FamilySpec:
    """One-word member specs: chain3, boolean2, interval:1,2."""
    if token.startswith("chain"):
        return ("chain", _int(token[len("chain"):]))
    if token.startswith("boolean"):
        return ("boolean", _int(token[len("boolean"):]))
    if token.startswith("interval:"):
        parts = token[len("interval:"):].split(",")
        return ("interval", tuple(_int(p) for p in parts))
    raise ParseError(f"cannot parse member spec {token!r}")


def _int(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ParseError(f"expected an integer, got {text!r}") from None

"""JSON round-tripping for algebras, states, observables, and reports.

All rationals travel as exact ``"p/q"`` strings.  Emission is canonical
(sorted keys, fixed separators) so that identical data always produces
identical bytes, which the reporting layer relies on.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Any, Mapping

from .algebra import EffectAlgebra, validate_effect_algebra
from .errors import ParseError, PreconditionFailed, SumNotOne, SumUndefined
from .observables import Observable, make_observable
from .representation import Representation
from .spectral import SpectralMeasure
from .states import State, StatePolytope


def frac_to_str(v: Fraction) -> str:
    return str(Fraction(v))


def frac_from_str(text: Any) -> Fraction:
    try:
        return Fraction(str(text))
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"not a rational: {text!r}") from exc


def dumps(obj: Any) -> str:
    """Canonical JSON text; byte-stable for equal data."""
    return json.dumps(obj, sort_keys=True, indent=2, separators=(",", ": ")) + "\n"


def loads(text: str) -> Any:
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from exc


# ---------------------------------------------------------------------------
# algebras


def algebra_to_obj(M: EffectAlgebra) -> dict:
    return {
        "elements": list(M.labels),
        "zero": M.label(M.zero),
        "one": M.label(M.one),
        "sum": [[M.label(a), M.label(b), M.label(c)]
                for a, b, c in M.defined_sums()],
    }


def algebra_from_obj(obj: Any, *, max_size: int | None = None) -> EffectAlgebra:
    """Rebuild and fully re-validate; the sum table may list each unordered
    pair once, the reader symmetrizes."""
    if not isinstance(obj, Mapping):
        raise ParseError("algebra document must be an object")
    try:
        labels = list(obj["elements"])
        zero = obj["zero"]
        one = obj["one"]
        sums = [(a, b, c) for a, b, c in obj["sum"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"malformed algebra document: {exc!r}") from exc
    return validate_effect_algebra(labels, zero, one, sums, max_size=max_size)


# ---------------------------------------------------------------------------
# states and polytopes


def state_to_obj(M: EffectAlgebra, s: State) -> dict:
    return {"values": {M.label(a): frac_to_str(s.values[a])
                       for a in M.elements()}}


def state_from_obj(M: EffectAlgebra, obj: Any) -> State:
    try:
        values = obj["values"]
    except (KeyError, TypeError) as exc:
        raise ParseError("state document needs a 'values' map") from exc
    out = []
    for a in M.elements():
        lbl = M.label(a)
        if lbl not in values:
            raise ParseError(f"state document misses element {lbl!r}")
        out.append(frac_from_str(values[lbl]))
    return State(tuple(out))


def polytope_to_obj(P: StatePolytope) -> dict:
    M = P.algebra
    return {
        "constraints": [
            {"coeffs": {M.label(i): frac_to_str(row[i])
                        for i in M.elements() if row[i] != 0},
             "rhs": frac_to_str(r)}
            for row, r in zip(P.equalities, P.equality_rhs)
        ],
        "dimension": P.dimension,
        "vertices": [state_to_obj(M, s) for s in P.vertices],
    }


# ---------------------------------------------------------------------------
# observables


def observable_to_obj(x: Observable) -> dict:
    return {
        "support": [frac_to_str(t) for t in x.support],
        "values": [x.algebra.label(a) for a in x.values],
    }


def observable_from_obj(M: EffectAlgebra, obj: Any) -> Observable:
    if not isinstance(obj, Mapping):
        raise ParseError("observable document must be an object")
    try:
        support = [frac_from_str(t) for t in obj["support"]]
        values = list(obj["values"])
    except (KeyError, TypeError) as exc:
        raise ParseError(f"malformed observable document: {exc!r}") from exc
    for v in values:
        if not isinstance(v, str):
            raise ParseError("observable values must be element labels")
        try:
            M.index(v)
        except KeyError:
            raise ParseError(f"unknown element label {v!r}") from None
    try:
        return make_observable(M, support, values)
    except (PreconditionFailed, SumNotOne, SumUndefined) as exc:
        raise ParseError(f"invalid observable: {exc}") from exc


# ---------------------------------------------------------------------------
# representations and spectral data


def representation_to_obj(rep: Representation) -> dict:
    carrier = rep.carrier
    return {
        "carrier": list(carrier),
        "omega0": sorted(carrier[i] for i in rep.omega0),
        "ideal": sorted(sorted(carrier[i] for i in A) for A in rep.ideal),
        "functions": [[frac_to_str(v) for v in f]
                      for f in rep.tribe.functions],
        "h": [rep.target.label(a) for a in rep.h],
    }


def spectral_to_obj(M: EffectAlgebra, sm: SpectralMeasure) -> dict:
    return {
        "element": M.label(sm.element),
        "support": [frac_to_str(t) for t in sm.support],
        "masses": {frac_to_str(t): M.label(sm.masses[t]) for t in sm.support},
    }

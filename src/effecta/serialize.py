"""JSON documents: algebras both ways, observables on the way in.

All rationals travel as exact ``"p/q"`` strings.  Emission is canonical
(sorted keys, fixed separators) so that identical data always produces
identical bytes, which the reporting layer relies on.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from typing import TYPE_CHECKING, Any, Mapping

from .algebra import EffectAlgebra, validate_effect_algebra
from .errors import ParseError, PreconditionFailed, SumNotOne, SumUndefined

if TYPE_CHECKING:
    from .observables import Observable


# integers and "p/q" only: Fraction also reads exponents, and would spend
# hours building 10**999999999 for "1e999999999"
_RATIONAL = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")


def frac_from_str(text: Any) -> Fraction:
    if not _RATIONAL.fullmatch(str(text)):
        raise ParseError(f"not a rational: {text!r}")
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
    except (ValueError, RecursionError) as exc:
        # ValueError covers JSONDecodeError and integer literals past the
        # int-conversion digit limit; RecursionError, arrays nested too deep
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
        labels = obj["elements"]
        zero = obj["zero"]
        one = obj["one"]
        triples = obj["sum"]
        sums = [(a, b, c) for a, b, c in triples]
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"malformed algebra document: {exc!r}") from exc
    if not isinstance(labels, list) or not all(
            isinstance(t, list) for t in triples):
        raise ParseError("algebra elements and sum triples must be JSON arrays")
    for label in (*labels, zero, one, *(x for triple in sums for x in triple)):
        if not isinstance(label, str):
            raise ParseError(f"element labels must be strings: {label!r}")
    return validate_effect_algebra(labels, zero, one, sums, max_size=max_size)


# ---------------------------------------------------------------------------
# observables


def observable_from_obj(M: EffectAlgebra, obj: Any) -> Observable:
    from .observables import make_observable
    if not isinstance(obj, Mapping):
        raise ParseError("observable document must be an object")
    try:
        support, values = obj["support"], obj["values"]
    except KeyError as exc:
        raise ParseError(f"malformed observable document: {exc!r}") from exc
    if not isinstance(support, list) or not isinstance(values, list):
        raise ParseError("observable support and values must be JSON arrays")
    support = [frac_from_str(t) for t in support]
    if not all(isinstance(v, str) for v in values):
        raise ParseError("observable values must be element labels")
    try:
        return make_observable(M, support, values)
    except (PreconditionFailed, SumNotOne, SumUndefined) as exc:
        raise ParseError(f"invalid observable: {exc}") from exc

"""Exception types raised by the toolkit.

Every error that corresponds to a refutable mathematical claim carries a
concrete witness (element labels, function values, ...) so that a failing
check is reproducible by hand.
"""

from __future__ import annotations


class EffectaError(Exception):
    """Base class for all toolkit errors."""


# ---------------------------------------------------------------------------
# core algebra

class AxiomViolation(EffectaError):
    """A partial-sum table violates one of the defining axioms.

    ``axiom`` is one of ``"i"`` (commutativity, which also covers duplicate
    labels, unknown labels and conflicting entries), ``"ii"``
    (associativity), ``"iii"`` (existence of the orthosupplement) or
    ``"iv"`` (positivity / zero-one separation).
    """

    def __init__(self, axiom: str, witnesses: tuple, message: str = ""):
        self.axiom = axiom
        self.witnesses = witnesses
        text = f"axiom ({axiom}) violated at {witnesses!r}"
        if message:
            text += f": {message}"
        super().__init__(text)


class NonUniqueSupplement(EffectaError):
    def __init__(self, element, candidates: tuple):
        self.element = element
        self.candidates = candidates
        super().__init__(
            f"element {element!r} has several orthosupplements: {candidates!r}"
        )


class SizeLimitExceeded(EffectaError):
    pass


# ---------------------------------------------------------------------------
# representations

class RdpRequired(EffectaError):
    """The requested construction only applies to algebras with the 2x2
    refinement (interpolation) property."""

    def __init__(self, witness: tuple | None = None):
        self.witness = witness
        msg = "algebra lacks the refinement property"
        if witness is not None:
            msg += f" (witness {witness!r})"
        super().__init__(msg)


class NotMeasurable(EffectaError):
    def __init__(self, what, atom):
        self.what = what
        self.atom = atom
        super().__init__(f"{what!r} is not constant on atom {sorted(atom)!r}")


class PreconditionFailed(EffectaError):
    pass


# ---------------------------------------------------------------------------
# observables and smearing

class SumUndefined(EffectaError):
    def __init__(self, parts: tuple):
        self.parts = parts
        super().__init__(f"partial sum of {parts!r} is undefined")


class SumNotOne(EffectaError):
    def __init__(self, total):
        self.total = total
        super().__init__(f"values sum to {total!r}, not to the unit")


# ---------------------------------------------------------------------------
# spectral measures and state extension

class SpectralObstruction(EffectaError):
    def __init__(self, element, level):
        self.element = element
        self.level = level
        super().__init__(
            f"level set of {element!r} at {level} is not a sharp characteristic set"
        )


class TheoremViolation(EffectaError):
    """A property that provably holds for the inputs accepted by the calling
    function turned out false.  Raised instead of silently returning wrong
    data; carries enough context to debug."""


# ---------------------------------------------------------------------------
# serialization / CLI

class ParseError(EffectaError):
    pass

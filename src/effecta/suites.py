"""Theorem-check suites over a single algebra document.

Each suite turns one aspect of the library into a flat list of records:
axioms, refinement, sharp structure, states, representation
characterizations, smearing, spectral measures, and state extension.
Everything that fails carries a reproducible witness; everything is
deterministic for a fixed seed.  What validation or the product-of-chains
certificate has proved (a'' = a, unique differences, the Boolean sharp
set, B0 a power set that h maps onto the sharp elements, a spectral
measure naming its element) is not re-checked: the sharp suite's one
record lists the members, and the representation suite's one record
describes the canonical representation.

Each check runs in its own process, so the layers behind the states suite
and the gated suites (representation, smearing, spectral, extension) are
imported by the suite that uses them: ``--suite axioms``, ``rdp`` or
``sharp`` never loads ``states``, and ``--suite states``, or an algebra
that fails the refinement gate in ``canonical_representation``, never
loads ``observables`` or ``spectral``.
"""

from __future__ import annotations

from fractions import Fraction
from typing import TYPE_CHECKING, Sequence

from .algebra import EffectAlgebra, check_rdp, sharp_elements
from .errors import (
    AxiomViolation,
    EffectaError,
    EmptyStateSpace,
    NonSeparatingStates,
    NonUniqueSupplement,
    NotMeasurable,
    RdpRequired,
    SizeLimitExceeded,
    TheoremViolation,
)
from .report import FAIL, PASS, SKIP, SUITE_NAMES, Record
from .serialize import algebra_from_obj, frac_to_str

if TYPE_CHECKING:
    from .representation import Representation
    from .states import State

ZERO = Fraction(0)
ONE = Fraction(1)
HALF = Fraction(1, 2)

_SUPPORTS = {1: (ONE,), 2: (ZERO, ONE), 3: (ZERO, HALF, ONE)}


def resolve_suites(selector: str) -> tuple[str, ...]:
    if selector == "all":
        return SUITE_NAMES
    if selector not in SUITE_NAMES:
        raise ValueError(f"unknown suite {selector!r}")
    return (selector,)


_GATED = ("representation", "smearing", "spectral", "extension")

# what reading a document raises when its table is not an effect algebra
INVALID_ALGEBRA = (AxiomViolation, NonUniqueSupplement)


def check_document(doc, instance: str, suites: Sequence[str], seed: int,
                   max_size: int | None = None) -> list[Record]:
    """Validate the document, then run every requested suite.

    The state polytope and the canonical representation are computed once
    and shared by every suite that needs them.  The representation is built
    inside the first gated suite that runs: a failed gate is that suite's
    ``canonical-representation`` FAIL, and a size cap is its SKIP.  Any
    other library error that escapes a suite becomes that suite's one
    ``error`` FAIL, and the remaining suites still run."""
    records: list[Record] = []
    try:
        M = algebra_from_obj(doc, max_size=max_size)
        if "axioms" in suites:
            records.extend(_axiom_records(M, instance))
    except INVALID_ALGEBRA as exc:
        if "axioms" in suites:
            records.append(Record("axioms", instance, "validate", FAIL,
                                  witness=witness_of(exc), detail=str(exc)))
        for s in suites:
            if s != "axioms":
                records.append(Record(s, instance, "requires-valid-algebra",
                                      FAIL, detail=str(exc)))
        return records

    # past the box-dimension cap the polytope stays None; a suite that needs
    # it recomputes it and is skipped below, after the refinement gate
    polytope = None
    if "states" in suites or any(s in suites for s in _GATED):
        from .states import state_polytope
        try:
            polytope = state_polytope(M)
        except SizeLimitExceeded:
            pass

    runners = {
        "rdp": lambda: run_rdp(M, instance),
        "sharp": lambda: run_sharp(M, instance),
        "states": lambda: run_states(M, instance, polytope=polytope),
        "representation": lambda rep: run_representation(M, instance, rep),
        "smearing": lambda rep: run_smearing(M, instance, seed, rep),
        "spectral": lambda rep: run_spectral(M, instance, seed, rep),
        "extension": lambda rep: run_extension(M, instance, seed, rep),
    }
    rep = None      # the canonical representation, or the error of its gate
    for s in suites:
        if s == "axioms":
            continue
        try:
            if s not in _GATED:
                records.extend(runners[s]())
                continue
            if rep is None:
                from .representation import canonical_representation
                try:
                    rep = canonical_representation(M, polytope=polytope)
                except (RdpRequired, EmptyStateSpace,
                        NonSeparatingStates) as exc:
                    rep = exc
            if isinstance(rep, EffectaError):
                records.append(Record(s, instance, "canonical-representation",
                                      FAIL, witness=witness_of(rep),
                                      detail=str(rep)))
            else:
                records.extend(runners[s](rep))
        except SizeLimitExceeded as exc:
            records.append(Record(s, instance, "size-limit", SKIP,
                                  detail=str(exc)))
        except EffectaError as exc:
            records.append(Record(s, instance, "error", FAIL,
                                  witness=witness_of(exc), detail=str(exc)))
    return records


def witness_of(exc: EffectaError):
    """The error's witness as a JSON list, or None.  Every witness an error
    carries is a flat tuple of labels and rational strings."""
    for attr in ("witnesses", "witness", "pair", "candidates"):
        w = getattr(exc, attr, None)
        if w is not None:
            return list(w)
    return None


# ---------------------------------------------------------------------------
# individual suites


def _axiom_records(M: EffectAlgebra, instance: str) -> list[Record]:
    """The one axioms record.  Validation has proved the rest: complements
    are unique, so a'' = a, and it stores the unique witness of every
    difference it derives the order from, so minus(b, a) + a = b whenever
    leq(a, b)."""
    return [Record("axioms", instance, "validate", PASS,
                   detail=f"{M.n} elements")]


def run_rdp(M: EffectAlgebra, instance: str) -> list[Record]:
    r = check_rdp(M)
    return [Record("rdp", instance, "refinement",
                   PASS if r.holds else FAIL,
                   witness=None if r.holds else list(r.witness_labels()))]


def run_sharp(M: EffectAlgebra, instance: str) -> list[Record]:
    """The sharp elements.  With the refinement property they form a
    Boolean algebra by construction (see ``sharp_elements``), so the
    listing is the suite's one record and does not fail."""
    return [Record("sharp", instance, "members", PASS,
                   witness=[M.label(a) for a in sharp_elements(M).members])]


def run_states(M: EffectAlgebra, instance: str, *,
               polytope=None) -> list[Record]:
    """Non-emptiness and separation.  The vertices solve the equalities and
    satisfy the cuts by construction, and every mixture is a convex
    combination of them, so their validity is a test, not a record."""
    from .states import inseparable_pair, state_polytope
    P = state_polytope(M) if polytope is None else polytope
    records = [Record("states", instance, "non-empty",
                      PASS if not P.is_empty else FAIL,
                      detail=f"{len(P.numerators)} extremal states")]
    if P.is_empty:
        records.append(Record("states", instance, "separating", SKIP,
                              detail="no states"))
        return records
    pair = inseparable_pair(P)
    records.append(Record("states", instance, "separating",
                          PASS if pair is None else FAIL,
                          witness=None if pair is None
                          else [M.label(a) for a in pair]))
    return records


def run_representation(M: EffectAlgebra, instance: str,
                       rep: Representation) -> list[Record]:
    """The canonical representation.  Built, it is certified (see
    ``canonical_representation``), and B0, its atoms, measurability and the
    sharp image follow from the certificate (see ``compute_b0``)."""
    return [Record(
        "representation", instance, "canonical-representation", PASS,
        detail=f"{len(rep.carrier)} points, {len(rep.tribe.functions)} functions")]


def _zoo_observables(M: EffectAlgebra):
    from .observables import make_observable, summable_families
    for fam in summable_families(M, 3):
        yield make_observable(M, _SUPPORTS[len(fam)], fam)


def _zoo_size(M: EffectAlgebra) -> int:
    """How many observables ``_zoo_observables`` yields, without walking
    them: the family (1,), one (a, a') per element a, and one
    (a, b, (a + b)') per ordered pair with a + b defined."""
    return 1 + M.n + sum(2 - (a == b) for a, b, _ in M.defined_sums())


def sample_states(P, seed: int, mixtures: int) -> list[State]:
    """The states a suite evaluates: the vertices, then seeded mixtures.
    A lone vertex is every mixture of itself, so it is evaluated once."""
    from .states import seeded_mixtures
    if len(P.numerators) == 1:
        return list(P.vertices)
    return list(P.vertices) + seeded_mixtures(P, mixtures, seed)


def _first_residual(M: EffectAlgebra, rep: Representation, residuals):
    """First nonzero residual, ordered by observable, state, outcome set."""
    from .observables import smear
    for x in _zoo_observables(M):
        elements = smear(rep, x).elements
        for i, r in enumerate(residuals):
            for key, a in elements.items():
                if r[a]:
                    return [[M.label(b) for b in x.values],
                            sorted(frac_to_str(x.support[j]) for j in key),
                            i, frac_to_str(r[a])]


def run_smearing(M: EffectAlgebra, instance: str, seed: int,
                 rep: Representation) -> list[Record]:
    from .observables import element_integrals
    states = sample_states(rep.polytope, seed, 10)
    try:
        tables = [element_integrals(rep, m.values) for m in states]
    except NotMeasurable as exc:
        return [Record("smearing", instance, "kernel-measurable", FAIL,
                       detail=str(exc))]
    n_obs = _zoo_size(M)
    records = [Record("smearing", instance, "kernel-measurable", PASS,
                      detail=f"{n_obs} observables")]
    # every element is x(E) for some zoo observable (x(empty) = 0, (1,)
    # gives 1, (a, a') gives a), so one residual per element and state
    # decides the identity; the zoo is walked only to name the first break
    residuals = [[m.values[a] - t[a] for a in M.elements()]
                 for m, t in zip(states, tables)]
    first_bad = (_first_residual(M, rep, residuals)
                 if any(map(any, residuals)) else None)
    records.append(Record(
        "smearing", instance, "eq-residual-zero",
        PASS if first_bad is None else FAIL, witness=first_bad,
        detail=f"{n_obs} observables x {len(states)} states"))
    return records


def run_spectral(M: EffectAlgebra, instance: str, seed: int,
                 rep: Representation) -> list[Record]:
    from .observables import OutcomeSet
    from .spectral import _endpoint_rule, spectral_integral
    states = sample_states(rep.polytope, seed, 10)
    tables = [spectral_integral(rep, m.values) for m in states]
    records = []

    bad = None
    for a in M.elements():
        i = next((i for i, (m, t) in enumerate(zip(states, tables))
                  if t[a] != m.values[a]), None)
        if i is not None:
            bad = [M.label(a), i,
                   f"spectral integral of {M.label(a)} gives {tables[i][a]}, "
                   f"but the state assigns {states[i].values[a]}"]
            break
    records.append(Record("spectral", instance, "integral-identity",
                          PASS if bad is None else FAIL, witness=bad,
                          detail=f"{M.n} elements x {len(states)} states"))

    bad = None
    sharp = sharp_elements(M).members
    sharp_e_sets = (
        ("empty", OutcomeSet()),
        ("point-0", OutcomeSet.of_points(0)),
        ("point-1", OutcomeSet.of_points(1)),
        ("both-points", OutcomeSet.of_points(0, 1)),
        ("lower-half-open", OutcomeSet.interval(0, HALF, hi_closed=False)),
        ("upper-half", OutcomeSet.interval(HALF, 1, lo_closed=False)),
        ("everything", OutcomeSet.everything()),
    )
    ends = [(name, E, E.contains(ZERO), E.contains(ONE))
            for name, E in sharp_e_sets]
    try:
        for a in sharp:
            for name, E, z, o in ends:
                _endpoint_rule(rep, a, E, z, o)
    except TheoremViolation as exc:
        bad = [M.label(a), name, str(exc)]
    records.append(Record("spectral", instance, "sharp-table",
                          PASS if bad is None else FAIL, witness=bad,
                          detail=f"{len(sharp)} sharp elements x "
                                 f"{len(sharp_e_sets)} outcome sets"))

    # a strictly increasing non-identity transform: the integral law must
    # survive exactly on sharp elements
    vertices = rep.polytope.vertices
    squared = [spectral_integral(rep, v.values, lambda lam: lam * lam)
               for v in vertices]
    bad = None
    broken = 0
    first_break = None
    for a in M.elements():
        i = next((i for i, (v, t) in enumerate(zip(vertices, squared))
                  if t[a] != v.values[a]), None)
        if i is None:
            continue
        if a in sharp:
            bad = [M.label(a), "sharp element broke the integral"]
            break
        broken += 1
        if first_break is None:
            first_break = [M.label(a), i,
                           [frac_to_str(squared[i][a]),
                            frac_to_str(vertices[i].values[a])]]
    records.append(Record(
        "spectral", instance, "phi-square", PASS if bad is None else FAIL,
        witness=bad if bad is not None else first_break,
        detail=f"{broken} non-sharp elements break the integral"))
    return records


def run_extension(M: EffectAlgebra, instance: str, seed: int,
                  rep: Representation) -> list[Record]:
    from .spectral import extend_state, sharp_kernel
    sharp = sharp_elements(M).members
    states = sample_states(rep.polytope, seed, 3)
    records = []

    bad_round = None
    try:
        for i, m in enumerate(states):
            ext = extend_state(rep, {b: m.values[b] for b in sharp})
            if ext.values != m.values and bad_round is None:
                a = next(a for a in M.elements()
                         if ext.values[a] != m.values[a])
                bad_round = [i, M.label(a), frac_to_str(ext.values[a]),
                             frac_to_str(m.values[a])]
    except SizeLimitExceeded:
        raise                      # a cap skips the suite, see check_document
    except EffectaError as exc:
        bad_round = bad_round or [i, str(exc)]
    records.append(Record("extension", instance, "roundtrip",
                          PASS if bad_round is None else FAIL,
                          witness=bad_round,
                          detail=f"{len(states)} states restricted to "
                                 f"{len(sharp)} sharp elements"))
    kernel = sharp_kernel(rep)
    bad_unique = None
    if kernel is not None:
        a = next(a for a in M.elements() if kernel[a])
        bad_unique = [M.label(a), frac_to_str(kernel[a])]
    records.append(Record("extension", instance, "uniqueness",
                          PASS if bad_unique is None else FAIL,
                          witness=bad_unique))
    return records

"""Theorem-check suites over a single algebra document.

Each suite turns one aspect of the library into a flat list of records:
axioms, refinement, sharp structure, states, representation
characterizations, smearing, spectral measures, and state extension.
Everything that fails carries a reproducible witness, and every record is
a function of the document alone.  What validation or the product-of-chains
certificate has proved (a'' = a, unique differences, the Boolean sharp
set, B0 a power set that h maps onto the sharp elements, a spectral
measure naming its element, every function constant on the singleton atoms
of B0, a sharp element's levels {0: a', 1: a}, and the uniqueness of the
extension from the sharp elements, a theorem of the certificate whose rank
check ``oracles.sharp_kernel`` keeps) is not re-checked: the sharp suite's
one record lists the members, read off the down masks on any algebra and
so without the refinement verdict, and the representation suite's one
record describes the canonical representation.  The smearing, spectral
and extension suites evaluate the extremal states alone: their identities
are linear in the state, so they hold at every state when they hold at
every vertex.  The smearing and extension suites read one comparison of
the vertices with their atom tables (``sample_mismatches``), the spectral
suite two of its own tables.

Each check runs in its own process, so the states suite and the gated
suites (representation, smearing, spectral, extension) import the layers
behind them, and share the state polytope and canonical representation,
each computed once per algebra: ``--suite axioms``, ``rdp`` or ``sharp``
never loads ``states``, and ``--suite states``, or an algebra that fails
the refinement gate in ``canonical_representation``, never loads
``observables`` or ``spectral``.
"""

from __future__ import annotations

from fractions import Fraction
from typing import TYPE_CHECKING, Sequence

from .algebra import EffectAlgebra, check_rdp, sharp_elements
from .errors import (
    AxiomViolation,
    EffectaError,
    NonUniqueSupplement,
    RdpRequired,
    SizeLimitExceeded,
)
from .report import FAIL, PASS, SKIP, SUITE_NAMES, Record
from .serialize import algebra_from_obj

if TYPE_CHECKING:
    from .representation import Representation

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


# what reading a document raises when its table is not an effect algebra
INVALID_ALGEBRA = (AxiomViolation, NonUniqueSupplement)


def check_document(doc, instance: str, suites: Sequence[str],
                   max_size: int | None = None) -> list[Record]:
    """Validate the document, then run every requested suite.

    The state polytope and the canonical representation are computed once
    per algebra, so the suites that need them share one solve and one build.
    A failed refinement gate is each gated suite's
    ``canonical-representation`` FAIL, and a size cap is a suite's SKIP.
    Any other library error that escapes a suite becomes that suite's one
    ``error`` FAIL, and the remaining suites still run."""
    records: list[Record] = []
    try:
        M = algebra_from_obj(doc, max_size=max_size)
    except INVALID_ALGEBRA as exc:
        if "axioms" in suites:
            records.append(Record("axioms", instance, "validate", FAIL,
                                  witness=witness_of(exc), detail=str(exc)))
        for s in suites:
            if s != "axioms":
                records.append(Record(s, instance, "requires-valid-algebra",
                                      FAIL, detail=str(exc)))
        return records

    def rep() -> Representation:
        from .representation import canonical_representation
        return canonical_representation(M)

    runners = {
        "axioms": lambda: _axiom_records(M, instance),
        "rdp": lambda: run_rdp(M, instance),
        "sharp": lambda: run_sharp(M, instance),
        "states": lambda: run_states(M, instance),
        "representation": lambda: run_representation(M, instance, rep()),
        "smearing": lambda: run_smearing(M, instance, rep()),
        "spectral": lambda: run_spectral(M, instance, rep()),
        "extension": lambda: run_extension(M, instance, rep()),
    }
    for s in suites:
        try:
            records.extend(runners[s]())
        except RdpRequired as exc:
            records.append(Record(s, instance, "canonical-representation",
                                  FAIL, witness=witness_of(exc),
                                  detail=str(exc)))
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
    for attr in ("witnesses", "witness", "candidates"):
        w = getattr(exc, attr, None)
        if w is not None:
            return list(w)
    return None


# ---------------------------------------------------------------------------
# individual suites


def _axiom_records(M: EffectAlgebra, instance: str) -> list[Record]:
    """The one axioms record.  Validation has proved the rest: complements
    are unique, so a'' = a, and a <= b exactly when a + b' is defined, so
    minus(b, a) = (a + b')' gives minus(b, a) + a = b whenever leq(a, b)."""
    return [Record("axioms", instance, "validate", PASS,
                   detail=f"{M.n} elements")]


def run_rdp(M: EffectAlgebra, instance: str) -> list[Record]:
    r = check_rdp(M)
    return [Record("rdp", instance, "refinement",
                   PASS if r.holds else FAIL,
                   witness=None if r.holds else list(r.witness_labels()))]


def run_sharp(M: EffectAlgebra, instance: str) -> list[Record]:
    """The sharp elements, read off the down masks without the refinement
    verdict.  With the refinement property they form a Boolean algebra by
    construction (see ``sharp_elements``), so the listing is the suite's
    one record and does not fail."""
    return [Record("sharp", instance, "members", PASS,
                   witness=[M.label(a) for a in sharp_elements(M).members])]


def run_states(M: EffectAlgebra, instance: str) -> list[Record]:
    """Non-emptiness and separation.  The vertices solve the equalities and
    satisfy the cuts by construction, so their validity is a test, not a
    record."""
    from .states import inseparable_pair, state_polytope
    P = state_polytope(M)
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
    rows, _ = rep.evaluation
    return [Record(
        "representation", instance, "canonical-representation", PASS,
        detail=f"{len(rep.carrier)} points, {len(rows)} functions")]


def _zoo_observables(M: EffectAlgebra):
    from .observables import make_observable, summable_families
    for fam in summable_families(M, 3):
        yield make_observable(M, _SUPPORTS[len(fam)], fam)


def _zoo_size(M: EffectAlgebra) -> int:
    """How many observables ``_zoo_observables`` yields, without walking
    them: the family (1,), one (a, a') per element a, and one
    (a, b, (a + b)') per ordered pair with a + b defined."""
    return 1 + M.n + sum(2 - (a == b) for a, b, _ in M.defined_sums())


def _first_residual(M: EffectAlgebra, rep: Representation, bad):
    """First mismatch, ordered by observable, vertex, outcome set, with its
    residual state minus table."""
    from .observables import atom_integrals, first_mismatch, smear
    P = rep.polytope
    for x in _zoo_observables(M):
        kernel = smear(rep, x)
        if (hit := first_mismatch(kernel, bad)) is not None:
            i, key = hit
            a, row, den = kernel.elements[key], P.numerators[i], P.den
            t, tden = atom_integrals(rep, row, den)
            return [[M.label(b) for b in x.values],
                    sorted(str(x.support[j]) for j in key), i,
                    str(Fraction(row[a], den) - Fraction(t[a], tden))]


def run_smearing(M: EffectAlgebra, instance: str,
                 rep: Representation) -> list[Record]:
    from .observables import sample_mismatches
    bad = sample_mismatches(rep)
    n_obs = _zoo_size(M)
    # every element is x(E) for some zoo observable (x(empty) = 0, (1,)
    # gives 1, (a, a') gives a), so one comparison per element and vertex
    # decides the identity; the zoo is walked only to name the first break
    first_bad = _first_residual(M, rep, bad) if bad else None
    return [Record("smearing", instance, "eq-residual-zero",
                   PASS if first_bad is None else FAIL, witness=first_bad,
                   detail=f"{n_obs} observables x "
                          f"{len(rep.polytope.numerators)} states")]


def _first_states(bad: list[tuple[int, int]]) -> dict[int, int]:
    """Each element that a state and its table differ at, ascending, with
    the first such state."""
    return dict(sorted({a: i for i, a in reversed(bad)}.items()))


def run_spectral(M: EffectAlgebra, instance: str,
                 rep: Representation) -> list[Record]:
    from .linalg import mismatches
    from .spectral import level_integrals
    rows, den = rep.polytope.numerators, rep.polytope.den
    tables = [level_integrals(rep, row, den) for row in rows]

    bad = None
    for a, i in _first_states(mismatches(rows, den, tables)).items():
        t, tden = tables[i]
        bad = [M.label(a), i,
               f"spectral integral of {M.label(a)} gives "
               f"{Fraction(t[a], tden)}, but the state assigns "
               f"{Fraction(rows[i][a], den)}"]
        break
    identity = Record("spectral", instance, "integral-identity",
                      PASS if bad is None else FAIL, witness=bad,
                      detail=f"{M.n} elements x {len(rows)} states")

    # a strictly increasing non-identity transform: the integral law must
    # survive exactly on sharp elements
    squared = [level_integrals(rep, row, den, lambda lam: lam * lam)
               for row in rows]
    bad = first_break = None
    broken = 0
    for a, i in _first_states(mismatches(rows, den, squared)).items():
        if a in rep.sharp:
            bad = [M.label(a), "sharp element broke the integral"]
            break
        broken += 1
        if first_break is None:
            t, tden = squared[i]
            first_break = [M.label(a), i, [str(Fraction(t[a], tden)),
                                           str(Fraction(rows[i][a], den))]]
    return [identity, Record(
        "spectral", instance, "phi-square", PASS if bad is None else FAIL,
        witness=bad if bad is not None else first_break,
        detail=f"{broken} non-sharp elements break the integral")]


def run_extension(M: EffectAlgebra, instance: str,
                  rep: Representation) -> list[Record]:
    """Each vertex's atom table is the extension of its restriction to the
    sharp elements (see ``sample_mismatches``) and must give the vertex
    back; the extension is linear in the state, so the vertices decide the
    round trip for every state.

    That the extension is unique is a theorem of the product-of-chains
    certificate, not a check: on prod C_{h_i} with k factors a state is
    fixed by its k atom values, and the top of each factor is sharp with
    h_i times its factor's atom value, so the sharp columns of the vertex
    differences have rank k - 1, the polytope's dimension.
    ``oracles.sharp_kernel`` in the tests keeps that rank check.  That the
    extension of a restricted state is a state is not checked either: past
    the certificate the atom formula is the smearing identity, so the
    extension gives the state back, which this suite compares."""
    from .observables import atom_integrals, sample_mismatches
    P = rep.polytope
    bad_round = None
    if bad := sample_mismatches(rep):
        i, a = bad[0]
        row = P.numerators[i]
        t, tden = atom_integrals(rep, row, P.den)
        bad_round = [i, M.label(a), str(Fraction(t[a], tden)),
                     str(Fraction(row[a], P.den))]
    return [Record("extension", instance, "roundtrip",
                   PASS if bad_round is None else FAIL, witness=bad_round,
                   detail=f"{len(P.numerators)} states restricted to "
                          f"{len(rep.sharp)} sharp elements")]

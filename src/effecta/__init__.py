"""effecta — exact verification toolkit for finite effect algebras.

The package validates partial-sum tables, computes state polytopes with
exact rational arithmetic, builds function representations on the extremal
states, and checks the smearing / spectral-measure machinery that connects
unsharp observables to sharp ones.
"""

from .algebra import (
    EffectAlgebra,
    RdpResult,
    SharpSet,
    check_rdp,
    iterated_sum,
    sharp_elements,
    validate_effect_algebra,
)
from .generators import generate, parse_family_tokens
from .observables import (
    Observable,
    OutcomeSet,
    element_integrals,
    make_observable,
    smear,
    summable_families,
)
from .representation import (
    EffectTribe,
    Representation,
    canonical_representation,
    validate_tribe,
)
from .spectral import (
    SpectralMeasure,
    extend_state,
    spectral_integral,
    spectral_measure,
)
from .states import State, StatePolytope, is_state, state_polytope

__version__ = "0.1.0"

__all__ = [
    "EffectAlgebra",
    "EffectTribe",
    "Observable",
    "OutcomeSet",
    "RdpResult",
    "Representation",
    "SharpSet",
    "SpectralMeasure",
    "State",
    "StatePolytope",
    "canonical_representation",
    "check_rdp",
    "element_integrals",
    "extend_state",
    "generate",
    "is_state",
    "iterated_sum",
    "make_observable",
    "parse_family_tokens",
    "sharp_elements",
    "smear",
    "spectral_integral",
    "spectral_measure",
    "state_polytope",
    "summable_families",
    "validate_effect_algebra",
    "validate_tribe",
    "__version__",
]

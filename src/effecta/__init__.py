"""effecta — exact verification toolkit for finite effect algebras.

The package validates partial-sum tables, computes state polytopes with
exact rational arithmetic, builds function representations on the extremal
states, and checks the smearing / spectral-measure machinery that connects
unsharp observables to sharp ones.

Every command runs in its own process and reaches only some layers, so
importing the package runs no submodule.  Each layer below is bound here as
a module that runs on first attribute access (``importlib.util.LazyLoader``):
``effecta.algebra`` works after ``import effecta``, and a command that never
touches ``effecta.spectral`` never compiles it.  Each exported name is
resolved from its module on first access (PEP 562), and
``from effecta import *`` loads them all.
"""

import sys
from importlib.util import LazyLoader, find_spec, module_from_spec

__version__ = "0.1.0"

# every module but the command line, which runs as ``python -m effecta.cli``
_LAYERS = ("algebra", "errors", "generators", "linalg", "observables",
           "polytope", "report", "representation", "serialize", "spectral",
           "states", "suites")


def _lazy(name: str):
    spec = find_spec(f".{name}", __name__)
    spec.loader = LazyLoader(spec.loader)
    module = sys.modules[spec.name] = module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


for _name in _LAYERS:
    globals()[_name] = _lazy(_name)
del _name

# module -> the names it exports here
_EXPORTS = {
    "algebra": ("EffectAlgebra", "RdpResult", "check_rdp",
                "iterated_sum", "sharp_elements", "validate_effect_algebra"),
    "generators": ("generate", "parse_family_tokens"),
    "observables": ("Observable", "make_observable", "smear",
                    "summable_families"),
    "representation": ("Representation", "canonical_representation"),
    "states": ("StatePolytope", "state_polytope"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME) + ["__version__"]


def __getattr__(name: str):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(globals()[module], name)
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))

"""Per-layer timing and counting wrappers for an in-process run of effecta.

Each wrapper rebinds a public function name in every ``effecta`` module that
imported it, so the program's own callers go through the wrapper; nothing in
``effecta`` changes.  A span's time is inclusive, and only its outermost
active call is timed, so recursion is not counted twice.  Counts are kept for
every call.
"""

from __future__ import annotations

import sys
import time
from collections import Counter, defaultdict


class Tracer:
    """Wrappers around the layer boundaries named in ``SPANS``."""

    def __init__(self):
        self.seconds: dict[str, float] = defaultdict(float)
        self.counts: Counter = Counter()
        self._depth: Counter = Counter()
        # distinct integrals of this document, as (representation, function,
        # state) index triples; each object is held so its id is not reused
        self._integrals: set = set()
        self._interned: dict = {}
        self._values: dict = {}
        self._installed: list = []

    # -- per-span observers: count the work a call did ------------------------

    def _solve_affine(self, args, result):
        coeffs = args[0]
        self.counts["linalg.solve_affine_calls"] += 1
        self.counts["linalg.solve_affine_rows"] += len(coeffs)
        if result is not None and coeffs:
            self.counts["linalg.solve_affine_rank"] += (
                len(coeffs[0]) - len(result[2]))

    def _enumerate_vertices(self, args, result):
        self.counts["polytope.cuts"] += len(args[1])
        self.counts["polytope.vertices"] += len(result)

    def _rank_test(self, args, result):
        self.counts["polytope.rank_tests"] += 1

    def _state_polytope(self, args, result):
        self.counts["states.dimension"] += max(result.dimension, 0)

    def _index(self, obj, value) -> int:
        """A small integer per distinct value, hashing each object once."""
        entry = self._interned.get(id(obj))
        if entry is None:
            entry = (obj, self._values.setdefault(value, len(self._values)))
            self._interned[id(obj)] = entry
        return entry[1]

    def _atomwise_integral(self, args, result):
        rep, f, m = args[:3]
        self.counts["observables.atomwise_integral_calls"] += 1
        self._integrals.add((self._index(rep, ("rep", id(rep))),
                             self._index(f, tuple(f)),
                             self._index(m, m.values)))

    def _calls(name):
        def observe(self, args, result):
            self.counts[name] += 1
        return observe

    # (span, function, modules whose binding is replaced or None for all,
    #  timed, observer)
    SPANS = (
        ("generators.generate", "effecta.generators.generate", None, True, None),
        ("serialize.algebra_from_obj", "effecta.serialize.algebra_from_obj",
         None, True, None),
        # read side only: the generators' own validation is part of generate
        ("algebra.validate", "effecta.algebra.validate_effect_algebra",
         ("effecta.serialize",), True, None),
        ("algebra.check_rdp", "effecta.algebra.check_rdp", None, True, None),
        ("algebra.sharp_elements", "effecta.algebra.sharp_elements", None,
         True, None),
        ("linalg.solve_affine", "effecta.linalg.solve_affine", None, True,
         _solve_affine),
        ("polytope.enumerate_vertices", "effecta.polytope.enumerate_vertices",
         None, True, _enumerate_vertices),
        ("polytope.rank_test", "effecta.linalg.rref", ("effecta.polytope",),
         False, _rank_test),
        ("states.state_polytope", "effecta.states.state_polytope", None, True,
         _state_polytope),
        ("suites.axioms", "effecta.suites._axiom_records", None, True, None),
        ("suites.rdp", "effecta.suites.run_rdp", None, True, None),
        ("suites.sharp", "effecta.suites.run_sharp", None, True, None),
        ("suites.states", "effecta.suites.run_states", None, True, None),
        ("suites.representation", "effecta.suites.run_representation", None,
         True, None),
        ("suites.smearing", "effecta.suites.run_smearing", None, True, None),
        ("suites.spectral", "effecta.suites.run_spectral", None, True, None),
        ("suites.extension", "effecta.suites.run_extension", None, True, None),
        ("lp.coordinate_bounds", "effecta.lp.coordinate_bounds", None, True,
         _calls("lp.coordinate_bounds_calls")),
        ("lp.simplex_min", "effecta.lp.simplex_min", None, False,
         _calls("lp.simplex_min_calls")),
        ("representation.canonical",
         "effecta.representation.canonical_representation", None, True, None),
        ("representation.b0", "effecta.representation.compute_b0", None, True,
         None),
        ("representation.null_point",
         "effecta.representation.extend_carrier_with_null_point", None, True,
         None),
        ("observables.verify_smearing", "effecta.observables.verify_smearing",
         None, True, _calls("observables.verify_smearing_calls")),
        ("observables.atomwise_integral",
         "effecta.observables.atomwise_integral", None, False,
         _atomwise_integral),
        ("spectral.spectral_integral", "effecta.spectral.spectral_integral",
         None, True, _calls("spectral.spectral_integral_calls")),
        ("spectral.extension_uniqueness",
         "effecta.spectral.extension_uniqueness", None, True, None),
        ("spectral.transform_spectral", "effecta.spectral.transform_spectral",
         None, True, None),
        ("report.render", "effecta.report.render", None, True, None),
    )
    del _calls

    # -- installation ---------------------------------------------------------

    def _wrapper(self, span, original, timed, observe):
        if not timed:
            def counted(*args, **kwargs):
                result = original(*args, **kwargs)
                observe(self, args, result)
                return result
            return counted

        depth = self._depth
        seconds = self.seconds
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            outermost = depth[span] == 0
            depth[span] += 1
            start = clock() if outermost else 0.0
            try:
                result = original(*args, **kwargs)
            finally:
                depth[span] -= 1
                if outermost:
                    seconds[span + "_s"] += clock() - start
            if observe is not None:
                observe(self, args, result)
            return result

        return wrapper

    def install(self) -> list[str]:
        """Wrap every span; returns the functions not found, whose spans
        then read zero (the program no longer has that layer)."""
        if self._installed:
            raise RuntimeError("tracer already installed")
        modules = {name: mod for name, mod in sys.modules.items()
                   if name == "effecta" or name.startswith("effecta.")}
        missing = []
        for span, qualname, sites, timed, observe in self.SPANS:
            home, _, attr = qualname.rpartition(".")
            original = getattr(modules.get(home), attr, None)
            targets = [modules[s] for s in sites or modules if s in modules]
            bound = [(mod, name) for mod in targets
                     for name, value in vars(mod).items()
                     if original is not None and value is original]
            if not bound:
                missing.append(qualname)
                continue
            wrapper = self._wrapper(span, original, timed, observe)
            for mod, name in bound:
                setattr(mod, name, wrapper)
                self._installed.append((mod, name, original))
        return missing

    def uninstall(self) -> None:
        for mod, name, original in reversed(self._installed):
            setattr(mod, name, original)
        self._installed.clear()

    def end_document(self) -> None:
        self.counts["observables.integral_distinct"] += len(self._integrals)
        self._integrals.clear()
        self._interned.clear()
        self._values.clear()

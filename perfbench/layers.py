"""Call counts and self times of `ordembed` functions, measured from outside.

`Tracer.install` replaces each traced function by a wrapper in every
`ordembed` module that holds a reference to it, and each traced method on
its class. The wrappers keep counts and times in memory only. A call's self
time is its duration minus the time spent in the traced calls it made.
"""

from __future__ import annotations

import sys
import time

# Traced functions, as "<module>.<qualified name>" under the `ordembed` package.
TARGETS = (
    "cli.run_report",
    "reports.canonical_json",
    "reports.analyze_doc",
    "reports.minimize_chain_doc",
    "criteria.centre_of",
    "criteria.classical_quotient",
    "criteria.centre_criterion",
    "criteria.embeddability_report",
    "embeddings.load_embedding",
    "embeddings.build_embedding",
    "embeddings.minimal_primes",
    "embeddings.classify",
    "embeddings.minimize_to_elementary",
    "embeddings.minimize_step",
    "embeddings.reduce_redundant",
    "embeddings.bimodule_ladder",
    "embeddings.verify_morphism",
    "wedderburn.radical",
    "wedderburn.decompose",
    "wedderburn.resolve_split_status",
    "wedderburn.operator_algebra",
    "wedderburn.commutant_matrices",
    "wedderburn.certify_simple_module",
    "wedderburn.isotypic_split",
    "wedderburn.spanned_algebra",
    "wedderburn.restrict_op",
    "algebra.load_algebra",
    "algebra.load_order",
    "algebra.build_algebra",
    "algebra.build_order",
    "algebra.build_ideal",
    "algebra.induced_algebra",
    "algebra.centre",
    "algebra.StructureAlgebra.mul",
    "algebra.StructureAlgebra.left_mult_op",
    "algebra.StructureAlgebra.minimal_polynomial",
    "linalg.MatQ.__mul__",
    "linalg.kron",
    "linalg.rref",
    "linalg.kernel",
    "linalg.inverse",
    "linalg.solve_row",
    "linalg.hnf",
    "linalg.int_kernel",
    "linalg.lattice_intersect_subspace",
    "linalg.Lattice.from_rows",
    "linalg.Lattice.coords_of",
    "linalg.Subspace.from_rows",
    "linalg.Subspace.intersect",
    "exact.factor_rational_poly",
    "hilbert.ramified_places",
)


class Tracer:
    """Counts calls and accumulates self time of the TARGETS."""

    def __init__(self) -> None:
        self.calls = {t: 0 for t in TARGETS}
        self.self_s = {t: 0.0 for t in TARGETS}
        self._child_time = [0.0]  # time of traced children, per open call

    def _wrap(self, name: str, fn):
        calls, self_s, stack = self.calls, self.self_s, self._child_time
        clock = time.perf_counter

        def traced(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                children = stack.pop()
                stack[-1] += elapsed
                calls[name] += 1
                self_s[name] += elapsed - children

        return traced

    def install(self) -> None:
        modules = [m for key, m in sys.modules.items()
                   if key == "ordembed" or key.startswith("ordembed.")]
        for target in TARGETS:
            mod_name, _, qual = target.partition(".")
            mod = sys.modules[f"ordembed.{mod_name}"]
            owner_name, _, attr = qual.rpartition(".")
            if owner_name:
                cls = getattr(mod, owner_name)
                raw = cls.__dict__[attr]
                if isinstance(raw, staticmethod):
                    setattr(cls, attr, staticmethod(self._wrap(target, raw.__func__)))
                else:
                    setattr(cls, attr, self._wrap(target, raw))
                continue
            orig = getattr(mod, attr)
            wrapper = self._wrap(target, orig)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is orig:
                        setattr(m, key, wrapper)

    def snapshot(self) -> tuple[dict, dict]:
        return dict(self.calls), dict(self.self_s)

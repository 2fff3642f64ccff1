"""Outside-in tracing of fusionring, installed from the benchmark's side.

`Tracer.install()` wraps each function in `TRACED` and rebinds the wrapper
at every module-namespace binding of the original object inside the
`fusionring` package (e.g. `min_poly` is bound in fpengine, regular and cli),
so intra-module calls are traced too.  Methods in `TRACED_METHODS` are
wrapped on their class.  No source file changes.

A span is (name, start, end, parent span, job id); spans stay in memory
until the process reports them.  Self time is a span's duration minus the
durations of its direct children (one thread, so children never overlap).
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

# (module, function) pairs; the span name is "<module>.<function>"
TRACED = (
    ("cli", "run_command"),
    ("fileformat", "parse_fusion_file"),
    ("core", "multiply"),
    ("core", "unit_decomposition"),
    ("validate", "check_structural"),
    ("validate", "check_eps_consistency"),
    ("validate", "check_transitivity"),
    ("validate", "search_idempotents_above_unit"),
    ("fpengine", "left_mult_matrix"),
    ("fpengine", "left_mult_matrix_from_coeffs"),
    ("fpengine", "char_poly"),
    ("fpengine", "isolate_max_real_root"),
    ("fpengine", "refine"),
    ("fpengine", "min_poly"),
    ("fpengine", "_is_transitive"),
    ("fpengine", "fpdim_element"),
    ("fpengine", "algebraic_equal"),
    ("fpengine", "exact_mul"),
    ("fpengine", "mul_algebraic"),
    ("fpengine", "exact_cmp"),
    ("fpengine", "reciprocal"),
    ("poly", "sturm_chain"),
    ("poly", "count_real_roots"),
    ("factor", "factor_squarefree_rational"),
    ("factor", "rational_roots_between"),
    ("regular", "regular_element"),
    ("regular", "fpdim_category"),
    ("regular", "verify_regular_eigenproperty"),
    ("regular", "certify_integrality"),
    ("morphisms", "check_homomorphism"),
    ("morphisms", "verify_fpdim_transport"),
    ("morphisms", "check_adjoint_matrix"),
    ("morphisms", "morita_ratio_equal"),
    ("galois", "galois_trivial_subring"),
    ("galois", "center_fpdim_prediction"),
)
TRACED_METHODS = (("poly", "RationalPolynomial", "squarefree_part"),)

# functions whose first argument is recorded, to count distinct inputs
KEYED = frozenset({"poly.sturm_chain"})
# functools.lru_cache functions whose cache_info() is reported
CACHED = (("fpengine", "min_poly"), ("fpengine", "_is_transitive"))


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent, job]
        self.stack: list[int] = []
        self.job: str = ""
        self.enabled = False
        self.keys: dict[str, set] = defaultdict(set)
        self._originals: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn):
        """`fn` recording one span per call while the tracer is enabled."""
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        keys = self.keys[name] if name in KEYED else None
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            if keys is not None:
                keys.add(args[0])
            rec = [name, clock(), 0.0, stack[-1] if stack else -1, tracer.job]
            stack.append(len(spans))
            spans.append(rec)
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        modules = [
            m for n, m in list(sys.modules.items()) if n.partition(".")[0] == "fusionring"
        ]
        for mod_name, attr in TRACED:
            original = getattr(sys.modules[f"fusionring.{mod_name}"], attr)
            wrapper = self.wrap(f"{mod_name}.{attr}", original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._originals.append((mod, key, original))
                        setattr(mod, key, wrapper)
        for mod_name, cls_name, attr in TRACED_METHODS:
            cls = getattr(sys.modules[f"fusionring.{mod_name}"], cls_name)
            original = cls.__dict__[attr]
            self._originals.append((cls, attr, original))
            setattr(cls, attr, self.wrap(f"{mod_name}.{cls_name}.{attr}", original))
        self.enabled = True

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._originals):
            setattr(owner, key, original)
        self._originals.clear()
        self.enabled = False

    def summary(self) -> dict[str, dict[str, dict[str, float]]]:
        """Per job, per span name: calls, total seconds and self seconds."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, dict[str, dict[str, float]]] = {}
        for i, (name, start, end, _, job) in enumerate(self.spans):
            agg = out.setdefault(job, {}).setdefault(
                name, {"calls": 0, "total_s": 0.0, "self_s": 0.0}
            )
            agg["calls"] += 1
            agg["total_s"] += end - start
            agg["self_s"] += end - start - child_time[i]
        return out


def cache_counts() -> dict[str, dict[str, int]]:
    """Hits and misses of the memo caches named in CACHED, read from the
    unwrapped lru_cache objects."""
    out = {}
    for mod_name, attr in CACHED:
        fn = getattr(sys.modules[f"fusionring.{mod_name}"], attr)
        while not hasattr(fn, "cache_info"):
            fn = fn.__wrapped__
        info = fn.cache_info()
        out[f"{mod_name}.{attr}"] = {"hits": info.hits, "misses": info.misses}
    return out

"""Spans around the public functions of vlplus, recorded from outside.

A Tracer replaces every binding of each traced function, in every vlplus
module that holds one (``from .lattice import coset_element`` makes a
separate binding in each importing module), with a wrapper that records
a span: name, start, end, parent span and op id.  Methods are patched on
their class.  Functions called about 10^5 times per op are leaves; their
calls are counted and timed in aggregate under the enclosing span, with
no span per call.  Self time (a span's time minus its children's) is
summed per layer as calls return; the spans themselves stay in memory
and are written out by the runner at the end.

Install a Tracer only in a forked child: it patches modules in place.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

# (module, attribute, layer, kind); kind is "span", "hot" (aggregated leaf)
# or "lru" (a span that also counts functools cache hits).  A layer is
# reported as <layer>_s (self time) and <layer>_calls.
TRACED = [
    ("vlplus.lattice", "enumerate_coset_with_norms", "lattice.enumerate", "span"),
    ("vlplus.lattice", "coset_element", "lattice.canonicalize", "span"),
    ("vlplus.lattice", "coset_reps_mod_sublattice", "lattice.sublattice_classes", "span"),
    ("vlplus.lattice", "minimal_coset_reps", "lattice.discriminant", "lru"),
    ("vlplus.lattice", "discriminant_group", "lattice.discriminant", "lru"),
    ("vlplus.sectors", "classify_modules", "sectors.census", "lru"),
    ("vlplus.qseries", "euler_product_inv", "qseries.euler", "lru"),
    ("vlplus.qseries", "theta_coset", "qseries.theta", "lru"),
    ("vlplus.qseries", "character", "qseries.character", "lru"),
    ("vlplus.qseries", "QSeries.__mul__", "qseries.mul", "span"),
    ("vlplus.fusion", "rank1_fusion", "fusion.rank1", "hot"),
    ("vlplus.fusion", "tensor_fusion", "fusion.tensor", "hot"),
    ("vlplus.fusion", "admissible_triple", "fusion.admissible", "hot"),
    ("vlplus.branching", "branch_sublattice", "branching.sublattice", "span"),
    ("vlplus.branching", "branch_orthogonal", "branching.orthogonal", "span"),
    ("vlplus.branching", "verify_branch", "branching.verify", "span"),
    ("vlplus.certify", "weight_gap_rule", "certify.rule.weight_gap", "hot"),
    ("vlplus.certify", "vacuum_rule", "certify.rule.vacuum", "span"),
    ("vlplus.certify", "duality_rule", "certify.rule.duality", "span"),
    ("vlplus.certify", "fusion_obstruction_rule", "certify.rule.fusion", "span"),
    ("vlplus.certify", "verify_certificate", "certify.verify", "span"),
    ("vlplus.certify", "ExtCertificate.dumps", "certify.dumps", "span"),
    ("vlplus.cli", "main", "cli", "span"),
] + [
    ("vlplus.intmat", name, "intmat", "span")
    for name in ("identity", "mat_mul", "det_int", "leading_minors", "rational_inverse",
                 "snf", "ldl", "gf2_nullspace")
]


def _counted_work(layer: str, result, counts) -> None:
    """Work counted from a call's arguments and result."""
    if layer == "lattice.enumerate":
        counts["lattice.vectors"] += len(result)
    elif layer == "lattice.sublattice_classes":
        counts["lattice.sublattice_classes"] += len(result)
    elif layer == "sectors.census":
        counts["sectors.labels"] += len(result)
    elif layer in ("branching.sublattice", "branching.orthogonal"):
        counts[layer + "_parts"] += len(result.parts)
    elif layer == "certify.dumps":
        counts["certify.certificate_bytes"] += len(result.encode())
    elif layer == "certify.rule.fusion_orthogonal" and result is not None:
        counts["certify.rule.fusion_orthogonal_applied"] += 1


class Tracer:
    def __init__(self, op_id: str, clock=time.perf_counter):
        self.op_id = op_id
        self.clock = clock  # a clock that can leave out time the runner spends itself
        self.times: dict[str, float] = defaultdict(float)   # layer -> self seconds
        self.counts: dict[str, int] = defaultdict(int)      # layer_calls and counted work
        self.spans: list[tuple] = []    # (name, start, end, parent index, op id)
        self.aggregates: dict[tuple, list] = {}  # (parent index, layer) -> [calls, seconds]
        self._stack: list[list] = []    # [span index, child seconds]

    # -- recording ---------------------------------------------------------

    def _span(self, layer, fn, lru, args, kwargs):
        if layer == "certify.rule.fusion":
            route = kwargs.get("route", args[3] if len(args) > 3 else None)
            layer = f"certify.rule.fusion_{route}"
        hits = lru.cache_info().hits if lru is not None else 0
        parent = self._stack[-1][0] if self._stack else -1
        index = len(self.spans)
        self.spans.append(None)
        frame = [index, 0.0]
        self._stack.append(frame)
        start = self.clock()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = self.clock()
            self._stack.pop()
            self.spans[index] = (layer, start, end, parent, self.op_id)
            self.times[layer] += (end - start) - frame[1]
            self.counts[layer + "_calls"] += 1
            if self._stack:
                self._stack[-1][1] += end - start
        if lru is not None and lru.cache_info().hits > hits:
            self.counts[layer + "_hits"] += 1
        _counted_work(layer, result, self.counts)
        return result

    def _hot(self, layer, fn, args, kwargs):
        start = self.clock()
        result = fn(*args, **kwargs)
        elapsed = self.clock() - start
        self.times[layer] += elapsed
        self.counts[layer + "_calls"] += 1
        if self._stack:
            frame = self._stack[-1]
            frame[1] += elapsed
            agg = self.aggregates.setdefault((frame[0], layer), [0, 0.0])
        else:
            agg = self.aggregates.setdefault((-1, layer), [0, 0.0])
        agg[0] += 1
        agg[1] += elapsed
        return result

    def _wrapper(self, layer, fn, kind):
        if kind == "hot":
            def traced(*args, **kwargs):
                return self._hot(layer, fn, args, kwargs)
        else:
            lru = fn if kind == "lru" else None

            def traced(*args, **kwargs):
                return self._span(layer, fn, lru, args, kwargs)
        traced.__wrapped__ = fn
        return traced

    # -- patching ----------------------------------------------------------

    def install(self) -> None:
        """Wrap every traced function in every vlplus module that binds it."""
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == "vlplus" or name.startswith("vlplus."))]
        for modname, attr, layer, kind in TRACED:
            home = sys.modules[modname]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(home, cls_name)
                setattr(cls, meth, self._wrapper(layer, getattr(cls, meth), kind))
                continue
            original = getattr(home, attr)
            wrapper = self._wrapper(layer, original, kind)
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, name, wrapper)

    def export_spans(self) -> dict:
        return {
            "spans": self.spans,
            "aggregates": [[p, layer, n, t] for (p, layer), (n, t) in self.aggregates.items()],
        }

"""Per-layer spans recorded from outside the library.

`Tracer.install` replaces each target below with a wrapper, at every name a
caller resolves: a module-level function is replaced in every loaded udeform
module that holds it (so `cli.cobar_h2` and `cobar.h2` are both wrapped), a
method on its class.  No library file changes.

A wrapper records a span (name, start, end, parent span) and, for a few
targets, attributes measured at the same boundary.  Targets marked `leaf`
never call another target and run up to millions of times per job; their
spans are rolled up per (name, parent span) into a call count and busy time,
which keeps memory flat while self time stays exact.  Spans stay in memory
until the job ends and are handed to the benchmark driver, which writes them
out when the run ends and derives the per-layer metrics from them with
`layer_metrics`.
"""

from __future__ import annotations

import sys
import time

import oracles

# (span name, module, qualified name, leaf)
TARGETS = [
    ("cli.validate_jobspec", "udeform.cli", "validate_jobspec", False),
    ("linalg.echelon_add", "udeform.linalg", "Echelon.add", True),
    ("linalg.forward_span_add", "udeform.linalg", "ForwardSpan.add", True),
    ("linalg.kernel_basis", "udeform.linalg", "kernel_basis", False),
    ("linalg.quotient_representatives", "udeform.linalg",
     "quotient_representatives", False),
    ("linalg.solve", "udeform.linalg", "solve", False),
    ("cobar.complex_build", "udeform.cobar", "CobarComplex.__init__", False),
    ("cobar.h2", "udeform.cobar", "h2", False),
    ("cobar.twi_direct", "udeform.cobar", "twi_direct", False),
    ("cobar.gauge_equivalent", "udeform.cobar", "gauge_equivalent", False),
    ("cobar.embed_reduced", "udeform.cobar", "embed_reduced", False),
    ("bialgebra.construct", "udeform.bialgebra", "construct_bialgebra", False),
    ("bialgebra.coproduct_key", "udeform.bialgebra", "Bialgebra.coproduct_key", True),
    ("bialgebra.apply_coproduct", "udeform.bialgebra",
     "TensorElement.apply_coproduct", False),
    ("bialgebra.product_single", "udeform.bialgebra", "Bialgebra.product_single", True),
    ("bialgebra.tensor_mul", "udeform.bialgebra", "TensorElement.__mul__", False),
    ("kernel.series_mul", "udeform.kernel", "TruncSeries.__mul__", False),
    ("kernel.series_exp", "udeform.kernel", "TruncSeries.exp", False),
    ("twist.make_exp_udf", "udeform.twist", "make_exp_udf", False),
    ("twist.check_twisting", "udeform.twist", "check_twisting", False),
    ("operad.circ_B", "udeform.operad", "circ_B", False),
    ("operad.checks", "udeform.operad", "check_assoc_cases", False),
    ("operad.checks", "udeform.operad", "check_unit", False),
    ("operad.checks", "udeform.operad", "check_equivariance", False),
    ("deform.star", "udeform.deform", "StarProduct.star", False),
    ("deform.derivation_apply", "udeform.deform", "Derivation.apply", True),
    ("deform.check_associativity", "udeform.deform", "check_associativity", False),
    ("deform.hochschild_coboundary", "udeform.deform",
     "is_hochschild_coboundary", False),
    ("generalized.pass_build", "udeform.generalized",
     "FreePAssAlgebra._build_count", False),
    ("generalized.ternary_product", "udeform.generalized",
     "TwistedTernaryProduct.product", False),
    ("generalized.check_partial_assoc", "udeform.generalized",
     "check_partial_assoc", False),
    ("generalized.diagram", "udeform.generalized", "diagram_compat_check", False),
    ("generalized.diagram", "udeform.generalized", "diagram_twist_check", False),
    ("generalized.diagram", "udeform.generalized", "morphism_image_check", False),
]

ROOT = "cli.run"


def _kernel_cols(tracer, args, kwargs, result):
    return {"cols": kwargs.get("ncols", args[1] if len(args) > 1 else 0)}


def _block_pairs(tracer, args, kwargs, result):
    blocks = args[0].blocks.values()
    return {"max_pairs": max((len(b["pairs"]) for b in blocks), default=0)}


def _keep_bialgebra(tracer, args, kwargs, result):
    tracer.bialgebras.append(result)
    return None


def _terms_out(tracer, args, kwargs, result):
    return {"terms_out": len(result.terms)}


def _triples(tracer, args, kwargs, result):
    count = oracles.triple_count({"checks": [result.to_json()]})
    return None if count is None else {"triples": count}


def _pivot(result):
    return 0 if result is None else 1


# Attributes read at a span's boundary: span name -> observer.
OBSERVERS = {
    "linalg.kernel_basis": _kernel_cols,
    "cobar.complex_build": _block_pairs,
    "bialgebra.construct": _keep_bialgebra,
    "bialgebra.tensor_mul": _terms_out,
    "deform.check_associativity": _triples,
}

# Counted outcomes of leaf calls: span name -> 0/1 per call.
LEAF_OUTCOMES = {"linalg.echelon_add": _pivot}


class Tracer:
    """Spans of one job: full spans for most targets, rollups for leaves."""

    def __init__(self):
        self.names = []
        self.name_index = {}
        self.spans = []      # [name id, start ns, end ns, parent, attrs]
        self.rollups = {}    # (name id, parent) -> [calls, busy ns, outcomes]
        self.stack = [-1]
        self.bialgebras = []

    def _name(self, name):
        if name not in self.name_index:
            self.name_index[name] = len(self.names)
            self.names.append(name)
        return self.name_index[name]

    def span_wrapper(self, name, fn):
        nid = self._name(name)
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns
        observe = OBSERVERS.get(name)

        def wrapper(*args, **kwargs):
            span = [nid, 0, 0, stack[-1], None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if observe is not None:
                span[4] = observe(self, args, kwargs, result)
            return result

        return wrapper

    def leaf_wrapper(self, name, fn):
        nid = self._name(name)
        rollups, stack, clock = self.rollups, self.stack, time.perf_counter_ns
        outcome = LEAF_OUTCOMES.get(name)

        def wrapper(*args, **kwargs):
            result = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                busy = clock() - start
                key = (nid, stack[-1])
                row = rollups.get(key)
                if row is None:
                    row = rollups[key] = [0, 0, 0]
                row[0] += 1
                row[1] += busy
                if outcome is not None:
                    row[2] += outcome(result)

        return wrapper

    def install(self):
        """Wrap every target at each name its callers resolve."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "udeform" or n.startswith("udeform.")]
        for name, module, qualname, leaf in TARGETS:
            owner = sys.modules[module]
            *outer, attr = qualname.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = owner.__dict__[attr]
            make = self.leaf_wrapper if leaf else self.span_wrapper
            wrapped = make(name, original)
            if outer:
                setattr(owner, attr, wrapped)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)

    def run(self, fn, *args):
        """Call fn under the root span of the job; return its result."""
        result = self.span_wrapper(ROOT, fn)(*args)
        root = self.spans[0]
        root[4] = {
            "coproduct_cache_entries": sum(len(B._coproduct_cache)
                                           for B in self.bialgebras),
            "product_cache_entries": sum(len(B._product_cache)
                                         for B in self.bialgebras),
        }
        return result

    def to_json(self):
        return {
            "names": self.names,
            "spans": self.spans,
            "rollups": [[nid, parent] + row
                        for (nid, parent), row in self.rollups.items()],
        }


# ---------------------------------------------------------------------------
# metrics from spans (driver side)
# ---------------------------------------------------------------------------

class LayerTotals:
    """Calls, self time and attributes per span name, summed over jobs."""

    def __init__(self):
        self.calls = {}
        self.self_ns = {}
        self.outcomes = {}
        self.attr_sum = {}
        self.attr_max = {}

    def _add(self, table, name, value):
        table[name] = table.get(name, 0) + value

    def add_job(self, trace):
        names, spans = trace["names"], trace["spans"]
        child_ns = [0] * len(spans)
        for nid, start, end, parent, attrs in spans:
            if parent >= 0:
                child_ns[parent] += end - start
        for nid, parent, calls, busy, outcomes in trace["rollups"]:
            name = names[nid]
            if parent >= 0:
                child_ns[parent] += busy
            self._add(self.calls, name, calls)
            self._add(self.self_ns, name, busy)
            self._add(self.outcomes, name, outcomes)
        for i, (nid, start, end, parent, attrs) in enumerate(spans):
            name = names[nid]
            self._add(self.calls, name, 1)
            self._add(self.self_ns, name, end - start - child_ns[i])
            for key, value in (attrs or {}).items():
                self._add(self.attr_sum, (name, key), value)
                prev = self.attr_max.get((name, key), value)
                self.attr_max[(name, key)] = max(prev, value)

    def count(self, name):
        return self.calls.get(name, 0)

    def self_s(self, name):
        return self.self_ns.get(name, 0) / 1e9


def _ratio(part, whole):
    return part / whole if whole else 0.0


def layer_metrics(totals):
    """The per-layer metrics of BENCHMARK.json, as name -> (value, unit)."""
    t = totals
    out = {}

    def put(name, value, unit):
        out[name] = (value, unit)

    for name in ("linalg.echelon_add", "linalg.kernel_basis",
                 "linalg.forward_span_add", "cobar.h2",
                 "bialgebra.coproduct_key", "bialgebra.apply_coproduct",
                 "bialgebra.product_single", "bialgebra.tensor_mul",
                 "kernel.series_mul", "operad.circ_B", "deform.star",
                 "deform.derivation_apply", "generalized.ternary_product"):
        put(name + ".calls", t.count(name), "count")
    for name in ("linalg.echelon_add", "linalg.kernel_basis",
                 "linalg.quotient_representatives", "linalg.solve",
                 "linalg.forward_span_add", "cobar.complex_build", "cobar.h2",
                 "cobar.twi_direct", "cobar.gauge_equivalent",
                 "cobar.embed_reduced", "bialgebra.construct",
                 "bialgebra.coproduct_key", "bialgebra.apply_coproduct",
                 "bialgebra.product_single", "bialgebra.tensor_mul",
                 "kernel.series_mul", "kernel.series_exp", "twist.make_exp_udf",
                 "twist.check_twisting", "operad.circ_B", "operad.checks",
                 "deform.star", "deform.derivation_apply",
                 "deform.hochschild_coboundary", "generalized.pass_build",
                 "generalized.ternary_product",
                 "generalized.check_partial_assoc", "generalized.diagram",
                 "cli.validate_jobspec"):
        put(name + ".self_s", t.self_s(name), "s")

    echelon = "linalg.echelon_add"
    put(echelon + ".useful_ratio",
        _ratio(t.outcomes.get(echelon, 0), t.count(echelon)), "ratio")
    put("linalg.kernel_basis.max_cols",
        t.attr_max.get(("linalg.kernel_basis", "cols"), 0), "count")
    put("cobar.block_pairs.max",
        t.attr_max.get(("cobar.complex_build", "max_pairs"), 0), "count")
    for name, cache in (("bialgebra.coproduct_key", "coproduct_cache_entries"),
                        ("bialgebra.product_single", "product_cache_entries")):
        calls = t.count(name)
        misses = t.attr_sum.get((ROOT, cache), 0)
        put(name + ".hit_ratio", _ratio(calls - misses, calls), "ratio")
    put("bialgebra.tensor_mul.terms_out",
        t.attr_sum.get(("bialgebra.tensor_mul", "terms_out"), 0), "count")
    put("deform.check_associativity.triples",
        t.attr_sum.get(("deform.check_associativity", "triples"), 0), "count")
    return out

"""Spans and counts at the program's layer boundaries, for the traced run.

`Tracer.install()` wraps the named public functions below and rebinds each
wrapper under every name that holds the original in a `toposlang` module
namespace (for example `powerset_algebra` lives in both `heyting` and
`prop.semantics`).  A span is (name, start, end, parent index, operation id);
spans stay in memory and are written out when the run ends.  Self time is a
span's duration minus the time its direct child spans cover.  The program
itself carries no tracing code.
"""
from __future__ import annotations

import importlib
import json
import sys
import time
from collections import defaultdict


def _pow2_incoming(args, result, missed):
    cat, obj = args[0], args[1]
    return {"category.sieve_subsets": 1 << len(cat.into(obj)),
            "category.sieves_kept": len(result)}


def _sub_candidates(args, result, missed):
    x = args[0]
    total = 1
    for obj in x.base.objects:
        total <<= len(x.stage(obj))
    return {"presheaf.subobject_candidates": total,
            "presheaf.subobjects_kept": len(result)}


def _exp_elements(args, result, missed):
    """Stage elements of an exponential actually built (not a cache hit)."""
    if not missed:
        return {}
    return {"presheaf.exp_elements": sum(len(result.stage(obj)) for obj in result.base.objects)}


# (module, attribute path, span name, counter or None).  A counter maps
# (positional args, result, whether an lru_cache missed) to count increments.
SPANS = (
    ("toposlang.prop.syntax", "parse_formula", "prop.parse", None),
    ("toposlang.prop.decide", "is_provable", "prop.prove", None),
    ("toposlang.prop.decide", "find_countermodel", "prop.countermodel", None),
    ("toposlang.prop.semantics", "classical_rep", "prop.represent", None),
    ("toposlang.prop.semantics", "ClassicalRep.represent", "prop.represent", None),
    ("toposlang.prop.semantics", "truth_value", "prop.truth", None),
    ("toposlang.heyting", "powerset_algebra", "heyting.build",
     lambda a, r, m: {"heyting.elements": len(r)}),
    ("toposlang.heyting", "lower_set_algebra", "heyting.build",
     lambda a, r, m: {"heyting.elements": len(r)}),
    ("toposlang.category", "sieve_heyting", "heyting.build",
     lambda a, r, m: {"heyting.elements": len(r)}),
    ("toposlang.presheaf", "sub_heyting", "heyting.build",
     lambda a, r, m: {"heyting.elements": len(r.algebra)}),
    ("toposlang.category", "sieves_on", "category.sieves", _pow2_incoming),
    ("toposlang.presheaf", "classifier_kit", "presheaf.classifier", None),
    ("toposlang.presheaf", "enumerate_subobjects", "presheaf.subobjects", _sub_candidates),
    ("toposlang.presheaf", "enumerate_nats", "presheaf.nats",
     lambda a, r, m: {"presheaf.nats_found": len(r)}),
    ("toposlang.presheaf", "exponential", "presheaf.exponential", _exp_elements),
    ("toposlang.presheaf", "exp_transpose", "presheaf.transpose", None),
    ("toposlang.rep", "build_rep", "rep.build", None),
    ("toposlang.rep", "EffectiveClassicalRep.build", "rep.build", None),
    ("toposlang.rep", "prop_family", "rep.prop_family", None),
    ("toposlang.rep", "interpret_term", "rep.interpret_term", None),
    ("toposlang.rep", "validate_axioms", "rep.validate_axioms", None),
    ("toposlang.local.check", "infer_type", "local.typecheck", None),
    ("toposlang.project", "load_project", "project.load", None),
    ("toposlang.project", "validate_schema", "project.schema", None),
    ("toposlang.project", "build_project", "project.build", None),
    ("toposlang.cli", "main", "cli.main", None),
)

# Functions called too often for a span each: only their calls are counted.
COUNTED = (
    ("toposlang.prop.kripke", "KripkeModel.counterexample_world", "prop.models_tried"),
)

# Per-layer metrics: (name, unit, better, workloads it must be seen on).
# `_ms` is self time summed over the run; a bare noun is an exact count.
LAYER_METRICS = (
    ("prop.parse_ms", "ms", "lower", ("decide",)),
    ("prop.prove_ms", "ms", "lower", ("decide",)),
    ("prop.countermodel_ms", "ms", "lower", ("decide",)),
    ("prop.models_tried", "count", "lower", ("decide",)),
    ("prop.represent_ms", "ms", "lower", ("classical",)),
    ("prop.truth_ms", "ms", "lower", ("classical",)),
    ("heyting.build_ms", "ms", "lower", ("classical", "topos")),
    ("heyting.elements", "count", "lower", ("classical", "topos")),
    ("category.sieves_ms", "ms", "lower", ("topos",)),
    ("category.sieve_subsets", "count", "lower", ("topos",)),
    ("category.sieves_kept", "count", "higher", ("topos",)),
    ("presheaf.classifier_ms", "ms", "lower", ("topos",)),
    ("presheaf.subobjects_ms", "ms", "lower", ("topos",)),
    ("presheaf.subobject_candidates", "count", "lower", ("topos",)),
    ("presheaf.subobjects_kept", "count", "higher", ("topos",)),
    ("presheaf.nats_ms", "ms", "lower", ("topos",)),
    ("presheaf.nats_found", "count", "higher", ("topos",)),
    ("presheaf.exponential_ms", "ms", "lower", ("classical", "topos")),
    ("presheaf.exp_elements", "count", "lower", ("classical", "topos")),
    ("presheaf.transpose_ms", "ms", "lower", ("classical", "topos")),
    ("rep.build_ms", "ms", "lower", ("classical",)),
    ("rep.prop_family_ms", "ms", "lower", ("classical",)),
    ("rep.interpret_term_ms", "ms", "lower", ("topos",)),
    ("rep.validate_axioms_ms", "ms", "lower", ("topos",)),
    ("local.typecheck_ms", "ms", "lower", ("topos",)),
    ("cli.interpreter_ms", "ms", "lower", ("cli",)),
    ("cli.import_ms", "ms", "lower", ("cli",)),
    ("project.schema_ms", "ms", "lower", ("cli",)),
    ("project.build_ms", "ms", "lower", ("cli",)),
    ("cli.command_ms", "ms", "lower", ("cli",)),
    ("trace.ops_per_s_traced", "1/s", "higher", ("decide", "classical", "topos", "cli")),
    ("trace.ops_per_s_untraced", "1/s", "higher", ("decide", "classical", "topos", "cli")),
)


def _resolve(module_name: str, path: str):
    owner = importlib.import_module(module_name)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.counts: dict = defaultdict(int)
        self.op = -1
        self._stack: list = []
        self._undo: list = []

    # -- wrapping ------------------------------------------------------------

    def _span_wrapper(self, fn, name, counter):
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter
        is_cached = hasattr(fn, "cache_info")

        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            misses = fn.cache_info().misses if is_cached else 0
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, self.op)
            if counter is not None:
                missed = is_cached and fn.cache_info().misses > misses
                for key, n in counter(args, result, missed).items():
                    counts[key] += n
            return result

        return wrapper

    def _count_wrapper(self, fn, key):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _rebind(self, module_name, path, make):
        owner, attr = _resolve(module_name, path)
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        if isinstance(owner, type):
            if isinstance(raw, staticmethod):
                new = staticmethod(make(raw.__func__))
            else:
                new = make(raw)
            setattr(owner, attr, new)
            self._undo.append((owner, attr, raw))
            return
        new = make(raw)
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "toposlang" or name.startswith("toposlang.")):
                continue
            for key, value in list(vars(module).items()):
                if value is raw:
                    setattr(module, key, new)
                    self._undo.append((module, key, raw))

    def install(self) -> None:
        for module_name, path, name, counter in SPANS:
            self._rebind(module_name, path,
                         lambda fn, n=name, c=counter: self._span_wrapper(fn, n, c))
        for module_name, path, key in COUNTED:
            self._rebind(module_name, path, lambda fn, k=key: self._count_wrapper(fn, k))

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._undo):
            setattr(owner, attr, raw)
        self._undo.clear()

    # -- merging and summaries -------------------------------------------------

    def absorb(self, spans, counts, op) -> None:
        """Add the spans and counts a traced child process recorded."""
        base = len(self.spans)
        for name, start, end, parent, _ in spans:
            self.spans.append((name, start, end, parent + base if parent >= 0 else -1, op))
        for key, n in counts.items():
            self.counts[key] += n

    def self_ms(self) -> dict:
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict = defaultdict(float)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            out[name] += (end - start - child[i]) * 1000.0
        return out

    def total_ms(self, name: str) -> float:
        return sum((end - start) * 1000.0 for n, start, end, _, _ in self.spans if n == name)

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for name, start, end, parent, op in self.spans:
                handle.write(json.dumps({"name": name, "start": start, "end": end,
                                         "parent": parent, "op": op}) + "\n")

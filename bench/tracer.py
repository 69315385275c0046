"""Spans and counters wrapped around powercrit from outside the package.

Nothing under ``src/`` knows about this module.  :func:`install` replaces
functions and methods at the names their callers look them up by:

* a module-level function is rebound in every ``powercrit`` module that
  imported it (``powercrit.report.cyclic_partition`` and
  ``powercrit.partitions.cyclic_partition`` get the same wrapper);
* a method is replaced on the class that defines it, which covers every
  caller, e.g. ``PowerGraph.__init__`` for each ``PowerGraph(...)`` call
  in ``frobenius``, ``verify``, ``cli`` and ``report``.

Two modes, each used in its own pass because they distort each other:

``spans``
    Layer-boundary functions get a span: calls, total time and self time
    (total minus the time of spans nested inside it), aggregated per
    (caller span, span) pair.  Per-element primitives are never spanned.
``counts``
    Per-multiplication and per-element methods get counters (``mul``
    calls, ``scan`` calls and elements yielded), and every graph build is
    counted and sized.  No spans run, so no span pays for the counters.
"""

from __future__ import annotations

import functools
import itertools
import sys
import time
from collections import defaultdict

# Span name -> (module, attribute path).  The span name is the layer
# (the module's short name) and the operation.
SPANS = {
    "cli.main": ("powercrit.cli", "main"),
    "groupspec.parse_group_spec": ("powercrit.groupspec", "parse_group_spec"),
    "groups.maximal_cyclic_subgroups": ("powercrit.groups", "maximal_cyclic_subgroups"),
    "groups.is_maximal_element": ("powercrit.groups", "is_maximal_element"),
    "groups.exponent_and_pi": ("powercrit.groups", "exponent_and_pi"),
    "power_graph.build": ("powercrit.power_graph", "PowerGraph.__init__"),
    "power_graph.twin_partition": ("powercrit.power_graph", "PowerGraph.twin_partition"),
    "power_graph.diamond_partition": ("powercrit.power_graph", "PowerGraph.diamond_partition"),
    "power_graph.star_vertices": ("powercrit.power_graph", "PowerGraph.star_vertices"),
    "power_graph.closure": ("powercrit.power_graph", "PowerGraph.closure"),
    "power_graph.closed_neighborhood": ("powercrit.power_graph", "PowerGraph.closed_neighborhood"),
    "power_graph.element_n_class": ("powercrit.power_graph", "PowerGraph.element_n_class"),
    "power_graph.enhanced_rows": ("powercrit.power_graph", "PowerGraph.enhanced_rows"),
    "criticality.classify_class": ("powercrit.criticality", "classify_class"),
    "criticality.classify_element": ("powercrit.criticality", "classify_element"),
    "criticality.class_records": ("powercrit.criticality", "class_records"),
    "criticality.classify_group": ("powercrit.criticality", "classify_group"),
    "criticality.plain_critical_by_overgroups": (
        "powercrit.criticality",
        "plain_critical_by_overgroups",
    ),
    "partitions.cyclic_partition": ("powercrit.partitions", "cyclic_partition"),
    "partitions.hughes_thompson": ("powercrit.partitions", "hughes_thompson"),
    "frobenius.census": ("powercrit.frobenius", "census"),
    "frobenius.recognize_critical_structure": ("powercrit.frobenius", "recognize_critical_structure"),
    "report.analyze_group": ("powercrit.report", "analyze_group"),
    "report.element_report": ("powercrit.report", "element_report"),
    "report.validate_document": ("powercrit.report", "validate_document"),
    "verify.builtin_family": ("powercrit.verify", "builtin_family"),
    "verify.suite_closure": ("powercrit.verify", "suite_closure"),
    "verify.suite_criticality": ("powercrit.verify", "suite_criticality"),
    "verify.suite_partitions": ("powercrit.verify", "suite_partitions"),
    "verify.suite_theorems": ("powercrit.verify", "suite_theorems"),
}


class SpanRecorder:
    """Nested spans aggregated per (caller, span) pair, kept in memory."""

    def __init__(self):
        self.stack: list[list] = []
        # (caller, span) -> [calls, total_s, self_s]; caller "" is the root
        self.edges: dict[tuple[str, str], list] = defaultdict(lambda: [0, 0.0, 0.0])

    def wrap(self, name: str, fn):
        stack, edges, clock = self.stack, self.edges, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [name, clock(), 0.0]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                dur = clock() - frame[1]
                rec = edges[(stack[-1][0] if stack else "", name)]
                rec[0] += 1
                rec[1] += dur
                rec[2] += dur - frame[2]
                if stack:
                    stack[-1][2] += dur

        return traced

    def report(self) -> dict:
        return {
            "edges": [[caller, name, *rec] for (caller, name), rec in sorted(self.edges.items())],
        }


class CountRecorder:
    """Counters on per-multiplication and per-element methods, and graph sizes."""

    def __init__(self):
        self.counts: dict[str, int] = defaultdict(int)
        self.mul_calls = itertools.count()
        self.groups: set[str] = set()

    def count_mul(self, fn):
        # the leanest wrapper that counts: census makes ~39M of these calls
        tick = self.mul_calls.__next__

        @functools.wraps(fn)
        def mul(group, a, b):
            tick()
            return fn(group, a, b)

        return mul

    def count_scan(self, fn):
        counts = self.counts

        @functools.wraps(fn)
        def scan(self_, lo=0, hi=None):
            counts["groups.scans"] += 1
            n = 0
            try:
                for item in fn(self_, lo, hi):
                    n += 1
                    yield item
            finally:
                # also runs when the caller stops early and the generator closes
                counts["groups.scanned"] += n

        return scan

    def count_build(self, fn):
        counts, groups = self.counts, self.groups

        @functools.wraps(fn)
        def build(graph, *args, **kwargs):
            fn(graph, *args, **kwargs)
            counts["power_graph.builds"] += 1
            descriptor = graph.group.descriptor
            if descriptor in groups:
                return
            groups.add(descriptor)
            if graph.materialized:
                # sizes of the structures the analyses walk, once per group
                counts["groups.cyclic_subgroups"] += len(graph.diamond_partition().classes)
                counts["power_graph.twin_classes"] += len(graph.twin_partition().classes)

        return build

    def report(self) -> dict:
        counts = {**self.counts, "groups.mul_calls": next(self.mul_calls)}
        return {"counts": counts, "distinct_groups": len(self.groups)}


def _rebind(old, new) -> None:
    """Point every powercrit module's reference to `old` at `new`."""
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "powercrit" or mod_name.startswith("powercrit.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is old:
                setattr(mod, attr, new)


def install(mode: str):
    """Wrap the loaded powercrit package for one traced pass; returns the recorder."""
    import powercrit.groups as groups
    import powercrit.power_graph as power_graph

    if mode == "spans":
        rec = SpanRecorder()
        for name, (mod_name, path) in SPANS.items():
            owner = sys.modules[mod_name]
            if "." in path:
                cls_name, meth = path.split(".")
                cls = getattr(owner, cls_name)
                setattr(cls, meth, rec.wrap(name, cls.__dict__[meth]))
            else:
                fn = getattr(owner, path)
                _rebind(fn, rec.wrap(name, fn))
        return rec
    if mode == "counts":
        rec = CountRecorder()
        for cls in (groups.CayleyTableGroup, groups.PermutationGroup, groups.MetacyclicGroup):
            cls.mul = rec.count_mul(cls.__dict__["mul"])
        for cls in (groups.Group, groups.PermutationGroup):
            cls.scan = rec.count_scan(cls.__dict__["scan"])
        cls = power_graph.PowerGraph
        cls.__init__ = rec.count_build(cls.__dict__["__init__"])
        return rec
    raise ValueError(f"unknown trace mode {mode!r}")

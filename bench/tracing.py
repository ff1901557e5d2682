"""Per-layer tracing for the traced benchmark run.

Wrappers are installed from here around public functions of each opforge
module.  A name bound with ``from ... import`` lives in the importing
module's globals, so a wrapper replaces every global in every opforge
module that is bound to the original object, and methods are replaced on
their class.  Spans (name, start, end, parent) stay in memory until the
pass ends; hot calls get a counter only, to bound the tracing overhead.
"""

from __future__ import annotations

import sys
import time
from collections import Counter

# Span targets: metric prefix -> (module, attribute paths, extra stats).
# An extra stat is a function of (args, result) summed over calls.
SPANS = {
    "graphs.enumerate_graphs": ("graphs", ["enumerate_graphs"],
                                {"kept": lambda a, r: len(r)}),
    "graphs.canonical_form": ("graphs", ["canonical_form"], {}),
    "graphs.automorphisms": ("graphs", ["automorphisms"],
                             {"elements": lambda a, r: len(r)}),
    "twists.verify_isomorphism": ("twists", ["verify_isomorphism"],
                                  {"graphs": lambda a, r: r.graphs_checked}),
    "gradedlin.rank_of": ("gradedlin", ["rank_of"],
                          {"rows": lambda a, r: len(a[0])}),
    "gradedlin.coords_in_span": ("gradedlin", ["coords_in_span"],
                                 {"rows": lambda a, r: len(a[0]) + 1}),
    "gradedlin.rref": ("gradedlin", ["rref"],
                       {"cells": lambda a, r: len(a[0]) * len(a[0][0])
                        if a[0] else 0}),
    "smodules.decorate": ("smodules", ["decorate"], {}),
    "smodules.StructureInstance.average": (
        "smodules", ["StructureInstance.average"],
        {"group_elements": lambda a, r: a[0].action(a[1]).order()}),
    "transform.FreeTwisted.component": ("transform", ["FreeTwisted.component"],
                                       {}),
    "transform.FreeTwisted.project_raw": (
        "transform", ["FreeTwisted.project_raw"], {}),
    "transform.FreeTwisted.glue": (
        "transform", ["FreeTwisted.circ_st_basis", "FreeTwisted.self_basis",
                      "FreeTwisted.box_basis"], {}),
    "transform.FeynmanTransform.d": ("transform", ["FeynmanTransform.d"], {}),
    "transform.FeynmanTransform.d_edge": (
        "transform", ["FeynmanTransform.d_edge"], {}),
    "transform.FeynmanTransform.d_internal": (
        "transform", ["FeynmanTransform.d_internal"], {}),
    "brackets.project_coinvariants": ("brackets", ["project_coinvariants"], {}),
    "brackets.delta": ("brackets", ["delta"], {}),
    "brackets.boxminus": ("brackets", ["boxminus"], {}),
    "brackets.cyclic_bracket": ("brackets", ["cyclic_bracket"], {}),
    "cli.main": ("cli", ["main"], {}),
}

# Counter-only targets, for calls too frequent to carry a span.
COUNTERS = {
    "graphs.classify": ("graphs", ["classify"], {}),
    "gradedlin.GradedVector.add": (
        "gradedlin", ["GradedVector.__add__"],
        {"terms_copied": lambda a: len(a[0].terms)}),
    "gradedlin.GroupAction.apply_basis": (
        "gradedlin", ["GroupAction.apply_basis"], {}),
}

# Spans whose inclusive share is reported next to the self share.
TOTALS = ("brackets.project_coinvariants", "transform.FreeTwisted.component",
          "transform.FeynmanTransform.d", "graphs.enumerate_graphs")

# Which workload each layer moves: a traced pass of that workload that
# records zero calls means a wrapper missed its target.
MOVES = {
    "graphs.enumerate_graphs": ("graphs",),
    "graphs.classify": ("graphs",),
    "graphs.canonical_form": ("graphs", "coinvariants"),
    "graphs.automorphisms": ("graphs",),
    "twists.verify_isomorphism": ("graphs",),
    "gradedlin.rank_of": ("feynman",),
    "gradedlin.coords_in_span": ("feynman",),
    "gradedlin.rref": ("feynman",),
    "gradedlin.GradedVector.add": ("coinvariants", "feynman"),
    "gradedlin.GroupAction.apply_basis": ("coinvariants", "feynman"),
    "smodules.decorate": ("feynman",),
    "transform.FreeTwisted.component": ("feynman",),
    "transform.FreeTwisted.project_raw": ("coinvariants", "feynman"),
    "transform.FreeTwisted.glue": ("coinvariants",),
    "transform.FeynmanTransform.d": ("feynman",),
    "transform.FeynmanTransform.d_edge": ("feynman",),
    "transform.FeynmanTransform.d_internal": ("feynman",),
    "smodules.StructureInstance.average": ("coinvariants",),
    "brackets.project_coinvariants": ("coinvariants",),
    "brackets.delta": ("coinvariants",),
    "brackets.boxminus": ("coinvariants",),
    "brackets.cyclic_bracket": ("coinvariants",),
    "cli.main": ("graphs",),
}


def metric_names() -> list[tuple[str, str]]:
    """Every per-layer metric as (name, unit), in report order."""
    out = []
    for name, (_, _, stats) in SPANS.items():
        out += [(f"{name}.calls", "count"), (f"{name}.self_share", "fraction")]
        if name in TOTALS:
            out.append((f"{name}.total_share", "fraction"))
        out += [(f"{name}.{stat}", "count") for stat in stats]
    for name, (_, _, stats) in COUNTERS.items():
        out.append((f"{name}.calls", "count"))
        out += [(f"{name}.{stat}", "count") for stat in stats]
    out += [("graphs.enumerate_graphs.yield", "fraction"),
            ("trace.wall_s", "s"), ("trace.overhead_s", "s")]
    return out


def _rebind(original, wrapper) -> None:
    """Point every opforge global bound to `original` at `wrapper`."""
    for mod_name, mod in list(sys.modules.items()):
        if mod_name.split(".")[0] != "opforge" or mod is None:
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, wrapper)


class Tracer:
    """Collects spans and counters while its wrappers are installed."""

    def __init__(self):
        self.spans: list = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()

    # -- wrappers -----------------------------------------------------------

    def _span(self, name, fn, stats):
        spans, stack, counts = self.spans, self.stack, self.counts
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent)
            counts[name + ".calls"] += 1
            for stat, measure in stats.items():
                counts[f"{name}.{stat}"] += measure(args, result)
            return result

        return wrapper

    def _counter(self, name, fn, stats):
        counts = self.counts
        key = name + ".calls"

        def wrapper(*args, **kwargs):
            counts[key] += 1
            for stat, measure in stats.items():
                counts[f"{name}.{stat}"] += measure(args)
            return fn(*args, **kwargs)

        return wrapper

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        for table, make in ((SPANS, self._span), (COUNTERS, self._counter)):
            for name, (module, paths, stats) in table.items():
                for path in paths:
                    owner = sys.modules[f"opforge.{module}"]
                    *classes, attr = path.split(".")
                    for cls in classes:
                        owner = getattr(owner, cls)
                    original = getattr(owner, attr)
                    wrapper = make(name, original, stats)
                    if classes:
                        setattr(owner, attr, wrapper)
                    else:
                        _rebind(original, wrapper)

    # -- results ------------------------------------------------------------

    def metrics(self, pass_wall: float) -> dict[str, float]:
        """Per-layer metrics of the traced pass; times as shares of it."""
        child = [0.0] * len(self.spans)
        self_time: Counter = Counter()
        total_time: Counter = Counter()
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        for idx, (name, start, end, parent) in enumerate(self.spans):
            self_time[name] += end - start - child[idx]
            outer = parent
            while outer >= 0 and self.spans[outer][0] != name:
                outer = self.spans[outer][3]
            if outer < 0:
                total_time[name] += end - start
        out = {}
        for metric, unit in metric_names():
            prefix, _, stat = metric.rpartition(".")
            if stat == "self_share":
                out[metric] = self_time[prefix] / pass_wall
            elif stat == "total_share":
                out[metric] = total_time[prefix] / pass_wall
            elif unit == "count":
                out[metric] = self.counts[metric]
        candidates = self.counts["graphs.classify.calls"]
        out["graphs.enumerate_graphs.yield"] = (
            self.counts["graphs.enumerate_graphs.kept"] / candidates
            if candidates else 0.0)
        return out

    def missed(self, workload: str) -> list[str]:
        """Layers this workload should move that recorded no call."""
        return [name for name, moved_by in MOVES.items()
                if workload in moved_by
                and not self.counts[name + ".calls"]]

    def dump(self, path) -> None:
        """Write the spans as tab-separated lines: name start end parent."""
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent in self.spans:
                fh.write(f"{name}\t{start:.9f}\t{end:.9f}\t{parent}\n")

"""In-memory span tracer for the benchmark's traced run.

The traced run replaces the module-level names through which the package's
layers call each other with wrappers that record one span per call: name,
start, end, parent span and input id.  A span's self time is its duration
minus the time its child spans cover.  Aggregates (calls, self time, total
time and counters) cover every span.  The span dump keeps only the first
``SPAN_CAP`` spans, because the census workload makes millions of calls and
the whole trace would not fit in memory.

The untraced run installs no wrapper, so end-to-end metrics are measured
on the package as shipped.
"""

from __future__ import annotations

import gzip
import time
from array import array
from collections import defaultdict

SPAN_CAP = 200_000

# A span name is "<layer>.<function>"; the layer is the package module.
# fileformat is traced too, but only the round-trip probe calls it.
LAYERS = ("analysis", "collapse", "homology", "complexes", "realization")

RUNGS = ("tree-test", "cone-apex", "collapse-certificate", "nonzero-betti",
         "inconclusive", "budget")


class Tracer:
    """Span recorder shared by every wrapper of one traced run."""

    def __init__(self):
        self.active = False
        self.input_id = -1
        self.names: list[str] = []
        self.calls: list[int] = []
        self.self_s: list[float] = []
        self.total_s: list[float] = []
        self.root_s = 0.0
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list = []
        self.spans = 0  # spans opened so far; the next span id
        # id, parent id (-1 for a root), name id, input id, start, end
        self._spans = (array("q"), array("q"), array("i"), array("i"),
                       array("d"), array("d"))
        self._seen_links: set = set()
        self._seen_links_input = -1

    def name_id(self, name: str) -> int:
        if name in self.names:
            return self.names.index(name)
        self.names.append(name)
        self.calls.append(0)
        self.self_s.append(0.0)
        self.total_s.append(0.0)
        return len(self.names) - 1

    def wrap(self, name: str, fn, after=None):
        """A stand-in for ``fn`` that records a span per call while active.

        ``after(tracer, parent_name, args, result)`` updates counters; its
        cost, like the wrapper's own bookkeeping, is charged to no span.
        """
        nid = self.name_id(name)
        stack = self._stack
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            sid = tracer.spans
            tracer.spans = sid + 1
            parent = stack[-1] if stack else None
            frame = [sid, nid, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                tracer._close(frame, parent, start, end)
            if after is not None:
                after(tracer, tracer.names[parent[1]] if parent else None, args, result)
            if parent is not None:
                parent[2] += clock() - end
            return result

        traced.__wrapped__ = fn
        return traced

    def _close(self, frame, parent, start: float, end: float) -> None:
        sid, nid, child = frame
        dur = end - start
        self.calls[nid] += 1
        self.total_s[nid] += dur
        self.self_s[nid] += dur - child
        if parent is None:
            self.root_s += dur
        else:
            parent[2] += dur
        if sid < SPAN_CAP:
            ids, parents, names, inputs, starts, ends = self._spans
            ids.append(sid)
            parents.append(parent[0] if parent else -1)
            names.append(nid)
            inputs.append(self.input_id)
            starts.append(start)
            ends.append(end)

    def link_seen(self, key) -> bool:
        """Record a link(cx, sigma) call; True when this input made it before."""
        if self._seen_links_input != self.input_id:
            self._seen_links.clear()
            self._seen_links_input = self.input_id
        if key in self._seen_links:
            return True
        self._seen_links.add(key)
        return False

    def dump(self, path) -> int:
        """Write the recorded spans as gzipped TSV; returns the span count."""
        ids, parents, names, inputs, starts, ends = self._spans
        with gzip.open(path, "wt") as out:
            out.write("span\tparent\tname\tinput\tstart_s\tend_s\n")
            for i in range(len(ids)):
                out.write(f"{ids[i]}\t{parents[i]}\t{self.names[names[i]]}\t"
                          f"{inputs[i]}\t{starts[i]!r}\t{ends[i]!r}\n")
        return len(ids)


def _on_link(tracer, parent, args, result):
    cx, sigma = args[0], args[1]
    tracer.counters["link.calls"] += 1
    if tracer.link_seen((cx.ambient_n, cx.facets, sigma)):
        tracer.counters["link.repeats"] += 1


def _on_status(tracer, parent, args, result):
    tracer.counters["rung." + result.reason] += 1


def _on_search(tracer, parent, args, result):
    c = tracer.counters
    c["search.calls"] += 1
    c["search.nodes"] += result.nodes_explored
    if result.budget_exhausted:
        c["search.budget_exhausted"] += 1
    # Inside contractibility_status only a Yes decides the verdict: a No
    # there is followed by homology, which decides instead.  Elsewhere any
    # decided outcome is the verdict for that link.
    if result.status.value == "Yes" or (
        result.status.value == "No" and parent != "analysis.contractibility_status"
    ):
        c["search.useful"] += 1


def _on_betti(tracer, parent, args, result):
    tracer.counters["betti.calls"] += 1
    if not result.is_zero():
        tracer.counters["betti.nonzero"] += 1


def _on_boundary(tracer, parent, args, result):
    rows, cols = result.shape
    tracer.counters["homology.matrix_cells"] += rows * cols


def _on_realized(tracer, parent, args, result):
    n = args[0].ambient_n
    tracer.counters["realization.cells"] += 3**n - 2**n


def install(tracer: Tracer, cc) -> list:
    """Wrap the layer-boundary names of package ``cc``; returns an undo list.

    Each entry names the span, the function, and every (owner, attribute)
    through which a layer reaches it, so calls from each calling module
    are recorded under one span name.
    """
    a, h, r, f = cc.analysis, cc.homology, cc.realization, cc.fileformat
    sc = cc.complexes.SimplicialComplex
    table = [
        ("analysis.classify", [(a, "classify")], None),
        ("analysis.is_locally_good", [(a, "is_locally_good")], None),
        ("analysis.is_locally_great", [(a, "is_locally_great")], None),
        ("analysis.mandatory_codewords", [(a, "mandatory_codewords")], None),
        ("analysis.contractibility_status",
         [(a, "contractibility_status"), (r, "contractibility_status")], _on_status),
        ("analysis.facet_intersections", [(a, "facet_intersections")], None),
        ("collapse.is_collapsible", [(a, "is_collapsible")], _on_search),
        ("homology.reduced_betti", [(a, "reduced_betti"), (h, "reduced_betti")], _on_betti),
        ("homology.boundary_matrix", [(h, "boundary_matrix")], _on_boundary),
        ("homology.rank_mod_p", [(h, "rank_mod_p")], None),
        ("complexes.closure", [(a, "closure"), (r, "closure")], None),
        ("complexes.link", [(a, "link")], _on_link),
        ("complexes.faces", [(sc, "faces")], None),
        ("complexes.order_complex", [(r, "order_complex")], None),
        ("realization.good_cover_check", [(r, "good_cover_check")], None),
        ("realization.realized_code_from_U", [(r, "realized_code_from_U")], _on_realized),
        ("realization.v_region_contractibility", [(r, "v_region_contractibility")], None),
        ("fileformat.emit_code", [(f, "emit_code")], None),
        ("fileformat.parse_code", [(f, "parse_code")], None),
    ]
    undo = []
    for name, owners, after in table:
        original = getattr(*owners[0])
        wrapper = tracer.wrap(name, original, after)
        for owner, attr in owners:
            undo.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, wrapper)
    return undo


def uninstall(undo: list) -> None:
    for owner, attr, original in reversed(undo):
        setattr(owner, attr, original)


# Per-layer metrics: name -> (unit, better).  Times and counts are per
# traced input, so runs that complete different numbers of inputs compare.
PER_LAYER = {
    "collapse.is_collapsible.calls": ("calls/input", "lower"),
    "collapse.is_collapsible.self_ms": ("ms/input", "lower"),
    "collapse.nodes": ("nodes/input", "lower"),
    "collapse.nodes_per_s": ("nodes/s", "higher"),
    "collapse.budget_exhausted": ("calls/input", "lower"),
    "collapse.useful_frac": ("frac", "higher"),
    "analysis.rung.tree-test": ("calls/input", "higher"),
    "analysis.rung.cone-apex": ("calls/input", "higher"),
    "analysis.rung.collapse-certificate": ("calls/input", "lower"),
    "analysis.rung.nonzero-betti": ("calls/input", "higher"),
    "analysis.rung.inconclusive": ("calls/input", "lower"),
    "analysis.rung.budget": ("calls/input", "lower"),
    "analysis.contractibility_status.calls": ("calls/input", "lower"),
    "analysis.contractibility_status.self_ms": ("ms/input", "lower"),
    "homology.reduced_betti.calls": ("calls/input", "lower"),
    "homology.reduced_betti.self_ms": ("ms/input", "lower"),
    "homology.boundary_matrix.self_ms": ("ms/input", "lower"),
    "homology.rank_mod_p.self_ms": ("ms/input", "lower"),
    "homology.matrix_cells": ("cells/input", "lower"),
    "homology.nonzero_frac": ("frac", "higher"),
    "complexes.closure.calls": ("calls/input", "lower"),
    "complexes.closure.self_ms": ("ms/input", "lower"),
    "complexes.link.calls": ("calls/input", "lower"),
    "complexes.link.self_ms": ("ms/input", "lower"),
    "complexes.faces.calls": ("calls/input", "lower"),
    "complexes.faces.self_ms": ("ms/input", "lower"),
    "analysis.facet_intersections.calls": ("calls/input", "lower"),
    "analysis.facet_intersections.self_ms": ("ms/input", "lower"),
    "analysis.link_repeat_frac": ("frac", "lower"),
    "realization.good_cover_check.self_ms": ("ms/input", "lower"),
    "realization.realized_code_from_U.self_ms": ("ms/input", "lower"),
    "realization.v_region_contractibility.calls": ("calls/input", "lower"),
    "realization.cells": ("cells/input", "lower"),
    "complexes.order_complex.calls": ("calls/input", "lower"),
    "complexes.order_complex.self_ms": ("ms/input", "lower"),
    "fileformat.emit_code.self_ms": ("ms/input", "lower"),
    "fileformat.parse_code.self_ms": ("ms/input", "lower"),
    **{f"layer.{layer}.self_frac": ("frac", "lower") for layer in LAYERS},
    "trace.overhead_frac": ("frac", "lower"),
    "trace.inputs": ("count", "higher"),
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, inputs: int, traced_s: float, untraced_s: float) -> dict:
    """Derive every PER_LAYER metric from one traced run."""
    c = tracer.counters
    out = {}
    for nid, name in enumerate(tracer.names):
        out[name + ".calls"] = tracer.calls[nid] / inputs
        out[name + ".self_ms"] = tracer.self_s[nid] * 1e3 / inputs
    search_total = tracer.total_s[tracer.name_id("collapse.is_collapsible")]
    out.update({
        "collapse.nodes": c["search.nodes"] / inputs,
        "collapse.nodes_per_s": _ratio(c["search.nodes"], search_total),
        "collapse.budget_exhausted": c["search.budget_exhausted"] / inputs,
        "collapse.useful_frac": _ratio(c["search.useful"], c["search.calls"]),
        "homology.matrix_cells": c["homology.matrix_cells"] / inputs,
        "homology.nonzero_frac": _ratio(c["betti.nonzero"], c["betti.calls"]),
        "analysis.link_repeat_frac": _ratio(c["link.repeats"], c["link.calls"]),
        "realization.cells": c["realization.cells"] / inputs,
        "trace.overhead_frac": _ratio(traced_s - untraced_s, untraced_s),
        "trace.inputs": inputs,
    })
    for r in RUNGS:
        out[f"analysis.rung.{r}"] = c["rung." + r] / inputs
    # Layer shares are of the timed calls only: the file round trip is a
    # probe, so its spans (always roots) leave the denominator.
    layer_of = [n.split(".")[0] for n in tracer.names]
    timed_s = tracer.root_s - sum(t for layer, t in zip(layer_of, tracer.total_s)
                                  if layer == "fileformat")
    for layer in LAYERS:
        own = sum(s for name, s in zip(layer_of, tracer.self_s) if name == layer)
        out[f"layer.{layer}.self_frac"] = _ratio(own, timed_s)
    return {name: out[name] for name in PER_LAYER}

"""Outside-in layer trace: spans and counts recorded by patched wrappers.

Each traced function is replaced, at every name its callers look it up
by, with a wrapper that records a span (name, start, end, parent, op id).
Spans stay in memory until the run ends.  A layer's self time is its
span's duration minus the durations of its child spans; spans nest
strictly because the benchmark is single-threaded.

Counts are gathered by probes that run just before the traced call.  A
probe runs inside its own `trace.probe` span, so its cost is charged to
no layer.
"""

from __future__ import annotations

import json
import time
import tracemalloc
from collections import Counter, defaultdict

# span name -> the (module or class path, attribute) sites callers look it
# up by; paths are relative to the `hypfactor` package
SITES = {
    "detach.construct": [("detach", "construct"), ("cli", "construct")],
    "detach.initial_amalgam": [("detach", "initial_amalgam")],
    "detach.split_step": [("detach", "split_step")],
    "wings.wing_decompositions": [("detach", "wing_decompositions")],
    "laminar.build_wing_family": [("detach", "build_wing_family")],
    "laminar.build_cell_family": [("detach", "build_cell_family")],
    "laminar.equalized_select": [("detach", "equalized_select")],
    "laminar.selection_respects_bounds": [("laminar", "selection_respects_bounds")],
    "laminar.LaminarFamily.forest": [("laminar.LaminarFamily", "forest")],
    "hypercore.ColoredMultiHypergraph.hinges_at": [("hypercore.ColoredMultiHypergraph", "hinges_at")],
    "hypercore.ColoredMultiHypergraph.move_hinges": [("hypercore.ColoredMultiHypergraph", "move_hinges")],
    "verify.verify_stage": [("detach", "verify_stage")],
    # the verify module site is where the benchmark's own final gate looks
    "verify.verify_factorization": [
        ("detach", "verify_factorization"),
        ("cli", "verify_factorization"),
        ("verify", "verify_factorization"),
    ],
    "cli.main": [("cli", "main")],
    "cli.doc_to_factorization": [("cli", "doc_to_factorization")],
    "cli.dumps_canonical": [("cli", "dumps_canonical")],
}

# entry points that only dispatch to other layers; time spent in their
# own bodies counts as covered by no named layer
GLUE = ("detach.construct", "detach.split_step", "cli.main")
OP_SPAN = "bench.op"
PROBE_SPAN = "trace.probe"

COUNTS = (
    "laminar.ground_hinges",
    "laminar.wing_members",
    "laminar.cell_members",
    "laminar.flow_arcs",
    "hypercore.alpha_edges",
)


def _resolve(pkg, path: str):
    obj = getattr(pkg, path.split(".")[0])
    for part in path.split(".")[1:]:
        obj = getattr(obj, part)
    return obj


class _Patcher:
    """Replaces functions at their lookup sites and puts them back."""

    def __init__(self):
        self._saved = []

    def patch(self, pkg, make_wrapper, names=SITES):
        for name in names:
            sites = SITES[name]
            original = getattr(_resolve(pkg, sites[0][0]), sites[0][1])
            wrapper = make_wrapper(name, original)
            for path, attr in sites:
                owner = _resolve(pkg, path)
                if getattr(owner, attr) is not original:
                    raise RuntimeError(f"{path}.{attr} is not the function {name}")
                self._saved.append((owner, attr, original))
                setattr(owner, attr, wrapper)

    def restore(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()


class LayerTracer:
    """Span recorder for one traced run; `install` patches, `remove` undoes."""

    def __init__(self):
        self.spans: list = []  # (name, start, end, parent index, op id)
        self.counts: Counter = Counter()
        self.type_share_sum = 0.0
        self._stack: list[int] = []
        self._op = -1
        self._patcher = _Patcher()

    # -- recording -------------------------------------------------------

    def _open(self) -> tuple[int, int]:
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        self.spans.append(None)
        self._stack.append(idx)
        return idx, parent

    def _close(self, name, idx, parent, start):
        end = time.perf_counter()
        self._stack.pop()
        self.spans[idx] = (name, start, end, parent, self._op)

    def span(self, name, fn, *args, **kwargs):
        idx, parent = self._open()
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(name, idx, parent, start)

    def op(self, op_id: int, fn):
        """Run one benchmark op as a root span."""
        self._op = op_id
        return self.span(OP_SPAN, fn)

    def _wrapper(self, name, fn):
        probe = PROBES.get(name)
        span = self.span

        def traced(*args, **kwargs):
            if probe is not None:
                span(PROBE_SPAN, probe, self, args)
            return span(name, fn, *args, **kwargs)

        return traced

    def install(self, pkg):
        self._patcher.patch(pkg, self._wrapper)

    def remove(self):
        self._patcher.restore()

    # -- results ---------------------------------------------------------

    def layer_times(self) -> tuple[dict, Counter]:
        """Self seconds and call counts per span name."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_s: dict = defaultdict(float)
        calls: Counter = Counter()
        for i, (name, start, end, _, _) in enumerate(self.spans):
            self_s[name] += end - start - child[i]
            calls[name] += 1
        return self_s, calls

    def metrics(self, passes: int, scale: float) -> dict:
        """Per-layer metrics per traced pass, as (value, unit) pairs.

        Self times are multiplied by `scale`, the factor that turns
        measured seconds into the benchmark's reference seconds.
        """
        self_s, calls = self.layer_times()
        out = {}
        for name in SITES:
            out[f"{name}.self_s"] = (self_s[name] * scale / passes, "s")
            out[f"{name}.calls"] = (calls[name] // passes, "count")
        for name in COUNTS:
            out[name] = (self.counts[name] // passes, "count")
        stages = calls["detach.split_step"]
        out["laminar.LaminarFamily.forest.calls_per_stage"] = (
            calls["laminar.LaminarFamily.forest"] / stages if stages else 0.0, "calls/stage")
        out["hypercore.hinges_at.calls_per_stage"] = (
            calls["hypercore.ColoredMultiHypergraph.hinges_at"] / stages if stages else 0.0,
            "calls/stage")
        out["hypercore.edge_type_share"] = (
            self.type_share_sum / stages if stages else 0.0, "types/edge")
        op_time = sum(e - s for n, s, e, _, _ in self.spans if n == OP_SPAN)
        probe_time = sum(e - s for n, s, e, _, _ in self.spans if n == PROBE_SPAN)
        uncovered = self_s[OP_SPAN] + sum(self_s[g] for g in GLUE)
        out["trace.uncovered_share"] = (
            uncovered / (op_time - probe_time) if op_time > probe_time else 0.0, "ratio")
        return out

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")


# -- probes: counts gathered before the traced call ------------------------


def _probe_select(tracer, args):
    ground, famA, famB = args[0], args[1], args[2]
    c = tracer.counts
    c["laminar.ground_hinges"] += len(ground)
    c["laminar.wing_members"] += len(famA.members)
    c["laminar.cell_members"] += len(famB.members)
    c["laminar.flow_arcs"] += 2 + len(famA.members) + len(famB.members) + len(ground)


def _probe_split(tracer, args):
    """Distinct (colour, multiset) types over the amalgam-incident edges."""
    G = args[0]
    incident = [(e.color, e.verts) for e in G.edges() if G.alpha in e.verts]
    tracer.counts["hypercore.alpha_edges"] += len(incident)
    if incident:
        tracer.type_share_sum += len(set(incident)) / len(incident)


PROBES = {
    "laminar.equalized_select": _probe_select,
    "detach.split_step": _probe_split,
}


class ConstructPeak:
    """tracemalloc peak over each `detach.construct` call while installed."""

    def __init__(self):
        self.peak_bytes = 0
        self._patcher = _Patcher()

    def _wrapper(self, name, fn):
        def measured(*args, **kwargs):
            tracemalloc.start()
            try:
                return fn(*args, **kwargs)
            finally:
                self.peak_bytes = max(self.peak_bytes, tracemalloc.get_traced_memory()[1])
                tracemalloc.stop()

        return measured

    def install(self, pkg):
        self._patcher.patch(pkg, self._wrapper, names=("detach.construct",))

    def remove(self):
        self._patcher.restore()

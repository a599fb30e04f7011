"""Per-layer timing for the traced pass, measured from outside the program.

:class:`LayerTimer` replaces, for one traced pass, each layer's entry
point *on the name its caller looks up* (``repro.core.pacor.solve_escape``,
``repro.routing.negotiation.astar_search``, the
``MinCostFlow.max_flow_min_cost`` method, ...) with a wrapper that opens
a ``layer`` span on the pass's :class:`~repro.observability.Tracer`.
The router's own ``stage`` spans land in the same tracer, so one span
tree holds both.  A layer's self time is its spans' duration minus the
layer spans nested inside them; the stage remainder is stage time no
layer span covers.  Together they partition the traced pass.
"""

from __future__ import annotations

import importlib
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.observability.metrics import Metrics
from repro.observability.tracing import Span, Tracer

LAYER = "layer"
"""Span category of the benchmark's wrapper spans."""

STAGES = ("clustering", "lm-routing", "mst-routing", "escape", "detour")

TARGETS: Tuple[Tuple[str, Optional[str], str, str], ...] = (
    # (module, class or None, attribute, layer)
    ("repro.core.pacor", None, "cluster_valves", "valves.cluster"),
    ("repro.core.pacor", None, "generate_candidates", "dme.candidates"),
    ("repro.core.pacor", None, "SelectionInstance", "selection.build"),
    ("repro.core.pacor", None, "solve_exact", "selection.solve"),
    ("repro.core.pacor", None, "route_cluster_mst", "routing.mst"),
    ("repro.core.pacor", None, "astar_route_detailed", "routing.force_astar"),
    ("repro.core.pacor", None, "solve_escape", "escape.solve"),
    ("repro.core.pacor", None, "find_blocking_nets", "escape.blocking"),
    ("repro.core.pacor", None, "detour_cluster", "detour.cluster"),
    ("repro.routing.negotiation", "NegotiationRouter", "route", "routing.negotiation"),
    ("repro.routing.negotiation", None, "astar_search", "routing.astar"),
    ("repro.routing.astar", None, "astar_search", "routing.astar"),
    ("repro.routing.bounded", None, "bounded_search", "routing.bounded"),
    ("repro.flownet.mincostflow", "MinCostFlow", "max_flow_min_cost", "flownet.mcf"),
    ("repro.robustness.repair", None, "repair_result", "repair.result"),
)
"""Wrapped entry points.  The benchmark calls ``repair_result`` through
its module attribute, so that wrapper sits on the benchmark's own call."""

PER_LAYER: Dict[str, str] = {
    "core.stage.clustering_s": "s",
    "core.stage.lm-routing_s": "s",
    "core.stage.mst-routing_s": "s",
    "core.stage.escape_s": "s",
    "core.stage.detour_s": "s",
    "core.checkpoint_bytes": "bytes",
    "valves.cluster_s": "s",
    "routing.mst_s": "s",
    "space.rebuilds": "count",
    "space.reuses": "count",
    "space.patched_cells": "count",
    "space.reuse_ratio": "ratio",
    "dme.candidates_s": "s",
    "selection.build_s": "s",
    "selection.solve_s": "s",
    "selection.nodes_explored": "count",
    "routing.negotiation_s": "s",
    "routing.negotiation_rounds": "count",
    "routing.astar_s": "s",
    "routing.astar_calls": "count",
    "routing.astar_expansions": "count",
    "routing.astar_heap_pushes": "count",
    "routing.astar_exp_per_s": "1/s",
    "routing.force_astar_s": "s",
    "routing.bounded_s": "s",
    "routing.bounded_states": "count",
    "detour.cluster_s": "s",
    "detour.rounds": "count",
    "detour.edges": "count",
    "via.segments": "count",
    "escape.solve_s": "s",
    "escape.mcf_solves": "count",
    "escape.rip_rounds": "count",
    "escape.blocking_s": "s",
    "flownet.mcf_s": "s",
    "flownet.augmenting_paths": "count",
    "flownet.paths_per_solve": "ratio",
    "flownet.mcf_share": "ratio",
    "repair.result_s": "s",
    "repair.reroutes": "count",
    "repair.escalations": "count",
    "repair.rips": "count",
    "verify.false_positives": "count",
    "service.submit_miss_p50_s": "s",
    "service.hit_p50_s": "s",
    "service.queue_wait_p50_s": "s",
    "service.queue_wait_p95_s": "s",
    "service.run_p50_s": "s",
    "service.run_p95_s": "s",
    "service.route_p50_s": "s",
    "service.worker_overhead_p50_s": "s",
    "service.hit_ratio": "ratio",
    "service.cache_stores": "count",
    "obs.trace_overhead": "ratio",
    "obs.accounted_share": "ratio",
    "bench.late_max_s": "s",
}
"""Per-layer metrics.  A workload that never enters a layer reports 0."""

_COUNTERS = {
    "core.checkpoint_bytes": "checkpoint.bytes",
    "space.rebuilds": "space.rebuilds",
    "space.reuses": "space.reuses",
    "space.patched_cells": "space.patched_cells",
    "routing.negotiation_rounds": "negotiation.rounds",
    "routing.astar_expansions": "astar.expansions",
    "routing.astar_heap_pushes": "astar.heap_pushes",
    "routing.bounded_states": "bounded.states",
    "detour.rounds": "detour.rounds",
    "detour.edges": "detour.edges",
    "via.segments": "via.segments",
    "escape.mcf_solves": "escape.mcf_solves",
    "escape.rip_rounds": "escape.rip_rounds",
    "flownet.augmenting_paths": "mcf.augmenting_paths",
    "repair.reroutes": "repair.reroutes",
    "repair.escalations": "repair.escalations",
    "repair.rips": "repair.rips",
}
"""Per-layer metric -> the program's own counter it reads."""


class LayerTimer:
    """Wrap every :data:`TARGETS` entry point for the life of a ``with``."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self.calls: Dict[str, int] = defaultdict(int)
        self.nodes_explored = 0
        self._saved: List[Tuple[Any, str, Any]] = []

    def __enter__(self) -> "LayerTimer":
        for module_name, class_name, attr, layer in TARGETS:
            owner: Any = importlib.import_module(module_name)
            if class_name is not None:
                owner = getattr(owner, class_name)
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, layer))
        return self

    def __exit__(self, *exc_info: object) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _wrap(self, fn: Callable[..., Any], layer: str) -> Callable[..., Any]:
        span = self.tracer.span
        calls = self.calls

        def timed(*args: Any, **kwargs: Any) -> Any:
            calls[layer] += 1
            with span(layer, category=LAYER):
                out = fn(*args, **kwargs)
            if layer == "selection.solve":
                self.nodes_explored += out.nodes_explored
            return out

        return timed

    def metrics(
        self, spans: List[Span], registry: Metrics, traced_pass_s: float
    ) -> Dict[str, float]:
        """Turn the traced pass's spans and counters into per-layer metrics."""
        by_id = {s.span_id: s for s in spans}
        nearest: Dict[str, Tuple[Optional[Span], Optional[str]]] = {}

        def ancestors(span: Span) -> Tuple[Optional[Span], Optional[str]]:
            """Return the nearest enclosing layer span and stage name."""
            key = span.span_id
            if key in nearest:
                return nearest[key]
            parent = by_id.get(span.parent_id) if span.parent_id else None
            if parent is None:
                found: Tuple[Optional[Span], Optional[str]] = (None, None)
            elif parent.category == LAYER:
                found = (parent, ancestors(parent)[1])
            elif parent.category == "stage":
                found = (None, parent.name)
            else:
                found = ancestors(parent)
            nearest[key] = found
            return found

        self_s: Dict[str, float] = defaultdict(float)
        stage_s: Dict[str, float] = defaultdict(float)
        covered_s = 0.0
        for span in spans:
            duration = span.duration_s or 0.0
            if span.category == "stage":
                stage_s[span.name] += duration
            elif span.category == LAYER:
                self_s[span.name] += duration
                parent, stage = ancestors(span)
                if parent is not None:
                    self_s[parent.name] -= duration
                elif stage is not None:
                    covered_s += duration
        remainder_s = sum(stage_s.values()) - covered_s

        counters = registry.counter_values()
        out: Dict[str, float] = {
            name: float(counters.get(counter, 0))
            for name, counter in _COUNTERS.items()
        }
        for stage in STAGES:
            out[f"core.stage.{stage}_s"] = stage_s[stage]
        for _, _, _, layer in TARGETS:
            out[f"{layer}_s"] = self_s[layer]
        out["selection.nodes_explored"] = float(self.nodes_explored)
        out["routing.astar_calls"] = float(self.calls["routing.astar"])
        out["space.reuse_ratio"] = _ratio(
            out["space.reuses"], out["space.reuses"] + out["space.rebuilds"]
        )
        out["routing.astar_exp_per_s"] = _ratio(
            out["routing.astar_expansions"], out["routing.astar_s"]
        )
        out["flownet.paths_per_solve"] = _ratio(
            out["flownet.augmenting_paths"], self.calls["flownet.mcf"]
        )
        out["flownet.mcf_share"] = _ratio(out["flownet.mcf_s"], traced_pass_s)
        out["obs.accounted_share"] = _ratio(
            sum(self_s.values()) + remainder_s, traced_pass_s
        )
        return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0

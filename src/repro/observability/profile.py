"""Trace analysis behind ``pacor profile``.

Loads a JSONL trace (see :mod:`repro.observability.tracing`) and answers
the questions the flow's performance work keeps asking: *where does
the wall clock go per stage*, *which nets are the effort sinks* and
*which searches were wasted*.

Stage rows aggregate ``category == "stage"`` spans by name (a resumed
run re-executes its interrupted stage, so one stage may have several
spans — they are summed, and the count column shows the re-entry).
Net rows aggregate ``category == "net"`` spans by their ``net_id``
attribute, summing the ``astar_expansions`` deltas the router and the
negotiation kernel attach.  Wasted-search rows aggregate the net spans
that record ``routed=false`` (one per failed negotiation edge search) by
net and enclosing stage; ``pruned=true`` marks a search the engine's
walled-pocket check proved unroutable without expanding a cell.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.observability.tracing import read_trace_jsonl


@dataclass
class StageRow:
    """Aggregated wall-clock spend of one flow stage."""

    stage: str
    spans: int = 0
    total_s: float = 0.0
    share: float = 0.0  # of the flow root's duration


@dataclass
class NetRow:
    """Aggregated effort of one net across every kernel span."""

    net_id: int
    spans: int = 0
    total_s: float = 0.0
    astar_expansions: int = 0
    stages: List[str] = field(default_factory=list)


@dataclass
class WastedRow:
    """Failed searches of one net within one stage."""

    net_id: int
    stage: str
    failed: int = 0
    pruned: int = 0
    astar_expansions: int = 0
    share: float = 0.0  # of every net span's A* expansions


@dataclass
class TraceProfile:
    """The full analysis of one trace file."""

    trace_id: str
    flow_s: float  # summed duration of the flow root span(s)
    n_spans: int
    stages: List[StageRow]
    top_nets: List[NetRow]
    designs: List[str] = field(default_factory=list)
    wasted: List[WastedRow] = field(default_factory=list)


def _attr(doc: Dict[str, object], key: str) -> object:
    attrs = doc.get("attrs")
    return attrs.get(key) if isinstance(attrs, dict) else None


def profile_spans(
    spans: Sequence[Dict[str, object]], *, top_k: int = 5
) -> TraceProfile:
    """Analyse span documents into stage and top-net tables."""
    trace_ids = {str(s.get("trace_id")) for s in spans}
    flow_s = 0.0
    designs: List[str] = []
    for doc in spans:
        if doc.get("category") == "flow":
            flow_s += float(doc.get("dur_s") or 0.0)
            design = _attr(doc, "design")
            if design is not None and design not in designs:
                designs.append(str(design))

    stage_order: List[str] = []
    stage_rows: Dict[str, StageRow] = {}
    net_rows: Dict[int, NetRow] = {}
    wasted_rows: Dict[Tuple[int, str], WastedRow] = {}
    # A span's enclosing stage names the net row's stage column.
    stage_of_span: Dict[str, str] = {}
    for doc in spans:
        if doc.get("category") == "stage":
            stage_of_span[str(doc.get("span_id"))] = str(doc.get("name"))
    parent_of = {
        str(doc.get("span_id")): doc.get("parent_id") for doc in spans
    }

    def enclosing_stage(doc: Dict[str, object]) -> Optional[str]:
        cursor = doc.get("parent_id")
        hops = 0
        while cursor is not None and hops < len(spans) + 1:
            hops += 1
            found = stage_of_span.get(str(cursor))
            if found is not None:
                return found
            cursor = parent_of.get(str(cursor))
        return None

    for doc in spans:
        category = doc.get("category")
        duration = float(doc.get("dur_s") or 0.0)
        if category == "stage":
            name = str(doc.get("name"))
            if name not in stage_rows:
                stage_rows[name] = StageRow(stage=name)
                stage_order.append(name)
            row = stage_rows[name]
            row.spans += 1
            row.total_s += duration
        elif category == "net":
            net_id = _attr(doc, "net_id")
            if net_id is None:
                continue
            net = net_rows.setdefault(int(net_id), NetRow(net_id=int(net_id)))
            net.spans += 1
            net.total_s += duration
            expansions = int(_attr(doc, "astar_expansions") or 0)
            net.astar_expansions += expansions
            stage = enclosing_stage(doc)
            if stage is not None and stage not in net.stages:
                net.stages.append(stage)
            if _attr(doc, "routed") is False:
                key = (int(net_id), stage or "-")
                wasted = wasted_rows.setdefault(
                    key, WastedRow(net_id=key[0], stage=key[1])
                )
                wasted.failed += 1
                wasted.pruned += _attr(doc, "pruned") is True
                wasted.astar_expansions += expansions

    for row in stage_rows.values():
        row.share = row.total_s / flow_s if flow_s > 0 else 0.0
    top = sorted(
        net_rows.values(),
        key=lambda n: (-n.astar_expansions, -n.total_s, n.net_id),
    )[:top_k]
    all_expansions = sum(n.astar_expansions for n in net_rows.values())
    for wasted in wasted_rows.values():
        if all_expansions:
            wasted.share = wasted.astar_expansions / all_expansions
    return TraceProfile(
        trace_id=trace_ids.pop() if len(trace_ids) == 1 else "mixed",
        flow_s=flow_s,
        n_spans=len(spans),
        stages=[stage_rows[name] for name in stage_order],
        top_nets=top,
        designs=designs,
        wasted=sorted(
            wasted_rows.values(),
            key=lambda w: (-w.astar_expansions, -w.failed, w.net_id, w.stage),
        ),
    )


def profile_trace_file(path: str, *, top_k: int = 5) -> TraceProfile:
    """Load ``path`` (JSONL) and profile it."""
    return profile_spans(read_trace_jsonl(path), top_k=top_k)


def format_profile(profile: TraceProfile) -> str:
    """Render the profile as the aligned tables ``pacor profile`` prints."""
    from repro.analysis import format_table

    out: List[str] = []
    designs = f" design={','.join(profile.designs)}" if profile.designs else ""
    out.append(
        f"trace {profile.trace_id}:{designs} {profile.n_spans} spans, "
        f"flow {profile.flow_s:.3f}s"
    )
    out.append("")
    out.append("per-stage wall clock:")
    out.append(
        format_table(
            ["Stage", "Spans", "Total[s]", "Share"],
            [
                [s.stage, s.spans, f"{s.total_s:.4f}", f"{s.share:.1%}"]
                for s in profile.stages
            ],
        )
    )
    out.append("")
    out.append(f"top {len(profile.top_nets)} nets by A* expansions:")
    if profile.top_nets:
        out.append(
            format_table(
                ["Net", "Expansions", "Spans", "Total[s]", "Stages"],
                [
                    [
                        n.net_id,
                        n.astar_expansions,
                        n.spans,
                        f"{n.total_s:.4f}",
                        ",".join(n.stages) or "-",
                    ]
                    for n in profile.top_nets
                ],
            )
        )
    else:
        out.append("  (no net spans in this trace)")
    out.append("")
    wasted = profile.wasted
    out.append(
        f"wasted searches: {sum(w.failed for w in wasted)} failed "
        f"({sum(w.pruned for w in wasted)} pruned), "
        f"{sum(w.astar_expansions for w in wasted)} expansions, "
        f"{sum(w.share for w in wasted):.1%} of all"
    )
    if wasted:
        out.append(
            format_table(
                ["Net", "Stage", "Failed", "Pruned", "Expansions", "Share"],
                [
                    [
                        w.net_id,
                        w.stage,
                        w.failed,
                        w.pruned,
                        w.astar_expansions,
                        f"{w.share:.1%}",
                    ]
                    for w in wasted
                ],
            )
        )
    return "\n".join(out)

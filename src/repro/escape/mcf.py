"""Min-cost-flow escape routing (Section 5 of the paper).

The network encodes constraints (6)-(12):

* every usable grid cell is split ``in -> out`` with capacity 1 —
  constraint (12), at most one path per cell;
* obstacle/boundary/foreign cells are simply absent — constraint (8);
* each cluster gets a selector node fed by the super source with
  capacity 1 and arcs onto the free neighbours of its tap cells —
  constraints (6), (10) bound the cluster's outward flow by one, and the
  absence of arcs *into* tap cells realises (7), (11);
* candidate control pins drain into the super sink with capacity 1.

Maximising flow before cost reproduces the β-dominated objective: the
number of routed clusters is maximised, then total channel length.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.flownet.mincostflow import MinCostFlow
from repro.geometry.point import Point
from repro.grid.grid import RoutingGrid
from repro.observability import context as obs
from repro.robustness import faults
from repro.robustness.faults import FaultInjected
from repro.robustness.errors import (
    FlowDecompositionError,
    KernelPreconditionError,
)
from repro.routing.core.engine import neighbour_table
from repro.routing.path import Path


@dataclass(frozen=True)
class EscapeSource:
    """One cluster's escape-routing demand.

    Attributes:
        cluster_id: the cluster's net id.
        tap_cells: cells the escape channel may start from — the Steiner
            root for LM clusters of 3+ valves, the path middle cell for
            2-valve LM clusters, every routed path cell for ordinary
            clusters, or the valve cell itself for singletons (Section 5).
    """

    cluster_id: int
    tap_cells: Tuple[Point, ...]

    def __post_init__(self) -> None:
        if not self.tap_cells:
            raise KernelPreconditionError("an escape source needs at least one tap cell")


@dataclass
class EscapeResult:
    """Outcome of one escape-routing solve.

    Attributes:
        paths: per routed cluster, the escape path from a tap cell to the
            assigned control pin (tap cell included as first cell).
        pin_of: assigned control pin per routed cluster.
        unrouted: cluster ids the flow could not route this round.
        flow_value: number of routed clusters.
        total_cost: summed arc costs (total escape channel length).
    """

    paths: Dict[int, Path] = field(default_factory=dict)
    pin_of: Dict[int, Point] = field(default_factory=dict)
    unrouted: List[int] = field(default_factory=list)
    flow_value: int = 0
    total_cost: float = 0.0

    @property
    def complete(self) -> bool:
        """Return True when every source was routed."""
        return not self.unrouted


def solve_escape(
    grid: RoutingGrid,
    sources: Sequence[EscapeSource],
    pins: Sequence[Point],
    blocked: Optional[Set[Point]] = None,
) -> EscapeResult:
    """Route every escape source to a distinct control pin, min-cost.

    Args:
        grid: the routing grid.
        sources: cluster demands; tap cells are assumed unusable for
            through-routing (they belong to routed channels/valves), so
            include them in ``blocked``.
        pins: candidate control-pin cells (each serves at most one
            cluster).
        blocked: cells no escape path may use — all cells occupied by
            routed channels and all valve cells.  Tap cells may (and
            normally do) appear here.

    Returns:
        The decomposed routing; crossings are impossible by construction.
    """
    if faults.fires("mcf_solver_raise"):
        raise FaultInjected("injected min-cost-flow solver failure")
    obs.counter("escape.mcf_solves").inc()
    blocked = blocked or set()
    result = EscapeResult()
    if not sources:
        return result
    if not pins:
        result.unrouted = [s.cluster_id for s in sources]
        return result

    # Escape routing is a layer-0 subproblem: pins live on the chip
    # surface, so the flow network is built over the planar restriction
    # and upper-layer cells (3-tuples under the mixed-arity rule) are
    # transparent to it.
    grid = grid.plane_grid()
    width = grid.width
    height = grid.height
    size = width * height
    usable_mask = grid.obstacle_mask() == 0
    for p in blocked:
        if len(p) == 2 and 0 <= p[0] < width and 0 <= p[1] < height:
            usable_mask[p[1] * width + p[0]] = False

    # Usable cells in deterministic row-major order, keyed by flat cell
    # id (the kernel core's representation — the flow decomposition below
    # walks cells per step, so lookups stay int-keyed).  ``kof[cid]`` is
    # the usable index of cell ``cid``, -1 when unusable; the extra slot
    # at ``size`` is the guard a ``-1`` neighbour-table entry wraps onto.
    uids = np.flatnonzero(usable_mask)
    n_cells = int(uids.size)
    kof = np.full(size + 1, -1, dtype=np.int64)
    kof[uids] = np.arange(n_cells, dtype=np.int64)

    # Node layout: in(k) = 2k, out(k) = 2k + 1, then S, T, selectors.
    net = MinCostFlow(2 * n_cells + 2 + len(sources))
    s_node = 2 * n_cells
    t_node = 2 * n_cells + 1

    def in_node(k: int) -> int:
        return 2 * k

    def out_node(k: int) -> int:
        return 2 * k + 1

    # Cell splitting and adjacency (neighbour order East, West, South,
    # North — the canonical ``neighbors4`` order; the C-order flattening
    # of the per-cell candidate table reproduces the scalar build's arc
    # insertion order exactly, so the solved flow is unchanged).
    ks = np.arange(n_cells, dtype=np.int64)
    net.add_arcs(
        2 * ks,
        2 * ks + 1,
        np.ones(n_cells, dtype=np.int64),
        np.zeros(n_cells, dtype=np.float64),
    )
    cand = neighbour_table(width, height)[uids].astype(np.int64)
    kq = kof[cand]
    edge_mask = kq >= 0
    arc_from = np.repeat(ks, 4).reshape(n_cells, 4)[edge_mask]
    arc_kq = kq[edge_mask]
    adj_q = cand[edge_mask]
    adj_arcs = net.add_arcs(
        2 * arc_from + 1,
        2 * arc_kq,
        np.ones(arc_kq.size, dtype=np.int64),
        np.ones(arc_kq.size, dtype=np.float64),
    )
    # CSR over the adjacency arcs: rows are ascending k already, so a
    # cumulative per-row count indexes each cell's (arc, q) slice.
    aptr = np.zeros(n_cells + 1, dtype=np.int64)
    np.cumsum(edge_mask.sum(axis=1), out=aptr[1:])
    aptr_mv = memoryview(aptr)
    adj_arcs_mv = memoryview(adj_arcs)
    adj_q_mv = memoryview(adj_q)

    # Control pins.
    pin_arc_of_cell: Dict[int, Tuple[int, Point]] = {}
    seen_pins: Set[int] = set()
    for pin in pins:
        x, y = pin[0], pin[1]
        if not (0 <= x < width and 0 <= y < height):
            continue  # an off-chip pin can never be usable
        pid = y * width + x
        if pid in seen_pins:
            continue
        seen_pins.add(pid)
        k = int(kof[pid])
        if k < 0:
            continue
        arc = net.add_arc(out_node(k), t_node, 1, 0.0)
        pin_arc_of_cell[k] = (arc, Point(x, y))

    # Sources.
    tap_arcs: Dict[int, List[Tuple[int, Point, int]]] = {}
    for si, source in enumerate(sources):
        selector = 2 * n_cells + 2 + si
        net.add_arc(s_node, selector, 1, 0.0)
        entries: List[Tuple[int, Point, int]] = []
        seen_entry: Set[int] = set()
        for tap in source.tap_cells:
            if len(tap) == 3:
                continue  # upper-layer cells cannot tap the planar escape
            tap = Point(tap[0], tap[1])
            on_chip = 0 <= tap[0] < width and 0 <= tap[1] < height
            tid = tap[1] * width + tap[0] if on_chip else -1
            k_tap = int(kof[tid]) if on_chip else -1
            if k_tap >= 0:
                # The tap cell itself is routable (singleton valve case):
                # the path starts on it at zero cost.
                if tid not in seen_entry:
                    arc = net.add_arc(selector, in_node(k_tap), 1, 0.0)
                    entries.append((arc, tap, tid))
                    seen_entry.add(tid)
                continue
            for v in tap.neighbors4():
                if not (0 <= v[0] < width and 0 <= v[1] < height):
                    continue
                vid = v[1] * width + v[0]
                kv = int(kof[vid])
                if kv < 0 or vid in seen_entry:
                    continue
                arc = net.add_arc(selector, in_node(kv), 1, 1.0)
                entries.append((arc, tap, vid))
                seen_entry.add(vid)
        tap_arcs[si] = entries

    flow_value, total_cost = net.max_flow_min_cost(
        s_node, t_node, max_flow=len(sources)
    )
    result.flow_value = flow_value
    result.total_cost = total_cost

    # Decompose per source.
    for si, source in enumerate(sources):
        entry = next(
            ((arc, tap, v) for arc, tap, v in tap_arcs[si] if net.flow_on(arc) > 0),
            None,
        )
        if entry is None:
            result.unrouted.append(source.cluster_id)
            continue
        _, tap, vid = entry
        v = Point(vid % width, vid // width)
        cells: List[Point] = [tap] if tap != v else []
        current = int(kof[vid])
        cells.append(v)
        pin: Optional[Point] = None
        guard = 0
        while pin is None:
            guard += 1
            if guard > 4 * n_cells:  # pragma: no cover - defensive
                raise FlowDecompositionError("flow decomposition failed to terminate")
            pin_entry = pin_arc_of_cell.get(current)
            if pin_entry is not None and net.flow_on(pin_entry[0]) > 0:
                pin = pin_entry[1]
                break
            q = -1
            for j in range(aptr_mv[current], aptr_mv[current + 1]):
                if net.flow_on(adj_arcs_mv[j]) > 0:
                    q = adj_q_mv[j]
                    break
            if q < 0:  # pragma: no cover - defensive
                raise FlowDecompositionError("flow decomposition hit a dead end")
            cells.append(Point(q % width, q // width))
            current = int(kof[q])
        result.paths[source.cluster_id] = Path(cells)
        result.pin_of[source.cluster_id] = pin
    return result

"""Blocking-net diagnosis for the de-clustering / rip-up loop (Section 3).

When escape routing cannot reach some cluster, the overall flow rips up
the paths that block it and retries.  This module finds *which* nets
block a failed source: a penalised Dijkstra probe runs from the source's
tap cells to the nearest candidate pin, allowed to cross cells owned by
rippable nets at a high penalty — the nets crossed by the cheapest probe
are the minimal plausible rip-up set.  Length-matching clusters may be
made rippable too, at a higher penalty (the paper's "higher rip-up
cost").
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from itertools import count
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.geometry.point import Point
from repro.grid.grid import RoutingGrid
from repro.grid.occupancy import FREE, Occupancy
from repro.routing.core.engine import neighbour_table

_RIP_PENALTY = 1000.0
"""Probe cost for entering a cell owned by a rippable net."""


@dataclass
class ProbeResult:
    """Outcome of a blocking probe.

    Attributes:
        nets: rippable net ids crossed by the cheapest tap-to-pin probe.
        length: the probe's step count.
        crossed_cells: per blocking net, the probed cells it owns — used
            to decide whether only the net's escape path blocks (rip just
            that) or its internal channels do (full rip / demotion).
    """

    nets: Set[int]
    length: int
    crossed_cells: Dict[int, Set[Point]] = field(default_factory=dict)


def find_blocking_nets(
    grid: RoutingGrid,
    occupancy: Occupancy,
    tap_cells: Sequence[Point],
    pins: Iterable[Point],
    *,
    rippable: Set[int],
    rip_cost: Optional[Dict[int, float]] = None,
    permanent: Optional[Set[Point]] = None,
) -> Optional[ProbeResult]:
    """Return the nets blocking a failed escape source.

    Args:
        grid: the routing grid.
        occupancy: current cell ownership.
        tap_cells: the failed source's tap cells.
        pins: candidate control-pin cells.
        rippable: net ids the probe may cross (candidates for rip-up).
        rip_cost: optional per-net penalty multiplier (e.g. > 1 for
            length-matching clusters); defaults to 1 for every net.
        permanent: cells that can never be freed regardless of owner
            (valve terminals); the probe refuses to cross them.

    Returns:
        A :class:`ProbeResult`, or None when no probe exists even through
        rippable cells (the source is walled in by obstacles or protected
        nets).
    """
    # The probe is a layer-0 subproblem, like the escape solvers it
    # serves: owner/obstacle arrays are truncated to the plane and
    # upper-layer taps (3-tuples) cannot seed it.
    grid = grid.plane_grid()
    width = grid.width
    height = grid.height
    size = width * height
    pin_ids = {
        p[1] * width + p[0]
        for p in pins
        if 0 <= p[0] < width and 0 <= p[1] < height
    }
    tap_cells = [t for t in tap_cells if len(t) == 2]
    if not pin_ids or not tap_cells:
        return None
    rip_cost = rip_cost or {}
    owner_arr = occupancy.owner_array()[:size]

    # Per-cell probe cost, fused once instead of per neighbour visit:
    # free cells cost 1, rippable-owned cells carry the rip penalty, and
    # everything impassable (obstacle / protected owner / permanent
    # occupied cell / the off-grid guard slot, see engine._GUARD_NOTE)
    # holds -1 so one sign test replaces the old step_cost call.
    cost = np.full(size + 1, -1.0, dtype=np.float64)
    step = cost[:size]
    owned = owner_arr != FREE
    step[~owned] = 1.0
    for net in rippable:
        step[owner_arr == net] = 1.0 + _RIP_PENALTY * rip_cost.get(net, 1.0)
    if permanent is not None:
        for p in permanent:
            if 0 <= p[0] < width and 0 <= p[1] < height:
                pid = p[1] * width + p[0]
                if owned[pid]:
                    step[pid] = -1.0
    step[grid.obstacle_mask().view(np.bool_)] = -1.0
    cost_mv = cost.data
    nbr_mv = memoryview(neighbour_table(width, height).reshape(-1))

    best: Dict[int, float] = {}
    parent: Dict[int, int] = {}
    heap: List[Tuple[float, int, int]] = []
    tie = count()
    for tap in tap_cells:
        x, y = tap[0], tap[1]
        if not (0 <= x < width and 0 <= y < height):
            continue
        cid = y * width + x
        best[cid] = 0.0
        parent[cid] = -1
        heapq.heappush(heap, (0.0, next(tie), cid))

    goal = -1
    while heap:
        d, _, p = heapq.heappop(heap)
        if d > best.get(p, float("inf")):
            continue
        if p in pin_ids and parent[p] >= 0:
            goal = p
            break
        base = 4 * p
        # Neighbour order East, West, South, North, as everywhere in the
        # kernel core (off-chip steps land on the -1 guard-cost slot).
        for k in range(4):
            q = nbr_mv[base + k]
            c = cost_mv[q]
            if c < 0.0:
                continue
            nd = d + c
            if nd < best.get(q, float("inf")):
                best[q] = nd
                parent[q] = p
                heapq.heappush(heap, (nd, next(tie), q))
    if goal < 0:
        return None

    result = ProbeResult(nets=set(), length=-1)
    node = goal
    while node >= 0:
        owner = occupancy.owner_id(node)
        if owner != FREE and owner in rippable:
            result.nets.add(owner)
            result.crossed_cells.setdefault(owner, set()).add(
                Point(node % width, node // width)
            )
        node = parent[node]
        result.length += 1
    return result

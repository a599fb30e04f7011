"""Blocking-net diagnosis for the de-clustering / rip-up loop (Section 3).

When escape routing cannot reach some cluster, the overall flow rips up
the paths that block it and retries.  This module finds *which* nets
block a failed source: a penalised Dijkstra probe runs from the source's
tap cells to the nearest candidate pin, allowed to cross cells owned by
rippable nets at a high penalty — the nets crossed by the cheapest probe
are the minimal plausible rip-up set.  Length-matching clusters may be
made rippable too, at a higher penalty (the paper's "higher rip-up
cost").

The probe engine has two parts.

* **Cost field.** One table maps every owner id to its step cost (free
  1, rippable ``1 + 1000 * multiplier``, anything else -1 =
  impassable), and one ``np.take`` over the owner array turns it into
  the per-cell cost.  Permanent occupied cells, obstacles and the
  off-grid guard slot are then set to -1.
* **FIFO Dial search.** A ``dict`` maps each distance to the cells
  pushed at it, in push order, and a small heap holds the distinct
  distances.  The search pops the smallest distance and drains its list
  front to back.  A heap of ``(distance, push counter, cell)`` tuples
  pops in (distance, push order), and so does this: keys come out in
  increasing distance, and within a key the list is push order.  A
  zero-cost step (a multiplier of -0.001) pushes at the distance being
  drained; that re-opens the key as a new list, which drains right
  after the current one, as its larger push counters would in the heap.
  Neighbours are relaxed East, West, South, North with a strict ``<``,
  so ties keep the earliest parent, and a tap that is also a pin is not
  a goal (its parent is -1).  A step costs only what the entered cell
  costs, and distances leave the queue in nondecreasing order, so a
  cell's first relaxation is final: no cell is queued twice (duplicate
  taps aside, at distance 0) and the queue never holds a stale entry.

Counters: ``escape.probes`` (one per search) and ``escape.probe_pops``
(cells popped by that search), both incremented once per search; calls
with no on-grid pin or planar tap return before searching and count
nothing.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set

import numpy as np

from repro.geometry.point import Point
from repro.grid.grid import RoutingGrid
from repro.grid.occupancy import FREE, Occupancy
from repro.observability import context as obs
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

    # Per-cell probe cost from one lookup over the owner array: free
    # cells cost 1, rippable-owned cells carry the rip penalty, and
    # everything impassable (obstacle / protected owner / permanent
    # occupied cell / the off-grid guard slot, see engine._GUARD_NOTE)
    # holds -1 so one sign test decides passability.  The table spans
    # every id the owner array holds; rippable ids outside it own no
    # cell and change nothing.
    lo = min(int(owner_arr.min()), FREE)
    hi = max(int(owner_arr.max()), FREE)
    lut = np.full(hi - lo + 1, -1.0, dtype=np.float64)
    lut[FREE - lo] = 1.0
    for net in rippable:
        if lo <= net <= hi:
            lut[net - lo] = 1.0 + _RIP_PENALTY * rip_cost.get(net, 1.0)
    cost = np.empty(size + 1, dtype=np.float64)
    step = cost[:size]
    np.take(lut, owner_arr - lo, out=step)
    cost[size] = -1.0
    if permanent is not None:
        for p in permanent:
            if 0 <= p[0] < width and 0 <= p[1] < height:
                pid = p[1] * width + p[0]
                if owner_arr[pid] != FREE:
                    step[pid] = -1.0
    step[grid.obstacle_mask().view(np.bool_)] = -1.0
    cost_mv = cost.data
    nbr_mv = memoryview(neighbour_table(width, height).reshape(-1))

    # FIFO Dial search (see the module docstring): cells per distance
    # in push order, and a heap of the distinct distances.
    best = [float("inf")] * size
    parent = [-1] * size
    seeds: List[int] = []
    for tap in tap_cells:
        x, y = tap[0], tap[1]
        if 0 <= x < width and 0 <= y < height:
            cid = y * width + x
            best[cid] = 0.0
            seeds.append(cid)
    buckets: Dict[float, List[int]] = {0.0: seeds}
    keys: List[float] = [0.0]
    heappush = heapq.heappush
    heappop = heapq.heappop
    pops = 0
    goal = -1
    while keys:
        d = heappop(keys)
        for p in buckets.pop(d):
            pops += 1
            if p in pin_ids and parent[p] >= 0:
                goal = p
                break
            base = 4 * p
            # Neighbour order East, West, South, North, as everywhere in
            # the kernel core (off-chip steps land on the -1 guard slot).
            for q in nbr_mv[base : base + 4]:
                c = cost_mv[q]
                if c < 0.0:
                    continue
                nd = d + c
                if nd < best[q]:
                    best[q] = nd
                    parent[q] = p
                    bucket = buckets.get(nd)
                    if bucket is None:
                        buckets[nd] = [q]
                        heappush(keys, nd)
                    else:
                        bucket.append(q)
        if goal >= 0:
            break
    obs.counter("escape.probes").inc()
    obs.counter("escape.probe_pops").inc(pops)
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

"""Frozen oracle for the rip-up probe, and the property that pins to it.

``reference_find_blocking_nets`` is the penalised Dijkstra probe as it
stood before ``repro.escape.ripup.find_blocking_nets`` became a FIFO Dial
bucket search over an owner-lookup cost field: a ``(distance, push
counter, cell)`` tuple heap, ``dict`` distances and parents, and one full
grid comparison per rippable net.  The rewrite must pop cells in exactly
the same order, so on every input both probes must agree on every field
of :class:`~repro.escape.ripup.ProbeResult`.
"""

import heapq
import random
from itertools import count
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.escape.ripup import ProbeResult, find_blocking_nets
from repro.geometry.point import Point
from repro.grid.grid import RoutingGrid
from repro.grid.occupancy import FAULT_NET, FREE, Occupancy
from repro.observability import context as obs
from repro.observability.metrics import Metrics
from repro.routing.core.engine import neighbour_table

_RIP_PENALTY = 1000.0


def reference_find_blocking_nets(
    grid: RoutingGrid,
    occupancy: Occupancy,
    tap_cells: Sequence[Point],
    pins: Iterable[Point],
    *,
    rippable: Set[int],
    rip_cost: Optional[Dict[int, float]] = None,
    permanent: Optional[Set[Point]] = None,
    pops: Optional[List[Tuple[int, int]]] = None,
) -> Optional[ProbeResult]:
    """The probe loop before the FIFO Dial rewrite, kept as a test oracle.

    Verbatim apart from its name, this docstring's first paragraph and
    ``pops``, which, when given, collects ``(heap pops, stale pops)``.

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
    popped = stale = 0
    while heap:
        d, _, p = heapq.heappop(heap)
        popped += 1
        if d > best.get(p, float("inf")):
            stale += 1
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
    if pops is not None:
        pops.append((popped, stale))
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


def probe_case(
    seed: int,
    width: int,
    height: int,
    layers: int,
    obstacle_density: float,
    owned_density: float,
    n_nets: int,
    multipliers: tuple,
    with_permanent: bool,
):
    """Build a random probe input; return ``(grid, occupancy, taps, pins, kwargs)``.

    Owners are drawn from ``FAULT_NET..n_nets-1`` on every layer (a
    ``FREE`` draw leaves the cell free).  Rippable ids run from
    ``FAULT_NET`` past the largest owner, so some own no cell and
    ``FREE`` itself may be rippable.  Taps mix duplicates, off-grid
    points, upper-layer 3-tuples and pins; ``multipliers`` feeds
    ``rip_cost`` (missing nets default to 1).
    """
    rng = random.Random(seed)
    grid = RoutingGrid(width, height, layers)
    cells = [Point(x, y) for y in range(height) for x in range(width)]
    grid.add_obstacles(c for c in cells if rng.random() < obstacle_density)
    occupancy = Occupancy(grid)
    owners: Dict[int, List[int]] = {}
    for cid in range(grid.size):
        if rng.random() < owned_density:
            owners.setdefault(rng.randrange(FAULT_NET, n_nets), []).append(cid)
    for net, cids in owners.items():
        if net != FREE:
            occupancy.occupy_ids(cids, net)
    ids = list(range(FAULT_NET, n_nets + 3))
    rippable = set(rng.sample(ids, rng.randint(0, len(ids))))
    rip_cost = None
    if multipliers and rng.random() < 0.8:
        rip_cost = {net: rng.choice(multipliers) for net in rippable if rng.random() < 0.7}
    off_grid = [Point(-1, 0), Point(width, height - 1), Point(0, height)]
    pins = rng.sample(cells, rng.randint(0, min(len(cells), 6)))
    pins += rng.sample(off_grid, rng.randint(0, 1))
    taps: List[tuple] = rng.sample(cells, rng.randint(1, min(len(cells), 4)))
    if pins and rng.random() < 0.3:
        taps.append(rng.choice(pins))
    taps += [rng.choice(taps) for _ in range(rng.randint(0, 2))]
    taps += rng.sample(off_grid, rng.randint(0, 1))
    if rng.random() < 0.3:
        taps.append((rng.randrange(width), rng.randrange(height), layers - 1))
    rng.shuffle(taps)
    permanent = None
    if with_permanent:
        permanent = set(rng.sample(cells, rng.randint(0, len(cells) // 3)))
        permanent.add(Point(width + 1, 0))
    kwargs = dict(rippable=rippable, rip_cost=rip_cost, permanent=permanent)
    return grid, occupancy, taps, pins, kwargs


def summary(result: Optional[ProbeResult]):
    """Every field of a probe result, comparable with ``==``."""
    if result is None:
        return None
    return result.nets, result.length, result.crossed_cells


@settings(max_examples=300, deadline=None)
@given(
    st.fixed_dictionaries(
        dict(
            seed=st.integers(0, 2**16),
            width=st.integers(1, 12),
            height=st.integers(1, 12),
            layers=st.sampled_from([1, 1, 2]),
            obstacle_density=st.sampled_from([0.0, 0.1, 0.3]),
            owned_density=st.sampled_from([0.0, 0.3, 0.6, 0.9]),
            n_nets=st.integers(1, 6),
            # -0.001 makes entering a cell cost exactly 0, which re-opens
            # the bucket being drained; -1.0 walls the net off.
            multipliers=st.sampled_from(
                [
                    (),
                    (1.0,),
                    (0.0, 1.0),
                    (0.25, 2.5, 10.0),
                    (0.0, 1e6),
                    (-0.001, 0.0, 1.0),
                    (-1.0, 3.0),
                ]
            ),
            with_permanent=st.booleans(),
        )
    )
)
def test_probe_matches_reference(case):
    grid, occupancy, taps, pins, kwargs = probe_case(**case)
    pops: List[Tuple[int, int]] = []
    want = reference_find_blocking_nets(grid, occupancy, taps, pins, pops=pops, **kwargs)
    metrics = Metrics()
    with obs.use(None, metrics):
        got = find_blocking_nets(grid, occupancy, taps, pins, **kwargs)
    assert summary(got) == summary(want)
    # A cell's step cost is the cost of entering it, so its first
    # relaxation is final: the heap never held a stale entry, which is
    # why the bucket engine needs no stale test.
    assert all(stale == 0 for _, stale in pops)
    counters = metrics.counter_values()
    assert counters.get("escape.probes", 0) == len(pops)
    assert counters.get("escape.probe_pops", 0) == sum(popped for popped, _ in pops)


"""Exactness oracle for the min-cost-flow solver's integer Dial branch.

``reference_max_flow_min_cost`` is a frozen copy of the solver loop as it
stood before three exact trims to the integer branch: the early exit once
the sink sits at the current bucket key, potentials updated on settled
nodes only (no uniform ``+d_sink`` shift), and the bucket front held
outside the heap.  The trims must not change a single augmenting path, so
on every network both solvers must report the same ``(flow, cost)`` and
the same flow on every arc.
"""

import heapq
import random
from typing import List, Optional, Tuple

import numpy as np
import pytest

from repro.flownet import MinCostFlow
from repro.flownet.mincostflow import _solve_waves

_INF = float("inf")


def reference_max_flow_min_cost(
    net: MinCostFlow,
    source: int,
    sink: int,
    max_flow: Optional[int] = None,
    d_sinks: Optional[List[float]] = None,
) -> Tuple[int, float]:
    """The pre-trim solver loop, kept as a test oracle.

    Verbatim apart from ``d_sinks``, which, when given, collects each
    augmentation's reduced sink distance.
    """
    n = net.n
    m = net._m
    order, indptr = net._adjacency()
    indptr_l = indptr.tolist()
    cto = net._to[:m][order].tolist()
    ccost = net._cost[:m][order].tolist()
    ccap = net._cap[:m][order].tolist()
    inv = np.empty(m, dtype=np.int64)
    inv[order] = np.arange(m, dtype=np.int64)
    cpair = inv[order ^ 1].tolist()
    arcs_of = list(map(range, indptr_l[:-1], indptr_l[1:]))
    int_mode = m == 0 or bool((net._cost[:m] == np.floor(net._cost[:m])).all())

    potential: List[float] = [0.0] * n
    flow_value = 0
    total_cost = 0.0
    limit = max_flow if max_flow is not None else float("inf")
    heappush = heapq.heappush
    heappop = heapq.heappop

    while flow_value < limit:
        dist = [_INF] * n
        parent = [-1] * n
        settled = bytearray(n)
        dist[source] = 0.0
        if int_mode:
            buckets: dict = {0: [source]}
            key_heap = [0]
            while key_heap:
                kb = key_heap[0]
                bucket = buckets[kb]
                heapq.heapify(bucket)
                sink_hit = False
                while bucket:
                    u = heappop(bucket)
                    if settled[u]:
                        continue
                    settled[u] = 1
                    if u == sink:
                        sink_hit = True
                        break
                    d = dist[u]
                    pot_u = potential[u]
                    for j in arcs_of[u]:
                        if ccap[j] <= 0:
                            continue
                        v = cto[j]
                        if settled[v]:
                            continue
                        nd = d + ccost[j] + pot_u - potential[v]
                        if nd < dist[v]:
                            dist[v] = nd
                            parent[v] = j
                            key = int(nd)
                            other = buckets.get(key)
                            if other is None:
                                buckets[key] = [v]
                                heappush(key_heap, key)
                            elif other is bucket:
                                heappush(bucket, v)
                            else:
                                other.append(v)
                if sink_hit:
                    break
                del buckets[kb]
                heappop(key_heap)
        else:
            heap: List[Tuple[float, int]] = [(0.0, source)]
            while heap:
                d, u = heappop(heap)
                if settled[u]:
                    continue
                settled[u] = 1
                if u == sink:
                    break
                pot_u = potential[u]
                for j in arcs_of[u]:
                    if ccap[j] <= 0:
                        continue
                    v = cto[j]
                    if settled[v]:
                        continue
                    nd = d + ccost[j] + pot_u - potential[v]
                    if nd < dist[v] - 1e-12:
                        dist[v] = nd
                        parent[v] = j
                        heappush(heap, (nd, v))
        if not settled[sink]:
            break

        d_sink = dist[sink]
        if d_sinks is not None:
            d_sinks.append(d_sink)
        if not int_mode or d_sink != 0.0:
            pot_np = np.asarray(potential, dtype=np.float64)
            pot_np += np.minimum(np.asarray(dist, dtype=np.float64), d_sink)
            potential = pot_np.tolist()

        bottleneck = limit - flow_value
        v = sink
        while v != source:
            j = parent[v]
            cap = ccap[j]
            if cap < bottleneck:
                bottleneck = cap
            v = cto[cpair[j]]
        v = sink
        while v != source:
            j = parent[v]
            ccap[j] -= bottleneck
            ccap[cpair[j]] += bottleneck
            total_cost += bottleneck * ccost[j]
            v = cto[cpair[j]]
        flow_value += int(bottleneck)

    net._cap[:m][order] = ccap
    return flow_value, total_cost


def escape_network(seed: int, *, fractional: bool = False):
    """Build a random split-cell escape network like ``solve_escape``'s.

    Each usable cell is an ``in -> out`` arc (capacity 1, cost 0), grid
    steps are ``out -> in`` arcs of cost 1, every source selector feeds
    the free neighbours of a tap cell and pins drain into the sink.  More
    sources than pins guarantees the last search fails; the zero-cost
    splits and pin arcs give many ``d_sink == 0`` ties.  ``fractional``
    perturbs the step costs off the integers, which ``add_arc`` rejects.

    Returns ``(net, source, sink, demand, forward arc ids)``.
    """
    rng = random.Random(seed)
    width = rng.randint(6, 18)
    height = rng.randint(6, 18)
    cells = [(x, y) for y in range(height) for x in range(width)]
    usable = [c for c in cells if rng.random() > 0.2]
    k_of = {c: k for k, c in enumerate(usable)}
    n_sources = rng.randint(4, 14)
    net = MinCostFlow(2 * len(usable) + 2 + n_sources)
    s_node, t_node = 2 * len(usable), 2 * len(usable) + 1
    arcs = [net.add_arc(2 * k, 2 * k + 1, 1, 0.0) for k in range(len(usable))]
    for (x, y), k in k_of.items():
        for q in ((x + 1, y), (x - 1, y), (x, y + 1), (x, y - 1)):
            if q in k_of:
                cost = 1.0 + (rng.choice((0.0, 0.25, 0.5)) if fractional else 0.0)
                arcs.append(net.add_arc(2 * k + 1, 2 * k_of[q], 1, cost))
    border = [c for c in usable if c[0] in (0, width - 1) or c[1] in (0, height - 1)]
    for pin in rng.sample(border, min(len(border), n_sources - 1)):
        arcs.append(net.add_arc(2 * k_of[pin] + 1, t_node, 1, 0.0))
    for si in range(n_sources):
        selector = 2 * len(usable) + 2 + si
        arcs.append(net.add_arc(s_node, selector, 1, 0.0))
        for cell in rng.sample(usable, rng.randint(1, 4)):
            arcs.append(net.add_arc(selector, 2 * k_of[cell], 1, rng.choice((0.0, 1.0))))
    return net, s_node, t_node, n_sources, arcs


def solve_both(seed, *, fractional=False, unbounded=False):
    """Solve one network with the solver and the oracle; compare them."""
    net, source, sink, demand, arcs = escape_network(seed, fractional=fractional)
    ref, _, _, _, ref_arcs = escape_network(seed, fractional=fractional)
    limit = None if unbounded else demand
    d_sinks: List[float] = []
    got = net.max_flow_min_cost(source, sink, max_flow=limit)
    want = reference_max_flow_min_cost(ref, source, sink, limit, d_sinks)
    assert got == want
    assert [net.flow_on(a) for a in arcs] == [ref.flow_on(a) for a in ref_arcs]
    return got[0], demand, d_sinks


@pytest.mark.parametrize("seed", range(40))
def test_integer_escape_networks_match_reference(seed):
    flow, demand, _ = solve_both(seed)
    # Fewer pins than sources: the final search always fails.
    assert flow < demand


def test_escape_networks_exercise_zero_and_positive_d_sink():
    d_sinks = [d for seed in range(40) for d in solve_both(seed)[2]]
    assert 0.0 in d_sinks
    assert any(d > 0 for d in d_sinks)


@pytest.mark.parametrize("seed", range(5))
def test_fractional_costs_rejected(seed):
    """Escape costs are 0 or 1: a fractional cost is refused at add time."""
    with pytest.raises(ValueError, match="not an integer"):
        escape_network(seed, fractional=True)


@pytest.mark.parametrize("seed", range(3))
def test_unbounded_demand_matches_reference(seed):
    solve_both(seed, unbounded=True)


def solve_public(net, source, sink, limit):
    """``max_flow_min_cost`` behind the engines' call signature."""
    flow, cost = net.max_flow_min_cost(source, sink, None if limit == _INF else limit)
    return flow, cost, None


@pytest.mark.parametrize("solve", [solve_public, _solve_waves], ids=["public", "waves"])
@pytest.mark.parametrize("seed", range(20))
def test_second_solve_continues_the_first(seed, solve):
    """Solving 1 unit and then the rest equals the one-shot solve, arc by arc.

    The potentials stay on the network, so the second call continues the
    same successive-shortest-path run over residual arcs of negative cost.
    These small networks take the scalar engine through the public call;
    the wave engine is also called directly.
    """
    split, source, sink, _, arcs = escape_network(seed)
    whole, _, _, _, whole_arcs = escape_network(seed)
    first = solve(split, source, sink, 1)
    rest = solve(split, source, sink, _INF)
    flow, cost = whole.max_flow_min_cost(source, sink)
    assert (first[0] + rest[0], first[1] + rest[1]) == (flow, cost)
    assert [split.flow_on(a) for a in arcs] == [whole.flow_on(a) for a in whole_arcs]

"""Min-cost max-flow via successive shortest paths with potentials.

Designed for the escape-routing networks PACOR builds: sparse, unit
capacities, integral arc costs of 0 and 1.  With non-negative costs the
first search needs no initialisation, and node potentials keep every
residual arc's reduced cost non-negative across augmentations, so each
shortest-path search is Dial's bucket queue with an early exit at the
sink.  The potentials live on the network: a second call continues the
same successive-shortest-path run instead of restarting from zero
potentials over residual arcs that may carry negative costs.

Arcs live in flat numpy arrays (paired forward/residual entries, like a
classic arc-list MCMF) and per-node adjacency is a CSR view built lazily
at solve time: a stable argsort of the arc tail array groups each node's
arcs in insertion order.

Two engines run the searches and produce the same augmenting paths, so
the same flow on every arc.  The engine is chosen once per solve from
the node count (``_WAVE_MIN_NODES``).

**Scalar engine** (``_solve_scalar``).  A Python loop over list copies
of the CSR arrays.  Pop order is ascending integer distance, ties broken
by ascending node id; the search stops as soon as the sink sits at the
current bucket key.  After an augmentation only the nodes settled below
``d_sink`` move, by ``dist - d_sink``: the textbook update minus a
uniform shift, which reduced costs never see.  A node's parent is the
first arc, in pop and CSR order, that offered its final distance: its
earliest-popped optimal predecessor.

**Wave engine** (``_solve_waves``).  The network state stays in numpy.
Each Dial bucket is flooded by numpy waves: a wave gathers the
positive-capacity arcs leaving the frontier, settles heads reached at
zero reduced cost into the current bucket and files positive offers
under later keys.  Distances do not depend on pop order, so they and
the potential update match the scalar engine exactly.  Parents do
depend on it, and only the ~100 nodes of each augmenting path need one,
so the waves also carry a label ``B`` from which the scalar pop order
can be recovered:

* *Pops inside a bucket follow a lowest-id flood.*  A bucket's seeds
  are the nodes offered its key by earlier buckets; popping the lowest
  pending id and pushing every zero-reduced-cost head is a
  priority-first search keyed by node id.
* *A smaller ``B`` always pops first.*  ``B(x)`` is the smallest
  possible maximum node id over zero-reduced-cost paths from the
  bucket's seeds to ``x`` (a seed's label is its own id).  For every
  ``t`` the nodes with ``B <= t`` are reachable through ids ``<= t``,
  so one of them is always pending with an id ``<= t`` while any is
  left, and a node with ``B > t`` can only be pushed by one with
  ``B > t``: the whole ``B <= t`` set pops first.
* *Equal ``B`` is settled by a replay.*  The nodes labelled ``b`` are
  exactly those reachable from node ``b`` through lower ids not popped
  before, and every other pending node then has an id above ``b``; so
  their order is a scalar lowest-id flood started at ``b`` and
  restricted to the label-``b`` group.  It runs only when candidate
  predecessors tie in ``(dist, B)`` and stops at the first candidate
  popped.
* *The final bucket is pruned.*  Once the sink is offered its key, the
  best label ``L`` among its zero-reduced-cost predecessors bounds all
  that can pop before the scalar loop stops, so label offers ``>= L``
  are dropped.  Labels below ``L`` stay exact; the predecessors in
  group ``L`` may be unlabelled, so the replay from node ``L`` counts
  every node it reaches as a candidate, labelled or not.

A path node's parent is then its optimal predecessor with the smallest
``(dist, B, replay rank)``, via that predecessor's first optimal arc in
CSR order.

Each wave is a fixed set of array calls, so the waves pay off only on
large networks.  Median of three solves per engine on the captured
escape networks of S1-S5, Chip1 and Chip2 (2-vCPU host): the scalar
loop wins up to S3's 5k nodes (S1: 0.4 vs 3.1 ms, S3: 13 vs 23 ms) and
breaks even on S4's 10k (47 vs 50 ms); the waves win on every 44-45k
S5 network (246 vs 162 ms on the largest), on Chip2's 118k (1.62 vs
0.63 s) and on Chip1's 142k (6.1 vs 2.2 s).  ``_WAVE_MIN_NODES`` sits
in that gap, so the S1-S4 networks keep the scalar loop.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.observability import context as obs
from repro.robustness.errors import FlowDecompositionError

_INF = float("inf")
# The wave engine packs ``dist << _SHIFT | label`` into one int64 per
# node; ``_NONE`` marks a node the search has not reached: it compares
# above every packed value, and its distance field exceeds any distance.
_NONE = np.iinfo(np.int64).max // 4
_SHIFT = 32
_LOW = (1 << _SHIFT) - 1
# Node count from which a solve runs the wave engine (measured crossover,
# see the module docstring).
_WAVE_MIN_NODES = 20_000
# Arcs per node in the wave engine's padded gather table; escape-network
# cell nodes have at most five.
_ROW = 5


class MinCostFlow:
    """A directed flow network with integer capacities and costs.

    Arcs are stored as paired forward/residual entries; ``add_arc``
    returns the forward arc id whose flow can be queried after solving.
    ``add_arcs`` appends a whole batch in one shot — network builders
    with hundreds of thousands of arcs should prefer it.
    """

    def __init__(self, n_nodes: int) -> None:
        if n_nodes <= 0:
            raise ValueError("network needs at least one node")
        self.n = n_nodes
        self._m = 0
        cap0 = 64
        self._to = np.empty(cap0, dtype=np.int64)
        self._tail = np.empty(cap0, dtype=np.int64)
        self._cap = np.empty(cap0, dtype=np.int64)
        self._cost = np.empty(cap0, dtype=np.int64)
        # Node potentials, kept across solves (all zero before the first).
        self._pot = np.zeros(n_nodes, dtype=np.int64)
        # CSR adjacency, rebuilt on demand when arcs were added.
        self._order: Optional[np.ndarray] = None
        self._indptr: Optional[np.ndarray] = None

    def _reserve(self, extra: int) -> None:
        need = self._m + extra
        if need <= self._to.size:
            return
        new_size = max(need, 2 * self._to.size)
        for name in ("_to", "_tail", "_cap", "_cost"):
            old = getattr(self, name)
            grown = np.empty(new_size, dtype=old.dtype)
            grown[: self._m] = old[: self._m]
            setattr(self, name, grown)

    def add_node(self) -> int:
        """Append a node and return its id."""
        self.n += 1
        self._pot = np.append(self._pot, 0)
        self._order = None
        return self.n - 1

    def add_arc(self, u: int, v: int, cap: int, cost: float) -> int:
        """Add arc ``u -> v`` and return its id (even ids are forward arcs).

        ``cost`` must be a non-negative integer (an integral float is
        accepted).  After a solve the arc must also have a non-negative
        reduced cost under the network's potentials.
        """
        if not (0 <= u < self.n and 0 <= v < self.n):
            raise ValueError(f"arc endpoints ({u},{v}) out of range")
        if cap < 0:
            raise ValueError("arc capacity must be non-negative")
        if cost < 0:
            raise ValueError(
                "negative arc costs are not supported by the Dijkstra solver"
            )
        if not float(cost).is_integer():
            raise ValueError(f"arc cost {cost!r} is not an integer")
        cost = int(cost)
        if cost + self._pot[u] - self._pot[v] < 0:
            raise ValueError("arc has a negative reduced cost after a solve")
        self._reserve(2)
        m = self._m
        self._to[m] = v
        self._tail[m] = u
        self._cap[m] = cap
        self._cost[m] = cost
        # Residual arc.
        self._to[m + 1] = u
        self._tail[m + 1] = v
        self._cap[m + 1] = 0
        self._cost[m + 1] = -cost
        self._m = m + 2
        self._order = None
        return m

    def add_arcs(
        self,
        us: Sequence[int],
        vs: Sequence[int],
        caps: Sequence[int],
        costs: Sequence[float],
    ) -> np.ndarray:
        """Add a batch of arcs ``us[i] -> vs[i]``; return their forward ids.

        Equivalent to calling :meth:`add_arc` element-wise in order, at
        array speed.  All four sequences must share one length.
        """
        us = np.ascontiguousarray(us, dtype=np.int64)
        vs = np.ascontiguousarray(vs, dtype=np.int64)
        caps = np.ascontiguousarray(caps, dtype=np.int64)
        fcosts = np.ascontiguousarray(costs, dtype=np.float64)
        k = us.size
        if not (vs.size == caps.size == fcosts.size == k):
            raise ValueError("add_arcs sequences must share one length")
        if k == 0:
            return np.empty(0, dtype=np.int64)
        for ends in (us, vs):
            if int(ends.min()) < 0 or int(ends.max()) >= self.n:
                raise ValueError("arc endpoints out of range")
        if int(caps.min()) < 0:
            raise ValueError("arc capacity must be non-negative")
        if float(fcosts.min()) < 0:
            raise ValueError(
                "negative arc costs are not supported by the Dijkstra solver"
            )
        if not (np.isfinite(fcosts) & (fcosts == np.floor(fcosts))).all():
            raise ValueError("arc costs must be integers")
        icosts = fcosts.astype(np.int64)
        if (icosts + self._pot[us] - self._pot[vs] < 0).any():
            raise ValueError("arc has a negative reduced cost after a solve")
        self._reserve(2 * k)
        m = self._m
        fwd = slice(m, m + 2 * k, 2)
        rev = slice(m + 1, m + 2 * k, 2)
        self._to[fwd] = vs
        self._to[rev] = us
        self._tail[fwd] = us
        self._tail[rev] = vs
        self._cap[fwd] = caps
        self._cap[rev] = 0
        self._cost[fwd] = icosts
        np.negative(icosts, out=self._cost[rev])
        self._m = m + 2 * k
        self._order = None
        return np.arange(m, m + 2 * k, 2, dtype=np.int64)

    def flow_on(self, arc_id: int) -> int:
        """Return the flow routed on forward arc ``arc_id``."""
        if arc_id % 2 != 0:
            raise ValueError("flow_on expects a forward arc id")
        return int(self._cap[arc_id ^ 1])

    def _adjacency(self) -> Tuple[np.ndarray, np.ndarray]:
        """CSR adjacency: ``order[indptr[u]:indptr[u+1]]`` = arcs out of u.

        The stable sort keeps each node's arcs in insertion (arc-id)
        order, matching the relaxation order of per-node append lists.
        """
        if self._order is None or self._indptr is None:
            tails = self._tail[: self._m]
            self._order = np.argsort(tails, kind="stable").astype(np.int64)
            counts = np.bincount(tails, minlength=self.n)
            indptr = np.zeros(self.n + 1, dtype=np.int64)
            np.cumsum(counts, out=indptr[1:])
            self._indptr = indptr
        return self._order, self._indptr

    def max_flow_min_cost(
        self, source: int, sink: int, max_flow: Optional[int] = None
    ) -> Tuple[int, float]:
        """Send up to ``max_flow`` units from ``source`` to ``sink``.

        Maximises the flow value first and, among maximum flows, minimises
        total cost (each augmentation follows a currently-cheapest path,
        which yields a min-cost flow for every intermediate flow value).
        A later call on the same network continues from the flow and
        potentials this one leaves behind.

        Returns ``(flow_value, total_cost)`` of this call's augmentations.
        Raises :class:`ValueError` when ``source`` or ``sink`` is not a
        node of the network, or when they are the same node.
        """
        for name, node in (("source", source), ("sink", sink)):
            if not 0 <= node < self.n:
                raise ValueError(f"{name} {node} out of range [0, {self.n})")
        if source == sink:
            raise ValueError("source and sink must differ")
        limit = max_flow if max_flow is not None else _INF
        solve = _solve_waves if self.n >= _WAVE_MIN_NODES else _solve_scalar
        flow_value, total_cost, augmentations = solve(self, source, sink, limit)
        if augmentations:
            obs.counter("mcf.augmenting_paths").inc(augmentations)
        return flow_value, float(total_cost)


def _solve_scalar(
    net: MinCostFlow, source: int, sink: int, limit: float
) -> Tuple[int, int, int]:
    """Successive shortest paths with a scalar Dial loop over list copies.

    Returns ``(flow_value, total_cost, augmentations)``.
    """
    n = net.n
    m = net._m
    order, indptr = net._adjacency()
    # CSR-contiguous plain-list copies: the scalar loop runs fastest on
    # CPython lists, and ``parent`` can store CSR slots directly.
    # ``cpair[j]`` is the CSR slot of arc j's residual partner.
    indptr_l = indptr.tolist()
    cto = net._to[:m][order].tolist()
    ccost = net._cost[:m][order].tolist()
    ccap = net._cap[:m][order].tolist()
    inv = np.empty(m, dtype=np.int64)
    inv[order] = np.arange(m, dtype=np.int64)
    cpair = inv[order ^ 1].tolist()
    # Per-node arc slices, reused across every augmentation's search.
    arcs_of = list(map(range, indptr_l[:-1], indptr_l[1:]))
    potential: List[int] = net._pot.tolist()
    flow_value = 0
    total_cost = 0
    augmentations = 0
    heappush = heapq.heappush
    heappop = heapq.heappop

    while flow_value < limit:
        dist: List[float] = [_INF] * n
        parent = [-1] * n
        settled = bytearray(n)
        dist[source] = 0
        # Dial bucket queue: pop order is ascending integer distance,
        # ties broken by ascending node id.  Monotonicity (non-negative
        # reduced costs) means inserts only ever target the current or
        # later buckets.
        buckets: Dict[int, List[int]] = {0: [source]}
        key_heap = [0]
        done: List[int] = []  # settled nodes, in pop order
        while key_heap:
            kb = key_heap[0]
            below = len(done)  # settled with dist < kb
            # Once the sink sits at the current key its distance and
            # parent arc are final: later relaxations only offer keys
            # >= kb, and ``nd < dist`` is strict.
            if dist[sink] == kb:
                break
            bucket = buckets[kb]
            heapq.heapify(bucket)
            # ``front`` (-1 when empty) holds the smallest pending id of
            # this bucket outside the heap: it is never larger than
            # ``bucket[0]``, so pops stay in id order while a
            # zero-reduced-cost chain skips the heap.
            front = -1
            while True:
                if front >= 0:
                    u = front
                    front = -1
                elif bucket:
                    u = heappop(bucket)
                else:
                    break
                if settled[u]:
                    continue
                settled[u] = 1
                done.append(u)
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
                        if nd == kb:
                            if v == sink:
                                break
                            if front < 0:
                                if bucket and bucket[0] < v:
                                    heappush(bucket, v)
                                else:
                                    front = v
                            elif v < front:
                                heappush(bucket, front)
                                front = v
                            else:
                                heappush(bucket, v)
                            continue
                        other = buckets.get(nd)
                        if other is None:
                            buckets[nd] = [v]
                            heappush(key_heap, nd)
                        else:
                            other.append(v)
                else:
                    continue
                break  # the sink joined the current bucket
            if dist[sink] == kb:
                break
            del buckets[kb]
            heappop(key_heap)
        d_sink = dist[sink]
        if d_sink == _INF:
            break
        augmentations += 1

        # Update potentials: settled nodes below ``d_sink`` move by
        # ``dist - d_sink``; the textbook uniform ``+d_sink`` is dropped,
        # since potentials only enter reduced costs as differences.
        for v in done[:below]:
            potential[v] += dist[v] - d_sink

        # Bottleneck along the path (``cto[cpair[j]]`` is arc j's
        # tail: the residual partner's head).
        bottleneck = limit - flow_value
        v = sink
        while v != source:
            j = parent[v]
            cap = ccap[j]
            if cap < bottleneck:
                bottleneck = cap
            v = cto[cpair[j]]
        # Apply augmentation.
        v = sink
        while v != source:
            j = parent[v]
            ccap[j] -= bottleneck
            ccap[cpair[j]] += bottleneck
            total_cost += bottleneck * ccost[j]
            v = cto[cpair[j]]
        flow_value += int(bottleneck)

    # Flow lives in the residual capacities: fold the CSR working copy
    # back into arc-id order so flow_on sees the solved flow.
    net._cap[:m][order] = ccap
    net._pot[:] = potential
    return flow_value, total_cost, augmentations


class _WaveState:
    """One solve's CSR arrays plus the current search's bucket keys and labels.

    ``cto``/``ccost``/``ccap``/``cpair``/``ctail`` are the arc arrays
    permuted into CSR order (``cpair[j]`` is the slot of slot j's
    residual partner), with one extra zero-capacity slot ``m`` that pads
    ``rows``: row ``u`` lists the first ``_ROW`` slots of node ``u``, so a
    wave gathers its frontier's arcs in one call.  The few nodes with
    more arcs (the source and the sink of an escape network) add their
    CSR slices.  ``ccap`` is the working residual capacity.

    ``key[v]`` packs the current search's ``dist << 32 | B`` for every
    reached node and holds ``_NONE`` otherwise, so one comparison orders
    offers by bucket, then label, and never lets a later bucket's offer
    touch a node settled earlier.
    """

    def __init__(self, net: MinCostFlow, sink: int) -> None:
        m = net._m
        n = net.n
        order, indptr = net._adjacency()
        self.order = order
        self.indptr = indptr
        self.cto = np.append(net._to[:m][order], 0)
        self.ccost = np.append(net._cost[:m][order], 0)
        self.ccap = np.append(net._cap[:m][order], 0)
        self.ctail = np.append(net._tail[:m][order], 0)
        inv = np.empty(m, dtype=np.int64)
        inv[order] = np.arange(m, dtype=np.int64)
        self.cpair = inv[order ^ 1]
        deg = np.diff(indptr)
        self.rows = np.empty((n, _ROW), dtype=np.int64)
        for col in range(_ROW):
            self.rows[:, col] = np.where(deg > col, indptr[:-1] + col, m)
        self.long = deg > _ROW
        self.pot = net._pot
        self.sink = sink
        self.key = np.empty(n, dtype=np.int64)
        self.mark = np.empty(n, dtype=np.int64)
        # ``count[:k]`` numbers a wave's k improved heads for the dedup.
        self.count = np.arange(m + 1, dtype=np.int64)
        # Search state: the final bucket's key and pruning bound (``L``,
        # ``_NONE`` when the sink was seeded rather than flooded into).
        self.d_sink = _NONE
        self.bound = _NONE
        # Zero-copy memoryviews for the scalar parent queries and replays.
        self.views = tuple(
            memoryview(arr)
            for arr in (
                indptr, self.cto, self.cpair, self.ccap, self.ccost,
                self.pot, self.key,
            )
        )
        # Resumable replays of the current search: ``(bucket, group)`` ->
        # ``(heap, seen, rank)``.
        self.replays: Dict[
            Tuple[int, int], Tuple[List[int], Set[int], Dict[int, int]]
        ] = {}
        # Work of the current search, for the ``mcf.*`` counters.
        self.waves = 0
        self.replay_pops = 0

    def _gather(self, frontier: np.ndarray) -> np.ndarray:
        """Return the CSR slots of every arc leaving ``frontier`` (plus pads)."""
        slots = self.rows.take(frontier, axis=0).ravel()
        big = frontier[self.long[frontier]]
        if big.size:
            starts = self.indptr[big] + _ROW
            counts = self.indptr[big + 1] - starts
            extra = np.arange(int(counts.sum()), dtype=np.int64)
            extra += np.repeat(starts - (np.cumsum(counts) - counts), counts)
            slots = np.concatenate((slots, extra))
        return slots

    def search(self, source: int) -> Optional[np.ndarray]:
        """Flood Dial buckets up to the sink's key; return the settled prefix.

        Returns the nodes settled below ``d_sink`` (``None`` when the
        sink is unreachable) and leaves ``key`` for the parent queries.
        """
        cto, ccost, ccap, ctail = self.cto, self.ccost, self.ccap, self.ctail
        pot, key, mark, sink = self.pot, self.key, self.mark, self.sink
        key.fill(_NONE)
        self.replays.clear()
        self.d_sink = _NONE
        self.bound = _NONE
        self.waves = 0
        self.replay_pops = 0
        # Positive offers as ``(dist, node)`` array pairs; stale entries
        # (nodes reached since) are dropped when the next bucket is picked.
        offer_d = [np.zeros(1, dtype=np.int64)]
        offer_v = [np.array([source], dtype=np.int64)]
        while True:
            ds = np.concatenate(offer_d)
            vs = np.concatenate(offer_v)
            live = key[vs] == _NONE
            ds = ds[live]
            vs = vs[live]
            if ds.size == 0:
                return None
            kb = int(ds.min())
            at = ds == kb
            seeds = np.unique(vs[at])
            offer_d = [ds[~at]]
            offer_v = [vs[~at]]
            if (seeds == sink).any():
                break
            base = kb << _SHIFT
            key[seeds] = base | seeds
            frontier = seeds
            bound = _NONE
            while frontier.size:
                self.waves += 1
                # ``x.compress(mask)`` is ``x[mask]`` at a lower per-call
                # cost, which dominates on waves of a few hundred nodes.
                slots = self._gather(frontier)
                slots = slots.compress(ccap[slots] > 0)
                heads = cto[slots]
                tails = ctail[slots]
                rc = ccost[slots] + pot[tails] - pot[heads]
                zero = rc == 0
                kh = key[heads]
                if bound == _NONE:
                    # Offers into nodes not reached yet; a tail whose
                    # label improved offers again, which the pick dedups.
                    offer = kh == _NONE
                    offer &= ~zero
                    offer_d.append(rc.compress(offer) + kb)
                    offer_v.append(heads.compress(offer))
                zt = tails.compress(zero)
                zh = heads.compress(zero)
                kh = kh.compress(zero)
                at_sink = zh == sink
                if at_sink.any():
                    bound = min(bound, int((key[zt[at_sink]] & _LOW).min()))
                    keep = ~at_sink
                    zt = zt.compress(keep)
                    zh = zh.compress(keep)
                    kh = kh.compress(keep)
                # A head's offer is its bucket and the larger of the
                # tail's label and its own id.
                offer_b = np.maximum(key[zt] & _LOW, zh)
                offer_b |= base
                if bound != _NONE:
                    np.minimum(kh, base | bound, out=kh)
                better = offer_b < kh
                if not better.any():
                    break
                zh = zh.compress(better)
                np.minimum.at(key, zh, offer_b.compress(better))
                # Dedup the improved heads: exactly one write per head
                # survives in ``mark``, whichever it is.
                pos = self.count[: zh.size]
                mark[zh] = pos
                frontier = zh.compress(mark[zh] == pos)
            if bound != _NONE:
                self.bound = bound
                break
        self.d_sink = kb
        settled = np.flatnonzero(key < (kb << _SHIFT))
        return settled

    def parent_slot(self, v: int, dv: int) -> Tuple[int, int]:
        """Return ``(slot, dist)`` of node ``v``'s parent arc and its tail.

        ``dv`` is ``v``'s distance (nodes found only by a final-bucket
        replay carry no ``key``).  The parent is the optimal predecessor
        with the smallest ``(dist, B, replay rank)``, via its first
        optimal arc in CSR order.  Runs on memoryviews: a path node has a
        handful of arcs, too few for array calls to pay.
        """
        indptr, cto, cpair, ccap, ccost, pot, key = self.views
        bound = self.bound
        final = dv == self.d_sink and bound != _NONE
        pot_v = pot[v]
        earlier: List[Tuple[int, int, int, int]] = []
        exact: List[Tuple[int, int, int]] = []
        other: List[Tuple[int, int]] = []
        for k in range(indptr[v], indptr[v + 1]):
            p = cpair[k]
            if ccap[p] <= 0:
                continue
            u = cto[k]
            ku = key[u]
            du = ku >> _SHIFT
            rc = ccost[p] + pot[u] - pot_v
            if du < dv:
                if du + rc == dv:
                    earlier.append((du, ku & _LOW, u, p))
            elif rc == 0:
                if du == dv and (not final or ku & _LOW < bound):
                    exact.append((ku & _LOW, u, p))
                elif final:
                    other.append((u, p))
        if earlier:
            d_best, b_best = min(earlier)[:2]
            tied = [(u, p) for du, b, u, p in earlier if du == d_best and b == b_best]
            return self._first_popped(tied, d_best, b_best, False), d_best
        if exact:
            b_best = min(exact)[0]
            tied = [(u, p) for b, u, p in exact if b == b_best]
            return self._first_popped(tied, dv, b_best, False), dv
        return self._first_popped(other, dv, bound, True), dv

    def _first_popped(
        self,
        cands: List[Tuple[int, int]],
        kbucket: int,
        group: int,
        final_group: bool,
    ) -> int:
        """Return the slot from the earliest-popped node among ``cands``.

        ``cands`` are ``(node, slot)`` pairs of one label group of bucket
        ``kbucket``; more than one node is ordered by a replay.  The
        winner's first optimal arc is its smallest slot.
        """
        nodes = {u for u, _ in cands}
        if len(nodes) == 1:
            winner = cands[0][0]
        else:
            winner = self._replay(group, kbucket, nodes, final_group)
        return min(p for u, p in cands if u == winner)

    def _replay(
        self, group: int, kbucket: int, stops: Set[int], final_group: bool
    ) -> int:
        """Lowest-id flood of one label group; return the first stop popped.

        A label group is exactly the set the scalar loop pops, in id
        order, from node ``group`` on before any node outside it.  In a
        fully flooded bucket its members carry ``key == kbucket << 32 |
        group``; in the pruned final bucket it is every node below
        ``group`` not settled earlier and not labelled below ``group``.
        The flood is kept per group for the whole search and resumed by
        the next query, so one search pops each group node at most once.
        """
        indptr, cto, _, ccap, ccost, pot, key = self.views
        sink = self.sink
        base = kbucket << _SHIFT
        member = base | group
        state = self.replays.get((kbucket, group))
        if state is None:
            state = ([group], {group}, {})
            self.replays[(kbucket, group)] = state
        heap, seen, rank = state
        popped = [u for u in stops if u in rank]
        if popped:
            return min(popped, key=rank.__getitem__)
        heappop = heapq.heappop
        heappush = heapq.heappush
        start = len(rank)
        while heap:
            u = heappop(heap)
            rank[u] = len(rank)
            pot_u = pot[u]
            for k in range(indptr[u], indptr[u + 1]):
                if ccap[k] <= 0:
                    continue
                w = cto[k]
                if w in seen or ccost[k] + pot_u != pot[w]:
                    continue
                kw = key[w]
                if final_group:
                    if w >= group or w == sink or kw < member:
                        continue
                elif kw != member:
                    continue
                seen.add(w)
                heappush(heap, w)
            if u in stops:
                self.replay_pops += len(rank) - start
                return u
        raise FlowDecompositionError("label-group replay missed every candidate")


def _solve_waves(
    net: MinCostFlow, source: int, sink: int, limit: float
) -> Tuple[int, int, int]:
    """Successive shortest paths with numpy-wave Dial searches.

    Same augmenting paths as :func:`_solve_scalar`; see the module
    docstring.  Returns ``(flow_value, total_cost, augmentations)``.
    """
    st = _WaveState(net, sink)
    ccap, ccost, cpair, pot = st.ccap, st.ccost, st.cpair, st.pot
    flow_value = 0
    total_cost = 0
    augmentations = 0
    while flow_value < limit:
        settled = st.search(source)
        obs.counter("mcf.waves").inc(st.waves)
        if settled is None:
            break
        d_sink = st.d_sink
        path: List[int] = []
        v, dv = sink, d_sink
        while v != source:
            if len(path) >= net.n:
                raise FlowDecompositionError("augmenting path walk revisits a node")
            j, dv = st.parent_slot(v, dv)
            path.append(j)
            v = int(st.ctail[j])
        obs.counter("mcf.replay_pops").inc(st.replay_pops)
        augmentations += 1
        pot[settled] += (st.key[settled] >> _SHIFT) - d_sink
        slots = np.array(path, dtype=np.int64)
        bottleneck = min(limit - flow_value, int(ccap[slots].min()))
        ccap[slots] -= bottleneck
        ccap[cpair[slots]] += bottleneck
        total_cost += bottleneck * int(ccost[slots].sum())
        flow_value += int(bottleneck)
    net._cap[: net._m][st.order] = ccap[:-1]
    return flow_value, total_cost, augmentations

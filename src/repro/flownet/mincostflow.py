"""Min-cost max-flow via successive shortest paths with potentials.

Designed for the escape-routing networks PACOR builds: sparse, unit-ish
capacities, non-negative arc costs.  With non-negative costs the first
Dijkstra needs no initialisation and node potentials keep all reduced
costs non-negative across augmentations, so every shortest-path search is
a plain Dijkstra with early exit at the sink.

Arcs live in flat numpy arrays (paired forward/residual entries, like a
classic arc-list MCMF) and per-node adjacency is a CSR view built lazily
at solve time: a stable argsort of the arc tail array groups each node's
arcs in insertion order, which keeps relaxation order — and therefore
tie-breaking and the solved flow — identical to the old per-node
adjacency lists.

With all-integral costs the search is a Dial bucket queue that stops as
soon as the sink sits at the current bucket key, and each augmentation
moves only the potentials of nodes settled below ``d_sink``, by ``dist -
d_sink``: the textbook update minus a uniform shift, which reduced costs
never see.  Every value stays an exact small integer, so both trims
leave each augmenting path unchanged.  Fractional costs use a binary
heap and the textbook update.
"""

from __future__ import annotations

import heapq
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.observability import context as obs

_INF = float("inf")


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
        self._cost = np.empty(cap0, dtype=np.float64)
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
        self._order = None
        return self.n - 1

    def add_arc(self, u: int, v: int, cap: int, cost: float) -> int:
        """Add arc ``u -> v`` and return its id (even ids are forward arcs)."""
        if not (0 <= u < self.n and 0 <= v < self.n):
            raise ValueError(f"arc endpoints ({u},{v}) out of range")
        if cap < 0:
            raise ValueError("arc capacity must be non-negative")
        if cost < 0:
            raise ValueError(
                "negative arc costs are not supported by the Dijkstra solver"
            )
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
        costs = np.ascontiguousarray(costs, dtype=np.float64)
        k = us.size
        if not (vs.size == caps.size == costs.size == k):
            raise ValueError("add_arcs sequences must share one length")
        if k == 0:
            return np.empty(0, dtype=np.int64)
        for ends in (us, vs):
            if int(ends.min()) < 0 or int(ends.max()) >= self.n:
                raise ValueError("arc endpoints out of range")
        if int(caps.min()) < 0:
            raise ValueError("arc capacity must be non-negative")
        if float(costs.min()) < 0:
            raise ValueError(
                "negative arc costs are not supported by the Dijkstra solver"
            )
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
        self._cost[fwd] = costs
        np.negative(costs, out=self._cost[rev])
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

        Returns ``(flow_value, total_cost)``.
        """
        if source == sink:
            raise ValueError("source and sink must differ")
        n = self.n
        m = self._m
        order, indptr = self._adjacency()
        # CSR-contiguous plain-list copies: the scalar Dijkstra loop runs
        # fastest on CPython lists, and ``parent`` can store CSR slots
        # directly.  ``cpair[j]`` is the CSR slot of arc j's residual
        # partner, ``ctail[j]`` the arc's tail node (for the path walk).
        indptr_l = indptr.tolist()
        cto = self._to[:m][order].tolist()
        ccost = self._cost[:m][order].tolist()
        ccap = self._cap[:m][order].tolist()
        inv = np.empty(m, dtype=np.int64)
        inv[order] = np.arange(m, dtype=np.int64)
        cpair = inv[order ^ 1].tolist()
        # Per-node arc slices, reused across every augmentation's search.
        arcs_of = list(map(range, indptr_l[:-1], indptr_l[1:]))
        # All-integral arc costs keep every distance and potential an
        # exact small integer (float64 is exact there), which admits a
        # Dial-style bucket queue below.  PACOR's escape networks only
        # use costs 0 and 1; fractional costs fall back to a binary heap.
        int_mode = m == 0 or bool(
            (self._cost[:m] == np.floor(self._cost[:m])).all()
        )

        potential: List[float] = [0.0] * n
        flow_value = 0
        total_cost = 0.0
        limit = max_flow if max_flow is not None else float("inf")
        augmentations = 0
        heappush = heapq.heappush
        heappop = heapq.heappop

        while flow_value < limit:
            dist = [_INF] * n
            parent = [-1] * n
            settled = bytearray(n)
            dist[source] = 0.0
            if int_mode:
                # Dial bucket queue: pop order is ascending integer
                # distance, ties broken by ascending node id — exactly
                # the (distance, node) tuple-heap order, at int-heap
                # cost.  Monotonicity (non-negative reduced costs) means
                # inserts only ever target the current or later buckets.
                buckets: dict = {0: [source]}
                key_heap = [0]
                done: List[int] = []  # settled nodes, in pop order
                while key_heap:
                    kb = key_heap[0]
                    below = len(done)  # settled with dist < kb
                    # Once the sink sits at the current key its distance
                    # and parent arc are final: later relaxations only
                    # offer keys >= kb, and ``nd < dist`` is strict.
                    if dist[sink] == kb:
                        break
                    bucket = buckets[kb]
                    heapq.heapify(bucket)
                    # ``front`` (-1 when empty) holds the smallest pending
                    # id of this bucket outside the heap: it is never
                    # larger than ``bucket[0]``, so pops stay in id order
                    # while a zero-reduced-cost chain skips the heap.
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
                            # Same association order as the fractional
                            # branch; the 1e-12 slack is dropped because
                            # for exact integers it equals the strict
                            # compare.
                            nd = d + ccost[j] + pot_u - potential[v]
                            if nd < dist[v]:
                                dist[v] = nd
                                parent[v] = j
                                key = int(nd)
                                if key == kb:
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
                                other = buckets.get(key)
                                if other is None:
                                    buckets[key] = [v]
                                    heappush(key_heap, key)
                                else:
                                    other.append(v)
                        else:
                            continue
                        break  # the sink joined the current bucket
                    if dist[sink] == kb:
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
            d_sink = dist[sink]
            if d_sink == _INF:
                break
            augmentations += 1

            # Update potentials.  Textbook early exit: settled nodes move
            # by their distance, the rest by d_sink.  In integer mode the
            # uniform +d_sink is dropped — potentials only enter reduced
            # costs as differences, and every value is an exact small
            # integer — so only nodes settled below d_sink move, by
            # ``dist - d_sink``.  The fractional branch keeps the
            # vectorised form: ``min(inf, d_sink) == d_sink`` folds both
            # cases into one ``minimum``.
            if int_mode:
                for v in done[:below]:
                    potential[v] += dist[v] - d_sink
            else:
                pot_np = np.asarray(potential, dtype=np.float64)
                pot_np += np.minimum(np.asarray(dist, dtype=np.float64), d_sink)
                potential = pot_np.tolist()

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

        # Flow lives in the residual capacities: fold the CSR working
        # copy back into arc-id order so flow_on sees the solved flow.
        self._cap[:m][order] = ccap
        if augmentations:
            obs.counter("mcf.augmenting_paths").inc(augmentations)
        return flow_value, total_cost

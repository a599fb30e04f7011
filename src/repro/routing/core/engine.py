"""The shared search engine under all four routing kernels.

One frontier/parent/cost substrate serves Section 3's point/point,
point/path and path/path A* (and Algorithm 1's inner search, which adds
negotiation history costs), the Lee wave-propagation oracle, and §6's
bounded-length modified A*.  Every search here operates purely on
``int`` cell ids over a :class:`~repro.routing.core.space.SearchSpace`
blocked-mask — neighbours come from one cached table, routability is
one mask read, and ``Point`` objects only reappear when the caller
materialises the returned id path.

There is one engine per search kind, and every engine is driven by the
same three inputs, whatever the grid's layer count:

* the **neighbour table** (:func:`neighbour_table`): row ``p`` lists the
  E/W/S/N candidates — plus Up/Down on a multi-layer grid — with every
  invalid move an explicit ``-1``;
* a per-direction **step-cost tuple**: planar moves cost 1, vertical
  moves ``grid.via_cost`` in A* and ``grid.via_length`` in bounded
  search;
* one memoised **heuristic table** (:func:`_heuristic_table`): planar
  L1 to the target bounding box plus the vertical step cost times the
  layer distance.

Two engines back :func:`astar_search`.  When every step costs 1 (no
history surcharge, unit via cost) the *vectorised wave* engine runs:
the open set is a heap of ``(f, g)`` bucket keys, each bucket holding
ndarray chunks of cell ids in push order, and a whole bucket's frontier
is expanded with batched numpy gathers — neighbour generation,
blocking, relaxation and first-arrival dedup are all C-speed array ops.
Otherwise the *scalar* heap engine runs (also the reference the
property tests compare against): the classic per-cell loop, reading
the mask through a ``memoryview`` and heuristics from the table.  Both
produce bit-identical paths and counters on unit-cost queries: bucket
FIFO order equals the scalar heap's ``(f, g, tie)`` order because ties
only ever break by push time, and first-occurrence dedup equals scalar
first-relax-wins.

A failed scalar search settles the whole free component around its
sources before it gives up, and negotiation re-queries its failed
edges every round.  So the scalar engine sits behind an exact
*walled-pocket check* (:func:`_walled_off`): a bidirectional flood that
grows the smaller side first and returns ``None`` as soon as either
side's component runs out — at the cost of the pocket, not the chip.
The wave engine has no such check: its failures are few, and its flood
would start from hundreds of seeds per side.  A pruned query charges
nothing to a budget or to ``astar.expansions``; it counts in
``astar.pruned``, and every flood's touched cells in
``astar.pocket_cells``.

Semantics are pinned to the pre-refactor kernels:

* neighbour order is East, West, South, North, then Up, Down (the
  order ``Point.neighbors4`` yielded), so tie-breaks — and therefore
  the returned paths — are bit-identical;
* a history-weighted step costs ``g + (step + history[q])``, the
  planar float association;
* ``astar.expansions`` charges one per settled non-target cell, through
  :meth:`~repro.robustness.budget.Budget.charge_expansions` when a
  budget is present (the budget's shared counter stays the single
  tally) and flushed to the active metrics registry once per query
  otherwise;
* ``astar.heap_pushes`` counts real heap pushes — initial source seeds
  are *not* pushes (they were miscounted before this engine existed,
  skewing multi-source queries);
* ``bounded.states`` counts states popped past the target check,
  exactly as before; ``bounded.reopened`` counts searches that drained
  their ``(cell, g)`` state graph without an answer and re-ran with
  own-set-disambiguated states (the completeness fallback).

The id sets used here only feed order-insensitive reductions (bounding
boxes, membership tests, idempotent mask writes), which is why this
package is whitelisted by pacorlint's DET003 set-iteration rule.
"""

from __future__ import annotations

import heapq
from itertools import count
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.observability import context as obs
from repro.robustness import faults
from repro.robustness.budget import Budget
from repro.robustness.errors import BudgetExceeded
from repro.routing.core.space import SearchSpace

_INF = float("inf")

_UNSEEN32 = 2**30
"""Unvisited sentinel in the wave engine's int32 best-g array."""

_SMALL_BUCKET = 12
"""Wave buckets at or below this size run the per-cell sub-loop.

Each vectorised bucket step costs a fixed ~25 numpy dispatches; below
roughly a dozen cells the plain Python loop over the same state arrays
is cheaper.  Both paths settle cells in identical order, so the
threshold is pure tuning."""

_GUARD_NOTE = """Guard-slot indexing convention.

Every invalid move in the neighbour table — off a column edge, off a
row edge, off the top or bottom layer, or through a via keep-out — is
an explicit ``-1``.  Engine work arrays are therefore allocated
``size + 1`` long: the one extra slot at index ``size`` holds the
blocked sentinel, and a ``-1`` candidate wraps onto it under numpy
fancy indexing and Python ``memoryview`` indexing alike.  Blocked cells
hold the same sentinel, so one ``best_g[q]`` read folds the bounds
test, the blocked test and the relaxation test into a single compare."""


_NBR_TABLES: Dict[Tuple, "np.ndarray"] = {}
"""Neighbour tables: row ``p`` = E/W/S/N (then U/D) candidate ids.

Keyed by ``(width, height)`` on a planar grid; a multi-layer key adds
the layer count and the grid's planar via-permission mask (as raw
bytes), so a carved via keep-out can never alias a stale table."""

_NBR_CACHE_MAX = 8

_HTAB_CACHE: Dict[Tuple, "np.ndarray"] = {}
"""Memoised heuristic tables keyed by grid shape, target bbox and step."""

_HTAB_CACHE_MAX = 128

_PENALTY_WEIGHT = 2.0
"""Bounded search: F-value penalty per missing length unit below the bound."""

Cell = Tuple[int, int]
"""An ``(x, y)`` cell at the engine boundary (``Point`` unpacks to one).

Multi-layer queries may pass ``(x, y, z)`` triples; a 2-tuple is always
layer 0 (the canonical mixed-arity cell rule)."""


def neighbour_table(
    width: int,
    height: int,
    layers: int = 1,
    via_mask: Optional["np.ndarray"] = None,
) -> "np.ndarray":
    """Return the cached neighbour-id table (see ``_GUARD_NOTE``).

    The table is ``(size, 4)`` (E/W/S/N) on a planar grid and
    ``(size, 6)`` (E/W/S/N/U/D) otherwise; U/D are gated by
    ``via_mask``, the grid's planar via-permission mask (unused, and
    not part of the cache key, on a planar grid).
    """
    if layers == 1:
        key: Tuple = (width, height)
    else:
        key = (width, height, layers, via_mask.tobytes())
    table = _NBR_TABLES.get(key)
    if table is None:
        if len(_NBR_TABLES) >= _NBR_CACHE_MAX:
            _NBR_TABLES.clear()
        plane = width * height
        ids = np.arange(plane * layers, dtype=np.int32)
        table = np.empty((ids.size, 4 if layers == 1 else 6), dtype=np.int32)
        xs = ids % width
        ys = (ids // width) % height
        table[:, 0] = np.where(xs == width - 1, -1, ids + 1)
        table[:, 1] = np.where(xs == 0, -1, ids - 1)
        table[:, 2] = np.where(ys == height - 1, -1, ids + width)
        table[:, 3] = np.where(ys == 0, -1, ids - width)
        if layers > 1:
            zs = ids // plane
            no_via = np.tile(via_mask == 0, layers)
            table[:, 4] = np.where((zs == layers - 1) | no_via, -1, ids + plane)
            table[:, 5] = np.where((zs == 0) | no_via, -1, ids - plane)
        _NBR_TABLES[key] = table
    return table


def _space_table(space: SearchSpace) -> "np.ndarray":
    """Return the neighbour table for ``space``'s grid."""
    return neighbour_table(
        space.width, space.height, space.layers, space.grid.via_mask()
    )


def _steps(space: SearchSpace, vertical: int) -> Tuple[int, ...]:
    """Return the per-direction step costs matching the neighbour table."""
    if space.layers == 1:
        return (1, 1, 1, 1)
    return (1, 1, 1, 1, vertical, vertical)


def _heuristic_table(
    width: int,
    height: int,
    layers: int,
    bbox: Tuple[int, int, int, int, int, int],
    step_z: int,
) -> "np.ndarray":
    """Return the memoised per-cell lower bound to the target bbox (int32).

    Each search step either shrinks the planar distance by at most 1 (at
    cost 1) or the layer distance by at most 1 (at cost ``step_z``), so
    ``planar_L1 + step_z * z_distance`` is an admissible, consistent
    bound whenever ``step_z`` is the true vertical step cost.  On a
    planar grid (targets on layer 0) it is the plain bbox L1.
    Negotiation re-queries the same edges every rip-up round, hence the
    memo.
    """
    key = (width, height, layers, *bbox, step_z)
    table = _HTAB_CACHE.get(key)
    if table is None:
        if len(_HTAB_CACHE) >= _HTAB_CACHE_MAX:
            _HTAB_CACHE.clear()
        xlo, xhi, ylo, yhi, zlo, zhi = bbox
        xs = np.arange(width, dtype=np.int32)
        hx = np.maximum(xlo - xs, 0) + np.maximum(xs - xhi, 0)
        ys = np.arange(height, dtype=np.int32)
        hy = np.maximum(ylo - ys, 0) + np.maximum(ys - yhi, 0)
        hxy = (hy[:, None] + hx[None, :]).reshape(-1)
        zs = np.arange(layers, dtype=np.int32)
        hz = (np.maximum(zlo - zs, 0) + np.maximum(zs - zhi, 0)) * np.int32(
            step_z
        )
        table = np.ascontiguousarray((hz[:, None] + hxy[None, :]).reshape(-1))
        _HTAB_CACHE[key] = table
    return table


def _cell3(c: Cell) -> Tuple[int, int, int]:
    """Normalise a mixed-arity cell to an ``(x, y, z)`` triple."""
    if len(c) == 3:
        return (c[0], c[1], c[2])
    return (c[0], c[1], 0)


def _cell_ids(
    space: SearchSpace, cells: Iterable[Tuple[int, int, int]]
) -> List[int]:
    """Return the ids of the on-chip ``(x, y, z)`` cells, in order."""
    width = space.width
    height = space.height
    layers = space.layers
    plane = space.plane
    return [
        z * plane + y * width + x
        for x, y, z in cells
        if 0 <= x < width and 0 <= y < height and 0 <= z < layers
    ]


def _target_setup(
    space: SearchSpace, target_xyz: set
) -> Tuple[set, Tuple[int, int, int, int, int, int]]:
    """Return (on-chip target ids, heuristic bbox) for a target set.

    Membership is tested on settled (on-chip) cells only, so off-chip
    targets never match — but they do stretch the heuristic bounding
    box, exactly as they did pre-refactor.
    """
    xlo = min(t[0] for t in target_xyz)
    xhi = max(t[0] for t in target_xyz)
    ylo = min(t[1] for t in target_xyz)
    yhi = max(t[1] for t in target_xyz)
    zlo = min(t[2] for t in target_xyz)
    zhi = max(t[2] for t in target_xyz)
    return set(_cell_ids(space, target_xyz)), (xlo, xhi, ylo, yhi, zlo, zhi)


def _trace_back(parent_mv: memoryview, t: int) -> List[int]:
    """Return the root-to-``t`` id path along ``parent`` (root = -1)."""
    ids = [t]
    back = parent_mv[t]
    while back >= 0:
        ids.append(back)
        back = parent_mv[back]
    ids.reverse()
    return ids


def _charge_exact(budget: Budget, n: int) -> None:
    """Charge ``n`` expansions with scalar-exact exhaustion semantics.

    When the batch would cross the expansion limit, charge singly so the
    raised ``BudgetExceeded`` carries ``used == limit + 1`` — the exact
    cell the per-pop reference loop would have died on."""
    limit = budget.astar_expansions
    if limit is not None and budget.expansions_used + n > limit:
        for _ in range(n):
            budget.charge_expansions(1)
        return
    budget.charge_expansions(n)


def astar_search(
    space: SearchSpace,
    sources: Iterable[Cell],
    targets: Iterable[Cell],
    *,
    history: Optional[Sequence[float]] = None,
    max_expansions: Optional[int] = None,
    budget: Optional[Budget] = None,
) -> Optional[List[int]]:
    """A*-route from any source cell to any target cell, on cell ids.

    Args:
        space: the query's fused routability view.
        sources: starting cells; each routable one seeds the search
            with cost 0.
        targets: goal cells; the search stops at the first one settled.
            The admissible L1 heuristic aims at the target bounding box
            (exact for a single target).
        history: per-cell negotiation history cost, flat array indexed
            by cell id; added to the step cost when entering a cell.
        max_expansions: optional per-query cap on settled cells; fails
            soft (returns None).
        budget: run-wide compute budget; every settled cell is charged
            and exhaustion raises :class:`BudgetExceeded`.

    Returns:
        The cheapest source-to-target path as a cell-id list, or None.

    Raises:
        BudgetExceeded: the run-wide ``budget`` ran out mid-search.
    """
    if budget is not None and faults.fires("astar_budget_exhaustion"):
        raise BudgetExceeded(
            "injected search-budget exhaustion",
            kind="astar-expansions",
            limit=budget.expansions_used,
            used=budget.expansions_used,
            stage="astar",
        )
    target_xyz = {_cell3(t) for t in targets}
    source_xyz = [_cell3(s) for s in sources]
    if not target_xyz or not source_xyz:
        return None
    steps = _steps(space, space.grid.via_cost)
    if history is None and all(step == 1 for step in steps):
        # Unit step costs: the vectorised wave engine settles whole
        # (f, g) buckets per step.  Budget limits keep scalar-exact
        # exhaustion points via _charge_exact.
        return _astar_wave(
            space, source_xyz, target_xyz, max_expansions, budget
        )
    # History surcharges (or weighted via steps) make step costs floats;
    # (f, g) buckets degenerate there, so the scalar loop is the engine.
    # A failed scalar search floods the whole free component first, so
    # prove unreachable queries with the cheaper walled-pocket flood.
    if _walled_off(space, source_xyz, target_xyz):
        return None
    return _astar_scalar(
        space, source_xyz, target_xyz, steps, history, max_expansions, budget
    )


def _walled_off(
    space: SearchSpace,
    source_xyz: List[Tuple[int, int, int]],
    target_xyz: set,
) -> bool:
    """Return True when no free path joins any source to any target.

    A bidirectional, balanced flood over the blocked mask: each side
    starts from its routable on-chip cells, and the side with fewer
    visited cells always grows next.  The query is walled off as soon
    as either side's queue empties — that side's whole free component
    is then known and holds no cell of the other side — and reachable
    as soon as one side touches the other.  Either way the flood costs
    about twice the smaller side's reach, never the whole component a
    failed search settles.  Touched cells are counted in
    ``astar.pocket_cells`` and walled-off queries in ``astar.pruned``;
    neither is charged to a budget or to ``astar.expansions``.
    """
    # One mark per cell plus the guard slot (see _GUARD_NOTE): 1 is
    # blocked or off-grid, 2 reached from the sources, 3 from the targets.
    mark = bytearray(space.blocked.tobytes())
    mark.append(1)
    queues: Tuple[List[int], List[int]] = ([], [])
    touched = False
    for side, xyz in enumerate((source_xyz, sorted(target_xyz))):
        tag = 2 + side
        for c in _cell_ids(space, xyz):
            if mark[c] == 0:
                mark[c] = tag
                queues[side].append(c)
            elif mark[c] == 5 - tag:
                touched = True
    table = _space_table(space)
    ncols = table.shape[1]
    nbr = memoryview(table.reshape(-1))
    heads = [0, 0]
    while (
        not touched
        and heads[0] < len(queues[0])
        and heads[1] < len(queues[1])
    ):
        side = 0 if len(queues[0]) <= len(queues[1]) else 1
        queue = queues[side]
        tag = 2 + side
        base = ncols * queue[heads[side]]
        heads[side] += 1
        for q in nbr[base : base + ncols]:
            m = mark[q]
            if m == 0:
                mark[q] = tag
                queue.append(q)
            elif m == 5 - tag:
                touched = True
                break
    obs.counter("astar.pocket_cells").inc(len(queues[0]) + len(queues[1]))
    if not touched:
        obs.counter("astar.pruned").inc()
    return not touched


def _astar_scalar(
    space: SearchSpace,
    source_xyz: List[Tuple[int, int, int]],
    target_xyz: set,
    steps: Tuple[int, ...],
    history: Optional[Sequence[float]],
    max_expansions: Optional[int],
    budget: Optional[Budget],
) -> Optional[List[int]]:
    """The reference heap engine: per-cell loop, exact budget semantics."""
    size = space.size
    ncols = len(steps)
    pairs = tuple((k, float(step)) for k, step in enumerate(steps))

    target_ids, bbox = _target_setup(space, target_xyz)
    # Heuristic lookups move out of the hot loop into one vectorised
    # table build; the int32 memoryview makes the per-push read a plain
    # C buffer index instead of an ndarray scalar access.
    htab = _heuristic_table(
        space.width, space.height, space.layers, bbox, steps[-1]
    ).data
    nbr_mv = memoryview(_space_table(space).reshape(-1))

    # Guard-slot best-g array (see _GUARD_NOTE): blocked cells and the
    # guard hold -inf, so one ``best_g[q]`` read folds the bounds test,
    # the blocked test and the relaxation test into a float compare.
    best_g = np.full(size + 1, _INF, dtype=np.float64)
    best_g[size] = -_INF
    best_g[:size][space.blocked.view(np.bool_)] = -_INF
    bg_mv = best_g.data
    parent = np.empty(size, dtype=np.int32)
    parent_mv = parent.data
    heap: List[Tuple[float, float, int, int]] = []
    tie = 0

    for s in _cell_ids(space, source_xyz):
        if bg_mv[s] == -_INF:
            continue
        if s in target_ids:
            return [s]
        bg_mv[s] = 0.0
        parent_mv[s] = -1
        heapq.heappush(heap, (htab[s], 0.0, tie, s))
        tie += 1

    # Expansion accounting is unified: with a budget, the budget's shared
    # counter (registered as ``astar.expansions`` in the metrics registry
    # by the router) is the single tally — ``max_expansions`` reads the
    # per-query delta off it.  Without a budget a local count is kept and
    # flushed to the active registry once per query, so the disabled-
    # metrics hot loop stays free of instrument calls.
    query_start = budget.expansions_used if budget is not None else 0
    expansions = 0
    pushes = 0
    push = heapq.heappush
    pop = heapq.heappop
    ninf = -_INF
    try:
        while heap:
            f, g, _, p = pop(heap)
            if g > bg_mv[p]:
                continue
            if p in target_ids:
                return _trace_back(parent_mv, p)
            if budget is not None:
                budget.charge_expansions(1)
                if (
                    max_expansions is not None
                    and budget.expansions_used - query_start > max_expansions
                ):
                    return None
            else:
                expansions += 1
                if max_expansions is not None and expansions > max_expansions:
                    return None
            base = ncols * p
            # Every invalid or blocked candidate lands on a -inf best-g
            # slot and is dropped before its history cost is even read.
            for k, step in pairs:
                q = nbr_mv[base + k]
                bq = bg_mv[q]
                if bq == ninf:
                    continue
                ng = g + step if history is None else g + (step + history[q])
                if ng < bq:
                    bg_mv[q] = ng
                    parent_mv[q] = p
                    push(heap, (ng + htab[q], ng, tie, q))
                    tie += 1
                    pushes += 1
        return None
    finally:
        if budget is None and expansions:
            obs.counter("astar.expansions").inc(expansions)
        if pushes:
            obs.counter("astar.heap_pushes").inc(pushes)


def _astar_wave(
    space: SearchSpace,
    source_xyz: List[Tuple[int, int, int]],
    target_xyz: set,
    max_expansions: Optional[int],
    budget: Optional[Budget],
) -> Optional[List[int]]:
    """Vectorised unit-cost A*: settle whole (f, g) buckets per step.

    Exactly equivalent to :func:`_astar_scalar` with ``history=None`` and
    all-ones steps:

    * the scalar heap orders entries by ``(f, g, push-time)``; here the
      key heap orders ``(f, g)`` buckets and each bucket keeps push
      order, so the settle order is identical (all entries of a bucket
      are pushed before the first is popped — predecessors have
      strictly smaller ``(f, g)`` keys);
    * within one batch, candidates are generated parent-major in table
      column order — the scalar push order — and the first-occurrence
      scatter dedup reproduces scalar first-relax-wins;
    * stale heap entries (cell relaxed to a smaller g after the push)
      are dropped by the ``best_g[cells] == g`` liveness filter, which
      is the scalar ``g > best_g`` skip;
    * expansions are charged per settled non-target cell in settle
      order, so budget exhaustion (see :func:`_charge_exact`) and the
      ``max_expansions`` fail-soft point land on exactly the same cell
      as the scalar loop.

    State arrays carry the blocked-sentinel guard slot (``_GUARD_NOTE``),
    which folds the bounds test, the blocked test and the relaxation
    test into a single ``best_g[q] > g + 1`` comparison.  Buckets at or
    below ``_SMALL_BUCKET`` cells run a per-cell Python sub-loop over
    the same arrays instead of paying ~25 fixed numpy dispatches.
    """
    size = space.size

    target_ids, bbox = _target_setup(space, target_xyz)
    htab = _heuristic_table(space.width, space.height, space.layers, bbox, 1)
    htab_mv = htab.data
    nbr = _space_table(space)
    ncols = nbr.shape[1]
    nbr_flat_mv = nbr.reshape(-1).data

    # Target detection: with a handful of targets, a per-bucket Python
    # membership probe (is a target's best_g == g, and its f this f?)
    # beats allocating and gathering a whole target mask.
    target_tuple = tuple(sorted(target_ids))
    tmask: Optional["np.ndarray"] = None
    if len(target_tuple) > 8:
        tmask = np.zeros(size, dtype=np.uint8)
        tmask[_as_ids(target_ids)] = 1

    # best_g with guard slot: UNSEEN on open cells, -1 on blocked cells
    # and the guard, so ``best_g[q] > ng`` is the whole neighbour test.
    best_g = np.empty(size + 1, dtype=np.int32)
    best_g[:size] = _UNSEEN32
    best_g[size] = -1
    best_g[:size][space.blocked.view(np.bool_)] = -1
    bg_mv = best_g.data
    parent = np.empty(size, dtype=np.int32)
    parent_mv = parent.data
    stamp = np.empty(size, dtype=np.intp)

    # Buckets keyed by (f, g): ndarray chunks plus a Python-list tail
    # (the small-bucket sub-loop appends single ids), both in push
    # order.  A key enters the heap exactly once, at bucket creation.
    buckets: Dict[Tuple[int, int], List["np.ndarray"]] = {}
    tails: Dict[Tuple[int, int], List[int]] = {}
    key_heap: List[Tuple[int, int]] = []
    pop = heapq.heappop
    push = heapq.heappush

    for s in _cell_ids(space, source_xyz):
        if bg_mv[s] == -1:
            continue
        if s in target_ids:
            return [s]
        best_g[s] = 0
        parent[s] = -1
        key = (htab_mv[s], 0)
        tail = tails.get(key)
        if tail is None:
            buckets[key] = []
            tails[key] = [s]
            push(key_heap, key)
        else:
            tail.append(s)

    expansions = 0
    pushes = 0
    try:
        while key_heap:
            key = pop(key_heap)
            chunks = buckets.pop(key)
            tail = tails.pop(key, None)
            f, g = key
            ng = g + 1
            if chunks:
                n_raw = int(chunks[0].size) if len(chunks) == 1 else sum(
                    int(c.size) for c in chunks
                )
            else:
                n_raw = 0
            if tail:
                n_raw += len(tail)

            if n_raw <= _SMALL_BUCKET:
                # Per-cell sub-loop: same arrays, same settle order.
                cells_py: List[int] = []
                for chunk in chunks:
                    cells_py.extend(chunk.tolist())
                if tail:
                    cells_py.extend(tail)
                for p in cells_py:
                    if bg_mv[p] != g:
                        continue
                    if p in target_ids:
                        return _trace_back(parent_mv, p)
                    expansions += 1
                    if budget is not None:
                        budget.charge_expansions(1)
                    if (
                        max_expansions is not None
                        and expansions > max_expansions
                    ):
                        return None
                    base = ncols * p
                    for k in range(ncols):
                        q = nbr_flat_mv[base + k]
                        if bg_mv[q] <= ng:
                            continue
                        bg_mv[q] = ng
                        parent_mv[q] = p
                        pushes += 1
                        nkey = (ng + htab_mv[q], ng)
                        ntail = tails.get(nkey)
                        if ntail is None:
                            buckets[nkey] = []
                            tails[nkey] = [q]
                            push(key_heap, nkey)
                        else:
                            ntail.append(q)
                continue

            if tail:
                chunks.append(np.asarray(tail, dtype=np.int32))
            cells = (
                chunks[0] if len(chunks) == 1 else np.concatenate(chunks)
            )
            lmask = best_g[cells] == g
            live = cells if lmask.all() else cells[lmask]
            n_live = int(live.size)
            if not n_live:
                continue
            # First settled target, if any: probe the few targets
            # directly (one is in this bucket iff it was relaxed to g
            # and its f-key is this bucket's f), or gather the mask.
            jt: Optional[int] = None
            if tmask is None:
                for t in target_tuple:
                    if bg_mv[t] == g and f == g + htab_mv[t]:
                        pos = int((live == t).argmax())
                        if jt is None or pos < jt:
                            jt = pos
            else:
                hits = tmask[live]
                if hits.any():
                    jt = int(np.argmax(hits))
            # Charge exactly what the scalar loop would have: the cells
            # settled before the first target hit (or before the cap
            # tripped).  ``max_expansions`` fails soft on the same cell.
            allowance = (
                None if max_expansions is None else max_expansions - expansions
            )
            if jt is not None and (allowance is None or jt <= allowance):
                if jt:
                    expansions += jt
                    if budget is not None:
                        _charge_exact(budget, jt)
                return _trace_back(parent_mv, int(live[jt]))
            settled = n_live if jt is None else jt
            if allowance is not None and settled > allowance:
                charge = allowance + 1
                expansions += charge
                if budget is not None:
                    _charge_exact(budget, charge)
                return None
            expansions += settled
            if budget is not None and settled:
                _charge_exact(budget, settled)

            # Expand the whole bucket: one 2D gather yields neighbours
            # parent-major in table column order; the guard slot absorbs
            # invalid candidates (see _GUARD_NOTE).
            flat = nbr[live].reshape(-1)
            keep = (best_g[flat] > ng).nonzero()[0]
            if not keep.size:
                continue
            q = flat[keep]
            # First-occurrence dedup without a sort: reversed scatter
            # makes the earliest write win, then survivors are the
            # positions that read their own index back.
            stamp[q[::-1]] = keep[::-1]
            sel = (stamp[q] == keep).nonzero()[0]
            if sel.size != q.size:
                q = q[sel]
                keep = keep[sel]
            best_g[q] = ng
            parent[q] = live[keep // ncols]
            pushes += int(q.size)
            fq = htab[q] + ng
            fmin = int(fq.min())
            fmax = int(fq.max())
            if fmin == fmax:
                _wave_push(buckets, tails, key_heap, (fmin, ng), q)
            else:
                # The heuristic moves at most 1 per unit step, so a
                # bucket spreads over at most f, f+1, f+2.
                for fv in range(fmin, fmax + 1):
                    m2 = fq == fv
                    if m2.any():
                        _wave_push(
                            buckets, tails, key_heap, (fv, ng), q[m2]
                        )
        return None
    finally:
        if budget is None and expansions:
            obs.counter("astar.expansions").inc(expansions)
        if pushes:
            obs.counter("astar.heap_pushes").inc(pushes)


def _wave_push(
    buckets: Dict[Tuple[int, int], List["np.ndarray"]],
    tails: Dict[Tuple[int, int], List[int]],
    key_heap: List[Tuple[int, int]],
    key: Tuple[int, int],
    chunk: "np.ndarray",
) -> None:
    """Append a chunk to a bucket, preserving arrival order.

    Single-id pushes from the small-bucket sub-loop accumulate in the
    bucket's Python-list tail; an array chunk arriving later flushes
    that tail first so the bucket's contents stay in push order.
    """
    tail = tails.get(key)
    if tail is None:
        buckets[key] = [chunk]
        tails[key] = []
        heapq.heappush(key_heap, key)
        return
    bucket = buckets[key]
    if tail:
        bucket.append(np.asarray(tail, dtype=np.int32))
        tail.clear()
    bucket.append(chunk)


def _as_ids(ids: Iterable[int]) -> "np.ndarray":
    """Return an int64 index array over a small id collection."""
    seq = ids if isinstance(ids, (list, tuple, set, frozenset)) else list(ids)
    return np.fromiter(seq, dtype=np.int64, count=len(seq))


def bfs_search(
    space: SearchSpace,
    sources: Iterable[Cell],
    targets: Iterable[Cell],
) -> Optional[List[int]]:
    """BFS-route (Lee wave propagation) on cell ids, unit step costs.

    Same blocking rules and multi-source/multi-target interface as
    :func:`astar_search` with no history costs; the returned path has
    guaranteed-minimum length (via steps count as one level — Lee's
    oracle is unweighted).  Propagation is whole-frontier: each BFS
    level expands as one batch of neighbour-table gathers, with
    first-occurrence dedup standing in for the scalar visited check
    (the property tests pin it to a scalar deque reference).
    """
    size = space.size
    blocked = space.blocked
    blocked_mv = memoryview(blocked)

    target_xyz = {_cell3(t) for t in targets}
    source_xyz = [_cell3(s) for s in sources]
    if not target_xyz or not source_xyz:
        return None
    target_ids = set(_cell_ids(space, target_xyz))
    tmask = np.zeros(size, dtype=np.uint8)
    if target_ids:
        tmask[_as_ids(target_ids)] = 1
    nbr = _space_table(space)
    ncols = nbr.shape[1]

    # parent: -2 unvisited, -1 source root, else predecessor cell id.
    parent = np.full(size, -2, dtype=np.int32)
    seeds: List[int] = []
    for s in _cell_ids(space, source_xyz):
        if blocked_mv[s] or parent[s] != -2:
            continue
        parent[s] = -1
        if s in target_ids:
            return [s]
        seeds.append(s)
    frontier = np.asarray(seeds, dtype=np.int32)

    while frontier.size:
        flat = nbr[frontier].reshape(-1)
        idx = np.flatnonzero(flat >= 0)
        q = flat[idx]
        keep = np.flatnonzero((parent[q] == -2) & (blocked[q] == 0))
        q = q[keep]
        idx = idx[keep]
        if not q.size:
            return None
        uq, first = np.unique(q, return_index=True)
        if uq.size != q.size:
            order = np.sort(first)
            q = q[order]
            idx = idx[order]
        parent[q] = frontier[idx // ncols]
        hits = tmask[q]
        if hits.any():
            return _trace_back(parent.data, int(q[int(np.argmax(hits))]))
        frontier = q
    return None


class _OwnCells:
    """Immutable cells-on-this-path id set, extended in O(1) amortised.

    Each bounded-search state must know its own path's cells to keep
    every reconstructed path simple.  Rebuilding that set per expansion
    walks the whole parent chain (O(path length) each time — quadratic
    over a long detour), so states share a frozen ``base`` set plus a
    short tuple of recent cell ids; the tuple is folded into a new base
    once it grows past ``_FLATTEN_AT``, keeping both membership tests
    and extension cheap while sibling states still share their prefix.
    """

    __slots__ = ("_base", "_extra")

    _FLATTEN_AT = 16

    def __init__(self, base: frozenset, extra: Tuple[int, ...]) -> None:
        self._base = base
        self._extra = extra

    @classmethod
    def single(cls, cid: int) -> "_OwnCells":
        return cls(frozenset((cid,)), ())

    def extended(self, cid: int) -> "_OwnCells":
        extra = self._extra + (cid,)
        if len(extra) >= self._FLATTEN_AT:
            return _OwnCells(self._base.union(extra), ())
        return _OwnCells(self._base, extra)

    def __contains__(self, cid: int) -> bool:
        return cid in self._base or cid in self._extra


def bounded_search(
    space: SearchSpace,
    source: Cell,
    target: Cell,
    min_length: int,
    max_length: int,
    *,
    max_states: int = 50_000,
) -> Optional[List[int]]:
    """Find a simple path with length in ``[min_length, max_length]``.

    The paper's modified A* (§6) on cell ids: the G value of a state
    records the path length from the source, the F value adds a penalty
    whenever the estimated total length falls below the bound, and
    states are keyed by ``(cell, g)`` so a cell may be revisited at a
    larger G.  Callers pre-check source/target routability and parity
    feasibility; this engine only explores.

    The ``(cell, g)`` keying collapses distinct simple prefixes that
    reach the same cell at the same length — if the first-popped one's
    own-set blocks the only continuation, a feasible path would be
    missed.  When the first pass *drains* its state graph without an
    answer (rather than giving up on the state budget), the search
    therefore re-runs with states disambiguated by an order-insensitive
    hash of each path's own cell set, which admits those alternate
    prefixes.  Successful first passes are untouched, so found paths
    are bit-identical to the historical engine's.

    Returns the found cell-id path, or None when the search gives up
    (state budget exhausted or no such simple path exists).
    """
    ids, drained = _bounded_core(
        space, source, target, min_length, max_length, max_states, False
    )
    if ids is not None or not drained:
        return ids
    obs.counter("bounded.reopened").inc()
    ids, _ = _bounded_core(
        space, source, target, min_length, max_length, max_states, True
    )
    return ids


def _bounded_core(
    space: SearchSpace,
    source: Cell,
    target: Cell,
    min_length: int,
    max_length: int,
    max_states: int,
    split_by_own: bool,
) -> Tuple[Optional[List[int]], bool]:
    """One bounded-search pass; returns ``(path, drained)``.

    ``drained`` is True when the heap emptied (the state graph was fully
    explored under the current keying) — as opposed to hitting the
    ``max_states`` budget, where re-running with finer keys could only
    burn another budget.  With ``split_by_own`` the state key gains an
    XOR-fold of the path's own cell ids: order-insensitive, so permuted
    prefixes over the same cells still dedup, but genuinely different
    cell sets coexist.

    The G value is the *weighted* channel length: planar steps add 1,
    via steps add ``grid.via_length`` (vias consume channel budget in
    the length-matching constraint).  The remaining-length table is the
    admissible ``planar_L1 + via_length * z_distance`` bound, so the
    ``g + rem > max_length`` prune stays safe.
    """
    width = space.width
    plane = space.plane
    blocked = memoryview(space.blocked)
    sx, sy, sz = _cell3(source)
    tx, ty, tz = _cell3(target)
    sid = sz * plane + sy * width + sx
    tid = tz * plane + ty * width + tx
    steps = _steps(space, space.grid.via_length)
    ncols = len(steps)
    pairs = tuple(enumerate(steps))

    # Remaining-length lookups move out of the hot loop into one
    # vectorised table (distance to the single target cell).
    rem = _heuristic_table(
        width, space.height, space.layers, (tx, tx, ty, ty, tz, tz), steps[-1]
    ).data
    nbr_mv = memoryview(_space_table(space).reshape(-1))

    # States are (cell id, g[, own-hash]); parents reconstruct one
    # simple path per state, ``own_of`` carries each state's
    # cells-on-path set.
    start = (sid, 0, sid) if split_by_own else (sid, 0)
    parent: Dict[Tuple[int, ...], Optional[Tuple[int, ...]]] = {start: None}
    own_of: Dict[Tuple[int, ...], _OwnCells] = {start: _OwnCells.single(sid)}
    heap: List[Tuple[float, int, Tuple[int, ...]]] = []
    tie = count()

    estimate = rem[sid]
    f0 = float(estimate)
    if estimate < min_length:
        f0 += _PENALTY_WEIGHT * (min_length - estimate)
    heapq.heappush(heap, (f0, next(tie), start))
    states = 0

    try:
        while heap:
            _, _, state = heapq.heappop(heap)
            p = state[0]
            g = state[1]
            if p == tid and min_length <= g <= max_length:
                ids: List[int] = []
                node: Optional[Tuple[int, ...]] = state
                while node is not None:
                    ids.append(node[0])
                    node = parent[node]
                ids.reverse()
                if len(set(ids)) == len(ids):  # simple path only
                    return ids, False
                continue
            states += 1
            if states > max_states:
                return None, False
            if g >= max_length:
                continue
            # Cells already on this state's own path are forbidden so
            # every reconstructed path stays simple.
            own = own_of[state]
            base = ncols * p
            for k, step in pairs:
                q = nbr_mv[base + k]
                if q < 0 or blocked[q] or q in own:
                    continue
                ng = g + step
                if ng + rem[q] > max_length:
                    continue
                nstate = (
                    (q, ng, state[2] ^ q) if split_by_own else (q, ng)
                )
                if nstate in parent:
                    continue
                parent[nstate] = state
                own_of[nstate] = own.extended(q)
                estimate = ng + rem[q]
                f = float(estimate)
                if estimate < min_length:
                    f += _PENALTY_WEIGHT * (min_length - estimate)
                heapq.heappush(heap, (f, next(tie), nstate))
        return None, True
    finally:
        if states:
            obs.counter("bounded.states").inc(states)

"""Engine golden: every search kind replays its recorded paths and counters.

``golden/engine_paths.json`` holds seeded queries over S1–S5 and their
``with_layers(2)`` lifts (via cost 1 and 3) for all three search kinds:
A* with and without a negotiation-shaped history array, ``max_expansions``
trips and :class:`~repro.robustness.budget.Budget` exhaustion, Lee BFS,
and bounded-length search, including a query that drains its first pass
and reaches the ``bounded.reopened`` fallback.  Each row stores the
returned cell-id path plus the ``astar.expansions``, ``astar.heap_pushes``,
``bounded.states`` and ``bounded.reopened`` deltas (and the budget spend).

Rows compare exactly, with one exception: a layered A* row that uses
history may return a different path of equal summed cost (within 1e-9),
because a float sum of the same step costs may associate differently.

Regenerate (only when an engine change is *meant* to move a row) with::

    PYTHONPATH=src python tests/routing/test_engine_golden.py --write
"""

import json
import random
import sys
from pathlib import Path

import pytest

from repro.designs import design_by_name
from repro.grid.grid import RoutingGrid, cell_point
from repro.grid.occupancy import FREE, Occupancy
from repro.observability import Metrics, use
from repro.robustness.budget import Budget
from repro.robustness.errors import BudgetExceeded
from repro.routing.core import (
    SearchSpace,
    astar_search,
    bfs_search,
    bounded_search,
)

GOLDEN_FILE = Path(__file__).resolve().parent / "golden" / "engine_paths.json"
COUNTERS = (
    "astar.expansions",
    "astar.heap_pushes",
    "bounded.states",
    "bounded.reopened",
)
SCENES = [
    (name, layers, via_cost)
    for name in ("S1", "S2", "S3", "S4", "S5")
    for layers, via_cost in ((1, 1), (2, 1), (2, 3))
] + [("H3", 1, 1)]


def _scene_id(scene):
    name, layers, via_cost = scene
    return name if layers == 1 else f"{name}x{layers}v{via_cost}"


def _build(scene):
    """Return (grid, occupancy) for one scene."""
    name, layers, via_cost = scene
    if name == "H3":
        # Open 3x3: the only length-8 corner-to-corner-of-a-side paths
        # are Hamiltonian, which the (cell, g) first pass collapses.
        grid = RoutingGrid(3, 3)
        return grid, Occupancy(grid)
    design = design_by_name(name)
    if layers > 1:
        design = design.with_layers(
            layers, via_cost=via_cost, via_length=via_cost
        )
    grid = design.grid
    occupancy = Occupancy(grid)
    for valve in design.valves:
        occupancy.occupy([valve.position], 1 + (valve.id % 3))
    return grid, occupancy


def _history(rng, size):
    """A negotiation-shaped history list: rounds of ``h <- 1 + 0.1 h``."""
    history = [0.0] * size
    for _ in range(4):
        for cid in rng.sample(range(size), size // 5):
            history[cid] = 1.0 + 0.1 * history[cid]
    return history


def _queries(scene, grid, occupancy):
    """The scene's deterministic query list (plain dicts)."""
    name, _, via_cost = scene
    if name == "H3":
        return [
            dict(kind="bounded", net=FREE, source=[0, 0], target=[0, 2],
                 min_length=8, max_length=8, max_states=50_000),
        ]
    rng = random.Random(f"{_scene_id(scene)}:{sum(name.encode())}")
    free_space = SearchSpace(grid, net=FREE, occupancy=occupancy)
    cells = [
        (x, y, z)
        for z in range(grid.layers)
        for y in range(grid.height)
        for x in range(grid.width)
    ]
    open_cells = [c for c in cells if free_space.routable(cell_point(*c))]

    def pick(pool, n):
        return [list(rng.choice(pool)) for _ in range(n)]

    queries = []
    for with_history in (False, True):
        for _ in range(3):
            queries.append(dict(
                kind="astar", net=rng.choice([FREE, 1, 2, 3]),
                sources=pick(open_cells, rng.randrange(1, 3)),
                targets=pick(open_cells, rng.randrange(1, 3)),
                history=with_history, max_expansions=None, budget=None,
            ))
        # A per-query cap and a run-wide budget, both far below what a
        # cross-chip query needs, so both trip mid-search.
        queries.append(dict(
            kind="astar", net=FREE, sources=pick(open_cells, 1),
            targets=pick(open_cells, 1), history=with_history,
            max_expansions=rng.randrange(20, 120), budget=None,
        ))
        queries.append(dict(
            kind="astar", net=FREE, sources=pick(open_cells, 2),
            targets=pick(open_cells, 1), history=with_history,
            max_expansions=None, budget=rng.randrange(20, 120),
        ))
    # A generous budget: the query completes and the spend is recorded.
    queries.append(dict(
        kind="astar", net=FREE, sources=pick(open_cells, 1),
        targets=pick(open_cells, 2), history=False,
        max_expansions=None, budget=10**7,
    ))
    for _ in range(2):
        queries.append(dict(
            kind="bfs", net=rng.choice([FREE, 1, 2, 3]),
            sources=pick(cells, rng.randrange(1, 3)),
            targets=pick(cells, rng.randrange(1, 3)),
        ))
    for _ in range(2):
        src = rng.choice(open_cells)
        tgt = min(
            (c for c in rng.sample(open_cells, 40) if c != src),
            key=lambda c: abs(c[0] - src[0]) + abs(c[1] - src[1])
            + via_cost * abs(c[2] - src[2]),
        )
        est = (
            abs(tgt[0] - src[0]) + abs(tgt[1] - src[1])
            + via_cost * abs(tgt[2] - src[2])
        )
        lo = est + 2 * rng.randrange(1, 4)
        queries.append(dict(
            kind="bounded", net=FREE, source=list(src), target=list(tgt),
            min_length=lo, max_length=lo + 2, max_states=3_000,
        ))
    return queries


def _run(query, grid, occupancy):
    """Run one query; return its recorded row (path, counters, spend)."""
    space = SearchSpace(grid, net=query["net"], occupancy=occupancy)
    registry = Metrics()
    row = {"path": None}
    history = None
    with use(metrics=registry):
        if query["kind"] == "astar":
            if query["history"]:
                rng = random.Random(json.dumps(query, sort_keys=True))
                history = _history(rng, space.size)
            budget = (
                None if query["budget"] is None
                else Budget(astar_expansions=query["budget"])
            )
            try:
                row["path"] = astar_search(
                    space,
                    [tuple(c) for c in query["sources"]],
                    [tuple(c) for c in query["targets"]],
                    history=history,
                    max_expansions=query["max_expansions"],
                    budget=budget,
                )
            except BudgetExceeded as exc:
                row["exceeded_used"] = int(exc.used)
            if budget is not None:
                row["budget_used"] = budget.expansions_used
        elif query["kind"] == "bfs":
            row["path"] = bfs_search(
                space,
                [tuple(c) for c in query["sources"]],
                [tuple(c) for c in query["targets"]],
            )
        else:
            row["path"] = bounded_search(
                space,
                tuple(query["source"]),
                tuple(query["target"]),
                query["min_length"],
                query["max_length"],
                max_states=query["max_states"],
            )
    counters = registry.counter_values()
    row["counters"] = {c: int(counters.get(c, 0)) for c in COUNTERS}
    return row, space, history


def _path_cost(path, space, history):
    """Summed A* cost of ``path``: step cost plus history of each entry."""
    via_cost = float(space.grid.via_cost)
    total = 0.0
    for p, q in zip(path, path[1:]):
        step = via_cost if abs(q - p) == space.plane else 1.0
        total += step + history[q]
    return total


def _is_route(path, space, query):
    """True when ``path`` walks open neighbours from a source to a target."""
    ids = {space.index(cell_point(*c)) for c in query["sources"]}
    if path[0] not in ids:
        return False
    ids = {space.index(cell_point(*c)) for c in query["targets"]}
    if path[-1] not in ids:
        return False
    steps = {1, space.width, space.plane}
    return all(
        abs(q - p) in steps and not space.blocked[q]
        for p, q in zip(path, path[1:])
    )


def _record_scene(scene):
    grid, occupancy = _build(scene)
    return [
        {"query": q, **_run(q, grid, occupancy)[0]}
        for q in _queries(scene, grid, occupancy)
    ]


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_FILE.read_text())


@pytest.mark.parametrize("scene", SCENES, ids=[_scene_id(s) for s in SCENES])
def test_engine_replays_golden(golden, scene):
    rows = golden[_scene_id(scene)]
    grid, occupancy = _build(scene)
    queries = _queries(scene, grid, occupancy)
    assert [r["query"] for r in rows] == queries
    for want, query in zip(rows, queries):
        got, space, history = _run(query, grid, occupancy)
        want = {k: v for k, v in want.items() if k != "query"}
        if got == want:
            continue
        # Layered history rows: an equal-cost tie may resolve differently.
        assert space.layers > 1 and history is not None, (query, got, want)
        assert got["path"] is not None and want["path"] is not None, query
        assert _is_route(got["path"], space, query), (query, got)
        assert abs(
            _path_cost(got["path"], space, history)
            - _path_cost(want["path"], space, history)
        ) <= 1e-9, query


def test_golden_covers_the_required_paths(golden):
    rows = [r for scene in golden.values() for r in scene]
    assert any(r["query"]["kind"] == "bfs" for r in rows)
    assert any(r.get("exceeded_used") is not None for r in rows)
    assert any(
        r["query"]["kind"] == "astar"
        and r["query"]["max_expansions"] is not None
        and r["path"] is None
        for r in rows
    )
    assert any(r["counters"]["bounded.reopened"] for r in rows)


def _write():
    doc = {_scene_id(s): _record_scene(s) for s in SCENES}
    GOLDEN_FILE.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN_FILE.write_text(json.dumps(doc, sort_keys=True) + "\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_engine_golden.py --write")
    _write()

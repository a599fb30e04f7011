"""Tests for the flat cell-id kernel core (`repro.routing.core`).

The property tests pin the tentpole invariant of the refactor: the fused
:class:`SearchSpace` blocked-mask must agree cell-for-cell with the
legacy per-cell composition the kernels used before — ``grid.is_free``
AND ``occupancy.is_routable`` AND not-an-extra-obstacle — including the
own-net-routable case.
"""

import random
from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.designs import design_by_name
from repro.geometry.point import Point
from repro.grid.grid import RoutingGrid, cell_point
from repro.grid.occupancy import FREE, Occupancy
from repro.observability import Metrics, use
from repro.routing.astar import astar_route
from repro.routing.core import (
    SearchSpace,
    astar_search,
    bfs_search,
    query_space,
)
from repro.routing.core.engine import _astar_scalar, _cell3


def _random_scene(seed):
    """Build a seeded grid + occupancy + extra obstacles."""
    rng = random.Random(seed)
    w, h = rng.randrange(4, 14), rng.randrange(4, 14)
    grid = RoutingGrid(w, h)
    for _ in range(rng.randrange(0, (w * h) // 3)):
        grid.set_obstacle(Point(rng.randrange(w), rng.randrange(h)))
    occupancy = Occupancy(grid)
    for net in (1, 2, 3):
        cells = {
            Point(rng.randrange(w), rng.randrange(h))
            for _ in range(rng.randrange(0, 8))
        }
        occupancy.occupy(
            sorted(p for p in cells if occupancy.owner(p) == FREE), net
        )
    extra = {
        Point(rng.randrange(w), rng.randrange(h))
        for _ in range(rng.randrange(0, 6))
    }
    return grid, occupancy, extra


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_searchspace_matches_legacy_routability_composition(seed):
    grid, occupancy, extra = _random_scene(seed)
    for net in (FREE, 1, 2):  # net 1/2 exercise own-net-routable cells
        space = SearchSpace(
            grid, net=net, occupancy=occupancy, extra_obstacles=extra
        )
        for y in range(grid.height):
            for x in range(grid.width):
                p = Point(x, y)
                legacy = (
                    grid.is_free(p)
                    and occupancy.is_routable(p, net)
                    and p not in extra
                )
                assert space.routable(p) == legacy, (net, p)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=15, deadline=None)
def test_extra_obstacle_ids_equal_extra_obstacle_points(seed):
    grid, occupancy, extra = _random_scene(seed)
    by_point = SearchSpace(
        grid, net=1, occupancy=occupancy, extra_obstacles=extra
    )
    by_id = SearchSpace(
        grid,
        net=1,
        occupancy=occupancy,
        extra_obstacle_ids={grid.index(p) for p in extra},
    )
    assert bytes(by_point.blocked) == bytes(by_id.blocked)


def test_searchspace_tolerates_off_chip_extra_obstacles():
    grid = RoutingGrid(5, 5)
    space = SearchSpace(grid, extra_obstacles={Point(-1, 0), Point(4, 17)})
    assert space.routable(Point(0, 0))
    assert not space.routable(Point(-1, 0))  # out of bounds is unroutable
    assert not space.routable(Point(4, 17))


def test_materialize_round_trips_ids():
    grid = RoutingGrid(7, 3)
    space = SearchSpace(grid)
    cells = [Point(2, 1), Point(3, 1), Point(3, 2)]
    ids = [space.index(p) for p in cells]
    assert list(space.materialize(ids)) == cells
    assert [space.point(i) for i in ids] == cells


def test_engines_agree_on_path_length():
    grid = RoutingGrid(12, 12)
    for y in range(1, 12):
        grid.set_obstacle(Point(6, y))
    space = SearchSpace(grid)
    a = astar_search(space, [Point(0, 11)], [Point(11, 11)])
    b = bfs_search(space, [Point(0, 11)], [Point(11, 11)])
    assert a is not None and b is not None
    assert len(a) == len(b)


# --------------------------------------------------------------------------
# Counter semantics: source seeds are not heap pushes


def test_heap_pushes_exclude_source_seeds():
    """Seeding a source is not a push; only real frontier pushes count."""
    grid = RoutingGrid(8, 8)
    registry = Metrics()
    with use(metrics=registry):
        path = astar_route(grid, [Point(0, 0)], [Point(1, 0)])
    assert path is not None and path.length == 1
    # Expanding the single settled cell (0,0) pushes exactly its East and
    # South neighbours; the pre-engine kernel also counted the seed (2+1).
    assert registry.counter("astar.expansions").value == 1
    assert registry.counter("astar.heap_pushes").value == 2


def test_heap_pushes_exclude_every_source_of_a_multi_source_query():
    grid = RoutingGrid(8, 8)
    registry = Metrics()
    with use(metrics=registry):
        path = astar_route(
            grid, [Point(0, 0), Point(7, 7), Point(0, 7)], [Point(1, 0)]
        )
    assert path is not None and path.length == 1
    # Three seeds enter the heap unbilled; the one expansion ((0,0), the
    # nearest seed) pushes its two in-bounds free neighbours.
    assert registry.counter("astar.heap_pushes").value == 2


# --------------------------------------------------------------------------
# SpaceCache: incrementally patched checkouts == freshly fused snapshots


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_spacecache_incremental_matches_rebuilt(seed):
    """An incrementally invalidated checkout is bit-identical to a rebuild.

    Randomized interleavings of every Occupancy mutator with cache
    checkouts (varying net and query-local extras, so each checkout must
    also undo the previous one's patches).
    """
    rng = random.Random(seed)
    w, h = rng.randrange(4, 12), rng.randrange(4, 12)
    grid = RoutingGrid(w, h)
    for _ in range(rng.randrange(0, (w * h) // 4)):
        grid.set_obstacle(Point(rng.randrange(w), rng.randrange(h)))
    occupancy = Occupancy(grid)
    size = w * h

    def random_ids(n):
        return [rng.randrange(size) for _ in range(rng.randrange(0, n))]

    for _ in range(rng.randrange(2, 12)):
        op = rng.randrange(5)
        if op == 0:
            net = rng.randrange(1, 4)
            free = [
                cid
                for cid in random_ids(8)
                if occupancy.owner_id(cid) in (FREE, net)
            ]
            occupancy.occupy_ids(free, net)
        elif op == 1:
            occupancy.release_ids(rng.randrange(1, 4))
        elif op == 2:
            occupancy.release_cell_ids(random_ids(6))
        elif op == 3:
            cells = [
                Point(cid % w, cid // w)
                for cid in random_ids(6)
                if occupancy.owner_id(cid) == FREE
            ]
            occupancy.occupy(cells, rng.randrange(1, 4))
        # op == 4: no mutation — consecutive checkouts must also agree.

        net = rng.choice([FREE, 1, 2, 3])
        extra = set(random_ids(4)) or None
        cached = query_space(
            grid, net=net, occupancy=occupancy, extra_obstacle_ids=extra
        )
        fresh = SearchSpace(
            grid, net=net, occupancy=occupancy, extra_obstacle_ids=extra
        )
        assert bytes(cached.blocked) == bytes(fresh.blocked), (net, extra)


# --------------------------------------------------------------------------
# Vectorised engines == scalar reference engines, over the S1-S5 designs


def _design_scene(name, seed, layers=1):
    """The design's grid (lifted onto ``layers`` with unit via cost) plus
    a seeded occupancy over its valve cells."""
    design = design_by_name(name)
    if layers > 1:
        design = design.with_layers(layers)
    grid = design.grid
    rng = random.Random(seed)
    occupancy = Occupancy(grid)
    for valve in design.valves:
        occupancy.occupy([valve.position], 1 + (valve.id % 3))
    cells = [
        cell_point(x, y, z)
        for z in range(layers)
        for y in range(grid.height)
        for x in range(grid.width)
    ]
    queries = []
    for _ in range(6):
        srcs = [rng.choice(cells) for _ in range(rng.randrange(1, 3))]
        tgts = [rng.choice(cells) for _ in range(rng.randrange(1, 3))]
        queries.append((rng.choice([FREE, 1, 2, 3]), srcs, tgts))
    return grid, occupancy, queries


def _bfs_scalar(space, sources, targets):
    """Reference scalar BFS (the pre-vectorisation implementation).

    A deque Lee wave over explicit coordinate arithmetic — E/W/S/N, then
    Up/Down through via-permitted columns — independent of the engine's
    neighbour table; :func:`bfs_search` must match it path-for-path.
    """
    width = space.width
    height = space.height
    layers = space.layers
    plane = space.plane
    blocked = memoryview(space.blocked)
    via_ok = space.grid.via_mask()

    def cid(c):
        x, y, z = c
        if 0 <= x < width and 0 <= y < height and 0 <= z < layers:
            return z * plane + y * width + x
        return -1

    target_xyz = {_cell3(t) for t in targets}
    source_xyz = [_cell3(s) for s in sources]
    if not target_xyz or not source_xyz:
        return None
    target_ids = {cid(t) for t in target_xyz} - {-1}

    parent = {}
    queue = deque()
    for c in source_xyz:
        s = cid(c)
        if s < 0 or blocked[s] or s in parent:
            continue
        parent[s] = -1
        if s in target_ids:
            return [s]
        queue.append(s)

    while queue:
        p = queue.popleft()
        z, rest = divmod(p, plane)
        y, x = divmod(rest, width)
        cands = [
            p + 1 if x + 1 < width else -1,
            p - 1 if x else -1,
            p + width if y + 1 < height else -1,
            p - width if y else -1,
        ]
        if layers > 1:
            via = bool(via_ok[rest])
            cands.append(p + plane if via and z + 1 < layers else -1)
            cands.append(p - plane if via and z else -1)
        for q in cands:
            if q < 0 or q in parent or blocked[q]:
                continue
            parent[q] = p
            if q in target_ids:
                ids = [q]
                back = p
                while back >= 0:
                    ids.append(back)
                    back = parent[back]
                ids.reverse()
                return ids
            queue.append(q)
    return None


_SCENES = [
    pytest.param(name, layers, id=name if layers == 1 else f"{name}x2")
    for layers in (1, 2)
    for name in ("S1", "S2", "S3", "S4", "S5")
]


@pytest.mark.parametrize("name,layers", _SCENES)
def test_wave_astar_paths_identical_to_scalar(name, layers):
    """The whole-frontier wave A* returns the scalar engine's exact path."""
    grid, occupancy, queries = _design_scene(
        name, seed=sum(name.encode()), layers=layers
    )
    for net, srcs, tgts in queries:
        space = SearchSpace(grid, net=net, occupancy=occupancy)
        wave = astar_search(space, srcs, tgts)  # unit steps -> wave
        scalar = _astar_scalar(
            space, [_cell3(s) for s in srcs], {_cell3(t) for t in tgts},
            (1,) * (4 if layers == 1 else 6), None, None, None,
        )
        assert wave == scalar, (net, srcs, tgts)


@pytest.mark.parametrize("name,layers", _SCENES)
def test_wave_bfs_paths_identical_to_scalar(name, layers):
    """The whole-frontier Lee wave returns the scalar engine's exact path."""
    grid, occupancy, queries = _design_scene(
        name, seed=1 + sum(name.encode()), layers=layers
    )
    for net, srcs, tgts in queries:
        space = SearchSpace(grid, net=net, occupancy=occupancy)
        assert bfs_search(space, srcs, tgts) == _bfs_scalar(
            space, srcs, tgts
        ), (net, srcs, tgts)

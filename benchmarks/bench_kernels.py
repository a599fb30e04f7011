"""Kernel-core throughput — the flat cell-id substrate under all kernels.

Measures raw search throughput of :mod:`repro.routing.core` through each
public kernel (A*, Lee, bounded-length, negotiation) on the Table-1
designs.  Every benchmark records effort counters *and* derived rates in
``extra_info``:

* ``expansions_per_sec`` / ``states_per_sec`` — algorithmic work rate,
  the number the cell-id refactor exists to raise;
* ``routes_per_sec`` — end-to-end query throughput including
  ``SearchSpace`` construction and path materialisation;
* ``speedup_vs_point_kernel`` — ratio against the recorded throughput of
  the pre-refactor ``Point``-keyed A* kernel.

Run with ``--benchmark-json`` to archive the numbers (CI does).
"""

import json
import time
from pathlib import Path as FsPath

import pytest

from repro.designs import design_by_name
from repro.geometry.point import Point
from repro.grid.grid import RoutingGrid
from repro.grid.occupancy import Occupancy
from repro.observability import Metrics, use
from repro.routing.astar import astar_route
from repro.routing.bounded import bounded_length_route
from repro.routing.core import query_space
from repro.routing.core.engine import _astar_scalar
from repro.routing.lee import lee_route
from repro.routing.negotiation import NegotiationRouter, RouteRequest

_SMALL = ["S1", "S2", "S3", "S4", "S5"]

_POINT_KERNEL_EXPANSIONS_PER_SEC = 130_260
"""Expansions/sec of the pre-refactor Point-keyed A* kernel.

Measured on the Table-1 S1-S5 corner-to-corner sweep below, same
harness, at the commit immediately before ``repro.routing.core`` landed.
The refactor's acceptance bar is >= 2x this figure.
"""

_MIN_SPEEDUP = 2.0

_MIN_WAVE_SPEEDUP = 10.0
"""The wave engine's acceptance bar over the scalar heap engine, both
measured in the same run on the same open-grid sweep."""

_SCALAR_ROUNDS = 3

_BASELINE_PATH = FsPath(__file__).resolve().parents[1] / "BENCH_kernels.json"
_MAX_REGRESSION = 0.20
"""Committed-baseline gate: expansions/sec may not drop more than this."""


def _check_against_baseline(key, field, eps):
    """Fail when ``eps`` regresses >20% vs the committed baseline entry."""
    if not _BASELINE_PATH.exists():  # fresh checkout without a baseline
        return
    baseline = json.loads(_BASELINE_PATH.read_text())
    recorded = baseline.get("benchmarks", {}).get(key, {}).get(field)
    if not recorded:
        return
    floor = (1.0 - _MAX_REGRESSION) * recorded
    assert eps >= floor, (
        f"{key}: {eps:,.0f} expansions/s regressed more than "
        f"{_MAX_REGRESSION:.0%} below the committed baseline "
        f"({recorded:,}/s in {_BASELINE_PATH.name})"
    )


def _scalar_peak_rate(grid, sources, targets):
    """Best-round expansions/sec of the scalar heap engine on the same sweep.

    Calls the engine directly with unit steps and no history:
    ``astar_search`` hands this query to the wave engine, and a history
    array would put the walled-pocket flood in front of the scalar one.
    """
    source_xyz = [(p.x, p.y, 0) for p in sources]
    target_xyz = {(p.x, p.y, 0) for p in targets}
    peak = 0.0
    for _ in range(_SCALAR_ROUNDS):
        registry = Metrics()
        with use(metrics=registry):
            started = time.perf_counter()
            space = query_space(grid)
            ids = _astar_scalar(
                space, source_xyz, target_xyz, (1, 1, 1, 1), None, None, None
            )
            assert space.materialize(ids)
            seconds = time.perf_counter() - started
        expansions = registry.counter_values()["astar.expansions"]
        peak = max(peak, expansions / seconds)
    return peak


def _corner_runs(grid):
    w, h = grid.width, grid.height
    return [
        ([Point(0, 0)], [Point(w - 1, h - 1)]),
        ([Point(0, h - 1)], [Point(w - 1, 0)]),
    ]


def _rates(benchmark, effort, *, routes, work_counter, work_key):
    """Record per-second rates for one benchmark round into extra_info."""
    mean = benchmark.stats.stats.mean
    rounds = benchmark.stats.stats.rounds
    work = effort.counter_values().get(work_counter, 0) / rounds
    benchmark.extra_info["routes_per_sec"] = round(routes / mean, 1)
    benchmark.extra_info[work_key] = round(work / mean)
    return work / mean


@pytest.mark.parametrize("name", _SMALL)
def test_kernel_astar_throughput(benchmark, effort, name):
    """Corner-to-corner A* sweeps; the headline expansions/sec number."""
    design = design_by_name(name)
    grid = design.grid.copy()
    occupancy = Occupancy(grid)
    runs = _corner_runs(grid)

    def route():
        for sources, targets in runs:
            assert astar_route(grid, sources, targets, occupancy=occupancy)

    benchmark.pedantic(route, rounds=20, iterations=1)
    eps = _rates(
        benchmark,
        effort,
        routes=len(runs),
        work_counter="astar.expansions",
        work_key="expansions_per_sec",
    )
    speedup = eps / _POINT_KERNEL_EXPANSIONS_PER_SEC
    benchmark.extra_info["speedup_vs_point_kernel"] = round(speedup, 2)
    assert speedup >= _MIN_SPEEDUP, (
        f"{name}: {eps:,.0f} expansions/s is below "
        f"{_MIN_SPEEDUP}x the Point-kernel baseline "
        f"({_POINT_KERNEL_EXPANSIONS_PER_SEC:,}/s)"
    )


def test_kernel_wave_throughput(benchmark, effort):
    """Open-grid column sweep; the vectorised wave engine's headline.

    A full west-column to east-column A* on an open 384x384 grid: wide
    unit-cost frontiers are exactly the workload the whole-frontier
    engine batches, so this is the honest ceiling measurement (chip
    grids fragment the wave on obstacles and land lower).  Asserts the
    >= 10x acceptance bar over the scalar heap engine, timed in the same
    run on the identical workload, and the <= 20% regression gate
    against the committed ``BENCH_kernels.json`` baseline.
    """
    grid = RoutingGrid(384, 384)
    sources = [Point(0, y) for y in range(grid.height)]
    targets = [Point(grid.width - 1, y) for y in range(grid.height)]

    def route():
        assert astar_route(grid, sources, targets)

    benchmark.pedantic(route, rounds=10, iterations=1)
    eps = _rates(
        benchmark,
        effort,
        routes=1,
        work_counter="astar.expansions",
        work_key="expansions_per_sec",
    )
    # The acceptance bar compares peak throughput (best round): the
    # mean folds in GC pauses and scheduler noise that say nothing
    # about the engine, and a 10x gate needs a stable measurand.
    stats = benchmark.stats.stats
    eps_peak = eps * (stats.mean / stats.min)
    benchmark.extra_info["expansions_per_sec_peak"] = round(eps_peak)
    scalar_peak = _scalar_peak_rate(grid, sources, targets)
    benchmark.extra_info["scalar_expansions_per_sec_peak"] = round(scalar_peak)
    speedup = eps_peak / scalar_peak
    benchmark.extra_info["speedup_vs_scalar_engine"] = round(speedup, 2)
    assert speedup >= _MIN_WAVE_SPEEDUP, (
        f"wave sweep: {eps_peak:,.0f} peak expansions/s is below "
        f"{_MIN_WAVE_SPEEDUP}x the scalar engine's "
        f"{scalar_peak:,.0f}/s on the same sweep"
    )
    _check_against_baseline(
        "test_kernel_wave_throughput", "expansions_per_sec_peak", eps_peak
    )


def test_kernel_wave_throughput_layered(benchmark, effort):
    """Two-layer wave sweep through a forced via wall.

    The same west-to-east column sweep as the planar wave case, on a
    256x256x2 grid whose layer 0 is split by a full-height obstacle
    wall: every unit of flow must climb to layer 1, cross over and
    come back down, so the 6-neighbour layered engine (via moves and
    the via-permission mask included) is on the measured path end to
    end.  Gated <= 20% regression against ``BENCH_kernels.json``.
    """
    grid = RoutingGrid(256, 256, 2)
    wall_x = grid.width // 2
    grid.add_obstacles(Point(wall_x, y) for y in range(grid.height))
    sources = [Point(0, y) for y in range(grid.height)]
    targets = [Point(grid.width - 1, y) for y in range(grid.height)]

    def route():
        assert astar_route(grid, sources, targets)

    benchmark.pedantic(route, rounds=10, iterations=1)
    eps = _rates(
        benchmark,
        effort,
        routes=1,
        work_counter="astar.expansions",
        work_key="expansions_per_sec",
    )
    stats = benchmark.stats.stats
    eps_peak = eps * (stats.mean / stats.min)
    benchmark.extra_info["expansions_per_sec_peak"] = round(eps_peak)
    _check_against_baseline(
        "test_kernel_wave_throughput_layered",
        "expansions_per_sec_peak",
        eps_peak,
    )


@pytest.mark.parametrize("name", _SMALL)
def test_kernel_lee_throughput(benchmark, effort, name):
    """Lee oracle on the same sweep; cross-checks A* path lengths."""
    design = design_by_name(name)
    grid = design.grid.copy()
    occupancy = Occupancy(grid)
    runs = _corner_runs(grid)
    # Optimal length of an unobstructed corner route is the L1 distance;
    # the designs keep the corners reachable, so Lee must match it.
    expected = (grid.width - 1) + (grid.height - 1)

    def route():
        for sources, targets in runs:
            path = lee_route(grid, sources, targets, occupancy=occupancy)
            assert path is not None and path.length == expected

    benchmark.pedantic(route, rounds=10, iterations=1)
    mean = benchmark.stats.stats.mean
    benchmark.extra_info["routes_per_sec"] = round(len(runs) / mean, 1)


@pytest.mark.parametrize("name", _SMALL)
def test_kernel_bounded_throughput(benchmark, effort, name):
    """Length-stretched corner route exercising the (cell, g) state space."""
    design = design_by_name(name)
    grid = design.grid.copy()
    source = Point(0, 0)
    target = Point(grid.width - 1, grid.height - 1)
    base = (grid.width - 1) + (grid.height - 1)
    min_length, max_length = base + 10, base + 14

    def route():
        assert bounded_length_route(grid, source, target, min_length, max_length)

    benchmark.pedantic(route, rounds=10, iterations=1)
    _rates(
        benchmark,
        effort,
        routes=1,
        work_counter="bounded.states",
        work_key="states_per_sec",
    )


def test_kernel_negotiation_throughput(benchmark, effort):
    """Crossing-edge negotiation: history array + rip-up, all on ids.

    Three mutually crossing edges on an open 16x16 grid; each leaves room
    to detour around the others' endpoints, so the router converges only
    after Eq.-5 history costs steer the re-routes apart.
    """
    grid = RoutingGrid(16, 16)
    requests = [
        RouteRequest(0, 0, (Point(2, 8),), (Point(13, 8),)),
        RouteRequest(1, 1, (Point(8, 2),), (Point(8, 13),)),
        RouteRequest(2, 2, (Point(2, 6),), (Point(13, 10),)),
    ]

    def route():
        occupancy = Occupancy(grid)
        result = NegotiationRouter(grid).route(requests, occupancy)
        assert result.success

    benchmark.pedantic(route, rounds=10, iterations=1)
    _rates(
        benchmark,
        effort,
        routes=len(requests),
        work_counter="astar.expansions",
        work_key="expansions_per_sec",
    )

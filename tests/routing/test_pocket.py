"""Walled-pocket early-out in front of the scalar A*.

The flood in :func:`repro.routing.core.engine._walled_off` may only
decide *whether* a search can succeed: on every query the dispatching
:func:`astar_search` must return exactly what the scalar engine returns
on its own, and a pruned query must cost the budget nothing.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry.point import Point
from repro.grid.grid import RoutingGrid
from repro.observability import Metrics, use
from repro.robustness import faults
from repro.robustness.budget import Budget
from repro.robustness.errors import BudgetExceeded
from repro.robustness.faults import FaultSpec
from repro.routing.core import SearchSpace, astar_search
from repro.routing.core.engine import _astar_scalar, _cell3, _steps


@st.composite
def _scenes(draw):
    """A random mask, history array and multi-cell source/target sets."""
    layers = draw(st.sampled_from((1, 2)))
    via_cost = draw(st.sampled_from((1, 3)))
    width = draw(st.integers(2, 9))
    height = draw(st.integers(2, 9))
    grid = RoutingGrid(width, height, layers, via_cost=via_cost)
    size = grid.size
    # Dense enough masks to wall pockets in, sparse enough to route.
    density = draw(st.sampled_from((0.2, 0.35, 0.5)))
    blocked = draw(
        st.lists(st.floats(0, 1), min_size=size, max_size=size)
    )
    for cid, r in enumerate(blocked):
        if r < density:
            grid.set_obstacle(grid.point(cid))
    if layers > 1:
        for x in range(width):
            for y in range(height):
                if draw(st.integers(0, 4)) == 0:
                    grid.set_via_blocked(Point(x, y))
    history = draw(
        st.lists(
            st.sampled_from((0.0, 0.0, 1.0, 1.1, 1.11, 2.5)),
            min_size=size,
            max_size=size,
        )
    )
    # Cells may be off-chip (any axis), blocked, or shared by both sets.
    cell = st.tuples(
        st.integers(-1, width),
        st.integers(-1, height),
        st.integers(0, layers) if layers > 1 else st.just(0),
    )
    sources = draw(st.lists(cell, min_size=1, max_size=4))
    targets = draw(st.lists(cell, min_size=1, max_size=4))
    if draw(st.booleans()):
        targets.append(draw(st.sampled_from(sources)))
    return grid, history, sources, targets


def _mixed(c):
    """Pass layer-0 cells as plain pairs, as the router does."""
    return c[:2] if c[2] == 0 else c


@given(_scenes())
@settings(max_examples=300, deadline=None)
def test_pocket_check_never_changes_the_answer(scene):
    grid, history, sources, targets = scene
    space = SearchSpace(grid)
    srcs = [_mixed(c) for c in sources]
    tgts = [_mixed(c) for c in targets]
    registry = Metrics()
    with use(metrics=registry):
        got = astar_search(space, srcs, tgts, history=history)
    want = _astar_scalar(
        space,
        [_cell3(s) for s in srcs],
        {_cell3(t) for t in tgts},
        _steps(space, grid.via_cost),
        history,
        None,
        None,
    )
    assert got == want
    pruned = registry.counter("astar.pruned").value
    assert pruned == (1 if want is None else 0)


def _walled_target_grid():
    """An 11x11 open grid whose corner cell (10, 10) is walled in."""
    grid = RoutingGrid(11, 11)
    for p in (Point(9, 10), Point(10, 9), Point(9, 9)):
        grid.set_obstacle(p)
    return grid


def test_walled_target_is_pruned_without_charging_the_budget():
    grid = _walled_target_grid()
    space = SearchSpace(grid)
    history = [1.0] * grid.size
    # The outer component holds 117 free cells; a failed scalar search
    # would settle all of them and trip this budget.
    budget = Budget(astar_expansions=50)
    registry = Metrics()
    registry.adopt("astar.expansions", budget.expansion_counter)
    with use(metrics=registry):
        got = astar_search(
            space, [(0, 0)], [(10, 10)], history=history, budget=budget
        )
    assert got is None
    assert budget.expansions_used == 0
    assert registry.counter("astar.expansions").value == 0
    assert registry.counter("astar.pruned").value == 1
    # The target side is the one-cell pocket: it is exhausted after one
    # pop, so the flood touches only a handful of cells.
    assert 0 < registry.counter("astar.pocket_cells").value < 10


def test_walled_target_is_pruned_by_the_scalar_oracle_too():
    grid = _walled_target_grid()
    space = SearchSpace(grid)
    history = [1.0] * grid.size
    with pytest.raises(BudgetExceeded):
        _astar_scalar(
            space, [(0, 0, 0)], {(10, 10, 0)}, _steps(space, 1), history,
            None, Budget(astar_expansions=50),
        )


def test_injected_budget_exhaustion_fires_ahead_of_the_flood():
    grid = _walled_target_grid()
    space = SearchSpace(grid)
    registry = Metrics()
    with faults.inject(FaultSpec("astar_budget_exhaustion")):
        with use(metrics=registry), pytest.raises(BudgetExceeded):
            astar_search(
                space, [(0, 0)], [(10, 10)], history=[1.0] * grid.size,
                budget=Budget(astar_expansions=50),
            )
    assert registry.counter("astar.pruned").value == 0
    assert registry.counter("astar.pocket_cells").value == 0


def test_reachable_query_keeps_its_expansion_count():
    grid = _walled_target_grid()
    space = SearchSpace(grid)
    history = [1.0] * grid.size
    registry = Metrics()
    with use(metrics=registry):
        got = astar_search(space, [(0, 0)], [(8, 10)], history=history)
    plain = Metrics()
    with use(metrics=plain):
        want = _astar_scalar(
            space, [(0, 0, 0)], {(8, 10, 0)}, _steps(space, 1), history,
            None, None,
        )
    assert got == want is not None
    assert registry.counter("astar.pruned").value == 0
    assert (
        registry.counter("astar.expansions").value
        == plain.counter("astar.expansions").value
    )

"""Minimum-length bounded routing (Section 6 of the paper).

The detour stage needs paths whose length is *at least* a lower bound
``Lt`` (and at most an upper bound, so the matched cluster stays within
the threshold window ``[maxL - delta, maxL]``).  Two engines are provided:

* :func:`bounded_length_route` — the paper's modified A*: the G value of a
  state records the path length from the source and the F value adds a
  penalty whenever the estimated total length falls below the bound, which
  steers the search towards longer paths.  States are keyed by
  ``(cell, g)`` so a cell may be revisited at a larger G (the paper's
  "G can only be updated when increased").  The state exploration runs in
  :func:`repro.routing.core.bounded_search` on flat cell ids; this module
  keeps the feasibility pre-checks and the serpentine fallback.
* :func:`extend_path_with_bumps` — a serpentine fallback: each U-shaped
  bump inserted into an existing path adds exactly 2 grid units, matching
  the parity of achievable rectilinear path lengths.  Bumps may nest, so
  any even extension fits whenever free space exists next to the path.
"""

from __future__ import annotations

from typing import List, Optional, Set

from repro.geometry.point import Point, manhattan
from repro.grid.grid import RoutingGrid
from repro.grid.occupancy import FREE, Occupancy
from repro.robustness.errors import KernelPreconditionError
from repro.routing.core import bounded_search, query_space
from repro.routing.core.engine import neighbour_table
from repro.routing.path import Path


def bounded_length_route(
    grid: RoutingGrid,
    source: Point,
    target: Point,
    min_length: int,
    max_length: int,
    *,
    net: int = FREE,
    occupancy: Optional[Occupancy] = None,
    extra_obstacles: Optional[Set[Point]] = None,
    extra_obstacle_ids: Optional[Set[int]] = None,
    max_states: int = 50_000,
) -> Optional[Path]:
    """Find a simple path from ``source`` to ``target`` with bounded length.

    Returns a :class:`Path` whose length lies in ``[min_length,
    max_length]``, or None when the modified A* gives up (state budget
    exhausted or no such simple path found).  Callers should fall back to
    :func:`extend_path_with_bumps` on an existing path.
    """
    if min_length > max_length:
        raise KernelPreconditionError(
            "min_length must not exceed max_length",
            kernel="repro.routing.bounded.bounded_length_route",
        )
    if grid.layers == 1:
        base = manhattan(source, target)
        if base > max_length:
            return None
        # Rectilinear path lengths share the parity of the Manhattan
        # distance; an infeasible parity window can never be satisfied.
        feasible = [
            length
            for length in range(min_length, max_length + 1)
            if (length - base) % 2 == 0
        ]
        if not feasible:
            return None
    else:
        # Weighted lower bound: planar L1 plus via_length per layer the
        # path must cross.  Parity pruning does not survive weighted via
        # steps, so only the bound check applies.
        sz = source[2] if len(source) == 3 else 0
        tz = target[2] if len(target) == 3 else 0
        base = (
            abs(source[0] - target[0])
            + abs(source[1] - target[1])
            + abs(sz - tz) * grid.via_length
        )
        if base > max_length:
            return None

    space = query_space(
        grid,
        net=net,
        occupancy=occupancy,
        extra_obstacles=extra_obstacles,
        extra_obstacle_ids=extra_obstacle_ids,
    )
    if not space.routable(source) or not space.routable(target):
        return None

    ids = bounded_search(
        space, source, target, min_length, max_length, max_states=max_states
    )
    if ids is None:
        return None
    return space.materialize(ids)


def extend_path_with_bumps(
    grid: RoutingGrid,
    path: Path,
    extra: int,
    *,
    net: int = FREE,
    occupancy: Optional[Occupancy] = None,
    extra_obstacles: Optional[Set[Point]] = None,
    extra_obstacle_ids: Optional[Set[int]] = None,
) -> Optional[Path]:
    """Lengthen ``path`` by exactly ``extra`` grid units using serpentines.

    Each inserted U-bump replaces one path step ``a -> b`` with
    ``a -> a+n -> b+n -> b`` (``n`` perpendicular to the step), adding 2
    units while keeping endpoints fixed.  Bumps may be placed on cells a
    previous bump introduced, so repeated insertion snakes into free area.

    Returns the extended path, or None when ``extra`` is odd/negative or
    the surrounding free space runs out before the target is reached.
    ``occupancy`` is *not* modified; callers re-commit the new path.
    """
    if extra < 0 or extra % 2 != 0:
        return None
    if extra == 0:
        return path

    # The current path's own cells are owned by `net`; new bump cells
    # must be claimable by the same net, which the fused mask encodes.
    space = query_space(
        grid,
        net=net,
        occupancy=occupancy,
        extra_obstacles=extra_obstacles,
        extra_obstacle_ids=extra_obstacle_ids,
    )
    width = space.width
    blocked = memoryview(space.blocked)
    table = neighbour_table(
        width, space.height, space.layers, space.grid.via_mask()
    )
    ncols = table.shape[1]
    nbr_mv = memoryview(table.reshape(-1))

    cells: List[int] = [space.index(p) for p in path.cells]
    used: Set[int] = set(cells)
    remaining = extra
    while remaining > 0:
        inserted = False
        for i in range(len(cells) - 1):
            a, b = cells[i], cells[i + 1]
            # Perpendicular neighbour-table columns for the step a -> b,
            # in the same probe order the Point-based fallback used: for
            # a horizontal step try South then North, for a vertical step
            # East then West.  Via steps take no planar bump at all.
            d = b - a
            if d == 1 or d == -1:
                perps = (2, 3)
            elif d == width or d == -width:
                perps = (0, 1)
            else:
                perps = ()
            for k in perps:
                an = nbr_mv[ncols * a + k]
                bn = nbr_mv[ncols * b + k]
                if an < 0 or bn < 0:  # off-chip probe
                    continue
                if an in used or bn in used:
                    continue
                if blocked[an] or blocked[bn]:
                    continue
                cells[i + 1 : i + 1] = [an, bn]
                used.update((an, bn))
                remaining -= 2
                inserted = True
                break
            if inserted:
                break
        if not inserted:
            return None
    return space.materialize(cells)

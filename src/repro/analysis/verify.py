"""Independent verification of routed solutions.

The router's own bookkeeping is never trusted here: every check works
from the raw cell sets in the :class:`~repro.core.result.NetReport`
entries plus the original design.  In particular, length matching is
re-measured as *network distance* — BFS inside the net's routed cells
from the control pin to each valve — which is the physical length a
pressure front travels, independent of how the router composed paths.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Iterable, List, Optional, Set

from repro.core.result import NetReport, PacorResult, Segment
from repro.designs.design import Design
from repro.geometry.point import Point, manhattan
from repro.robustness.errors import PacorError
from repro.valves.compatibility import pairwise_compatible


class VerificationError(PacorError, AssertionError):
    """Raised when a routed solution violates a hard constraint."""


def network_lengths(
    segments: Iterable[Segment], origin: Point, targets: List[Point]
) -> Dict[Point, Optional[int]]:
    """Return BFS distances from ``origin`` to ``targets`` along segments.

    Connectivity follows the *drawn* channel steps, not raw cell
    adjacency: two same-net cells that merely touch are separate channels
    with legal spacing (the grid pitch includes the spacing rule).
    Unreachable targets map to None.  This is the pressure-propagation
    length through the routed channel network.
    """
    adjacency: Dict[Point, List[Point]] = {}
    for a, b in segments:
        adjacency.setdefault(a, []).append(b)
        adjacency.setdefault(b, []).append(a)
    if origin not in adjacency:
        return {t: (0 if t == origin else None) for t in targets}
    dist: Dict[Point, int] = {origin: 0}
    queue = deque([origin])
    remaining = set(targets)
    remaining.discard(origin)
    while queue and remaining:
        p = queue.popleft()
        for q in adjacency.get(p, ()):
            if q not in dist:
                dist[q] = dist[p] + 1
                remaining.discard(q)
                queue.append(q)
    return {t: dist.get(t) for t in targets}


def verify_result(
    design: Design, result: PacorResult, *, strict_matching: bool = True
) -> List[str]:
    """Validate a routed solution end to end.

    Args:
        design: the original problem instance.
        result: the flow's output.
        strict_matching: when True, a net the router reports as matched
            must also satisfy δ under network-distance re-measurement.

    Returns:
        A list of informational notes (empty is fine).

    Raises:
        VerificationError: on any hard violation.
    """
    notes: List[str] = []
    by_id = design.valve_by_id()
    pin_cells = set(design.control_pins)

    # 1. Channels never cross: nets' cells are pairwise disjoint.
    seen: Dict[Point, int] = {}
    for net in result.nets:
        for cell in net.cells:
            if cell in seen:
                raise VerificationError(
                    f"cell {cell} shared by nets {seen[cell]} and {net.net_id}"
                )
            seen[cell] = net.net_id

    # 2. Channels stay on free cells of the chip.
    for net in result.nets:
        for cell in net.cells:
            if not design.grid.in_bounds(cell):
                raise VerificationError(f"net {net.net_id} leaves the chip at {cell}")
            if design.grid.is_obstacle(cell):
                raise VerificationError(
                    f"net {net.net_id} crosses obstacle cell {cell}"
                )

    used_pins: Set[Point] = set()
    for net in result.nets:
        valves = [by_id[v] for v in net.valve_ids]

        # 3. Valves sharing a pin must be pairwise compatible (Section 2).
        if not pairwise_compatible(valves):
            raise VerificationError(
                f"net {net.net_id} drives incompatible valves {net.valve_ids}"
            )

        if not net.routed:
            notes.append(f"net {net.net_id} unrouted ({len(net.valve_ids)} valves)")
            continue

        # 4. Pin legality: a feasible pin, used exactly once.
        if net.pin is None:
            raise VerificationError(f"routed net {net.net_id} has no pin")
        if net.pin not in pin_cells:
            raise VerificationError(
                f"net {net.net_id} uses non-candidate pin {net.pin}"
            )
        if net.pin in used_pins:
            raise VerificationError(f"pin {net.pin} assigned to two nets")
        used_pins.add(net.pin)
        if net.pin not in net.cells:
            raise VerificationError(
                f"net {net.net_id} does not reach its pin {net.pin}"
            )

        # 5a. Drawn segments stay within the reported cell set and join
        # cells one step apart (a via counts its z step, so the
        # mixed-arity distance is used, not ``Point.manhattan``).
        for a, b in net.segments:
            if a not in net.cells or b not in net.cells:
                raise VerificationError(
                    f"net {net.net_id} has a drawn segment outside its cells"
                )
            if manhattan(a, b) != 1:
                raise VerificationError(
                    f"net {net.net_id} has a non-adjacent segment {a}-{b}"
                )

        # 5b. Connectivity: every valve reachable from the pin along the
        # drawn channels.
        lengths = network_lengths(
            net.segments, net.pin, [v.position for v in valves]
        )
        for valve in valves:
            if valve.position not in net.cells:
                raise VerificationError(
                    f"valve {valve.id} not on net {net.net_id}'s channels"
                )
            if lengths[valve.position] is None:
                raise VerificationError(
                    f"valve {valve.id} disconnected from pin in net {net.net_id}"
                )

        # 6. Length matching, re-measured as network distance.
        if net.length_matching and net.matched and len(valves) >= 2:
            values = [lengths[v.position] for v in valves]
            spread = max(values) - min(values)  # type: ignore[operator, arg-type]
            if spread > result.delta:
                message = (
                    f"net {net.net_id} reported matched but network-distance "
                    f"spread is {spread} > delta={result.delta}"
                )
                if strict_matching:
                    raise VerificationError(message)
                notes.append(message)
    return notes

"""Deterministic synthetic design generation.

Generates routing instances with prescribed statistics: grid size,
obstacle cell count, per-cluster valve counts (length-matching clusters),
singleton valves, and candidate control pins on the chip boundary.
Valves of a cluster are placed close together (as in real biochips,
where a functional unit's valves are co-located); activation sequences
are constructed so the clustering stage recovers exactly the planned
clusters: members share their cluster's base sequence and base sequences
of different clusters are pairwise incompatible.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Sequence, Set

from repro.designs.design import Design
from repro.geometry.point import Point, cell_point
from repro.geometry.rect import Rect
from repro.grid.grid import RoutingGrid
from repro.robustness.errors import GenerationError
from repro.valves.activation import ActivationSequence
from repro.valves.valve import Valve

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.robustness.faultmap import FaultMap


@dataclass(frozen=True)
class ClusterPlan:
    """Planned multi-valve cluster: member count and LM flag."""

    size: int
    length_matching: bool = True

    def __post_init__(self) -> None:
        if self.size < 2:
            raise ValueError("planned clusters need at least two valves")


def _base_sequences(count: int, time_steps: int) -> List[ActivationSequence]:
    """Return ``count`` pairwise-incompatible activation sequences.

    Distinct binary encodings (no don't-cares) differ in at least one
    concrete step, which makes them incompatible by Definition 2.
    """
    if count > (1 << time_steps):
        raise ValueError(
            f"cannot encode {count} incompatible sequences in {time_steps} steps"
        )
    sequences = []
    for i in range(count):
        bits = format(i, f"0{time_steps}b")
        sequences.append(ActivationSequence(bits))
    return sequences


def _place_obstacles(
    grid: RoutingGrid,
    n_cells: int,
    rng: random.Random,
    *,
    margin: int = 2,
    keepout: Optional[Set[Point]] = None,
    keepout_margin: int = 2,
) -> None:
    """Block approximately ``n_cells`` cells with small random rectangles.

    Obstacles keep ``margin`` cells clear of the boundary so control pins
    (which live on the boundary) and their approaches stay routable, and
    ``keepout_margin`` cells clear of every ``keepout`` cell (the valves)
    — a real biochip is routable by construction, so obstacles never
    choke a valve's local escape capacity.  The final count is exact: the
    last rectangle is trimmed cell-wise.
    """
    if n_cells <= 0:
        return
    span_x = grid.width - 2 * margin
    span_y = grid.height - 2 * margin
    if span_x <= 0 or span_y <= 0:
        raise ValueError("grid too small for obstacles with boundary margin")
    keepout = keepout or set()

    def too_close(rect: Rect) -> bool:
        guard = rect.inflated(keepout_margin)
        return any(guard.contains(p) for p in keepout)

    placed = 0
    attempts = 0
    while placed < n_cells and attempts < 200 * n_cells + 100:
        attempts += 1
        w = rng.randint(1, min(4, span_x))
        h = rng.randint(1, min(4, span_y))
        x = rng.randint(margin, grid.width - margin - w)
        y = rng.randint(margin, grid.height - margin - h)
        rect = Rect(x, y, x + w - 1, y + h - 1)
        if too_close(rect):
            continue
        cells = [c for c in rect.cells() if not grid.is_obstacle(c)]
        if not cells:
            continue
        remaining = n_cells - placed
        for cell in cells[:remaining]:
            grid.set_obstacle(cell)
            placed += 1
    if placed < n_cells:
        raise GenerationError(f"could not place {n_cells} obstacle cells")


def _place_upper_obstacles(
    grid: RoutingGrid,
    rng: random.Random,
    fraction: float,
    *,
    keepout: Set[Point],
) -> None:
    """Block upper-layer cells correlated with the layer-0 obstacle map.

    Each layer ``z > 0`` receives ``fraction`` of the layer-0 obstacle
    cells mirrored straight up (fabricated structures span layers) plus
    the same number of independent random cells.  Columns above a
    ``keepout`` cell (the valves) stay clear so vias near terminals are
    never choked.
    """
    base = sorted(p for p in grid.obstacle_cells() if len(p) == 2)
    n_layer = int(len(base) * fraction)
    if n_layer <= 0:
        return
    for z in range(1, grid.layers):
        for p in rng.sample(base, n_layer):
            if p not in keepout:
                grid.set_obstacle(cell_point(p[0], p[1], z))
        placed = 0
        attempts = 0
        while placed < n_layer and attempts < 200 * n_layer + 100:
            attempts += 1
            x = rng.randint(0, grid.width - 1)
            y = rng.randint(0, grid.height - 1)
            if Point(x, y) in keepout:
                continue
            cell = cell_point(x, y, z)
            if grid.is_obstacle(cell):
                continue
            grid.set_obstacle(cell)
            placed += 1


def _pick_free_cell(
    grid: RoutingGrid,
    rng: random.Random,
    taken: Set[Point],
    *,
    box: Optional[Rect] = None,
    min_spacing: int = 2,
    attempts: int = 500,
) -> Optional[Point]:
    """Sample a free, untaken cell inside ``box`` keeping valve spacing."""
    extent = grid.extent().inflated(-2)  # margin for boundary pins
    search = box.intersect(extent) if box is not None else extent
    if search is None:
        search = extent
    for _ in range(attempts):
        x = rng.randint(search.xlo, search.xhi)
        y = rng.randint(search.ylo, search.yhi)
        p = Point(x, y)
        if not grid.is_free(p) or p in taken:
            continue
        if any(
            p.manhattan(q) < min_spacing for q in taken
        ):  # valves need channel room
            continue
        return p
    return None


def generate_design(
    name: str,
    width: int,
    height: int,
    *,
    clusters: Sequence[ClusterPlan],
    n_singletons: int,
    n_pins: int,
    n_obstacles: int,
    seed: int,
    time_steps: int = 10,
    core_fraction: float = 1.0,
    layers: int = 1,
    via_cost: int = 1,
    via_length: int = 1,
    upper_obstacle_fraction: float = 0.5,
) -> Design:
    """Generate a deterministic synthetic design.

    Args:
        name: design name.
        width, height: grid dimensions.
        clusters: planned multi-valve clusters (length-matching).
        n_singletons: additional single-valve nets.
        n_pins: candidate control pins, spread evenly along the boundary
            (0 gives a design with no control pins).
        n_obstacles: number of blocked cells.
        seed: RNG seed — equal seeds give identical designs.
        time_steps: activation-sequence length.
        core_fraction: fraction of each chip dimension within which
            cluster centres are placed (centred box).  Real biochips pack
            their valves into the functional core, which is what makes
            length-matched routing contentious; 1.0 spreads clusters over
            the whole chip, smaller values increase routing contention.
        layers: routing layers.  Valves and pins always live on layer 0;
            ``layers > 1`` adds upper routing layers whose obstacles are
            correlated with layer 0 (fabricated structures span layers).
        via_cost: search cost of one vertical (via) step.
        via_length: channel length contributed by one via step.
        upper_obstacle_fraction: fraction of the layer-0 obstacle cells
            mirrored onto each upper layer (the correlated part); the
            same fraction again is placed independently at random.

    Returns:
        A validated :class:`Design`.

    Determinism: a ``layers == 1`` call consumes the RNG stream exactly
    as before the layer axis existed, so planar designs are
    bit-identical across the refactor.
    """
    if not 0.0 < core_fraction <= 1.0:
        raise ValueError("core_fraction must lie in (0, 1]")
    if not 0.0 <= upper_obstacle_fraction <= 1.0:
        raise ValueError("upper_obstacle_fraction must lie in [0, 1]")
    rng = random.Random(seed)
    grid = RoutingGrid(
        width, height, layers, via_cost=via_cost, via_length=via_length
    )

    n_groups = len(clusters) + n_singletons
    sequences = _base_sequences(n_groups, time_steps)
    rng.shuffle(sequences)

    valves: List[Valve] = []
    lm_groups: List[List[int]] = []
    taken: Set[Point] = set()
    next_id = 0

    core_x = max(2, int(width * (1 - core_fraction) / 2))
    core_y = max(2, int(height * (1 - core_fraction) / 2))
    cx_lo, cx_hi = core_x, max(core_x, width - 1 - core_x)
    cy_lo, cy_hi = core_y, max(core_y, height - 1 - core_y)

    for ci, plan in enumerate(clusters):
        seq = sequences[ci]
        # Local box sized to the cluster, centred inside the chip core.
        radius = max(4, 3 * plan.size)
        members: List[int] = []
        for attempt in range(200):
            cx = rng.randint(cx_lo, cx_hi)
            cy = rng.randint(cy_lo, cy_hi)
            box = Rect(cx - radius, cy - radius, cx + radius, cy + radius)
            trial: List[Point] = []
            for _ in range(plan.size):
                p = _pick_free_cell(grid, rng, taken | set(trial), box=box)
                if p is None:
                    break
                trial.append(p)
            if len(trial) == plan.size:
                for p in trial:
                    valves.append(Valve(next_id, p, seq))
                    members.append(next_id)
                    taken.add(p)
                    next_id += 1
                break
        else:
            raise GenerationError(f"could not place cluster {ci} of design {name}")
        if plan.length_matching:
            lm_groups.append(members)

    for si in range(n_singletons):
        seq = sequences[len(clusters) + si]
        p = _pick_free_cell(grid, rng, taken)
        if p is None:
            raise GenerationError(
                f"could not place singleton valve in design {name}"
            )
        valves.append(Valve(next_id, p, seq))
        taken.add(p)
        next_id += 1

    # Obstacles go in *after* the valves, keeping a margin around every
    # valve so no terminal is choked or pocketed (fabricated chips are
    # routable by construction).
    _place_obstacles(grid, n_obstacles, rng, keepout=taken)
    if layers > 1:
        _place_upper_obstacles(
            grid, rng, upper_obstacle_fraction, keepout=taken
        )

    # Control pins: evenly spread over the free boundary cells.
    boundary = [p for p in grid.boundary_cells() if grid.is_free(p)]
    if not 0 <= n_pins <= len(boundary):
        raise ValueError(
            f"design {name}: {n_pins} pins outside 0..{len(boundary)} "
            f"free boundary cells"
        )
    stride = len(boundary) / max(n_pins, 1)
    pins = [boundary[int(i * stride)] for i in range(n_pins)]

    design = Design(
        name=name,
        grid=grid,
        valves=valves,
        lm_groups=lm_groups,
        control_pins=pins,
        delta=1,
    )
    design.validate()
    return design


def generate_fpva(
    rows: int,
    cols: int,
    *,
    pitch: int = 3,
    margin: int = 3,
    n_pins: Optional[int] = None,
    layers: int = 1,
    via_cost: int = 1,
    via_length: int = 1,
    name: Optional[str] = None,
) -> Design:
    """Generate a fully programmable valve array (FPVA) design.

    An FPVA is a dense, regular ``rows x cols`` valve matrix in which
    every valve is independently addressable — the stress case for
    control-layer routing, since the inner valves are fenced in by
    their own neighbours and escape capacity is the binding constraint.
    Every valve is a singleton net (no length-matching groups) with a
    unique activation sequence, so the clustering stage recovers
    exactly ``rows * cols`` nets.

    Args:
        rows, cols: valve matrix shape.
        pitch: cell distance between adjacent valves (>= 2 keeps one
            routing track between columns).
        margin: clear cells between the outer valves and the boundary.
        n_pins: candidate control pins (default: one per valve, capped
            at the free boundary size).
        layers: routing layers (valves and pins stay on layer 0).
        via_cost: search cost of one vertical step.
        via_length: channel length contributed by one vertical step.
        name: design name (default ``fpva-{rows}x{cols}``).

    Returns:
        A validated :class:`Design` with no obstacles: the matrix itself
        is the congestion.
    """
    if rows < 1 or cols < 1:
        raise ValueError("FPVA needs at least a 1x1 valve matrix")
    if pitch < 2:
        raise ValueError("FPVA pitch must be at least 2")
    if margin < 1:
        raise ValueError("FPVA margin must be at least 1")
    width = 2 * margin + (cols - 1) * pitch + 1
    height = 2 * margin + (rows - 1) * pitch + 1
    grid = RoutingGrid(
        width, height, layers, via_cost=via_cost, via_length=via_length
    )
    count = rows * cols
    time_steps = max(4, count.bit_length())
    sequences = _base_sequences(count, time_steps)
    valves = [
        Valve(
            r * cols + c,
            Point(margin + c * pitch, margin + r * pitch),
            sequences[r * cols + c],
        )
        for r in range(rows)
        for c in range(cols)
    ]
    boundary = list(grid.boundary_cells())
    wanted = count if n_pins is None else n_pins
    wanted = min(wanted, len(boundary))
    if wanted < 1:
        raise ValueError("FPVA needs at least one control pin")
    stride = len(boundary) / wanted
    pins = [boundary[int(i * stride)] for i in range(wanted)]
    design = Design(
        name=name or f"fpva-{rows}x{cols}",
        grid=grid,
        valves=valves,
        lm_groups=[],
        control_pins=pins,
        delta=1,
    )
    design.validate()
    return design


def generate_fault_scenario(
    design: Design,
    *,
    n_cell_faults: int,
    n_stuck_valves: int = 0,
    n_via_faults: int = 0,
    seed: int,
    target_cells: Optional[Sequence[Point]] = None,
    event_stage: Optional[str] = None,
) -> "FaultMap":
    """Generate a deterministic physical-fault scenario for ``design``.

    Args:
        design: the design the faults hit.
        n_cell_faults: blocked-cell count.
        n_stuck_valves: stuck-valve count.
        n_via_faults: fused via columns (multi-layer designs only);
            drawn from the non-valve planar sites, always as static
            faults.
        seed: RNG seed — equal seeds give identical scenarios.
        target_cells: cells to draw the blockages from (benchmarks pass a
            result's routed cells here, so every fault is guaranteed to
            damage something); valve positions are excluded either way.
            When None, blockages are drawn from the free grid cells.
        event_stage: when set, every fault becomes a timed
            :class:`~repro.robustness.faultmap.FaultEvent` firing at this
            stage boundary instead of a static (pre-routing) fault.

    Returns:
        A validated :class:`~repro.robustness.faultmap.FaultMap`.

    Raises:
        GenerationError: the design has too few candidate cells/valves.
    """
    from repro.robustness.faultmap import FaultEvent, FaultMap

    rng = random.Random(seed)
    valve_cells = {v.position for v in design.valves}
    if target_cells is not None:
        pool = [p for p in target_cells if p not in valve_cells]
    else:
        grid = design.grid
        pool = [
            p
            for y in range(grid.height)
            for x in range(grid.width)
            if grid.is_free(p := Point(x, y)) and p not in valve_cells
        ]
    pool = sorted(set(pool))
    if n_cell_faults > len(pool):
        raise GenerationError(
            f"design {design.name}: {n_cell_faults} cell faults exceed the "
            f"{len(pool)} candidate cells"
        )
    valve_ids = sorted(v.id for v in design.valves)
    if n_stuck_valves > len(valve_ids):
        raise GenerationError(
            f"design {design.name}: {n_stuck_valves} stuck valves exceed "
            f"the {len(valve_ids)} valves"
        )
    cells = rng.sample(pool, n_cell_faults)
    stuck = rng.sample(valve_ids, n_stuck_valves)
    if event_stage is not None:
        events = [FaultEvent(stage=event_stage, cell=p) for p in cells]
        events += [FaultEvent(stage=event_stage, valve=v) for v in stuck]
        fm = FaultMap(events=events)
    else:
        fm = FaultMap(faulty_cells=cells, stuck_valves=stuck)
    if n_via_faults:
        grid = design.grid
        if grid.layers < 2:
            raise GenerationError(
                f"design {design.name}: via faults need a multi-layer grid"
            )
        sites = [
            p
            for y in range(grid.height)
            for x in range(grid.width)
            if (p := Point(x, y)) not in valve_cells and grid.via_allowed(p)
        ]
        if n_via_faults > len(sites):
            raise GenerationError(
                f"design {design.name}: {n_via_faults} via faults exceed "
                f"the {len(sites)} candidate sites"
            )
        for site in rng.sample(sites, n_via_faults):
            fm.add_via_stuck(site)
    fm.validate(design)
    return fm

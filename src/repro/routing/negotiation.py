"""Negotiation-based detailed routing (Algorithm 1 of the paper).

Unlike PathFinder's congestion negotiation at global-routing level, the
paper negotiates *detailed* routability directly on the grid: each
iteration routes every edge with routed paths acting as hard obstacles;
when some edge fails, the history cost of every cell used in this
iteration is raised (Eq. 5), all paths are ripped up, and the next
iteration re-routes everything — cells with high history cost are then
avoided unless no alternative exists.

The per-edge search runs directly on the kernel core: one fused
:class:`SearchSpace` per edge query, the flat history array plugged into
:func:`repro.routing.core.astar_search` as the per-cell step surcharge,
and all bookkeeping (claimed cells, history updates, rip-up) on cell ids
— paths are only materialised into :class:`Path` objects for the result.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.geometry.point import Point
from repro.grid.grid import RoutingGrid
from repro.grid.occupancy import Occupancy
from repro.observability import context as obs
from repro.robustness import faults
from repro.robustness.budget import Budget
from repro.robustness.errors import BudgetExceeded
from repro.routing.core import astar_search, query_space
from repro.routing.path import Path


@dataclass(frozen=True)
class RouteRequest:
    """One edge to route: any source cell to any target cell, for a net.

    Attributes:
        edge_id: unique id of the edge among the requests.
        net: id of the net (Steiner tree) the edge belongs to; edges of
            the same net may share cells.
        sources: candidate start cells.
        targets: candidate goal cells.
    """

    edge_id: int
    net: int
    sources: Tuple[Point, ...]
    targets: Tuple[Point, ...]


@dataclass
class NegotiationResult:
    """Outcome of a negotiation-routing run.

    Attributes:
        success: True when every requested edge was routed.
        paths: routed path per edge id (only successfully routed edges).
        failed_edges: edge ids that remained unroutable in the final
            iteration.
        iterations: number of rip-up/reroute rounds performed.
        aborted: True when a compute budget ran out mid-negotiation; the
            paths routed so far stay committed and every remaining edge
            is reported failed.
    """

    success: bool
    paths: Dict[int, Path] = field(default_factory=dict)
    failed_edges: List[int] = field(default_factory=list)
    iterations: int = 0
    aborted: bool = False


class NegotiationRouter:
    """Iterative rip-up-all/reroute router with history costs.

    Parameters follow the paper's implementation: base history cost
    ``b = 1.0``, decay/gain factor ``alpha = 0.1`` (Eq. 5), and iteration
    threshold ``gamma = 10``.
    """

    def __init__(
        self,
        grid: RoutingGrid,
        *,
        base_cost: float = 1.0,
        alpha: float = 0.1,
        gamma: int = 10,
        max_expansions: Optional[int] = None,
        exclusive_within_net: bool = True,
    ) -> None:
        self.grid = grid
        self.base_cost = base_cost
        self.alpha = alpha
        self.gamma = gamma
        self.max_expansions = max_expansions
        # Steiner-tree edges of one net must meet only at their shared
        # endpoint nodes; riding along a sibling edge would silently
        # shortcut the channel network and break length matching.
        self.exclusive_within_net = exclusive_within_net
        self.history: List[float] = [0.0] * grid.size

    def route(
        self,
        requests: Sequence[RouteRequest],
        occupancy: Occupancy,
        *,
        budget: Optional[Budget] = None,
    ) -> NegotiationResult:
        """Route every request, negotiating shared cells across iterations.

        On success, all routed cells are left occupied (by each request's
        net id) in ``occupancy``.  On failure — the iteration threshold
        was reached with unroutable edges — the paths of the *final*
        iteration stay occupied and the failed edge ids are reported, so
        the caller can demote the affected clusters (the paper rebuilds
        the DME tree or re-designs valve positions in that case).

        When ``budget`` runs out mid-negotiation the router aborts
        instead of raising: the current iteration's routed paths stay
        committed, every edge not routed in it is reported failed, and
        ``aborted`` is set so the caller can skip further repair work.
        """
        result = NegotiationResult(success=False)
        if not requests:
            result.success = True
            return result

        grid = self.grid
        gindex = grid.index
        exp_counter = (
            budget.expansion_counter
            if budget is not None
            else obs.counter("astar.expansions")
        )
        # Searches the engine's walled-pocket check proved unroutable;
        # their edge spans are flagged so ``pacor profile`` can tell a
        # free proof from an expensive one.
        pruned_counter = obs.counter("astar.pruned")
        for iteration in range(1, self.gamma + 1):
            result.iterations = iteration
            # While every history entry is still zero the surcharge is a
            # no-op, so the engine is told there is none at all — which
            # lets unit-cost rounds run on the vectorised wave engine.
            history = self.history if any(self.history) else None
            obs.counter("negotiation.rounds").inc()
            round_span = obs.span(
                "negotiation-round", category="round", iteration=iteration
            )
            id_paths: Dict[int, List[int]] = {}
            failed: List[int] = []
            # Cell ids newly claimed this iteration.  Cells a net owned
            # before this router ran (e.g. pre-occupied valve terminals)
            # must survive the rip-up, so only these are released.
            added_ids: List[int] = []

            with round_span:
                for request in requests:
                    extra_ids = None
                    if self.exclusive_within_net:
                        extra_ids = occupancy.cells_of_ids(request.net)
                        # Endpoint ids only exist for on-chip pins; an
                        # off-chip pin can never match an occupied cell.
                        extra_ids -= {
                            gindex(p)
                            for p in request.sources + request.targets
                            if grid.in_bounds(p)
                        }
                    space = query_space(
                        grid,
                        net=request.net,
                        occupancy=occupancy,
                        extra_obstacle_ids=extra_ids or None,
                    )
                    edge_span = obs.span(
                        "negotiation-edge",
                        category="net",
                        net_id=request.net,
                        edge_id=request.edge_id,
                    )
                    spent_before = exp_counter.value
                    pruned_before = pruned_counter.value
                    ids: Optional[List[int]] = None
                    with edge_span:
                        try:
                            ids = astar_search(
                                space,
                                request.sources,
                                request.targets,
                                history=history,
                                max_expansions=self.max_expansions,
                                budget=budget,
                            )
                        except BudgetExceeded:
                            result.aborted = True
                            ids = None
                        finally:
                            edge_span.set(
                                astar_expansions=exp_counter.value
                                - spent_before,
                                routed=ids is not None,
                            )
                            if pruned_counter.value > pruned_before:
                                edge_span.set(pruned=True)
                    if ids is not None and faults.fires(
                        "negotiation_edge_failure"
                    ):
                        ids = None
                    if ids is None:
                        failed.append(request.edge_id)
                        if result.aborted:
                            # Out of budget: every not-yet-routed edge of
                            # this iteration fails without further search.
                            routed = set(id_paths)
                            failed.extend(
                                r.edge_id
                                for r in requests
                                if r.edge_id not in routed
                                and r.edge_id not in failed
                            )
                            break
                        continue
                    id_paths[request.edge_id] = ids
                    new_ids = [
                        cid
                        for cid in ids
                        if occupancy.owner_id(cid) != request.net
                    ]
                    occupancy.occupy_ids(new_ids, request.net)
                    added_ids.extend(new_ids)
                round_span.set(
                    routed=len(id_paths),
                    failed=len(failed),
                    aborted=result.aborted,
                )

            if not failed:
                result.success = True
                result.paths = self._materialize(id_paths)
                result.failed_edges = []
                return result

            if result.aborted or iteration >= self.gamma:
                # Give up: keep the final partial solution for the caller.
                result.paths = self._materialize(id_paths)
                result.failed_edges = failed
                return result

            # Raise history cost along every path used this iteration
            # (Eq. 5), then rip everything up and try again.
            history = self.history
            for ids in id_paths.values():
                for cid in ids:
                    history[cid] = self.base_cost + self.alpha * history[cid]
            occupancy.release_cell_ids(added_ids)

        return result  # pragma: no cover - loop always returns earlier

    def _materialize(self, id_paths: Dict[int, List[int]]) -> Dict[int, Path]:
        """Turn per-edge cell-id paths back into :class:`Path` objects."""
        grid = self.grid
        width = grid.width
        if grid.layers == 1:
            return {
                edge_id: Path([Point(cid % width, cid // width) for cid in ids])
                for edge_id, ids in id_paths.items()
            }
        point = grid.point
        return {
            edge_id: Path([point(cid) for cid in ids])
            for edge_id, ids in id_paths.items()
        }

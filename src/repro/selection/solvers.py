"""Solvers for the candidate-selection MWCP instance.

Three solvers mirror the three methods the paper implemented:

* :func:`solve_exact` — branch-and-bound, exact for the instance sizes in
  the evaluation (this stands in for the Gurobi ILP, which the paper
  found best).
* :func:`solve_greedy` — sequential construction ("graph-based" method).
* :func:`solve_local_search` — greedy start plus single-swap descent (the
  unconstrained-quadratic-programming stand-in).

All weights are non-positive, so every solver maximises a sum of
penalties towards zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.selection.mwcp import SelectionInstance


@dataclass
class SelectionResult:
    """Outcome of a selection solve.

    Attributes:
        choice: selected candidate index per cluster.
        objective: clique weight of the selection (<= 0).
        optimal: True when the solver proved optimality.
        nodes_explored: search effort (branch-and-bound only).
    """

    choice: List[int]
    objective: float
    optimal: bool = False
    nodes_explored: int = 0


def _incremental_gain(
    instance: SelectionInstance,
    cluster: int,
    candidate: int,
    chosen_flats: Sequence[int],
) -> float:
    """Return node weight + edges to already-chosen candidates."""
    flat = instance.flat_index(cluster, candidate)
    gain = float(instance.node_weight[flat])
    for other in chosen_flats:
        gain += instance.pair_weight(flat, other)
    return gain


def solve_greedy(instance: SelectionInstance) -> SelectionResult:
    """Pick per-cluster candidates sequentially, best-incremental-first.

    Clusters with fewer candidates are decided first (least freedom),
    and each decision maximises the marginal gain against the partial
    selection.
    """
    order = sorted(
        range(instance.n_clusters), key=lambda ci: (len(instance.clusters[ci]), ci)
    )
    choice = [0] * instance.n_clusters
    chosen_flats: List[int] = []
    for ci in order:
        best_candidate = max(
            range(len(instance.clusters[ci])),
            key=lambda a: (_incremental_gain(instance, ci, a, chosen_flats), -a),
        )
        choice[ci] = best_candidate
        chosen_flats.append(instance.flat_index(ci, best_candidate))
    return SelectionResult(choice, instance.objective(choice))


def solve_local_search(
    instance: SelectionInstance,
    *,
    start: Optional[Sequence[int]] = None,
    max_rounds: int = 50,
) -> SelectionResult:
    """Improve a selection by single-cluster swaps until a local optimum.

    Each round scans every cluster and re-optimises its candidate with
    the rest fixed; rounds repeat until no swap improves the objective.
    """
    if start is None:
        choice = solve_greedy(instance).choice
    else:
        choice = list(start)
    flats = [instance.flat_index(ci, choice[ci]) for ci in range(instance.n_clusters)]

    def marginal(ci: int, a: int) -> float:
        flat = instance.flat_index(ci, a)
        gain = float(instance.node_weight[flat])
        for cj in range(instance.n_clusters):
            if cj != ci:
                gain += instance.pair_weight(flat, flats[cj])
        return gain

    for _ in range(max_rounds):
        improved = False
        for ci in range(instance.n_clusters):
            current = marginal(ci, choice[ci])
            best_a, best_gain = choice[ci], current
            for a in range(len(instance.clusters[ci])):
                if a == choice[ci]:
                    continue
                gain = marginal(ci, a)
                if gain > best_gain + 1e-12:
                    best_a, best_gain = a, gain
            if best_a != choice[ci]:
                choice[ci] = best_a
                flats[ci] = instance.flat_index(ci, best_a)
                improved = True
        if not improved:
            break
    return SelectionResult(choice, instance.objective(choice))


def solve_exact(
    instance: SelectionInstance,
    *,
    max_nodes: int = 500_000,
) -> SelectionResult:
    """Branch-and-bound over clusters; exact unless the node budget trips.

    The bound exploits non-positive weights: a partial selection can gain
    at most, for each undecided cluster, the best ``node weight + edges
    to decided candidates`` (edges among undecided clusters are bounded
    by zero).  Starts from the local-search incumbent.  When ``max_nodes``
    is exhausted the incumbent is returned with ``optimal=False``.

    Every node carries a gain vector over all flat candidates: ``node
    weight + pair weights to the decided candidates``, the rows added in
    choice order so each entry keeps the float association of a scalar
    ``node_weight + Σ pair_weight`` sum.  The bound and the candidate
    ranking both read it.
    """
    incumbent = solve_local_search(instance)
    best_choice = list(incumbent.choice)
    best_value = incumbent.objective

    order = sorted(
        range(instance.n_clusters), key=lambda ci: (len(instance.clusters[ci]), ci)
    )
    nodes_explored = 0
    budget_hit = False

    choice: List[int] = [0] * instance.n_clusters
    pair = instance.pair_matrix
    offsets = instance.offsets
    sizes = [len(c) for c in instance.clusters]

    def descend(depth: int, value: float, gains: np.ndarray) -> None:
        nonlocal best_choice, best_value, nodes_explored, budget_hit
        if budget_hit:
            return
        nodes_explored += 1
        if nodes_explored > max_nodes:
            budget_hit = True
            return
        if depth == len(order):
            if value > best_value + 1e-12:
                best_value = value
                best_choice = list(choice)
            return
        # Per-cluster best gains, summed in ``order`` so the float total
        # matches a cluster-by-cluster scalar accumulation.
        best = np.maximum.reduceat(gains, offsets).tolist()
        bound = 0.0
        for pos in range(depth, len(order)):
            bound += best[order[pos]]
        if value + bound <= best_value + 1e-12:
            return
        ci = order[depth]
        base = offsets[ci]
        own = gains[base : base + sizes[ci]].tolist()
        for a in sorted(range(sizes[ci]), key=lambda k: -own[k]):
            choice[ci] = a
            descend(depth + 1, value + own[a], gains + pair[base + a])

    descend(0, 0.0, instance.node_weight.astype(np.float64))
    return SelectionResult(
        best_choice,
        instance.objective(best_choice),
        optimal=not budget_hit,
        nodes_explored=nodes_explored,
    )

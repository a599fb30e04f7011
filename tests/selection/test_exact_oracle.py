"""Exactness oracle for the MWCP branch-and-bound.

``reference_solve_exact`` is a frozen copy of ``solve_exact`` as it stood
before the gain-vector rewrite: every bound and every candidate ranking
recomputed from scalar ``pair_weight`` calls.  The rewrite must explore
the same tree, so on every instance both must return the same choice,
the bitwise-same objective, the same ``optimal`` flag and the same node
count — including when the node budget trips part-way.
"""

import random
from typing import List, Sequence

import numpy as np
import pytest

from repro.dme.tree import CandidateTree, TopologyNode
from repro.geometry import Point
from repro.selection import SelectionInstance, solve_exact, solve_local_search
from repro.selection.solvers import SelectionResult


def _incremental_gain(
    instance: SelectionInstance,
    cluster: int,
    candidate: int,
    chosen_flats: Sequence[int],
) -> float:
    flat = instance.flat_index(cluster, candidate)
    gain = float(instance.node_weight[flat])
    for other in chosen_flats:
        gain += instance.pair_weight(flat, other)
    return gain


def reference_solve_exact(
    instance: SelectionInstance, *, max_nodes: int = 500_000
) -> SelectionResult:
    """The scalar branch-and-bound, kept verbatim as a test oracle."""
    incumbent = solve_local_search(instance)
    best_choice = list(incumbent.choice)
    best_value = incumbent.objective

    order = sorted(
        range(instance.n_clusters), key=lambda ci: (len(instance.clusters[ci]), ci)
    )
    nodes_explored = 0
    budget_hit = False

    choice: List[int] = [0] * instance.n_clusters
    chosen_flats: List[int] = []

    def bound_remaining(depth: int) -> float:
        total = 0.0
        for pos in range(depth, len(order)):
            ci = order[pos]
            total += max(
                _incremental_gain(instance, ci, a, chosen_flats)
                for a in range(len(instance.clusters[ci]))
            )
        return total

    def descend(depth: int, value: float) -> None:
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
        if value + bound_remaining(depth) <= best_value + 1e-12:
            return
        ci = order[depth]
        ranked = sorted(
            range(len(instance.clusters[ci])),
            key=lambda a: -_incremental_gain(instance, ci, a, chosen_flats),
        )
        for a in ranked:
            gain = _incremental_gain(instance, ci, a, chosen_flats)
            choice[ci] = a
            chosen_flats.append(instance.flat_index(ci, a))
            descend(depth + 1, value + gain)
            chosen_flats.pop()

    descend(0, 0.0)
    return SelectionResult(
        best_choice,
        instance.objective(best_choice),
        optimal=not budget_hit,
        nodes_explored=nodes_explored,
    )


def tree(cluster_id, x, y, span, dy):
    leaf_a = TopologyNode(sink=0, position=Point(x, y))
    leaf_b = TopologyNode(sink=1, position=Point(x + span, y + dy))
    root = Point(x + span // 2, y)
    return CandidateTree(cluster_id, TopologyNode(children=[leaf_a, leaf_b], position=root))


def tree_instance(seed: int) -> SelectionInstance:
    """Clusters of random two-sink trees on a crowded strip.

    Some candidates are exact duplicates of a sibling, and some clusters
    get a far-away candidate, whose pairs with everything else have zero
    overlap.
    """
    rng = random.Random(seed)
    clusters = []
    for ci in range(rng.randint(4, 9)):
        cands = []
        for _ in range(rng.randint(1, 5)):
            if cands and rng.random() < 0.25:
                cands.append(cands[-1])  # duplicate candidate
            elif rng.random() < 0.15:
                cands.append(tree(ci, 100 + 20 * ci, 100, 4, 0))  # isolated
            else:
                cands.append(
                    tree(ci, rng.randrange(12), rng.randrange(12), rng.randint(2, 8), rng.randint(0, 4))
                )
        clusters.append(cands)
    return SelectionInstance(clusters)


def weight_instance(seed: int) -> SelectionInstance:
    """A tree instance re-weighted with random many-digit penalties.

    Awkward float values stress the summation order; about a third of
    the pair weights are zero.
    """
    inst = tree_instance(seed)
    rng = np.random.default_rng(seed)
    n = len(inst.trees)
    inst.node_weight[:] = -rng.random(n) / 3.0
    pair = -rng.random((n, n)) * (rng.random((n, n)) > 0.33)
    pair = np.triu(pair, 1)
    pair = pair + pair.T
    pair[inst.cluster_of[:, None] == inst.cluster_of[None, :]] = 0.0
    inst.pair_matrix[:] = pair
    return inst


def assert_same(inst: SelectionInstance, **kwargs) -> SelectionResult:
    got = solve_exact(inst, **kwargs)
    want = reference_solve_exact(inst, **kwargs)
    assert got.choice == want.choice
    assert got.objective.hex() == want.objective.hex()
    assert got.optimal == want.optimal
    assert got.nodes_explored == want.nodes_explored
    return got


@pytest.mark.parametrize("seed", range(25))
def test_tree_instances_match_reference(seed):
    assert assert_same(tree_instance(seed)).optimal


@pytest.mark.parametrize("seed", range(25))
def test_weighted_instances_match_reference(seed):
    assert assert_same(weight_instance(seed)).optimal


@pytest.mark.parametrize("max_nodes", [0, 1, 3, 10, 40, 150])
@pytest.mark.parametrize("seed", range(6))
def test_node_budget_trips_match_reference(seed, max_nodes):
    assert_same(weight_instance(100 + seed), max_nodes=max_nodes)


def test_budget_trips_are_exercised():
    trips = [
        not solve_exact(weight_instance(100 + seed), max_nodes=40).optimal
        for seed in range(6)
    ]
    assert any(trips)

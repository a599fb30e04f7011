"""The MWCP selection instance: weights of the clique graph.

Flattens the per-cluster candidate lists into one node set, precomputes
the node weights (Eq. 2) and pairwise edge weights (Eq. 3) between
candidates of different clusters, and exposes the objective the solvers
optimise: pick exactly one candidate per cluster maximising the summed
node and induced edge weights (all weights are <= 0, so "maximise"
means "lose the least routability and matching").
"""

from __future__ import annotations

from typing import List, Sequence

import networkx as nx
import numpy as np

from repro.dme.tree import CandidateTree
from repro.selection.costs import mismatch_costs, tree_overlap_cost


class SelectionInstance:
    """One-candidate-per-cluster selection with pairwise interaction costs.

    Attributes:
        clusters: candidate trees per cluster (ragged list).
        node_weight: flat array of Cm per flattened candidate.
        cluster_of: flat array mapping candidate index -> cluster index.
        offsets: first flat index of each cluster's candidates.
    """

    def __init__(
        self, clusters: Sequence[Sequence[CandidateTree]], lam: float = 0.1
    ) -> None:
        if any(len(c) == 0 for c in clusters):
            raise ValueError("every cluster needs at least one candidate tree")
        self.lam = lam
        self.clusters: List[List[CandidateTree]] = [list(c) for c in clusters]
        flat: List[CandidateTree] = [t for c in self.clusters for t in c]
        self.trees = flat
        self.node_weight = np.array(mismatch_costs(flat, lam), dtype=float)
        self.cluster_of = np.array(
            [ci for ci, c in enumerate(self.clusters) for _ in c], dtype=int
        )
        self.offsets: List[int] = []
        acc = 0
        for c in self.clusters:
            self.offsets.append(acc)
            acc += len(c)
        self._pair = np.zeros((len(flat), len(flat)), dtype=float)
        for i, ta in enumerate(flat):
            for j in range(i + 1, len(flat)):
                if self.cluster_of[i] == self.cluster_of[j]:
                    continue
                w = tree_overlap_cost(ta, flat[j], lam)
                self._pair[i, j] = w
                self._pair[j, i] = w

    @property
    def n_clusters(self) -> int:
        """Return the number of clusters to select for."""
        return len(self.clusters)

    def flat_index(self, cluster: int, candidate: int) -> int:
        """Return the flat node index of ``candidate`` within ``cluster``."""
        return self.offsets[cluster] + candidate

    @property
    def pair_matrix(self) -> np.ndarray:
        """Return the symmetric flat pair-weight matrix (zero within a cluster)."""
        return self._pair

    def pair_weight(self, a: int, b: int) -> float:
        """Return the overlap cost between flat candidates ``a`` and ``b``."""
        return float(self._pair[a, b])

    def objective(self, choice: Sequence[int]) -> float:
        """Return the clique weight of ``choice`` (candidate index per cluster).

        The objective is the sum of selected node weights plus all induced
        pairwise edge weights — exactly the maximum-weight-clique value of
        the paper's formulation.
        """
        if len(choice) != self.n_clusters:
            raise ValueError("choice must pick one candidate per cluster")
        flats = [self.flat_index(ci, choice[ci]) for ci in range(self.n_clusters)]
        total = float(sum(self.node_weight[f] for f in flats))
        for x in range(len(flats)):
            for y in range(x + 1, len(flats)):
                total += float(self._pair[flats[x], flats[y]])
        return total

    def selected_trees(self, choice: Sequence[int]) -> List[CandidateTree]:
        """Return the chosen candidate tree per cluster."""
        return [self.clusters[ci][choice[ci]] for ci in range(self.n_clusters)]


def build_clique_graph(instance: SelectionInstance) -> nx.Graph:
    """Return the paper's clique graph for an instance.

    Nodes are flattened candidates with a ``weight`` attribute (Cm);
    edges join candidates of different clusters with a ``weight``
    attribute (Co).  Cliques of size ``n_clusters`` correspond exactly to
    valid selections, so a maximum-weight such clique is the optimum.
    """
    graph = nx.Graph()
    for i, w in enumerate(instance.node_weight):
        graph.add_node(i, weight=float(w), cluster=int(instance.cluster_of[i]))
    n = len(instance.trees)
    for i in range(n):
        for j in range(i + 1, n):
            if instance.cluster_of[i] != instance.cluster_of[j]:
                graph.add_edge(i, j, weight=instance.pair_weight(i, j))
    return graph

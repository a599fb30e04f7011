"""Candidate Steiner-tree selection (Section 4.2).

One candidate tree must be chosen per length-matching cluster, trading
off two costs:

* the *length-mismatch cost* ``Cm`` (Eq. 2) — normalised estimated ΔL,
* the *overlap cost* ``Co`` (Eqs. 3-4) — bounding-box overlap between
  edges of trees from different clusters (a routability proxy).

The paper formulates this as a maximum weight clique problem and solves
it with Gurobi ILP.  The clique graph has one node per candidate with
weight ``Cm`` and an edge between candidates of *different* clusters with
weight ``Co`` — any clique picks at most one candidate per cluster, and a
maximum one covering all clusters is the selection.  This repo solves the
identical optimisation with an exact branch-and-bound (the ILP
substitute), a greedy constructor (the "graph-based" variant), and a
swap-based local search (the "unconstrained quadratic programming"
variant); see DESIGN.md for the substitution argument.
"""

from repro.selection.costs import (
    edge_overlap_cost,
    mismatch_costs,
    tree_overlap_cost,
)
from repro.selection.mwcp import SelectionInstance, build_clique_graph
from repro.selection.solvers import (
    SelectionResult,
    solve_exact,
    solve_greedy,
    solve_local_search,
)

__all__ = [
    "mismatch_costs",
    "edge_overlap_cost",
    "tree_overlap_cost",
    "SelectionInstance",
    "build_clique_graph",
    "SelectionResult",
    "solve_exact",
    "solve_greedy",
    "solve_local_search",
]

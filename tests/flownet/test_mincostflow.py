"""Tests for the successive-shortest-paths min-cost max-flow solver."""

import networkx as nx
import pytest

from repro.flownet import MinCostFlow
from repro.flownet.mincostflow import _solve_scalar, _solve_waves


def test_node_count_validated():
    with pytest.raises(ValueError):
        MinCostFlow(0)


def test_arc_validation():
    net = MinCostFlow(2)
    with pytest.raises(ValueError):
        net.add_arc(0, 5, 1, 0.0)
    with pytest.raises(ValueError):
        net.add_arc(0, 1, -1, 0.0)
    with pytest.raises(ValueError):
        net.add_arc(0, 1, 1, -2.0)


def test_source_equals_sink_rejected():
    net = MinCostFlow(2)
    with pytest.raises(ValueError):
        net.max_flow_min_cost(0, 0)


@pytest.mark.parametrize("source,sink", [(0, -1), (0, 7), (-1, 2), (3, 2), (0, 3)])
def test_endpoints_out_of_range_rejected(source, sink):
    """-1 must not wrap onto the last node, and 7 must not escape as a
    bare IndexError."""
    net = MinCostFlow(3)
    net.add_arc(0, 2, 1, 0)
    with pytest.raises(ValueError, match="out of range"):
        net.max_flow_min_cost(source, sink)


def test_single_arc():
    net = MinCostFlow(2)
    a = net.add_arc(0, 1, 3, 2.0)
    flow, cost = net.max_flow_min_cost(0, 1)
    assert flow == 3
    assert cost == 6.0
    assert net.flow_on(a) == 3


def test_flow_on_requires_forward_arc():
    net = MinCostFlow(2)
    net.add_arc(0, 1, 1, 0.0)
    with pytest.raises(ValueError):
        net.flow_on(1)


def test_max_flow_cap():
    net = MinCostFlow(2)
    net.add_arc(0, 1, 5, 1.0)
    flow, cost = net.max_flow_min_cost(0, 1, max_flow=2)
    assert flow == 2
    assert cost == 2.0


def test_prefers_cheap_path():
    # 0 -> 1 -> 3 (cost 2) vs 0 -> 2 -> 3 (cost 10); cap 1 each.
    net = MinCostFlow(4)
    cheap_a = net.add_arc(0, 1, 1, 1.0)
    net.add_arc(1, 3, 1, 1.0)
    exp_a = net.add_arc(0, 2, 1, 5.0)
    net.add_arc(2, 3, 1, 5.0)
    flow, cost = net.max_flow_min_cost(0, 3, max_flow=1)
    assert flow == 1
    assert cost == 2.0
    assert net.flow_on(cheap_a) == 1
    assert net.flow_on(exp_a) == 0


def test_residual_rerouting_needed():
    """Classic case where the second augmentation must push flow back."""
    # Two units 0 -> 3.  Middle arc tempts the first path.
    net = MinCostFlow(4)
    net.add_arc(0, 1, 1, 1.0)
    net.add_arc(0, 2, 1, 2.0)
    net.add_arc(1, 2, 1, 0.0)
    net.add_arc(1, 3, 1, 3.0)
    net.add_arc(2, 3, 1, 1.0)
    flow, cost = net.max_flow_min_cost(0, 3)
    assert flow == 2
    # Optimal: 0-1-2-3 (2) + 0-2... cap conflict; optimum is
    # 0-1-3 (4) + 0-2-3 (3) = 7 vs 0-1-2-3 (2) + 0-2-3 infeasible (2-3 cap).
    assert cost == 7.0


def test_disconnected_sink():
    net = MinCostFlow(3)
    net.add_arc(0, 1, 1, 1.0)
    flow, cost = net.max_flow_min_cost(0, 2)
    assert flow == 0
    assert cost == 0.0


def test_matches_networkx_on_random_networks():
    import random

    rng = random.Random(42)
    for trial in range(5):
        n = 12
        net = MinCostFlow(n)
        g = nx.DiGraph()
        g.add_nodes_from(range(n))
        used = set()
        for _ in range(40):
            u, v = rng.sample(range(n), 2)
            if (u, v) in used:
                continue
            used.add((u, v))
            cap = rng.randint(1, 4)
            cost = rng.randint(0, 9)
            net.add_arc(u, v, cap, float(cost))
            g.add_edge(u, v, capacity=cap, weight=cost)
        flow, cost = net.max_flow_min_cost(0, n - 1)
        expected_flow_dict = nx.max_flow_min_cost(g, 0, n - 1)
        expected_flow = sum(expected_flow_dict[0].values()) - sum(
            d.get(0, 0) for d in expected_flow_dict.values()
        )
        expected_cost = nx.cost_of_flow(g, expected_flow_dict)
        assert flow == expected_flow
        assert cost == pytest.approx(expected_cost)


def test_arc_costs_must_be_integers():
    net = MinCostFlow(2)
    with pytest.raises(ValueError, match="not an integer"):
        net.add_arc(0, 1, 1, 0.5)
    with pytest.raises(ValueError, match="integers"):
        net.add_arcs([0], [1], [1], [1.5])
    with pytest.raises(ValueError, match="integers"):
        net.add_arcs([0], [1], [1], [float("inf")])


@pytest.mark.parametrize("engine", [_solve_scalar, _solve_waves])
def test_split_solves_match_networkx_totals(engine):
    """A second call continues the first: the summed totals are optimal.

    Both engines run directly, on capacitated networks of mixed degree.
    """
    import random

    rng = random.Random(7)
    for trial in range(8):
        n = 12
        net = MinCostFlow(n)
        g = nx.DiGraph()
        g.add_nodes_from(range(n))
        for _ in range(40):
            u, v = rng.sample(range(n), 2)
            if g.has_edge(u, v):
                continue
            cap = rng.randint(1, 4)
            cost = rng.randint(0, 9)
            net.add_arc(u, v, cap, cost)
            g.add_edge(u, v, capacity=cap, weight=cost)
        first_flow, first_cost, _ = engine(net, 0, n - 1, 1)
        rest_flow, rest_cost, _ = engine(net, 0, n - 1, float("inf"))
        expected = nx.max_flow_min_cost(g, 0, n - 1)
        assert first_flow + rest_flow == sum(expected[0].values()) - sum(
            d.get(0, 0) for d in expected.values()
        )
        assert first_cost + rest_cost == nx.cost_of_flow(g, expected)


def test_arc_added_after_a_solve_keeps_reduced_costs_non_negative():
    net = MinCostFlow(3)
    net.add_arc(0, 1, 1, 2)
    net.add_arc(1, 2, 1, 0)
    assert net.max_flow_min_cost(0, 2) == (1, 2.0)
    with pytest.raises(ValueError, match="reduced cost"):
        net.add_arc(0, 2, 1, 0)


def test_add_node_extends_network():
    net = MinCostFlow(1)
    new = net.add_node()
    assert new == 1
    net.add_arc(0, 1, 1, 0.0)
    flow, _ = net.max_flow_min_cost(0, 1)
    assert flow == 1


def test_unit_grid_bipartite_assignment():
    """3 sources, 3 sinks, distinct costs: solver must find the cheap matching."""
    # nodes: 0 S, 1-3 left, 4-6 right, 7 T
    net = MinCostFlow(8)
    for left in (1, 2, 3):
        net.add_arc(0, left, 1, 0.0)
    costs = {
        (1, 4): 1,
        (1, 5): 4,
        (1, 6): 5,
        (2, 4): 2,
        (2, 5): 1,
        (2, 6): 4,
        (3, 4): 5,
        (3, 5): 2,
        (3, 6): 1,
    }
    for (u, v), c in costs.items():
        net.add_arc(u, v, 1, float(c))
    for right in (4, 5, 6):
        net.add_arc(right, 7, 1, 0.0)
    flow, cost = net.max_flow_min_cost(0, 7)
    assert flow == 3
    assert cost == 3.0  # diagonal matching

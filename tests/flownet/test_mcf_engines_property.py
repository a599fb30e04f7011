"""Both min-cost-flow engines reproduce the frozen reference, arc by arc.

The wave engine recovers the scalar loop's parents from labels and
replays, so it is only right if every tie is broken the same way.  Random
split-cell grid networks are the tie-heavy case: zero-cost splits,
unit steps, selector arcs of cost 0 and 1 (so ``d_sink == 0`` occurs)
and pins that drain at zero cost.  Each engine is called directly, not
through the node-count switch, so both run on every network.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.flownet import MinCostFlow
from repro.flownet.mincostflow import _solve_scalar, _solve_waves

from tests.flownet.test_mcf_exactness import reference_max_flow_min_cost


def grid_network(
    seed: int,
    width: int,
    height: int,
    density: float,
    n_sources: int,
    n_pins: int,
    selector_costs: tuple,
):
    """Build a split-cell escape network; return ``(net, s, t, demand, arcs)``.

    ``density`` is the obstacle share; ``n_pins`` may be above or below
    ``n_sources``; selector arcs draw their cost from ``selector_costs``.
    """
    rng = random.Random(seed)
    cells = [(x, y) for y in range(height) for x in range(width)]
    usable = [c for c in cells if rng.random() >= density] or [cells[0]]
    k_of = {c: k for k, c in enumerate(usable)}
    net = MinCostFlow(2 * len(usable) + 2 + n_sources)
    s_node, t_node = 2 * len(usable), 2 * len(usable) + 1
    arcs = [net.add_arc(2 * k, 2 * k + 1, 1, 0) for k in range(len(usable))]
    for (x, y), k in k_of.items():
        for q in ((x + 1, y), (x - 1, y), (x, y + 1), (x, y - 1)):
            if q in k_of:
                arcs.append(net.add_arc(2 * k + 1, 2 * k_of[q], 1, 1))
    for pin in rng.sample(usable, min(len(usable), n_pins)):
        arcs.append(net.add_arc(2 * k_of[pin] + 1, t_node, 1, 0))
    for si in range(n_sources):
        selector = 2 * len(usable) + 2 + si
        arcs.append(net.add_arc(s_node, selector, 1, 0))
        for cell in rng.sample(usable, min(len(usable), rng.randint(1, 4))):
            cost = rng.choice(selector_costs)
            arcs.append(net.add_arc(selector, 2 * k_of[cell], 1, cost))
    return net, s_node, t_node, n_sources, arcs


def solve_with(engine, build, bounded):
    """Solve a fresh copy of ``build()``; return the totals and arc flows."""
    net, source, sink, demand, arcs = build()
    limit = demand if bounded else float("inf")
    if engine is None:
        flow, cost = reference_max_flow_min_cost(
            net, source, sink, demand if bounded else None
        )
    else:
        flow, cost, _ = engine(net, source, sink, limit)
    return (flow, float(cost)), [net.flow_on(a) for a in arcs]


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    width=st.integers(2, 12),
    height=st.integers(2, 12),
    density=st.sampled_from([0.0, 0.1, 0.25, 0.4]),
    n_sources=st.integers(1, 14),
    pin_delta=st.integers(-6, 6),
    selector_costs=st.sampled_from([(0,), (1,), (0, 1)]),
    bounded=st.booleans(),
)
def test_engines_match_reference_on_grid_networks(
    seed, width, height, density, n_sources, pin_delta, selector_costs, bounded
):
    n_pins = max(1, n_sources + pin_delta)

    def build():
        return grid_network(
            seed, width, height, density, n_sources, n_pins, selector_costs
        )

    want = solve_with(None, build, bounded)
    assert solve_with(_solve_scalar, build, bounded) == want
    assert solve_with(_solve_waves, build, bounded) == want


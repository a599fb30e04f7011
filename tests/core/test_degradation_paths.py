"""Unit tests for PacorRouter's degradation paths.

Covers the recovery machinery directly: candidate retry after a
negotiation failure, LM demotion, and the force-completion "walled in"
branch that gives a net up instead of looping, including the reason it
reports when every control pin is taken.
"""

from dataclasses import replace

from repro.core.config import PacorConfig
from repro.core.pacor import PacorRouter
from repro.core.pipeline import run_pacor
from repro.designs import ClusterPlan, Design, generate_design
from repro.dme import generate_candidates
from repro.geometry import Point
from repro.grid import RoutingGrid
from repro.robustness.budget import Budget
from repro.valves import ActivationSequence, Valve


def make_lm_router(budget=None):
    """A 14x14 design with one 3-valve LM cluster, clustered but unrouted."""
    grid = RoutingGrid(14, 14)
    valves = [
        Valve(0, Point(3, 7), ActivationSequence("00")),
        Valve(1, Point(9, 7), ActivationSequence("00")),
        Valve(2, Point(6, 3), ActivationSequence("00")),
    ]
    design = Design(
        "deg",
        grid,
        valves,
        lm_groups=[[0, 1, 2]],
        control_pins=[Point(0, 0), Point(13, 0), Point(0, 13), Point(13, 13)],
    )
    router = PacorRouter(design, PacorConfig(), budget=budget)
    router._stage_clustering()
    router.budget.start()
    return router


def lm_candidates(router, net):
    blocked = {v.position for v in router.design.valves}
    return generate_candidates(
        router.grid,
        net.net_id,
        [v.position for v in net.valves],
        k=4,
        blocked=blocked,
    )


def test_retry_candidates_routes_an_alternative():
    router = make_lm_router()
    net = router.nets[0]
    cands = lm_candidates(router, net)
    assert len(cands) >= 2
    assert router._retry_candidates(net, cands, cands[0]) is True
    assert net.tree is not None
    assert not net.demoted
    # The routed tree occupies more than the bare valve cells.
    valve_cells = {v.position for v in net.valves}
    assert router.occupancy.cells_of(0) > valve_cells


def test_retry_candidates_fails_without_alternatives():
    router = make_lm_router()
    net = router.nets[0]
    cands = lm_candidates(router, net)
    # Only the already-failed tree available -> nothing to retry.
    assert router._retry_candidates(net, [cands[0]], cands[0]) is False
    assert net.tree is None
    # Everything but the valve terminals was released.
    valve_cells = {v.position for v in net.valves}
    assert router.occupancy.cells_of(0) == valve_cells


def test_retry_candidates_stops_on_spent_budget():
    router = make_lm_router(budget=Budget(astar_expansions=0))
    net = router.nets[0]
    cands = lm_candidates(router, net)
    assert len(cands) >= 2
    assert router._retry_candidates(net, cands, cands[0]) is False
    assert net.tree is None


def test_demote_lm_releases_all_but_valve_cells():
    router = make_lm_router()
    net = router.nets[0]
    cands = lm_candidates(router, net)
    assert router._retry_candidates(net, cands, cands[0])
    router._demote_lm(net, reason="test")
    assert net.demoted
    assert net.tree is None and net.paths == []
    assert net.kind == "ordinary"
    valve_cells = {v.position for v in net.valves}
    assert router.occupancy.cells_of(0) == valve_cells


def test_demote_singleton_becomes_singleton_kind():
    router = make_lm_router()
    net = router.nets[0]
    net.valves = net.valves[:1]
    router._demote_lm(net, reason="test")
    assert net.kind == "singleton"


def make_walled_in_router():
    """A singleton valve inside a closed obstacle pocket: no pin reachable."""
    grid = RoutingGrid(12, 12)
    ring = [
        Point(x, y)
        for x in range(3, 8)
        for y in range(3, 8)
        if x in (3, 7) or y in (3, 7)
    ]
    grid.add_obstacles(ring)
    valves = [Valve(0, Point(5, 5), ActivationSequence("00"))]
    design = Design(
        "walled",
        grid,
        valves,
        lm_groups=[],
        control_pins=[Point(0, 0), Point(11, 11)],
    )
    router = PacorRouter(design, PacorConfig())
    router._stage_clustering()
    router.budget.start()
    return router


def test_force_completion_gives_up_on_walled_in_net():
    router = make_walled_in_router()
    pending = {0}
    router._force_completion(pending, list(router.design.control_pins))
    # The net is hopeless: reported, reasoned, and still pending.
    assert pending == {0}
    assert not router.nets[0].routed
    assert any(
        i.kind == "net-failure" and i.net_id == 0 for i in router.incidents
    )
    assert "walled in" in router._failure_reasons[0]


def test_walled_in_net_yields_degraded_result_end_to_end():
    router = make_walled_in_router()
    router._stage_mst_routing()
    router._stage_escape()
    result = router._collect(runtime=0.0)
    assert result.degraded
    report = result.nets[0]
    assert not report.routed
    assert report.failure_reason and "walled in" in report.failure_reason


def pin_starved_design():
    """Six nets on a generated 30x30 chip with only two control pins."""
    return generate_design(
        "starved",
        30,
        30,
        clusters=[ClusterPlan(3), ClusterPlan(2)],
        n_singletons=4,
        n_pins=2,
        n_obstacles=4,
        seed=1,
    )


def test_pin_exhaustion_is_not_reported_as_walled_in():
    result = run_pacor(pin_starved_design())
    failed = [n for n in result.nets if not n.routed]
    assert len(failed) == 4
    assert {n.failure_reason for n in failed} == {"no free control pin left"}
    assert {
        i.message for i in result.incidents if i.kind == "net-failure"
    } == {"no free control pin left; giving up"}


def test_design_without_pins_reports_pin_exhaustion_for_every_net():
    result = run_pacor(replace(pin_starved_design(), control_pins=[]))
    assert len(result.nets) == 6
    assert {n.failure_reason for n in result.nets} == {
        "no free control pin left"
    }

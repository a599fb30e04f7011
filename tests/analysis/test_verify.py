"""Tests for the independent solution verifier."""

import pytest

from repro.analysis import VerificationError, network_lengths, verify_result
from repro.core.result import NetReport, PacorResult, segments_of_path
from repro.designs import Design
from repro.geometry import Point
from repro.geometry.point import Point3
from repro.grid import RoutingGrid
from repro.valves import ActivationSequence, Valve


def straight_cells(a, b):
    (ax, ay), (bx, by) = a, b
    if ay == by:
        step = 1 if bx >= ax else -1
        return [Point(x, ay) for x in range(ax, bx + step, step)]
    step = 1 if by >= ay else -1
    return [Point(ax, y) for y in range(ay, by + step, step)]


def make_design():
    grid = RoutingGrid(10, 10)
    valves = [
        Valve(0, Point(3, 5), ActivationSequence("01")),
        Valve(1, Point(7, 5), ActivationSequence("01")),
    ]
    return Design(
        name="V",
        grid=grid,
        valves=valves,
        lm_groups=[[0, 1]],
        control_pins=[Point(5, 0), Point(0, 0)],
    )


def good_net():
    # Valves at (3,5) and (7,5); root (5,5); escape (5,5)->(5,0).
    cells = (
        straight_cells((3, 5), (5, 5))
        + straight_cells((7, 5), (5, 5))
        + straight_cells((5, 5), (5, 0))
    )
    segs = (
        segments_of_path(straight_cells((3, 5), (5, 5)))
        + segments_of_path(straight_cells((7, 5), (5, 5)))
        + segments_of_path(straight_cells((5, 5), (5, 0)))
    )
    return NetReport(
        net_id=0,
        origin_cluster=0,
        valve_ids=[0, 1],
        length_matching=True,
        routed=True,
        pin=Point(5, 0),
        cells=frozenset(cells),
        segments=frozenset(segs),
        channel_length=len(frozenset(segs)),
        matched=True,
        mismatch=0,
    )


def make_result(nets):
    return PacorResult(
        design_name="V",
        method="PACOR",
        delta=1,
        n_valves=2,
        n_lm_clusters=1,
        nets=nets,
    )


class TestNetworkLengths:
    def test_distances_follow_segments_not_adjacency(self):
        # Two parallel channels of one net, adjacent but not connected.
        a = straight_cells((0, 0), (5, 0))
        b = straight_cells((5, 1), (0, 1))
        segs = segments_of_path(a) + segments_of_path(b) + [
            (Point(5, 0), Point(5, 1))
        ]
        lengths = network_lengths(segs, Point(0, 0), [Point(0, 1)])
        # Must go around via (5,0)-(5,1), not hop across adjacency.
        assert lengths[Point(0, 1)] == 11

    def test_unreachable_target_is_none(self):
        segs = segments_of_path(straight_cells((0, 0), (2, 0)))
        lengths = network_lengths(segs, Point(0, 0), [Point(9, 9)])
        assert lengths[Point(9, 9)] is None

    def test_origin_without_segments(self):
        lengths = network_lengths([], Point(0, 0), [Point(0, 0), Point(1, 0)])
        assert lengths[Point(0, 0)] == 0
        assert lengths[Point(1, 0)] is None


class TestVerifyResult:
    def test_valid_solution_passes(self):
        design = make_design()
        result = make_result([good_net()])
        assert verify_result(design, result) == []

    def test_crossing_nets_rejected(self):
        design = make_design()
        net_a = good_net()
        net_b = NetReport(
            net_id=1,
            origin_cluster=1,
            valve_ids=[],
            length_matching=False,
            routed=False,
            cells=frozenset([Point(5, 3)]),  # overlaps net_a's escape
        )
        with pytest.raises(VerificationError, match="shared"):
            verify_result(design, make_result([net_a, net_b]))

    def test_obstacle_crossing_rejected(self):
        design = make_design()
        design.grid.set_obstacle(Point(5, 3))
        with pytest.raises(VerificationError, match="obstacle"):
            verify_result(design, make_result([good_net()]))

    def test_non_candidate_pin_rejected(self):
        design = make_design()
        net = good_net()
        object.__setattr__ if False else None
        net.pin = Point(9, 9)
        net.cells = net.cells | {Point(9, 9)}
        with pytest.raises(VerificationError, match="non-candidate"):
            verify_result(design, make_result([net]))

    def test_missing_pin_rejected(self):
        design = make_design()
        net = good_net()
        net.pin = None
        with pytest.raises(VerificationError, match="no pin"):
            verify_result(design, make_result([net]))

    def test_pin_reuse_rejected(self):
        design = make_design()
        design.valves.append(Valve(2, Point(1, 1), ActivationSequence("10")))
        net_a = good_net()
        net_b = NetReport(
            net_id=1,
            origin_cluster=1,
            valve_ids=[2],
            length_matching=False,
            routed=True,
            pin=Point(5, 0),  # same pin as net_a
            cells=frozenset([Point(1, 1)]),
        )
        with pytest.raises(VerificationError, match="two nets"):
            verify_result(design, make_result([net_a, net_b]))

    def test_disconnected_valve_rejected(self):
        design = make_design()
        net = good_net()
        # Remove the segment joining valve 1's arm to the root.
        seg = (Point(6, 5), Point(7, 5))
        net.segments = frozenset(s for s in net.segments if s != seg)
        with pytest.raises(VerificationError, match="disconnected"):
            verify_result(design, make_result([net]))

    def test_incompatible_valves_rejected(self):
        design = make_design()
        design.valves[1] = Valve(1, Point(7, 5), ActivationSequence("10"))
        design.lm_groups = []
        with pytest.raises(VerificationError, match="incompatible"):
            verify_result(design, make_result([good_net()]))

    def test_false_matching_claim_rejected(self):
        design = make_design()
        net = good_net()
        # Shift the root of the claimed-matched net: lengthen one arm.
        cells = (
            straight_cells((3, 5), (4, 5))
            + straight_cells((7, 5), (4, 5))
            + straight_cells((4, 5), (4, 0))
        )
        segs = (
            segments_of_path(straight_cells((3, 5), (4, 5)))
            + segments_of_path(straight_cells((7, 5), (4, 5)))
            + segments_of_path(straight_cells((4, 5), (4, 0)))
        )
        net.cells = frozenset(cells)
        net.segments = frozenset(segs)
        net.pin = Point(0, 0)
        with pytest.raises(VerificationError):
            verify_result(design, make_result([net]))

    def test_false_matching_tolerated_when_not_strict(self):
        design = make_design()
        design.control_pins.append(Point(4, 0))
        net = good_net()
        cells = (
            straight_cells((3, 5), (4, 5))
            + straight_cells((7, 5), (4, 5))
            + straight_cells((4, 5), (4, 0))
        )
        segs = (
            segments_of_path(straight_cells((3, 5), (4, 5)))
            + segments_of_path(straight_cells((7, 5), (4, 5)))
            + segments_of_path(straight_cells((4, 5), (4, 0)))
        )
        net.cells = frozenset(cells)
        net.segments = frozenset(segs)
        net.pin = Point(4, 0)
        notes = verify_result(design, make_result([net]), strict_matching=False)
        assert any("spread" in n for n in notes)

    def test_unrouted_net_noted(self):
        design = make_design()
        net = good_net()
        net.routed = False
        notes = verify_result(design, make_result([net]))
        assert any("unrouted" in n for n in notes)


def layered_net(riser):
    """The good net with its escape lifted onto layer 1 between y=4 and y=1.

    ``riser`` is the segment that climbs from the layer-0 cell (5,4).
    """
    lower = straight_cells((3, 5), (5, 5)) + straight_cells((7, 5), (5, 5))
    upper = [Point3(5, y, 1) for y in range(4, 0, -1)]
    cells = lower + [Point(5, 4)] + upper + [Point(5, 1), Point(5, 0)]
    segs = (
        segments_of_path(straight_cells((3, 5), (5, 5)))
        + segments_of_path(straight_cells((7, 5), (5, 5)))
        + [(Point(5, 5), Point(5, 4)), riser]
        + segments_of_path(upper)
        + [(Point3(5, 1, 1), Point(5, 1)), (Point(5, 1), Point(5, 0))]
    )
    net = good_net()
    net.cells = frozenset(cells)
    net.segments = frozenset(segs)
    net.channel_length = len(net.segments)
    return net


class TestLayeredSegments:
    def design(self):
        design = make_design()
        design.grid = RoutingGrid(10, 10, layers=2)
        return design

    def test_via_segments_verify(self):
        # Regression: step 5a once measured (5,4)-(5,4,z1) with the
        # planar Point.manhattan, read 0 and rejected the via.
        net = layered_net((Point(5, 4), Point3(5, 4, 1)))
        assert verify_result(self.design(), make_result([net])) == []

    def test_diagonal_via_step_rejected(self):
        # (5,4)-(5,3,z1) moves one row and one layer at once: two steps,
        # which the planar distance would have read as one.
        net = layered_net((Point(5, 4), Point3(5, 3, 1)))
        with pytest.raises(VerificationError, match="non-adjacent"):
            verify_result(self.design(), make_result([net]))

    def test_planar_gap_still_rejected(self):
        net = good_net()
        net.segments = net.segments | {(Point(5, 2), Point(5, 0))}
        with pytest.raises(VerificationError, match="non-adjacent"):
            verify_result(make_design(), make_result([net]))

"""Tests for the synthetic design generator."""

import pytest

from repro.core.pipeline import METHODS, run_method
from repro.designs import ClusterPlan, generate_design
from repro.designs.generator import _base_sequences
from repro.valves import cluster_valves


def small_design(seed=7, **overrides):
    params = dict(
        clusters=[ClusterPlan(2), ClusterPlan(3)],
        n_singletons=2,
        n_pins=10,
        n_obstacles=6,
        seed=seed,
    )
    params.update(overrides)
    return generate_design("G", 30, 30, **params)


def test_cluster_plan_validates_size():
    with pytest.raises(ValueError):
        ClusterPlan(1)


def test_base_sequences_pairwise_incompatible():
    seqs = _base_sequences(8, 10)
    assert len(seqs) == 8
    for i, a in enumerate(seqs):
        for b in seqs[i + 1 :]:
            assert not a.compatible(b)


def test_base_sequences_capacity_check():
    with pytest.raises(ValueError):
        _base_sequences(5, 2)


def test_generated_design_validates():
    design = small_design()
    design.validate()


def test_generated_counts():
    design = small_design()
    assert len(design.valves) == 2 + 3 + 2
    assert len(design.lm_groups) == 2
    assert sorted(len(g) for g in design.lm_groups) == [2, 3]
    assert len(design.control_pins) == 10
    assert design.grid.obstacle_count() == 6


def test_determinism():
    a = small_design(seed=11)
    b = small_design(seed=11)
    assert [v.position for v in a.valves] == [v.position for v in b.valves]
    assert a.control_pins == b.control_pins
    assert set(a.grid.obstacle_cells()) == set(b.grid.obstacle_cells())


def test_different_seeds_differ():
    a = small_design(seed=11)
    b = small_design(seed=12)
    assert [v.position for v in a.valves] != [v.position for v in b.valves]


def test_pins_on_boundary_and_free():
    design = small_design()
    for pin in design.control_pins:
        assert design.grid.is_boundary(pin)
        assert design.grid.is_free(pin)


def test_cluster_members_are_colocated():
    design = small_design()
    by_id = design.valve_by_id()
    for group in design.lm_groups:
        positions = [by_id[v].position for v in group]
        for a in positions:
            for b in positions:
                assert a.manhattan(b) <= 4 * (3 * len(group))


def test_clustering_recovers_planned_clusters():
    """The clustering stage must reproduce exactly the planned groups."""
    design = small_design()
    clusters = cluster_valves(design.valves, design.lm_groups)
    multi = [c for c in clusters if c.size >= 2]
    singles = [c for c in clusters if c.size == 1]
    assert len(multi) == 2
    assert len(singles) == 2
    lm_ids = {frozenset(g) for g in design.lm_groups}
    assert {frozenset(c.valve_ids()) for c in multi} == lm_ids


def test_obstacle_margin_keeps_boundary_clear():
    design = small_design(n_obstacles=40)
    for p in design.grid.boundary_cells():
        assert not design.grid.is_obstacle(p)


def test_zero_pins_gives_a_pinless_design():
    design = small_design(n_pins=0)
    assert design.control_pins == []
    # The pin step draws no random numbers: valves and obstacles match.
    reference = small_design()
    assert design.valves == reference.valves
    assert set(design.grid.obstacle_cells()) == set(reference.grid.obstacle_cells())
    for method in METHODS:
        result = run_method(design, method)
        assert result.nets
        assert {n.failure_reason for n in result.nets} == {
            "no free control pin left"
        }, method


def test_negative_pins_rejected():
    with pytest.raises(ValueError):
        small_design(n_pins=-1)


def test_too_many_pins_rejected():
    with pytest.raises(ValueError):
        generate_design(
            "tiny",
            6,
            6,
            clusters=[],
            n_singletons=1,
            n_pins=100,
            n_obstacles=0,
            seed=1,
        )


class TestLayeredGeneration:
    def test_layers_one_rng_stream_unchanged(self):
        # The layer axis must not perturb the planar RNG stream: a
        # layers=1 call and the historical planar call are the same
        # design, and adding layers keeps the planar content stable.
        planar = small_design()
        explicit = small_design(layers=1)
        assert planar.canonical_hash() == explicit.canonical_hash()
        lifted = small_design(layers=2)
        assert [v.position for v in lifted.valves] == [
            v.position for v in planar.valves
        ]
        assert lifted.control_pins == planar.control_pins

    def test_upper_layer_obstacles_avoid_valve_columns(self):
        design = small_design(layers=2, n_obstacles=20)
        valve_cols = {v.position for v in design.valves}
        for p in design.grid.obstacle_cells():
            if len(p) == 3:
                from repro.geometry import Point

                assert Point(p[0], p[1]) not in valve_cols

    def test_upper_obstacle_fraction_validated(self):
        with pytest.raises(ValueError):
            small_design(layers=2, upper_obstacle_fraction=1.5)


class TestViaFaultScenarios:
    def test_via_faults_on_layered_design(self):
        from repro.designs import generate_fault_scenario

        design = small_design(layers=2)
        fm = generate_fault_scenario(
            design, n_cell_faults=2, n_via_faults=3, seed=11
        )
        assert len(fm.via_stuck) == 3
        valve_cells = {v.position for v in design.valves}
        for site in fm.via_stuck:
            assert site not in valve_cells
            assert design.grid.via_allowed(site)
        fm.validate(design)

    def test_via_faults_rejected_on_planar_design(self):
        from repro.designs import generate_fault_scenario
        from repro.robustness.errors import GenerationError

        with pytest.raises(GenerationError):
            generate_fault_scenario(
                small_design(), n_cell_faults=0, n_via_faults=1, seed=1
            )

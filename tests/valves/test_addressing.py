"""Tests for the exact minimum clique cover (pin minimisation)."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry import Point
from repro.valves import ActivationSequence, Valve, greedy_clique_partition
from repro.valves.compatibility import pairwise_compatible

# The exact solver is a test oracle; it lives next to this file.
from addressing import clique_cover_gap, minimum_clique_cover


def make_valves(seqs):
    return [Valve(i, Point(i, 0), ActivationSequence(s)) for i, s in enumerate(seqs)]


def brute_force_minimum(valves):
    """Smallest k over all assignments (tiny instances only)."""
    n = len(valves)
    for k in range(1, n + 1):
        for assignment in itertools.product(range(k), repeat=n):
            if len(set(assignment)) != k:
                continue
            groups = [[] for _ in range(k)]
            for valve, g in zip(valves, assignment):
                groups[g].append(valve)
            if all(pairwise_compatible(g) for g in groups):
                return k
    return n


def test_empty():
    assert minimum_clique_cover([]) == []


def test_all_identical_one_group():
    valves = make_valves(["01X"] * 5)
    groups = minimum_clique_cover(valves)
    assert len(groups) == 1
    assert len(groups[0]) == 5


def test_all_conflicting_all_singletons():
    valves = make_valves(["00", "01", "10", "11"])
    groups = minimum_clique_cover(valves)
    assert len(groups) == 4


def test_beats_greedy_on_crafted_instance():
    """An instance where degree-ordered greedy is suboptimal.

    a = '0XX', b = 'X0X', c = 'XX0', d = '111': d is isolated; a,b,c are
    pairwise compatible and form one clique.  Optimal = 2.  (Greedy also
    finds 2 here; the point is exactness, checked against brute force.)
    """
    valves = make_valves(["0XX", "X0X", "XX0", "111"])
    groups = minimum_clique_cover(valves)
    assert len(groups) == brute_force_minimum(valves) == 2


def test_groups_are_true_cliques_and_cover():
    valves = make_valves(["0X", "X0", "1X", "X1", "XX", "00", "11"])
    groups = minimum_clique_cover(valves)
    covered = sorted(v.id for g in groups for v in g)
    assert covered == list(range(len(valves)))
    for group in groups:
        assert pairwise_compatible(group)


def test_budget_falls_back_to_greedy():
    valves = make_valves(["0X", "X0", "1X", "X1", "XX"])
    groups = minimum_clique_cover(valves, max_nodes=1)
    greedy = greedy_clique_partition(valves)
    assert len(groups) == len(greedy)


def test_gap_non_negative():
    valves = make_valves(["0X1", "01X", "X11", "000", "1X1"])
    assert clique_cover_gap(valves) >= 0


@given(st.lists(st.text(alphabet="01X", min_size=4, max_size=4), min_size=1, max_size=7))
@settings(max_examples=30, deadline=None)
def test_exact_matches_brute_force(seqs):
    valves = make_valves(seqs)
    groups = minimum_clique_cover(valves)
    assert len(groups) == brute_force_minimum(valves)
    for group in groups:
        assert pairwise_compatible(group)


@given(st.lists(st.text(alphabet="01X", min_size=5, max_size=5), min_size=1, max_size=12))
@settings(max_examples=20, deadline=None)
def test_exact_never_worse_than_greedy(seqs):
    valves = make_valves(seqs)
    assert clique_cover_gap(valves) >= 0

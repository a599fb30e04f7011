"""Tests for PacorConfig validation and defaults."""

import pytest

from repro.core import DetourStage, PacorConfig, SelectionSolver
from repro.robustness.errors import ConfigError


def test_defaults_match_paper():
    config = PacorConfig()
    assert config.lam == 0.1
    assert config.history_base == 1.0
    assert config.history_alpha == 0.1
    assert config.gamma == 10
    assert config.theta == 10
    assert config.enable_selection
    assert config.detour_stage is DetourStage.FINAL
    assert config.selection_solver is SelectionSolver.EXACT


def test_delta_none_uses_design_delta():
    config = PacorConfig()
    assert config.resolved_delta(3) == 3
    config = PacorConfig(delta=0)
    assert config.resolved_delta(3) == 0


def test_invalid_values_rejected():
    with pytest.raises(ValueError):
        PacorConfig(delta=-1)
    with pytest.raises(ValueError):
        PacorConfig(lam=1.5)
    with pytest.raises(ValueError):
        PacorConfig(gamma=0)
    with pytest.raises(ValueError):
        PacorConfig(theta=0)
    with pytest.raises(ValueError):
        PacorConfig(k_candidates=0)
    with pytest.raises(ValueError):
        PacorConfig(max_ripup_rounds=-1)


@pytest.mark.parametrize("name", ["lm_rip_cost", "protected_rip_cost"])
@pytest.mark.parametrize("value", [0.0, -1.0, float("nan")])
def test_probe_penalties_must_be_positive(name, value):
    with pytest.raises(ConfigError) as info:
        PacorConfig(**{name: value})
    assert info.value.field == name


def test_string_enums_coerced():
    config = PacorConfig(selection_solver="greedy", detour_stage="none")
    assert config.selection_solver is SelectionSolver.GREEDY
    assert config.detour_stage is DetourStage.NONE


def test_unknown_enum_rejected():
    with pytest.raises(ValueError):
        PacorConfig(selection_solver="simplex")

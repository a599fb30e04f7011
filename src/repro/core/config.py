"""Configuration of the PACOR flow.

Defaults follow the paper's implementation notes: λ = 0.1 (Eq. 2/3
weighting, routability above mismatch), history base cost 1.0 and
α = 0.1 (Eq. 5), negotiation threshold γ = 10, detour threshold θ = 10,
and length-matching threshold δ = 1 in all experiments.
"""

from __future__ import annotations

import dataclasses
import enum
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from repro.robustness.errors import ConfigError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.robustness.budget import Budget


class SelectionSolver(str, enum.Enum):
    """Which MWCP solver selects the candidate trees (Section 4.2)."""

    EXACT = "exact"  # branch-and-bound (the paper's ILP stand-in)
    GREEDY = "greedy"  # the graph-based construction
    LOCAL = "local"  # swap descent (the UQP stand-in)


class DetourStage(str, enum.Enum):
    """Where in the flow path detouring runs."""

    FINAL = "final"  # PACOR: after escape routing (Section 3)
    AFTER_NEGOTIATION = "after_negotiation"  # the "Detour First" baseline
    NONE = "none"  # no detouring at all (diagnostics)


@dataclass
class PacorConfig:
    """All tunables of the flow; defaults reproduce the paper's setup.

    Attributes:
        delta: length-matching threshold δ (grid units); None uses the
            design's own δ.
        lam: λ of Eqs. (2)-(3).
        history_base: base history cost ``b`` of Eq. (5).
        history_alpha: α of Eq. (5).
        gamma: negotiation iteration threshold γ (Algorithm 1).
        theta: detour iteration threshold θ (Algorithm 2).
        k_candidates: DME candidate trees generated per cluster.
        bounded_skew_dme: build candidate trees with a bounded-skew
            budget of δ instead of zero skew (Ablation E) — saves
            balancing wire by spending the threshold during construction.
        match_all_clusters: treat every multi-valve cluster the
            clustering stage computes as length-matching (the paper
            "aims to route as many clusters as possible under the
            length-matching constraint"); False matches only the
            design's declared LM groups.
        enable_selection: False reproduces the "w/o Sel" baseline (each
            cluster keeps its first candidate, no global view).
        selection_solver: which MWCP solver picks candidates.
        detour_stage: when detouring runs ("Detour First" vs PACOR).
        max_ripup_rounds: escape-routing rip-up/reroute iterations.
        lm_rippable_after: rip-up round from which length-matching
            clusters may be ripped too (the paper's "higher rip-up cost").
        lm_rip_cost: probe penalty multiplier for LM clusters.
        protected_rip_cost: probe penalty for crossing a net the
            force-completion pass already routed; prohibitive so only the
            literally unavoidable blocker is ripped.
        max_astar_expansions: safety cap per A* query (None = unbounded).
        wall_clock_budget_s: wall-clock budget for one whole run; when it
            runs out the flow stops spending and returns a partial result
            flagged ``degraded`` (None = unbounded).
        astar_expansion_budget: total A* cells settled across the whole
            run (None = unbounded).
        rip_round_budget: total escape rip-up / force-completion
            iterations across the whole run (None = unbounded).
    """

    delta: Optional[int] = None
    lam: float = 0.1
    history_base: float = 1.0
    history_alpha: float = 0.1
    gamma: int = 10
    theta: int = 10
    k_candidates: int = 4
    bounded_skew_dme: bool = False
    match_all_clusters: bool = True
    enable_selection: bool = True
    selection_solver: SelectionSolver = SelectionSolver.EXACT
    detour_stage: DetourStage = DetourStage.FINAL
    max_ripup_rounds: int = 8
    lm_rippable_after: int = 4
    lm_rip_cost: float = 25.0
    protected_rip_cost: float = 50.0
    max_astar_expansions: Optional[int] = None
    wall_clock_budget_s: Optional[float] = None
    astar_expansion_budget: Optional[int] = None
    rip_round_budget: Optional[int] = None

    def __post_init__(self) -> None:
        if self.delta is not None and self.delta < 0:
            raise ConfigError("delta must be non-negative", field="delta")
        if not 0.0 <= self.lam <= 1.0:
            raise ConfigError("lam must lie in [0, 1]", field="lam")
        if self.gamma < 1 or self.theta < 1:
            raise ConfigError("gamma and theta must be at least 1", field="gamma")
        if self.k_candidates < 1:
            raise ConfigError("k_candidates must be at least 1", field="k_candidates")
        if self.max_ripup_rounds < 0:
            raise ConfigError("max_ripup_rounds must be non-negative", field="max_ripup_rounds")
        # ``not x > 0`` also rejects NaN.  A zero, negative or NaN
        # multiplier would price those cells like free ones or wall them
        # off, not make them dearer to rip.
        for name in ("lm_rip_cost", "protected_rip_cost"):
            if not getattr(self, name) > 0:
                raise ConfigError(f"{name} must be positive", field=name)
        if self.wall_clock_budget_s is not None and self.wall_clock_budget_s <= 0:
            raise ConfigError("wall_clock_budget_s must be positive", field="wall_clock_budget_s")
        if (
            self.astar_expansion_budget is not None
            and self.astar_expansion_budget < 0
        ):
            raise ConfigError("astar_expansion_budget must be non-negative", field="astar_expansion_budget")
        if self.rip_round_budget is not None and self.rip_round_budget < 0:
            raise ConfigError("rip_round_budget must be non-negative", field="rip_round_budget")
        self.selection_solver = SelectionSolver(self.selection_solver)
        self.detour_stage = DetourStage(self.detour_stage)

    def to_json(self) -> dict:
        """Return a JSON-serialisable document of every tunable."""
        doc = dataclasses.asdict(self)
        doc["selection_solver"] = self.selection_solver.value
        doc["detour_stage"] = self.detour_stage.value
        return doc

    @classmethod
    def from_json(cls, doc: dict) -> "PacorConfig":
        """Rebuild a config from :meth:`to_json` output (validated).

        Unknown keys raise :class:`~repro.robustness.errors.ConfigError` so a checkpoint written
        by a newer format version fails loudly instead of silently
        dropping a tunable.
        """
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = sorted(set(doc) - known)
        if unknown:
            raise ConfigError(f"unknown config fields: {unknown}")
        return cls(**doc)

    def make_budget(self, **overrides: object) -> "Budget":
        """Build the per-run :class:`~repro.robustness.budget.Budget`."""
        from repro.robustness.budget import Budget

        kwargs = {
            "wall_clock_s": self.wall_clock_budget_s,
            "astar_expansions": self.astar_expansion_budget,
            "rip_rounds": self.rip_round_budget,
        }
        kwargs.update(overrides)
        return Budget(**kwargs)  # type: ignore[arg-type]

    def resolved_delta(self, design_delta: int) -> int:
        """Return the δ to use for a given design."""
        return design_delta if self.delta is None else self.delta

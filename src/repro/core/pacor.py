"""The PACOR flow orchestration (Fig. 2).

Stages, in order:

1. **Valve clustering** — minimum clique cover; LM groups preserved.
2. **Length-matching cluster routing** — DME candidate trees, MWCP
   selection, negotiation-based routing (clusters of two valves are
   routed as a direct edge).  Clusters that fail negotiation are demoted
   to ordinary MST routing.
3. **MST cluster routing** — ordinary clusters; failed attachments are
   de-clustered into singleton nets.
4. **Escape routing** — one global min-cost flow per round; failed
   sources trigger blocking-net rip-up and re-route, with LM clusters
   rippable only in later rounds and at higher cost.
5. **Path detouring** — Algorithm 2 on every routed LM cluster (at the
   final stage for PACOR; right after negotiation for "Detour First").
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.core.config import DetourStage, PacorConfig, SelectionSolver
from repro.core.result import (
    NetReport,
    PacorResult,
    is_via_segment,
    segments_of_path,
)
from repro.designs.design import Design
from repro.designs.io import design_to_json
from repro.detour import check_equal, detour_cluster
from repro.detour.cluster import (
    RoutedTree,
    routed_tree_from_candidate,
    routed_tree_from_pair,
)
from repro.dme import generate_candidates
from repro.dme.tree import CandidateTree
from repro.escape import (
    EscapeSource,
    find_blocking_nets,
    solve_escape,
    solve_escape_sequential,
)
from repro.geometry.point import Point, cell_point
from repro.grid.occupancy import FAULT_NET, FREE, Occupancy
from repro.observability import context as obs
from repro.observability.metrics import Metrics
from repro.observability.tracing import Tracer
from repro.robustness import faults
from repro.robustness.budget import Budget
from repro.robustness.checkpoint import Checkpoint
from repro.robustness.errors import (
    BudgetExceeded,
    CheckpointFormatError,
    FaultFormatError,
    PacorError,
    RouterStuck,
)
from repro.robustness.faultmap import FaultEvent, FaultMap
from repro.robustness.incidents import Incident, Severity
from repro.routing.astar import ALL_SOURCES_BLOCKED, astar_route_detailed
from repro.routing.mst import route_cluster_mst
from repro.routing.negotiation import NegotiationRouter, RouteRequest
from repro.routing.path import Path
from repro.selection import (
    SelectionInstance,
    solve_exact,
    solve_greedy,
    solve_local_search,
)
from repro.valves.clustering import Cluster, cluster_valves
from repro.valves.valve import Valve

_RIP_HISTORY_PENALTY = 50.0
"""History cost on a ripped net's old cells when it re-routes."""


@dataclass
class _Net:
    """Internal bookkeeping for one routable net."""

    net_id: int
    origin_cluster: int
    valves: List[Valve]
    length_matching: bool
    kind: str  # "lm-tree" | "lm-pair" | "ordinary" | "singleton"
    tree: Optional[RoutedTree] = None
    paths: List[Path] = field(default_factory=list)  # internal MST channels
    pin: Optional[Point] = None
    escape_path: Optional[Path] = None
    routed: bool = False
    demoted: bool = False
    # True when the demotion was forced by an exhausted compute budget
    # rather than a real routability failure; a resumed run reverts such
    # nets to LM routing and retries them with the fresh budget.
    budget_demoted: bool = False
    # True when a physical fault made the net unroutable for good (every
    # valve stuck); dead nets are excluded from all further stages.
    dead: bool = False
    # Report produced by the post-flow repair pass; when set, _collect
    # exports it verbatim instead of deriving one from the net state.
    # Never serialised: repair runs after the last checkpointable stage.
    repaired_report: Optional[NetReport] = None

    def drawn_paths(self) -> List[Path]:
        """Return every drawn channel path of the net (escape included)."""
        out: List[Path] = []
        if self.tree is not None:
            out.extend(self.tree.edge_paths.values())
        else:
            out.extend(self.paths)
        if self.escape_path is not None:
            out.append(self.escape_path)
        return out


class PacorRouter:
    """Runs the full control-layer routing flow on one design."""

    def __init__(
        self,
        design: Design,
        config: Optional[PacorConfig] = None,
        *,
        budget: Optional[Budget] = None,
        tracer: Optional[Tracer] = None,
        metrics: Optional[Metrics] = None,
        fault_map: Optional[FaultMap] = None,
    ) -> None:
        design.validate()
        self.design = design
        self.config = config or PacorConfig()
        self.grid = design.grid
        self.occupancy = Occupancy(self.grid)
        self.delta = self.config.resolved_delta(design.delta)
        # Physical fault state.  The map is normalised against the design
        # up front (faulty valve-position cells become stuck valves), its
        # declared cells are mounted under the FAULT_NET pseudo-net so
        # every stage's occupancy overlay blocks them, and timed events
        # are popped at stage boundaries by _apply_fault_events.
        self.fault_map = (
            fault_map.normalized(design) if fault_map is not None else None
        )
        self._stuck_valves: Set[int] = (
            set(self.fault_map.stuck_valves)
            if self.fault_map is not None
            else set()
        )
        # Nets ripped by a mid-flow fault, pending the post-flow repair
        # pass: net id -> human-readable cause; released cell ids are
        # remembered separately to seed the repair bounding box.
        self._fault_damaged: Dict[int, str] = {}
        self._fault_old_cells: Dict[int, Set[int]] = {}
        if self.fault_map is not None:
            mount = set(
                self.fault_map.cell_ids(self.grid.width, self.grid.height)
            )
            for site in self.fault_map.via_stuck:
                self.grid.set_via_blocked(site)
            valve_by_id = design.valve_by_id()
            for vid in self.fault_map.stuck_valves:
                mount.add(self.grid.index(valve_by_id[vid].position))
            if mount:
                self.occupancy.occupy_ids(mount, FAULT_NET)
        self.events: List[str] = []
        self.incidents: List[Incident] = []
        self.budget = budget if budget is not None else self.config.make_budget()
        # Observability: an explicitly passed instrument wins; otherwise
        # whatever the context module has installed (the no-op singletons
        # by default).  The budget's expansion counter is adopted as the
        # registry's ``astar.expansions``, so the compute limit and the
        # exported metric can never disagree.
        self.tracer = tracer if tracer is not None else obs.tracer()
        self.metrics = metrics if metrics is not None else obs.metrics()
        self.metrics.adopt("astar.expansions", self.budget.expansion_counter)
        # Spans/counters carried over from an interrupted run's
        # checkpoint; the CLI reports them on resume.
        self.carried_spans = 0
        self.carried_counters = 0
        self.nets: Dict[int, _Net] = {}
        self._next_net_id = 0
        self._method_name = "PACOR"
        self._failure_reasons: Dict[int, str] = {}
        # During escape routing, newly de-clustered singletons must join
        # the pending-escape queue; _spawn_singleton registers them here.
        self._escape_pending: Optional[Set[int]] = None
        # Checkpoint/resume state.  ``checkpoints`` holds the snapshot
        # taken after each executed stage (keyed by stage name);
        # ``interrupt_checkpoint`` is the first snapshot whose stage was
        # cut short by an exhausted budget — the one a resume should
        # start from.
        self._n_multi_clusters = 0
        self._resume_stage: Optional[str] = None
        self._last_escape_pending: Optional[List[int]] = None
        self.checkpoints: Dict[str, Checkpoint] = {}
        self.interrupt_checkpoint: Optional[Checkpoint] = None

    # -- public API ---------------------------------------------------------

    def _stage_sequence(self) -> List[str]:
        """Return the ordered stage names this config executes."""
        sequence = ["clustering", "lm-routing"]
        if self.config.detour_stage is DetourStage.AFTER_NEGOTIATION:
            sequence.append("detour")
        sequence.extend(["mst-routing", "escape"])
        if self.config.detour_stage is DetourStage.FINAL:
            sequence.append("detour")
        return sequence

    def _stage_fn(self, stage: str) -> Callable:
        return {
            "clustering": self._stage_clustering,
            "lm-routing": self._stage_lm_routing,
            "mst-routing": self._stage_mst_routing,
            "escape": self._stage_escape,
            "detour": self._stage_detour,
        }[stage]

    def run(self) -> PacorResult:
        """Execute every stage and return the aggregated result.

        Every stage runs under a supervisor: an exception or exhausted
        compute budget inside one stage records an
        :class:`~repro.robustness.incidents.Incident`, degrades the
        affected nets, and lets the remaining stages continue — the
        method always returns a (possibly ``degraded``) result instead
        of raising or hanging.

        After each stage a :class:`~repro.robustness.checkpoint.Checkpoint`
        of the full mid-flow state is captured (``self.checkpoints``); the
        first stage a budget interruption cuts short additionally pins
        ``self.interrupt_checkpoint`` (mirrored on
        ``result.checkpoint``), from which :meth:`resume` re-enters the
        flow with a fresh budget, skipping the completed stages.

        The whole run executes under the router's tracer/metrics pair
        (installed process-wide for the duration, so the kernels see
        them): one ``flow`` root span covers the run, one ``stage`` span
        wraps each executed stage, and checkpoints taken at stage
        boundaries carry the active trace/span id for resume stitching.
        """
        started = time.perf_counter()
        self.budget.start()
        sequence = self._stage_sequence()
        start_idx = sequence.index(self._resume_stage) if self._resume_stage else 0
        with obs.use(self.tracer, self.metrics):
            with self.tracer.span(
                "route",
                category="flow",
                design=self.design.name,
                method=self._method_name,
                resumed=self._resume_stage is not None,
            ):
                for idx in range(start_idx, len(sequence)):
                    stage = sequence[idx]
                    # Stage-boundary fault events fire *before* the stage
                    # (and before its checkpoint cursor), so a resumed run
                    # never re-applies them: the snapshot's fault map has
                    # them popped already.
                    self._apply_fault_events(stage)
                    incidents_before = len(self.incidents)
                    with self.tracer.span(stage, category="stage") as stage_span:
                        self._supervised(stage, self._stage_fn(stage))
                        # Every checkpoint below must snapshot a
                        # *consistent* overlay, so the repair check runs
                        # after each stage, clustering included.
                        self._check_occupancy(stage)
                        if stage == "clustering" and not self.nets:
                            break  # nothing to route; skip the rest
                        interrupted = any(
                            i.kind == "budget-exceeded"
                            for i in self.incidents[incidents_before:]
                        )
                        stage_span.set(
                            incidents=len(self.incidents) - incidents_before,
                            interrupted=interrupted,
                        )
                        cursor_idx = idx if interrupted else idx + 1
                        if cursor_idx < len(sequence):
                            snapshot = self._capture_checkpoint(
                                sequence[cursor_idx],
                                completed=sequence[:cursor_idx],
                            )
                            self.checkpoints[stage] = snapshot
                            if interrupted and self.interrupt_checkpoint is None:
                                self.interrupt_checkpoint = snapshot
                # Post-flow faults ("final" boundary) and the repair pass
                # for every net a mid-flow fault ripped.  Supervised like
                # a stage: a repair crash degrades, never raises.
                self._apply_fault_events("final")
                if self._fault_damaged:
                    with self.tracer.span("repair", category="stage"):
                        self._supervised("repair", self._repair_damaged)
                        self._check_occupancy("repair")
            return self._collect(time.perf_counter() - started)

    # -- checkpoint/resume ----------------------------------------------------

    @classmethod
    def resume(
        cls,
        design: Design,
        checkpoint: Checkpoint,
        *,
        budget: Optional[Budget] = None,
        carry_counters: bool = False,
        tracer: Optional[Tracer] = None,
        metrics: Optional[Metrics] = None,
    ) -> PacorResult:
        """Rehydrate ``checkpoint`` and re-enter the flow where it stopped.

        The interrupted stage is re-executed on the restored state —
        already-routed nets are kept and skipped, only the unfinished
        work is retried — and the remaining stages follow.  A run
        interrupted exactly at a stage boundary therefore produces the
        same result as the uninterrupted run.

        Args:
            design: the design the checkpoint was taken on (validated
                against the snapshot's embedded design document).
            checkpoint: the snapshot to resume from.
            budget: the fresh compute budget for the continuation; when
                None the checkpointed config's budget limits are
                recreated (with zeroed counters).
            carry_counters: restore the consumed expansion/rip-round
                counters into ``budget``, so the limits bound the total
                spend across all attempts instead of per attempt.
            tracer: tracer for the continuation; when the checkpoint
                carries a trace id, the resumed spans stitch onto the
                interrupted trace (same id, parented root).
            metrics: metrics registry for the continuation; checkpointed
                counter values are folded in so the exported totals
                cover both attempts.
        """
        router = cls.from_checkpoint(
            design,
            checkpoint,
            budget=budget,
            carry_counters=carry_counters,
            tracer=tracer,
            metrics=metrics,
        )
        return router.run()

    @classmethod
    def from_checkpoint(
        cls,
        design: Design,
        checkpoint: Checkpoint,
        *,
        budget: Optional[Budget] = None,
        carry_counters: bool = False,
        tracer: Optional[Tracer] = None,
        metrics: Optional[Metrics] = None,
    ) -> "PacorRouter":
        """Build a router with ``checkpoint``'s state restored, unrun.

        Raises:
            CheckpointFormatError: the snapshot does not fit ``design``
                (different design document), names an unknown stage, or
                references valves/cells the design does not have.
        """
        if design_to_json(design) != checkpoint.design:
            raise CheckpointFormatError(
                f"checkpoint was taken on design "
                f"{checkpoint.design_name!r} and does not match the "
                f"design {design.name!r} being resumed",
                field="design",
            )
        try:
            config = PacorConfig.from_json(dict(checkpoint.config))
        except (TypeError, ValueError) as exc:
            raise CheckpointFormatError(
                f"invalid config document ({exc})", field="config"
            ) from exc
        router = cls(design, config, budget=budget, tracer=tracer, metrics=metrics)
        if carry_counters:
            router.budget.restore_counters(checkpoint.budget)
        obs_doc = checkpoint.observability
        if obs_doc:
            # ``astar.expansions`` is the budget's own counter: restoring
            # it here would pre-charge the fresh budget's limit (and
            # double-count under carry_counters, where the budget restore
            # above already folded it in), so it stays excluded.
            carried = {
                str(name): value
                for name, value in dict(obs_doc.get("counters") or {}).items()
                if name != "astar.expansions"
            }
            router.carried_counters = router.metrics.restore_counters(carried)
            trace_id = obs_doc.get("trace_id")
            if trace_id and router.tracer.enabled:
                router.tracer.link_resume(str(trace_id), obs_doc.get("span_id"))
                router.carried_spans = int(obs_doc.get("spans_recorded") or 0)
        if checkpoint.stage not in router._stage_sequence():
            raise CheckpointFormatError(
                f"unknown resume stage {checkpoint.stage!r} for this "
                f"config (expected one of {router._stage_sequence()})",
                field="stage",
            )
        router._method_name = checkpoint.method
        router._n_multi_clusters = checkpoint.n_multi_clusters
        router._next_net_id = checkpoint.next_net_id
        router.events = list(checkpoint.events)
        router.incidents = [
            Incident.from_json(doc) for doc in checkpoint.incidents
        ]
        router._failure_reasons = {
            int(net_id): reason
            for net_id, reason in checkpoint.failure_reasons.items()
        }
        if checkpoint.fault_map is not None:
            # Applied events were popped before the snapshot; re-arming
            # the restored map fires only the not-yet-applied ones.  The
            # mounted FAULT_NET cells travel in the occupancy snapshot,
            # so no re-mount happens here.
            try:
                router.fault_map = FaultMap.from_json(checkpoint.fault_map)
            except FaultFormatError as exc:
                raise CheckpointFormatError(
                    f"invalid fault map ({exc})", field="fault_map"
                ) from exc
            router._stuck_valves = set(router.fault_map.stuck_valves)
        valve_by_id = design.valve_by_id()
        for doc in checkpoint.nets:
            net = router._net_from_doc(doc, valve_by_id)
            router.nets[net.net_id] = net
        try:
            router.occupancy.import_state(checkpoint.occupancy)
        except (TypeError, ValueError, KeyError) as exc:
            raise CheckpointFormatError(
                f"invalid occupancy snapshot ({exc})", field="occupancy"
            ) from exc
        if checkpoint.stage == "lm-routing":
            # Clusters the exhausted budget demoted never really failed;
            # give them their LM status back so the re-entered stage
            # retries them with the fresh budget.
            for net in router.nets.values():
                if net.budget_demoted and len(net.valves) >= 2:
                    net.demoted = False
                    net.budget_demoted = False
                    net.kind = "lm-pair" if len(net.valves) == 2 else "lm-tree"
                    net.tree = None
                    net.paths = []
        router._resume_stage = checkpoint.stage
        return router

    def _capture_checkpoint(
        self, cursor: str, completed: Sequence[str]
    ) -> Checkpoint:
        """Snapshot the full mid-flow state; ``cursor`` runs next on resume."""
        budget_doc: Dict[str, object] = dict(self.budget.export_counters())
        budget_doc.update(
            {
                "wall_clock_s": self.budget.wall_clock_s,
                "astar_expansions": self.budget.astar_expansions,
                "rip_rounds": self.budget.rip_rounds,
            }
        )
        observability: Optional[Dict[str, object]] = None
        if self.tracer.enabled or self.metrics.enabled:
            observability = {
                "trace_id": self.tracer.trace_id if self.tracer.enabled else None,
                "span_id": self.tracer.current_span_id(),
                "spans_recorded": (
                    len(self.tracer.spans) if self.tracer.enabled else 0
                ),
                "counters": (
                    self.metrics.counter_values() if self.metrics.enabled else {}
                ),
            }
        snapshot = Checkpoint(
            design=design_to_json(self.design),
            method=self._method_name,
            config=self.config.to_json(),
            stage=cursor,
            completed_stages=list(completed),
            n_multi_clusters=self._n_multi_clusters,
            next_net_id=self._next_net_id,
            nets=[
                self._net_to_doc(net)
                for net in sorted(self.nets.values(), key=lambda n: n.net_id)
            ],
            occupancy=self.occupancy.export_state(),
            pending_escape=(
                list(self._last_escape_pending)
                if cursor == "escape" and self._last_escape_pending is not None
                else None
            ),
            budget=budget_doc,
            events=list(self.events),
            incidents=[incident.to_json() for incident in self.incidents],
            failure_reasons={
                str(net_id): reason
                for net_id, reason in self._failure_reasons.items()
            },
            observability=observability,
            fault_map=(
                self.fault_map.to_json() if self.fault_map is not None else None
            ),
        )
        if self.metrics.enabled:
            # Snapshot size is worth watching (it scales with the design
            # and the routed state), but measuring re-serialises the
            # whole document — only done when metrics are on.
            self.metrics.counter("checkpoint.bytes").inc(
                len(json.dumps(snapshot.to_json()))
            )
        return snapshot

    @staticmethod
    def _path_doc(path: Path) -> List[List[int]]:
        # Layer-0 cells stay [x, y]; upper-layer cells carry z as
        # [x, y, z] — planar snapshots are byte-identical to before.
        return [list(c) for c in path.cells]

    @staticmethod
    def _path_from_doc(doc: Sequence[Sequence[int]]) -> Path:
        return Path(
            [
                cell_point(int(c[0]), int(c[1]), int(c[2]))
                if len(c) == 3
                else Point(int(c[0]), int(c[1]))
                for c in doc
            ]
        )

    def _net_to_doc(self, net: _Net) -> Dict[str, object]:
        tree_doc: Optional[Dict[str, object]] = None
        if net.tree is not None:
            tree_doc = {
                "cluster_id": net.tree.cluster_id,
                "edge_paths": {
                    str(key): self._path_doc(path)
                    for key, path in net.tree.edge_paths.items()
                },
                "sequences": {
                    str(sink): list(keys)
                    for sink, keys in net.tree.sequences.items()
                },
                "root": [net.tree.root.x, net.tree.root.y],
            }
        return {
            "net_id": net.net_id,
            "origin_cluster": net.origin_cluster,
            "valve_ids": [v.id for v in net.valves],
            "length_matching": net.length_matching,
            "kind": net.kind,
            "tree": tree_doc,
            "paths": [self._path_doc(p) for p in net.paths],
            "pin": [net.pin.x, net.pin.y] if net.pin is not None else None,
            "escape_path": (
                self._path_doc(net.escape_path)
                if net.escape_path is not None
                else None
            ),
            "routed": net.routed,
            "demoted": net.demoted,
            "budget_demoted": net.budget_demoted,
            "dead": net.dead,
        }

    def _net_from_doc(
        self, doc: Dict[str, object], valve_by_id: Dict[int, Valve]
    ) -> _Net:
        # A truncated or hand-edited snapshot must surface as a one-line
        # CheckpointFormatError (CLI exit 2), never a raw KeyError
        # traceback — the whole parse runs under one trap.
        try:
            return self._net_from_doc_unchecked(doc, valve_by_id)
        except CheckpointFormatError:
            raise
        except KeyError as exc:
            raise CheckpointFormatError(
                f"net document {doc.get('net_id', '?')} is missing "
                f"field {exc}",
                field="nets",
            ) from None
        except (TypeError, ValueError, IndexError) as exc:
            raise CheckpointFormatError(
                f"net document {doc.get('net_id', '?')} is malformed "
                f"({type(exc).__name__}: {exc})",
                field="nets",
            ) from None

    def _net_from_doc_unchecked(
        self, doc: Dict[str, object], valve_by_id: Dict[int, Valve]
    ) -> _Net:
        valve_ids = doc["valve_ids"]
        try:
            valves = [valve_by_id[int(vid)] for vid in valve_ids]  # type: ignore[union-attr]
        except KeyError as exc:
            raise CheckpointFormatError(
                f"net {doc.get('net_id')} references unknown valve {exc}",
                field="nets",
            ) from None
        escape_path = (
            self._path_from_doc(doc["escape_path"])  # type: ignore[arg-type]
            if doc.get("escape_path") is not None
            else None
        )
        tree: Optional[RoutedTree] = None
        tree_doc = doc.get("tree")
        if tree_doc is not None:
            tree = RoutedTree(
                cluster_id=int(tree_doc["cluster_id"]),  # type: ignore[index]
                edge_paths={
                    int(key): self._path_from_doc(path_doc)
                    for key, path_doc in tree_doc["edge_paths"].items()  # type: ignore[index]
                },
                sequences={
                    int(sink): [int(k) for k in keys]
                    for sink, keys in tree_doc["sequences"].items()  # type: ignore[index]
                },
                root=Point(*tree_doc["root"]),  # type: ignore[index]
                escape_path=escape_path,
                via_length=self.grid.via_length,
            )
        pin_doc = doc.get("pin")
        return _Net(
            net_id=int(doc["net_id"]),  # type: ignore[arg-type]
            origin_cluster=int(doc["origin_cluster"]),  # type: ignore[arg-type]
            valves=valves,
            length_matching=bool(doc["length_matching"]),
            kind=str(doc["kind"]),
            tree=tree,
            paths=[self._path_from_doc(p) for p in doc.get("paths", [])],  # type: ignore[union-attr]
            pin=Point(int(pin_doc[0]), int(pin_doc[1])) if pin_doc else None,
            escape_path=escape_path,
            routed=bool(doc["routed"]),
            demoted=bool(doc["demoted"]),
            budget_demoted=bool(doc.get("budget_demoted", False)),
            dead=bool(doc.get("dead", False)),
        )

    def _budget_spent(self) -> bool:
        """Return True when any configured budget limit is exhausted."""
        try:
            self.budget.check()
        except BudgetExceeded:
            return True
        return False

    # -- stage supervision ----------------------------------------------------

    def _supervised(self, stage: str, fn: Callable, *args):
        """Run one stage, turning any escape of control into an incident.

        Stages handle their *expected* failures internally (demotion,
        de-clustering, solver fallback); whatever still escapes —
        exhausted budgets, structured errors, foreign exceptions — is
        recorded here and the flow moves on with what it has.
        """
        try:
            return fn(*args)
        except BudgetExceeded as exc:
            self._incident(stage, "budget-exceeded", str(exc))
        except PacorError as exc:
            self._incident(
                stage, "stage-failure", str(exc), severity=Severity.FATAL
            )
            self.occupancy.repair()
        except Exception as exc:  # noqa: BLE001 - fault isolation boundary
            self._incident(
                stage,
                "stage-failure",
                f"unexpected {type(exc).__name__}: {exc}",
                severity=Severity.FATAL,
            )
            self.occupancy.repair()
        return None

    def _incident(
        self,
        stage: str,
        kind: str,
        message: str,
        *,
        net_id: Optional[int] = None,
        severity: Severity = Severity.DEGRADED,
    ) -> None:
        """Record a structured incident (and mirror it into the log)."""
        self.incidents.append(
            Incident(
                stage=stage,
                kind=kind,
                message=message,
                net_id=net_id,
                severity=severity,
                span_id=self.tracer.current_span_id(),
            )
        )
        self._log(f"[{stage}] {kind}: {message}")

    def _check_occupancy(self, stage: str) -> None:
        """Detect (and repair) corrupted occupancy bookkeeping."""
        bad = self.occupancy.repair()
        if bad:
            self._incident(
                stage,
                "occupancy-corruption",
                f"occupancy bookkeeping inconsistent at {len(bad)} cells; "
                f"rebuilt net buckets from the owner array",
            )

    def _isolate_net_fault(self, stage: str, net: _Net, exc: Exception) -> None:
        """Contain a per-net fault: strip the net's routing, keep going."""
        self._incident(
            stage,
            "net-failure",
            f"{type(exc).__name__}: {exc}",
            net_id=net.net_id,
        )
        valve_cells = {v.position for v in net.valves}
        self.occupancy.release_cells(
            self.occupancy.cells_of(net.net_id) - valve_cells
        )
        net.paths = []
        net.tree = None
        self._failure_reasons[net.net_id] = (
            f"isolated fault during {stage}: {type(exc).__name__}"
        )

    # -- physical faults -----------------------------------------------------

    def _apply_fault_events(self, stage: str) -> None:
        """Fire the physical faults due at this stage boundary.

        Two sources feed the same application path: timed events of the
        run's :class:`~repro.robustness.faultmap.FaultMap` whose stage
        matches, and the seeded chaos injector's ``cell_blockage`` /
        ``valve_stuck`` points (satellite of the fault model — the
        injector picks deterministic victims, so a seeded storm run is
        reproducible).  Fault-free runs take the two cheap early-outs
        and touch nothing.
        """
        events: List[FaultEvent] = []
        if self.fault_map is not None:
            events.extend(self.fault_map.pop_events(stage))
        events.extend(self._injected_events(stage))
        for event in events:
            if event.valve is not None:
                self._apply_valve_stuck(stage, int(event.valve))
            elif event.cell is not None:
                self._apply_cell_fault(stage, event.cell)

    def _injected_events(self, stage: str) -> List[FaultEvent]:
        """Poll the chaos injector for physical faults at this boundary."""
        out: List[FaultEvent] = []
        if faults.fires("valve_stuck"):
            victim = self._pick_stuck_victim()
            if victim is not None:
                out.append(FaultEvent(stage=stage, valve=victim))
        if faults.fires("cell_blockage"):
            cell = self._pick_blockage_victim()
            if cell is not None:
                out.append(FaultEvent(stage=stage, cell=cell))
        return out

    def _pick_stuck_victim(self) -> Optional[int]:
        """Return the lowest-id valve that is not already stuck."""
        for valve in sorted(self.design.valves, key=lambda v: v.id):
            if valve.id not in self._stuck_valves:
                return valve.id
        return None

    def _pick_blockage_victim(self) -> Optional[Point]:
        """Return a deterministic cell for an injected blockage.

        Preferably the minimal routed cell id owned by a live net (so the
        fault actually damages something, exercising the repair path);
        before any routing exists, the minimal free cell.  Valve
        positions and pins are excluded — a valve hit is the
        ``valve_stuck`` point's job.
        """
        skip = {self.grid.index(v.position) for v in self.design.valves}
        skip.update(
            self.grid.index(n.pin)
            for n in self.nets.values()
            if n.pin is not None
        )
        best: Optional[int] = None
        for net_id, bucket in self.occupancy.id_buckets():
            if net_id == FAULT_NET:
                continue
            for cid in bucket:
                if cid not in skip and (best is None or cid < best):
                    best = cid
        if best is None:
            mask = self.grid.obstacle_mask()
            for cid in range(self.grid.size):
                if not mask[cid] and self.occupancy.owner_id(cid) == FREE:
                    if cid not in skip:
                        best = cid
                        break
        if best is None:
            return None
        return self.grid.point(best)

    def _apply_cell_fault(self, stage: str, cell: Point) -> None:
        """Block one cell mid-flow, ripping whatever routes through it."""
        if not self.grid.in_bounds(cell):
            return
        valve_at = next(
            (v for v in self.design.valves if v.position == cell), None
        )
        if valve_at is not None:
            # A fault on a valve seat is the valve failing, not a channel
            # blockage — same normalisation FaultMap.normalized applies.
            self._apply_valve_stuck(stage, valve_at.id)
            return
        cid = self.grid.index(cell)
        if self.occupancy.owner_id(cid) == FAULT_NET:
            return  # already faulty
        if self.fault_map is None:
            self.fault_map = FaultMap()
        self.fault_map.add_cell(cell)
        owner = self.occupancy.owner_id(cid)
        if owner != FREE:
            net = self.nets.get(owner)
            if net is not None:
                self._damage_net(
                    stage, net, f"cell ({cell.x}, {cell.y}) blocked by fault"
                )
        self.occupancy.release_cell_ids([cid])
        self.occupancy.occupy_ids([cid], FAULT_NET)
        self._incident(
            stage,
            "physical-fault",
            f"cell ({cell.x}, {cell.y}) blocked",
            net_id=owner if owner >= 0 else None,
            severity=Severity.INFO,
        )

    def _apply_valve_stuck(self, stage: str, vid: int) -> None:
        """Mark one valve stuck mid-flow, shrinking or killing its net."""
        if vid in self._stuck_valves:
            return
        valve = self.design.valve_by_id().get(vid)
        if valve is None:
            return
        self._stuck_valves.add(vid)
        if self.fault_map is None:
            self.fault_map = FaultMap()
        self.fault_map.add_valve(vid)
        owner_net = next(
            (
                n
                for n in self.nets.values()
                if not n.dead and any(v.id == vid for v in n.valves)
            ),
            None,
        )
        if owner_net is not None:
            survivors = [v for v in owner_net.valves if v.id != vid]
            if survivors:
                self._damage_net(
                    stage, owner_net, f"valve {vid} stuck mid-flow"
                )
                owner_net.valves = survivors
                if len(survivors) == 1:
                    owner_net.kind = "singleton"
            else:
                self._kill_net(owner_net, vid)
        # The stuck valve's seat becomes a faulty cell: nothing may ever
        # route through an inoperable valve.
        cid = self.grid.index(valve.position)
        if self.occupancy.owner_id(cid) != FAULT_NET:
            self.occupancy.release_cell_ids([cid])
            self.occupancy.occupy_ids([cid], FAULT_NET)
        self._incident(
            stage,
            "physical-fault",
            f"valve {vid} stuck",
            net_id=owner_net.net_id if owner_net is not None else None,
            severity=Severity.INFO,
        )

    def _damage_net(self, stage: str, net: _Net, note: str) -> None:
        """Rip a fault-hit net and queue it for the post-flow repair pass."""
        if net.dead or net.net_id in self._fault_damaged:
            return
        valve_ids = {self.grid.index(v.position) for v in net.valves}
        old_ids = set(self.occupancy.cells_of_ids(net.net_id))
        self.occupancy.release_cell_ids(old_ids - valve_ids)
        net.tree = None
        net.paths = []
        net.escape_path = None
        net.routed = False
        self._fault_damaged[net.net_id] = note
        self._fault_old_cells[net.net_id] = old_ids
        self._failure_reasons[net.net_id] = note
        self._log(f"fault: net {net.net_id} damaged ({note})")

    def _kill_net(self, net: _Net, vid: int) -> None:
        """Retire a net whose last operable valve just failed."""
        self.occupancy.release_ids(net.net_id)
        net.tree = None
        net.paths = []
        net.escape_path = None
        net.routed = False
        net.dead = True
        self._fault_damaged.pop(net.net_id, None)
        self._fault_old_cells.pop(net.net_id, None)
        self._failure_reasons[net.net_id] = (
            f"valve {vid} stuck (physical fault)"
        )
        self._log(f"fault: net {net.net_id} dead (no operable valves left)")

    def _repair_damaged(self) -> None:
        """Heal every fault-damaged net through the repair ladder.

        Runs once, after the last stage: the surviving occupancy is
        final by then, so the ladder re-routes only the ripped nets
        against it — the incremental alternative to a full re-route.
        """
        damaged = sorted(
            nid for nid in self._fault_damaged if not self.nets[nid].dead
        )
        if not damaged:
            return
        # Imported lazily: repro.robustness must stay import-cycle-free
        # (repair pulls in the routing stack, which imports occupancy,
        # which imports the robustness package during initialisation).
        from repro.robustness.repair import NetRepair, RepairEngine

        engine = RepairEngine(self.design, budget=self.budget)
        fault_cids = set(self.occupancy.cells_of_ids(FAULT_NET))
        used_pins = {
            n.pin for n in self.nets.values() if n.routed and n.pin is not None
        }
        for nid in damaged:
            net = self.nets[nid]
            candidates = (
                []
                if net.pin is not None
                else [p for p in self.design.control_pins if p not in used_pins]
            )
            spec = NetRepair(
                net_id=nid,
                origin_cluster=net.origin_cluster,
                valve_ids=[v.id for v in net.valves],
                terminals=[v.position for v in net.valves],
                pin=net.pin,
                candidate_pins=candidates,
                length_matching=net.length_matching and not net.demoted,
                delta=self.delta,
                old_cell_ids=set(self._fault_old_cells.get(nid, set())),
                failure_note=self._fault_damaged[nid],
            )
            report, rung = engine.repair_net(self.occupancy, spec, fault_cids)
            if report is None:
                self._failure_reasons[nid] = (
                    f"{self._fault_damaged[nid]}; repair ladder exhausted"
                )
                net.routed = False
                # The failed ladder released the whole bucket; give the
                # surviving valves their seats back.
                self.occupancy.occupy([v.position for v in net.valves], nid)
                self._incident(
                    "repair",
                    "net-failure",
                    f"net {nid} could not be re-routed around the fault",
                    net_id=nid,
                )
            else:
                if net.length_matching and not spec.length_matching:
                    # The net was demoted before the fault: report it
                    # under the origin cluster's LM constraint, unmatched.
                    report = replace(
                        report, length_matching=True, matched=False
                    )
                net.routed = True
                net.pin = spec.pin
                if spec.pin is not None:
                    used_pins.add(spec.pin)
                net.repaired_report = report
                self._log(f"repair: net {nid} re-routed via {rung} rung")

    # -- stage 1: clustering --------------------------------------------------

    def _stage_clustering(self) -> List[Cluster]:
        # Stuck valves cannot be actuated: they are filtered out of the
        # clustering input (an LM group shrunk below two survivors simply
        # yields smaller clusters) and each becomes a dead net so the
        # result still accounts for it.
        stuck = self._stuck_valves
        live_valves = [v for v in self.design.valves if v.id not in stuck]
        live_groups = [
            kept
            for group in self.design.lm_groups
            if (kept := [vid for vid in group if vid not in stuck])
        ]
        if not live_valves:
            self._log("clustering: every valve stuck; nothing to route")
            clusters: List[Cluster] = []
            self._next_net_id = 0
        else:
            clusters = cluster_valves(live_valves, live_groups)
            self._next_net_id = max(c.id for c in clusters) + 1
        valve_by_id = self.design.valve_by_id()
        for vid in sorted(stuck):
            net_id = self._next_net_id
            self._next_net_id += 1
            self.nets[net_id] = _Net(
                net_id=net_id,
                origin_cluster=net_id,
                valves=[valve_by_id[vid]],
                length_matching=False,
                kind="singleton",
                dead=True,
            )
            self._failure_reasons[net_id] = (
                f"valve {vid} stuck (physical fault)"
            )
        for cluster in clusters:
            self.occupancy.occupy([v.position for v in cluster.valves], cluster.id)
            lm = cluster.size >= 2 and (
                cluster.length_matching or self.config.match_all_clusters
            )
            if lm:
                kind = "lm-pair" if cluster.size == 2 else "lm-tree"
            elif cluster.size >= 2:
                kind = "ordinary"
            else:
                kind = "singleton"
            self.nets[cluster.id] = _Net(
                net_id=cluster.id,
                origin_cluster=cluster.id,
                valves=list(cluster.valves),
                length_matching=lm,
                kind=kind,
            )
        self._n_multi_clusters = sum(1 for c in clusters if c.size >= 2)
        self._log(
            f"clustering: {len(clusters)} clusters "
            f"({self._n_multi_clusters} multi-valve)"
        )
        return clusters

    # -- stage 2: length-matching routing -------------------------------------

    def _stage_lm_routing(self) -> None:
        # Nets that already carry a routed tree (possible only when the
        # stage is re-entered by a resumed run) are complete; only the
        # still-unrouted LM clusters go through candidates/negotiation.
        lm_nets = [
            n
            for n in self.nets.values()
            if n.kind in ("lm-tree", "lm-pair") and n.tree is None
        ]
        if not lm_nets:
            return

        all_valve_cells = {v.position for v in self.design.valves}
        # A valve whose surroundings leave a single free cell (typical for
        # valves embedded in flow channels) depends on that cell for every
        # connection; merging nodes must never squat on it.
        critical_access: Set[Point] = set()
        for valve in self.design.valves:
            free = [
                q
                for q in valve.position.neighbors4()
                if self.grid.is_free(q) and q not in all_valve_cells
            ]
            if len(free) == 1:
                critical_access.add(free[0])

        # Candidate generation (clusters of 3+ valves).
        candidate_sets: Dict[int, List[CandidateTree]] = {}
        with self.tracer.span("dme-candidates", category="kernel") as cand_span:
            for net in [n for n in lm_nets if n.kind == "lm-tree"]:
                # Internal merging nodes must avoid every valve cell —
                # other clusters' terminals for routability, and the
                # cluster's own sinks because a merging node *on* a sink
                # collapses the balanced tree into a physical loop (the
                # sink would sit at zero distance from the node while the
                # model assumes the full balanced length).
                try:
                    cands = generate_candidates(
                        self.grid,
                        net.net_id,
                        [v.position for v in net.valves],
                        k=self.config.k_candidates,
                        blocked=all_valve_cells | critical_access,
                        skew_bound_h=(
                            2 * self.delta if self.config.bounded_skew_dme else 0
                        ),
                    )
                except Exception as exc:  # noqa: BLE001 - per-net isolation
                    self._incident(
                        "lm-routing",
                        "net-failure",
                        f"candidate generation failed "
                        f"({type(exc).__name__}: {exc})",
                        net_id=net.net_id,
                    )
                    self._demote_lm(net, reason="candidate generation failed")
                    continue
                if cands:
                    candidate_sets[net.net_id] = cands
                else:
                    self._demote_lm(net, reason="no embeddable DME candidate")
            cand_span.set(clusters=len(candidate_sets))

        # Candidate selection (Section 4.2) — or first-candidate baseline.
        chosen: Dict[int, CandidateTree] = {}
        if candidate_sets:
            ordered_ids = sorted(candidate_sets)
            if self.config.enable_selection and len(ordered_ids) >= 1:
                instance = SelectionInstance(
                    [candidate_sets[i] for i in ordered_ids], lam=self.config.lam
                )
                solver = {
                    SelectionSolver.EXACT: solve_exact,
                    SelectionSolver.GREEDY: solve_greedy,
                    SelectionSolver.LOCAL: solve_local_search,
                }[self.config.selection_solver]
                with self.tracer.span(
                    "mwcp-selection",
                    category="kernel",
                    solver=self.config.selection_solver.value,
                    clusters=len(ordered_ids),
                ):
                    selection = solver(instance)
                for idx, cid in enumerate(ordered_ids):
                    chosen[cid] = candidate_sets[cid][selection.choice[idx]]
                self._log(
                    f"selection: {self.config.selection_solver.value} objective "
                    f"{selection.objective:.3f} over {len(ordered_ids)} clusters"
                )
            else:
                for cid in ordered_ids:
                    chosen[cid] = candidate_sets[cid][0]
                self._log("selection: disabled (first candidate per cluster)")

        # Negotiation-based routing of all LM edges (Algorithm 1).
        requests: List[RouteRequest] = []
        edge_owner: Dict[int, Tuple[int, Optional[int]]] = {}
        next_edge = 0
        for cid, tree in chosen.items():
            for edge_idx, edge in enumerate(tree.edges()):
                requests.append(
                    RouteRequest(next_edge, cid, (edge.child,), (edge.parent,))
                )
                edge_owner[next_edge] = (cid, edge_idx)
                next_edge += 1
        for net in [n for n in lm_nets if n.kind == "lm-pair" and not n.demoted]:
            a, b = net.valves[0].position, net.valves[1].position
            requests.append(RouteRequest(next_edge, net.net_id, (a,), (b,)))
            edge_owner[next_edge] = (net.net_id, None)
            next_edge += 1

        router = NegotiationRouter(
            self.grid,
            base_cost=self.config.history_base,
            alpha=self.config.history_alpha,
            gamma=self.config.gamma,
            max_expansions=self.config.max_astar_expansions,
        )
        with self.tracer.span(
            "negotiation", category="kernel", edges=len(requests)
        ) as neg_span:
            outcome = router.route(requests, self.occupancy, budget=self.budget)
            neg_span.set(
                iterations=outcome.iterations,
                failed=len(outcome.failed_edges),
                aborted=outcome.aborted,
            )
        self._log(
            f"negotiation: {len(requests)} edges, {outcome.iterations} iterations, "
            f"{len(outcome.failed_edges)} failed"
        )
        if outcome.aborted:
            self._incident(
                "lm-routing",
                "budget-exceeded",
                "negotiation aborted: compute budget exhausted; "
                "unrouted clusters demoted to MST routing",
            )

        failed_nets = {edge_owner[e][0] for e in outcome.failed_edges}
        for cid, tree in chosen.items():
            net = self.nets[cid]
            if cid in failed_nets:
                # The paper reconstructs the DME tree when negotiation
                # gives up: retry the cluster's remaining candidates
                # one at a time before demoting to MST routing (skipped
                # when the budget is already gone).
                if not outcome.aborted and self._retry_candidates(
                    net, candidate_sets.get(cid, []), tree
                ):
                    continue
                self._demote_lm(net, reason="negotiation failure")
                if outcome.aborted or self._budget_spent():
                    net.budget_demoted = True
                continue
            paths = {
                edge_idx: outcome.paths[eid]
                for eid, (owner, edge_idx) in edge_owner.items()
                if owner == cid and edge_idx is not None
            }
            net.tree = routed_tree_from_candidate(
                tree, paths, via_length=self.grid.via_length
            )
        for net in [n for n in lm_nets if n.kind == "lm-pair"]:
            if net.demoted:
                continue
            eids = [e for e, (owner, _) in edge_owner.items() if owner == net.net_id]
            if not eids or net.net_id in failed_nets:
                self._demote_lm(net, reason="negotiation failure")
                if outcome.aborted or self._budget_spent():
                    net.budget_demoted = True
                continue
            net.tree = routed_tree_from_pair(
                net.net_id,
                outcome.paths[eids[0]],
                via_length=self.grid.via_length,
            )
        if not outcome.aborted:
            # A budget that died inside candidate retries (or right at the
            # end of negotiation) never set ``aborted``; surface it here so
            # the run's resume cursor stays on this stage.
            try:
                self.budget.check("lm-routing")
            except BudgetExceeded as exc:
                self._incident("lm-routing", "budget-exceeded", str(exc))

    def _retry_candidates(
        self,
        net: _Net,
        candidates: Sequence[CandidateTree],
        failed_tree: CandidateTree,
    ) -> bool:
        """Try the cluster's alternative DME candidates after a failure.

        Releases the failed partial routing, then routes each remaining
        candidate's edges in isolation (short negotiation).  On success
        the net's routed tree is installed and True returned.
        """
        valve_cells = {v.position for v in net.valves}
        for candidate in candidates:
            if candidate is failed_tree:
                continue
            self.occupancy.release_cells(
                self.occupancy.cells_of(net.net_id) - valve_cells
            )
            requests = [
                RouteRequest(idx, net.net_id, (edge.child,), (edge.parent,))
                for idx, edge in enumerate(candidate.edges())
            ]
            router = NegotiationRouter(
                self.grid,
                base_cost=self.config.history_base,
                alpha=self.config.history_alpha,
                gamma=max(2, self.config.gamma // 3),
                max_expansions=self.config.max_astar_expansions,
            )
            outcome = router.route(requests, self.occupancy, budget=self.budget)
            if outcome.aborted:
                break
            if outcome.success:
                net.tree = routed_tree_from_candidate(
                    candidate, outcome.paths, via_length=self.grid.via_length
                )
                self._log(
                    f"cluster {net.net_id}: alternative DME candidate routed "
                    f"after negotiation failure"
                )
                return True
        self.occupancy.release_cells(
            self.occupancy.cells_of(net.net_id) - valve_cells
        )
        return False

    def _demote_lm(self, net: _Net, reason: str) -> None:
        """Demote an LM cluster to ordinary MST routing."""
        self._log(f"demote cluster {net.net_id}: {reason}")
        net.demoted = True
        net.tree = None
        net.paths = []
        net.kind = "ordinary" if len(net.valves) >= 2 else "singleton"
        # Free everything but the valve terminals.
        valve_cells = {v.position for v in net.valves}
        extra = self.occupancy.cells_of(net.net_id) - valve_cells
        self.occupancy.release_cells(extra)

    # -- stage 3: MST routing --------------------------------------------------

    def _stage_mst_routing(self, history: Optional[List[float]] = None) -> None:
        for net in list(self.nets.values()):
            # A net that already has internal channels was routed before
            # an interruption; a resumed run must not route it twice.
            # Dead and fault-damaged nets are the repair pass's problem.
            if net.dead or net.net_id in self._fault_damaged:
                continue
            if net.kind == "ordinary" and net.tree is None and not net.paths:
                # A spent budget fast-fails the whole stage (supervised);
                # any other per-net fault is contained to that net.
                self.budget.check("mst-routing")
                try:
                    self._route_ordinary(net, history)
                except BudgetExceeded:
                    raise
                except Exception as exc:  # noqa: BLE001 - net isolation
                    self._isolate_net_fault("mst-routing", net, exc)

    def _route_ordinary(self, net: _Net, history: Optional[List[float]]) -> None:
        terminals = [v.position for v in net.valves]
        spent_before = self.budget.expansion_counter.value
        with self.tracer.span(
            "mst-net", category="net", net_id=net.net_id, valves=len(terminals)
        ) as net_span:
            outcome = route_cluster_mst(
                self.grid,
                self.occupancy,
                net.net_id,
                terminals,
                history=history,
                max_expansions=self.config.max_astar_expansions,
                budget=self.budget,
            )
            net_span.set(
                astar_expansions=(
                    self.budget.expansion_counter.value - spent_before
                ),
                failed_valves=len(outcome.failed),
            )
        net.paths = list(outcome.paths)
        if outcome.failed:
            self._log(
                f"decluster net {net.net_id}: {len(outcome.failed)} valves split off"
            )
            for idx in outcome.failed:
                valve = net.valves[idx]
                self._spawn_singleton(net, valve)
            net.valves = [
                v for i, v in enumerate(net.valves) if i not in set(outcome.failed)
            ]
            if len(net.valves) == 1:
                net.kind = "singleton"

    def _spawn_singleton(self, parent: _Net, valve: Valve) -> None:
        """Split one valve off ``parent`` into its own net."""
        new_id = self._next_net_id
        self._next_net_id += 1
        self.occupancy.release_cells([valve.position])
        self.occupancy.occupy([valve.position], new_id)
        self.nets[new_id] = _Net(
            net_id=new_id,
            origin_cluster=parent.origin_cluster,
            valves=[valve],
            length_matching=parent.length_matching,
            kind="singleton",
            demoted=parent.length_matching,
        )
        if self._escape_pending is not None:
            self._escape_pending.add(new_id)

    # -- stage 4: escape routing -----------------------------------------------

    def _escape_taps(self, net: _Net) -> Tuple[Point, ...]:
        """Tap cells per Section 5 by net kind.

        Escape routing is a layer-0 subproblem, so only planar cells
        (2-tuples under the mixed-arity rule) can tap it; a demoted
        net's upper-layer channel cells are skipped.  Valve terminals
        are always planar, so the tap set is never emptied by this.
        """
        if net.tree is not None:
            return (net.tree.root,)
        cells = self.occupancy.cells_of(net.net_id)
        return tuple(sorted(c for c in cells if len(c) == 2))

    def _stage_escape(self) -> None:
        """Escape routing with incremental commit and rip-up (Section 3/5).

        Each round solves one global min-cost flow for the still-pending
        sources and *commits* every routed path immediately; failed
        sources then trigger blocking-net rip-up.  Ripping may uncommit a
        previously committed escape path (when only that path blocks) or
        rip a net's internal channels (demoting LM clusters).  Per-net
        rip counters stop oscillation.

        The stage is budget-supervised: an exhausted compute budget stops
        the rounds, and whatever is still pending is reported unrouted
        with a per-net failure reason instead of hanging the flow.
        """
        pins = list(self.design.control_pins)
        # A multi-valve net that never got internal channels (its routing
        # stage was cut short by the budget or a fault) must not escape as
        # one net: the pin would reach a single valve while the report
        # claimed the whole net routed.  Split it so each valve escapes
        # on its own.
        for net in list(self.nets.values()):
            if net.dead or net.net_id in self._fault_damaged:
                continue
            if len(net.valves) >= 2 and net.tree is None and not net.paths:
                self._log(
                    f"decluster net {net.net_id}: no internal channels "
                    f"before escape"
                )
                for valve in net.valves[1:]:
                    self._spawn_singleton(net, valve)
                net.valves = net.valves[:1]
                net.kind = "singleton"
        # Fresh runs start with every net pending; a resumed run keeps
        # the escapes committed before the interruption and re-queues
        # only what is still unrouted.
        pending: Set[int] = {
            net_id
            for net_id, net in self.nets.items()
            if not net.routed
            and not net.dead
            and net_id not in self._fault_damaged
        }
        self._escape_pending = pending
        self._last_escape_pending = None
        try:
            self._escape_rounds(pending, pins)
            if pending:
                self._force_completion(pending, pins)
        except BudgetExceeded as exc:
            self._last_escape_pending = sorted(pending)
            self._incident("escape", "budget-exceeded", str(exc))
        finally:
            self._escape_pending = None
            for net_id in pending:
                self.nets[net_id].routed = False
                self._failure_reasons.setdefault(
                    net_id, "escape routing gave up before reaching a control pin"
                )

    def _escape_rounds(self, pending: Set[int], pins: Sequence[Point]) -> None:
        """The min-cost-flow escape rounds with rip-up in between."""
        rip_counts: Dict[int, int] = {}
        fail_counts: Dict[int, int] = {}
        rounds = self.config.max_ripup_rounds
        for round_idx in range(rounds + 1):
            if not pending:
                break
            self.budget.charge_rip_round("escape")
            obs.counter("escape.rounds").inc()
            obs.counter("escape.rip_rounds").inc()
            with self.tracer.span(
                "escape-round",
                category="round",
                round=round_idx,
                pending=len(pending),
            ) as round_span:
                sources = [
                    EscapeSource(nid, self._escape_taps(self.nets[nid]))
                    for nid in sorted(pending)
                ]
                used_pins = {
                    n.pin
                    for n in self.nets.values()
                    if n.routed and n.pin is not None
                }
                available_pins = [p for p in pins if p not in used_pins]
                blocked: Set[Point] = set()
                for nid in self.occupancy.nets():
                    blocked |= self.occupancy.cells_of(nid)
                try:
                    result = solve_escape(
                        self.grid, sources, available_pins, blocked
                    )
                except Exception as exc:  # noqa: BLE001 - solver isolation
                    self._incident(
                        "escape",
                        "solver-fallback",
                        f"min-cost-flow solver failed "
                        f"({type(exc).__name__}: {exc}); "
                        f"falling back to sequential escape routing",
                    )
                    result = solve_escape_sequential(
                        self.grid, sources, available_pins, blocked
                    )
                self._log(
                    f"escape round {round_idx}: {result.flow_value}/"
                    f"{len(sources)} routed, cost {result.total_cost:.0f}"
                )
                round_span.set(
                    routed=result.flow_value, unrouted=len(result.unrouted)
                )
                for net_id, path in result.paths.items():
                    self._commit_escape(
                        self.nets[net_id], path, result.pin_of[net_id]
                    )
                    pending.discard(net_id)
                if not result.unrouted or round_idx == rounds:
                    break
                # A cluster whose single tap (tree root / pair midpoint)
                # sits in a hopeless corridor will fail round after round
                # while its blockers shuffle; after three failures demote
                # it so any of its path cells can tap (completion beats
                # matching).
                self_ripped = False
                for net_id in result.unrouted:
                    fail_counts[net_id] = fail_counts.get(net_id, 0) + 1
                    net = self.nets[net_id]
                    if fail_counts[net_id] >= 3 and net.tree is not None:
                        self._rip_and_reroute(net, pending)
                        self_ripped = True
                blockers_ripped = self._ripup_round(
                    result.unrouted, round_idx, pins, pending, rip_counts
                )
                if not (self_ripped or blockers_ripped):
                    self._log(
                        "escape: nothing left to rip up; "
                        "accepting partial result"
                    )
                    break

    def _force_completion(self, pending: Set[int], pins: Sequence[Point]) -> None:
        """Last-resort sequential escape for nets the flow rounds starved.

        The paper iterates rip-up/reroute "until all the valves are
        successfully routed"; this pass realises that guarantee: each
        stubborn net is routed point-to-pin by A*, ripping *any* blocking
        net (matched LM clusters included, at their higher cost).  Nets
        routed here become protected, so progress is monotone and the
        pass terminates.
        """
        # Nets routed by this pass become *soft*-protected: the probe may
        # still cross them, but only at a prohibitive cost, so they are
        # ripped only when literally nothing else unwalls the victim.
        # Completion outranks matching, as in the paper.
        protected: Set[int] = set()
        hopeless: Set[int] = set()
        # Two nets contending for a single-channel corridor would rip each
        # other forever; after three force-routes a net becomes permanent
        # (never rippable again) so the contest resolves one way.
        force_counts: Dict[int, int] = {}
        permanent_nets: Set[int] = set()
        valve_cells = {v.position for v in self.design.valves}
        guard = 0
        guard_limit = 10 * max(1, len(self.nets))
        while pending - hopeless:
            guard += 1
            if guard > guard_limit:
                stuck = sorted(pending - hopeless)
                error = RouterStuck(
                    f"no convergence after {guard_limit} force-route attempts",
                    stage="force-completion",
                    pending=stuck,
                )
                self._incident("force-completion", "router-stuck", str(error))
                for nid in stuck:
                    self._failure_reasons.setdefault(
                        nid, "force-completion rip-up loop stopped converging"
                    )
                break
            self.budget.charge_rip_round("force-completion")
            obs.counter("escape.rip_rounds").inc()
            net_id = min(pending - hopeless)
            net = self.nets[net_id]
            taps = self._escape_taps(net)
            used_pins = {
                n.pin for n in self.nets.values() if n.routed and n.pin is not None
            }
            available = [p for p in pins if p not in used_pins]
            rippable = set(self.nets) - protected - permanent_nets - {net_id}
            rip_cost = {
                nid: self.config.lm_rip_cost
                for nid in rippable
                if self.nets[nid].tree is not None
            }
            probe = find_blocking_nets(
                self.grid,
                self.occupancy,
                list(taps),
                available,
                rippable=rippable,
                rip_cost=rip_cost,
                permanent=valve_cells,
            )
            if probe is None and protected - permanent_nets:
                # Last resort: the victim is walled in by channels this
                # pass already committed — allow crossing them, at a
                # prohibitive cost so only the unavoidable one is ripped.
                rip_cost = dict(rip_cost)
                for nid in protected:
                    rip_cost[nid] = self.config.protected_rip_cost
                probe = find_blocking_nets(
                    self.grid,
                    self.occupancy,
                    list(taps),
                    available,
                    rippable=(set(self.nets) - permanent_nets - {net_id}),
                    rip_cost=rip_cost,
                    permanent=valve_cells,
                )
            blocker_ids: Sequence[int] = ()
            if probe is None:
                if net.tree is not None:
                    self._rip_and_reroute(net, pending)
                    continue
                if self.grid.layers == 1:
                    cause = (
                        "walled in by unrippable channels"
                        if available
                        else "no free control pin left"
                    )
                    self._incident(
                        "force-completion",
                        "net-failure",
                        f"{cause}; giving up",
                        net_id=net_id,
                    )
                    self._failure_reasons[net_id] = cause
                    hopeless.add(net_id)
                    continue
                # The probe is planar and cannot see over-the-wall via
                # paths on a layered grid; attempt the full-grid A*
                # (rip-free) before giving up.
            else:
                blocker_ids = sorted(probe.nets)
            # Release the blockers but re-route them only after the victim
            # has escaped, so they cannot reclaim the freed corridor.
            ripped: List[Tuple[_Net, Set[Point]]] = []
            for blocker_id in blocker_ids:
                blocker = self.nets[blocker_id]
                protected.discard(blocker_id)
                before = self.occupancy.cells_of(blocker_id)
                self._rip_and_reroute(blocker, pending, reroute=False)
                ripped.append((blocker, before - self.occupancy.cells_of(blocker_id)))
            free_pins = [
                p
                for p in available
                if self.occupancy.is_routable(p, net_id)
            ]
            # The escape channel must leave the tap directly; riding along
            # the net's own tree channels would splice the network and
            # silently change the matched lengths.
            own_non_tap = self.occupancy.cells_of(net_id) - set(taps)
            path, reason = astar_route_detailed(
                self.grid,
                taps,
                free_pins,
                net=net_id,
                occupancy=self.occupancy,
                extra_obstacles=own_non_tap or None,
                budget=self.budget,
            )
            if path is not None:
                self._commit_escape(net, path, path.target)
                self._log(f"escape: force-routed net {net_id} to {path.target}")
                pending.discard(net_id)
                protected.add(net_id)
                force_counts[net_id] = force_counts.get(net_id, 0) + 1
                if force_counts[net_id] >= 3:
                    permanent_nets.add(net_id)
            else:
                if reason == ALL_SOURCES_BLOCKED:
                    self._failure_reasons[net_id] = (
                        "every escape tap cell is blocked"
                    )
                hopeless.add(net_id)
            for blocker, freed in ripped:
                self._reroute_internal(blocker, freed)
        pending &= hopeless

    def _commit_escape(self, net: _Net, path: Path, pin: Point) -> None:
        new_cells = [c for c in path.cells if self.occupancy.owner(c) != net.net_id]
        self.occupancy.occupy(new_cells, net.net_id)
        net.escape_path = path
        net.pin = pin
        net.routed = True
        if net.tree is not None:
            net.tree.escape_path = path

    def _uncommit_escape(self, net: _Net, pending: Set[int]) -> None:
        """Release a committed escape path; the net re-enters the queue."""
        assert net.escape_path is not None
        internal: Set[Point] = set()
        if net.tree is not None:
            for p in net.tree.edge_paths.values():
                internal |= set(p.cells)
        for p in net.paths:
            internal |= set(p.cells)
        internal |= {v.position for v in net.valves}
        self.occupancy.release_cells(set(net.escape_path.cells) - internal)
        net.escape_path = None
        net.pin = None
        net.routed = False
        if net.tree is not None:
            net.tree.escape_path = None
        pending.add(net.net_id)

    def _ripup_round(
        self,
        unrouted: Sequence[int],
        round_idx: int,
        pins: Sequence[Point],
        pending: Set[int],
        rip_counts: Dict[int, int],
    ) -> bool:
        """Rip up the nets blocking failed escape sources.

        A blocker whose probe crossing lies entirely on its *escape* path
        only loses that path (re-queued for the next round); otherwise
        its internal channels are ripped and re-routed, demoting LM
        clusters.  Nets ripped three times become protected.
        """
        allow_lm = round_idx >= self.config.lm_rippable_after
        rippable: Set[int] = set()
        rip_cost: Dict[int, float] = {}
        for net in self.nets.values():
            if rip_counts.get(net.net_id, 0) >= 3:
                continue
            if net.tree is not None:
                if allow_lm or net.routed:
                    # A routed LM net's escape path may always be ripped;
                    # its tree only in later rounds.
                    rippable.add(net.net_id)
                    rip_cost[net.net_id] = self.config.lm_rip_cost
            elif net.kind == "ordinary" or net.routed:
                rippable.add(net.net_id)
        ripped_any = False
        for net_id in unrouted:
            failed = self.nets[net_id]
            probe = find_blocking_nets(
                self.grid,
                self.occupancy,
                list(self._escape_taps(failed)),
                pins,
                rippable=rippable - {net_id},
                rip_cost=rip_cost,
            )
            if probe is None:
                # Not even a probe path exists.  A common cause is a DME
                # root walled in by its own tree edges; ripping the net
                # itself (demotion to MST, where any path cell can tap)
                # restores routability at the cost of the match.
                if failed.tree is not None:
                    self._rip_and_reroute(failed, pending)
                    ripped_any = True
                continue
            for blocker_id in sorted(probe.nets):
                blocker = self.nets[blocker_id]
                rip_counts[blocker_id] = rip_counts.get(blocker_id, 0) + 1
                crossed = probe.crossed_cells.get(blocker_id, set())
                escape_cells = (
                    set(blocker.escape_path.cells)
                    if blocker.escape_path is not None
                    else set()
                )
                if crossed and crossed <= escape_cells:
                    self._log(f"rip escape path of net {blocker_id}")
                    self._uncommit_escape(blocker, pending)
                else:
                    if blocker.escape_path is not None:
                        self._uncommit_escape(blocker, pending)
                    self._rip_and_reroute(blocker, pending)
                rippable.discard(blocker_id)
                ripped_any = True
        return ripped_any

    def _rip_and_reroute(
        self, net: _Net, pending: Set[int], *, reroute: bool = True
    ) -> None:
        """Rip a net's internal channels and (optionally) re-route them.

        With ``reroute=False`` the cells are only released; the caller
        re-routes later via :meth:`_reroute_internal` — the force pass
        uses this so the victim escapes *before* the blocker reclaims
        space.
        """
        self._log(f"rip up net {net.net_id} ({net.kind})")
        if net.escape_path is not None:
            self._uncommit_escape(net, pending)
        if net.tree is not None:
            self._demote_lm(net, reason="ripped during escape routing")
        valve_cells = {v.position for v in net.valves}
        old_cells = self.occupancy.cells_of(net.net_id) - valve_cells
        self.occupancy.release_cells(old_cells)
        net.paths = []
        # Dead and fault-damaged nets never re-enter the escape queue;
        # the post-flow repair pass owns them.
        if not net.dead and net.net_id not in self._fault_damaged:
            pending.add(net.net_id)
        if reroute:
            self._reroute_internal(net, old_cells)

    def _reroute_internal(self, net: _Net, avoid: Set[Point]) -> None:
        """Re-route a ripped net's internal channels, avoiding ``avoid``."""
        if net.kind != "ordinary":
            return  # singletons have no internal channel to re-route
        history = [0.0] * self.grid.size
        for cell in avoid:
            history[self.grid.index(cell)] = _RIP_HISTORY_PENALTY
        self._route_ordinary(net, history)

    # -- stage 5: detouring -----------------------------------------------------

    def _stage_detour(self) -> None:
        for net in sorted(self.nets.values(), key=lambda n: n.net_id):
            if net.tree is None:
                continue
            self.budget.check_wall_clock("detour")
            with self.tracer.span(
                "detour-net", category="net", net_id=net.net_id
            ) as net_span:
                try:
                    outcome = detour_cluster(
                        self.grid,
                        self.occupancy,
                        net.tree,
                        self.delta,
                        theta=self.config.theta,
                    )
                except Exception as exc:  # noqa: BLE001 - per-net isolation
                    # The tree stays routed (possibly unmatched);
                    # detouring is an improvement pass, so the fault costs
                    # matching quality only, never completion.
                    net_span.set(error=f"{type(exc).__name__}: {exc}")
                    self._incident(
                        "detour",
                        "net-failure",
                        f"{type(exc).__name__}: {exc}",
                        net_id=net.net_id,
                    )
                    continue
                net_span.set(
                    matched=outcome.matched,
                    rounds=outcome.iterations,
                    detoured_edges=outcome.detoured_edges,
                )
            if outcome.detoured_edges:
                self._log(
                    f"detour cluster {net.net_id}: {outcome.detoured_edges} edges "
                    f"in {outcome.iterations} rounds, matched={outcome.matched}"
                )

    # -- result -------------------------------------------------------------------

    def _collect(self, runtime: float) -> PacorResult:
        unrouted = sum(1 for n in self.nets.values() if not n.routed)
        if self.metrics.enabled:
            self.metrics.gauge("nets.total").set(len(self.nets))
            self.metrics.gauge("nets.unrouted").set(unrouted)
            self.metrics.gauge("incidents.total").set(len(self.incidents))
            self.metrics.gauge("runtime_s").set(runtime)
        result = PacorResult(
            design_name=self.design.name,
            method=self._method_name,
            delta=self.delta,
            n_valves=len(self.design.valves),
            n_lm_clusters=self._n_multi_clusters,
            runtime_s=runtime,
            events=list(self.events),
            incidents=list(self.incidents),
            degraded=(
                unrouted > 0
                or any(i.severity is not Severity.INFO for i in self.incidents)
            ),
            checkpoint=(
                self.interrupt_checkpoint.to_json()
                if self.interrupt_checkpoint is not None
                else None
            ),
        )
        via_segments = 0
        via_nets = 0
        for net in sorted(self.nets.values(), key=lambda n: n.net_id):
            if net.repaired_report is not None:
                # The repair pass already produced the honest report
                # (cells, segments and matching of the re-route).
                result.nets.append(net.repaired_report)
                continue
            cells = frozenset(self.occupancy.cells_of(net.net_id))
            segments = frozenset(
                seg
                for path in net.drawn_paths()
                for seg in segments_of_path(path.cells)
            )
            net_vias = sum(1 for seg in segments if is_via_segment(seg))
            if net_vias and net.routed:
                via_segments += net_vias
                via_nets += 1
            matched: Optional[bool] = None
            mismatch: Optional[int] = None
            sink_lengths: Dict[int, int] = {}
            if net.length_matching:
                if net.tree is not None and net.routed and not net.demoted:
                    equal, _, _ = check_equal(net.tree, self.delta)
                    matched = equal
                    mismatch = net.tree.mismatch()
                    lengths = net.tree.full_lengths()
                    sink_lengths = {
                        net.valves[i].id: lengths[i] for i in lengths
                    }
                else:
                    matched = False
            result.nets.append(
                NetReport(
                    net_id=net.net_id,
                    origin_cluster=net.origin_cluster,
                    valve_ids=[v.id for v in net.valves],
                    length_matching=net.length_matching,
                    routed=net.routed,
                    pin=net.pin,
                    cells=cells,
                    segments=segments,
                    channel_length=(
                        len(segments)
                        + net_vias * (self.grid.via_length - 1)
                        if net.routed
                        else 0
                    ),
                    matched=matched,
                    mismatch=mismatch,
                    sink_lengths=sink_lengths,
                    failure_reason=(
                        None
                        if net.routed
                        else self._failure_reasons.get(
                            net.net_id,
                            "escape routing did not reach a control pin",
                        )
                    ),
                )
            )
        # Via usage counters, incremented only when a via was actually
        # drawn — single-layer runs keep their counter set byte-identical
        # to the planar flow.
        if via_segments:
            obs.counter("via.segments").inc(via_segments)
            obs.counter("via.nets").inc(via_nets)
        return result

    # -- misc ------------------------------------------------------------------

    def _log(self, message: str) -> None:
        self.events.append(message)

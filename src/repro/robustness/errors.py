"""Structured error taxonomy for the PACOR flow.

Every failure the flow can diagnose is expressed as a subclass of
:class:`PacorError` carrying machine-readable context (stage, net id,
budget kind, offending field ...) instead of a bare ``KeyError`` or a
silently exhausted guard counter.  The orchestrator's stage supervisor
keys its degradation decisions off this hierarchy:

* :class:`DesignFormatError` — the input document is malformed; fatal,
  but reported with the offending field and file so the CLI can print a
  one-line diagnosis instead of a traceback.
* :class:`StageFailure` — one flow stage failed for one net or cluster;
  the supervisor demotes the net and continues.
* :class:`BudgetExceeded` — a compute budget (wall clock, A* expansions,
  rip-up rounds) ran out; the flow stops spending and returns a partial,
  ``degraded`` result.
* :class:`RouterStuck` — a rip-up loop stopped making progress (the
  condition the seed code hid behind a silent ``guard`` counter).
* :class:`OccupancyCorruption` — the per-net occupancy bookkeeping
  disagrees with itself; detected between stages and repaired.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple


class PacorError(Exception):
    """Base class of every structured error raised by the reproduction."""


class DesignFormatError(PacorError, ValueError):
    """A design document is malformed.

    Also a :class:`ValueError` so callers that predate the taxonomy
    (``except ValueError``) keep working.

    Attributes:
        field: dotted path of the offending field (e.g. ``valves[3].x``),
            or None when the document as a whole is unusable.
        path: source file the document was read from, when known.
    """

    def __init__(
        self,
        message: str,
        *,
        field: Optional[str] = None,
        path: Optional[str] = None,
    ) -> None:
        self.field = field
        self.path = path
        parts = []
        if path is not None:
            parts.append(f"{path}: ")
        parts.append(message)
        if field is not None:
            parts.append(f" (field {field!r})")
        super().__init__("".join(parts))


class CheckpointFormatError(PacorError, ValueError):
    """A checkpoint document is malformed or does not fit the input.

    Raised when loading a snapshot whose version is unknown, whose
    required fields are missing, or whose recorded design does not match
    the design a resume was asked to continue.  Also a
    :class:`ValueError` for symmetry with :class:`DesignFormatError`.

    Attributes:
        field: the offending field, when one can be named.
        path: source file the checkpoint was read from, when known.
    """

    def __init__(
        self,
        message: str,
        *,
        field: Optional[str] = None,
        path: Optional[str] = None,
    ) -> None:
        self.field = field
        self.path = path
        parts = []
        if path is not None:
            parts.append(f"{path}: ")
        parts.append(message)
        if field is not None:
            parts.append(f" (field {field!r})")
        super().__init__("".join(parts))


class FaultFormatError(PacorError, ValueError):
    """A fault-map document is malformed or does not fit the design.

    Raised when loading a :class:`~repro.robustness.faultmap.FaultMap`
    whose version is unknown, whose fields are malformed, or whose
    cells/valves do not exist on the design a repair was asked to run
    against.  Also a :class:`ValueError` for symmetry with
    :class:`CheckpointFormatError`.

    Attributes:
        field: the offending field, when one can be named.
        path: source file the fault map was read from, when known.
    """

    def __init__(
        self,
        message: str,
        *,
        field: Optional[str] = None,
        path: Optional[str] = None,
    ) -> None:
        self.field = field
        self.path = path
        parts = []
        if path is not None:
            parts.append(f"{path}: ")
        parts.append(message)
        if field is not None:
            parts.append(f" (field {field!r})")
        super().__init__("".join(parts))


class ConfigError(PacorError, ValueError):
    """A run tunable (config field, budget limit, fault spec) is invalid.

    Also a :class:`ValueError` so callers that predate the taxonomy
    (``except ValueError``) keep working.

    Attributes:
        field: the offending tunable, when one can be named.
    """

    def __init__(self, message: str, *, field: Optional[str] = None) -> None:
        self.field = field
        suffix = f" (field {field!r})" if field is not None else ""
        super().__init__(f"{message}{suffix}")


class KernelPreconditionError(PacorError, ValueError):
    """A routing/DME/detour/escape kernel was called with invalid arguments.

    Raised by kernel entry-point validation (guard clauses), as opposed
    to :class:`StageFailure` which reports a stage failing on legal
    input.  Also a :class:`ValueError` for backward compatibility.

    Attributes:
        kernel: dotted name of the kernel that rejected its arguments,
            when known.
    """

    def __init__(self, message: str, *, kernel: Optional[str] = None) -> None:
        self.kernel = kernel
        prefix = f"[{kernel}] " if kernel is not None else ""
        super().__init__(f"{prefix}{message}")


class FlowDecompositionError(PacorError, RuntimeError):
    """Min-cost-flow decomposition violated an internal invariant.

    The escape stage decomposes an integral flow into vertex-disjoint
    paths; by Theorem 1 this always terminates on a feasible flow, so
    this error marks solver-state corruption, not bad input.  Also a
    :class:`RuntimeError` for backward compatibility.
    """


class GenerationError(PacorError, RuntimeError):
    """Synthetic design generation could not satisfy its constraints.

    Raised by :mod:`repro.designs.generator` when obstacle/cluster/pin
    placement is infeasible for the requested parameters.  Also a
    :class:`RuntimeError` for backward compatibility.
    """


class TraceFormatError(PacorError, ValueError):
    """A trace/metrics document is not in the expected format.

    Raised when reading back JSONL span files, metrics snapshots or the
    Table-2 summary rows ``pacor table2 --json`` saves.
    Also a :class:`ValueError` for backward compatibility.

    Attributes:
        path: source file the document was read from, when known.
    """

    def __init__(self, message: str, *, path: Optional[str] = None) -> None:
        self.path = path
        prefix = f"{path}: " if path is not None else ""
        super().__init__(f"{prefix}{message}")


class StageFailure(PacorError):
    """One flow stage failed — for the whole stage or a single net.

    Attributes:
        stage: name of the failing stage (``"lm-routing"``, ``"escape"``,
            ...).
        net_id: the affected net, or None for a stage-wide failure.
    """

    def __init__(
        self, message: str, *, stage: str, net_id: Optional[int] = None
    ) -> None:
        self.stage = stage
        self.net_id = net_id
        where = stage if net_id is None else f"{stage}, net {net_id}"
        super().__init__(f"[{where}] {message}")


class BudgetExceeded(PacorError):
    """A compute budget ran out.

    Attributes:
        kind: which budget — ``"wall-clock"``, ``"astar-expansions"`` or
            ``"rip-rounds"``.
        limit: the configured limit.
        used: the amount consumed when the budget tripped.
        stage: the stage charging the budget when it tripped, when known.
    """

    def __init__(
        self,
        message: str,
        *,
        kind: str,
        limit: float,
        used: float,
        stage: Optional[str] = None,
    ) -> None:
        self.kind = kind
        self.limit = limit
        self.used = used
        self.stage = stage
        where = f" during {stage}" if stage else ""
        super().__init__(
            f"{message}{where}: {kind} budget exhausted ({used:g} > {limit:g})"
        )


class RouterStuck(PacorError):
    """A rip-up/reroute loop stopped making progress.

    Attributes:
        stage: the looping stage.
        pending: net ids still unrouted when the loop gave up.
    """

    def __init__(
        self, message: str, *, stage: str, pending: Sequence[int] = ()
    ) -> None:
        self.stage = stage
        self.pending = tuple(pending)
        suffix = f" (pending nets: {sorted(self.pending)})" if pending else ""
        super().__init__(f"[{stage}] {message}{suffix}")


class OccupancyCorruption(PacorError):
    """The occupancy owner array and per-net buckets disagree.

    Attributes:
        cells: the inconsistent cells (as ``(x, y)`` tuples).
    """

    def __init__(
        self, message: str, *, cells: Sequence[Tuple[int, int]] = ()
    ) -> None:
        self.cells = tuple(cells)
        suffix = f" at {sorted(self.cells)}" if cells else ""
        super().__init__(f"{message}{suffix}")


class ServiceError(PacorError, RuntimeError):
    """A ``pacor serve`` operation failed (queue, worker pool, API).

    Raised for illegal job-state transitions (resuming a running job,
    cancelling a finished one), daemon lifecycle misuse and worker-pool
    failures.  The HTTP layer maps it to a 4xx/5xx JSON error body; the
    CLI prints the one-line message and exits 2.
    """


class JobFormatError(PacorError, ValueError):
    """A persisted job record or submit request is malformed.

    Attributes:
        field: the offending field, when known.
        path: the originating file, when known.
    """

    def __init__(
        self,
        message: str,
        *,
        field: Optional[str] = None,
        path: Optional[str] = None,
    ) -> None:
        self.field = field
        self.path = path
        parts = []
        if path:
            parts.append(f"{path}: ")
        parts.append(message)
        if field:
            parts.append(f" (field: {field})")
        super().__init__("".join(parts))

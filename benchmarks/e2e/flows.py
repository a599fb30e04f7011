"""The flow workloads: ``chip1``, ``chip2`` and ``synth``.

Each is a closed loop with one client: a *pass* calls ``run_method`` (or
``repair_result``) once per item of the run list, in order, and the next
call starts when the previous one returns.  Passes repeat until the run
has measured for ``--seconds`` and at least :data:`MIN_PASSES` passes, so
determinism is checked on every run.  Only the calls are timed;
verification, the golden check and fingerprinting run between them.
"""

from __future__ import annotations

import gc
import random
import statistics
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Set, Tuple

import repro.robustness.repair as repair_mod
from repro.analysis.verify import VerificationError, verify_result
from repro.core.pipeline import METHODS, run_method
from repro.core.result import PacorResult
from repro.designs import design_by_name
from repro.designs.design import Design
from repro.designs.generator import (
    ClusterPlan,
    generate_design,
    generate_fault_scenario,
    generate_fpva,
)
from repro.geometry.point import manhattan
from repro.observability import context as obs
from repro.observability.metrics import Metrics
from repro.observability.tracing import Tracer
from repro.robustness.faultmap import FaultMap

from common import (
    Report,
    golden_diff,
    load_golden,
    percentile,
    result_fingerprint,
)
from layers import LayerTimer

MIN_PASSES = 2

KNOWN_FALSE_POSITIVE = (
    "known verifier false positive: step 5a of analysis/verify.py measures "
    "segments with Point.manhattan, which ignores z, so a via segment "
    "leaving a layer-0 cell reads as non-adjacent (fix: the module-level "
    "geometry.point.manhattan)"
)


@dataclass
class Item:
    """One call of a pass.

    ``fixed`` items have seed-independent inputs; the bound-0 quality and
    verification columns sum over them only, so those columns stay
    identical across seeds.  ``repair_of`` names the earlier item whose
    result a repair item heals, ``fault_seed`` draws its faults.
    """

    label: str
    design: Design
    method: Optional[str]
    fixed: bool
    golden: Optional[Dict[str, object]] = None
    repair_of: Optional[str] = None
    fault_seed: int = 0


@dataclass
class Call:
    item: Item
    seconds: float
    result: Optional[PacorResult]
    faults: Optional[FaultMap] = None
    error: Optional[str] = None


def _chip_items(name: str, golden: Dict) -> List[Item]:
    return [
        Item(
            f"{name}|PACOR",
            design_by_name(name),
            "PACOR",
            fixed=True,
            golden=golden[(name, "PACOR")],
        )
    ]


def seeded_design(seed: int, layers: int) -> Design:
    """A seed-drawn ~40x40 layout (cluster mix, obstacles) on ``layers``."""
    rng = random.Random(seed * 2 + layers)
    clusters = [ClusterPlan(rng.choice((2, 3, 3, 4))) for _ in range(rng.randint(3, 5))]
    return generate_design(
        f"gen-{seed}" + (f"x{layers}" if layers > 1 else ""),
        40,
        40,
        clusters=clusters,
        n_singletons=rng.randint(6, 10),
        n_pins=36,
        n_obstacles=rng.randint(60, 120),
        seed=seed,
        core_fraction=0.6,
        layers=layers,
        via_cost=3,
    )


def _synth_items(seed: int, golden: Dict) -> List[Item]:
    items: List[Item] = []
    for k, name in enumerate(("S1", "S2", "S3", "S4", "S5")):
        design = design_by_name(name)
        for method in METHODS:
            items.append(
                Item(
                    f"{name}|{method}",
                    design,
                    method,
                    fixed=True,
                    golden=golden[(name, method)],
                )
            )
        items.append(
            Item(
                f"{name}|repair",
                design,
                None,
                fixed=False,
                repair_of=f"{name}|PACOR",
                fault_seed=seed * 10 + k,
            )
        )
    for name in ("S2", "S3", "S4", "S5"):
        lifted = design_by_name(name).with_layers(2)
        items.append(Item(f"{name}x2|PACOR", lifted, "PACOR", fixed=True))
    for rows, cols in ((10, 10), (12, 12)):
        fpva = generate_fpva(rows, cols, layers=2, via_cost=3)
        items.append(Item(f"{fpva.name}x2|PACOR", fpva, "PACOR", fixed=True))
    for layers in (1, 2):
        design = seeded_design(seed, layers)
        items.append(Item(f"{design.name}|PACOR", design, "PACOR", fixed=False))
    return items


def build_items(workload: str, seed: int, smoke: bool) -> List[Item]:
    """Return the run list; ``smoke`` keeps the first item, chips shrunk to S3."""
    golden = load_golden()
    if workload == "synth":
        items = _synth_items(seed, golden)
    else:
        name = "S3" if smoke else {"chip1": "Chip1", "chip2": "Chip2"}[workload]
        items = _chip_items(name, golden)
    return items[:1] if smoke else items


@contextmanager
def _traced(tracer: Tracer, metrics: Metrics, label: str) -> Iterator[None]:
    # repair_result takes no instruments; installing them reaches its kernels.
    with obs.use(tracer, metrics), tracer.span(label, category="item"):
        yield


def _run_pass(
    items: List[Item],
    faults: Dict[str, FaultMap],
    tracer: Optional[Tracer] = None,
    metrics: Optional[Metrics] = None,
) -> List[Call]:
    """Call every item once; ``faults`` caches each repair item's scenario."""
    calls: List[Call] = []
    done: Dict[str, PacorResult] = {}
    for item in items:
        fm: Optional[FaultMap] = None
        try:
            if item.method is None:
                base = done[item.repair_of]  # type: ignore[index]
                if item.label not in faults:
                    faults[item.label] = generate_fault_scenario(
                        item.design,
                        n_cell_faults=6,
                        seed=item.fault_seed,
                        target_cells=sorted(_routed_cells(base)),
                    )
                fm = faults[item.label]
                work = partial(repair_mod.repair_result, item.design, base.to_json(), fm)
            else:
                work = partial(
                    run_method, item.design, item.method, tracer=tracer, metrics=metrics
                )
            scope = nullcontext() if tracer is None else _traced(tracer, metrics, item.label)
            started = time.perf_counter()
            with scope:
                out = work()
            seconds = time.perf_counter() - started
        except Exception as exc:  # noqa: BLE001 - a crash is a failed run
            calls.append(Call(item, 0.0, None, fm, f"{type(exc).__name__}: {exc}"))
            continue
        result = out if item.method is not None else out.result
        done[item.label] = result
        calls.append(Call(item, seconds, result, fm))
    return calls


class Checker:
    """Checks every call's output and tallies the verified fixed items."""

    def __init__(self, report: Report) -> None:
        self.report = report
        self.fingerprints: Dict[str, str] = {}
        self.fixed_attempted = 0
        self.fixed_verified = 0
        self.false_positives = 0

    def check(self, calls: List[Call]) -> None:
        for call in calls:
            self.report.attempted += 1
            self.fixed_attempted += call.item.fixed
            if self._ok(call):
                self.fixed_verified += call.item.fixed

    def _ok(self, call: Call) -> bool:
        item, result, report = call.item, call.result, self.report
        if result is None:
            report.fail(item.label, call.error or "no result")
            return False
        ok = True
        try:
            verify_result(item.design, result)
        except VerificationError as exc:
            if _is_known_false_positive(result, str(exc)):
                self.false_positives += 1
                report.note(item.label, f"{exc} -- {KNOWN_FALSE_POSITIVE}")
                ok = False
            else:
                report.fail(item.label, f"VerificationError: {exc}")
                return False
        if item.golden is not None:
            diff = golden_diff(result.summary_row(), item.golden)
            if diff:
                report.fail(item.label, f"golden mismatch {{col: (got, want)}} {diff}")
                return False
        if call.faults is not None:
            hit = _routed_cells(result) & set(call.faults.faulty_cells)
            if hit:
                report.fail(item.label, f"repaired routing uses faulty cells {sorted(hit)}")
                return False
        fingerprint = result_fingerprint(result.to_json())
        first = self.fingerprints.setdefault(item.label, fingerprint)
        if fingerprint != first:
            report.fail(
                item.label,
                f"determinism mismatch: result {fingerprint[:12]} differs from "
                f"the first pass's {first[:12]} (summary {result.summary_row()})",
            )
            return False
        return ok


def _routed_cells(result: PacorResult) -> Set:
    return {c for n in result.nets if n.routed for c in n.cells}


def _is_known_false_positive(result: PacorResult, message: str) -> bool:
    """True when the verifier flagged a unit via step as non-adjacent.

    Such a segment joins one planar column on adjacent layers: the
    z-aware distance is 1 while ``Point.manhattan`` reads 0.
    """
    if "non-adjacent segment" not in message:
        return False
    for net in result.nets:
        if not message.startswith(f"net {net.net_id} "):
            continue
        return any(
            f"{a}-{b}" in message and manhattan(a, b) == 1 and a.manhattan(b) != 1
            for a, b in net.segments
        )
    return False


def _quality(calls: List[Call]) -> Tuple[float, float, float]:
    """Sum matched clusters and channel length; average the completion."""
    results = [c.result for c in calls if c.item.fixed and c.result is not None]
    return (
        float(sum(r.matched_clusters for r in results)),
        float(sum(r.total_length for r in results)),
        statistics.fmean(r.completion_rate for r in results) if results else 0.0,
    )


def run(
    workload: str,
    seed: int,
    seconds: float,
    trace: bool,
    started: float,
    trace_dir: Path,
    smoke: bool,
    setup_only: bool,
) -> Report:
    items = build_items(workload, seed, smoke)
    # Warm-up: one untimed small route loads every lazily imported path.
    run_method(design_by_name("S1"), "PACOR")
    report = Report(setup_s=time.monotonic() - started)
    if setup_only:
        return report

    checker = Checker(report)
    faults: Dict[str, FaultMap] = {}
    timings: List[List[float]] = []
    quality: Optional[Tuple[float, float, float]] = None
    began = time.perf_counter()
    while len(timings) < MIN_PASSES or time.perf_counter() - began < seconds:
        gc.collect()
        calls = _run_pass(items, faults)
        checker.check(calls)
        if quality is None:
            quality = _quality(calls)
        timings.append([c.seconds for c in calls])
        # Results die here, so peak RSS is one pass's, whatever the count.
        del calls

    # A job's latency is its fastest call over the passes: host contention
    # only ever slows a call down, so the percentiles describe the request
    # mix rather than the noise.  Like the quality columns they cover the
    # seed-independent items only.
    latencies = [
        min(seconds[i] for seconds in timings)
        for i, item in enumerate(items)
        if item.fixed
    ]
    matched, length, completion = quality
    report.e2e.update(
        pass_s=statistics.median(sum(seconds) for seconds in timings),
        job_p50_s=percentile(latencies, 50),
        job_p90_s=percentile(latencies, 90),
        matched_clusters=matched,
        channel_length=length,
        completion=completion,
        verified_share=checker.fixed_verified / checker.fixed_attempted,
    )
    report.layers["verify.false_positives"] = checker.false_positives / len(timings)

    if trace:
        gc.collect()
        tracer, metrics = Tracer(), Metrics()
        with LayerTimer(tracer) as timer:
            calls = _run_pass(items, faults, tracer, metrics)
        checker.check(calls)
        traced_s = sum(c.seconds for c in calls)
        report.layers.update(timer.metrics(tracer.spans, metrics, traced_s))
        report.layers["obs.trace_overhead"] = traced_s / report.e2e["pass_s"] - 1
        trace_dir.mkdir(parents=True, exist_ok=True)
        tracer.export_jsonl(trace_dir / f"{workload}-seed{seed}.jsonl")
    return report

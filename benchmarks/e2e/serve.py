"""The ``serve`` workload: the routing service behind its HTTP API.

One :class:`~repro.service.ServiceClient` thread drives a
``PacorService(workers=2)`` through ``ServiceAPIServer``:

* **open loop** — :data:`RATE` submissions per second for
  :data:`OPEN_SHARE` of ``--seconds``, whatever the service does.  Slot
  ``i`` is due at a seed-drawn instant within ``[i, i + 1) / RATE``; the
  jitter keeps the schedule from phase-locking with the dispatcher's
  50 ms poll.  Each ten slots follow a fixed mix: three exact
  resubmissions of an earlier job (cache reads), four renamed S1-S4
  copies and three seed-drawn small designs (cache writes).  A job's
  latency runs from its *scheduled* send time to its ``finished_at``, so
  a stalled generator charges the wait to the jobs behind it.
* **bursts** — :data:`BURSTS` batches of :data:`BURST_JOBS` novel jobs
  submitted back to back, each drained before the next; ``pass_s`` is a
  batch's median submit-to-drained time.

Routing takes at most ~50 ms per job here, so the HTTP, queue,
dispatcher, worker start, result write and cache layers dominate.
"""

from __future__ import annotations

import itertools
import json
import random
import shutil
import statistics
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from repro.core.pipeline import run_method
from repro.designs import design_by_name, design_to_json
from repro.designs.generator import ClusterPlan, generate_design
from repro.service import PacorService, ServiceAPIServer, ServiceClient

from common import OUT_DIR, Report, comparable_row, percentile

RATE = 9.0
"""Open-loop submissions per second: ~30% load on two workers, and over
100 samples at 20 s, so p90 has at least ten beyond it."""

OPEN_SHARE = 0.6
"""Share of ``--seconds`` the open-loop schedule spans."""

BURSTS = 4
BURST_JOBS = 40
WORKERS = 2

RESUBMIT_LAG = 18
"""A resubmission repeats a job sent at least this many slots (2 s) earlier,
which has finished by then unless the service is stalling."""

_MIX = ("S", "hit", "gen", "S", "hit", "gen", "S", "hit", "gen", "S")
_S_NAMES = ("S1", "S2", "S3", "S4")


def _renamed(doc: Dict[str, Any], name: str) -> Dict[str, Any]:
    clone = json.loads(json.dumps(doc))
    clone["name"] = name
    return clone


def _small_design(seed: int, tag: str) -> Dict[str, Any]:
    rng = random.Random(seed)
    design = generate_design(
        f"gen-{tag}",
        24,
        24,
        clusters=[ClusterPlan(rng.choice((2, 3))) for _ in range(rng.randint(2, 3))],
        n_singletons=rng.randint(3, 5),
        n_pins=24,
        n_obstacles=rng.randint(10, 30),
        seed=seed,
    )
    return design_to_json(design)


class Plan:
    """The seed-drawn submission plan: open-loop slots plus bursts.

    Each entry is ``(kind, doc, base)``: ``kind`` is ``S`` (renamed suite
    copy of ``base``), ``gen`` or ``hit`` (``base`` is then the index of
    the open-loop slot resubmitted).  ``due`` holds each open-loop slot's
    send offset in seconds.
    """

    def __init__(self, seed: int, n_open: int, bursts: int, burst_jobs: int):
        rng = random.Random(seed)
        suite = {n: design_to_json(design_by_name(n)) for n in _S_NAMES}
        serial = itertools.count(1)

        def novel(kind: str) -> Tuple[str, Dict[str, Any], Any]:
            n = next(serial)
            if kind == "S":
                base = _S_NAMES[n % len(_S_NAMES)]
                return ("S", _renamed(suite[base], f"{base}-{seed}-{n}"), base)
            return ("gen", _small_design(seed * 100_000 + n, f"{seed}-{n}"), None)

        self.open: List[Tuple[str, Dict[str, Any], Any]] = []
        for i in range(n_open):
            kind = _MIX[i % len(_MIX)]
            if kind == "hit":
                earlier = [
                    j for j in range(i - RESUBMIT_LAG + 1) if self.open[j][0] != "hit"
                ]
                if earlier:
                    j = rng.choice(earlier)
                    self.open.append(("hit", self.open[j][1], j))
                    continue
                kind = "gen"
            self.open.append(novel(kind))
        self.due = [(i + rng.random()) / RATE for i in range(n_open)]
        self.bursts = [
            [novel(("S", "gen")[k % 2]) for k in range(burst_jobs)]
            for _ in range(bursts)
        ]


def _flow_seconds(lines: List[str]) -> Optional[float]:
    for line in lines:
        span = json.loads(line)
        if span.get("category") == "flow":
            return float(span["dur_s"])
    return None


def run(
    seed: int,
    seconds: float,
    trace: bool,
    started: float,
    trace_dir: Path,
    smoke: bool,
    setup_only: bool,
) -> Report:
    n_open = 24 if smoke else max(len(_MIX), round(RATE * OPEN_SHARE * seconds))
    bursts, burst_jobs = (1, 4) if smoke else (BURSTS, BURST_JOBS)
    root = OUT_DIR / f"serve-{seed}-{time.time_ns()}"
    service = PacorService(root, workers=WORKERS)
    server = ServiceAPIServer(service)
    service.start()
    server.start()
    try:
        client = ServiceClient(server.url, timeout=60.0)
        # Direct routes of the suite designs are both the warm-up and the
        # reference every served copy must reproduce.
        reference = {
            n: comparable_row(run_method(design_by_name(n), "PACOR").summary_row())
            for n in _S_NAMES
        }
        plan = Plan(seed, n_open, bursts, burst_jobs)
        report = Report(setup_s=time.monotonic() - started)
        if setup_only:
            return report
        return _measure(service, client, plan, reference, report, trace, trace_dir, seed)
    finally:
        server.stop()
        service.stop(graceful=False, timeout=10.0)
        shutil.rmtree(root, ignore_errors=True)


def _measure(
    service: PacorService,
    client: ServiceClient,
    plan: Plan,
    reference: Dict[str, Dict[str, object]],
    report: Report,
    trace: bool,
    trace_dir: Path,
    seed: int,
) -> Report:
    # Open loop.  Times are epoch seconds: JobRecord timestamps are.
    slots: List[Dict[str, Any]] = []
    t0 = time.time() + 0.05
    for offset, (kind, doc, base) in zip(plan.due, plan.open):
        due = t0 + offset
        delay = due - time.time()
        if delay > 0:
            time.sleep(delay)
        sent = time.time()
        tic = time.perf_counter()
        record = client.submit(doc)
        slots.append(
            {
                "kind": kind,
                "base": base,
                "due": due,
                "late": sent - due,
                "rtt": time.perf_counter() - tic,
                "job_id": record["job_id"],
            }
        )
    service.drain(timeout=120.0)

    burst_s: List[float] = []
    burst_ids: List[Tuple[str, Any, str]] = []
    for batch in plan.bursts:
        tic = time.perf_counter()
        for kind, doc, base in batch:
            burst_ids.append((kind, base, client.submit(doc)["job_id"]))
        service.drain(timeout=120.0)
        burst_s.append(time.perf_counter() - tic)

    # Checks and tallies, outside every timed region.
    records = {r.job_id: r for r in service.jobs()}
    jobs = [(s["kind"], s["base"], s["job_id"]) for s in slots] + burst_ids
    report.attempted = len(jobs)
    fixed = verified = matched = length = 0
    completion = 0.0
    for kind, base, job_id in jobs:
        record = records[job_id]
        label = f"{job_id} ({record.design_name})"
        if record.state != "succeeded":
            report.fail(label, f"ended {record.state}: {record.error}")
            continue
        if kind == "hit":
            original = slots[base]["job_id"]
            if record.cached:
                if service.result_doc(job_id) != service.result_doc(original):
                    report.fail(label, f"cache hit differs from {original}'s result")
            elif comparable_row(record.summary) != comparable_row(
                records[original].summary
            ):
                report.fail(label, f"resubmission differs from {original}'s summary")
        elif kind == "S":
            fixed += 1
            row = comparable_row(record.summary)
            if row != reference[base]:
                report.fail(label, f"summary {row} != direct run {reference[base]}")
                continue
            verified += 1
            matched += record.summary["matched_clusters"]
            length += record.summary["total_length"]
            completion += record.summary["completion"]

    open_slots = [(s, records[s["job_id"]]) for s in slots]
    latencies = [r.finished_at - s["due"] for s, r in open_slots if r.finished_at]
    report.e2e.update(
        pass_s=statistics.median(burst_s),
        job_p50_s=percentile(latencies, 50),
        job_p90_s=percentile(latencies, 90),
        matched_clusters=float(matched),
        channel_length=float(length),
        completion=completion / verified if verified else 0.0,
        verified_share=verified / fixed if fixed else 0.0,
    )
    if trace:
        report.layers.update(_service_layers(service, open_slots, trace_dir, seed))
    return report


def _service_layers(
    service: PacorService,
    open_slots: List[Tuple[Dict[str, Any], Any]],
    trace_dir: Path,
    seed: int,
) -> Dict[str, float]:
    """Service-layer numbers of the open loop, from job timestamps, job
    traces and the service counters."""
    ran = [(s, r) for s, r in open_slots if not r.cached and r.started_at]
    hits = [s for s, r in open_slots if r.cached]
    resubmits = [s for s, _ in open_slots if s["kind"] == "hit"]
    route: List[float] = []
    overhead: List[float] = []
    trace_dir.mkdir(parents=True, exist_ok=True)
    with open(trace_dir / f"serve-seed{seed}.jsonl", "w", encoding="utf-8") as out:
        for _, record in ran:
            lines = service.trace_lines(record.job_id)
            out.writelines(line + "\n" for line in lines)
            flow = _flow_seconds(lines)
            if flow is not None:
                route.append(flow)
                overhead.append(record.finished_at - record.started_at - flow)
    queue_wait = [r.started_at - r.submitted_at for _, r in ran]
    run_s = [r.finished_at - r.started_at for _, r in ran]
    counters = service.metrics.counter_values()
    return {
        "service.submit_miss_p50_s": percentile([s["rtt"] for s, _ in ran], 50),
        "service.hit_p50_s": percentile([s["rtt"] for s in hits], 50),
        "service.queue_wait_p50_s": percentile(queue_wait, 50),
        "service.queue_wait_p95_s": percentile(queue_wait, 95),
        "service.run_p50_s": percentile(run_s, 50),
        "service.run_p95_s": percentile(run_s, 95),
        "service.route_p50_s": percentile(route, 50),
        "service.worker_overhead_p50_s": percentile(overhead, 50),
        "service.hit_ratio": len(hits) / len(resubmits) if resubmits else 0.0,
        "service.cache_stores": float(counters.get("service.cache_stores", 0)),
        "bench.late_max_s": max(s["late"] for s, _ in open_slots),
    }

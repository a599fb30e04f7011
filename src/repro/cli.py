"""Command-line front-end: ``pacor <command> ...`` or ``python -m repro``.

Commands:

* ``pacor route S3`` — run a method on a suite design (or a JSON design
  file), print the Table-2 row and optionally export SVG/ASCII art.
  With ``--checkpoint ckpt.json``, a budget-interrupted run writes its
  resumable snapshot there instead of throwing the work away.
* ``pacor resume ckpt.json`` — continue an interrupted run from its
  checkpoint with a fresh budget.
* ``pacor route S3 --faults faults.json`` — route under a physical
  fault map (blocked cells, stuck valves, timed mid-flow events); the
  flow rips and repairs the damaged nets.
* ``pacor repair result.json --faults faults.json`` — heal a finished
  routing against a fault map, re-routing only the affected nets
  through the escalation ladder.  Also accepts a mid-repair checkpoint
  (written on budget exhaustion) to resume the remaining nets.
* ``pacor route S3 --trace t.jsonl --metrics m.json`` — additionally
  record a nested span trace and the kernel effort counters; ``pacor
  profile t.jsonl`` then prints the per-stage time table and the top
  nets by A* expansions.
* ``pacor serve --root DIR`` — run the routing service daemon: a
  persistent job queue + worker pool + HTTP/JSON API (see
  ``docs/service.md``).  ``pacor submit S3 --url URL --wait`` submits a
  design and polls it to completion; ``pacor jobs --url URL`` lists the
  queue; ``pacor hash S3`` prints the canonical design hash the service
  result cache is keyed on.
* ``pacor table1`` — print the benchmark-parameter table.
* ``pacor table2 --designs S1 S2 --json rows.json`` — run and verify
  the three methods on each design, print Table 2 with its normalised
  "Avg." block and optionally save the summary rows (the format of
  ``results_table2.json``).  ``pacor show rows.json`` prints the same
  table again from the saved rows.
* ``pacor generate out.json --width 40 ...`` — synthesize a new design.
* ``pacor lint [paths...]`` — run pacorlint, the AST-based invariant
  checker (exit 1 on violations, 2 on internal error; see
  ``docs/static_analysis.md``).
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.analysis import (
    DelayModel,
    cluster_skews,
    compare_methods,
    format_table,
    quality_ratio,
    table1_rows,
    verify_result,
)
from repro.analysis.report import table2_headers, table2_rows
from repro.core import METHODS, PacorConfig, run_method
from repro.designs import (
    ClusterPlan,
    design_by_name,
    generate_design,
    generate_fpva,
    load_design,
    save_design,
    table1_suite,
)
from repro.observability import Metrics, Tracer
from repro.robustness.checkpoint import Checkpoint
from repro.robustness.errors import (
    CheckpointFormatError,
    DesignFormatError,
    FaultFormatError,
    JobFormatError,
    ServiceError,
    TraceFormatError,
)
from repro.viz import render_ascii, render_svg


def _resolve_design(token: str):
    """Resolve a design token (suite name or .json path), diagnosably.

    Every subcommand resolves its design through here; any malformed or
    unknown input surfaces as :class:`DesignFormatError`, which
    :func:`main` turns into a one-line exit-2 diagnosis instead of a
    traceback.
    """
    try:
        if token.endswith(".json"):
            return load_design(token)
        return design_by_name(token)
    except DesignFormatError:
        raise
    except ValueError as exc:
        raise DesignFormatError(str(exc)) from None


def _report_result(
    design,
    result,
    args: argparse.Namespace,
    *,
    tracer: Optional[Tracer] = None,
    metrics: Optional[Metrics] = None,
) -> int:
    """Print a run's summary/diagnostics and honour the export flags."""
    row = result.summary_row()
    print(
        f"{row['design']}: method={row['method']} "
        f"matched={row['matched_clusters']}/{row['n_clusters']} "
        f"matched_len={row['total_matched_length']} "
        f"total_len={row['total_length']} "
        f"completion={row['completion']:.1%} "
        f"runtime={row['runtime_s']:.2f}s"
    )
    if result.incidents:
        counts = [
            (severity, sum(1 for i in result.incidents if i.severity.value == severity))
            for severity in ("info", "degraded", "fatal")
        ]
        summary = ", ".join(f"{n} {sev}" for sev, n in counts if n)
        print(f"incidents: {summary}")
    if result.degraded:
        print("warning: degraded result", file=sys.stderr)
        for incident in result.incidents:
            print(
                f"  [{incident.stage}] {incident.kind}: {incident.message}",
                file=sys.stderr,
            )
        for net in result.nets:
            if not net.routed and net.failure_reason:
                print(
                    f"  net {net.net_id} unrouted: {net.failure_reason}",
                    file=sys.stderr,
                )
    if args.checkpoint:
        if result.checkpoint is not None:
            Checkpoint.from_json(result.checkpoint).save(args.checkpoint)
            print(
                f"wrote {args.checkpoint} (resume with: "
                f"pacor resume {args.checkpoint})"
            )
        else:
            print(
                "note: no budget interruption, no checkpoint written",
                file=sys.stderr,
            )
    if args.verify:
        notes = verify_result(design, result)
        print(f"verification OK ({len(notes)} notes)")
        for note in notes:
            print(f"  note: {note}")
    if args.svg:
        with open(args.svg, "w", encoding="utf-8") as handle:
            handle.write(render_svg(design, result))
        print(f"wrote {args.svg}")
    if args.json:
        import json

        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(result.to_json(), handle, indent=1)
        print(f"wrote {args.json}")
    # Observability exports exist only on route/resume; getattr keeps
    # this helper reusable by subcommands without the flags.
    if getattr(args, "trace", None) and tracer is not None:
        n_spans = tracer.export_jsonl(args.trace)
        print(f"wrote {args.trace} ({n_spans} spans)")
    if getattr(args, "chrome_trace", None) and tracer is not None:
        n_events = tracer.export_chrome(args.chrome_trace)
        print(f"wrote {args.chrome_trace} ({n_events} trace events)")
    if getattr(args, "metrics", None) and metrics is not None:
        metrics.export_json(args.metrics)
        doc = metrics.to_json()
        print(
            f"wrote {args.metrics} ({len(doc['counters'])} counters, "
            f"{len(doc['gauges'])} gauges)"
        )
    if args.ascii:
        print(render_ascii(design, result))
    if args.events:
        for event in result.events:
            print(f"  {event}")
    return 0


def _cmd_route(args: argparse.Namespace) -> int:
    design = _resolve_design(args.design)
    if args.layers is not None or args.via_cost is not None:
        try:
            design = design.with_layers(
                args.layers
                if args.layers is not None
                else design.grid.layers,
                via_cost=(
                    args.via_cost
                    if args.via_cost is not None
                    else design.grid.via_cost
                ),
                via_length=design.grid.via_length,
            )
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    try:
        config = PacorConfig(
            k_candidates=args.candidates,
            wall_clock_budget_s=args.budget_s,
            astar_expansion_budget=args.expansion_budget,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    fault_map = None
    if args.faults:
        from repro.robustness.faultmap import FaultMap

        fault_map = FaultMap.load(args.faults)
    tracer = Tracer() if (args.trace or args.chrome_trace) else None
    metrics = Metrics() if args.metrics else None
    result = run_method(
        design,
        args.method,
        config,
        tracer=tracer,
        metrics=metrics,
        fault_map=fault_map,
    )
    return _report_result(design, result, args, tracer=tracer, metrics=metrics)


def _cmd_resume(args: argparse.Namespace) -> int:
    from repro.core.pacor import PacorRouter
    from repro.designs import design_from_json
    from repro.robustness.budget import Budget

    checkpoint = Checkpoint.load(args.checkpoint_file)
    design = design_from_json(checkpoint.design)
    # No budget flags means "finish the run": an unlimited fresh budget,
    # not the small one that interrupted the original run (which the
    # checkpointed config would otherwise recreate).
    try:
        budget = Budget(
            wall_clock_s=args.budget_s,
            astar_expansions=args.expansion_budget,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(
        f"resuming {checkpoint.design_name} at stage "
        f"{checkpoint.stage!r} (completed: "
        f"{', '.join(checkpoint.completed_stages) or 'none'})"
    )
    tracer = Tracer() if (args.trace or args.chrome_trace) else None
    metrics = Metrics() if args.metrics else None
    router = PacorRouter.from_checkpoint(
        design,
        checkpoint,
        budget=budget,
        carry_counters=args.carry_counters,
        tracer=tracer,
        metrics=metrics,
    )
    if router.carried_spans or router.carried_counters:
        print(
            f"carried over from the interrupted run: "
            f"{router.carried_spans} trace spans stitched, "
            f"{router.carried_counters} counters restored"
        )
    result = router.run()
    return _report_result(design, result, args, tracer=tracer, metrics=metrics)


def _cmd_repair(args: argparse.Namespace) -> int:
    """Heal a finished routing (or resume a mid-repair checkpoint)."""
    import json

    from repro.designs import design_from_json
    from repro.robustness.budget import Budget
    from repro.robustness.faultmap import FaultMap
    from repro.robustness.repair import (
        REPAIR_CHECKPOINT_KIND,
        RepairCheckpoint,
        repair_result,
        repair_resume,
    )

    with open(args.result, "r", encoding="utf-8") as handle:
        try:
            doc = json.load(handle)
        except json.JSONDecodeError as exc:
            print(
                f"error: {args.result}: not valid JSON ({exc})",
                file=sys.stderr,
            )
            return 2
    try:
        budget = Budget(
            wall_clock_s=args.budget_s,
            astar_expansions=args.expansion_budget,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if isinstance(doc, dict) and doc.get("kind") == REPAIR_CHECKPOINT_KIND:
        snapshot = RepairCheckpoint.from_json(doc, source=args.result)
        design = design_from_json(snapshot.design)
        print(
            f"resuming repair of {design.name}: "
            f"{len(snapshot.pending)} nets pending"
        )
        outcome = repair_resume(snapshot, budget=budget)
    else:
        if not args.faults:
            print(
                "error: --faults FILE is required when repairing a result "
                "document (only repair checkpoints embed their fault map)",
                file=sys.stderr,
            )
            return 2
        if args.design:
            design = _resolve_design(args.design)
        else:
            name = ""
            if isinstance(doc, dict):
                name = str((doc.get("summary") or {}).get("design", ""))
            if not name:
                print(
                    "error: the result document names no design; "
                    "pass --design NAME_OR_FILE",
                    file=sys.stderr,
                )
                return 2
            design = _resolve_design(name)
        fault_map = FaultMap.load(args.faults)
        outcome = repair_result(design, doc, fault_map, budget=budget)
    result = outcome.result
    print(
        f"{design.name}: {len(outcome.affected)} nets affected, "
        f"{len(outcome.repaired)} repaired, "
        f"{len(outcome.degraded_nets)} degraded, "
        f"{len(outcome.dropped_valves)} valves lost"
    )
    for net_id in sorted(outcome.repaired):
        print(f"  net {net_id}: repaired via {outcome.repaired[net_id]} rung")
    for net_id in outcome.degraded_nets:
        print(f"  net {net_id}: degraded", file=sys.stderr)
    if outcome.checkpoint is not None:
        if args.checkpoint:
            with open(args.checkpoint, "w", encoding="utf-8") as handle:
                json.dump(outcome.checkpoint.to_json(), handle, indent=1)
            print(
                f"wrote {args.checkpoint} (resume with: "
                f"pacor repair {args.checkpoint})"
            )
        else:
            print(
                "note: budget exhausted mid-repair; rerun with "
                "--checkpoint FILE to save the remaining work",
                file=sys.stderr,
            )
    # The route/resume checkpoint branch of _report_result expects a
    # *flow* checkpoint document; the repair snapshot was handled above.
    args.checkpoint = None
    return _report_result(design, result, args)


def _cmd_profile(args: argparse.Namespace) -> int:
    """Analyse a JSONL trace written by ``route --trace``."""
    from repro.observability import format_profile, profile_trace_file

    try:
        profile = profile_trace_file(args.trace_file, top_k=args.top)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(format_profile(profile))
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    """Run pacorlint (see docs/static_analysis.md)."""
    from repro.analysis.lint.runner import main as lint_main

    argv: List[str] = list(args.paths)
    if args.json:
        argv.append("--json")
    if args.rules:
        argv.extend(["--rules", args.rules])
    if args.list_rules:
        argv.append("--list-rules")
    if args.baseline:
        argv.extend(["--baseline", args.baseline])
    if args.no_baseline:
        argv.append("--no-baseline")
    if args.update_baseline:
        argv.append("--update-baseline")
    return lint_main(argv)


def _cmd_table1(args: argparse.Namespace) -> int:
    designs = table1_suite(include_chips=args.chips)
    headers = ["Design", "Size", "#Valves", "#Control pin", "#Obs"]
    print(format_table(headers, table1_rows(designs)))
    return 0


def _table2_text(rows: List[dict]) -> str:
    """Render summary rows as the paper's Table 2 plus its "Avg." block."""
    comparisons = compare_methods(rows)
    methods = [m for m in METHODS if any(c.method == m for c in comparisons)]
    averages = [
        [
            c.method,
            f"{c.matched_ratio:.2f}",
            f"{c.matched_length_ratio:.2f}",
            f"{c.total_length_ratio:.2f}",
            f"{c.runtime_ratio:.2f}",
            f"{c.min_completion:.0%}",
        ]
        for c in comparisons
    ]
    avg_headers = [
        "Avg. (PACOR = 1)",
        "#Matched",
        "MatchedLen",
        "TotalLen",
        "Runtime",
        "MinCompletion",
    ]
    return "\n\n".join(
        [
            format_table(table2_headers(methods), table2_rows(rows, methods)),
            format_table(avg_headers, averages),
        ]
    )


def _cmd_table2(args: argparse.Namespace) -> int:
    """Run and verify every design x method, then print Table 2."""
    import json

    designs = [_resolve_design(token) for token in args.designs]
    rows = []
    for name in METHODS:
        for design in designs:
            result = run_method(design, name)
            verify_result(design, result)
            rows.append(result.summary_row())
    print(_table2_text(rows))
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(rows, handle, indent=1)
        print(f"wrote {args.json}")
    return 0


def _cmd_skew(args: argparse.Namespace) -> int:
    design = _resolve_design(args.design)
    result = run_method(design, args.method)
    model = DelayModel(tau0=args.tau0, alpha=args.alpha)
    skews = cluster_skews(design, result, model)
    rows = [
        [
            s.net_id,
            len(s.arrival),
            "yes" if s.matched else ("-" if s.matched is None else "no"),
            f"{s.skew:.4g}",
        ]
        for s in sorted(skews, key=lambda s: -s.skew)
    ]
    print(
        f"{design.name}: modelled switching skew "
        f"(tau0={args.tau0:g}, alpha={args.alpha:g})"
    )
    print(format_table(["net", "#valves", "matched", "skew [s]"], rows))
    print(f"quality ratio (length / lower bound): {quality_ratio(design, result):.2f}")
    return 0


def _cmd_show(args: argparse.Namespace) -> int:
    """Print Table 2 from the rows ``pacor table2 --json`` saved.

    Renders through the same code as ``pacor table2``, so the table and
    "Avg." block match what that command printed.  A file that is not
    JSON, or rows lacking a field or a method, raise
    :class:`TraceFormatError`, which :func:`main` reports with exit 2.
    """
    import json

    with open(args.results, "r", encoding="utf-8") as handle:
        try:
            rows = json.load(handle)
        except ValueError as exc:
            raise TraceFormatError(
                f"not valid JSON ({exc})", path=args.results
            ) from None
    try:
        text = _table2_text(rows)
    except KeyError as exc:
        raise TraceFormatError(
            f"a row lacks field {exc}", path=args.results
        ) from None
    except (TypeError, ValueError) as exc:
        raise TraceFormatError(
            f"not a list of Table-2 rows ({exc})", path=args.results
        ) from None
    print(text)
    return 0


def _cmd_generate(args: argparse.Namespace) -> int:
    if args.fpva is not None:
        try:
            rows_s, _, cols_s = args.fpva.lower().partition("x")
            rows, cols = int(rows_s), int(cols_s)
        except ValueError:
            print(
                f"error: --fpva wants ROWSxCOLS (e.g. 4x4), got {args.fpva!r}",
                file=sys.stderr,
            )
            return 2
        design = generate_fpva(
            rows,
            cols,
            n_pins=args.pins if args.pins != 20 else None,
            layers=args.layers,
            via_cost=args.via_cost,
            name=None if args.name == "custom" else args.name,
        )
    else:
        if args.width is None or args.height is None:
            print(
                "error: --width and --height are required without --fpva",
                file=sys.stderr,
            )
            return 2
        design = generate_design(
            args.name,
            args.width,
            args.height,
            clusters=[ClusterPlan(s) for s in args.cluster_sizes],
            n_singletons=args.singletons,
            n_pins=args.pins,
            n_obstacles=args.obstacles,
            seed=args.seed,
            layers=args.layers,
            via_cost=args.via_cost,
        )
    save_design(design, args.output)
    print(f"wrote {args.output}: {design!r}")
    return 0


def _service_url(args: argparse.Namespace) -> str:
    """Locate a running service: explicit --url, or --root/service.json."""
    if getattr(args, "url", None):
        return str(args.url)
    root = getattr(args, "root", None)
    if root:
        import json
        import os

        path = os.path.join(root, "service.json")
        try:
            with open(path, "r", encoding="utf-8") as handle:
                info = json.load(handle)
        except FileNotFoundError:
            raise ServiceError(
                f"{path}: not found — is `pacor serve --root {root}` running?"
            ) from None
        except json.JSONDecodeError as exc:
            raise ServiceError(f"{path}: not valid JSON ({exc})") from None
        url = info.get("url") if isinstance(info, dict) else None
        if not isinstance(url, str) or not url:
            raise ServiceError(f"{path}: no 'url' field")
        return url
    raise ServiceError("pass --url URL or --root DIR to locate the service")


def _print_job_record(record: dict) -> None:
    """One-line outcome summary for a settled (or still-running) job."""
    line = f"{record['job_id']}: {record['state']}"
    if record.get("cached"):
        line += " (cache hit)"
    if record.get("preempt_kind"):
        line += (
            f" ({record['preempt_kind']}; resume with: "
            f"pacor jobs --resume {record['job_id']})"
        )
    if record.get("error"):
        line += f" — {record['error']}"
    print(line)
    summary = record.get("summary")
    if summary:
        print(
            f"  matched={summary['matched_clusters']}/{summary['n_clusters']} "
            f"matched_len={summary['total_matched_length']} "
            f"total_len={summary['total_length']} "
            f"completion={summary['completion']:.1%}"
        )


def _cmd_hash(args: argparse.Namespace) -> int:
    """Print the canonical design hash the service result cache keys on."""
    design = _resolve_design(args.design)
    digest = design.canonical_hash()
    if args.with_name:
        print(f"{digest}  {design.name}")
    else:
        print(digest)
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    """Run the routing service daemon until SIGINT/SIGTERM."""
    import os
    import signal
    import threading
    from pathlib import Path

    from repro.service import PacorService, ServiceAPIServer
    from repro.service.jobs import write_json_atomic

    service = PacorService(
        args.root, workers=args.workers, start_method=args.start_method
    )
    server = ServiceAPIServer(service, host=args.host, port=args.port)
    stop = threading.Event()

    def _on_signal(signum: int, frame: object) -> None:
        stop.set()

    signal.signal(signal.SIGTERM, _on_signal)
    signal.signal(signal.SIGINT, _on_signal)
    service.start()
    server.start()
    write_json_atomic(
        Path(args.root) / "service.json",
        {"url": server.url, "pid": os.getpid(), "workers": args.workers},
    )
    print(
        f"pacor service listening on {server.url} "
        f"(root: {args.root}, workers: {args.workers})"
    )
    recovered = service.metrics.counter_values().get(
        "service.recovered_jobs", 0
    )
    if recovered:
        print(f"recovered {recovered} job(s) from a previous daemon run")
    print("submit with: pacor submit S3 --url " + server.url)
    try:
        stop.wait()
    finally:
        print("stopping: draining workers ...")
        server.stop()
        service.stop(graceful=True)
        print("stopped (preempted jobs parked their checkpoints)")
    return 0


def _cmd_submit(args: argparse.Namespace) -> int:
    """Submit a design to a running service; optionally wait/follow."""
    import json

    from repro.designs import design_to_json
    from repro.service import ServiceClient

    design = _resolve_design(args.design)
    client = ServiceClient(_service_url(args), timeout=args.timeout)
    budget = {}
    if args.budget_s is not None:
        budget["wall_clock_s"] = args.budget_s
    if args.expansion_budget is not None:
        budget["astar_expansions"] = args.expansion_budget
    record = client.submit(
        design_to_json(design),
        method=args.method,
        qos=args.qos,
        budget=budget or None,
    )
    job_id = record["job_id"]
    print(f"submitted {design.name} as {job_id} (qos: {record['qos']})")
    if args.follow:
        for event in client.follow_events(job_id, timeout=args.timeout):
            print(f"  {json.dumps(event, sort_keys=True)}")
        record = client.job(job_id)
    elif args.wait:
        record = client.wait(job_id, timeout=args.timeout)
    if args.wait or args.follow:
        _print_job_record(record)
        if args.json and record["state"] == "succeeded":
            with open(args.json, "w", encoding="utf-8") as handle:
                json.dump(client.result(job_id), handle, indent=1)
            print(f"wrote {args.json}")
        if record["state"] in ("failed", "cancelled"):
            return 1
    return 0


def _cmd_jobs(args: argparse.Namespace) -> int:
    """List, inspect, resume or cancel jobs on a running service."""
    import json

    from repro.service import ServiceClient

    client = ServiceClient(_service_url(args), timeout=args.timeout)
    if args.cancel:
        _print_job_record(client.cancel(args.cancel))
        return 0
    if args.resume:
        budget = {}
        if args.budget_s is not None:
            budget["wall_clock_s"] = args.budget_s
        if args.expansion_budget is not None:
            budget["astar_expansions"] = args.expansion_budget
        record = client.resume(
            args.resume, qos=args.qos, budget=budget or None
        )
        print(f"{record['job_id']}: requeued (qos: {record['qos']})")
        return 0
    if args.job:
        print(json.dumps(client.job(args.job), indent=1, sort_keys=True))
        return 0
    if args.stats:
        print(json.dumps(client.stats(), indent=1, sort_keys=True))
        return 0
    records = client.jobs()
    if not records:
        print("no jobs")
        return 0
    rows = []
    for record in records:
        note = ""
        if record.get("cached"):
            note = "cache hit"
        elif record.get("preempt_kind"):
            note = record["preempt_kind"]
        elif record.get("error"):
            note = record["error"][:40]
        rows.append(
            [
                record["job_id"],
                record["design_name"],
                record["method"],
                record["qos"],
                record["state"],
                record["attempts"],
                note,
            ]
        )
    print(
        format_table(
            ["Job", "Design", "Method", "QoS", "State", "Attempts", "Note"],
            rows,
        )
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Construct the CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="pacor",
        description="PACOR control-layer routing (DAC 2015 reproduction)",
    )
    parser.add_argument(
        "--sanitize",
        action="store_true",
        help="install the runtime determinism sanitizer before the "
        "command runs (also honoured via REPRO_SANITIZE=1; see "
        "docs/static_analysis.md)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    route = sub.add_parser("route", help="route one design")
    route.add_argument("design", help="suite name (S1..S5, Chip1, Chip2) or .json file")
    route.add_argument("--method", choices=list(METHODS), default="PACOR")
    route.add_argument("--candidates", type=int, default=4, help="DME candidates per cluster")
    route.add_argument(
        "--layers",
        type=int,
        default=None,
        metavar="N",
        help="lift the design onto N routing layers before routing "
        "(valves/pins stay on layer 0; vias connect layers)",
    )
    route.add_argument(
        "--via-cost",
        dest="via_cost",
        type=int,
        default=None,
        metavar="N",
        help="search cost of one vertical (via) step (default: the "
        "design's own, 1)",
    )
    route.add_argument(
        "--budget-s",
        type=float,
        default=None,
        metavar="SECONDS",
        help="wall-clock budget; on exhaustion a partial result is returned",
    )
    route.add_argument(
        "--expansion-budget",
        type=int,
        default=None,
        metavar="N",
        help="total A* expansion budget for the whole run",
    )
    route.add_argument(
        "--checkpoint",
        metavar="FILE",
        help="write a resumable snapshot here when a budget interrupts the run",
    )
    route.add_argument(
        "--faults",
        metavar="FILE",
        help="route under this physical fault map (JSON: blocked cells, "
        "stuck valves, timed mid-flow events)",
    )
    route.add_argument("--verify", action="store_true", help="verify the solution")
    route.add_argument("--svg", metavar="FILE", help="write an SVG rendering")
    route.add_argument("--json", metavar="FILE", help="write the full result as JSON")
    route.add_argument(
        "--trace",
        metavar="FILE",
        help="write a JSONL span trace (analyse with: pacor profile FILE)",
    )
    route.add_argument(
        "--chrome-trace",
        metavar="FILE",
        help="write the trace in Chrome trace-event format (chrome://tracing)",
    )
    route.add_argument(
        "--metrics",
        metavar="FILE",
        help="write the kernel effort counters/gauges as JSON",
    )
    route.add_argument("--ascii", action="store_true", help="print ASCII art")
    route.add_argument("--events", action="store_true", help="print the stage log")
    route.set_defaults(func=_cmd_route)

    resume = sub.add_parser(
        "resume", help="continue an interrupted run from its checkpoint"
    )
    resume.add_argument(
        "checkpoint_file", help="checkpoint written by route --checkpoint"
    )
    resume.add_argument(
        "--budget-s",
        type=float,
        default=None,
        metavar="SECONDS",
        help="fresh wall-clock budget for the continuation",
    )
    resume.add_argument(
        "--expansion-budget",
        type=int,
        default=None,
        metavar="N",
        help="fresh A* expansion budget for the continuation",
    )
    resume.add_argument(
        "--carry-counters",
        action="store_true",
        help="count the interrupted run's spend against the new budget "
        "(limits bound the total across attempts)",
    )
    resume.add_argument(
        "--checkpoint",
        metavar="FILE",
        help="write a new snapshot here if the continuation is interrupted too",
    )
    resume.add_argument("--verify", action="store_true", help="verify the solution")
    resume.add_argument("--svg", metavar="FILE", help="write an SVG rendering")
    resume.add_argument("--json", metavar="FILE", help="write the full result as JSON")
    resume.add_argument(
        "--trace",
        metavar="FILE",
        help="write a JSONL span trace; stitches onto the interrupted "
        "run's trace when the checkpoint carries one",
    )
    resume.add_argument(
        "--chrome-trace",
        metavar="FILE",
        help="write the trace in Chrome trace-event format",
    )
    resume.add_argument(
        "--metrics",
        metavar="FILE",
        help="write the kernel effort counters/gauges as JSON",
    )
    resume.add_argument("--ascii", action="store_true", help="print ASCII art")
    resume.add_argument("--events", action="store_true", help="print the stage log")
    resume.set_defaults(func=_cmd_resume)

    repair = sub.add_parser(
        "repair",
        help="re-route the nets of a finished result hit by physical faults",
    )
    repair.add_argument(
        "result",
        help="result JSON written by route --json, or a mid-repair "
        "checkpoint written by repair --checkpoint",
    )
    repair.add_argument(
        "--faults",
        metavar="FILE",
        help="fault map JSON (required unless resuming a repair checkpoint)",
    )
    repair.add_argument(
        "--design",
        metavar="NAME_OR_FILE",
        help="design the result was routed on (default: the suite design "
        "named in the result document)",
    )
    repair.add_argument(
        "--budget-s",
        type=float,
        default=None,
        metavar="SECONDS",
        help="wall-clock budget for the repair pass",
    )
    repair.add_argument(
        "--expansion-budget",
        type=int,
        default=None,
        metavar="N",
        help="A* expansion budget for the repair pass",
    )
    repair.add_argument(
        "--checkpoint",
        metavar="FILE",
        help="write a mid-repair snapshot here when the budget trips",
    )
    repair.add_argument("--verify", action="store_true", help="verify the healed solution")
    repair.add_argument("--svg", metavar="FILE", help="write an SVG rendering")
    repair.add_argument("--json", metavar="FILE", help="write the healed result as JSON")
    repair.add_argument("--ascii", action="store_true", help="print ASCII art")
    repair.add_argument("--events", action="store_true", help="print the stage log")
    repair.set_defaults(func=_cmd_repair)

    profile = sub.add_parser(
        "profile", help="analyse a trace written by route --trace"
    )
    profile.add_argument("trace_file", help="JSONL trace file")
    profile.add_argument(
        "--top", type=int, default=5, metavar="N",
        help="how many top nets by A* expansions to show",
    )
    profile.set_defaults(func=_cmd_profile)

    lint = sub.add_parser(
        "lint",
        help="run pacorlint, the AST-based invariant checker",
    )
    lint.add_argument(
        "paths",
        nargs="*",
        default=["src/repro"],
        help="files or directories to check (default: src/repro)",
    )
    lint.add_argument("--json", action="store_true", help="JSON report")
    lint.add_argument(
        "--rules", metavar="ID[,ID...]", help="subset of rule ids to run"
    )
    lint.add_argument(
        "--list-rules", action="store_true", help="print the rule catalogue"
    )
    lint.add_argument(
        "--baseline",
        metavar="FILE",
        help="baseline file of accepted violations "
        "(default: <root>/.pacorlint-baseline.json when present)",
    )
    lint.add_argument(
        "--no-baseline", action="store_true", help="ignore any baseline file"
    )
    lint.add_argument(
        "--update-baseline",
        action="store_true",
        help="rewrite the baseline from the current violations",
    )
    lint.set_defaults(func=_cmd_lint)

    table1 = sub.add_parser("table1", help="print the benchmark parameters")
    table1.add_argument("--no-chips", dest="chips", action="store_false")
    table1.set_defaults(func=_cmd_table1)

    table2 = sub.add_parser(
        "table2", help="run, verify and print the three-method comparison"
    )
    table2.add_argument(
        "--designs", nargs="+", default=["S1", "S2", "S3", "S4", "S5"]
    )
    table2.add_argument(
        "--json", metavar="FILE", help="write the summary rows to FILE"
    )
    table2.set_defaults(func=_cmd_table2)

    skew = sub.add_parser("skew", help="report modelled switching skew per net")
    skew.add_argument("design")
    skew.add_argument("--method", choices=list(METHODS), default="PACOR")
    skew.add_argument("--tau0", type=float, default=1e-4)
    skew.add_argument("--alpha", type=float, default=2.0)
    skew.set_defaults(func=_cmd_skew)

    show = sub.add_parser(
        "show", help="print Table 2 from a file table2 --json wrote"
    )
    show.add_argument("results")
    show.set_defaults(func=_cmd_show)

    gen = sub.add_parser("generate", help="synthesize a design to JSON")
    gen.add_argument("output")
    gen.add_argument("--name", default="custom")
    gen.add_argument("--width", type=int, default=None)
    gen.add_argument("--height", type=int, default=None)
    gen.add_argument(
        "--cluster-sizes", type=int, nargs="*", default=[2, 2], metavar="N"
    )
    gen.add_argument("--singletons", type=int, default=2)
    gen.add_argument("--pins", type=int, default=20)
    gen.add_argument("--obstacles", type=int, default=10)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument(
        "--layers",
        type=int,
        default=1,
        metavar="N",
        help="routing layers (valves/pins stay on layer 0; upper-layer "
        "obstacles are correlated with layer 0)",
    )
    gen.add_argument(
        "--via-cost",
        dest="via_cost",
        type=int,
        default=1,
        metavar="N",
        help="search cost of one vertical (via) step",
    )
    gen.add_argument(
        "--fpva",
        metavar="RxC",
        default=None,
        help="generate an R x C fully programmable valve array instead "
        "(ignores --width/--height/--cluster-sizes/--singletons/"
        "--obstacles)",
    )
    gen.set_defaults(func=_cmd_generate)

    # Service commands (see docs/service.md).  QoS tier names come from
    # the service's own catalogue so the CLI can't drift from it; the
    # jobs module import is lightweight (dataclasses only).
    from repro.service.jobs import DEFAULT_QOS, QOS_TIERS

    serve = sub.add_parser(
        "serve",
        help="run the routing service daemon (job queue + worker pool + HTTP API)",
    )
    serve.add_argument(
        "--root",
        required=True,
        metavar="DIR",
        help="service state directory (job records, result cache, service.json)",
    )
    serve.add_argument("--host", default="127.0.0.1", help="bind address")
    serve.add_argument(
        "--port",
        type=int,
        default=0,
        help="TCP port (default: ephemeral, printed on start)",
    )
    serve.add_argument(
        "--workers",
        type=int,
        default=2,
        metavar="N",
        help="concurrent routing worker processes",
    )
    serve.add_argument(
        "--start-method",
        choices=["fork", "spawn", "forkserver"],
        default=None,
        help="multiprocessing start method (default: platform default)",
    )
    serve.set_defaults(func=_cmd_serve)

    submit = sub.add_parser(
        "submit", help="submit a design to a running service"
    )
    submit.add_argument(
        "design", help="suite name (S1..S5, Chip1, Chip2) or .json file"
    )
    submit.add_argument(
        "--url", metavar="URL", help="service URL (printed by pacor serve)"
    )
    submit.add_argument(
        "--root",
        metavar="DIR",
        help="service root; reads DIR/service.json for the URL",
    )
    submit.add_argument("--method", choices=list(METHODS), default="PACOR")
    submit.add_argument(
        "--qos",
        choices=sorted(QOS_TIERS),
        default=DEFAULT_QOS,
        help="QoS tier: priority + budget envelope (see docs/service.md)",
    )
    submit.add_argument(
        "--budget-s",
        type=float,
        default=None,
        metavar="SECONDS",
        help="override the tier's wall-clock budget",
    )
    submit.add_argument(
        "--expansion-budget",
        type=int,
        default=None,
        metavar="N",
        help="override the tier's A* expansion budget",
    )
    submit.add_argument(
        "--wait", action="store_true", help="poll until the job settles"
    )
    submit.add_argument(
        "--follow",
        action="store_true",
        help="stream progress events (ndjson) until the job settles",
    )
    submit.add_argument(
        "--timeout",
        type=float,
        default=300.0,
        metavar="SECONDS",
        help="client-side wait/follow timeout",
    )
    submit.add_argument(
        "--json",
        metavar="FILE",
        help="with --wait/--follow: save the result document here",
    )
    submit.set_defaults(func=_cmd_submit)

    jobs = sub.add_parser(
        "jobs", help="list, inspect, resume or cancel service jobs"
    )
    jobs.add_argument("--url", metavar="URL", help="service URL")
    jobs.add_argument(
        "--root",
        metavar="DIR",
        help="service root; reads DIR/service.json for the URL",
    )
    jobs.add_argument(
        "--job", metavar="ID", help="print one job record as JSON"
    )
    jobs.add_argument(
        "--resume", metavar="ID", help="requeue a preempted job"
    )
    jobs.add_argument("--cancel", metavar="ID", help="cancel a job")
    jobs.add_argument(
        "--qos",
        choices=sorted(QOS_TIERS),
        default=None,
        help="with --resume: switch the job to this QoS tier",
    )
    jobs.add_argument(
        "--budget-s",
        type=float,
        default=None,
        metavar="SECONDS",
        help="with --resume: override the wall-clock budget",
    )
    jobs.add_argument(
        "--expansion-budget",
        type=int,
        default=None,
        metavar="N",
        help="with --resume: override the A* expansion budget",
    )
    jobs.add_argument(
        "--stats", action="store_true", help="print service statistics"
    )
    jobs.add_argument(
        "--timeout", type=float, default=30.0, metavar="SECONDS"
    )
    jobs.set_defaults(func=_cmd_jobs)

    hash_cmd = sub.add_parser(
        "hash",
        help="print the canonical design hash (the service cache key input)",
    )
    hash_cmd.add_argument(
        "design", help="suite name (S1..S5, Chip1, Chip2) or .json file"
    )
    hash_cmd.add_argument(
        "--with-name",
        action="store_true",
        help="append the design name, sha256sum-style",
    )
    hash_cmd.set_defaults(func=_cmd_hash)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point.

    Malformed inputs exit with code 2 and a one-line diagnosis naming
    the file and field instead of a raw traceback.
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    from repro.analysis import sanitize

    if args.sanitize:
        sanitize.install()
    else:
        sanitize.install_from_env()
    try:
        return args.func(args)
    except (
        CheckpointFormatError,
        DesignFormatError,
        FaultFormatError,
        JobFormatError,
        ServiceError,
        TraceFormatError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"error: {exc.filename or exc}: file not found", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

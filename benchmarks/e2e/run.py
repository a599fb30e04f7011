#!/usr/bin/env python3
"""End-to-end benchmark of the PACOR reproduction.

Run from the repository root::

    python3 benchmarks/e2e/run.py --workload chip2 --seed 1 --seconds 20 --trace 0

Each workload runs in its own child process, one after another (all four
when ``--workload`` is omitted).  Before it, the parent starts
``SETUPS - 1`` set-up-only children, so ``setup_s`` is a median.  The
parent prints every metric as ``name value unit``, lists each failure,
writes the full result to ``.bench_out/`` and ends with one JSON line:
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0`` reports
the end-to-end metrics; ``--trace 1`` adds one traced pass and reports
the per-layer metrics, writing its spans under ``--trace-dir``.

The exit code is non-zero only on a harness error (missing sources, a
child that crashed or overran); a wrong routing result is a counted
failure, not an error.  See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from functools import partial
from pathlib import Path
from typing import Dict, List, Optional

from common import END_TO_END, OUT_DIR, ROOT, peak_rss_mb

SRC = ROOT / "src"
WORKLOADS = ("chip1", "chip2", "synth", "serve")
SETUPS = 4
DEADLINE_S = 170.0
"""Wall-clock cap of one workload; a child still running then is killed."""


class HarnessError(RuntimeError):
    """The benchmark itself could not run; nothing is reported."""


def _parse(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-dir", type=Path, default=OUT_DIR / "trace")
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="first item only, chips replaced by S3, one set-up (harness check)",
    )
    parser.add_argument("--child", choices=("setup", "run"), help=argparse.SUPPRESS)
    parser.add_argument("--started", type=float, help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _child(args: argparse.Namespace) -> int:
    """Set up (and unless ``--child setup``, measure) one workload."""
    import layers

    setup_only = args.child == "setup"
    if args.workload == "serve":
        import serve

        run = serve.run
    else:
        import flows

        run = partial(flows.run, args.workload)
    report = run(
        args.seed,
        args.seconds,
        bool(args.trace),
        args.started,
        args.trace_dir,
        args.smoke,
        setup_only,
    )
    if not setup_only:
        report.e2e["peak_rss_mb"] = peak_rss_mb(include_children=args.workload == "serve")
        unknown = set(report.layers) - set(layers.PER_LAYER)
        if unknown:
            raise HarnessError(f"uncatalogued per-layer metrics {sorted(unknown)}")
        if args.trace:
            report.layers = {
                name: report.layers.get(name, 0.0) for name in layers.PER_LAYER
            }
    print(json.dumps(report.to_json()))
    return 0


def _spawn(mode: str, args: argparse.Namespace, workload: str, deadline: float) -> Dict:
    command = [
        sys.executable,
        str(Path(__file__).resolve()),
        "--child",
        mode,
        "--workload",
        workload,
        "--seed",
        str(args.seed),
        "--seconds",
        str(args.seconds),
        "--trace",
        str(args.trace),
        "--trace-dir",
        str(args.trace_dir),
    ]
    if args.smoke:
        command.append("--smoke")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    command += ["--started", repr(time.monotonic())]
    # Own session: a child that overruns is killed with its whole group,
    # service workers included.
    proc = subprocess.Popen(
        command, cwd=ROOT, env=env, stdout=subprocess.PIPE, start_new_session=True
    )
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise HarnessError(f"{workload} {mode} child overran the {DEADLINE_S:.0f}s cap")
    if proc.returncode != 0:
        raise HarnessError(f"{workload} {mode} child exited {proc.returncode}")
    lines = out.decode().strip().splitlines()
    return json.loads(lines[-1])


def _measure(args: argparse.Namespace, workload: str) -> Dict:
    """Run one workload: extra set-ups, then the measured child."""
    import layers

    deadline = time.monotonic() + DEADLINE_S
    setups = [] if args.smoke else [
        _spawn("setup", args, workload, deadline)["setup_s"] for _ in range(SETUPS - 1)
    ]
    report = _spawn("run", args, workload, deadline)
    setups.append(report["setup_s"])
    report["e2e"]["setup_s"] = statistics.median(setups)
    report["setups"] = setups
    catalogue = layers.PER_LAYER if args.trace else END_TO_END
    values = report["layers"] if args.trace else report["e2e"]
    report["metrics"] = {
        name: {"value": values[name], "unit": unit} for name, unit in catalogue.items()
    }
    return report


def _print(workload: str, report: Dict, trace: bool) -> None:
    import layers

    shown = [(END_TO_END, report["e2e"])]
    if trace:
        shown.append((layers.PER_LAYER, report["layers"]))
    for catalogue, values in shown:
        for name, unit in catalogue.items():
            if name in values:
                print(f"{workload}.{name} {values[name]:.6g} {unit}")
    for line in report["failures"]:
        print(f"FAILED {workload} {line}")
    for line in report["notes"]:
        print(f"NOTE {workload} {line}")


def main(argv: Optional[List[str]] = None) -> int:
    args = _parse(argv)
    if not (SRC / "repro").is_dir():
        print(f"error: no repro sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.child:
        return _child(args)
    workloads = [args.workload] if args.workload else list(WORKLOADS)
    reports: Dict[str, Dict] = {}
    try:
        for workload in workloads:
            reports[workload] = _measure(args, workload)
    except HarnessError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for workload, report in reports.items():
        _print(workload, report, bool(args.trace))

    OUT_DIR.mkdir(exist_ok=True)
    tag = args.workload or "all"
    result_path = OUT_DIR / f"e2e-{tag}-seed{args.seed}-trace{args.trace}.json"
    result_path.write_text(json.dumps(reports, indent=1, sort_keys=True) + "\n")

    failed = sum(len(r["failures"]) for r in reports.values())
    if args.workload:
        metrics = reports[args.workload]["metrics"]
    else:
        metrics = {
            f"{w}.{name}": value
            for w, r in reports.items()
            for name, value in r["metrics"].items()
        }
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": sum(r["attempted"] for r in reports.values()),
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Run one set of the end-to-end benchmark and report each metric's spread.

A set is one untraced run per seed for each workload.  For every
end-to-end metric it prints the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and the spread — the
interquartile distance as a share of the median — next to the bound
``BENCHMARK.json`` declares.  ``--record FILE --label NAME`` stores the set
in a JSON file (``baselines.json`` holds the committed ones)::

    python3 benchmarks/e2e/spread.py --workload chip2 --seeds 1-10
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List

ROOT = Path(__file__).resolve().parents[2]
RUN = Path(__file__).resolve().with_name("run.py")


def _seeds(text: str) -> List[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def run_set(workload: str, seeds: List[int], seconds: int) -> Dict[str, List[float]]:
    values: Dict[str, List[float]] = {}
    for seed in seeds:
        started = time.monotonic()
        proc = subprocess.run(
            [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, check=True,
        )
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            raise SystemExit(f"{workload} seed {seed}: {result['failed']} failed\n{proc.stdout}")
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"{workload} seed {seed}: {time.monotonic() - started:.1f}s", file=sys.stderr)
    return values


def summarise(values: List[float]) -> Dict[str, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "median": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / statistics.median(values),
        "values": values,
    }


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", help="default: every workload")
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--record", type=Path)
    parser.add_argument("--label", default="set")
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    workloads = args.workload or [w["name"] for w in spec["workloads"]]

    recorded = {}
    for workload in workloads:
        stats = {
            name: summarise(values)
            for name, values in run_set(workload, _seeds(args.seeds), args.seconds).items()
        }
        recorded[workload] = stats
        for name, s in stats.items():
            verdict = "ok" if s["spread"] <= bounds[name] / 3 else (
                "within bound" if s["spread"] <= bounds[name] else "OVER BOUND"
            )
            print(
                f"{workload}.{name}: median {s['median']:.6g} "
                f"[{s['q1']:.6g}, {s['q3']:.6g}] spread {s['spread']:.3f} "
                f"bound {bounds[name]} {verdict}"
            )
    if args.record:
        doc = json.loads(args.record.read_text()) if args.record.exists() else {}
        doc.setdefault(args.label, {}).update(recorded)
        args.record.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Smoke test of the end-to-end benchmark harness.

Drives every workload on its first item (chips shrunk to S3) with the
traced pass on, and checks that each metric ``BENCHMARK.json`` names is
printed for each workload with its unit.  ``pytest benchmarks/e2e``
collects it; tier-1 (``tests/``) does not.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def test_every_declared_metric_is_emitted_with_its_unit(tmp_path):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    proc = subprocess.run(
        [
            sys.executable,
            str(ROOT / "benchmarks" / "e2e" / "run.py"),
            "--smoke",
            "--seconds",
            "0",
            "--trace",
            "1",
            "--trace-dir",
            str(tmp_path),
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    *lines, last = proc.stdout.strip().splitlines()
    units = {}
    for line in lines:
        fields = line.split()
        if len(fields) == 3:
            units[fields[0]] = fields[2]
    for workload in workloads:
        for metric in spec["end_to_end"] + spec["per_layer"]:
            name = f"{workload}.{metric['name']}"
            assert units.get(name) == metric["unit"], name

    result = json.loads(last)
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= len(workloads)
    assert set(result["metrics"]) == {
        f"{w}.{m['name']}" for w in workloads for m in spec["per_layer"]
    }
    assert {p.name for p in tmp_path.glob("*.jsonl")} == {
        f"{w}-seed1.jsonl" for w in workloads
    }

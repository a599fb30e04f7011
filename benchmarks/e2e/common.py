"""Helpers and the metric catalogue shared by the benchmark's workloads.

Every workload runs in its own child process (see ``run.py``) and hands
back one :class:`Report`; the parent prints and records it.  The two
catalogues below are the benchmark's contract with ``BENCHMARK.json``:
each workload reports every name in them, with these units.
"""

from __future__ import annotations

import hashlib
import json
import math
import resource
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parents[2]
OUT_DIR = ROOT / ".bench_out"

END_TO_END: Dict[str, str] = {
    "pass_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "verified_share": "ratio",
    "matched_clusters": "count",
    "channel_length": "cells",
    "completion": "ratio",
    "job_p50_s": "s",
    "job_p90_s": "s",
}
"""End-to-end metrics, measured with tracing off."""

QUALITY = (
    "n_clusters",
    "matched_clusters",
    "total_matched_length",
    "total_length",
    "completion",
)
"""The Table-2 quality columns the golden check compares."""


@dataclass
class Report:
    """What one workload child measured and checked.

    ``failures`` are real correctness failures (the run's ``failed``
    count); ``notes`` are findings that are not failures of the routing
    under test, such as the known verifier false positive.
    """

    setup_s: float
    attempted: int = 0
    failures: List[str] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)
    e2e: Dict[str, float] = field(default_factory=dict)
    layers: Dict[str, float] = field(default_factory=dict)

    def fail(self, label: str, message: str) -> None:
        self.failures.append(f"{label}: {message}")

    def note(self, label: str, message: str) -> None:
        line = f"{label}: {message}"
        if line not in self.notes:
            self.notes.append(line)

    def to_json(self) -> Dict[str, object]:
        return {
            "setup_s": self.setup_s,
            "attempted": self.attempted,
            "failures": self.failures,
            "notes": self.notes,
            "e2e": self.e2e,
            "layers": self.layers,
        }


def percentile(values: Sequence[float], q: float) -> float:
    """Return the ``q``-th percentile, interpolating between closest ranks."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = (len(ordered) - 1) * q / 100.0
    lo = math.floor(rank)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo)


def comparable_row(row: Dict[str, object]) -> Dict[str, object]:
    """Return a ``summary_row`` without its name and wall-clock fields."""
    return {k: v for k, v in row.items() if k not in ("design", "runtime_s")}


def golden_diff(
    row: Dict[str, object], golden: Dict[str, object]
) -> Optional[Dict[str, Tuple[object, object]]]:
    """Return ``{column: (got, want)}`` for mismatched Table-2 columns."""
    diff = {
        col: (row[col], golden[col])
        for col in QUALITY
        if row[col] != golden[col]
    }
    return diff or None


def result_fingerprint(doc: Dict[str, object]) -> str:
    """Hash a result document minus its only nondeterministic field."""
    doc = dict(doc)
    doc["summary"] = comparable_row(dict(doc["summary"]))  # type: ignore[arg-type]
    blob = json.dumps(doc, sort_keys=True, default=str)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def load_golden() -> Dict[Tuple[str, str], Dict[str, object]]:
    """Read the Table-2 golden rows, keyed by ``(design, method)``."""
    rows = json.loads((ROOT / "results_table2.json").read_text())
    return {(row["design"], row["method"]): row for row in rows}


def peak_rss_mb(include_children: bool = False) -> float:
    """Peak resident set of this process (plus its largest child), in MB."""
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if include_children:
        kib += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kib / 1024.0

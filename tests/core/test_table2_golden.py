"""Table-2 quality columns pinned against ``results_table2.json``.

Every row the suite can afford in tier-1 — S1–S5 under all three methods
plus Chip2 under PACOR — must reproduce the committed golden file's
quality columns exactly.  Chip1's rows (about 12 s each on a 2-vCPU
host) carry the ``chips`` marker, which the default options deselect;
run them with ``pytest -m chips tests/core/test_table2_golden.py``.
The paper's claims (100 % completion, PACOR matching at least as many
clusters as w/o Sel, Chip2 22/22/22, Chip1 26 < 29 < 31) are checked on
the committed file itself, which ``pacor table2 --json`` writes.

The same runs also pin each whole result document: ``golden/result_hashes.json``
holds the sha256 of every document minus ``summary.runtime_s`` (its only
wall-clock field, dropped exactly as the e2e benchmark's fingerprint does),
so a change that keeps the quality columns but moves a single path cell
still fails.  Regenerate it only for an intended routing change, with
``result_hash(run_method(design_by_name(d), m).to_json())`` per row.

The same file also pins the probe-heavy two-layer PACOR runs the e2e
``synth`` workload makes (S2–S5 lifted with ``with_layers(2)`` and the
10×10 and 12×12 two-layer FPVAs): they have no Table-2 row, but nearly
every rip-up probe of a ``synth`` pass comes from them.
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro import design_by_name, run_method
from repro.core import METHODS
from repro.designs.generator import generate_fpva

GOLDEN_FILE = Path(__file__).resolve().parents[2] / "results_table2.json"
HASH_FILE = Path(__file__).resolve().parent / "golden" / "result_hashes.json"
QUALITY = (
    "n_clusters",
    "matched_clusters",
    "total_matched_length",
    "total_length",
    "completion",
)
ROWS = [(d, m) for d in ("S1", "S2", "S3", "S4", "S5") for m in METHODS] + [
    ("Chip2", "PACOR")
]
CHIP_ROWS = [("Chip1", m) for m in METHODS]
LAYERED = {
    **{
        f"{d}x2": (lambda d=d: design_by_name(d).with_layers(2))
        for d in ("S2", "S3", "S4", "S5")
    },
    **{
        f"fpva-{n}x{n}x2": (lambda n=n: generate_fpva(n, n, layers=2, via_cost=3))
        for n in (10, 12)
    },
}


def result_hash(doc):
    """Return the sha256 of a result document minus ``summary.runtime_s``."""
    doc = dict(doc)
    summary = dict(doc["summary"])
    summary.pop("runtime_s", None)
    doc["summary"] = summary
    blob = json.dumps(doc, sort_keys=True, default=str)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


@pytest.fixture(scope="module")
def golden():
    rows = json.loads(GOLDEN_FILE.read_text())
    return {(row["design"], row["method"]): row for row in rows}


@pytest.fixture(scope="module")
def golden_hashes():
    return json.loads(HASH_FILE.read_text())


@pytest.mark.parametrize(
    "design,method",
    ROWS + [pytest.param(*row, marks=pytest.mark.chips) for row in CHIP_ROWS],
    ids=[f"{d}|{m}" for d, m in ROWS + CHIP_ROWS],
)
def test_quality_columns_match_golden(golden, golden_hashes, design, method):
    result = run_method(design_by_name(design), method)
    row = result.summary_row()
    want = golden[(design, method)]
    assert {c: row[c] for c in QUALITY} == {c: want[c] for c in QUALITY}
    assert result_hash(result.to_json()) == golden_hashes[f"{design}|{method}"]


@pytest.mark.parametrize("name", sorted(LAYERED))
def test_layered_pacor_runs_match_golden_hash(golden_hashes, name):
    result = run_method(LAYERED[name](), "PACOR")
    assert result_hash(result.to_json()) == golden_hashes[f"{name}|PACOR"]


def test_golden_file_keeps_the_papers_claims(golden):
    """The paper's Table-2 claims, read off the committed rows alone."""
    designs = ("Chip1", "Chip2", "S1", "S2", "S3", "S4", "S5")
    assert set(golden) == {(d, m) for d in designs for m in METHODS}
    assert all(row["completion"] == 1.0 for row in golden.values())
    matched = {key: row["matched_clusters"] for key, row in golden.items()}
    for d in designs:
        assert matched[d, "PACOR"] >= matched[d, "w/o Sel"], d
    assert [matched["Chip2", m] for m in METHODS] == [22, 22, 22]
    assert [matched["Chip1", m] for m in METHODS] == [26, 29, 31]

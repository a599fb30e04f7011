"""Table-2 quality columns pinned against ``results_table2.json``.

Every row the suite can afford in tier-1 — S1–S5 under all three methods
plus Chip2 under PACOR — must reproduce the committed golden file's
quality columns exactly.  Chip1's rows (about 12 s each on a 2-vCPU
host) carry the ``chips`` marker, which the default options deselect;
run them with ``pytest -m chips tests/core/test_table2_golden.py``.
"""

import json
from pathlib import Path

import pytest

from repro import design_by_name, run_method
from repro.core import METHODS

GOLDEN_FILE = Path(__file__).resolve().parents[2] / "results_table2.json"
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


@pytest.fixture(scope="module")
def golden():
    rows = json.loads(GOLDEN_FILE.read_text())
    return {(row["design"], row["method"]): row for row in rows}


@pytest.mark.parametrize(
    "design,method",
    ROWS + [pytest.param(*row, marks=pytest.mark.chips) for row in CHIP_ROWS],
    ids=[f"{d}|{m}" for d, m in ROWS + CHIP_ROWS],
)
def test_quality_columns_match_golden(golden, design, method):
    row = run_method(design_by_name(design), method).summary_row()
    want = golden[(design, method)]
    assert {c: row[c] for c in QUALITY} == {c: want[c] for c in QUALITY}

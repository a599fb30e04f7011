"""Cross-method metric aggregation (the "Avg." row of Table 2)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Sequence


@dataclass
class MethodComparison:
    """Normalised averages of one method against a reference method.

    The paper's "Avg." row normalises every method's metric to PACOR's
    (reference = 1.0); ratios average only over designs where both values
    are non-zero.  ``min_completion`` is the method's worst routing
    completion over all designs (the paper claims 1.0 everywhere).
    """

    method: str
    matched_ratio: float
    matched_length_ratio: float
    total_length_ratio: float
    runtime_ratio: float
    min_completion: float


def _safe_ratio_avg(pairs: Sequence[tuple]) -> float:
    ratios = [a / b for a, b in pairs if b]
    return sum(ratios) / len(ratios) if ratios else 0.0


def compare_methods(
    rows: Sequence[Mapping[str, Any]], reference: str = "PACOR"
) -> List[MethodComparison]:
    """Return per-method averages normalised to ``reference``.

    ``rows`` are summary rows (:meth:`PacorResult.summary_row`, or the
    list ``pacor table2 --json`` writes); every method must cover the
    same designs as ``reference``.  Methods keep their first-seen order.
    """
    by_method: Dict[str, Dict[str, Mapping[str, Any]]] = {}
    for row in rows:
        by_method.setdefault(row["method"], {})[row["design"]] = row
    if reference not in by_method:
        raise ValueError(f"reference method {reference!r} missing from rows")
    ref = by_method[reference]
    comparisons = []
    for method, runs in by_method.items():
        if runs.keys() != ref.keys():
            raise ValueError(f"method {method!r} covers different designs")

        def avg(metric: str) -> float:
            return _safe_ratio_avg([(runs[d][metric], ref[d][metric]) for d in ref])

        comparisons.append(
            MethodComparison(
                method=method,
                matched_ratio=avg("matched_clusters"),
                matched_length_ratio=avg("total_matched_length"),
                total_length_ratio=avg("total_length"),
                runtime_ratio=avg("runtime_s"),
                min_completion=min(run["completion"] for run in runs.values()),
            )
        )
    return comparisons

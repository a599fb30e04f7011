"""Solution verification, metrics and report tables.

* :mod:`repro.analysis.verify` — independent end-to-end validation of a
  routed solution: non-crossing channels, obstacle avoidance,
  connectivity, pin legality, valve compatibility per pin, and
  length-matching measured as *network distance* inside the routed
  channels (the physical pressure-propagation length).
* :mod:`repro.analysis.metrics` — aggregate comparisons across methods.
* :mod:`repro.analysis.report` — Table-1/Table-2 style text tables.
"""

from repro.analysis.metrics import MethodComparison, compare_methods
from repro.analysis.pressure import ClusterSkew, DelayModel, cluster_skews, worst_skew
from repro.analysis.stats import (
    DesignBounds,
    design_lower_bounds,
    escape_lower_bound,
    quality_ratio,
    steiner_lower_bound,
)
from repro.analysis.report import format_table, table1_rows, table2_rows
from repro.analysis.verify import VerificationError, network_lengths, verify_result

__all__ = [
    "verify_result",
    "network_lengths",
    "VerificationError",
    "compare_methods",
    "MethodComparison",
    "format_table",
    "table1_rows",
    "table2_rows",
    "DelayModel",
    "ClusterSkew",
    "cluster_skews",
    "worst_skew",
    "DesignBounds",
    "design_lower_bounds",
    "steiner_lower_bound",
    "escape_lower_bound",
    "quality_ratio",
]

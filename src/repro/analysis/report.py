"""Plain-text report tables in the layout of the paper's Table 1/Table 2."""

from __future__ import annotations

from typing import Any, Iterable, List, Mapping, Sequence

from repro.designs.design import Design


def format_table(headers: Sequence[str], rows: Iterable[Sequence[object]]) -> str:
    """Render an aligned monospace table."""
    rows = [[str(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    def line(cells):
        return "  ".join(c.ljust(w) for c, w in zip(cells, widths)).rstrip()

    out = [line(headers), line(["-" * w for w in widths])]
    out.extend(line(row) for row in rows)
    return "\n".join(out)


def table1_rows(designs: Sequence[Design]) -> List[List[object]]:
    """Return Table-1 rows: Design, Size, #Valves, #CP, #Obs."""
    return [
        [
            d.name,
            d.size_label,
            len(d.valves),
            len(d.control_pins),
            d.grid.obstacle_count(),
        ]
        for d in designs
    ]


def table2_rows(
    rows: Sequence[Mapping[str, Any]],
    method_order: Sequence[str] = ("w/o Sel", "Detour First", "PACOR"),
) -> List[List[object]]:
    """Return Table-2 rows: per design, the three methods' metrics.

    ``rows`` are summary rows (:meth:`PacorResult.summary_row`, or the
    list ``pacor table2 --json`` writes) in any order, one per design and
    method of ``method_order``; designs keep their first-seen order.
    Columns: Design, #Clusters, then per method #Matched, matched length,
    total length and runtime — mirroring the paper's layout.
    """
    by_key = {(row["design"], row["method"]): row for row in rows}
    table: List[List[object]] = []
    for design in dict.fromkeys(row["design"] for row in rows):
        missing = [m for m in method_order if (design, m) not in by_key]
        if missing:
            raise ValueError(f"design {design!r} has no {missing[0]!r} row")
        runs = [by_key[design, m] for m in method_order]
        line: List[object] = [design, runs[0]["n_clusters"]]
        for metric in ("matched_clusters", "total_matched_length", "total_length"):
            line.extend(run[metric] for run in runs)
        line.extend(f"{run['runtime_s']:.2f}" for run in runs)
        table.append(line)
    return table


def table2_headers(
    method_order: Sequence[str] = ("w/o Sel", "Detour First", "PACOR"),
) -> List[str]:
    """Return the header row matching :func:`table2_rows`."""
    headers = ["Design", "#Clusters"]
    for metric in ("#Matched", "MatchedLen", "TotalLen"):
        headers.extend(f"{metric}({m})" for m in method_order)
    headers.extend(f"Runtime({m})" for m in method_order)
    return headers

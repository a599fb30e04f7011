"""Design-space example: synthesize a biochip and compare the three flows.

Generates a custom control layer (3 length-matching clusters plus
singleton valves), runs "w/o Sel", "Detour First" and full PACOR, prints
a Table-2 style comparison, verifies each solution independently, and
exports an SVG rendering of the PACOR result.

Run with::

    python examples/custom_biochip.py
"""

from repro import PacorConfig, run_method
from repro.analysis import format_table, verify_result
from repro.analysis.report import table2_headers, table2_rows
from repro.core import METHODS
from repro.designs import ClusterPlan, generate_design
from repro.viz import render_svg


def main() -> None:
    design = generate_design(
        "demo-chip",
        48,
        48,
        clusters=[ClusterPlan(4), ClusterPlan(3), ClusterPlan(2)],
        n_singletons=5,
        n_pins=40,
        n_obstacles=60,
        seed=20150607,  # DAC'15 started June 7 2015
        core_fraction=0.5,
    )
    print(f"Generated {design!r}")

    results = {}
    for method in METHODS:
        result = run_method(design, method, PacorConfig(k_candidates=6))
        notes = verify_result(design, result)
        results[method] = result
        print(
            f"{method:13s}: matched {result.matched_clusters}/"
            f"{result.n_lm_clusters}, total length {result.total_length}, "
            f"completion {result.completion_rate:.0%}, "
            f"verified ({len(notes)} notes)"
        )

    print()
    rows = [result.summary_row() for result in results.values()]
    print(format_table(table2_headers(), table2_rows(rows)))

    svg_path = "demo_chip_pacor.svg"
    with open(svg_path, "w", encoding="utf-8") as handle:
        handle.write(render_svg(design, results["PACOR"], cell=10))
    print(f"\nWrote {svg_path}")


if __name__ == "__main__":
    main()

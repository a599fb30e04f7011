"""Standalone SVG rendering of routed solutions (no dependencies)."""

from __future__ import annotations

from typing import List, Optional

from repro.core.result import PacorResult, is_via_segment
from repro.designs.design import Design

_PALETTE = [
    "#4e79a7",
    "#f28e2b",
    "#e15759",
    "#76b7b2",
    "#59a14f",
    "#edc948",
    "#b07aa1",
    "#ff9da7",
    "#9c755f",
    "#bab0ac",
]


def _z(cell) -> int:
    return cell[2] if len(cell) == 3 else 0


def render_svg(
    design: Design,
    result: Optional[PacorResult] = None,
    *,
    cell: int = 6,
) -> str:
    """Return an SVG document showing obstacles, valves, pins and channels.

    Channels are drawn as one polyline per drawn segment chain; each net
    gets a palette colour (cycled).  ``cell`` is the pixel size per grid
    cell.

    Multi-layer designs render one panel per routing layer, left to
    right; a via is marked as a colour-ringed dot on *both* panels of
    the column it passes through.  Single-layer documents are
    byte-identical to the planar renderer's output.
    """
    grid = design.grid
    panel_w = grid.width * cell
    gap = cell if grid.layers > 1 else 0
    width = panel_w * grid.layers + gap * (grid.layers - 1)
    height = grid.height * cell

    def xoff(z: int) -> int:
        return z * (panel_w + gap)

    parts: List[str] = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="#ffffff"/>',
    ]
    if grid.layers > 1:
        for z in range(grid.layers):
            parts.append(
                f'<rect x="{xoff(z)}" y="0" width="{panel_w}" '
                f'height="{height}" fill="none" stroke="#dddddd"/>'
            )
    for p in grid.obstacle_cells():
        parts.append(
            f'<rect x="{xoff(_z(p)) + p[0] * cell}" y="{p[1] * cell}" '
            f'width="{cell}" height="{cell}" fill="#333333"/>'
        )
    if result is not None:
        for net in result.nets:
            colour = _PALETTE[net.net_id % len(_PALETTE)]
            for a, b in sorted(net.segments):
                if is_via_segment((a, b)):
                    # One ringed dot per panel the via connects.
                    for endpoint in (a, b):
                        parts.append(
                            f'<circle cx="{xoff(_z(endpoint)) + endpoint[0] * cell + cell / 2:.1f}" '
                            f'cy="{endpoint[1] * cell + cell / 2:.1f}" '
                            f'r="{cell / 3:.1f}" fill="#ffffff" '
                            f'stroke="{colour}" stroke-width="1.5"/>'
                        )
                    continue
                parts.append(
                    f'<line x1="{xoff(_z(a)) + a[0] * cell + cell / 2:.1f}" '
                    f'y1="{a[1] * cell + cell / 2:.1f}" '
                    f'x2="{xoff(_z(b)) + b[0] * cell + cell / 2:.1f}" '
                    f'y2="{b[1] * cell + cell / 2:.1f}" '
                    f'stroke="{colour}" stroke-width="{max(cell / 3, 1):.1f}" '
                    f'stroke-linecap="round"/>'
                )
            if net.pin is not None:
                parts.append(
                    f'<circle cx="{net.pin.x * cell + cell / 2:.1f}" '
                    f'cy="{net.pin.y * cell + cell / 2:.1f}" r="{cell / 2:.1f}" '
                    f'fill="none" stroke="{colour}" stroke-width="1.5"/>'
                )
    for pin in design.control_pins:
        parts.append(
            f'<rect x="{pin.x * cell + cell / 4:.1f}" '
            f'y="{pin.y * cell + cell / 4:.1f}" '
            f'width="{cell / 2:.1f}" height="{cell / 2:.1f}" fill="#cccccc"/>'
        )
    for valve in design.valves:
        p = valve.position
        parts.append(
            f'<circle cx="{p.x * cell + cell / 2:.1f}" '
            f'cy="{p.y * cell + cell / 2:.1f}" r="{cell / 2.5:.1f}" '
            f'fill="#d62728"/>'
        )
    parts.append("</svg>")
    return "\n".join(parts)

"""Tests for metric aggregation and report tables."""

import pytest

from repro.analysis import compare_methods, format_table, table1_rows, table2_rows
from repro.analysis.report import table2_headers
from repro.core.result import NetReport, PacorResult
from repro.designs import s1
from repro.geometry import Point


def row(method, design="D", matched=1, mlen=10, extra_len=10, runtime=1.0):
    """Build the summary row of a result whose aggregates come from stub nets.

    ``matched`` LM nets of length ``mlen`` each, plus one ordinary net of
    length ``extra_len``.
    """
    nets = []
    for i in range(matched):
        nets.append(
            NetReport(
                net_id=i,
                origin_cluster=i,
                valve_ids=[2 * i, 2 * i + 1],
                length_matching=True,
                routed=True,
                matched=True,
                channel_length=mlen,
                pin=Point(i, 0),
            )
        )
    nets.append(
        NetReport(
            net_id=99,
            origin_cluster=99,
            valve_ids=[98],
            length_matching=False,
            routed=True,
            channel_length=extra_len,
            pin=Point(9, 9),
        )
    )
    return PacorResult(
        design_name=design,
        method=method,
        delta=1,
        n_valves=2 * matched + 1,
        n_lm_clusters=max(matched, 1),
        nets=nets,
        runtime_s=runtime,
    ).summary_row()


class TestCompareMethods:
    def test_reference_is_unity(self):
        rows = [
            row("PACOR"),
            row("w/o Sel", matched=2, mlen=10, extra_len=20, runtime=2.0),
        ]
        comps = {c.method: c for c in compare_methods(rows)}
        assert comps["PACOR"].matched_ratio == pytest.approx(1.0)
        assert comps["PACOR"].total_length_ratio == pytest.approx(1.0)
        assert comps["w/o Sel"].matched_ratio == pytest.approx(2.0)
        assert comps["w/o Sel"].matched_length_ratio == pytest.approx(2.0)
        assert comps["w/o Sel"].total_length_ratio == pytest.approx(2.0)
        assert comps["w/o Sel"].runtime_ratio == pytest.approx(2.0)
        assert comps["w/o Sel"].min_completion == 1.0

    def test_missing_reference_rejected(self):
        with pytest.raises(ValueError):
            compare_methods([row("w/o Sel")])

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            compare_methods(
                [
                    row("PACOR", design="A"),
                    row("PACOR", design="B"),
                    row("w/o Sel", design="A"),
                ]
            )

    def test_zero_reference_skipped(self):
        rows = [row("PACOR", matched=0), row("w/o Sel", matched=1)]
        comps = {c.method: c for c in compare_methods(rows)}
        assert comps["w/o Sel"].matched_ratio == 0.0  # no valid pairs


class TestTables:
    def test_format_table_alignment(self):
        text = format_table(["A", "Blong"], [["1", "2"], ["333", "4"]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("A")
        assert "-" in lines[1]

    def test_table1_rows(self):
        rows = table1_rows([s1()])
        assert rows[0][0] == "S1"
        assert rows[0][1] == "12x12"
        assert rows[0][2] == 5

    def test_table2_rows_and_headers(self):
        rows = [
            row("PACOR", design="S1"),
            row("w/o Sel", design="S1"),
            row("Detour First", design="S1"),
        ]
        headers = table2_headers()
        table = table2_rows(rows)
        assert len(table) == 1
        assert len(table[0]) == len(headers)
        assert table[0][0] == "S1"

    def test_table2_requires_known_method(self):
        with pytest.raises(ValueError):
            table2_rows([row("bogus", design="S1")])

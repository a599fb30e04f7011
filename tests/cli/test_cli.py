"""Tests for the command-line front-end."""

import json

import pytest

from repro.cli import build_parser, main
from repro.core import METHODS
from repro.designs import generate_design, save_design


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_route_s1(capsys):
    assert main(["route", "S1", "--verify"]) == 0
    out = capsys.readouterr().out
    assert "S1" in out
    assert "completion=100.0%" in out
    assert "verification OK" in out


def test_route_with_method(capsys):
    assert main(["route", "S1", "--method", "w/o Sel"]) == 0
    assert "w/o Sel" in capsys.readouterr().out


def test_route_events_and_ascii(capsys):
    assert main(["route", "S1", "--events", "--ascii"]) == 0
    out = capsys.readouterr().out
    assert "clustering" in out
    assert "V" in out


def test_route_svg_export(tmp_path, capsys):
    svg_path = tmp_path / "s1.svg"
    assert main(["route", "S1", "--svg", str(svg_path)]) == 0
    assert svg_path.exists()
    assert svg_path.read_text().startswith("<svg")


def test_table1(capsys):
    assert main(["table1", "--no-chips"]) == 0
    out = capsys.readouterr().out
    assert "S1" in out and "12x12" in out
    assert "Chip1" not in out


def test_table2_single_design(tmp_path, capsys):
    rows = tmp_path / "rows.json"
    assert main(["table2", "--designs", "S1", "--json", str(rows)]) == 0
    out = capsys.readouterr().out
    assert "#Matched(PACOR)" in out
    assert "S1" in out
    # show renders the saved rows through the same code, byte for byte.
    assert main(["show", str(rows)]) == 0
    assert out == capsys.readouterr().out + f"wrote {rows}\n"


def test_table2_on_a_design_without_lm_clusters(tmp_path, capsys):
    design = generate_design(
        "no-lm",
        30,
        30,
        clusters=[],
        n_singletons=6,
        n_pins=20,
        n_obstacles=10,
        seed=3,
    )
    path = tmp_path / "no-lm.json"
    save_design(design, path)
    rows_path = tmp_path / "rows.json"
    # table2 verifies every run; a violation would raise here.
    assert main(["table2", "--designs", str(path), "--json", str(rows_path)]) == 0
    out = capsys.readouterr().out
    assert "#Matched(PACOR)" in out and "Avg. (PACOR = 1)" in out
    rows = json.loads(rows_path.read_text())
    assert [row["method"] for row in rows] == list(METHODS)
    assert all(row["n_clusters"] == 0 for row in rows)
    assert all(row["completion"] == 1.0 for row in rows)


def test_generate_and_route_roundtrip(tmp_path, capsys):
    out_file = tmp_path / "custom.json"
    assert (
        main(
            [
                "generate",
                str(out_file),
                "--width",
                "25",
                "--height",
                "25",
                "--cluster-sizes",
                "2",
                "3",
                "--singletons",
                "2",
                "--pins",
                "16",
                "--obstacles",
                "8",
                "--seed",
                "4",
            ]
        )
        == 0
    )
    doc = json.loads(out_file.read_text())
    assert doc["width"] == 25
    capsys.readouterr()
    assert main(["route", str(out_file), "--verify"]) == 0
    assert "verification OK" in capsys.readouterr().out


def test_unknown_design_exits_2_with_one_line_diagnosis(capsys):
    # Regression: this used to escape as a raw ValueError traceback
    # because _resolve_design ran outside main()'s try block.
    assert main(["route", "S99"]) == 2
    err = capsys.readouterr().err
    assert "error: unknown design 'S99'" in err
    assert "Traceback" not in err


def test_unknown_design_exits_2_in_every_subcommand(capsys):
    for argv in (
        ["route", "NOPE"],
        ["table2", "--designs", "NOPE"],
        ["skew", "NOPE"],
    ):
        assert main(argv) == 2, argv
        assert "error:" in capsys.readouterr().err


def test_skew_command(capsys):
    assert main(["skew", "S1"]) == 0
    out = capsys.readouterr().out
    assert "switching skew" in out
    assert "quality ratio" in out


def test_skew_command_linear_model(capsys):
    assert main(["skew", "S1", "--alpha", "1.0", "--tau0", "1.0"]) == 0
    out = capsys.readouterr().out
    assert "alpha=1" in out


def test_route_json_export(tmp_path, capsys):
    out = tmp_path / "s1_result.json"
    assert main(["route", "S1", "--json", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["summary"]["design"] == "S1"
    assert doc["summary"]["completion"] == 1.0
    assert len(doc["nets"]) >= 3
    assert all("segments" in n for n in doc["nets"])


def test_route_checkpoint_written_on_budget_exhaustion(tmp_path, capsys):
    ckpt = tmp_path / "ckpt.json"
    assert (
        main(
            [
                "route",
                "S3",
                "--expansion-budget",
                "200",
                "--checkpoint",
                str(ckpt),
            ]
        )
        == 0
    )
    captured = capsys.readouterr()
    assert "degraded" in captured.err
    assert f"wrote {ckpt}" in captured.out
    doc = json.loads(ckpt.read_text())
    assert doc["version"] == 1
    assert doc["design"]["name"] == "S3"


def test_route_checkpoint_not_written_without_interruption(tmp_path, capsys):
    ckpt = tmp_path / "ckpt.json"
    assert main(["route", "S1", "--checkpoint", str(ckpt)]) == 0
    captured = capsys.readouterr()
    assert not ckpt.exists()
    assert "no budget interruption" in captured.err


def test_resume_completes_an_interrupted_run(tmp_path, capsys):
    ckpt = tmp_path / "ckpt.json"
    main(["route", "S3", "--expansion-budget", "200", "--checkpoint", str(ckpt)])
    capsys.readouterr()
    assert main(["resume", str(ckpt), "--verify"]) == 0
    out = capsys.readouterr().out
    assert "resuming S3" in out
    assert "completion=100.0%" in out
    assert "verification OK" in out


def test_resume_malformed_checkpoint_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"bogus": 1}')
    assert main(["resume", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "missing required field" in err
    assert "Traceback" not in err


def test_resume_missing_file_exits_2(tmp_path, capsys):
    assert main(["resume", str(tmp_path / "nope.json")]) == 2
    assert "file not found" in capsys.readouterr().err


def test_show_saved_results(tmp_path, capsys):
    rows = [
        {
            "design": "S1",
            "method": "PACOR",
            "n_clusters": 2,
            "matched_clusters": 2,
            "total_matched_length": 14,
            "total_length": 17,
            "completion": 1.0,
            "runtime_s": 0.01,
        }
    ]
    path = tmp_path / "rows.json"
    path.write_text(json.dumps(rows))
    assert main(["show", str(path)]) == 0
    out = capsys.readouterr().out
    assert "PACOR" in out and "100%" in out


def test_show_row_without_method_exits_2(tmp_path, capsys):
    path = tmp_path / "rows.json"
    path.write_text(json.dumps([{"design": "S1", "n_clusters": 2}]))
    assert main(["show", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert str(path) in err and "'method'" in err


def test_show_non_json_file_exits_2(tmp_path, capsys):
    path = tmp_path / "rows.json"
    path.write_text("Design  #Clusters\n")
    assert main(["show", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert str(path) in err and "not valid JSON" in err


def test_route_trace_and_metrics_export(tmp_path, capsys):
    trace = tmp_path / "t.jsonl"
    metrics = tmp_path / "m.json"
    chrome = tmp_path / "c.json"
    assert (
        main(
            [
                "route",
                "S1",
                "--trace",
                str(trace),
                "--metrics",
                str(metrics),
                "--chrome-trace",
                str(chrome),
            ]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert f"wrote {trace}" in out
    assert f"wrote {metrics}" in out
    assert f"wrote {chrome}" in out
    from repro.observability import (
        read_trace_jsonl,
        validate_metrics_doc,
        validate_spans,
    )

    docs = read_trace_jsonl(trace)
    assert validate_spans(docs) == []
    assert any(d["category"] == "stage" for d in docs)
    metrics_doc = json.loads(metrics.read_text())
    assert validate_metrics_doc(metrics_doc) == []
    assert metrics_doc["counters"]["astar.expansions"] > 0
    chrome_doc = json.loads(chrome.read_text())
    assert chrome_doc["traceEvents"][0]["ph"] == "X"


def test_profile_command_prints_stage_table(tmp_path, capsys):
    trace = tmp_path / "t.jsonl"
    main(["route", "S1", "--trace", str(trace)])
    capsys.readouterr()
    assert main(["profile", str(trace), "--top", "2"]) == 0
    out = capsys.readouterr().out
    assert "per-stage wall clock" in out
    assert "lm-routing" in out
    assert "nets by A* expansions" in out


def test_profile_command_rejects_bad_file(tmp_path, capsys):
    bad = tmp_path / "bad.jsonl"
    bad.write_text("not json\n")
    assert main(["profile", str(bad)]) == 2
    assert "error:" in capsys.readouterr().err


def test_route_reports_incident_summary(capsys):
    assert main(["route", "S3", "--expansion-budget", "200"]) == 0
    out = capsys.readouterr().out
    assert "incidents:" in out
    assert "degraded" in out


def test_resume_reports_carried_observability(tmp_path, capsys):
    ckpt = tmp_path / "ckpt.json"
    trace1 = tmp_path / "t1.jsonl"
    main(
        [
            "route",
            "S3",
            "--expansion-budget",
            "200",
            "--checkpoint",
            str(ckpt),
            "--trace",
            str(trace1),
        ]
    )
    capsys.readouterr()
    trace2 = tmp_path / "t2.jsonl"
    assert main(["resume", str(ckpt), "--trace", str(trace2)]) == 0
    out = capsys.readouterr().out
    assert "carried over from the interrupted run" in out
    assert "trace spans stitched" in out
    # The two trace files concatenate into one valid trace.
    from repro.observability import read_trace_jsonl, validate_spans

    combined = read_trace_jsonl(trace1) + read_trace_jsonl(trace2)
    assert validate_spans(combined) == []
    assert len({d["trace_id"] for d in combined}) == 1


# -- checkpoint diagnostics (robustness PR satellite) -------------------------


def _interrupted_checkpoint(tmp_path):
    ckpt = tmp_path / "ckpt.json"
    main(["route", "S3", "--expansion-budget", "200", "--checkpoint", str(ckpt)])
    assert ckpt.exists(), "budget never tripped"
    return ckpt


def test_resume_version_mismatch_exits_2(tmp_path, capsys):
    ckpt = _interrupted_checkpoint(tmp_path)
    capsys.readouterr()
    doc = json.loads(ckpt.read_text())
    doc["version"] = 99
    ckpt.write_text(json.dumps(doc))
    assert main(["resume", str(ckpt)]) == 2
    err = capsys.readouterr().err
    assert "unsupported checkpoint version 99" in err
    assert "Traceback" not in err
    assert err.strip().count("\n") == 0  # one-line diagnostic


def test_resume_truncated_net_doc_exits_2(tmp_path, capsys):
    ckpt = _interrupted_checkpoint(tmp_path)
    capsys.readouterr()
    doc = json.loads(ckpt.read_text())
    doc["nets"][0].pop("routed")
    ckpt.write_text(json.dumps(doc))
    assert main(["resume", str(ckpt)]) == 2
    err = capsys.readouterr().err
    assert "missing field 'routed'" in err
    assert "Traceback" not in err
    assert err.strip().count("\n") == 0  # one-line diagnostic


# -- physical faults and repair -----------------------------------------------


def _fault_file_hitting(tmp_path, result_path):
    """Write a fault map blocking one routed channel cell of the result."""
    from repro.designs import design_by_name

    doc = json.loads(result_path.read_text())
    design = design_by_name(doc["summary"]["design"])
    keep_out = {(v.position.x, v.position.y) for v in design.valves}
    for net in doc["nets"]:
        if net["routed"]:
            keep_out.add(tuple(net["pin"]))
    cell = next(
        tuple(c)
        for net in doc["nets"]
        if net["routed"]
        for c in net["cells"]
        if tuple(c) not in keep_out
    )
    path = tmp_path / "faults.json"
    path.write_text(
        json.dumps(
            {
                "version": 1,
                "faulty_cells": [list(cell)],
                "stuck_valves": [],
                "events": [],
            }
        )
    )
    return path


def test_repair_heals_a_saved_result(tmp_path, capsys):
    res = tmp_path / "r.json"
    main(["route", "S1", "--json", str(res)])
    capsys.readouterr()
    faults_path = _fault_file_hitting(tmp_path, res)
    healed = tmp_path / "healed.json"
    assert (
        main(
            [
                "repair",
                str(res),
                "--faults",
                str(faults_path),
                "--verify",
                "--json",
                str(healed),
            ]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert "1 nets affected, 1 repaired, 0 degraded" in out
    assert "verification OK" in out
    assert healed.exists()


def test_repair_without_faults_exits_2(tmp_path, capsys):
    res = tmp_path / "r.json"
    main(["route", "S1", "--json", str(res)])
    capsys.readouterr()
    assert main(["repair", str(res)]) == 2
    assert "--faults" in capsys.readouterr().err


def test_repair_rejects_malformed_fault_file(tmp_path, capsys):
    res = tmp_path / "r.json"
    main(["route", "S1", "--json", str(res)])
    capsys.readouterr()
    bad = tmp_path / "faults.json"
    bad.write_text('{"version": 42}')
    assert main(["repair", str(res), "--faults", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "unsupported fault-map version" in err
    assert "Traceback" not in err


def test_route_with_static_faults(tmp_path, capsys):
    res = tmp_path / "r.json"
    main(["route", "S1", "--json", str(res)])
    capsys.readouterr()
    faults_path = _fault_file_hitting(tmp_path, res)
    assert main(["route", "S1", "--faults", str(faults_path), "--verify"]) == 0
    out = capsys.readouterr().out
    assert "completion=100.0%" in out
    assert "verification OK" in out


# -- service commands (serve / submit / jobs / hash) -------------------------


def test_hash_prints_canonical_hash(capsys):
    from repro.designs import design_by_name

    assert main(["hash", "S1"]) == 0
    out = capsys.readouterr().out.strip()
    assert out == design_by_name("S1").canonical_hash()
    assert len(out) == 64


def test_hash_with_name_suffix(capsys):
    assert main(["hash", "S2", "--with-name"]) == 0
    out = capsys.readouterr().out.strip()
    digest, name = out.split()
    assert len(digest) == 64
    assert name == "S2"


def test_hash_is_stable_across_save_reload(tmp_path, capsys):
    """A design saved to JSON and re-hashed from the file matches."""
    import json as _json

    from repro.designs import design_by_name, design_to_json

    path = tmp_path / "s1.json"
    path.write_text(_json.dumps(design_to_json(design_by_name("S1"))))
    assert main(["hash", str(path)]) == 0
    out = capsys.readouterr().out.strip()
    assert out == design_by_name("S1").canonical_hash()


def test_hash_unknown_design_exits_2(capsys):
    assert main(["hash", "S99"]) == 2
    assert "Traceback" not in capsys.readouterr().err


def test_submit_without_service_location_exits_2(capsys):
    assert main(["submit", "S1"]) == 2
    err = capsys.readouterr().err
    assert "--url" in err or "--root" in err


def test_submit_with_missing_service_json_exits_2(tmp_path, capsys):
    assert main(["submit", "S1", "--root", str(tmp_path)]) == 2
    assert "service.json" in capsys.readouterr().err


def test_jobs_with_malformed_service_json_exits_2(tmp_path, capsys):
    (tmp_path / "service.json").write_text("{broken")
    assert main(["jobs", "--root", str(tmp_path)]) == 2
    assert "not valid JSON" in capsys.readouterr().err


def test_submit_wait_and_jobs_against_live_service(tmp_path, capsys):
    """Full CLI loop: serve (in-process), submit --wait, jobs, cache hit."""
    from repro.service import PacorService, ServiceAPIServer

    service = PacorService(tmp_path / "svc", workers=1)
    server = ServiceAPIServer(service)
    service.start()
    server.start()
    try:
        assert (
            main(["submit", "S1", "--url", server.url, "--wait"]) == 0
        )
        out = capsys.readouterr().out
        assert "j000001: succeeded" in out
        assert "completion=100.0%" in out
        # Identical re-submission answers from the cache.
        assert (
            main(["submit", "S1", "--url", server.url, "--wait"]) == 0
        )
        assert "(cache hit)" in capsys.readouterr().out
        assert main(["jobs", "--url", server.url]) == 0
        table = capsys.readouterr().out
        assert "j000001" in table and "j000002" in table
        assert "cache hit" in table
        assert main(["jobs", "--url", server.url, "--stats"]) == 0
        stats = capsys.readouterr().out
        assert '"service.cache_hits": 1' in stats
    finally:
        server.stop()
        service.stop(graceful=False, timeout=10.0)

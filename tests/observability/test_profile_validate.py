"""Trace profiling and the schema validators (the CI gate)."""

import json

from repro.observability import (
    Tracer,
    format_profile,
    profile_spans,
    profile_trace_file,
    validate_metrics_doc,
    validate_spans,
)
from repro.observability.validate import main as validate_main


def _sample_trace():
    tracer = Tracer()
    with tracer.span("route", category="flow", design="S1"):
        with tracer.span("lm-routing", category="stage"):
            with tracer.span("edge", category="net", net_id=1, astar_expansions=40):
                pass
            with tracer.span("edge", category="net", net_id=2, astar_expansions=10):
                pass
        with tracer.span("escape", category="stage"):
            pass
    return tracer


def test_profile_aggregates_stages_and_nets():
    tracer = _sample_trace()
    profile = profile_spans([s.to_json() for s in tracer.spans], top_k=5)
    assert profile.trace_id == tracer.trace_id
    assert profile.designs == ["S1"]
    assert [s.stage for s in profile.stages] == ["lm-routing", "escape"]
    assert all(s.spans == 1 for s in profile.stages)
    assert profile.flow_s > 0
    assert all(0.0 <= s.share <= 1.0 for s in profile.stages)
    # Nets ranked by expansions, stage column from the enclosing stage.
    assert [n.net_id for n in profile.top_nets] == [1, 2]
    assert profile.top_nets[0].astar_expansions == 40
    assert profile.top_nets[0].stages == ["lm-routing"]


def test_profile_top_k_limits_nets():
    tracer = _sample_trace()
    profile = profile_spans([s.to_json() for s in tracer.spans], top_k=1)
    assert len(profile.top_nets) == 1
    assert profile.top_nets[0].net_id == 1


def test_profile_sums_reentered_stages():
    tracer = Tracer()
    with tracer.span("route", category="flow"):
        with tracer.span("escape", category="stage"):
            pass
        with tracer.span("escape", category="stage"):
            pass
    profile = profile_spans([s.to_json() for s in tracer.spans])
    (row,) = profile.stages
    assert row.spans == 2


def test_format_profile_renders_tables():
    tracer = _sample_trace()
    profile = profile_spans([s.to_json() for s in tracer.spans])
    text = format_profile(profile)
    assert "per-stage wall clock" in text
    assert "lm-routing" in text
    assert "top 2 nets by A* expansions" in text


def _span(span_id, parent_id, name, category, **attrs):
    return {
        "trace_id": "t",
        "span_id": span_id,
        "parent_id": parent_id,
        "name": name,
        "category": category,
        "dur_s": 0.01,
        "attrs": attrs,
    }


def test_profile_tables_failed_and_pruned_searches_per_net_and_stage():
    edge = "negotiation-edge"
    spans = [
        _span("f", None, "route", "flow"),
        _span("lm", "f", "lm-routing", "stage"),
        _span("k", "lm", "negotiation", "kernel"),
        _span("e1", "k", edge, "net", net_id=7, astar_expansions=600,
              routed=False),
        _span("e2", "k", edge, "net", net_id=7, astar_expansions=0,
              routed=False, pruned=True),
        _span("e3", "k", edge, "net", net_id=7, astar_expansions=0,
              routed=False, pruned=True),
        _span("e4", "k", edge, "net", net_id=3, astar_expansions=100,
              routed=True),
        _span("e5", "k", edge, "net", net_id=3, astar_expansions=0,
              routed=False, pruned=True),
        _span("mst", "f", "mst-routing", "stage"),
        _span("m1", "mst", "mst-net", "net", net_id=7, astar_expansions=300),
    ]
    profile = profile_spans(spans)
    rows = [
        (w.net_id, w.stage, w.failed, w.pruned, w.astar_expansions, w.share)
        for w in profile.wasted
    ]
    # Only routed=false spans count; the share is of all 1,000 expansions.
    assert rows == [
        (7, "lm-routing", 3, 2, 600, 0.6),
        (3, "lm-routing", 1, 1, 0, 0.0),
    ]
    text = format_profile(profile)
    assert "wasted searches: 4 failed (3 pruned), 600 expansions, 60.0%" in text
    assert "Pruned" in text


def test_profile_without_failed_searches_reports_none():
    profile = profile_spans([s.to_json() for s in _sample_trace().spans])
    assert profile.wasted == []
    assert "wasted searches: 0 failed (0 pruned)" in format_profile(profile)


def test_profile_trace_file(tmp_path):
    tracer = _sample_trace()
    path = tmp_path / "t.jsonl"
    tracer.export_jsonl(path)
    profile = profile_trace_file(str(path), top_k=3)
    assert profile.n_spans == 5


def test_validate_spans_flags_structural_problems():
    good = {
        "trace_id": "t",
        "span_id": "t:1",
        "parent_id": None,
        "name": "root",
        "category": "flow",
        "ts": 0.0,
        "dur_s": 0.5,
        "attrs": {},
    }
    assert validate_spans([good]) == []
    duplicate = dict(good)
    assert any("duplicate" in p for p in validate_spans([good, duplicate]))
    missing = {k: v for k, v in good.items() if k != "name"}
    assert any("missing field 'name'" in p for p in validate_spans([missing]))
    dangling = dict(good, span_id="t:2", parent_id="t:99")
    assert any("not in this trace" in p for p in validate_spans([good, dangling]))
    stitched = dict(
        good, span_id="t:3", parent_id="other:1", attrs={"resumed_from": "other:1"}
    )
    assert validate_spans([good, stitched]) == []
    orphans_only = [dict(good, parent_id="gone:1")]
    assert any("not in this trace" in p for p in validate_spans(orphans_only))


def test_validate_spans_requires_a_root():
    a = {
        "trace_id": "t",
        "span_id": "t:1",
        "parent_id": "t:2",
        "name": "a",
        "category": "stage",
        "ts": 0.0,
        "dur_s": 0.1,
        "attrs": {},
    }
    b = dict(a, span_id="t:2", parent_id="t:1", name="b")
    assert any("no root" in p for p in validate_spans([a, b]))


def test_validate_metrics_doc():
    assert validate_metrics_doc({"counters": {"a": 1}, "gauges": {"g": 0.5}}) == []
    assert validate_metrics_doc([]) != []
    assert any("missing section" in p for p in validate_metrics_doc({"counters": {}}))
    bad_counter = {"counters": {"a": -1}, "gauges": {}}
    assert any("negative" in p for p in validate_metrics_doc(bad_counter))
    not_int = {"counters": {"a": 1.5}, "gauges": {}}
    assert any("integer" in p for p in validate_metrics_doc(not_int))
    bool_gauge = {"counters": {}, "gauges": {"g": True}}
    assert any("number" in p for p in validate_metrics_doc(bool_gauge))


def test_validate_main_exit_codes(tmp_path, capsys):
    tracer = _sample_trace()
    trace = tmp_path / "t.jsonl"
    tracer.export_jsonl(trace)
    metrics = tmp_path / "m.json"
    metrics.write_text(json.dumps({"counters": {"a": 1}, "gauges": {}}))
    assert validate_main([str(trace), str(metrics)]) == 0
    assert "OK" in capsys.readouterr().out

    broken = tmp_path / "broken.jsonl"
    broken.write_text('{"span_id": "only"}\n')
    assert validate_main([str(broken)]) == 1
    assert "error" in capsys.readouterr().err

    assert validate_main([]) == 2

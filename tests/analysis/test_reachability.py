"""No test-only islands: every module in ``src/repro`` is reached from an
entry point, or has a named non-test user the call graph cannot see."""

from pathlib import Path

from repro.analysis.graph import build_graph
from repro.analysis.lint import collect_files
from repro.analysis.lint.core import registered_rules

REPO_ROOT = Path(__file__).resolve().parents[2]

#: Everything a user or CI runs: the CLI, the routing service, the flow
#: itself and the modules CI invokes with ``python -m``.
ENTRY_MODULES = (
    "repro.cli",
    "repro.service",
    "repro.core.pacor",
    "repro.robustness.storm",
    "repro.observability.validate",
    "repro.analysis.lint.runner",
)

#: Modules no entry point reaches, each with its user outside tests.
ALLOWLIST = {
    "repro.designs.perturb": "benchmarks/bench_robustness.py",
    "repro.designs.stress": "benchmarks/bench_contention.py",
    "repro.routing.lee": "benchmarks/bench_kernels.py (Lee oracle)",
    "repro.escape.constraints": "the escape property-test oracle",
    "repro.valves.valve": "dataclass methods called on untyped values",
}


def test_every_module_is_reached_from_an_entry_point():
    graph = build_graph(collect_files([REPO_ROOT / "src" / "repro"], REPO_ROOT))
    entries = [
        info.qname for mod in ENTRY_MODULES for info in graph.functions_in(mod)
    ]
    # pacorlint dispatches its rules through the @register registry.
    entries += [
        f"{rule.__module__}.{rule.__qualname__}.{method}"
        for rule in registered_rules().values()
        for method in ("check", "check_project", "check_graph")
    ]
    reached = graph.reachable(entries)
    modules = {info.module for info in graph.functions.values()}
    reached_modules = {
        info.module for info in graph.functions.values() if info.qname in reached
    }
    islands = sorted(modules - reached_modules - ALLOWLIST.keys())
    assert islands == [], f"modules only tests reach: {islands}"
    # An allowlisted module that became reachable should leave the list.
    stale = sorted(ALLOWLIST.keys() & reached_modules)
    assert stale == [], f"allowlist entries now reached: {stale}"

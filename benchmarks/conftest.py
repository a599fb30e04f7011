"""Shared fixtures and options for the benchmark harness.

Every benchmark regenerates one figure or ablation of the paper (see
DESIGN.md's experiment index); ``pacor table1`` and ``pacor table2``
print the paper's tables.
"""

import json
from pathlib import Path

import pytest

_KERNEL_BENCH_FILE = "bench_kernels.py"
_KERNEL_RATES_PATH = Path(__file__).resolve().parents[1] / "BENCH_kernels.json"
_RATE_KEYS = (
    "expansions_per_sec",
    "expansions_per_sec_peak",
    "states_per_sec",
    "routes_per_sec",
    "speedup_vs_point_kernel",
    "speedup_vs_scalar_engine",
    "scalar_expansions_per_sec_peak",
)


def pytest_sessionfinish(session, exitstatus):
    """Persist the kernel-core throughput rates to ``BENCH_kernels.json``.

    The repo root carries the committed baseline; every run of the
    kernel benchmarks rewrites the file with fresh rates, so a perf
    regression shows up as a reviewable diff — and
    ``bench_kernels._check_against_baseline`` fails the run outright
    when the headline rate drops more than its tolerance (the committed
    numbers are read before this rewrite).
    """
    bench_session = getattr(session.config, "_benchmarksession", None)
    if bench_session is None:
        return
    rows = {}
    for bench in bench_session.benchmarks:
        if _KERNEL_BENCH_FILE not in str(bench.fullname):
            continue
        rates = {
            key: bench.extra_info[key]
            for key in _RATE_KEYS
            if key in bench.extra_info
        }
        if rates:
            rows[bench.name] = rates
    if rows:
        _KERNEL_RATES_PATH.write_text(
            json.dumps({"benchmarks": rows}, indent=2, sort_keys=True) + "\n"
        )


@pytest.fixture
def effort(benchmark):
    """Install a metrics registry and record its counters per benchmark.

    Routers constructed while the fixture is active pick the registry up
    from the observability context; after the benchmark the counter
    values (A* expansions, MCF augmenting paths, rip-up rounds, ...) land
    in ``benchmark.extra_info["counters"]``, so saved benchmark JSON
    explains *why* a row's runtime moved, not just that it did.
    """
    from repro.observability import Metrics, use

    registry = Metrics()
    with use(metrics=registry):
        yield registry
    benchmark.extra_info["counters"] = registry.counter_values()

"""Benchmark harness helpers.

Each bench regenerates one paper table/figure, prints the paper-style rows,
and asserts the qualitative shape (who wins, roughly by how much). Heavy
experiment drivers run once per bench (pedantic mode) — the timing value
reported by pytest-benchmark is the experiment's end-to-end cost.

Run with:  pytest benchmarks/ --benchmark-only -s
"""

import pytest


def pytest_addoption(parser):
    parser.addoption(
        "--shards",
        type=int,
        default=4,
        help="shard count for the service-throughput store benches "
             "(bench_service_throughput.py)",
    )
    parser.addoption(
        "--remote",
        action="store_true",
        default=False,
        help="run the remote-fabric service bench (store server + worker "
             "fabric over loopback TCP; bench_service_throughput.py)",
    )
    parser.addoption(
        "--scheduler",
        action="store_true",
        default=False,
        help="run the cluster-scheduler benches (worker x parts-per-worker "
             "sweep and the straggler steal-vs-static scenario; "
             "bench_service_throughput.py)",
    )
    parser.addoption(
        "--loadgen",
        action="store_true",
        default=False,
        help="run the loadgen-backed clients x shards x workers scaling "
             "sweep (printed as a table; "
             "bench_service_throughput.py)",
    )


@pytest.fixture
def shards(request):
    return request.config.getoption("--shards")


@pytest.fixture
def remote_mode(request):
    if not request.config.getoption("--remote"):
        pytest.skip("remote-fabric bench runs with --remote")
    return True


@pytest.fixture
def scheduler_mode(request):
    if not request.config.getoption("--scheduler"):
        pytest.skip("cluster-scheduler benches run with --scheduler")
    return True


@pytest.fixture
def loadgen_mode(request):
    if not request.config.getoption("--loadgen"):
        pytest.skip("loadgen scaling sweep runs with --loadgen")
    return True


def run_once(benchmark, fn, *args, **kwargs):
    """Execute an experiment exactly once under pytest-benchmark."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)


@pytest.fixture
def show():
    """Print an ExperimentResult as a paper-style ASCII table."""
    from repro.analysis.reporting import ascii_table

    def _show(result):
        print()
        print(ascii_table(result.headers, result.rows(), result.name))
        if result.summary:
            for key, value in result.summary.items():
                print(f"  {key}: {value:.4g}")
        return result

    return _show

"""The benchmark's span tracer must find every function it wraps, and count
the tests of every adaptive run it sees.

``benchmarks/tracer.py`` looks each traced function up under the names its
callers use, such as ``oracle.run_adaptive``; a name that stops resolving
would crash the traced benchmark run.  It counts adaptive tests only through
``run_adaptive``, and the exact-oracle workload opens a cell on each of its
calls, so every campaign plan and every oracle pass must run through it.
"""

import importlib.util
import os
import sys

from priorgt import oracle

BENCHMARKS = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "benchmarks")


def load_benchmark_module(name):
    spec = importlib.util.spec_from_file_location(f"benchmark_{name}", os.path.join(BENCHMARKS, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    # Dataclasses look their module up by name.
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def test_benchmark_tracer_sites_resolve_to_priorgt_functions():
    assert load_benchmark_module("tracer").unwrapped_sites()


def traced_tiny_unit(workload, cell_opener, tmp_path):
    """The first tiny unit of ``workload`` run under a tracer; returns the
    tracer's per-layer metrics, its last cell id and the unit's result."""
    tracer, workloads = load_benchmark_module("tracer"), load_benchmark_module("workloads")
    unit = workloads.build_units(workload, workloads.DEFAULT_SEED, str(tmp_path), tiny=True)[0]
    traced = tracer.Tracer(cell_opener)
    traced.install()
    try:
        result = unit.run()
    finally:
        traced.uninstall()
    assert tracer.unwrapped_sites()
    assert result.failures == [] and result.cells > 0
    return traced.metrics(repeats=1, overhead_s=0.0), traced.cell, result


def test_benchmark_tracer_counts_prepartitioned_tests(tmp_path):
    metrics, _, result = traced_tiny_unit("prepart_scale", "sim.draw_truth", tmp_path)
    tests = metrics["adaptive.tests"]["value"]
    assert tests >= 1
    assert tests == sum(result.tests)


def test_benchmark_tracer_counts_whole_vector_tests(tmp_path):
    metrics, _, result = traced_tiny_unit("adaptive_mc", "sim.draw_truth", tmp_path)
    tests = metrics["adaptive.tests"]["value"]
    assert tests >= 1
    assert tests == sum(result.tests)
    assert metrics["adaptive.run_adaptive.calls"]["value"] >= 1


def test_benchmark_tracer_opens_oracle_cells_and_counts_their_tests(tmp_path):
    # The oracles keep the last plan's pass; an equal plan from an earlier
    # test would be served without a call.
    oracle._plan_pass.cache_clear()
    metrics, cell, _ = traced_tiny_unit("exact_oracle", "adaptive.run_adaptive", tmp_path)
    assert cell >= 0
    assert metrics["adaptive.tests"]["value"] >= 1

"""The benchmark's span tracer must find every function it wraps, and count
the tests of every adaptive run it sees.

``benchmarks/tracer.py`` looks each traced function up under the names its
callers use, such as ``oracle.run_adaptive``; a name that stops resolving
would crash the traced benchmark run.  It counts adaptive tests only through
``run_adaptive``, so a campaign that ran pre-partitioned plans some other
way would read zero tests.
"""

import importlib.util
import os
import sys

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


def test_benchmark_tracer_counts_prepartitioned_tests(tmp_path):
    tracer, workloads = load_benchmark_module("tracer"), load_benchmark_module("workloads")
    unit = workloads.build_units("prepart_scale", workloads.DEFAULT_SEED, str(tmp_path), tiny=True)[0]
    traced = tracer.Tracer("sim.draw_truth")
    traced.install()
    try:
        result = unit.run()
    finally:
        traced.uninstall()
    assert tracer.unwrapped_sites()
    assert result.failures == [] and result.cells > 0
    tests = traced.metrics(repeats=1, overhead_s=0.0)["adaptive.tests"]["value"]
    assert tests >= 1
    assert tests == sum(result.tests)

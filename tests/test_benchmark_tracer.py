"""The benchmark's span tracer must find every function it wraps.

``benchmarks/tracer.py`` looks each traced function up under the names its
callers use, such as ``oracle.run_adaptive``; a name that stops resolving
would crash the traced benchmark run.
"""

import importlib.util
import os

TRACER = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "benchmarks", "tracer.py")


def test_benchmark_tracer_sites_resolve_to_priorgt_functions():
    spec = importlib.util.spec_from_file_location("benchmark_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.unwrapped_sites()

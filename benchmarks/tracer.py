"""Span tracer for the traced benchmark run.

Wraps priorgt's public functions at the names their callers look up (for
example ``oracle.run_adaptive`` as well as ``adaptive.run_adaptive``), keeps
one span per call in memory, and turns the spans into per-layer metrics at
the end.  A span records its name, start, end, parent span and cell id; a
call to the workload's cell-opening function starts a new cell id.  Times
are wall-clock, not scaled to the host's reference speed.  The untraced run
never installs a wrapper: ``unwrapped_sites`` proves that.
"""

from __future__ import annotations

import time
from array import array

import numpy as np

from priorgt import adaptive, bounds, cli, nonadaptive, oracle, partition, priors, sim

# Span name -> every (module, attribute) that callers resolve it through.
SITES = {
    "cli.main": [(cli, "main")],
    "sim.run_campaign": [(sim, "run_campaign")],
    "sim.draw_truth": [(sim, "draw_truth")],
    "sim.summarize": [(sim, "summarize")],
    "sim.trials_csv_text": [(sim, "trials_csv_text")],
    "priors.generate_prior": [(priors, "generate_prior"), (sim, "generate_prior")],
    "partition.build_partition": [
        (partition, "build_partition"),
        (adaptive, "build_partition"),
        (nonadaptive, "build_partition"),
    ],
    "partition.combine_for_concentration": [
        (partition, "combine_for_concentration"),
        (adaptive, "combine_for_concentration"),
    ],
    "adaptive.build_plan": [(adaptive, "build_plan")],
    "adaptive.run_adaptive": [(adaptive, "run_adaptive"), (oracle, "run_adaptive")],
    "adaptive.run_prepartitioned_adaptive": [(adaptive, "run_prepartitioned_adaptive")],
    "nonadaptive.build_cca_matrix": [(nonadaptive, "build_cca_matrix")],
    "nonadaptive.build_block_matrix": [(nonadaptive, "build_block_matrix")],
    "nonadaptive.run_nonadaptive": [(nonadaptive, "run_nonadaptive"), (oracle, "run_nonadaptive")],
    "nonadaptive.decode_comp": [(nonadaptive, "decode_comp")],
    "oracle.exact_expected_tests": [(oracle, "exact_expected_tests")],
    "oracle.exhaustive_decode_check": [(oracle, "exhaustive_decode_check")],
    "bounds.adaptive_expected_upper": [(bounds, "adaptive_expected_upper")],
}
SPAN_NAMES = tuple(SITES)
STATS = (("calls", "count"), ("total_s", "s"), ("self_s", "s"), ("p50_ms", "ms"), ("p99_ms", "ms"))
COUNTS = (
    ("adaptive.tests", "tests"),
    ("nonadaptive.rows", "rows"),
    ("nonadaptive.negative_rows", "rows"),
    ("nonadaptive.recovery_ratio", "ratio"),
    ("oracle.truth_vectors", "count"),
)
# A p99 needs this many samples: at least ten beyond the percentile.
P99_MIN_CALLS = 1000


def per_layer_metric_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units = {f"{name}.{stat}": unit for name in SPAN_NAMES for stat, unit in STATS}
    units.update(COUNTS)
    units["trace.overhead_s"] = "s"
    return units


def _original(name: str):
    module_name, attr = name.split(".")
    return getattr(globals()[module_name], attr)


def unwrapped_sites() -> bool:
    """True when every traced name still resolves to priorgt's own function."""
    for name, sites in SITES.items():
        original = _original(name)
        for module, attr in sites:
            fn = getattr(module, attr)
            if fn is not original or hasattr(fn, "__wrapped__"):
                return False
    return True


class Tracer:
    """In-memory span store plus the wrappers that fill it."""

    def __init__(self, cell_opener: str):
        self.cell_opener = cell_opener
        self.name_id = {name: k for k, name in enumerate(SPAN_NAMES)}
        self.names = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("i")
        self.cells = array("i")
        self.cell = -1
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self.tests_used: dict[int, int] = {}
        self.nonadaptive_rows = 0
        self.negative_rows = 0
        self.decodes = 0
        self.recoveries = 0
        self.truth_vectors = 0

    def _wrap(self, name: str, fn):
        nid = self.name_id[name]
        opens_cell = name == self.cell_opener
        observe = self._observers().get(name)
        names, starts, ends, parents, cells, stack = (
            self.names, self.starts, self.ends, self.parents, self.cells, self._stack
        )
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if opens_cell:
                self.cell += 1
            sid = len(names)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            cells.append(self.cell)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                starts[sid] = t0
                ends[sid] = t1
            if observe is not None:
                observe(sid, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _observers(self):
        def tests(sid, args, result):
            self.tests_used[sid] = result.tests_used

        def measured(sid, args, result):
            outcomes, recovered = result
            self.nonadaptive_rows += len(outcomes)
            self.negative_rows += len(outcomes) - sum(outcomes)
            self.decodes += 1
            self.recoveries += recovered.matches(args[1])

        def enumerated(sid, args, result):
            self.truth_vectors += result.terms

        def audited(sid, args, result):
            self.truth_vectors += 1 << args[1].n

        return {
            "adaptive.run_adaptive": tests,
            "adaptive.run_prepartitioned_adaptive": tests,
            "nonadaptive.run_nonadaptive": measured,
            "oracle.exact_expected_tests": enumerated,
            "oracle.exhaustive_decode_check": audited,
        }

    def install(self) -> None:
        for name, sites in SITES.items():
            traced = self._wrap(name, _original(name))
            for module, attr in sites:
                self._saved.append((module, attr, getattr(module, attr)))
                setattr(module, attr, traced)

    def uninstall(self) -> None:
        while self._saved:
            module, attr, fn = self._saved.pop()
            setattr(module, attr, fn)

    def save(self, path: str) -> None:
        np.savez_compressed(
            path,
            span_names=np.asarray(SPAN_NAMES),
            name=np.frombuffer(self.names, dtype=np.int32),
            start=np.frombuffer(self.starts, dtype=np.float64),
            end=np.frombuffer(self.ends, dtype=np.float64),
            parent=np.frombuffer(self.parents, dtype=np.int32),
            cell=np.frombuffer(self.cells, dtype=np.int32),
        )

    def metrics(self, repeats: int, overhead_s: float) -> dict[str, dict]:
        """Per-layer metrics with their units.  Counts and times are per
        repeat of the workload's cycle; percentiles pool every call.  A
        statistic that is undefined (no calls, or fewer than P99_MIN_CALLS
        for a p99) reads 0."""
        name = np.frombuffer(self.names, dtype=np.int32)
        dur = np.frombuffer(self.ends, dtype=np.float64) - np.frombuffer(self.starts, dtype=np.float64)
        parent = np.frombuffer(self.parents, dtype=np.int32)
        child_time = np.zeros(len(dur))
        has_parent = parent >= 0
        np.add.at(child_time, parent[has_parent], dur[has_parent])
        self_time = dur - child_time

        out: dict[str, float] = {}
        for nid, span in enumerate(SPAN_NAMES):
            sel = name == nid
            calls = int(sel.sum())
            d = dur[sel]
            out[f"{span}.calls"] = calls / repeats
            out[f"{span}.total_s"] = float(d.sum()) / repeats
            out[f"{span}.self_s"] = float(self_time[sel].sum()) / repeats
            out[f"{span}.p50_ms"] = float(np.percentile(d, 50)) * 1e3 if calls else 0.0
            out[f"{span}.p99_ms"] = float(np.percentile(d, 99)) * 1e3 if calls >= P99_MIN_CALLS else 0.0

        # Count each executor run once: a run_adaptive inside a prepartitioned
        # run is already part of that run's tests_used.
        prepart = self.name_id["adaptive.run_prepartitioned_adaptive"]
        tests = sum(
            used
            for sid, used in self.tests_used.items()
            if parent[sid] < 0 or name[parent[sid]] != prepart
        )
        out["adaptive.tests"] = tests / repeats
        out["nonadaptive.rows"] = self.nonadaptive_rows / repeats
        out["nonadaptive.negative_rows"] = self.negative_rows / repeats
        out["nonadaptive.recovery_ratio"] = self.recoveries / self.decodes if self.decodes else 0.0
        out["oracle.truth_vectors"] = self.truth_vectors / repeats
        out["trace.overhead_s"] = overhead_s
        return {k: {"value": out[k], "unit": unit} for k, unit in per_layer_metric_units().items()}

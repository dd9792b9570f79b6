"""The per-stage bench ``tools/stages.py`` must run and write its schema.

Speed claims quote the ``BENCH_*.json`` files it writes, so a run at
n = 1000 must give one row per stage, in order, each with its n, best
seconds, timing counts and peak RSS, under the git revision and machine.
A paired run against the same tree must give the same stages, each with
both trees' median seconds and finite quartiles of the ratio B/A and of the
A/A control, under both trees' revisions; ``--stages`` keeps the stages
named by its prefixes.
"""

import json
import math
import os
import subprocess
import sys

TOOL = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "tools", "stages.py")

STAGES_AT_1000 = [
    "generate_prior",
    "entropy_bits",
    "build_partition",
    "build_plan/max_entropy",
    "build_plan/shannon_fano",
    "build_plan/huffman",
    "build_prepartitioned_plan/max_entropy",
    "build_prepartitioned_plan/shannon_fano",
    "build_prepartitioned_plan/huffman",
    "trial_truths/200",
    "run_adaptive/1",
    "run_adaptive/16",
    "run_adaptive/32",
    "expected_tests",
    "cca_design",
    "measure_design/cca",
    "sample_block",
    "measure_design/block",
    "to_matrix/cca",
    "run_nonadaptive/cca",
    "decode_comp/cca",
]


def test_stage_bench_writes_every_stage_at_n_1000(tmp_path):
    subprocess.run(
        [sys.executable, TOOL, "--label", "t", "--sizes", "1000", "--out-dir", str(tmp_path)],
        check=True,
        capture_output=True,
    )
    report = json.loads((tmp_path / "BENCH_t.json").read_text(encoding="utf-8"))
    assert report["label"] == "t"
    assert isinstance(report["git_revision"], str) and isinstance(report["git_dirty"], bool)
    assert {"platform", "cpu", "cpus", "python", "numpy"} <= set(report["machine"])
    rows = report["rows"]
    assert [(row["stage"], row["n"]) for row in rows] == [(stage, 1000) for stage in STAGES_AT_1000] + [
        ("run_adaptive/4096", 12),
        ("exact_expected_tests", 12),
    ]
    for row in rows:
        assert set(row) == {"stage", "n", "seconds", "repeats", "calls", "peak_rss_mb"}
        assert row["seconds"] > 0 and row["repeats"] >= 1 and row["calls"] >= 1 and row["peak_rss_mb"] > 0


def test_paired_stage_bench_times_both_trees_at_n_1000(tmp_path):
    root = os.path.dirname(os.path.dirname(TOOL))
    subprocess.run(
        [sys.executable, TOOL, "--label", "ab", "--sizes", "1000", "--against", root, "--rounds", "3",
         "--out-dir", str(tmp_path)],
        check=True,
        capture_output=True,
    )
    report = json.loads((tmp_path / "BENCH_ab.json").read_text(encoding="utf-8"))
    assert report["label"] == "ab" and report["rounds"] == 3
    assert report["against"]["git_revision"] == report["git_revision"]
    assert {"platform", "cpu", "cpus", "python", "numpy"} <= set(report["machine"])
    rows = report["rows"]
    assert [(row["stage"], row["n"]) for row in rows] == [(stage, 1000) for stage in STAGES_AT_1000] + [
        ("run_adaptive/4096", 12),
        ("exact_expected_tests", 12),
    ]
    for row in rows:
        assert set(row) == {"stage", "n", "calls", "a_seconds", "b_seconds", "ratio", "control"}
        assert row["calls"] >= 1 and row["a_seconds"] > 0 and row["b_seconds"] > 0
        for quartiles in (row["ratio"], row["control"]):
            assert len(quartiles) == 3 and quartiles == sorted(quartiles)
            assert all(math.isfinite(q) and q > 0 for q in quartiles)


def test_stage_filter_keeps_the_named_stages(tmp_path):
    subprocess.run(
        [sys.executable, TOOL, "--label", "f", "--sizes", "1000", "--stages", "build_plan", "exact",
         "--out-dir", str(tmp_path)],
        check=True,
        capture_output=True,
    )
    rows = json.loads((tmp_path / "BENCH_f.json").read_text(encoding="utf-8"))["rows"]
    assert [(row["stage"], row["n"]) for row in rows] == [
        ("build_plan/max_entropy", 1000),
        ("build_plan/shannon_fano", 1000),
        ("build_plan/huffman", 1000),
        ("exact_expected_tests", 12),
    ]

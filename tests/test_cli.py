import hashlib
import json
import os
import stat
import subprocess
import sys

import pytest

from priorgt.cli import main
from priorgt.adaptive import NestedPlan
from priorgt.priors import generate_prior
from priorgt.sim import ALGORITHMS, truth_block

from helpers import prior_to_json_dict

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture
def uniform_prior_file(tmp_path):
    path = tmp_path / "prior.json"
    path.write_text(json.dumps({"family": "uniform", "n": 100, "mu": 2.0}))
    return str(path)


def test_plan_adaptive_writes_laminar_tree(tmp_path, uniform_prior_file, capsys):
    out = tmp_path / "plan.json"
    rc = main(["plan", "--prior", uniform_prior_file, "--algorithm", "me", "--out", str(out)])
    assert rc == 0
    data = json.loads(out.read_text())
    # The constructor checks the written perm, lo and hi, and derives the
    # written children and roots from them.
    plan = NestedPlan(data["n"], data["construction"], data["perm"], data["lo"], data["hi"])
    derived = (plan.left, plan.right, plan.roots)
    assert [a.tolist() for a in derived] == [data["left"], data["right"], data["roots"]]
    covered = set()
    stack = list(plan.roots)
    while stack:
        k = stack.pop()
        if plan.left[k] < 0:
            covered.add(plan.perm[plan.lo[k]])
        else:
            stack.extend([plan.left[k], plan.right[k]])
    assert covered == set(range(100))
    # bound table printed alongside
    stdout = capsys.readouterr().out
    for tag in ("T1", "T2", "T3", "T4", "T5"):
        assert tag in stdout


def test_plan_cca_row_count_follows_budget(tmp_path, uniform_prior_file):
    out = tmp_path / "matrix.json"
    rc = main(
        [
            "plan",
            "--prior",
            uniform_prior_file,
            "--algorithm",
            "cca",
            "--delta",
            "1.0",
            "--seed",
            "3",
            "--out",
            str(out),
        ]
    )
    assert rc == 0
    data = json.loads(out.read_text())
    import math

    expected = math.ceil(4 * math.e * 2 * 2.0 * math.log(100))
    assert len(data["rows"]) == expected


def test_plan_block_matrix(tmp_path, uniform_prior_file):
    out = tmp_path / "block.json"
    rc = main(
        ["plan", "--prior", uniform_prior_file, "--algorithm", "block", "--out", str(out)]
    )
    assert rc == 0
    data = json.loads(out.read_text())
    assert "blocks" in data


def test_plan_malformed_prior_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    out = tmp_path / "plan.json"
    rc = main(["plan", "--prior", str(bad), "--algorithm", "me", "--out", str(out)])
    assert rc == 2
    assert "error:" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "flags", [["--eps", "0"], ["--eps", "nan"], ["--delta", "0"], ["--delta", "inf"], ["--delta", "1e308"]]
)
def test_plan_with_bad_bound_arguments_writes_nothing(tmp_path, uniform_prior_file, capsys, flags):
    """The bound table is checked before the plan file is written."""
    out = tmp_path / "plan.json"
    assert main(["plan", "--prior", uniform_prior_file, "--algorithm", "me", *flags, "--out", str(out)]) == 2
    assert "error:" in capsys.readouterr().err
    assert sorted(os.listdir(tmp_path)) == ["prior.json"]


@pytest.mark.parametrize("umask", [0o022, 0o077, 0o002], ids=oct)
def test_output_files_follow_the_umask(tmp_path, uniform_prior_file, capsys, umask):
    out, plain = tmp_path / "plan.json", tmp_path / "plain.txt"
    previous = os.umask(umask)
    try:
        assert main(["plan", "--prior", uniform_prior_file, "--algorithm", "huffman", "--out", str(out)]) == 0
        with open(plain, "w", encoding="utf-8"):
            pass
    finally:
        os.umask(previous)
    assert stat.S_IMODE(out.stat().st_mode) == stat.S_IMODE(plain.stat().st_mode) == 0o666 & ~umask


SMALL_CAMPAIGN = {"family": "uniform", "n": 20, "sweep": [1.0], "trials": 1, "algorithms": ["cca"]}
ADAPTIVE_CAMPAIGN = {**SMALL_CAMPAIGN, "algorithms": ["adaptive_me"]}
UNIFORM_PRIOR = {"family": "uniform", "n": 100, "mu": 2.0}


@pytest.mark.parametrize(
    "command, payload",
    [
        ("simulate", {**SMALL_CAMPAIGN, "sweep": 5}),
        ("simulate", [SMALL_CAMPAIGN]),
        ("bounds", {"probs": 5}),
        ("simulate", {**ADAPTIVE_CAMPAIGN, "eps": -1}),
        ("simulate", {**ADAPTIVE_CAMPAIGN, "eps": float("nan")}),
        ("simulate", {**SMALL_CAMPAIGN, "trials": 2.5}),
        ("simulate", {**SMALL_CAMPAIGN, "n": 20.5}),
        ("simulate", {**SMALL_CAMPAIGN, "base_seed": 2.5}),
        ("simulate", {**SMALL_CAMPAIGN, "delta": float("inf")}),
        ("simulate", {**SMALL_CAMPAIGN, "trials": 10**400}),
        ("simulate", {**SMALL_CAMPAIGN, "n": 10**400}),
        ("plan --algorithm cca --delta inf", UNIFORM_PRIOR),
        ("plan --algorithm block --delta inf", UNIFORM_PRIOR),
        ("bounds", {**UNIFORM_PRIOR, "n": 100.7}),
        ("bounds", {**UNIFORM_PRIOR, "n": True, "mu": 0.1}),
        ("bounds", {**UNIFORM_PRIOR, "n": 10**400}),
        ("bounds", {**UNIFORM_PRIOR, "n": float("inf")}),
        ("plan --algorithm me", {**UNIFORM_PRIOR, "n": "100"}),
        ("simulate", {**SMALL_CAMPAIGN, "sweep": ["1.0"]}),
        ("simulate", {**SMALL_CAMPAIGN, "sweep": [1.0, True]}),
        ("simulate", {**SMALL_CAMPAIGN, "eps": "0.01"}),
        ("simulate", {**SMALL_CAMPAIGN, "delta": True}),
        ("simulate", {**SMALL_CAMPAIGN, "rho": "0.99"}),
        ("simulate", {**SMALL_CAMPAIGN, "eps": 10**400}),
        ("bounds", {"probs": ["0.5", True, 0.1]}),
        ("bounds", {"probs": [0.5, True, 0.1]}),
        ("bounds", {**UNIFORM_PRIOR, "mu": "2"}),
        ("bounds", {**UNIFORM_PRIOR, "mu": 10**400}),
        ("plan --algorithm me", {**UNIFORM_PRIOR, "family": "exponential", "rho": "0.95"}),
        ("simulate", {**ADAPTIVE_CAMPAIGN, "algorithms": ["adaptive_me", "adaptive_me"]}),
        ("simulate", {**SMALL_CAMPAIGN, "algorithms": []}),
    ],
    ids=[
        "campaign-scalar-sweep",
        "campaign-list",
        "prior-scalar-probs",
        "campaign-negative-eps",
        "campaign-nan-eps",
        "campaign-fractional-trials",
        "campaign-fractional-n",
        "campaign-fractional-seed",
        "campaign-infinite-delta",
        "campaign-huge-trials",
        "campaign-huge-n",
        "plan-cca-infinite-delta",
        "plan-block-infinite-delta",
        "prior-fractional-n",
        "prior-boolean-n",
        "prior-huge-n",
        "prior-infinite-n",
        "prior-string-n",
        "campaign-string-sweep",
        "campaign-boolean-sweep",
        "campaign-string-eps",
        "campaign-boolean-delta",
        "campaign-string-rho",
        "campaign-huge-eps",
        "prior-string-probs",
        "prior-boolean-probs",
        "prior-string-mu",
        "prior-huge-mu",
        "prior-string-rho",
        "campaign-duplicate-algorithms",
        "campaign-no-algorithms",
    ],
)
def test_malformed_campaign_and_prior_json_exit_2(tmp_path, capsys, command, payload):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(payload))
    out = tmp_path / "out.csv"
    if command == "simulate":
        argv = ["simulate", "--campaign", str(spec), "--out", str(out)]
    elif command == "bounds":
        argv = ["bounds", "--prior", str(spec)]
    else:
        argv = ["plan", "--prior", str(spec), "--out", str(out), *command.split()[1:]]
    assert main(argv) == 2
    assert "error:" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "command, payload, field",
    [
        ("simulate", {**ADAPTIVE_CAMPAIGN, "algorithms": {"adaptive_me": 1}}, "algorithms"),
        ("simulate", {**ADAPTIVE_CAMPAIGN, "algorithms": "adaptive_me"}, "algorithms"),
        ("simulate", {**SMALL_CAMPAIGN, "sweep": "24"}, "sweep"),
        ("simulate", {**SMALL_CAMPAIGN, "sweep": {"1.0": 1}}, "sweep"),
        ("bounds", {"probs": "0.1"}, "probs"),
        ("bounds", {"probs": {"0": 0.1}}, "probs"),
    ],
    ids=["algorithms-object", "algorithms-string", "sweep-string", "sweep-object", "probs-string", "probs-object"],
)
def test_json_containers_that_are_not_lists_exit_2_naming_the_field(tmp_path, capsys, command, payload, field):
    # A string or an object is not read as a sequence of characters or keys.
    spec, out = tmp_path / "spec.json", tmp_path / "out.csv"
    spec.write_text(json.dumps(payload))
    if command == "simulate":
        argv = ["simulate", "--campaign", str(spec), "--out", str(out)]
    else:
        argv = ["bounds", "--prior", str(spec)]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith(f"error: {field} must be a JSON list, got ")
    assert list(tmp_path.iterdir()) == [spec]


@pytest.mark.parametrize(
    "algorithm, eps", [("block", 0.0), ("prepartitioned_me", 0.0), ("block", 20.0), ("prepartitioned_huffman", 25.0)]
)
def test_campaign_eps_that_cannot_partition_exits_2_naming_eps(tmp_path, capsys, algorithm, eps):
    # At n = 20, eps 0 and eps >= n leave no measure factor: 2n/eps <= 2.
    spec, out = tmp_path / "spec.json", tmp_path / "out.csv"
    spec.write_text(json.dumps({**SMALL_CAMPAIGN, "algorithms": ["cca", algorithm], "eps": eps}))
    assert main(["simulate", "--campaign", str(spec), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: eps={eps!r} cannot partition n=20 for ['{algorithm}']")
    assert list(tmp_path.iterdir()) == [spec]


def test_adaptive_only_campaign_runs_at_eps_zero(tmp_path):
    # There eps only gates the small-mass shortcut, and 0 turns it off.
    spec, out = tmp_path / "spec.json", tmp_path / "out.csv"
    spec.write_text(json.dumps({**SMALL_CAMPAIGN, "algorithms": ["adaptive_me", "cca"], "eps": 0}))
    assert main(["simulate", "--campaign", str(spec), "--out", str(out)]) == 0
    assert len(out.read_text().splitlines()) == 3


@pytest.mark.parametrize("flag", ["--eps", "--delta"])
def test_nan_eps_and_delta_exit_2_naming_the_flag(uniform_prior_file, capsys, flag):
    assert main(["bounds", "--prior", uniform_prior_file, flag, "nan"]) == 2
    assert f"error: {flag[2:]} must be positive" in capsys.readouterr().err


@pytest.mark.parametrize(
    "delta, message", [("inf", "delta must be positive and finite, got inf"), ("1e308", "T3 test budget overflows")]
)
def test_bounds_delta_not_finite_or_overflowing_exits_2(uniform_prior_file, capsys, tmp_path, delta, message):
    # Both printed inf for T3, T4 and T5, with T4 marked applicable.
    out = tmp_path / "bounds.txt"
    assert main(["bounds", "--prior", uniform_prior_file, "--delta", delta, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {message}") and captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize(
    "command, payload",
    [
        ("plan", {"probs": [0, 0, 0]}),
        ("plan", {"probs": [0.3]}),
        ("simulate", {**SMALL_CAMPAIGN, "n": 1, "sweep": [0.3]}),
    ],
    ids=["plan-zero-mu", "plan-one-item", "campaign-one-item"],
)
def test_a_sampled_design_of_zero_rows_exits_2_naming_the_cause(tmp_path, capsys, command, payload):
    # The plan said "raise delta or mu", and the campaign "t must be at least 1",
    # though no delta helps and a campaign has no t.
    spec, out = tmp_path / "spec.json", tmp_path / "out"
    spec.write_text(json.dumps(payload))
    if command == "plan":
        argv = ["plan", "--prior", str(spec), "--algorithm", "cca", "--delta", "1e6", "--out", str(out)]
    else:
        argv = ["simulate", "--campaign", str(spec), "--out", str(out)]
    assert main(argv) == 2
    assert "is 0 exactly when mu = 0 or n = 1, whatever delta" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [spec]


def test_bounds_text_pe_zero_t1_equals_entropy(uniform_prior_file, capsys):
    rc = main(["bounds", "--prior", uniform_prior_file, "--pe", "0.0"])
    assert rc == 0
    out = capsys.readouterr().out
    lines = [l for l in out.splitlines() if l.startswith("T1")]
    assert len(lines) == 1
    reported = float(lines[0].split()[1])
    assert abs(reported - generate_prior("uniform", 100, 2.0).entropy_bits) < 1e-3


def test_bounds_formats(uniform_prior_file, capsys, tmp_path):
    rc = main(["bounds", "--prior", uniform_prior_file, "--format", "csv"])
    assert rc == 0
    csv_out = capsys.readouterr().out
    assert csv_out.splitlines()[0] == "theorem,test_bound,error_bound,applicable,notes"
    assert len(csv_out.strip().splitlines()) == 6

    rc = main(["bounds", "--prior", uniform_prior_file, "--format", "json"])
    payload = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert [row["theorem"] for row in payload] == ["T1", "T2", "T3", "T4", "T5"]

    out = tmp_path / "bounds.csv"
    rc = main(["bounds", "--prior", uniform_prior_file, "--format", "csv", "--out", str(out)])
    assert rc == 0
    assert out.read_text() == csv_out


def test_simulate_quick_campaign(tmp_path, capsys):
    campaign = os.path.join(REPO_ROOT, "campaigns", "quick.json")
    out = tmp_path / "trials.csv"
    rc = main(["simulate", "--campaign", campaign, "--out", str(out)])
    assert rc == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "trial_id,seed,algorithm,n,mu,entropy,tests,success"
    assert len(lines) == 1 + 2 * 20 * 2  # points x trials x algorithms
    summary = tmp_path / "trials.summary.csv"
    assert summary.exists()
    assert len(summary.read_text().strip().splitlines()) == 1 + 4


def test_simulate_reports_its_trial_and_summary_row_counts(tmp_path, capsys):
    campaign = tmp_path / "campaign.json"
    campaign.write_text(json.dumps({**SMALL_CAMPAIGN, "sweep": [1.0, 2.0], "trials": 3,
                                    "algorithms": ["adaptive_me", "cca"]}))
    out, summary = tmp_path / "trials.csv", tmp_path / "trials.summary.csv"
    assert main(["simulate", "--campaign", str(campaign), "--out", str(out)]) == 0
    # 2 points x 3 trials x 2 algorithms, and one summary row per point and algorithm.
    assert capsys.readouterr().out == (
        f"wrote 12 trial rows to {out}\n"
        f"wrote 4 summary rows to {summary}\n"
    )
    assert len(out.read_text().splitlines()) == 1 + 12
    assert len(summary.read_text().splitlines()) == 1 + 4


def test_bounds_out_through_a_symlink_writes_its_target(tmp_path, uniform_prior_file, capsys):
    target, link = tmp_path / "target.csv", tmp_path / "link.csv"
    target.write_text("old\n")
    link.symlink_to(target)
    assert main(["bounds", "--prior", uniform_prior_file, "--format", "csv", "--out", str(link)]) == 0
    assert link.is_symlink() and os.readlink(link) == str(target)
    assert target.read_text().startswith("theorem,")
    assert sorted(os.listdir(tmp_path)) == ["link.csv", "prior.json", "target.csv"]


def test_simulate_out_through_a_symlink_writes_its_target(tmp_path, capsys):
    campaign = tmp_path / "campaign.json"
    campaign.write_text(json.dumps(SMALL_CAMPAIGN))
    (tmp_path / "real").mkdir()
    target, link = tmp_path / "real" / "trials.csv", tmp_path / "link.csv"
    target.write_text("old\n")
    link.symlink_to(target)
    assert main(["simulate", "--campaign", str(campaign), "--out", str(link)]) == 0
    assert link.is_symlink()
    assert target.read_text().startswith("trial_id,seed,algorithm,")
    # The summary path is derived from --out as given, beside the link.
    assert (tmp_path / "link.summary.csv").read_text().startswith("point_index,")
    assert sorted(os.listdir(tmp_path / "real")) == ["trials.csv"]


def test_an_existing_output_keeps_its_mode(tmp_path, uniform_prior_file, capsys):
    out = tmp_path / "bounds.csv"
    out.write_text("old\n")
    out.chmod(0o600)
    assert main(["bounds", "--prior", uniform_prior_file, "--format", "csv", "--out", str(out)]) == 0
    assert out.read_text().startswith("theorem,")
    assert stat.S_IMODE(out.stat().st_mode) == 0o600


@pytest.mark.parametrize("summary", ["trials.csv", "sub/../trials.csv", "link.csv"])
def test_simulate_refuses_a_summary_path_that_is_the_trial_csv(tmp_path, capsys, summary):
    """Both outputs in one file left only the summary there."""
    campaign = os.path.join(REPO_ROOT, "campaigns", "quick.json")
    (tmp_path / "sub").mkdir()
    (tmp_path / "link.csv").symlink_to(tmp_path / "trials.csv")
    out = tmp_path / "trials.csv"
    assert main(["simulate", "--campaign", campaign, "--out", str(out), "--summary-out", str(tmp_path / summary)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: --out and --summary-out name the same file") and captured.out == ""
    assert not out.exists()


def test_cli_outputs_are_byte_identical_across_reruns(tmp_path, uniform_prior_file):
    campaign = os.path.join(REPO_ROOT, "campaigns", "quick.json")
    paths = {}
    for tag in ("a", "b"):
        plan_out = tmp_path / f"plan_{tag}.json"
        sim_out = tmp_path / f"sim_{tag}.csv"
        bounds_out = tmp_path / f"bounds_{tag}.csv"
        assert main(
            ["plan", "--prior", uniform_prior_file, "--algorithm", "cca", "--seed", "5", "--out", str(plan_out)]
        ) == 0
        assert main(["simulate", "--campaign", campaign, "--out", str(sim_out)]) == 0
        assert main(
            ["bounds", "--prior", uniform_prior_file, "--format", "csv", "--out", str(bounds_out)]
        ) == 0
        paths[tag] = (plan_out, sim_out, tmp_path / f"sim_{tag}.summary.csv", bounds_out)
    for a, b in zip(paths["a"], paths["b"]):
        assert a.read_bytes() == b.read_bytes()


# sha256 of the trials and summary CSVs of ``priorgt simulate``.  A change
# that moves any byte of a campaign's output must say so and re-pin these.
PINNED_CSV_DIGESTS = {
    "quick": (
        "67ad8e360859c75f5ead0fca32601c8a8929757e80f0d188279a015283378c9a",
        "50af31aa6eb4a5892660e031f472bc2fd46ea2e3b6ed91301845a2249f5d3890",
    ),
    # Three ample bands per point at eps 0.01, so the block design measures
    # three blocks from one generator.
    "sampled": (
        "d205f8e9addc78cd34330cee9dbb7247771ffd89d70c913995a63acc2cd131ec",
        "cea6f18ed391dd33df30cfd52715596e267f0c3c73df04d2ce97d16601f78aba",
    ),
    # Three pre-partitioned constructions on the sampled campaign's priors,
    # where combining merges two of the three bands at both points.
    "prepartitioned": (
        "0247c5ffb1eb8208181e8be29a57a59d70fe062f4d3df9476b03dc12a2098319",
        "ee8a207aaead9c8f156624a087aeb02d0100f16be2f52e45713809dbfb7163f1",
    ),
    # Every algorithm, in ``sim.ALGORITHMS`` order, on the same priors.
    "all": (
        "ada2ffa75309290382b4e0c36c6134105bf4b007e15bbf58760a455ce5262c8f",
        "eca0503e1f723f9e44b8a6dae054e3019f33682e5ff1eb3db23eaf7cc2b47178",
    ),
    # Every algorithm at n = 5000, where a block of stacked truths holds
    # truth_block(5000) = TRUTH_BLOCK_CELLS // 5000 = 6 trials, so each
    # point's 8 trials run in blocks of 6 and 2.
    "multiblock": (
        "a6696529f8509d4ad506ab8eb602c6c2f97dbf1c2bb49125e72c94514b5ed127",
        "75081eae2352778e95793449332edb288f1246420bf1cb260ad93a4d90bbc941",
    ),
}
SAMPLED_CAMPAIGN = {
    "family": "exponential",
    "n": 400,
    "sweep": [10.0, 20.0],
    "trials": 10,
    "algorithms": ["cca", "block"],
    "base_seed": 3,
    "eps": 0.01,
    "delta": 1.0,
}
PINNED_CAMPAIGNS = {
    "sampled": SAMPLED_CAMPAIGN,
    "prepartitioned": {
        **SAMPLED_CAMPAIGN,
        "algorithms": ["prepartitioned_me", "prepartitioned_sf", "prepartitioned_huffman"],
    },
    "all": {**SAMPLED_CAMPAIGN, "algorithms": list(ALGORITHMS)},
    "multiblock": {**SAMPLED_CAMPAIGN, "n": 5000, "trials": 8, "algorithms": list(ALGORITHMS)},
}


def test_simulate_csv_bytes_are_pinned(tmp_path):
    multiblock = PINNED_CAMPAIGNS["multiblock"]
    assert truth_block(multiblock["n"]) == 6 < multiblock["trials"]
    campaigns = {"quick": os.path.join(REPO_ROOT, "campaigns", "quick.json")}
    for name, spec in PINNED_CAMPAIGNS.items():
        campaigns[name] = str(tmp_path / f"{name}.json")
        (tmp_path / f"{name}.json").write_text(json.dumps(spec))
    for name, campaign in campaigns.items():
        out = tmp_path / f"{name}.csv"
        assert main(["simulate", "--campaign", campaign, "--out", str(out)]) == 0
        digests = tuple(
            hashlib.sha256(path.read_bytes()).hexdigest() for path in (out, tmp_path / f"{name}.summary.csv")
        )
        assert digests == PINNED_CSV_DIGESTS[name], name


def test_plan_block_json_is_pinned(tmp_path, capsys):
    """The block design's matrix JSON on exponential n = 400, mu = 10: three
    ample bands, each a block with its own span."""
    prior, out = tmp_path / "prior.json", tmp_path / "block.json"
    prior.write_text(json.dumps({"family": "exponential", "n": 400, "mu": 10.0}))
    assert main(["plan", "--prior", str(prior), "--algorithm", "block", "--seed", "4", "--out", str(out)]) == 0
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest == "ddd5cb3db95d1897aca94dca157cc68279a5c2515513763091c9f988faa56146"


# sha256 of ``priorgt plan`` JSON for the other four algorithms, on the prior
# and seed of the block design's pin.
PINNED_PLAN_JSON = {
    "me": "f5bddbf54392cbf921411a9911ae7acca533064101fbe4244d02b365262c15e5",
    "shannon_fano": "e346e1dcd7d076bdfbdf98242643ed7cbd4573e43fca5158d88613354a089668",
    "huffman": "653de25a004e9aa6baed39f1c3c5330b23e765e27865979b420e0a6e1368c340",
    "cca": "fbdc369cf7aaf2add9a9417f5c3848acc7b8fcdd97677df182650312d187a395",
}


@pytest.mark.parametrize("algorithm", list(PINNED_PLAN_JSON))
def test_plan_json_is_pinned(tmp_path, capsys, algorithm):
    prior, out = tmp_path / "prior.json", tmp_path / "plan.json"
    prior.write_text(json.dumps({"family": "exponential", "n": 400, "mu": 10.0}))
    assert main(["plan", "--prior", str(prior), "--algorithm", algorithm, "--seed", "4", "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == PINNED_PLAN_JSON[algorithm]


# sha256 of ``priorgt bounds`` in text, csv and json, per (prior, delta).
# ``priorgt plan`` prints the text table, so its stdout has the text digest.
# The 1e-300 prior fails two T3 preconditions and clamps T3's and T5's
# errors; the p = 0.6 prior makes T4 and T5 inapplicable.
PINNED_BOUND_TABLES = {
    "exponential-delta1": (
        {"family": "exponential", "n": 1000, "mu": 8.0},
        "1.0",
        "f2a48c855d2213fe4c0c6b8f8af6315617ab92a57951262f913df31e0361c5d2",
        "844d85edcf53c561144e6bc4077d39bcc925a0c64e643f1d3085737f36cd4138",
        "f714c17054e7c01c23440ffa842b96d69489b3a9cd0eda9cb717e6159060db14",
    ),
    "exponential-delta5": (
        {"family": "exponential", "n": 1000, "mu": 8.0},
        "5.0",
        "8cc88c3d2a7aaeadf75c63cf8213dd01c096a691583dc628aaa80f8cc49b1592",
        "0727598df2cfd6bc643994fe1845c6b6d13c65baa12bafe95b7b8b21eecb63f9",
        "38ba55d3249048a1b24e5d253c574c533123bb2563b93d3c9eb75bd5db548edd",
    ),
    "tiny-probs": (
        {"probs": [1e-300, 1e-300, 1e-300]},
        "0.5",
        "489c7e88fc5dc0f87e20a12b138fdd05ab0c2bcddd1b0f09e1feb54011ab4842",
        "bdfbc4098b6185e942fb546ec13d5a85f50ca1befc1437f4ec34d2ee56c4440c",
        "d392cde25373d1a3516a76e217974c250b0c9fc8d944f4dc1f73d1cf8783e0b5",
    ),
    "one-p-above-half": (
        {"probs": [0.6, 0.2, 0.1, 0.05, 0.05]},
        "1.0",
        "87a707cff1e083f2177480c4a73e66b2ebd22721aa126276fd46f39fd35766e8",
        "81183aaea24a945d3d298368fc4e5c53de36382f354f7eb53e51ad871084e64e",
        "36bb03ae1a38cd2ea516a37ed4ec0c700524e6d9ce68c060aba6fdef8df2b4d6",
    ),
}


@pytest.mark.parametrize("case", list(PINNED_BOUND_TABLES))
def test_bound_tables_are_pinned(tmp_path, capsys, case):
    spec, delta, *expected = PINNED_BOUND_TABLES[case]
    prior = tmp_path / "prior.json"
    prior.write_text(json.dumps(spec))
    digests = []
    for fmt in ("text", "csv", "json"):
        assert main(["bounds", "--prior", str(prior), "--delta", delta, "--format", fmt]) == 0
        digests.append(hashlib.sha256(capsys.readouterr().out.encode()).hexdigest())
    assert digests == expected
    plan = ["plan", "--prior", str(prior), "--delta", delta, "--algorithm", "me", "--out", str(tmp_path / "plan.json")]
    assert main(plan) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == expected[0]


def test_oracle_subcommand_green(capsys):
    rc = main(["oracle", "--seed", "5"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "PASS" in out
    assert "FAIL" not in out


def test_oracle_subcommand_exit_1_on_injected_fault(capsys, monkeypatch):
    from priorgt import cli, oracle

    def broken(seed=0):
        return [oracle.CheckResult("rigged", False, "injected fault", 0.0)]

    monkeypatch.setattr(cli.oracle, "run_all_checks", broken)
    rc = main(["oracle"])
    assert rc == 1
    assert "FAIL" in capsys.readouterr().out


def test_cli_runs_as_module(tmp_path):
    """End-to-end through a real process, including exit code plumbing."""
    prior = tmp_path / "p.json"
    prior.write_text(json.dumps(prior_to_json_dict(generate_prior("uniform", 20, 1.0))))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src") + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-m", "priorgt.cli", "bounds", "--prior", str(prior)],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    assert "T4" in proc.stdout


@pytest.mark.parametrize(
    "argv",
    [
        pytest.param(["plan", "--algorithm", "cca", "--seed", "-1"], id="plan-cca"),
        pytest.param(["plan", "--algorithm", "block", "--seed", "-1"], id="plan-block"),
        pytest.param(["oracle", "--seed", "-5"], id="oracle"),
    ],
)
def test_a_negative_seed_exits_2_naming_the_seed(tmp_path, uniform_prior_file, capsys, argv):
    # numpy refused these with "expected non-negative integer", naming no flag.
    if argv[0] == "plan":
        argv = [*argv, "--prior", uniform_prior_file, "--out", str(tmp_path / "m.json")]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error: seed must be a whole number in [0, inf], got -")
    assert not (tmp_path / "m.json").exists()


def test_main_writes_the_same_output_on_every_call(tmp_path, uniform_prior_file, capsys, monkeypatch):
    # One parser serves every call in a process, so no call may leave state
    # in it for the next: each subcommand twice, with and without its
    # optional flags, and again after usage errors, writes the same bytes.
    from priorgt import oracle

    def checks(seed=0):
        return [oracle.CheckResult("stub", True, f"seed {seed}", 0.0)]

    monkeypatch.setattr(oracle, "run_all_checks", checks)
    campaign = tmp_path / "campaign.json"
    campaign.write_text(json.dumps({**SMALL_CAMPAIGN, "trials": 3, "algorithms": ["adaptive_me", "cca"]}))
    calls = [
        ["plan", "--prior", uniform_prior_file, "--algorithm", "cca", "--seed", "4", "--out", str(tmp_path / "a")],
        ["plan", "--prior", uniform_prior_file, "--algorithm", "cca", "--out", str(tmp_path / "a")],
        ["simulate", "--campaign", str(campaign), "--out", str(tmp_path / "t.csv")],
        ["bounds", "--prior", uniform_prior_file, "--format", "json", "--eps", "0.1"],
        ["bounds", "--prior", uniform_prior_file],
        ["oracle", "--seed", "9"],
        ["oracle"],
    ]
    files = ["a", "t.csv", "t.summary.csv"]

    def run_all():
        outputs = []
        for argv in calls:
            for name in files:
                (tmp_path / name).unlink(missing_ok=True)
            assert main(argv) == 0
            written = {name: (tmp_path / name).read_bytes() for name in files if (tmp_path / name).exists()}
            outputs.append((capsys.readouterr(), written))
        return outputs

    first = run_all()
    assert run_all() == first
    for bad in (["plan", "--algorithm", "cca"], ["bogus"], ["bounds", "--format", "xml"], []):
        with pytest.raises(SystemExit) as exc:
            main(bad)
        assert exc.value.code == 2
    assert capsys.readouterr().err.count("usage: priorgt") == 4
    assert run_all() == first
    assert "seed 9" in first[5][0].out and "seed 20240801" in first[6][0].out

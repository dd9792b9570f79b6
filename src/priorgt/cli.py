"""Batch command-line front end.

Subcommands: ``plan`` (write a test plan or matrix), ``simulate`` (run a
campaign to CSV), ``bounds`` (print the five bound reports), and ``oracle``
(run the brute-force checks).  ``plan`` builds through ``sim.BUILDERS``, as
campaigns do.  Every subcommand is deterministic given its flags; output
files are written to a temporary name and renamed into place so interrupted
runs never leave torn files.  Exit codes: 0 success, 1 a check failed, 2
usage or validation error.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import os
import sys
import tempfile

from . import adaptive, bounds, nonadaptive, oracle, sim
from .priors import load_prior


def _atomic_write(path: str, text: str) -> None:
    """Rename a temporary file over the file ``path`` resolves to, so a
    symlink keeps its target, and an existing file keeps its mode bits."""
    path = os.path.realpath(path)
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path), prefix=".tmp-", text=True)
    try:
        # mkstemp creates mode 0600; keep the old file's mode, or give a new
        # file the mode open() would.
        try:
            mode = os.stat(path).st_mode & 0o7777
        except FileNotFoundError:
            umask = os.umask(0)
            os.umask(umask)
            mode = 0o666 & ~umask
        os.fchmod(fd, mode)
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


_TEXT_HEADER = "{:8} {:>14} {:>12} {:>10}  {}"
_TEXT_ROW = "{:8} {:14.4f} {:12.6g} {!s:>10}  {}"


def _bounds_table(reports: list[bounds.BoundReport], fmt: str) -> str:
    """The reports as JSON objects, ``sim.csv_text`` or text, one column per BoundReport field in order."""
    if fmt == "json":
        return json.dumps([dataclasses.asdict(r) for r in reports], indent=2, sort_keys=True) + "\n"
    header = [field.name for field in dataclasses.fields(bounds.BoundReport)]
    rows = [dataclasses.astuple(r) for r in reports]
    if fmt == "csv":
        return sim.csv_text(header, rows)
    lines = [_TEXT_HEADER.format(*header)] + [_TEXT_ROW.format(*row) for row in rows]
    return "\n".join(lines) + "\n"


# Each ``plan --algorithm`` choice and the ``sim.BUILDERS`` entry it builds.
PLAN_ALGORITHMS = {"me": "adaptive_me", "shannon_fano": "adaptive_sf", "huffman": "adaptive_huffman",
                   "cca": "cca", "block": "block"}


def cmd_plan(args) -> int:
    p = load_prior(args.prior)
    built = sim.BUILDERS[PLAN_ALGORITHMS[args.algorithm]](p, args.eps, args.delta)
    if isinstance(built, adaptive.NestedPlan):
        payload = adaptive.plan_to_json_dict(built)
    else:
        payload = nonadaptive.design_to_json_dict(dataclasses.replace(built, seed=args.seed))
    # The bound table can still fail on its arguments; nothing is written then.
    table = _bounds_table(bounds.all_reports(p, args.eps, args.delta, args.pe), "text")
    _atomic_write(args.out, json.dumps(payload, indent=2, sort_keys=True) + "\n")
    sys.stdout.write(table)
    return 0


def cmd_simulate(args) -> int:
    summary_path = args.summary_out
    if summary_path is None:
        root, ext = os.path.splitext(args.out)
        summary_path = f"{root}.summary{ext or '.csv'}"
    if os.path.realpath(summary_path) == os.path.realpath(args.out):
        raise ValueError(f"--out and --summary-out name the same file, {args.out!r}")
    campaign = sim.load_campaign(args.campaign)
    points = sim.run_campaign(campaign)
    summary = sim.summarize(points)
    _atomic_write(args.out, sim.trials_csv_text(points))
    _atomic_write(summary_path, sim.summary_csv_text(summary))
    sys.stdout.write(f"wrote {sum(row['trials'] for row in summary)} trial rows to {args.out}\n")
    sys.stdout.write(f"wrote {len(summary)} summary rows to {summary_path}\n")
    return 0


def cmd_bounds(args) -> int:
    p = load_prior(args.prior)
    text = _bounds_table(bounds.all_reports(p, args.eps, args.delta, args.pe), args.format)
    if args.out:
        _atomic_write(args.out, text)
    else:
        sys.stdout.write(text)
    return 0


def cmd_oracle(args) -> int:
    results = oracle.run_all_checks(seed=args.seed)
    width = max(len(r.name) for r in results)
    failed = 0
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        sys.stdout.write(f"{status}  {r.name:<{width}}  {r.seconds:8.3f}s  {r.detail}\n")
        failed += not r.passed
    sys.stdout.write(f"{len(results) - failed}/{len(results)} checks passed\n")
    return 1 if failed else 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of every ``main`` call in a process: parsing keeps no
    state in it, and building it costs about a millisecond."""
    parser = argparse.ArgumentParser(
        prog="priorgt",
        description="Group testing with per-item priors: plans, bounds, oracle checks, simulations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    plan = sub.add_parser("plan", help="write a test plan or test matrix as JSON")
    plan.add_argument("--prior", required=True, help="path to a prior spec JSON")
    plan.add_argument("--algorithm", required=True, choices=list(PLAN_ALGORITHMS))
    plan.add_argument("--eps", type=float, default=0.01)
    plan.add_argument("--delta", type=float, default=1.0)
    plan.add_argument("--pe", type=float, default=0.0)
    plan.add_argument("--seed", type=int, default=0)
    plan.add_argument("--out", required=True)
    plan.set_defaults(fn=cmd_plan)

    simulate = sub.add_parser("simulate", help="run a campaign and write trial/summary CSVs")
    simulate.add_argument("--campaign", required=True, help="path to a campaign JSON")
    simulate.add_argument("--out", required=True, help="trial CSV path")
    simulate.add_argument("--summary-out", default=None, help="summary CSV path (default: derived)")
    simulate.set_defaults(fn=cmd_simulate)

    bnd = sub.add_parser("bounds", help="print the five bound reports for a prior")
    bnd.add_argument("--prior", required=True)
    bnd.add_argument("--eps", type=float, default=0.01)
    bnd.add_argument("--delta", type=float, default=1.0)
    bnd.add_argument("--pe", type=float, default=0.0)
    bnd.add_argument("--format", choices=["text", "csv", "json"], default="text")
    bnd.add_argument("--out", default=None)
    bnd.set_defaults(fn=cmd_bounds)

    orc = sub.add_parser("oracle", help="run the brute-force verification battery")
    orc.add_argument("--seed", type=int, default=20240801)
    orc.set_defaults(fn=cmd_oracle)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, MemoryError, OSError, json.JSONDecodeError, KeyError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())

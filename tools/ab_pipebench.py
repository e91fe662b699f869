#!/usr/bin/env python
"""A/B the pipeline benchmark: a parent revision against this checkout.

Checks the parent revision out as a temporary ``git worktree``, then
runs ``pipebench/run.py`` on both trees for N pairs of runs, one seed a
pair, alternating which side runs first so that a host that speeds up
or slows down during the session does not favour one side.  Prints each
pair's values and change/parent ratio, each side's median and quartiles
per metric, and how many pairs the change won.  The worktree is removed
on exit, also when a run fails or the script is interrupted.

Run from anywhere inside the checkout::

    python tools/ab_pipebench.py --parent HEAD~1 --workload credit_scan \\
        --seeds 1,2,3,4,5,6,7,8,9,20261017 --seconds 20

``--trace 1`` compares the per-layer metrics instead of the end-to-end
ones.  Exit status is 1 when a run exits non-zero or reports failed
ops, 0 otherwise: the script reports speed, it does not judge it.
"""

from __future__ import annotations

import argparse
import json
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--parent", default="HEAD", help="git revision to compare against"
    )
    parser.add_argument("--workload", required=True)
    parser.add_argument(
        "--seeds",
        default=None,
        help="comma-separated seeds, one pair each (default 1..--pairs)",
    )
    parser.add_argument("--pairs", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "toy"), default="full")
    parser.add_argument(
        "--json", default=None, help="also write every run's result here"
    )
    args = parser.parse_args(argv)
    if args.seeds is not None:
        args.seeds = [int(s) for s in args.seeds.split(",") if s]
        if args.pairs is not None and args.pairs != len(args.seeds):
            parser.error("--pairs disagrees with the number of --seeds")
    else:
        args.seeds = list(range(1, (args.pairs or 1) + 1))
    if not args.seeds:
        parser.error("at least one pair is needed")
    return args


def git(*args, cwd=ROOT) -> str:
    return subprocess.run(
        ["git", *args], cwd=cwd, check=True, capture_output=True, text=True
    ).stdout.strip()


def better_directions() -> dict:
    """``{metric: "lower" | "higher"}`` from the benchmark's declaration."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {
        m["name"]: m["better"]
        for m in spec.get("end_to_end", []) + spec.get("per_layer", [])
    }


def run_side(tree: Path, args, seed: int) -> dict:
    cmd = [
        sys.executable,
        "pipebench/run.py",
        "--workload", args.workload,
        "--seed", str(seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--scale", args.scale,
    ]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(
            f"{' '.join(cmd)} in {tree} exited {proc.returncode}:\n"
            f"{proc.stderr}"
        )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def quartiles(values) -> tuple:
    """``(q1, median, q3)``; a single value is all three."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def summarize(pairs, metrics, directions) -> list:
    """One line per metric: each side's median and quartiles, and wins."""
    lines = []
    for name in metrics:
        values = {
            side: [pair[side]["metrics"][name]["value"] for pair in pairs]
            for side in SIDES
        }
        lower = directions.get(name, "lower") == "lower"
        wins = sum(
            (c < p) if lower else (c > p)
            for p, c in zip(values["parent"], values["change"])
        )
        parent_q = quartiles(values["parent"])
        change_q = quartiles(values["change"])
        ratio = change_q[1] / parent_q[1] if parent_q[1] else float("nan")
        lines.append(
            f"{name}: parent median {parent_q[1]:.6g} "
            f"[{parent_q[0]:.6g}, {parent_q[2]:.6g}], "
            f"change median {change_q[1]:.6g} "
            f"[{change_q[0]:.6g}, {change_q[2]:.6g}], "
            f"ratio {ratio:.3f}, change better in {wins} of {len(pairs)}"
        )
    return lines


def _interrupted(signum, frame):
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    args = parse_args(argv)
    directions = better_directions()
    parent_rev = git("rev-parse", "--verify", f"{args.parent}^{{commit}}")
    signal.signal(signal.SIGTERM, _interrupted)
    scratch = Path(tempfile.mkdtemp(prefix="ab-pipebench-"))
    parent_tree = scratch / "parent"
    trees = {"parent": parent_tree, "change": ROOT}
    metric = "op_ms" if args.trace == 0 else "trace.op_wall_s"
    pairs = []
    failed = False
    try:
        git("worktree", "add", "--detach", str(parent_tree), parent_rev)
        print(
            f"workload {args.workload}, parent {parent_rev[:12]}, "
            f"change {ROOT} (working tree), {len(args.seeds)} pairs"
        )
        for k, seed in enumerate(args.seeds):
            order = SIDES if k % 2 == 0 else SIDES[::-1]
            pair = {"seed": seed, "first": order[0]}
            for side in order:
                pair[side] = run_side(trees[side], args, seed)
                if pair[side]["failed"]:
                    failed = True
            pairs.append(pair)
            parent_value = pair["parent"]["metrics"][metric]["value"]
            change_value = pair["change"]["metrics"][metric]["value"]
            print(
                f"pair {k + 1} seed {seed} ({order[0]} first): "
                f"{metric} parent {parent_value:.6g} "
                f"change {change_value:.6g} "
                f"ratio {change_value / parent_value:.3f}, failed ops "
                f"{pair['parent']['failed']}/{pair['change']['failed']}",
                flush=True,
            )
    finally:
        subprocess.run(
            ["git", "worktree", "remove", "--force", str(parent_tree)],
            cwd=ROOT,
            capture_output=True,
        )
        subprocess.run(
            ["git", "worktree", "prune"], cwd=ROOT, capture_output=True
        )
        shutil.rmtree(scratch, ignore_errors=True)
    metrics = list(pairs[0]["parent"]["metrics"])
    for line in summarize(pairs, metrics, directions):
        print(line)
    if args.json is not None:
        Path(args.json).write_text(json.dumps(pairs, indent=1))
    if failed:
        print("some runs reported failed ops", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

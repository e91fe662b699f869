#!/usr/bin/env python3
"""Self-test of the benchmark at toy scale.

Usage, from the root of a checkout::

    python3 pipebench/selftest.py

Checks, each workload in its own process as the benchmark runs it:

* every workload in ``BENCHMARK.json`` emits exactly its end-to-end
  metrics (``--trace 0``, on seed 1 and on a held-out seed) and its
  per-layer metrics (``--trace 1``), with the declared units, and passes
  every output check;
* each injected fault (a support count off by one, a dropped rule, an
  indexed prediction that differs from the linear scan) is counted as a
  failed op on every op it corrupts;
* installing the layer probes fails loudly, and patches nothing, when a
  probed name no longer exists.

Exits non-zero on the first failed check.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

SEEDS = (1, 20261017)  # the seed of the recorded numbers, and a held-out one


def run(workload: str, seed: int, trace: int, inject=None) -> dict:
    cmd = [
        sys.executable,
        str(HERE / "run.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", "0.5",
        "--trace", str(trace),
        "--scale", "toy",
    ]
    if inject is not None:
        cmd += ["--inject", inject]
    proc = subprocess.run(
        cmd, cwd=ROOT, capture_output=True, text=True, timeout=170
    )
    if proc.returncode != 0:
        raise AssertionError(
            f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}"
        )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_metrics(label: str, result: dict, declared: list) -> None:
    expected = {m["name"]: m["unit"] for m in declared}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != expected:
        raise AssertionError(f"{label}: metrics {got} != declared {expected}")
    if not (result["correct"] and result["failed"] == 0):
        raise AssertionError(f"{label}: output checks failed: {result}")
    if result["attempted"] < 1:
        raise AssertionError(f"{label}: no op attempted")


def check_probes_fail_loudly() -> None:
    import repro.core.counting as counting
    from probes import PROBES, Tracer, install_probes

    original = counting.count_groups
    bogus = PROBES + (("repro.core.counting", "no_such_layer", "x", None),)
    try:
        with install_probes(Tracer(), bogus):
            pass
    except LookupError:
        pass
    else:
        raise AssertionError("a missing probe name did not raise")
    if counting.count_groups is not original:
        raise AssertionError("a failed probe install left a patch behind")


def main() -> int:
    from workloads import WORKLOADS

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in (w["name"] for w in spec["workloads"]):
        for seed in SEEDS:
            label = f"{workload} seed {seed}"
            result = run(workload, seed, 0)
            check_metrics(label, result, spec["end_to_end"])
            if any(m["value"] <= 0 for m in result["metrics"].values()):
                raise AssertionError(f"{label}: an end-to-end metric is <= 0")
        check_metrics(
            f"{workload} traced", run(workload, SEEDS[0], 1), spec["per_layer"]
        )
        for fault in WORKLOADS[workload].faults:
            result = run(workload, SEEDS[0], 0, inject=fault)
            if result["correct"] or result["failed"] != result["attempted"]:
                raise AssertionError(
                    f"{workload}: fault {fault} not counted on every op: "
                    f"{result['failed']} of {result['attempted']} failed"
                )
        print(f"ok {workload}")
    check_probes_fail_loudly()
    print("ok probes fail loudly")
    return 0


if __name__ == "__main__":
    sys.exit(main())

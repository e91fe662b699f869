#!/usr/bin/env python
"""CI check: every layer of a cold mine still shows up in a traced run.

``pipebench/probes.py`` times the layers of a mine by wrapping named
calls (``generate_candidates`` as bound in ``core.apriori_quant``,
``group_candidates``, ``count_groups``, ``generate_rules``,
``MemoryCache.put``, ...).  A refactor that keeps a name but moves the
work off it, or stops calling it, leaves the probe installed and its
metric silently at 0.  This runs one short traced ``credit_cold`` run at
full scale (at toy scale pass 3 counts no candidates) and fails when any
of the cold path's layer metrics is missing or 0.

Exit status 0 on success, 1 with a diagnostic otherwise.  Run from the
repository root::

    python tools/check_cold_layers.py
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

COMMAND = [
    sys.executable,
    "pipebench/run.py",
    "--workload", "credit_cold",
    "--seed", "1",
    "--seconds", "2",
    "--trace", "1",
]

#: The layers a cold mine must pass through, as pipebench metric names.
COLD_LAYERS = (
    "candidates.generate_s",
    "candidates.generated",
    "counting.group_s",
    "counting.kernel_s",
    "counting.itemsets_s",
    "counting.pairs_s",
    "rulegen.generate_s",
    "rulegen.rules",
    "cache.put_s",
)


def main() -> int:
    proc = subprocess.run(COMMAND, cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        print(
            f"check_cold_layers: {' '.join(COMMAND[1:])} exited "
            f"{proc.returncode}:\n{proc.stderr}",
            file=sys.stderr,
        )
        return 1
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    metrics = result["metrics"]
    problems = [
        f"{name} is missing" if name not in metrics
        else f"{name} is {metrics[name]['value']}"
        for name in COLD_LAYERS
        if not metrics.get(name, {}).get("value")
    ]
    if result["failed"]:
        problems.append(f"{result['failed']} ops failed their check")
    if problems:
        print("check_cold_layers: " + "; ".join(problems), file=sys.stderr)
        return 1
    print(
        "check_cold_layers: "
        + ", ".join(f"{name} {metrics[name]['value']:.4g}" for name in COLD_LAYERS)
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())

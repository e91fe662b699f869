#!/usr/bin/env python
"""CI smoke test: parallel mining must not leak shared-memory segments.

Runs a small mining job under the parallel executor with two workers —
the configuration that publishes the coded column matrix into a POSIX
``multiprocessing.shared_memory`` segment and hands the workers
zero-copy ``SharedShardView`` descriptors — and then asserts the
segment lifecycle held up:

1. the run itself succeeds and matches a serial reference mine
   bit-for-bit (``support_counts`` and rules);
2. the parallel run actually exercised the zero-copy path (skipped
   with a note on platforms without usable shared memory);
3. no ``repro_shm_*`` segment survives in ``/dev/shm`` (or the
   platform equivalent) after the run;
4. the process raised no ``ResourceWarning`` — the interpreter is
   started with ``-W error::ResourceWarning`` by the CI step, so a
   leaked store would fail loudly here.

Exit status 0 on success, 1 with a diagnostic otherwise.  Run from the
repository root::

    python -W error::ResourceWarning tools/check_shm_leaks.py
"""

import gc
import glob
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

NUM_RECORDS = 2_000
SHM_GLOB = "/dev/shm/repro_shm_*"


def leaked_segments():
    return sorted(glob.glob(SHM_GLOB))


def main():
    from repro.core import ExecutionConfig, MinerConfig, QuantitativeMiner
    from repro.data import generate_credit_table
    from repro.engine import shared_memory_available

    if not shared_memory_available():
        print("shm-leak check: platform lacks usable shared memory; "
              "nothing to leak — skipping")
        return 0

    before = leaked_segments()
    if before:
        print(f"shm-leak check: pre-existing segments {before}; "
              "refusing to run against a dirty /dev/shm")
        return 1

    table = generate_credit_table(NUM_RECORDS, seed=11)

    def mine(execution):
        config = MinerConfig(
            min_support=0.2,
            min_confidence=0.5,
            max_support=0.5,
            partial_completeness=3.0,
            max_itemset_size=2,
            execution=execution,
        )
        return QuantitativeMiner(table, config).mine()

    serial = mine(ExecutionConfig())
    parallel = mine(
        ExecutionConfig(executor="parallel", num_workers=2)
    )

    if parallel.support_counts != serial.support_counts:
        print("shm-leak check: parallel support counts diverged "
              "from serial")
        return 1
    if parallel.rules != serial.rules:
        print("shm-leak check: parallel rules diverged from serial")
        return 1

    handoff = parallel.stats.execution.shard_handoff
    if handoff != "zero-copy":
        print(f"shm-leak check: expected zero-copy handoff, got "
              f"{handoff!r} — the parallel path did not exercise "
              "the shared-memory store")
        return 1

    # Executors close inside mine(); any store kept alive by a cycle
    # would warn (-W error::ResourceWarning turns that fatal) and any
    # unlink failure leaves a file for the glob below.
    gc.collect()
    after = leaked_segments()
    if after:
        print(f"shm-leak check: leaked segments after run: {after}")
        return 1

    print(f"shm-leak check: ok — {NUM_RECORDS} records, 2 workers, "
          f"zero-copy handoff, {len(parallel.rules)} rule(s), "
          "no segments leaked")
    return 0


if __name__ == "__main__":
    sys.exit(main())

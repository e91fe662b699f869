#!/usr/bin/env python3
"""The pipeline benchmark: one workload per process, one JSON result line.

Usage, from the root of a checkout::

    python3 pipebench/run.py --workload credit_cold --seed 1 --seconds 12 --trace 0

``--trace 0`` sets the workload up several times, each time on its own
seeded table (``setup_s`` is the median), runs the workload's operation
in a closed loop over those inputs for ``--seconds``, checks every
output and prints the end-to-end metrics.  ``--trace 1`` splits the
``--seconds`` between an untraced loop and a loop with the layer probes
of ``probes.py`` installed, and prints the per-layer metrics; the spans
are written once, at the end, under ``pipebench/out/``.

The last line of standard output is always the result object; the lines
before it repeat each metric by name with its unit, the op counts and
the run's plain latency percentiles.
"""

from __future__ import annotations

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from array import array  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

#: A median needs a few samples even when one op outlasts ``--seconds``.
MIN_OPS = 3
OUT_DIR = HERE / "out"
#: String hashing is salted per process, and the salt alone moved one
#: table's median mine time by up to ~20% between processes (dict and
#: set layouts change with it).  Runs pin it, so that they differ only
#: in their --seed inputs.
HASH_SEED = "0"

END_TO_END = (
    ("setup_s", "s"),
    ("op_ms", "ms"),
    ("peak_rss_mb", "MB"),
)

#: (metric, unit, span name, field): ``self_s`` and counter fields are
#: reported per traced op.
LAYER_SUMS = (
    ("mapper.encode_s", "s", "mapper.encode", "self_s"),
    ("miner.realized_k_s", "s", "miner.realized_k", "self_s"),
    ("miner.realized_k_calls", "count", "miner.realized_k", "calls"),
    ("frequent_items.find_s", "s", "frequent_items.find", "self_s"),
    ("candidates.generate_s", "s", "candidates.generate", "self_s"),
    ("candidates.generated", "count", "candidates.generate", "n"),
    ("counting.group_s", "s", "counting.group", "self_s"),
    ("counting.itemsets_s", "s", "counting.itemsets", "self_s"),
    ("counting.kernel_s", "s", "counting.kernel", "self_s"),
    ("counting.pairs_s", "s", "counting.pairs", "self_s"),
    ("rulegen.generate_s", "s", "rulegen.generate", "self_s"),
    ("rulegen.rules", "count", "rulegen.generate", "n"),
    ("interest.filter_s", "s", "interest.filter", "self_s"),
    ("interest.rules_in", "count", "interest.filter", "in"),
    ("engine.stage_self_s", "s", "engine.stage", "self_s"),
    ("engine.dispatch_self_s", "s", "engine.dispatch", "self_s"),
    ("cache.put_s", "s", "cache.put", "self_s"),
    ("cache.puts", "count", "cache.put", "calls"),
    ("cache.get_s", "s", "cache.get", "self_s"),
    ("cache.gets", "count", "cache.get", "calls"),
    ("rules.encode_record_s", "s", "rules.encode_record", "self_s"),
    ("rules.match_self_s", "s", "rules.match", "self_s"),
    ("rules.predict_self_s", "s", "rules.predict", "self_s"),
    ("rtree.containing_point_s", "s", "rtree.containing_point", "self_s"),
    ("runtime.gc_s", "s", "runtime.gc", "self_s"),
    ("runtime.gc_collections", "count", "runtime.gc", "calls"),
)

#: The same, per traced index build (``credit_predict``'s set-ups).
BUILD_SUMS = (
    ("rules.build_self_s", "s", "rules.build", "self_s"),
    ("rtree.insert_s", "s", "rtree.insert", "self_s"),
    ("rtree.inserts", "count", "rtree.insert", "calls"),
)

#: Metrics derived from several spans, with their units.
LAYER_DERIVED = (
    ("counting.candidates", "count"),
    ("counting.yield", "ratio"),
    ("interest.kept_ratio", "ratio"),
    ("cache.hit_ratio", "ratio"),
    ("rules.matches_per_query", "count"),
    ("rules.index_build_s", "s"),
    ("unattributed_s", "s"),
    ("unattributed_ratio", "ratio"),
    ("trace.op_wall_s", "s"),
    ("trace.overhead_ratio", "ratio"),
    ("op_error_rate", "ratio"),
)

PER_LAYER = (
    tuple((m, u) for m, u, _, _ in LAYER_SUMS + BUILD_SUMS) + LAYER_DERIVED
)

COUNTING_SPANS = ("counting.pairs", "counting.itemsets")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument(
        "--scale",
        choices=("full", "toy"),
        default="full",
        help="toy: small inputs for the self-test",
    )
    parser.add_argument(
        "--inject",
        default=None,
        help="corrupt every op's output with this fault (self-test only)",
    )
    return parser.parse_args(argv)


class Loop:
    """One closed loop's outcome: per-op latencies and failed op ids.

    Latencies are packed doubles, so that memory, read for
    ``peak_rss_mb``, hardly grows with the number of ops a run completes.
    """

    def __init__(self) -> None:
        self.latencies = array("d")
        #: Fastest latency per op group (``workload.op_key``).
        self.best: dict = {}
        self.failed: set = set()
        self.frequent = 0


def run_loop(workload, first_op: int, seconds: float, fault=None, tracer=None):
    """Run ops back to back for ``seconds`` (at least ``MIN_OPS`` ops).

    Each op's input is made, the previous output released and (for
    workloads that ask) a full collection run before the timer starts;
    the output check runs after it stops.  Collections that happen
    inside an op stay inside its time.
    """
    loop = Loop()
    clock = time.perf_counter
    out = None
    if not workload.collect_each_op:
        gc.collect()
    started = clock()
    i = first_op
    while len(loop.latencies) < MIN_OPS or clock() - started < seconds:
        args = workload.op_input(i)
        out = None
        if workload.collect_each_op:
            gc.collect()
        mark = len(tracer.spans) if tracer is not None else 0
        try:
            if tracer is None:
                t0 = clock()
                out = workload.op(args)
                t1 = clock()
            else:
                with tracer.op(i):
                    t0 = clock()
                    out = workload.op(args)
                    t1 = clock()
        except Exception as exc:  # an op that raises is a failed op
            print(f"op {i} raised {exc!r}", file=sys.stderr)
            t1 = clock()
            loop.failed.add(i)
        else:
            if fault is not None:
                out = workload.inject(fault, out)
            if not workload.check(i, out):
                loop.failed.add(i)
            if tracer is not None and any(
                span[0] in COUNTING_SPANS for span in tracer.spans[mark:]
            ):
                loop.frequent += workload.frequent_counted(out)
        loop.latencies.append(t1 - t0)
        key = workload.op_key(i)
        loop.best[key] = min(t1 - t0, loop.best.get(key, t1 - t0))
        i += 1
    return loop


def op_seconds(loop: Loop) -> float:
    """Median, over the run's op groups, of each group's fastest op.

    On a shared 2-vCPU virtual machine a process runs at full speed or
    up to ~1.8x slower, switching within a second.  An op that lasts
    seconds averages that out, and is a group of its own, so this is
    the plain median op time.  Sub-millisecond ops do not: each lands in
    one speed, and their plain median jumps from one speed to the other
    as the slow share of the run crosses one half.  Their group is the
    ops that repeat one input's work, and its fastest op is that input's
    cost with the least interference.
    """
    return statistics.median(loop.best.values())


def end_to_end_metrics(setup_s: float, loop: Loop, peak_rss_mb: float):
    return {
        "setup_s": setup_s,
        "op_ms": op_seconds(loop) * 1e3,
        "peak_rss_mb": peak_rss_mb,
    }


def layer_metrics(
    totals: dict, builds: dict, loop: Loop, untraced: Loop, failed, attempted
):
    layers = totals["layers"]
    ops = totals["ops"]

    def field(span, key, spans=layers):
        return spans.get(span, {}).get(key, 0)

    def ratio(num, den):
        return num / den if den else 0.0

    metrics = {
        metric: field(span, key) / ops
        for metric, _, span, key in LAYER_SUMS
    }
    metrics.update(
        {
            metric: ratio(field(span, key, builds["layers"]), builds["ops"])
            for metric, _, span, key in BUILD_SUMS
        }
    )
    counted = sum(field(span, "n") for span in COUNTING_SPANS)
    metrics.update(
        {
            "counting.candidates": counted / ops,
            "counting.yield": ratio(loop.frequent, counted),
            "interest.kept_ratio": ratio(
                field("interest.filter", "n"), field("interest.filter", "in")
            ),
            "cache.hit_ratio": ratio(
                field("cache.get", "hit"), field("cache.get", "calls")
            ),
            "rules.matches_per_query": ratio(
                field("rules.match", "n"), field("rules.match", "calls")
            ),
            "rules.index_build_s": ratio(builds["op_wall_s"], builds["ops"]),
            "unattributed_s": totals["unattributed_s"] / ops,
            "unattributed_ratio": ratio(
                totals["unattributed_s"], totals["op_wall_s"]
            ),
            "trace.op_wall_s": totals["op_wall_s"] / ops,
            "trace.overhead_ratio": statistics.median(loop.latencies)
            / statistics.median(untraced.latencies),
            "op_error_rate": len(failed) / attempted,
        }
    )
    return metrics


def percentile_line(latencies_ms, percent: int) -> str:
    """Nearest-rank percentile with its sample count and the samples beyond it."""
    ordered = sorted(latencies_ms)
    rank = math.ceil(percent / 100 * len(ordered))
    beyond = len(ordered) - rank
    return (
        f"op_p{percent}_ms {ordered[rank - 1]:.4f} ms "
        f"(n={len(ordered)}, {beyond} beyond)"
    )


def main(argv=None) -> int:
    args = parse_args(argv)
    # Importing the workloads imports the program: a checkout without
    # its sources fails here, before any result is printed.
    from probes import Tracer, install_probes, layer_totals
    from workloads import FAULTS, WORKLOADS

    imported = time.perf_counter() - _STARTED
    if args.workload not in WORKLOADS:
        raise SystemExit(
            f"unknown workload {args.workload!r}; "
            f"choose from {sorted(WORKLOADS)}"
        )
    if args.inject is not None and args.inject not in FAULTS:
        raise SystemExit(f"unknown fault {args.inject!r}; choose from {FAULTS}")
    workload = WORKLOADS[args.workload](args.seed, args.scale)
    build_tracer = Tracer() if args.trace else None

    setup_seconds = []
    for k in range(workload.setups):
        gc.collect()
        t0 = time.perf_counter()
        workload.setup(k, build_tracer)
        setup_seconds.append(time.perf_counter() - t0)
    setup_s = imported + statistics.median(setup_seconds)

    # A traced run splits its time, so it lasts as long as an untraced one.
    seconds = args.seconds / 2 if args.trace else args.seconds
    untraced = run_loop(workload, 0, seconds, args.inject)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    loops = [untraced]
    tracer = None
    if args.trace:
        tracer = Tracer()
        with install_probes(tracer):
            loops.append(
                run_loop(
                    workload,
                    len(untraced.latencies),
                    seconds,
                    args.inject,
                    tracer,
                )
            )

    attempted = sum(len(loop.latencies) for loop in loops)
    failed = set().union(*(loop.failed for loop in loops))
    failed |= workload.final_failures()

    if args.trace:
        OUT_DIR.mkdir(exist_ok=True)
        stem = f"{args.workload}-seed{args.seed}"
        tracer.write(OUT_DIR / f"{stem}.spans.json")
        build_tracer.write(OUT_DIR / f"{stem}.build-spans.json")
        metrics = layer_metrics(
            layer_totals(tracer),
            layer_totals(build_tracer),
            loops[1],
            untraced,
            failed,
            attempted,
        )
        units = dict(PER_LAYER)
    else:
        metrics = end_to_end_metrics(setup_s, untraced, peak_rss_mb)
        units = dict(END_TO_END)

    latencies_ms = [s * 1e3 for s in untraced.latencies]
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    print(f"ops {attempted} failed {len(failed)}")
    print(f"untraced ops {len(latencies_ms)}, op groups {len(untraced.best)}")
    print(percentile_line(latencies_ms, 50))
    if len(latencies_ms) >= 1000:
        print(percentile_line(latencies_ms, 99))
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")
    result = {
        "correct": not failed,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        os.execve(
            sys.executable,
            [sys.executable, *sys.argv],
            {**os.environ, "PYTHONHASHSEED": HASH_SEED},
        )
    sys.exit(main())

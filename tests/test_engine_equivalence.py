"""Property test: execution strategy never changes mining output.

The engine's core guarantee is that executors and shard layouts are
purely operational — per-shard integer support counts merge by addition,
counting structures are chosen once against full-table cardinalities,
and pass-2 thresholding happens once on the merged global counts.  So for *any*
table, *any* shard size, and *any* executor, the mining result must be
bit-identical to the serial single-shard reference: same
``support_counts`` (values *and* dict insertion order), same ``rules``,
same ``interesting_rules``.

One randomized property drives serial vs. fine-grained shards vs. a
two-worker process pool under both counting structures — the default
memory budget (the array everywhere) and budget 0 (the R*-tree
everywhere, pass 2 through explicit groups) — and under a parallel
executor the shard views additionally travel as zero-copy shared-memory
descriptors; runs also span the artifact-cache backends (each run gets
a private cache, so a hit can only come from the run's own stages).
"""

import tempfile

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    CacheConfig,
    ExecutionConfig,
    MinerConfig,
    QuantitativeMiner,
)
from repro.table import RelationalTable, TableSchema, categorical, quantitative


def build_table(x_values, y_values, c_values):
    schema = TableSchema(
        [
            quantitative("x"),
            quantitative("y"),
            categorical("c", ("a", "b", "d")),
        ]
    )
    return RelationalTable.from_columns(
        schema,
        [
            np.array(x_values, dtype=float),
            np.array(y_values, dtype=float),
            np.array(c_values, dtype=np.int64) % 3,
        ],
    )


draws = st.lists(st.integers(0, 9), min_size=30, max_size=80)

#: The default budget (the array everywhere) and budget 0 (the R*-tree).
budgets = st.sampled_from([MinerConfig().memory_budget_bytes, 0])


def mine_with(
    table, budget, minsup, execution, cache_backend="none", target=None
):
    def build_config(cache):
        return MinerConfig(
            min_support=minsup,
            min_confidence=0.3,
            max_support=0.6,
            partial_completeness=3.0,
            memory_budget_bytes=budget,
            interest_level=1.1,
            target=target,
            execution=execution,
            cache=cache,
        )

    if cache_backend == "disk":
        # A private directory per run: a hit can only restore artifacts
        # this very run stored, so caching cannot mask a divergence.
        with tempfile.TemporaryDirectory() as tmp:
            cache = CacheConfig(backend="disk", directory=tmp)
            return QuantitativeMiner(table, build_config(cache)).mine()
    cache = CacheConfig(backend=cache_backend)
    return QuantitativeMiner(table, build_config(cache)).mine()


class TestExecutionEquivalence:
    @given(
        draws,
        draws,
        draws,
        st.floats(0.15, 0.4),
        budgets,
        st.integers(1, 25),
        st.sampled_from(["none", "memory", "disk"]),
    )
    @settings(max_examples=8, deadline=None)
    def test_execution_strategy_is_invisible(
        self, xs, ys, cs, minsup, budget, shard_size, cache_backend
    ):
        n = min(len(xs), len(ys), len(cs))
        table = build_table(xs[:n], ys[:n], cs[:n])

        reference = mine_with(
            table, budget, minsup, ExecutionConfig()
        )
        variants = {
            "sharded-serial": ExecutionConfig(shard_size=shard_size),
            "parallel": ExecutionConfig(
                executor="parallel", num_workers=2
            ),
            "parallel-sharded": ExecutionConfig(
                executor="parallel", num_workers=2, shard_size=shard_size
            ),
        }
        for label, execution in variants.items():
            result = mine_with(
                table, budget, minsup, execution, cache_backend
            )
            assert result.support_counts == reference.support_counts, label
            assert list(result.support_counts) == list(
                reference.support_counts
            ), f"{label}: iteration order diverged"
            assert result.rules == reference.rules, label
            assert (
                result.interesting_rules == reference.interesting_rules
            ), label

    @given(
        draws,
        draws,
        draws,
        st.floats(0.15, 0.4),
        budgets,
        st.sampled_from(["x", "y", "c"]),
        st.sampled_from(
            [
                (ExecutionConfig(), "none"),
                (ExecutionConfig(shard_size=9), "memory"),
                (
                    ExecutionConfig(executor="parallel", num_workers=2),
                    "disk",
                ),
            ]
        ),
    )
    @settings(max_examples=8, deadline=None)
    def test_goal_directed_equals_filtered_full_mine(
        self, xs, ys, cs, minsup, budget, target, variant
    ):
        """``target=`` mining is pure pruning: for any table, budget,
        executor and cache, it must return exactly the rules of a full
        mine whose consequent is the single item over the target
        attribute — same objects, same order — while never counting
        *more* candidates."""
        execution, cache_backend = variant
        n = min(len(xs), len(ys), len(cs))
        table = build_table(xs[:n], ys[:n], cs[:n])
        target_idx = table.schema.index_of(target)

        full = mine_with(table, budget, minsup, ExecutionConfig())
        goal = mine_with(
            table, budget, minsup, execution, cache_backend,
            target=target,
        )

        def to_target(rules):
            return [
                r
                for r in rules
                if len(r.consequent) == 1
                and r.consequent[0].attribute == target_idx
            ]

        assert goal.rules == to_target(full.rules)
        assert goal.interesting_rules == to_target(full.interesting_rules)
        assert (
            goal.stats.total_candidates <= full.stats.total_candidates
        ), "goal-directed mining counted more candidates than a full mine"

    @given(draws, st.integers(1, 7))
    @settings(max_examples=6, deadline=None)
    def test_auto_backend_choice_ignores_shard_layout(
        self, xs, shard_size
    ):
        """The budget rule must charge tables at full-table cardinalities,
        so tiny shards cannot flip a group to a different structure.  At
        256 bytes the 1-D arrays (at most 10 cells) fit and the 2-D ones
        do not, so the choice is made both ways within a run."""
        table = build_table(xs, list(reversed(xs)), xs)
        reference = mine_with(table, 256, 0.2, ExecutionConfig())
        sharded = mine_with(
            table, 256, 0.2, ExecutionConfig(shard_size=shard_size)
        )
        assert sharded.support_counts == reference.support_counts
        assert (
            sharded.stats.counting_groups_by_backend
            == reference.stats.counting_groups_by_backend
        )

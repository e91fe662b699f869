"""Integration tests for the miner facade (repro.core.miner)."""

import asyncio

import pytest

from repro import (
    MinerConfig,
    MiningJobRunner,
    QuantitativeMiner,
    mine_quantitative_rules,
    mine_quantitative_rules_async,
)
from repro.data import (
    age_partition_edges,
    generate_credit_table,
    people_table,
)


@pytest.fixture(scope="module")
def credit_table():
    return generate_credit_table(2_000, seed=7)


@pytest.fixture(scope="module")
def credit_config():
    return MinerConfig(
        min_support=0.2,
        min_confidence=0.25,
        max_support=0.4,
        partial_completeness=3.0,
        interest_level=1.5,
    )


@pytest.fixture(scope="module")
def credit_result(credit_table, credit_config):
    return QuantitativeMiner(credit_table, credit_config).mine()


#: Spellings the one-call APIs no longer take: flat aliases of the
#: operational blocks' fields, and a block that no mine ever read.  Each
#: value is one the alias once accepted.
RETIRED_KEYWORDS = {
    "executor": "parallel",
    "num_workers": 2,
    "shard_size": 16,
    "rule_block_size": 4,
    "cache_enabled": False,
    "cache_backend": "none",
    "cache_max_entries": 8,
    "cache_dir": "cache",
    "cache_max_bytes": 1 << 20,
    "workers": "127.0.0.1:9",
    "remote_task_timeout": 1.0,
    "remote_max_retries": 0,
    "remote_backoff_seconds": 0.0,
    "remote_fallback_local": False,
    "incremental_enabled": True,
    "incremental_shard_size": 16,
    "k_drift_budget": 0.5,
    "max_concurrent_jobs": 2,
    "job_timeout": 0.001,
    "obs_enabled": True,
    "trace_path": "run.jsonl",
    "chrome_trace_path": "run.chrome.json",
    "metrics_path": "metrics.json",
    "log_level": "INFO",
    "otlp_endpoint": "http://127.0.0.1:9",
    "async_mining": {"max_concurrent_jobs": 2},
}


class TestOneCallApi:
    def test_keyword_overrides(self):
        result = mine_quantitative_rules(
            people_table(),
            min_support=0.4,
            min_confidence=0.5,
            max_support=0.6,
            num_partitions={"Age": age_partition_edges()},
        )
        assert result.rules

    def test_config_and_overrides_conflict(self):
        with pytest.raises(TypeError, match="not both"):
            mine_quantitative_rules(
                people_table(), MinerConfig(), min_support=0.2
            )

    @pytest.mark.parametrize("keyword", list(RETIRED_KEYWORDS))
    def test_retired_keyword_rejected(self, keyword):
        table = people_table()
        override = {keyword: RETIRED_KEYWORDS[keyword]}
        with pytest.raises(TypeError, match=f"'{keyword}'"):
            mine_quantitative_rules(table, **override)
        with pytest.raises(TypeError, match=f"'{keyword}'"):
            asyncio.run(mine_quantitative_rules_async(table, **override))
        with pytest.raises(TypeError, match=f"'{keyword}'"):
            MiningJobRunner(max_concurrent_jobs=1).submit(table, **override)


class TestResultInvariants:
    def test_interesting_subset_of_rules(self, credit_result):
        assert set(credit_result.interesting_rules) <= set(
            credit_result.rules
        )

    def test_interest_prunes_something_on_correlated_data(
        self, credit_result
    ):
        assert 0 < len(credit_result.interesting_rules) < len(
            credit_result.rules
        )

    def test_supports_meet_minsup(self, credit_result, credit_config):
        n = credit_result.num_records
        for count in credit_result.support_counts.values():
            assert count >= credit_config.min_support * n

    def test_confidences_meet_minconf(self, credit_result, credit_config):
        for rule in credit_result.rules:
            assert rule.confidence >= credit_config.min_confidence - 1e-12

    def test_stats_populated(self, credit_result):
        stats = credit_result.stats
        assert stats.num_records == 2_000
        assert stats.num_attributes == 7
        assert stats.num_rules == len(credit_result.rules)
        assert stats.num_interesting_rules == len(
            credit_result.interesting_rules
        )
        assert stats.num_passes >= 2
        assert stats.total_seconds > 0
        assert "frequent_itemsets" in stats.phase_seconds

    def test_realized_completeness_reported(self, credit_result):
        assert credit_result.stats.realized_completeness >= 1.0

    def test_summary_renders(self, credit_result):
        text = credit_result.stats.summary()
        assert "rules" in text
        assert "pass 2" in text

    def test_describe_rules_renders_names(self, credit_result):
        text = credit_result.describe_rules(limit=5)
        assert "=>" in text


class TestDeterminism:
    def test_same_seed_same_rules(self, credit_config):
        a = QuantitativeMiner(
            generate_credit_table(1_000, seed=3), credit_config
        ).mine()
        b = QuantitativeMiner(
            generate_credit_table(1_000, seed=3), credit_config
        ).mine()
        assert a.rules == b.rules
        assert a.interesting_rules == b.interesting_rules


class TestBackendEquivalence:
    """Section 5.2: both counting structures must produce identical output.

    The memory budget picks the structure per counting table: budget 0
    puts every table on the R*-tree (pass 2 through explicit groups),
    and ``auto``'s budget sits between this table's smallest and largest
    tables, so one run mixes both structures.
    """

    @pytest.mark.parametrize(
        "backend, budget", [("rtree", 0), ("auto", 4096)], ids=["rtree", "auto"]
    )
    def test_backends_equal_array(self, backend, budget):
        table = generate_credit_table(500, seed=11)
        base = dict(
            min_support=0.25,
            min_confidence=0.3,
            max_support=0.45,
            partial_completeness=4.0,
        )
        reference = QuantitativeMiner(table, MinerConfig(**base)).mine()
        other = QuantitativeMiner(
            table, MinerConfig(**base, memory_budget_bytes=budget)
        ).mine()
        assert set(reference.stats.counting_groups_by_backend) == {"array"}
        used = set(other.stats.counting_groups_by_backend)
        assert "rtree" in used
        assert ("array" in used) == (backend == "auto")
        assert reference.support_counts == other.support_counts
        assert list(reference.support_counts) == list(other.support_counts)
        assert reference.rules == other.rules
        assert reference.interesting_rules == other.interesting_rules


class TestMaxItemsetSize:
    def test_cap_respected(self, credit_table):
        config = MinerConfig(
            min_support=0.2,
            max_support=0.4,
            partial_completeness=3.0,
            max_itemset_size=2,
        )
        result = QuantitativeMiner(credit_table, config).mine()
        assert max(len(s) for s in result.support_counts) == 2

    def test_size_one_yields_no_rules(self, credit_table):
        config = MinerConfig(
            min_support=0.2,
            max_support=0.4,
            partial_completeness=3.0,
            max_itemset_size=1,
        )
        result = QuantitativeMiner(credit_table, config).mine()
        assert result.rules == []


class TestInterestPruneIntegration:
    def test_and_mode_prunes_items(self, credit_table):
        config = MinerConfig(
            min_support=0.2,
            max_support=0.9,
            partial_completeness=3.0,
            interest_level=2.0,
            interest_mode="support_and_confidence",
        )
        result = QuantitativeMiner(credit_table, config).mine()
        assert result.stats.items_pruned_by_interest > 0
        threshold = credit_table.num_records / 2.0
        for itemset in result.support_counts:
            for item in itemset:
                if result.mapper.mapping(item.attribute).is_quantitative:
                    count = result.frequent_items.support(item) * len(
                        credit_table
                    )
                    assert count <= threshold + 1e-9

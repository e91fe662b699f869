"""The artifact cache: backends, engine integration, and the core
correctness property — a cached re-mine is bit-identical to a cold run.

Caching is an optimization that must be *invisible* in the output.  The
hypothesis property below drives a miner through a confidence/interest
sweep against a shared cache and checks every result (including dict
insertion order) against a fresh cache-free miner at the same point.
"""

import asyncio
import dataclasses
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    CacheConfig,
    MinerConfig,
    MiningJobRunner,
    QuantitativeMiner,
    mine_quantitative_rules_async,
)
from repro.engine import MISSING, DiskCache, MemoryCache, NullCache
from repro.table import RelationalTable, TableSchema, categorical, quantitative


def build_table(x_values, c_values):
    schema = TableSchema(
        [quantitative("x"), categorical("c", ("a", "b", "d"))]
    )
    return RelationalTable.from_columns(
        schema,
        [
            np.array(x_values, dtype=float),
            np.array(c_values, dtype=np.int64) % 3,
        ],
    )


def small_table():
    return build_table(list(range(30)), [v % 3 for v in range(30)])


NO_CACHE = CacheConfig(enabled=False)


class TestMemoryCache:
    def test_roundtrip_and_counters(self):
        cache = MemoryCache()
        assert cache.get("k") is MISSING
        cache.put("k", {"a": [1, 2]})
        assert cache.get("k") == {"a": [1, 2]}
        assert (cache.hits, cache.misses, cache.puts) == (1, 1, 1)

    def test_values_are_copies_not_aliases(self):
        # The pipeline mutates support_counts in place; a cache that
        # returned its stored object would be poisoned by the first run.
        cache = MemoryCache()
        value = {"counts": {("x",): 3}}
        cache.put("k", value)
        value["counts"]["poisoned"] = True
        first = cache.get("k")
        first["counts"]["also-poisoned"] = True
        assert cache.get("k") == {"counts": {("x",): 3}}

    def test_lru_eviction(self):
        cache = MemoryCache(max_entries=2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1  # refresh "a": now "b" is oldest
        cache.put("c", 3)
        assert "b" not in cache
        assert cache.get("a") == 1
        assert cache.get("c") == 3
        assert len(cache) == 2


class TestDiskCache:
    def test_roundtrip(self, tmp_path):
        cache = DiskCache(str(tmp_path))
        assert cache.get("k") is MISSING
        cache.put("k", {"rules": (1, 2)})
        assert cache.get("k") == {"rules": (1, 2)}

    def test_persists_across_instances(self, tmp_path):
        DiskCache(str(tmp_path)).put("k", "v")
        again = DiskCache(str(tmp_path))
        assert again.get("k") == "v"
        assert again.hits == 1

    def test_corrupt_entry_is_a_miss_and_removed(self, tmp_path):
        cache = DiskCache(str(tmp_path))
        cache.put("k", "v")
        path = tmp_path / "k.pkl"
        path.write_bytes(b"not a pickle")
        assert cache.get("k") is MISSING
        assert not path.exists()

    def test_expands_user_directory(self, tmp_path, monkeypatch):
        monkeypatch.setenv("HOME", str(tmp_path))
        cache = DiskCache("~/cache-here")
        cache.put("k", 1)
        assert (tmp_path / "cache-here" / "k.pkl").exists()


class TestNullCache:
    def test_never_stores(self):
        cache = NullCache()
        cache.put("k", 1)
        assert cache.get("k") is MISSING
        assert cache.misses == 1


class TestCacheConfig:
    def test_backend_resolution(self, tmp_path):
        assert isinstance(CacheConfig().build(), MemoryCache)
        assert CacheConfig(enabled=False).build() is None
        assert CacheConfig(backend="none").build() is None
        disk = CacheConfig(
            backend="disk", directory=str(tmp_path)
        ).build()
        assert isinstance(disk, DiskCache)

    def test_directory_implies_disk_backend(self, tmp_path):
        config = CacheConfig(directory=str(tmp_path))
        assert config.backend == "disk"

    def test_validation(self):
        import pytest

        with pytest.raises(ValueError):
            CacheConfig(backend="redis")
        with pytest.raises(ValueError):
            CacheConfig(max_entries=0)


class TestEngineIntegration:
    def test_second_identical_run_hits_every_cacheable_stage(self):
        miner = QuantitativeMiner(
            small_table(),
            MinerConfig(min_support=0.2, interest_level=1.1),
        )
        cold = miner.mine()
        warm = miner.mine()
        assert cold.stats.execution.stage_cache_events[
            "frequent_itemsets"
        ] == "miss"
        events = warm.stats.execution.stage_cache_events
        assert events["frequent_itemsets"] == "hit"
        assert events["rule_generation"] == "hit"
        assert events["interest"] == "hit"
        assert warm.stats.execution.cache_hits == 3
        assert warm.rules == cold.rules
        assert warm.interesting_rules == cold.interesting_rules
        # Result-set counters must survive the stages being skipped.
        assert warm.stats.num_rules == cold.stats.num_rules == len(
            cold.rules
        )
        assert warm.stats.num_frequent_itemsets == len(cold.support_counts)
        assert warm.stats.num_interesting_rules == len(
            cold.interesting_rules
        )

    def test_confidence_only_change_reenters_at_rulegen(self):
        config = MinerConfig(
            min_support=0.2, min_confidence=0.3, interest_level=1.1
        )
        miner = QuantitativeMiner(small_table(), config)
        miner.mine()
        warm = miner.mine(
            dataclasses.replace(config, min_confidence=0.6)
        )
        events = warm.stats.execution.stage_cache_events
        assert events["frequent_itemsets"] == "hit"
        assert events["rule_generation"] == "miss"

    def test_interest_only_change_reenters_at_interest(self):
        config = MinerConfig(
            min_support=0.2, min_confidence=0.3, interest_level=1.1
        )
        miner = QuantitativeMiner(small_table(), config)
        miner.mine()
        warm = miner.mine(
            dataclasses.replace(config, interest_level=1.5)
        )
        events = warm.stats.execution.stage_cache_events
        assert events["frequent_itemsets"] == "hit"
        assert events["rule_generation"] == "hit"
        assert events["interest"] == "miss"

    def test_disabled_cache_skips_consultation(self):
        miner = QuantitativeMiner(
            small_table(),
            MinerConfig(min_support=0.2, cache=CacheConfig(enabled=False)),
        )
        result = miner.mine()
        events = result.stats.execution.stage_cache_events
        assert set(events.values()) == {"skipped"}
        assert result.stats.execution.cache_hits == 0
        assert miner.cache is None

    def test_cached_artifacts_are_not_aliased_across_runs(self):
        miner = QuantitativeMiner(
            small_table(), MinerConfig(min_support=0.2)
        )
        first = miner.mine()
        first.support_counts.clear()
        first.rules.clear()
        warm = miner.mine()
        assert warm.stats.execution.cache_hits > 0
        assert len(warm.support_counts) > 0
        assert warm.support_counts is not first.support_counts

    def test_disk_cache_shared_across_miners(self, tmp_path):
        config = MinerConfig(
            min_support=0.2,
            interest_level=1.1,
            cache=CacheConfig(backend="disk", directory=str(tmp_path)),
        )
        first = QuantitativeMiner(small_table(), config).mine()
        # A brand-new miner (fresh process in real life) hits the same
        # on-disk artifacts.
        second = QuantitativeMiner(small_table(), config).mine()
        events = second.stats.execution.stage_cache_events
        assert events["frequent_itemsets"] == "hit"
        assert events["rule_generation"] == "hit"
        assert second.rules == first.rules

    def test_per_run_timings_reset_cumulative_accumulate(self):
        miner = QuantitativeMiner(
            small_table(), MinerConfig(min_support=0.2)
        )
        first = miner.mine()
        second = miner.mine()
        per_run = second.stats.execution.stage_seconds
        cumulative = second.stats.execution.cumulative_stage_seconds
        assert set(per_run) <= set(cumulative)
        for name, seconds in per_run.items():
            expected = first.stats.execution.stage_seconds.get(
                name, 0.0
            ) + seconds
            assert cumulative[name] == expected

    def test_summary_reports_cache_lines(self):
        miner = QuantitativeMiner(
            small_table(), MinerConfig(min_support=0.2)
        )
        miner.mine()
        summary = miner.mine().stats.summary()
        assert "cache:" in summary
        assert "hit(s)" in summary

    def test_flat_cache_overrides(self, tmp_path):
        from repro.core import mine_quantitative_rules

        result = mine_quantitative_rules(
            small_table(), min_support=0.2, cache={"enabled": False}
        )
        events = result.stats.execution.stage_cache_events
        assert set(events.values()) == {"skipped"}
        result = mine_quantitative_rules(
            small_table(),
            min_support=0.2,
            cache={"directory": str(tmp_path)},
        )
        assert any(tmp_path.iterdir())

    def test_flat_and_block_cache_overrides_conflict(self):
        import pytest

        from repro.core import mine_quantitative_rules

        # A cache field passed flat is an unknown keyword, with or
        # without the block beside it.
        with pytest.raises(TypeError, match="'cache_enabled'"):
            mine_quantitative_rules(
                small_table(),
                cache_enabled=False,
                cache=CacheConfig(),
            )

    @pytest.mark.parametrize(
        "entry_point", ["miner", "async_one_call", "job_runner"]
    )
    @pytest.mark.parametrize(
        "block",
        [{"directory": "unused"}, CacheConfig(enabled=False)],
        ids=["dict", "CacheConfig"],
    )
    def test_cache_block_injected_as_cache_fails_at_construction(
        self, entry_point, block
    ):
        # ``cache=`` on these takes a built ArtifactCache; the cache
        # block belongs in ``config=``, and the error says so.
        config = MinerConfig(min_support=0.2)
        construct = {
            "miner": lambda: QuantitativeMiner(
                small_table(), config, cache=block
            ),
            "async_one_call": lambda: asyncio.run(
                mine_quantitative_rules_async(
                    small_table(), config, cache=block
                )
            ),
            "job_runner": lambda: MiningJobRunner(cache=block),
        }[entry_point]
        with pytest.raises(TypeError, match="config="):
            construct()


draws = st.lists(st.integers(0, 9), min_size=25, max_size=60)


class TestCachedRemineProperty:
    @given(
        draws,
        draws,
        st.floats(0.1, 0.9),
        st.floats(1.0, 2.5),
    )
    @settings(max_examples=10, deadline=None)
    def test_warm_remine_bit_identical_to_cold(
        self, xs, cs, min_confidence, interest_level
    ):
        """Re-mining with changed downstream parameters against a warm
        cache equals a cold cache-free run at the same point, including
        dict insertion order."""
        n = min(len(xs), len(cs))
        table = build_table(xs[:n], cs[:n])
        base = MinerConfig(
            min_support=0.2,
            min_confidence=0.3,
            interest_level=1.1,
            partial_completeness=3.0,
        )
        miner = QuantitativeMiner(table, base)
        miner.mine()  # warm the cache at the base point

        point = dataclasses.replace(
            base,
            min_confidence=min_confidence,
            interest_level=interest_level,
        )
        warm = miner.mine(point)
        cold = QuantitativeMiner(
            table, dataclasses.replace(point, cache=NO_CACHE)
        ).mine()

        assert warm.stats.execution.stage_cache_events[
            "frequent_itemsets"
        ] == "hit"
        assert warm.support_counts == cold.support_counts
        assert list(warm.support_counts) == list(cold.support_counts)
        assert warm.rules == cold.rules
        assert warm.interesting_rules == cold.interesting_rules
        assert pickle.dumps(warm.rules) == pickle.dumps(cold.rules)

    @given(draws, st.integers(0, 59))
    @settings(max_examples=10, deadline=None)
    def test_table_mutation_invalidates(self, xs, position):
        """Changing any record forces the counting stages to re-run."""
        if len(set(xs)) < 2:
            return  # mutation below would be a no-op
        table = build_table(xs, xs)
        config = MinerConfig(min_support=0.2, partial_completeness=3.0)
        shared = CacheConfig()
        miner = QuantitativeMiner(
            table, dataclasses.replace(config, cache=shared)
        )
        first = miner.mine()

        mutated = list(xs)
        i = position % len(xs)
        mutated[i] = (mutated[i] + 1) % 10
        if mutated == list(xs):
            mutated[i] = (mutated[i] + 1) % 10
        other = QuantitativeMiner(
            build_table(mutated, mutated),
            dataclasses.replace(config, cache=shared),
        )
        # Hand the second miner the first one's cache to prove the
        # *fingerprint* (not cache identity) keeps the tables apart.
        other._cache = miner.cache
        result = other.mine()
        assert (
            result.stats.execution.stage_cache_events["frequent_itemsets"]
            == "miss"
        )
        reference = QuantitativeMiner(
            build_table(mutated, mutated),
            dataclasses.replace(config, cache=NO_CACHE),
        ).mine()
        assert result.support_counts == reference.support_counts
        assert result.rules == reference.rules
        assert first.stats is not result.stats

    @given(st.floats(0.15, 0.45))
    @settings(max_examples=6, deadline=None)
    def test_partitioning_change_invalidates(self, min_support):
        """min_support feeds Equation 2, so it must never hit the cache
        entries of a different support level."""
        table = small_table()
        base = MinerConfig(min_support=0.2, partial_completeness=3.0)
        miner = QuantitativeMiner(table, base)
        miner.mine()
        if min_support == base.min_support:
            return
        point = dataclasses.replace(base, min_support=min_support)
        warm = QuantitativeMiner(table, point)
        warm._cache = miner.cache
        result = warm.mine()
        assert (
            result.stats.execution.stage_cache_events["frequent_itemsets"]
            == "miss"
        )

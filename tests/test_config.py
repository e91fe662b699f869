"""Unit tests for repro.core.config."""

import pytest

from repro.core import (
    SUPPORT_AND_CONFIDENCE,
    SUPPORT_OR_CONFIDENCE,
    MinerConfig,
)


class TestValidation:
    def test_defaults_valid(self):
        config = MinerConfig()
        assert config.min_support == 0.1
        assert config.interest_mode == SUPPORT_OR_CONFIDENCE

    @pytest.mark.parametrize("value", [0.0, -0.1, 1.1])
    def test_min_support_bounds(self, value):
        with pytest.raises(ValueError, match="min_support"):
            MinerConfig(min_support=value)

    @pytest.mark.parametrize("value", [-0.1, 1.5])
    def test_min_confidence_bounds(self, value):
        with pytest.raises(ValueError, match="min_confidence"):
            MinerConfig(min_confidence=value)

    def test_min_confidence_zero_and_one_allowed(self):
        MinerConfig(min_confidence=0.0)
        MinerConfig(min_confidence=1.0)

    @pytest.mark.parametrize("value", [0.0, 1.5])
    def test_max_support_bounds(self, value):
        with pytest.raises(ValueError, match="max_support"):
            MinerConfig(max_support=value)

    @pytest.mark.parametrize("value", [1.0, 0.5])
    def test_completeness_must_exceed_one(self, value):
        with pytest.raises(ValueError, match="partial_completeness"):
            MinerConfig(partial_completeness=value)

    def test_negative_interest_rejected(self):
        with pytest.raises(ValueError, match="interest_level"):
            MinerConfig(interest_level=-1)

    def test_unknown_interest_mode_rejected(self):
        with pytest.raises(ValueError, match="interest_mode"):
            MinerConfig(interest_mode="maybe")

    def test_unknown_partition_method_rejected(self):
        with pytest.raises(ValueError, match="partition_method"):
            MinerConfig(partition_method="kmeans")

    def test_unknown_counting_backend_rejected(self):
        # The counting structure follows the memory budget; there is no
        # backend to pick, so the keyword itself is rejected.
        with pytest.raises(TypeError, match="counting"):
            MinerConfig(counting="gpu")

    def test_max_itemset_size_validated(self):
        with pytest.raises(ValueError):
            MinerConfig(max_itemset_size=0)
        MinerConfig(max_itemset_size=3)

    def test_max_quantitative_in_rule_validated(self):
        with pytest.raises(ValueError):
            MinerConfig(max_quantitative_in_rule=0)


class TestDerivedProperties:
    def test_interest_disabled_when_none(self):
        config = MinerConfig(interest_level=None)
        assert not config.interest_enabled
        assert config.effective_interest_level == 0.0

    def test_interest_disabled_at_zero(self):
        # R = 0 is Figure 8's "no interest measure" point.
        assert not MinerConfig(interest_level=0.0).interest_enabled

    def test_interest_enabled_for_positive_r(self):
        assert MinerConfig(interest_level=0.5).interest_enabled
        assert MinerConfig(interest_level=1.1).interest_enabled

    def test_modes_exported(self):
        MinerConfig(interest_mode=SUPPORT_AND_CONFIDENCE)
        MinerConfig(interest_mode=SUPPORT_OR_CONFIDENCE)


class TestLemma1Adjustment:
    def test_disabled_by_default(self):
        config = MinerConfig(min_confidence=0.5)
        assert config.effective_min_confidence == 0.5

    def test_divides_by_completeness(self):
        config = MinerConfig(
            min_confidence=0.6,
            partial_completeness=2.0,
            lemma1_confidence_adjustment=True,
        )
        assert config.effective_min_confidence == pytest.approx(0.3)

    def test_miner_generates_extra_low_confidence_rules(self):
        from repro.core import QuantitativeMiner
        from repro.data import generate_credit_table

        table = generate_credit_table(1_000, seed=8)
        base = dict(
            min_support=0.2,
            min_confidence=0.5,
            max_support=0.45,
            partial_completeness=3.0,
            max_quantitative_in_rule=2,
            max_itemset_size=2,
        )
        plain = QuantitativeMiner(table, MinerConfig(**base)).mine()
        adjusted = QuantitativeMiner(
            table, MinerConfig(**base, lemma1_confidence_adjustment=True)
        ).mine()
        assert set(plain.rules) <= set(adjusted.rules)
        assert len(adjusted.rules) > len(plain.rules)
        # The extra rules sit between minconf/K and minconf.
        extra = set(adjusted.rules) - set(plain.rules)
        for rule in extra:
            assert 0.5 / 3.0 - 1e-9 <= rule.confidence < 0.5


class TestObsConfigBlock:
    def test_disabled_by_default(self):
        from repro.core import ObsConfig

        config = MinerConfig()
        assert config.observability.enabled is False
        assert config.observability.build() is None
        assert isinstance(config.observability, ObsConfig)

    def test_any_export_target_enables(self):
        from repro.core import ObsConfig

        assert ObsConfig(trace_path="t.jsonl").enabled is True
        assert ObsConfig(metrics_path="m.json").enabled is True
        assert ObsConfig().enabled is False
        # An explicit False wins over the paths.
        off = ObsConfig(enabled=False, trace_path="t.jsonl")
        assert off.enabled is False
        assert off.build() is None

    def test_chrome_path_derived_from_trace_path(self):
        from repro.core import ObsConfig

        assert (
            ObsConfig(trace_path="run.jsonl").chrome_trace_path
            == "run.chrome.json"
        )
        assert (
            ObsConfig(trace_path="run.json").chrome_trace_path
            == "run.chrome.json"
        )
        explicit = ObsConfig(
            trace_path="run.jsonl", chrome_trace_path="other.json"
        )
        assert explicit.chrome_trace_path == "other.json"
        assert ObsConfig().chrome_trace_path is None

    def test_bad_log_level_rejected(self):
        from repro.core import ObsConfig

        with pytest.raises(ValueError):
            ObsConfig(log_level="CHATTY")
        ObsConfig(log_level="debug")  # case-insensitive

    def test_dict_normalization_and_type_check(self):
        config = MinerConfig(observability={"enabled": True})
        assert config.observability.enabled is True
        with pytest.raises(TypeError):
            MinerConfig(observability="loud")

    def test_build_returns_live_bundle(self, tmp_path):
        from repro.core import ObsConfig
        from repro.obs import Observability

        obs = ObsConfig(
            trace_path=str(tmp_path / "t.jsonl"),
            metrics_path=str(tmp_path / "m.json"),
        ).build()
        assert isinstance(obs, Observability)
        assert obs.tracer.enabled
        assert obs.metrics.enabled
        assert obs.chrome_trace_path == str(tmp_path / "t.chrome.json")

    def test_flat_overrides_fold_into_block(self):
        from repro.core.miner import _resolve_config

        config = _resolve_config(
            None,
            {
                "min_support": 0.2,
                "observability": {
                    "trace_path": "run.jsonl",
                    "log_level": "INFO",
                },
            },
        )
        assert config.observability.trace_path == "run.jsonl"
        assert config.observability.log_level == "INFO"
        assert config.observability.enabled is True
        assert config.min_support == 0.2


class TestBlocks:
    """The operational blocks, as one table drives them."""

    def test_every_block_coerced_and_type_checked(self):
        from dataclasses import asdict

        from repro.core.config import CONFIG_BLOCKS

        for name, block_type in CONFIG_BLOCKS.items():
            assert getattr(MinerConfig(), name) == block_type()
            assert getattr(MinerConfig(**{name: {}}), name) == block_type()
            block = block_type()
            assert getattr(MinerConfig(**{name: block}), name) is block
            with pytest.raises(TypeError, match=name):
                MinerConfig(**{name: "fast"})
            assert MinerConfig().to_dict()[name] == asdict(block_type())

    def test_passed_cache_block_not_rewritten(self):
        # Incremental mode raises the memory LRU's default bound on the
        # config's own copy, not on the block the caller passed in.
        from repro.core import CacheConfig

        cache = CacheConfig()
        incremental = MinerConfig(cache=cache, incremental={"enabled": True})
        assert incremental.cache.max_entries == 4096
        assert incremental.cache.build().max_entries == 4096
        assert cache.max_entries is None
        assert MinerConfig(cache=cache).cache.build().max_entries == 64


class TestDictContract:
    """MinerConfig.to_dict()/from_dict(): the serving-layer contract."""

    def json_round_trip(self, payload):
        import json

        return json.loads(json.dumps(payload))

    def test_defaults_round_trip(self):
        config = MinerConfig()
        data = self.json_round_trip(config.to_dict())
        assert MinerConfig.from_dict(data) == config

    def test_tuned_config_round_trips(self):
        from repro.core import (
            CacheConfig,
            ExecutionConfig,
            ObsConfig,
            Taxonomy,
        )

        config = MinerConfig(
            min_support=0.2,
            min_confidence=0.6,
            max_support=0.5,
            partial_completeness=2.0,
            interest_level=1.1,
            interest_mode=SUPPORT_AND_CONFIDENCE,
            memory_budget_bytes=0,
            num_partitions={"age": 7},
            taxonomies={
                "item": Taxonomy(
                    {"shirt": "clothes", "jacket": "outerwear",
                     "outerwear": "clothes"}
                )
            },
            execution=ExecutionConfig(executor="parallel", num_workers=2),
            cache=CacheConfig(enabled=False),
            observability=ObsConfig(enabled=True),
        )
        data = self.json_round_trip(config.to_dict())
        rebuilt = MinerConfig.from_dict(data)
        assert rebuilt == config
        assert rebuilt.taxonomies["item"] == config.taxonomies["item"]

    def test_empty_dict_is_defaults(self):
        assert MinerConfig.from_dict({}) == MinerConfig()

    def test_unknown_keys_rejected_loudly(self):
        with pytest.raises(ValueError, match="unknown"):
            MinerConfig.from_dict({"min_suport": 0.1})

    def test_invalid_values_still_validated(self):
        with pytest.raises(ValueError):
            MinerConfig.from_dict({"min_support": 2.0})

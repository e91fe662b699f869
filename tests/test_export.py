"""Unit tests for repro.core.export and the MiningResult export hooks."""

import json

import pytest

from repro.core import Item, MinerConfig, QuantitativeMiner, make_itemset
from repro.core.export import (
    itemsets_to_json,
    load_rules_json,
    rule_from_dict,
    rule_to_dict,
    rules_from_json,
    rules_to_json,
    save_rules_csv,
    save_rules_json,
)
from repro.core.rules import QuantitativeRule
from repro.data import age_partition_edges, people_table


@pytest.fixture(scope="module")
def result():
    config = MinerConfig(
        min_support=0.4,
        min_confidence=0.5,
        max_support=0.6,
        interest_level=1.1,
        num_partitions={"Age": age_partition_edges()},
    )
    return QuantitativeMiner(people_table(), config).mine()


def sample_rule():
    return QuantitativeRule(
        antecedent=make_itemset([Item(0, 2, 3), Item(1, 0, 0)]),
        consequent=make_itemset([Item(2, 2, 2)]),
        support=0.4,
        confidence=1.0,
    )


class TestRuleDicts:
    def test_round_trip(self):
        rule = sample_rule()
        assert rule_from_dict(rule_to_dict(rule)) == rule

    def test_display_added_with_mapper(self, result):
        data = rule_to_dict(result.rules[0], result.mapper)
        assert "display" in data["antecedent"][0]
        assert "attribute_name" in data["antecedent"][0]

    def test_no_display_without_mapper(self):
        data = rule_to_dict(sample_rule())
        assert "display" not in data["antecedent"][0]


class TestJsonDocuments:
    def test_round_trip_preserves_rules(self, result):
        text = rules_to_json(result.rules, result.mapper, {"k": 1})
        rules, metadata = rules_from_json(text)
        assert rules == result.rules
        assert metadata == {"k": 1}

    def test_document_structure(self, result):
        doc = json.loads(rules_to_json(result.rules[:2]))
        assert doc["format"] == "repro.quantitative_rules"
        assert doc["version"] == 1
        assert len(doc["rules"]) == 2

    def test_wrong_format_rejected(self):
        with pytest.raises(ValueError, match="not a repro"):
            rules_from_json('{"format": "something-else"}')

    def test_wrong_version_rejected(self):
        with pytest.raises(ValueError, match="version"):
            rules_from_json(
                '{"format": "repro.quantitative_rules", "version": 99}'
            )

    def test_file_round_trip(self, result, tmp_path):
        path = tmp_path / "rules.json"
        save_rules_json(result.rules, path, result.mapper, {"note": "x"})
        rules, metadata = load_rules_json(path)
        assert rules == result.rules
        assert metadata["note"] == "x"

    def test_itemsets_document(self, result):
        doc = json.loads(
            itemsets_to_json(
                result.support_counts, result.num_records, result.mapper
            )
        )
        assert doc["num_records"] == 5
        assert doc["itemsets"]
        first = doc["itemsets"][0]
        assert first["count"] >= 2
        assert 0 < first["support"] <= 1


class TestCsv:
    def test_rows_and_rendering(self, result, tmp_path):
        path = tmp_path / "rules.csv"
        save_rules_csv(result.rules, path, result.mapper)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "antecedent,consequent,support,confidence"
        assert len(lines) == len(result.rules) + 1
        assert "<Married: Yes>" in path.read_text()

    def test_without_mapper_uses_indices(self, tmp_path):
        path = tmp_path / "rules.csv"
        save_rules_csv([sample_rule()], path)
        assert "<0: 2..3>" in path.read_text()


class TestMiningResultHooks:
    def test_save_rules_json_with_metadata(self, result, tmp_path):
        path = tmp_path / "out.json"
        result.save_rules_json(path)
        rules, metadata = load_rules_json(path)
        assert rules == result.interesting_rules
        assert metadata["min_support"] == pytest.approx(0.4)
        assert metadata["num_records"] == 5

    def test_save_rules_csv_default_interesting(self, result, tmp_path):
        path = tmp_path / "out.csv"
        result.save_rules_csv(path)
        lines = path.read_text().strip().splitlines()
        assert len(lines) == len(result.interesting_rules) + 1


class TestResultDocuments:
    """result_to_document / result_from_document round trips."""

    def test_round_trip_rules_and_interest(self, result):
        from repro.core.export import (
            result_from_document,
            result_to_document,
        )

        document = result_to_document(result, metadata={"job": "j1"})
        assert document["format"] == "repro.mining_result"
        assert document["num_records"] == result.num_records
        assert document["metadata"] == {"job": "j1"}
        # Every rule carries its interest annotation, and the flags
        # reconstruct the interesting subset exactly.
        flags = [r["interesting"] for r in document["rules"]]
        assert sum(flags) == len(result.interesting_rules)

        decoded = result_from_document(document)
        assert decoded.rules == result.rules
        assert decoded.interesting_rules == result.interesting_rules
        assert decoded.stats == result.stats
        assert decoded.config == result.config
        assert decoded.metadata == {"job": "j1"}

    def test_json_and_file_round_trip(self, result, tmp_path):
        import json as json_module

        from repro.core.export import (
            load_result_json,
            result_from_document,
            result_to_document,
            save_result_json,
        )

        document = result_to_document(result)
        # The document must be pure JSON (no lossy conversions).
        rehydrated = json_module.loads(json_module.dumps(document))
        assert result_from_document(rehydrated).rules == result.rules

        path = tmp_path / "result.json"
        save_result_json(result, path)
        decoded = load_result_json(path)
        assert decoded.rules == result.rules
        assert decoded.interesting_rules == result.interesting_rules

    def test_stored_counting_choice_still_loads(self, result, tmp_path):
        """Documents written while the counting structure was a config
        option carry ``"counting"``; they load, and the config they
        carry mines the same rules."""
        self.assert_retired_key_loads(result, tmp_path, "counting", "bitmap")

    def test_stored_async_block_still_loads(self, result, tmp_path):
        """Documents written while ``async_mining`` was a config block
        carry it; they load, and the config they carry mines the same
        rules."""
        self.assert_retired_key_loads(
            result, tmp_path, "async_mining",
            {"max_concurrent_jobs": None, "job_timeout": None},
        )

    @staticmethod
    def assert_retired_key_loads(result, tmp_path, key, value):
        from repro.core.export import load_result_json, result_to_document

        document = result_to_document(result)
        current = tmp_path / "current.json"
        current.write_text(json.dumps(document))
        document["config"][key] = value
        path = tmp_path / "old.json"
        path.write_text(json.dumps(document))
        decoded = load_result_json(path)
        assert decoded.config == load_result_json(current).config
        assert decoded.rules == result.rules
        remined = QuantitativeMiner(people_table(), decoded.config).mine()
        assert remined.rules == result.rules
        assert remined.interesting_rules == result.interesting_rules

    def test_wrong_format_rejected(self, result):
        from repro.core.export import (
            result_from_document,
            result_to_document,
        )

        document = result_to_document(result)
        document["format"] = "something.else"
        with pytest.raises(ValueError, match="format"):
            result_from_document(document)

    def test_write_json_atomic_replaces(self, tmp_path):
        from repro.core.export import write_json_atomic

        path = tmp_path / "doc.json"
        write_json_atomic({"v": 1}, path)
        write_json_atomic({"v": 2}, path)
        assert json.loads(path.read_text()) == {"v": 2}
        assert list(tmp_path.iterdir()) == [path]  # no tmp litter


class TestAttributeDocuments:
    """attributes_to_document / mappings_from_document round trips.

    The attributes section is what lets the rule-serving layer rebuild
    record encoding from a document alone, so the rebuilt mappings must
    encode and render exactly like the originals.
    """

    def test_mappings_round_trip_exactly(self, result):
        from repro.core.export import (
            attributes_to_document,
            mappings_from_document,
        )

        attributes = json.loads(
            json.dumps(attributes_to_document(result.mapper))
        )
        rebuilt = mappings_from_document(attributes)
        originals = result.mapper.mappings
        assert len(rebuilt) == len(originals)
        for new, old in zip(rebuilt, originals):
            assert new.name == old.name
            assert new.kind == old.kind
            assert new.cardinality == old.cardinality
            assert new.labels == old.labels
            assert new.partitioning == old.partitioning
            for code in range(old.cardinality):
                assert new.describe_value(code) == old.describe_value(code)

    def test_rebuilt_partitioning_assigns_identically(self, result):
        from repro.core.export import (
            attributes_to_document,
            mappings_from_document,
        )

        rebuilt = mappings_from_document(
            attributes_to_document(result.mapper)
        )
        for new, old in zip(rebuilt, result.mapper.mappings):
            if old.partitioning is None or not old.partitioning.partitioned:
                continue
            probes = list(old.partitioning.edges) + [-1e9, 1e9, 0.5]
            assert list(new.partitioning.assign(probes)) == list(
                old.partitioning.assign(probes)
            )

    def test_result_document_carries_attributes_and_lift(self, result):
        from repro.core.export import result_to_document

        document = result_to_document(result)
        names = [a["name"] for a in document["attributes"]]
        assert names == [m.name for m in result.mapper.mappings]
        n = result.num_records
        for data, rule in zip(document["rules"], result.rules):
            consequent_support = (
                result.support_counts.get(rule.consequent, 0) / n
                if len(rule.consequent) > 1
                else result.frequent_items.support(rule.consequent[0])
            )
            assert data["lift"] == pytest.approx(
                rule.confidence / consequent_support
            )

    def test_rules_json_embeds_attributes_only_with_mapper(self, result):
        with_mapper = json.loads(
            rules_to_json(result.rules, result.mapper)
        )
        assert "attributes" in with_mapper
        without = json.loads(rules_to_json(result.rules))
        assert "attributes" not in without

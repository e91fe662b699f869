"""RuleIndex: indexed point queries equal the linear-scan reference.

The array path exists only for speed; its one correctness obligation is
returning exactly what the per-rule antecedent scan returns, for any
record — values present, missing, out of range, or unseen — checked on
a mined ruleset here and on hand-built ones by a hypothesis property.
The rest of the suite covers construction (live result, exported
document, pickle through an artifact cache — all three must answer
identically), the prediction contract, encoding errors, and the
registry's id hygiene and index persistence.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import mine_quantitative_rules
from repro.core.export import result_to_document, rules_to_json
from repro.core.items import make_item, make_itemset
from repro.core.mapper import AttributeMapping
from repro.core.partitioner import Partitioning
from repro.core.rules import QuantitativeRule
from repro.data import generate_credit_table
from repro.engine.cache import MemoryCache
from repro.obs import Observability
from repro.rtree import RStarTree
from repro.rules import (
    Prediction,
    RuleIndex,
    RulesetRegistry,
    document_fingerprint,
    validate_ruleset_id,
)
from repro.table.schema import AttributeKind

CONFIG = dict(
    min_support=0.15,
    min_confidence=0.5,
    max_support=0.45,
    num_partitions=6,
    interest_level=1.1,
    max_itemset_size=2,
)


@pytest.fixture(scope="module")
def result():
    return mine_quantitative_rules(
        generate_credit_table(500, seed=21), **CONFIG
    )


@pytest.fixture(scope="module")
def index(result):
    return RuleIndex.from_result(result)


@pytest.fixture(scope="module")
def records(index):
    """A spread of records: full, partial, missing, out-of-range, unseen."""
    import random

    rng = random.Random(4)
    out = [
        {},  # all attributes missing
        {"monthly_income": 1e12},  # clamps to the top interval
        {"monthly_income": -1e12},  # clamps to the bottom interval
        {"employee_category": "never-seen-label"},
    ]
    for _ in range(150):
        record = {}
        for i, mapping in enumerate(index.mappings):
            if rng.random() < 0.2:
                continue
            if mapping.kind.value == "categorical":
                record[mapping.name] = rng.choice(
                    list(mapping.labels) + ["bogus"]
                )
            else:
                record[mapping.name] = rng.uniform(-5e4, 2e5)
        out.append(record)
    return out


class TestIndexEqualsLinearScan:
    def test_tree_and_scan_agree_on_every_record(self, index, records):
        fired = 0
        for record in records:
            via_arrays = index.match(record, use_index=True)
            via_scan = index.match(record, use_index=False)
            assert via_arrays == via_scan
            fired += len(via_arrays)
        assert fired > 0, "degenerate fixture: nothing ever fired"

    def test_linear_only_index_answers_identically(self, result, records):
        linear = RuleIndex.from_result(result, use_index=False)
        arrays = RuleIndex.from_result(result)
        assert not linear.indexed and arrays.indexed
        for record in records[:40]:
            assert linear.match(record) == arrays.match(record)

    def test_forcing_tree_on_linear_only_index_fails(self, result):
        linear = RuleIndex.from_result(result, use_index=False)
        with pytest.raises(ValueError, match="use_index"):
            linear.match({}, use_index=True)

    def test_matches_rank_by_score_then_canonical_order(
        self, index, records
    ):
        for record in records:
            matches = index.match(record)
            keys = [
                (-m.score, m.rule.sort_key()) for m in matches
            ]
            assert keys == sorted(keys)


class TestConstructionRoundTrips:
    def test_result_document_rebuilds_identical_index(
        self, result, index, records
    ):
        document = json.loads(json.dumps(result_to_document(result)))
        rebuilt = RuleIndex.from_document(document)
        assert rebuilt.fingerprint() == index.fingerprint()
        for record in records[:40]:
            assert rebuilt.match(record) == index.match(record)

    def test_rules_document_round_trips(self, result, records):
        document = json.loads(
            rules_to_json(result.interesting_rules, result.mapper)
        )
        rebuilt = RuleIndex.from_document(document)
        assert rebuilt.num_rules == len(result.interesting_rules)
        # Rule documents carry no lift, so ranking is by confidence;
        # the *set* of fired rules must still match the live index.
        live = RuleIndex.from_result(result)
        for record in records[:20]:
            assert {m.rule for m in rebuilt.match(record)} == {
                m.rule for m in live.match(record)
            }

    def test_document_without_attributes_is_rejected(self, result):
        document = json.loads(rules_to_json(result.interesting_rules))
        with pytest.raises(ValueError, match="attributes"):
            RuleIndex.from_document(document)

    def test_cache_round_trip_preserves_answers(self, index, records):
        cache = MemoryCache()
        key = index.save(cache)
        assert key == index.cache_key()
        loaded = RuleIndex.load(cache, key)
        assert loaded is not None
        assert loaded.fingerprint() == index.fingerprint()
        for record in records[:40]:
            assert loaded.match(record) == index.match(record)

    def test_load_miss_returns_none(self):
        assert RuleIndex.load(MemoryCache(), "ruleset-index:nope") is None


class TestPredict:
    def test_prediction_comes_from_best_target_match(self, index, records):
        for record in records:
            prediction = index.predict(record, "employee_category")
            assert isinstance(prediction, Prediction)
            target_idx = index.attribute_names.index("employee_category")
            for match in prediction.matches:
                assert any(
                    it.attribute == target_idx
                    for it in match.rule.consequent
                )
            if prediction.matches:
                best = prediction.matches[0]
                item = next(
                    it
                    for it in best.rule.consequent
                    if it.attribute == target_idx
                )
                assert prediction.interval == (item.lo, item.hi)
                assert prediction.confidence == best.rule.confidence
            else:
                assert prediction.interval is None

    def test_top_truncates_matches_not_prediction(self, index, records):
        record = next(
            r
            for r in records
            if len(index.predict(r, "employee_category").matches) > 1
        )
        untruncated = index.predict(record, "employee_category")
        top1 = index.predict(record, "employee_category", top=1)
        assert len(top1.matches) == 1
        assert top1.interval == untruncated.interval

    def test_unknown_target_raises(self, index):
        with pytest.raises(ValueError, match="unknown target"):
            index.predict({}, "nope")


class TestRecordEncoding:
    def test_unknown_attribute_raises(self, index):
        with pytest.raises(ValueError, match="unknown attribute"):
            index.match({"no_such_column": 1})

    def test_non_dict_record_raises(self, index):
        with pytest.raises(ValueError, match="mapping"):
            index.match([1, 2, 3])

    def test_unseen_label_and_non_numeric_encode_to_none(self, index):
        codes = index.encode_record(
            {
                "employee_category": "never-seen",
                "monthly_income": "not-a-number",
            }
        )
        assert set(codes) == {None}

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_encoding_equals_partitioning_assign(self, data):
        """Every value encodes to what ``Partitioning.assign`` gives it
        (``None`` where ``assign`` raises), on partitioned and
        unpartitioned attributes alike."""
        # Floats past 2**53 are 2 apart, so ints between them round.
        big = [2.0**53 + 2 * i for i in range(4)]
        raw = sorted(
            data.draw(
                st.sets(
                    st.one_of(
                        st.floats(-1e3, 1e3, allow_nan=False),
                        st.sampled_from(big),
                    ),
                    min_size=2,
                    max_size=8,
                )
            )
        )
        partitioned = data.draw(st.booleans())
        partitioning = Partitioning(
            edges=tuple(raw),
            partitioned=partitioned,
            values=() if partitioned else tuple(raw),
        )
        mapping = AttributeMapping(
            name="x",
            kind=AttributeKind.QUANTITATIVE,
            cardinality=partitioning.num_intervals,
            partitioning=partitioning,
        )
        index = RuleIndex([], [mapping])
        seen = st.sampled_from(raw)
        value = data.draw(
            st.one_of(
                seen,
                seen.map(lambda v: v + 1e-9),
                seen.map(int),
                st.floats(allow_nan=True),
                st.integers(-2000, 2000),
                st.integers(2**53 - 2, 2**53 + 8),
                st.sampled_from(
                    [float("inf"), float("-inf"), float("nan"), None]
                ),
                st.booleans(),
                seen.map(np.float64),
                st.integers(-2000, 2000).map(np.int64),
                seen.map(repr),
                st.sampled_from(["not-a-number", ""]),
            )
        )
        try:
            expected = int(partitioning.assign([value])[0])
        except (TypeError, ValueError):
            expected = None
        assert index.encode_record({"x": value}) == [expected]


class TestRulesetRegistry:
    def test_put_describe_match_predict(self, result):
        registry = RulesetRegistry(observability=Observability())
        document = result_to_document(result)
        metadata = registry.put("credit", document)
        assert metadata["ruleset_id"] == "credit"
        assert metadata["num_rules"] == len(result.interesting_rules)
        assert metadata["fingerprint"] == document_fingerprint(document)
        assert registry.ids() == ["credit"]
        reference = RuleIndex.from_result(result)
        record = {"monthly_income": 3000.0}
        assert registry.match("credit", record) == reference.match(record)
        assert registry.predict(
            "credit", record, "employee_category"
        ) == reference.predict(record, "employee_category")

    def test_identical_documents_share_one_cached_index(self, result):
        cache = MemoryCache()
        registry = RulesetRegistry(cache=cache)
        document = result_to_document(result)
        registry.put("a", document)
        registry.put("b", json.loads(json.dumps(document)))
        assert registry.index("a") is registry.index("b")
        assert cache.puts == 1

    def test_persistence_survives_restart(self, result, tmp_path):
        document = result_to_document(result)
        RulesetRegistry(tmp_path).put("persisted", document)
        reloaded = RulesetRegistry(tmp_path)
        assert reloaded.ids() == ["persisted"]
        record = {"monthly_income": 3000.0}
        assert reloaded.match("persisted", record) == RuleIndex.from_result(
            result
        ).match(record)
        assert reloaded.delete("persisted")
        assert RulesetRegistry(tmp_path).ids() == []

    def test_invalid_document_fails_the_upload(self):
        registry = RulesetRegistry()
        with pytest.raises(ValueError):
            registry.put("bad", {"rules": []})  # no attributes section
        assert registry.ids() == []

    @pytest.mark.parametrize(
        "bad", ["", "../up", ".hidden", "a/b", "a" * 101, "-lead", None, 7]
    )
    def test_hostile_ids_rejected(self, bad):
        with pytest.raises(ValueError):
            validate_ruleset_id(bad)

    def test_unknown_ruleset_raises_keyerror(self):
        with pytest.raises(KeyError):
            RulesetRegistry().document("missing")

    def test_index_persisted_by_an_older_layout_is_rebuilt(self, result):
        # The R*-tree layout pickled the same class with its tree in
        # ``_tree``, under the unversioned key.  Served as the array
        # layout it would fail its first query; the registry must
        # rebuild instead.
        document = result_to_document(result)
        stale = RuleIndex.__new__(RuleIndex)
        stale.__dict__.update(
            _mappings=RuleIndex.from_document(document).mappings,
            _rules=list(result.interesting_rules),
            _tree=RStarTree(ndim=len(result.mapper.mappings)),
        )
        cache = MemoryCache()
        cache.put("ruleset-index:" + document_fingerprint(document), stale)
        observability = Observability()
        registry = RulesetRegistry(cache=cache, observability=observability)
        registry.put("credit", document)
        built = observability.metrics.counter("rules.indexes_built")
        assert built.value == 1
        fresh = RuleIndex.from_document(document)
        record = {"monthly_income": 3000.0, "credit_limit": 5000.0}
        assert registry.match("credit", record) == fresh.match(record)
        assert registry.predict(
            "credit", record, "employee_category"
        ) == fresh.predict(record, "employee_category")


class TestArrayPath:
    def test_building_an_index_inserts_nothing_into_an_rstar_tree(
        self, result, monkeypatch
    ):
        inserts = []
        monkeypatch.setattr(
            RStarTree, "insert", lambda tree, rect, value: inserts.append(1)
        )
        index = RuleIndex.from_result(result)
        assert index.indexed and index.num_rules > 0
        assert inserts == []

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_queries_equal_the_linear_scan(self, data):
        mappings, rules, lifts = data.draw(hand_built_rulesets())
        index = RuleIndex(rules, mappings, lifts=lifts)
        # Built with use_index=True, even over zero rules.
        assert index.indexed
        for _ in range(data.draw(st.integers(1, 6))):
            record = data.draw(records_for(mappings, rules))
            scan = index.match(record, use_index=False)
            assert index.match(record) == scan
            keys = [(-m.score, m.rule.sort_key()) for m in scan]
            assert keys == sorted(keys)
            for target in index.attribute_names:
                for top in (None, 1):
                    assert index.predict(
                        record, target, top=top
                    ) == index.predict(
                        record, target, top=top, use_index=False
                    )
        if not rules:
            assert index.match({}, use_index=True) == []
            assert index.predict({}, UNUSED, use_index=True).interval is None
        linear = RuleIndex(rules, mappings, lifts=lifts, use_index=False)
        assert not linear.indexed
        with pytest.raises(ValueError, match="use_index"):
            linear.match({}, use_index=True)


#: Name of the attribute no hand-built rule mentions: a target nothing
#: concludes on, and a dimension every rule leaves unconstrained.
UNUSED = "unused"


def _mapping(name, cardinality, quantitative):
    if quantitative:
        # Raw value ``code + 0.5`` falls in interval ``code``.
        edges = tuple(float(e) for e in range(cardinality + 1))
        return AttributeMapping(
            name=name,
            kind=AttributeKind.QUANTITATIVE,
            cardinality=cardinality,
            partitioning=Partitioning(edges=edges, partitioned=True),
        )
    return AttributeMapping(
        name=name,
        kind=AttributeKind.CATEGORICAL,
        cardinality=cardinality,
        labels=tuple(f"v{code}" for code in range(cardinality)),
    )


@st.composite
def hand_built_rulesets(draw):
    """1-4 attributes (plus ``UNUSED``) and up to 40 rules over them,
    with scores tied by design and some lifts unknown."""
    cardinalities = draw(st.lists(st.integers(1, 6), min_size=1, max_size=4))
    quantitative = [draw(st.booleans()) for _ in cardinalities]
    mappings = [
        _mapping(f"a{i}", cardinality, quantitative[i])
        for i, cardinality in enumerate(cardinalities)
    ]
    mappings.append(_mapping(UNUSED, 3, False))

    def item(attribute):
        top = cardinalities[attribute] - 1
        lo = draw(st.integers(0, top))
        hi = draw(st.integers(lo, top)) if quantitative[attribute] else lo
        return make_item(attribute, lo, hi)

    rules, lifts = [], []
    num_rules = draw(st.integers(0, 40)) if len(cardinalities) > 1 else 0
    for _ in range(num_rules):
        attributes = draw(st.permutations(range(len(cardinalities))))
        attributes = attributes[: draw(st.integers(2, len(attributes)))]
        split = draw(st.integers(1, len(attributes) - 1))
        rules.append(
            QuantitativeRule(
                antecedent=make_itemset(item(a) for a in attributes[:split]),
                consequent=make_itemset(item(a) for a in attributes[split:]),
                support=0.1,
                # conf 0.5 x lift 2 ties conf 1 x unknown lift (1.0).
                confidence=draw(st.sampled_from((0.25, 0.5, 1.0))),
            )
        )
        lifts.append(draw(st.sampled_from((None, 0.5, 1.0, 2.0))))
    return mappings, rules, lifts


@st.composite
def records_for(draw, mappings, rules):
    """A raw record whose codes sit on range ends, 0, cardinality - 1,
    or are missing (absent key or a value the encoding cannot place)."""
    ends = {i: {0, m.cardinality - 1} for i, m in enumerate(mappings)}
    for rule in rules:
        for it in rule.antecedent + rule.consequent:
            ends[it.attribute] |= {it.lo, it.hi}
    record = {}
    for i, mapping in enumerate(mappings):
        code = draw(st.sampled_from(sorted(ends[i]) + [None, None]))
        quantitative = mapping.kind is AttributeKind.QUANTITATIVE
        if code is not None:
            record[mapping.name] = (
                code + 0.5 if quantitative else mapping.labels[code]
            )
        elif draw(st.booleans()):
            record[mapping.name] = "not-a-number" if quantitative else "x"
    return record

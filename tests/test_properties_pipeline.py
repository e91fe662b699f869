"""Property-based whole-pipeline tests.

The diagnostics checker (`repro.core.diagnostics`) re-derives every
invariant of a mining result from raw data; running it over randomized
tables and configurations turns the entire pipeline into one big
property: *whatever* the input, the result must be internally
consistent.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import MinerConfig, QuantitativeMiner, Taxonomy
from repro.core.diagnostics import check_result
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


draws = st.lists(st.integers(0, 11), min_size=40, max_size=120)


class TestPipelineConsistency:
    @given(
        draws,
        draws,
        draws,
        st.floats(0.1, 0.45),
        st.floats(0.3, 0.9),
        st.sampled_from(["equidepth", "equiwidth", "cluster"]),
        st.sampled_from([256 * 1024 * 1024, 0]),
        st.one_of(st.none(), st.floats(1.05, 2.0)),
    )
    @settings(max_examples=25, deadline=None)
    def test_every_result_passes_diagnostics(
        self, xs, ys, cs, minsup, maxsup, method, budget, interest
    ):
        n = min(len(xs), len(ys), len(cs))
        table = build_table(xs[:n], ys[:n], cs[:n])
        config = MinerConfig(
            min_support=minsup,
            min_confidence=0.3,
            max_support=maxsup,
            partial_completeness=3.0,
            partition_method=method,
            memory_budget_bytes=budget,
            interest_level=interest,
        )
        result = QuantitativeMiner(table, config).mine()
        report = check_result(result, sample_limit=None)
        assert report.ok, report.render()

    @given(draws, draws, draws, st.floats(0.15, 0.4))
    @settings(max_examples=15, deadline=None)
    def test_backends_agree_end_to_end(self, xs, ys, cs, minsup):
        n = min(len(xs), len(ys), len(cs))
        table = build_table(xs[:n], ys[:n], cs[:n])
        base = dict(
            min_support=minsup,
            min_confidence=0.3,
            max_support=0.7,
            partial_completeness=3.0,
            interest_level=1.1,
        )
        # Default budget: the array everywhere.  Budget 0: the R*-tree
        # everywhere, pass 2 through explicit groups.
        reference = QuantitativeMiner(table, MinerConfig(**base)).mine()
        other = QuantitativeMiner(
            table, MinerConfig(**base, memory_budget_bytes=0)
        ).mine()
        assert "array" not in other.stats.counting_groups_by_backend
        assert other.support_counts == reference.support_counts
        assert list(other.support_counts) == list(reference.support_counts)
        assert other.rules == reference.rules
        assert other.interesting_rules == reference.interesting_rules


class TestTaxonomyProperties:
    @given(draws, st.floats(0.05, 0.3))
    @settings(max_examples=20, deadline=None)
    def test_node_support_is_sum_of_leaf_supports(self, cs, minsup):
        taxonomy = Taxonomy({"a": "root", "b": "root", "d": "root"})
        schema = TableSchema([categorical("c", ("a", "b", "d"))])
        codes = np.array(cs, dtype=np.int64) % 3
        table = RelationalTable.from_columns(schema, [codes])
        config = MinerConfig(
            min_support=minsup,
            min_confidence=0.0,
            max_support=1.0,
            taxonomies={"c": taxonomy},
        )
        result = QuantitativeMiner(table, config).mine()
        # Root item covers all leaves: its count equals the table size.
        root_lo, root_hi = taxonomy.node_range("root")
        from repro.core import Item

        root_key = (Item(0, root_lo, root_hi),)
        if root_key in result.support_counts:
            assert result.support_counts[root_key] == len(table)
        # Every frequent itemset passes diagnostics with the taxonomy.
        report = check_result(result, sample_limit=None)
        assert report.ok, report.render()

    @given(draws, draws)
    @settings(max_examples=15, deadline=None)
    def test_taxonomy_mining_consistent_with_recount(self, cs, ys):
        taxonomy = Taxonomy(
            {"a": "left", "b": "left", "d": "right_only"}
        )
        n = min(len(cs), len(ys))
        schema = TableSchema(
            [categorical("c", ("a", "b", "d")), quantitative("y")]
        )
        table = RelationalTable.from_columns(
            schema,
            [
                np.array(cs[:n], dtype=np.int64) % 3,
                np.array(ys[:n], dtype=float),
            ],
        )
        config = MinerConfig(
            min_support=0.15,
            min_confidence=0.2,
            max_support=0.9,
            partial_completeness=3.0,
            taxonomies={"c": taxonomy},
        )
        result = QuantitativeMiner(table, config).mine()
        report = check_result(result, sample_limit=None)
        assert report.ok, report.render()

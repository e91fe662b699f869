"""Equation 1's ``s`` and equi-depth edges against literal references.

The miner measures ``s`` (the highest support of a base interval holding
more than one raw value) once per encoding, by a min < max test per
interval on the coded column.  The references here are the direct
definitions: one ``np.unique`` per interval for ``s``, and ``np.unique``
plus ``np.quantile`` on the unsorted column for equi-depth edges.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import MinerConfig, QuantitativeMiner
from repro.core.partial_completeness import completeness_from_partitioning
from repro.core.partitioner import Partitioning, equi_depth
from repro.table import RelationalTable, TableSchema, categorical, quantitative


def reference_max_multi_value_support(partitioning, column) -> float:
    """``s`` for one attribute: one ``np.unique`` per base interval."""
    if not partitioning.partitioned:
        return 0.0
    column = np.asarray(column, dtype=np.float64)
    codes = partitioning.assign(column)
    supports = np.bincount(codes, minlength=partitioning.num_intervals)
    s = 0.0
    for code in range(partitioning.num_intervals):
        if supports[code] == 0:
            continue
        in_interval = column[codes == code]
        if np.unique(in_interval).size > 1:
            s = max(s, supports[code] / len(column))
    return s


def reference_realized_completeness(table, mapper, min_support) -> float:
    """Equation 1 from :func:`reference_max_multi_value_support`."""
    quantitative_attrs = [
        i for i, m in enumerate(mapper.mappings) if m.is_quantitative
    ]
    s = 0.0
    for i in quantitative_attrs:
        partitioning = mapper.mapping(i).partitioning
        s = max(
            s, reference_max_multi_value_support(partitioning, table.column(i))
        )
    return completeness_from_partitioning(
        s, min_support, len(quantitative_attrs)
    )


def reference_equi_depth_edges(column, num_intervals):
    """Equi-depth as first written: ``np.quantile`` on the unsorted column."""
    column = np.asarray(column, dtype=np.float64)
    distinct = np.unique(column)
    if len(distinct) <= num_intervals:
        return False, tuple(distinct)
    quantiles = np.quantile(column, np.linspace(0.0, 1.0, num_intervals + 1))
    edges = np.unique(quantiles)
    if len(edges) < 2:
        edges = np.array([distinct[0], distinct[-1]])
    return True, tuple(float(e) for e in edges)


#: Few distinct values, so intervals tie heavily or hold one value.
tied_columns = st.lists(
    st.sampled_from([0.0, 1.0, 1.5, 2.0, 3.0, 7.0, 7.25, 9.0]),
    min_size=1,
    max_size=120,
)

#: Strictly increasing explicit edges inside [0, 9]; integer edges next
#: to each other make single-value intervals on the integer values.
explicit_edges = st.lists(
    st.sampled_from([0.5, 1.0, 2.0, 3.0, 4.0, 7.0, 8.0]),
    min_size=2,
    max_size=6,
    unique=True,
).map(sorted)

#: Values outside every edge set (clamped into the first or last
#: interval by ``assign``), NaN (``np.unique``'s one extra value) and
#: infinities.
wide_columns = st.lists(
    st.sampled_from(
        [-5.0, 0.0, 1.0, 2.0, 3.0, 7.0, 9.0, 12.0, np.nan, np.inf, -np.inf]
    ),
    min_size=1,
    max_size=120,
)


class TestMaxMultiValueSupport:
    @settings(max_examples=150, deadline=None)
    @given(column=tied_columns, num_intervals=st.integers(1, 9))
    def test_equi_depth_partitions(self, column, num_intervals):
        part = equi_depth(np.array(column), num_intervals)
        assert part.max_multi_value_support(column) == (
            reference_max_multi_value_support(part, column)
        )

    @settings(max_examples=150, deadline=None)
    @given(column=wide_columns, edges=explicit_edges)
    def test_explicit_edges_with_values_outside(self, column, edges):
        part = Partitioning(edges=tuple(edges), partitioned=True)
        assert part.max_multi_value_support(column) == (
            reference_max_multi_value_support(part, column)
        )

    def test_single_value_intervals_and_nan(self):
        part = Partitioning(edges=(0.0, 1.0, 2.0, 3.0), partitioned=True)
        # [0, 1) holds only 0 and [1, 2) only 1; NaN lands in the last
        # interval [2, 3], next to 2: two values there.
        column = [0.0] * 6 + [1.0] * 3 + [2.0, np.nan]
        assert part.max_multi_value_support(column) == 2 / 11
        assert reference_max_multi_value_support(part, column) == 2 / 11
        only_nan = [0.0, 0.5, np.nan, np.nan]
        assert part.max_multi_value_support(only_nan) == 0.5


def _table(xs, ys, cs):
    schema = TableSchema(
        [quantitative("x"), quantitative("y"), categorical("c", ("a", "b"))]
    )
    return RelationalTable.from_columns(
        schema,
        [np.array(xs, dtype=float), np.array(ys, dtype=float), np.array(cs)],
    )


class TestRealizedCompleteness:
    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        data=st.data(),
        n=st.integers(1, 80),
        x_parts=st.one_of(st.integers(1, 9), explicit_edges),
        y_parts=st.integers(1, 9),
        min_support=st.sampled_from([0.05, 0.2, 0.5]),
    )
    def test_miner_matches_reference(
        self, data, n, x_parts, y_parts, min_support
    ):
        values = st.sampled_from([0.0, 1.0, 2.0, 3.0, 4.5, 8.0, 11.0])
        xs = data.draw(st.lists(values, min_size=n, max_size=n))
        ys = data.draw(st.lists(values, min_size=n, max_size=n))
        cs = data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
        table = _table(xs, ys, cs)
        config = MinerConfig(
            min_support=min_support,
            num_partitions={"x": x_parts, "y": y_parts},
        )
        miner = QuantitativeMiner(table, config)
        expected = reference_realized_completeness(
            table, miner.mapper, min_support
        )
        assert miner.realized_completeness(min_support) == expected
        # Memoized per encoding: a second call reads the same value.
        assert miner.realized_completeness(min_support) == expected


class TestAppendRemeasures:
    def test_absorbed_append_updates_realized_k(self):
        """An append that turns a single-value interval multi-valued
        must move K: the memo lives on the mapper an append replaces."""
        xs = [1.0] * 50 + [5.0, 6.0] * 5
        table = _table(xs, [0.0] * 60, [0, 1] * 30)
        config = MinerConfig(
            min_support=0.1,
            partial_completeness=40.0,
            num_partitions={"x": (0.0, 2.0, 10.0), "y": 1},
        )
        miner = QuantitativeMiner(table, config)
        before = miner.realized_completeness(0.1)
        assert before == reference_realized_completeness(
            table, miner.mapper, 0.1
        )

        report = miner.append([(1.5, 0.0, "a")])
        assert not report.repartitioned
        expected = reference_realized_completeness(table, miner.mapper, 0.1)
        assert expected > before
        assert report.realized_completeness == expected
        assert miner.mine().stats.realized_completeness == expected


class TestEquiDepthEdges:
    @settings(max_examples=200, deadline=None)
    @given(
        column=st.one_of(
            tied_columns,
            st.lists(
                st.floats(-1e6, 1e6, allow_nan=False, width=32),
                min_size=1,
                max_size=200,
            ),
        ),
        num_intervals=st.integers(1, 12),
    )
    def test_matches_quantiles_of_the_unsorted_column(
        self, column, num_intervals
    ):
        part = equi_depth(np.array(column), num_intervals)
        partitioned, bounds = reference_equi_depth_edges(column, num_intervals)
        assert part.partitioned == partitioned
        assert (part.edges if partitioned else part.values) == bounds

    @pytest.mark.parametrize("num_intervals", [2, 4, 7, 10, 25])
    def test_credit_table_columns(self, num_intervals):
        from repro.data import generate_credit_table

        table = generate_credit_table(3_000, seed=4)
        for index in table.schema.quantitative_indices:
            column = table.column(index)
            part = equi_depth(column, num_intervals)
            partitioned, bounds = reference_equi_depth_edges(
                column, num_intervals
            )
            assert part.partitioned == partitioned
            assert (part.edges if partitioned else part.values) == bounds

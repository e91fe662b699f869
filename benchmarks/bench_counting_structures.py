"""ABL-COUNT — the Section 5.2 counting-structure trade-off.

The paper counts a super-candidate's quantitative part either with a
multi-dimensional array (cheap CPU, memory proportional to the product of
attribute cardinalities) or an R*-tree (memory proportional to the number
of candidates, higher CPU), and takes the R*-tree only when the array
would not fit in memory.  The miner applies that rule through
``memory_budget_bytes``: this ablation times both structures on an
identical pass-3 workload — the array under the default budget, the
R*-tree forced by a budget of 0 — and checks that their supports agree.

Expected shape: the array far ahead on CPU, the R*-tree paying one
pure-Python point query per record, which is why it is only the fallback
for tables past the budget.
"""

import numpy as np
import pytest

from repro.core import MinerConfig
from repro.core.apriori_quant import find_frequent_itemsets
from repro.core.candidates import generate_candidates
from repro.core.counting import CountingStats, count_itemsets
from repro.core.levels import FrequentLevels
from repro.core.mapper import TableMapper

NUM_RECORDS = 4_000

#: Memory budgets that put every group of the workload on one structure.
BUDGETS = {"array": MinerConfig().memory_budget_bytes, "rtree": 0}


def _pass3_workload(table, max_candidates):
    """A realistic pass-3 candidate set over a credit table."""
    config = MinerConfig(
        min_support=0.15,
        max_support=0.45,
        partial_completeness=3.0,
        num_partitions=12,
        max_itemset_size=2,
    )
    mapper = TableMapper(table, config)
    support_counts, _ = find_frequent_itemsets(mapper, config)
    frequent = FrequentLevels.from_support_counts(support_counts)
    catalog = frequent.catalog
    candidates = generate_candidates(catalog, frequent.levels[1].rows)
    # Keep the R*-tree's pure-Python point queries affordable.
    candidates = candidates[:max_candidates]
    assert len(candidates) >= 100, (
        f"workload too thin ({len(candidates)} candidates); "
        "the structure comparison would be noise"
    )
    quantitative = {
        a
        for a in range(mapper.num_attributes)
        if mapper.mapping(a).is_quantitative
    }
    return mapper, catalog, candidates, quantitative


@pytest.fixture(scope="module")
def workload(request):
    from repro.data import generate_credit_table

    table = generate_credit_table(NUM_RECORDS, seed=42)
    return _pass3_workload(table, max_candidates=600)


@pytest.mark.parametrize("structure", sorted(BUDGETS))
def test_counting_structure(benchmark, workload, reporter, structure):
    mapper, catalog, candidates, quantitative = workload
    budget = BUDGETS[structure]
    counts = benchmark(
        count_itemsets, catalog, candidates, mapper, quantitative, budget
    )
    reporter.line(
        f"structure={structure} (memory_budget_bytes={budget}): counted "
        f"{len(candidates)} candidates over {NUM_RECORDS} records, "
        f"best {benchmark.stats.stats.min:.4f}s"
    )
    reporter.record(
        phase="structure_comparison",
        structure=structure,
        memory_budget_bytes=budget,
        seconds=benchmark.stats.stats.min,
        candidates=len(candidates),
        num_records=NUM_RECORDS,
    )
    # The budget put every spatial group on the named structure ...
    stats = CountingStats()
    count_itemsets(catalog, candidates, mapper, quantitative, budget, stats)
    assert set(stats.groups_by_backend) - {"mask"} == {structure}
    # ... and the structures agree on every support.
    reference = count_itemsets(catalog, candidates, mapper, quantitative)
    np.testing.assert_array_equal(counts.rows, reference.rows)
    np.testing.assert_array_equal(counts.counts, reference.counts)

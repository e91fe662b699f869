"""repro: reproduction of Srikant & Agrawal (SIGMOD 1996),
"Mining Quantitative Association Rules in Large Relational Tables".

Public API highlights
---------------------
- :class:`~repro.table.RelationalTable` / :class:`~repro.table.TableSchema`:
  typed relational tables (quantitative + categorical attributes).
- :func:`~repro.core.mine_quantitative_rules` /
  :class:`~repro.core.QuantitativeMiner`: the paper's five-step pipeline.
- :func:`~repro.core.mine_quantitative_rules_async` /
  :class:`~repro.core.MiningJobRunner`: the asyncio front end — await a
  mining run, or multiplex many concurrent jobs over one shared pool.
- :class:`~repro.core.MinerConfig`: minsup / minconf / maxsup, partial
  completeness level K, interest level R.
- :mod:`repro.booleans`: boolean Apriori [AS94] substrate.
- :mod:`repro.rtree`: R*-tree [BKSS90] substrate.
- :mod:`repro.data`: synthetic credit dataset and the paper's worked
  example tables.
- :mod:`repro.baselines`: [PS91] and naive value-to-boolean miners.
"""

from .core import (
    AppendReport,
    CacheConfig,
    ExecutionConfig,
    IncrementalConfig,
    InterestEvaluator,
    Item,
    MinerConfig,
    MiningJob,
    MiningJobRunner,
    MiningResult,
    MiningStats,
    QuantitativeMiner,
    QuantitativeRule,
    Taxonomy,
    mine_quantitative_rules,
    mine_quantitative_rules_async,
)
from .table import (
    Attribute,
    AttributeKind,
    RelationalTable,
    TableSchema,
    categorical,
    load_csv,
    quantitative,
    save_csv,
)

__version__ = "1.0.0"

__all__ = [
    "AppendReport",
    "Attribute",
    "AttributeKind",
    "CacheConfig",
    "ExecutionConfig",
    "IncrementalConfig",
    "InterestEvaluator",
    "Item",
    "MinerConfig",
    "MiningJob",
    "MiningJobRunner",
    "MiningResult",
    "MiningStats",
    "QuantitativeMiner",
    "QuantitativeRule",
    "RelationalTable",
    "TableSchema",
    "Taxonomy",
    "__version__",
    "categorical",
    "load_csv",
    "mine_quantitative_rules",
    "mine_quantitative_rules_async",
    "quantitative",
    "save_csv",
]

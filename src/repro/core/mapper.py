"""Mapping attribute values to consecutive integers (Step 2, Section 2.1).

Categorical values map to their domain codes; quantitative attributes map
either to value ranks (when not partitioned) or to base-interval indices
(when partitioned), order-preserving in both cases.  "From this point, the
algorithm only sees values (or ranges over values)" — everything downstream
of the mapper works on the integer-coded matrix, and this module is also
responsible for translating mined items back into human-readable form.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..table import AttributeKind, RelationalTable
from .config import MinerConfig
from .items import Item
from .partial_completeness import required_intervals
from .partitioner import (
    Partitioning,
    coded_max_multi_value_support,
    partition_column,
)


@dataclass(frozen=True)
class AttributeMapping:
    """How one attribute's raw values relate to mapped integers."""

    name: str
    kind: AttributeKind
    cardinality: int
    #: Categorical: the raw value domain (code -> value).
    labels: tuple = ()
    #: Quantitative: the partitioning (also covers the unpartitioned case).
    partitioning: Partitioning | None = None
    #: Categorical with a taxonomy: codes follow the taxonomy's DFS leaf
    #: order, and interior nodes are contiguous code ranges.
    taxonomy: object = None

    @property
    def is_quantitative(self) -> bool:
        return self.kind is AttributeKind.QUANTITATIVE

    @property
    def is_rangeable(self) -> bool:
        """Whether mapped-code ranges over this attribute are meaningful.

        True for quantitative attributes and for categorical attributes
        carrying a taxonomy (whose interior nodes are code ranges).
        """
        return self.is_quantitative or self.taxonomy is not None

    @property
    def is_partitioned(self) -> bool:
        return self.partitioning is not None and self.partitioning.partitioned

    def describe_value(self, code: int) -> str:
        """Human-readable rendering of one mapped value."""
        if self.kind is AttributeKind.CATEGORICAL:
            return str(self.labels[code])
        lo, hi = self.partitioning.interval_bounds(code)
        if lo == hi:
            return _fmt(lo)
        return f"[{_fmt(lo)}, {_fmt(hi)})"

    def describe_range(self, lo_code: int, hi_code: int, last: bool = True) -> str:
        """Human-readable rendering of a mapped range ``lo..hi``.

        For partitioned attributes the range covers raw values from the
        lower edge of ``lo_code`` to the upper edge of ``hi_code``; the
        upper edge is inclusive only when ``hi_code`` is the final
        interval.  For a taxonomy attribute a multi-code range prints its
        node name when one covers exactly that range.
        """
        if self.kind is AttributeKind.CATEGORICAL:
            if lo_code == hi_code:
                return str(self.labels[lo_code])
            if self.taxonomy is not None:
                node = self.taxonomy.range_name(lo_code, hi_code)
                if node is not None:
                    return str(node)
            return (
                f"{{{', '.join(str(v) for v in self.labels[lo_code:hi_code + 1])}}}"
            )
        part = self.partitioning
        raw_lo = part.interval_bounds(lo_code)[0]
        raw_hi = part.interval_bounds(hi_code)[1]
        if not part.partitioned:
            if lo_code == hi_code:
                return _fmt(raw_lo)
            return f"{_fmt(raw_lo)}..{_fmt(raw_hi)}"
        closing = "]" if hi_code == part.num_intervals - 1 else ")"
        return f"[{_fmt(raw_lo)}, {_fmt(raw_hi)}{closing}"


def _fmt(v: float) -> str:
    if float(v).is_integer():
        return str(int(v))
    return f"{v:g}"


class TableMapper:
    """Encodes a relational table for mining and decodes mined items.

    Construction performs Steps 1 and 2 of the problem decomposition:
    choose the partition count per quantitative attribute (Equation 2,
    unless overridden), partition, and produce the integer-coded columns.
    """

    def __init__(
        self,
        table: RelationalTable,
        config: MinerConfig,
        *,
        reuse: "TableMapper | None" = None,
    ) -> None:
        self._table = table
        self._config = config
        schema = table.schema
        quantitative = schema.quantitative_indices
        n_for_formula = len(quantitative)
        if config.max_quantitative_in_rule is not None:
            n_for_formula = min(n_for_formula, config.max_quantitative_in_rule)
        default_intervals = (
            required_intervals(
                n_for_formula, config.min_support, config.partial_completeness
            )
            if n_for_formula
            else 1
        )

        taxonomies = config.taxonomies or {}
        unknown = set(taxonomies) - set(schema.names)
        if unknown:
            raise ValueError(
                f"taxonomies declared for unknown attributes: {sorted(unknown)}"
            )
        mappings = []
        columns = []
        for idx, attr in enumerate(schema):
            column = table.column(idx)
            if attr.is_categorical:
                taxonomy = taxonomies.get(attr.name)
                if taxonomy is None:
                    mappings.append(
                        AttributeMapping(
                            name=attr.name,
                            kind=attr.kind,
                            cardinality=len(attr.values),
                            labels=attr.values,
                        )
                    )
                    columns.append(column.astype(np.int64, copy=False))
                    continue
                leaves = taxonomy.leaves_in_order()
                if set(leaves) != set(attr.values):
                    raise ValueError(
                        f"taxonomy leaves for {attr.name!r} do not match "
                        f"the attribute domain: {sorted(set(leaves) ^ set(attr.values))}"
                    )
                # Re-code from domain order to DFS leaf order so interior
                # nodes cover contiguous code ranges.
                recode = np.array(
                    [leaves.index(v) for v in attr.values], dtype=np.int64
                )
                mappings.append(
                    AttributeMapping(
                        name=attr.name,
                        kind=attr.kind,
                        cardinality=len(leaves),
                        labels=leaves,
                        taxonomy=taxonomy,
                    )
                )
                columns.append(recode[column.astype(np.int64, copy=False)])
                continue
            if attr.name in taxonomies:
                raise ValueError(
                    f"taxonomy declared for quantitative attribute "
                    f"{attr.name!r}; taxonomies apply to categorical ones"
                )
            if reuse is not None:
                # Online partition maintenance: keep the live boundaries
                # (or value map) so shard artifacts keyed on them stay
                # valid across an append.  ``assign`` below raises
                # ValueError when an unpartitioned value map meets an
                # unseen value — the caller treats that as a forced
                # re-partition.
                partitioning = reuse.mapping(attr.name).partitioning
                prior = reuse._columns[idx]
                if reuse._table is table and 0 < len(prior) <= len(column):
                    # The table grows in place and preserves existing
                    # rows, so the coded prefix is still valid — only
                    # the appended tail needs encoding (and only the
                    # tail can hold an unseen value).
                    tail = column[len(prior):]
                    codes = (
                        np.concatenate([prior, partitioning.assign(tail)])
                        if len(tail)
                        else prior
                    )
                else:
                    codes = partitioning.assign(column)
                mappings.append(
                    AttributeMapping(
                        name=attr.name,
                        kind=attr.kind,
                        cardinality=partitioning.num_intervals,
                        partitioning=partitioning,
                    )
                )
                columns.append(codes)
                continue
            else:
                requested = self._requested_intervals(
                    attr.name, default_intervals
                )
                if isinstance(requested, Partitioning):
                    partitioning = requested
                else:
                    partitioning = partition_column(
                        column, requested, config.partition_method
                    )
            mappings.append(
                AttributeMapping(
                    name=attr.name,
                    kind=attr.kind,
                    cardinality=partitioning.num_intervals,
                    partitioning=partitioning,
                )
            )
            columns.append(partitioning.assign(column))
        self._mappings = tuple(mappings)
        self._columns = columns

    def _requested_intervals(self, name: str, default: int):
        """Resolve the partition override for one attribute.

        ``num_partitions`` may be ``None`` (use Equation 2), an int applied
        to every quantitative attribute, or a mapping from attribute name
        to either an int or an explicit edge sequence (which becomes the
        partitioning verbatim — used to pin the paper's hand-picked
        example intervals).
        """
        override = self._config.num_partitions
        if override is None:
            return default
        if isinstance(override, int):
            return override
        try:
            value = override.get(name, default)
        except AttributeError:
            raise TypeError(
                "num_partitions must be None, an int, or a mapping from "
                f"attribute name to int or edge sequence; "
                f"got {type(override).__name__}"
            ) from None
        if isinstance(value, int):
            return value
        edges = tuple(float(e) for e in value)
        if len(edges) < 2 or any(
            a >= b for a, b in zip(edges, edges[1:])
        ):
            raise ValueError(
                f"explicit edges for {name!r} must be strictly increasing "
                f"with at least two entries, got {edges}"
            )
        return Partitioning(edges=edges, partitioned=True)

    # ------------------------------------------------------------------
    # Encoded view
    # ------------------------------------------------------------------
    @property
    def num_records(self) -> int:
        return self._table.num_records

    def fingerprint(self) -> str:
        """The underlying table's content fingerprint, memoized here too.

        The mapper adds nothing to the key on purpose: everything the
        encoding depends on beyond the raw table (partition counts,
        method, taxonomies) is configuration, and cacheable stages
        declare those fields via ``config_keys`` — so (table
        fingerprint, declared config values) fully addresses any
        encoded artifact.
        """
        fp = getattr(self, "_fingerprint", None)
        if fp is None:
            fp = self._table.fingerprint()
            self._fingerprint = fp
        return fp

    @property
    def table(self) -> RelationalTable:
        return self._table

    def shard_fingerprints(self, shards) -> list:
        """Content fingerprints of the raw table per shard (memoized)."""
        return self._table.shard_fingerprints(shards)

    def shm_lineage(self):
        """``(parent fingerprint, parent records)`` for shm tail-fills.

        Set by the miner's append path when the encoding survived an
        append unchanged — the contract the shared column store relies
        on is that this mapper's first ``parent records`` coded records
        are byte-identical to the parent mapper's.  ``None`` (the
        default) means "publish from scratch".
        """
        return getattr(self, "_shm_parent", None)

    @property
    def shm_headroom_records(self) -> int:
        """Spare record capacity to publish shm segments with.

        Non-zero only in incremental mode: the shared column store then
        sizes segments past the current table so appended tails can be
        written in place instead of forcing a full republish.
        """
        if not self._config.incremental.enabled:
            return 0
        return max(1024, self._table.num_records // 4)

    def encoding_fingerprint(self) -> str:
        """Fingerprint of how raw bytes become mapped codes, memoized.

        Everything a per-shard partial count depends on *besides* the
        shard's raw bytes and the candidate set: per-attribute labels
        (taxonomy recodes included — labels follow DFS leaf order) and
        quantitative partitionings.  Two mappers agreeing on this value
        code identical raw slices to identical integer matrices, so
        their shard count artifacts are interchangeable.
        """
        fp = getattr(self, "_encoding_fp", None)
        if fp is None:
            from ..engine.fingerprint import fingerprint

            fp = fingerprint(
                "MapperEncoding",
                [
                    (
                        m.name,
                        m.kind.value,
                        m.cardinality,
                        tuple(m.labels),
                        m.partitioning,
                    )
                    for m in self._mappings
                ],
            )
            self._encoding_fp = fp
        return fp

    @property
    def num_attributes(self) -> int:
        return len(self._mappings)

    @property
    def mappings(self) -> tuple:
        return self._mappings

    def mapping(self, ref) -> AttributeMapping:
        if isinstance(ref, str):
            ref = self._table.schema.index_of(ref)
        return self._mappings[ref]

    def column(self, index: int) -> np.ndarray:
        """Integer-coded column for attribute ``index``."""
        return self._columns[index]

    def cardinality(self, index: int) -> int:
        return self._mappings[index].cardinality

    def max_multi_value_support(self) -> float:
        """Equation 1's ``s`` across the partitioned attributes, memoized.

        The highest support of a base interval holding more than one raw
        value (see :meth:`Partitioning.max_multi_value_support`), measured
        once per encoding from the coded columns.  An append builds a new
        mapper, so a grown table is always measured afresh.
        """
        s = getattr(self, "_max_multi_value_support", None)
        if s is None:
            s = 0.0
            for index, mapping in enumerate(self._mappings):
                if mapping.is_partitioned:
                    s = max(
                        s,
                        coded_max_multi_value_support(
                            self._columns[index],
                            self._table.column(index),
                            mapping.cardinality,
                        ),
                    )
            self._max_multi_value_support = s
        return s

    def matrix(self) -> np.ndarray:
        """records x attributes integer matrix (copies the columns)."""
        return np.column_stack(self._columns)

    def column_matrix(self) -> np.ndarray:
        """attributes x records C-contiguous int64 matrix, memoized.

        The publication layout of the engine's shared column store: row
        ``a`` equals ``column(a)``, so a worker attaching the published
        segment reads any shard's slice of any column zero-copy.  The
        matrix is built once and cached on the mapper (same lifetime as
        the columns it copies).
        """
        cached = getattr(self, "_column_matrix", None)
        if cached is None:
            if self._columns:
                cached = np.ascontiguousarray(
                    np.vstack(self._columns), dtype=np.int64
                )
            else:
                cached = np.empty((0, 0), dtype=np.int64)
            self._column_matrix = cached
        return cached

    # ------------------------------------------------------------------
    # Decoding
    # ------------------------------------------------------------------
    def describe_item(self, item: Item) -> str:
        m = self._mappings[item.attribute]
        return f"<{m.name}: {m.describe_range(item.lo, item.hi)}>"

    def describe_itemset(self, itemset) -> str:
        return " and ".join(self.describe_item(item) for item in itemset)

    def item_from_names(self, name: str, lo, hi=None) -> Item:
        """Build an item from attribute name and *mapped* values.

        Convenience for tests and examples that address attributes by
        name; raw-value translation is intentionally not guessed at here.
        """
        idx = self._table.schema.index_of(name)
        if hi is None:
            hi = lo
        card = self._mappings[idx].cardinality
        if not 0 <= lo <= hi < card:
            raise ValueError(
                f"range {lo}..{hi} out of bounds for {name!r} "
                f"(cardinality {card})"
            )
        return Item(idx, lo, hi)

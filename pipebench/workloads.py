"""The benchmark's workloads: seeded inputs, one operation, its output check.

Every workload runs over :func:`repro.data.generate_credit_table`, with
the serial executor and one caller in a closed loop.  All inputs come
from the run's seed; the program only ever sees the generated inputs.

A run sets its workload up several times.  Set-up ``k`` builds input
instance ``k`` from its own sub-seed (a table, and whatever the op needs
primed on it), and op ``i`` runs on instance ``i % len(instances)``.  So
every set-up is both a ``setup_s`` sample and input the loop uses, and
each run's medians cover several tables rather than one table's luck.

A workload object follows one protocol, driven by ``run.py``:

``setup(k, tracer)``
    Build input instance ``k`` (timed).  ``tracer`` is ``None`` unless
    the run is traced; a workload whose set-up does work a layer metric
    reports (``credit_predict``'s index builds) records it there.
``op_input(i)`` / ``op(args)``
    Make operation ``i``'s input (untimed), then run it (timed).
``op_key(i)``
    Operation ``i``'s group: ops in one group repeat the same work, and
    ``op_ms`` takes each group's fastest op (see ``run.op_seconds``).
``check(i, out)``
    Check one operation's output; ``False`` counts the op as failed.
``final_failures()``
    Checks that run once after the timed loops; returns failed op ids.
``inject(fault, out)``
    Corrupt an output on purpose, so the self-test can show that the
    checks count the fault as a failed op.
"""

from __future__ import annotations

import dataclasses
from itertools import combinations

import numpy as np

from repro.core.config import CacheConfig, MinerConfig
from repro.core.miner import QuantitativeMiner, mine_quantitative_rules
from repro.data import generate_credit_table
from repro.rules import RuleIndex

from probes import install_probes

TARGET = "employee_category"

SUPPORT_FAULT = "support_off_by_one"
RULE_FAULT = "drop_rule"
PREDICT_FAULT = "predict_differs"
FAULTS = (SUPPORT_FAULT, RULE_FAULT, PREDICT_FAULT)

#: Frequent itemsets recounted from the coded columns per check.
SAMPLE_ITEMSETS = 64

# Sub-seed paths; instance ``k``'s table uses ``(TABLES, k)``.
TABLES, QUERIES, LEVELS, SAMPLE = range(4)


def sub_seed(seed: int, *path: int) -> int:
    """A seed for one generated input, independent of every other path."""
    return int(np.random.SeedSequence([seed, *path]).generate_state(1)[0])


def fingerprint(rules, support_counts) -> tuple:
    """Order-sensitive fingerprint of a result's rules and support counts.

    Rules are frozen dataclasses and itemsets are tuples of integer
    triples, so the built-in hash covers every field; it is only ever
    compared between results of one process.
    """
    return (
        len(rules),
        hash(tuple(rules)),
        len(support_counts),
        hash(tuple(support_counts.items())),
    )


def sample_itemsets(support_counts, seed: int) -> list:
    """A seeded sample of frequent itemsets, multi-item ones first."""
    itemsets = [s for s in support_counts if len(s) > 1]
    multi = len(itemsets)
    itemsets += [s for s in support_counts if len(s) == 1]
    size = min(SAMPLE_ITEMSETS, len(itemsets))
    if multi >= size:
        picks = np.random.default_rng(seed).choice(multi, size, replace=False)
    else:
        picks = np.arange(size)
    return [itemsets[i] for i in sorted(int(p) for p in picks)]


class SupportOracle:
    """Support counts recounted from the coded columns with range masks.

    Independent of the miner's counting layer: each item is one numpy
    range test over ``mapper.column(attribute)``.  Counts are cached per
    itemset, so checking every op on one table recounts each itemset
    once.
    """

    def __init__(self, mapper) -> None:
        self._mapper = mapper
        self._counts: dict = {}

    def count(self, itemset) -> int:
        cached = self._counts.get(itemset)
        if cached is None:
            mask = np.ones(self._mapper.num_records, dtype=bool)
            for item in itemset:
                column = self._mapper.column(item.attribute)
                mask &= (column >= item.lo) & (column <= item.hi)
            cached = self._counts[itemset] = int(mask.sum())
        return cached

    def expected_rules(self, itemset, min_confidence: float) -> set:
        """Every rule over ``itemset`` meeting ``min_confidence``."""
        count = self.count(itemset)
        support = count / self._mapper.num_records
        rules = set()
        for size in range(1, len(itemset)):
            for antecedent in combinations(itemset, size):
                confidence = count / self.count(antecedent)
                if confidence >= min_confidence:
                    consequent = tuple(
                        it for it in itemset if it not in antecedent
                    )
                    rules.add((antecedent, consequent, support, confidence))
        return rules


def rule_key(rule) -> tuple:
    return tuple(sorted(rule.antecedent + rule.consequent))


def rules_by_itemset(rules, itemsets) -> dict:
    """``{itemset: {(antecedent, consequent, support, confidence)}}``."""
    wanted = {s: set() for s in itemsets}
    for rule in rules:
        bucket = wanted.get(rule_key(rule))
        if bucket is not None:
            bucket.add(
                (rule.antecedent, rule.consequent, rule.support,
                 rule.confidence)
            )
    return wanted


def query_records(num_records: int, seed: int) -> list:
    """Raw query records from a separately seeded table, target removed."""
    table = generate_credit_table(num_records, seed=seed)
    names = table.schema.names
    return [
        {name: value for name, value in zip(names, row) if name != TARGET}
        for row in table.iter_records()
    ]


class Workload:
    """Shared defaults; see the module docstring for the protocol."""

    name = ""
    faults: tuple = ()
    #: Set-ups per run; each builds one input instance the loop cycles over.
    setups = 3
    #: ``gc.collect()`` before every timed op (outside the timer).
    collect_each_op = True

    def __init__(self, seed: int, scale: str) -> None:
        self.seed = seed
        self.params = self.SCALES[scale]
        self.instances: list = []

    def table(self, k: int):
        return generate_credit_table(
            self.params["records"], seed=sub_seed(self.seed, TABLES, k)
        )

    def instance(self, i: int):
        return self.instances[i % len(self.instances)]

    def op_input(self, i: int):
        return self.instance(i)

    def op_key(self, i: int):
        # Ops that last seconds average the host's sub-second speed
        # changes themselves: each is its own group.
        return i

    def final_failures(self) -> set:
        return set()

    def frequent_counted(self, out) -> int:
        return 0


@dataclasses.dataclass
class MineInstance:
    table: object
    oracle: SupportOracle | None = None
    reference: tuple | None = None


class MineWorkload(Workload):
    """One fresh ``mine_quantitative_rules`` per op.

    Check: a seeded sample of frequent itemsets, and every subset of
    each, recounted from the coded columns; for each sampled itemset,
    the exact set of rules over it re-derived from those counts; and
    the fingerprint of all rules and support counts equal to the first
    passing op's on the same table.
    """

    faults = (SUPPORT_FAULT, RULE_FAULT)

    def __init__(self, seed: int, scale: str) -> None:
        super().__init__(seed, scale)
        self.config = MinerConfig(**self.params["config"])
        self.sample_seed = sub_seed(seed, SAMPLE)

    def setup(self, k: int, tracer=None) -> None:
        self.instances.append(MineInstance(self.table(k)))

    def op(self, instance):
        return mine_quantitative_rules(instance.table, self.config)

    def frequent_counted(self, out) -> int:
        return sum(1 for s in out.support_counts if len(s) > 1)

    def check(self, i: int, out) -> bool:
        instance = self.instance(i)
        if instance.oracle is None:
            instance.oracle = SupportOracle(out.mapper)
        oracle = instance.oracle
        sample = sample_itemsets(out.support_counts, self.sample_seed)
        for itemset in sample:
            for size in range(1, len(itemset) + 1):
                for sub in combinations(itemset, size):
                    if out.support_counts.get(sub) != oracle.count(sub):
                        return False
        min_confidence = self.config.effective_min_confidence
        actual = rules_by_itemset(out.rules, sample)
        for itemset in sample:
            if actual[itemset] != oracle.expected_rules(
                itemset, min_confidence
            ):
                return False
        digest = fingerprint(out.rules, out.support_counts)
        if instance.reference is None:
            instance.reference = digest
        return digest == instance.reference

    def inject(self, fault, out):
        sample = sample_itemsets(out.support_counts, self.sample_seed)
        if fault == SUPPORT_FAULT:
            out.support_counts[sample[0]] += 1
        elif fault == RULE_FAULT:
            sampled = set(sample)
            for position, rule in enumerate(out.rules):
                if rule_key(rule) in sampled:
                    del out.rules[position]
                    break
        return out


class CreditCold(MineWorkload):
    name = "credit_cold"
    SCALES = {
        "full": {
            "records": 50_000,
            "config": dict(
                min_support=0.22,
                max_support=0.40,
                min_confidence=0.50,
                partial_completeness=2.0,
                max_itemset_size=3,
            ),
        },
        "toy": {
            "records": 2_000,
            "config": dict(
                min_support=0.30,
                max_support=0.40,
                min_confidence=0.50,
                partial_completeness=2.0,
                max_itemset_size=3,
            ),
        },
    }


class CreditScan(MineWorkload):
    name = "credit_scan"
    SCALES = {
        "full": {
            "records": 500_000,
            "config": dict(
                min_support=0.10,
                max_support=0.40,
                min_confidence=0.90,
                partial_completeness=3.0,
                num_partitions=10,
                max_itemset_size=4,
            ),
        },
        "toy": {
            "records": 5_000,
            "config": dict(
                min_support=0.20,
                max_support=0.40,
                min_confidence=0.90,
                partial_completeness=3.0,
                num_partitions=6,
                max_itemset_size=4,
            ),
        },
    }


@dataclasses.dataclass
class SweepInstance:
    table: object
    miner: QuantitativeMiner
    #: Fingerprint of the priming (cold, cache-filling) mine's rules and
    #: support counts; the interest level changes neither.
    primed: tuple


class CreditSweep(Workload):
    """An interest-level sweep on primed ``QuantitativeMiner`` objects.

    Each op mines at a fresh interest level R drawn from the seed, so
    the counting and rule stages restore from the miner's cache and only
    the interest filter runs.  Check: stage cache events are exactly
    hit / hit / miss; the interesting rules are a subset of the rules;
    the restored rules and support counts equal the priming mine's; and
    the first op's result equals that of a cold miner with the cache off
    at the same R.
    """

    name = "credit_sweep"
    faults = (SUPPORT_FAULT, RULE_FAULT)
    #: An op's cost follows its table's rule count, which varies by ~8%
    #: from table to table; five tables keep that out of run figures.
    setups = 5
    EVENTS = {
        "frequent_itemsets": "hit",
        "rule_generation": "hit",
        "interest": "miss",
    }
    SCALES = {
        "full": {
            "records": 20_000,
            "config": dict(
                min_support=0.20,
                max_support=0.40,
                min_confidence=0.80,
                partial_completeness=1.5,
                max_quantitative_in_rule=2,
            ),
        },
        "toy": {
            "records": 2_000,
            "config": dict(
                min_support=0.30,
                max_support=0.40,
                min_confidence=0.80,
                partial_completeness=1.5,
                max_quantitative_in_rule=2,
            ),
        },
    }

    def __init__(self, seed: int, scale: str) -> None:
        super().__init__(seed, scale)
        # Priming mines without an interest level: the counting and rule
        # stages' cache keys ignore it (the default OR mode), and the
        # interest filter, most of an op, stays out of set-up.
        self.config = MinerConfig(**self.params["config"])
        # Distinct levels in [1.19, 1.20] from a golden-ratio sequence
        # with a seeded start.  Across [1.1, 1.2] an op costs up to ~25%
        # more at the low end (more rules kept); this narrow band keeps
        # the ops on one table nearly the same work, so a run's median
        # does not hinge on which levels it drew, and its cheap end fits
        # the most ops into a run, while each distinct level still
        # misses the interest stage's cache.
        start = np.random.default_rng(sub_seed(seed, LEVELS)).random()
        steps = (start + np.arange(1024) * (np.sqrt(5) - 1) / 2) % 1.0
        self.levels = list(
            dict.fromkeys(float(1.19 + 0.01 * s) for s in steps)
        )
        self.first = None

    def setup(self, k: int, tracer=None) -> None:
        table = self.table(k)
        miner = QuantitativeMiner(table, self.config)
        primed = miner.mine()
        self.instances.append(
            SweepInstance(
                table, miner, fingerprint(primed.rules, primed.support_counts)
            )
        )

    def op_input(self, i: int):
        config = dataclasses.replace(self.config, interest_level=self.levels[i])
        return self.instance(i).miner, config

    def op(self, args):
        miner, config = args
        return miner.mine(config)

    def check(self, i: int, out) -> bool:
        if self.first is None:
            self.first = (i, out.config.interest_level, _digests(out))
        events = out.stats.execution.stage_cache_events
        return (
            events == self.EVENTS
            and set(out.interesting_rules) <= set(out.rules)
            and fingerprint(out.rules, out.support_counts)
            == self.instance(i).primed
        )

    def final_failures(self) -> set:
        if self.first is None:
            return set()
        op, level, digests = self.first
        config = dataclasses.replace(
            self.config,
            interest_level=level,
            cache=CacheConfig(enabled=False),
        )
        cold = QuantitativeMiner(self.instance(op).table, config).mine()
        return set() if _digests(cold) == digests else {op}

    def inject(self, fault, out):
        if fault == SUPPORT_FAULT:
            out.support_counts[next(iter(out.support_counts))] += 1
        elif fault == RULE_FAULT:
            del out.rules[0]
        return out


def _digests(result) -> tuple:
    return (
        fingerprint(result.rules, result.support_counts),
        fingerprint(result.interesting_rules, {}),
    )


class CreditPredict(Workload):
    """Op: one ``RuleIndex.predict(record, target)`` call.

    Set-up ``k`` mines table ``k`` goal-directed (target
    ``employee_category``), indexes the result with
    ``RuleIndex.from_result`` and warms the index up with a few queries;
    the index build is traced, one traced op per build, when the run is.
    Op ``i`` asks index ``i % instances`` about query record
    ``i % records``.  Check: every index serves every interesting rule of
    its result; every op's prediction equals the first one for the same
    index and record; and after the loop, each of those first predictions
    equals the linear scan's (``use_index=False``).  Only the first
    prediction per pair is kept, so memory does not grow with the number
    of ops a run completes (``peak_rss_mb`` would vary with host speed).
    """

    name = "credit_predict"
    faults = (PREDICT_FAULT,)
    #: A full collection costs ~20x one query; collect once per loop.
    collect_each_op = False
    GOAL_CONFIG = dict(
        max_support=0.45,
        min_confidence=0.40,
        num_partitions=8,
        interest_level=1.1,
        target=TARGET,
    )
    SCALES = {
        "full": {
            "records": 50_000,
            "min_support": 0.05,
            "queries": 500,
            "warmup": 200,
        },
        "toy": {
            "records": 3_000,
            "min_support": 0.15,
            "queries": 100,
            "warmup": 10,
        },
    }

    def __init__(self, seed: int, scale: str) -> None:
        super().__init__(seed, scale)
        self.records: list = []
        #: Per instance: does the index serve every interesting rule?
        self.complete: list = []
        #: ``{(index, record): (first op id, its prediction)}``.
        self.answers: dict = {}
        self.ops = 0

    def setup(self, k: int, tracer=None) -> None:
        if k == 0:
            self.records = query_records(
                self.params["queries"], sub_seed(self.seed, QUERIES)
            )
        config = MinerConfig(
            min_support=self.params["min_support"], **self.GOAL_CONFIG
        )
        result = mine_quantitative_rules(self.table(k), config)
        if tracer is None:
            index = RuleIndex.from_result(result)
        else:
            with install_probes(tracer), tracer.op(k):
                index = RuleIndex.from_result(result)
        self.complete.append(
            index.num_rules == len(result.interesting_rules)
        )
        for record in self.records[: self.params["warmup"]]:
            index.predict(record, TARGET)
        self.instances.append(index)

    def op_input(self, i: int):
        return self.instance(i), self.records[i % len(self.records)]

    def op_key(self, i: int):
        # A query lasts under a millisecond, within one host speed: its
        # group is every repeat of one (index, record) pair.
        return i % len(self.instances), i % len(self.records)

    def op(self, args):
        index, record = args
        return index.predict(record, TARGET)

    def check(self, i: int, out) -> bool:
        self.ops = max(self.ops, i + 1)
        first = self.answers.setdefault(self.op_key(i), (i, out))[1]
        return self.complete[i % len(self.instances)] and out == first

    def final_failures(self) -> set:
        wrong = {
            pair
            for pair, (i, answer) in self.answers.items()
            if answer
            != self.instance(i).predict(
                self.records[pair[1]], TARGET, use_index=False
            )
        }
        return {i for i in range(self.ops) if self.op_key(i) in wrong}

    def inject(self, fault, out):
        return dataclasses.replace(out, confidence=-1.0)


WORKLOADS = {
    cls.name: cls
    for cls in (CreditCold, CreditSweep, CreditScan, CreditPredict)
}

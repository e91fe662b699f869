"""Shared fixtures for the benchmark harness.

Every benchmark regenerates one of the paper's evaluation artifacts
(Figures 7, 8, 9) or one of the design-choice ablations DESIGN.md calls
out.  Expensive inputs (synthetic credit tables) are cached per session,
and each benchmark writes its reproduced series to a text report under
``benchmarks/results/`` so the numbers survive the run.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.data import generate_credit_table

RESULTS_DIR = Path(__file__).parent / "results"


@pytest.fixture(scope="session")
def credit_table_cache():
    """Session cache of synthetic credit tables keyed by (size, seed)."""
    cache = {}

    def get(num_records: int, seed: int = 42):
        key = (num_records, seed)
        if key not in cache:
            cache[key] = generate_credit_table(num_records, seed=seed)
        return cache[key]

    return get


class ResultReporter:
    """Accumulates one experiment's table and writes it at teardown.

    Two parallel outputs: the human text table (``line``/``row``,
    written to ``results/<name>.txt``) and machine-readable rows
    (``record``, added to the run list in ``results/<name>.json``)
    so downstream tooling can track the numbers without parsing the
    prose.  A ``fresh`` reporter (a module's first in a session) starts
    both files afresh, so they hold that session's run and nothing older.
    """

    def __init__(self, name: str, fresh: bool = False) -> None:
        self._name = name
        self._fresh = fresh
        self._lines: list = []
        self._records: list = []

    def line(self, text: str = "") -> None:
        self._lines.append(text)
        print(text)

    def row(self, *cells, widths=None) -> None:
        if widths is None:
            widths = [14] * len(cells)
        text = "  ".join(
            f"{str(c):>{w}}" for c, w in zip(cells, widths)
        )
        self.line(text)

    def record(self, **fields) -> None:
        """Add one machine-readable result row to the JSON report."""
        self._records.append(fields)

    def flush(self) -> None:
        RESULTS_DIR.mkdir(exist_ok=True)
        path = RESULTS_DIR / f"{self._name}.txt"
        with path.open("w" if self._fresh else "a") as f:
            if self._fresh:
                f.write(f"# {self._name}\n")
            f.write("\n".join(self._lines) + "\n")
        json_path = RESULTS_DIR / f"{self._name}.json"
        if self._fresh and json_path.exists():
            json_path.unlink()
        if self._records:
            runs = (
                json.loads(json_path.read_text())
                if json_path.exists()
                else []
            )
            runs.append(
                {"benchmark": self._name, "results": self._records}
            )
            json_path.write_text(json.dumps(runs, indent=2) + "\n")


@pytest.fixture(scope="session")
def written_reports():
    """Names of the reports written so far in this session."""
    return set()


@pytest.fixture
def reporter(request, written_reports):
    """Per-test reporter named after the benchmark module."""
    name = request.module.__name__.replace("bench_", "")
    r = ResultReporter(name, fresh=name not in written_reports)
    written_reports.add(name)
    yield r
    r.flush()

"""The Python snippets in the docs parse and use one spelling per knob.

Every ```python block in ``docs/*.md`` and ``README.md`` must parse
(top-level ``await`` allowed, as in the async guide).  Each keyword a
snippet passes to a mining entry point, to ``MinerConfig`` or to a
runner's ``.submit`` must be a ``MinerConfig`` field or one of the
called function's own parameters: operational blocks are passed as
block objects or dicts, never as flat aliases of their fields.
"""

import ast
import dataclasses
import inspect
import re
from pathlib import Path

import pytest

from repro import (
    MinerConfig,
    MiningJobRunner,
    mine_quantitative_rules,
    mine_quantitative_rules_async,
)

ROOT = Path(__file__).parent.parent
DOCS = sorted((ROOT / "docs").glob("*.md")) + [ROOT / "README.md"]
FENCE = re.compile(r"^```python\n(.*?)^```", re.DOTALL | re.MULTILINE)

CONFIG_FIELDS = {f.name for f in dataclasses.fields(MinerConfig)}


def own_parameters(fn) -> set:
    return {
        name
        for name, param in inspect.signature(fn).parameters.items()
        if param.kind not in (param.VAR_KEYWORD, param.VAR_POSITIONAL)
    }


#: Callee name -> the keywords it takes besides the config fields.
CHECKED_CALLS = {
    "mine_quantitative_rules": own_parameters(mine_quantitative_rules),
    "mine_quantitative_rules_async": own_parameters(
        mine_quantitative_rules_async
    ),
    "MinerConfig": set(),
    "submit": own_parameters(MiningJobRunner.submit),
}


def python_blocks():
    for path in DOCS:
        text = path.read_text()
        for match in FENCE.finditer(text):
            line = text.count("\n", 0, match.start(1)) + 1
            yield pytest.param(
                match.group(1), id=f"{path.relative_to(ROOT)}:{line}"
            )


BLOCKS = list(python_blocks())


def parse(source):
    return compile(
        source, "<doc>", "exec",
        flags=ast.PyCF_ONLY_AST | ast.PyCF_ALLOW_TOP_LEVEL_AWAIT,
    )


def unknown_keywords(tree) -> list:
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(
            func, "id", None
        )
        if name not in CHECKED_CALLS:
            continue
        allowed = CONFIG_FIELDS | CHECKED_CALLS[name]
        found.extend(
            f"{name}({kw.arg}=)"
            for kw in node.keywords
            if kw.arg is not None and kw.arg not in allowed
        )
    return found


def test_docs_have_python_blocks():
    assert len(BLOCKS) >= 30


@pytest.mark.parametrize("source", BLOCKS)
def test_block_parses_with_one_spelling(source):
    assert unknown_keywords(parse(source)) == []


def test_checker_flags_flat_alias():
    tree = parse(
        "mine_quantitative_rules(table, executor='parallel')\n"
        "await mine_quantitative_rules_async(table, cache=shared)\n"
        "runner.submit(table, timeout=5, max_concurrent_jobs=4)\n"
    )
    assert unknown_keywords(tree) == [
        "mine_quantitative_rules(executor=)",
        "submit(max_concurrent_jobs=)",
    ]

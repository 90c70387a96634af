"""The benchmark harness traces rbc functions by name.

``perfbench/tracer.py`` lists its traced boundaries as ``<module>.<function>``
in ``TRACED`` and looks each one up on ``rbc.<module>`` when a traced run
starts, so removing or renaming one of them breaks ``--trace 1`` runs.
The list is read from the source without importing the harness.
"""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _traced_names() -> tuple[str, ...]:
    tree = ast.parse(TRACER.read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no TRACED tuple in {TRACER}")


def test_traced_list_is_found():
    names = _traced_names()
    assert names and all(name.count(".") == 1 for name in names)


@pytest.mark.parametrize("name", _traced_names())
def test_every_traced_name_resolves_to_a_function(name):
    module_name, attr = name.split(".")
    module = importlib.import_module(f"rbc.{module_name}")
    fn = getattr(module, attr, None)
    assert callable(fn), f"rbc.{module_name} has no function {attr}"
    assert fn.__module__ == f"rbc.{module_name}"

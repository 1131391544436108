"""The form of the mutant registry in `tests/mutants.py`; the mutants
themselves run only through `python tests/mutants.py`."""

from __future__ import annotations

import ast

from mutants import MUTANTS, ROOT


def test_every_mutant_changes_one_exact_text():
    assert len({m.name for m in MUTANTS}) == len(MUTANTS)
    for m in MUTANTS:
        source = (ROOT / m.path).read_text()
        assert source.count(m.old) == 1, m.name
        assert m.new != m.old, m.name
        # a mutant that does not parse fails at collection, which the runner
        # does not count as a failed test
        compile(source.replace(m.old, m.new, 1), m.path, "exec")


def test_every_named_test_function_exists():
    defined = {}
    for m in MUTANTS:
        assert m.tests, m.name
        for node_id in m.tests:
            path, function = node_id.split("::")
            if path not in defined:
                tree = ast.parse((ROOT / path).read_text())
                defined[path] = {
                    node.name for node in tree.body if isinstance(node, ast.FunctionDef)
                }
            assert function in defined[path], node_id

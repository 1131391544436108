from __future__ import annotations

import ast
import pathlib

import ditkit


def test_every_public_function_is_exported_or_called():
    """A module-level function of the library, public or private, is
    exported from ditkit/__init__.py, or reached from another module of
    the library, directly or through the definitions of its own module
    that are reached.  Any other is dead code, or a helper only the tests
    call, which belongs in tests/oracles.py."""
    src = pathlib.Path(ditkit.__file__).parent
    trees = {path.stem: ast.parse(path.read_text()) for path in src.glob("*.py")}
    reached: dict[str, set[str]] = {name: set() for name in trees}
    for tree in trees.values():
        modules = {}  # local name -> module, from `from . import m [as local]`
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                if node.module is None:
                    modules.update((a.asname or a.name, a.name) for a in node.names)
                elif node.module in reached:
                    reached[node.module].update(a.name for a in node.names)
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                if node.value.id in modules:
                    reached[modules[node.value.id]].add(node.attr)
    dead = set()
    for name, tree in trees.items():
        defs = {
            node.name: node
            for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        }
        live = set(reached[name])
        # code run at import or as a script reaches what it names
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                live.update(n.id for n in ast.walk(node) if isinstance(n, ast.Name))
        todo = list(live & defs.keys())
        while todo:
            for node in ast.walk(defs[todo.pop()]):
                if isinstance(node, ast.Name) and node.id in defs and node.id not in live:
                    live.add(node.id)
                    todo.append(node.id)
        dead.update(
            f"{name}.{fn}"
            for fn, node in defs.items()
            if isinstance(node, ast.FunctionDef) and fn not in live
        )
    assert dead == set()

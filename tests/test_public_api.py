from __future__ import annotations

import ast
import pathlib
from collections import Counter

import pytest

import ditkit
from ditkit import errors
from ditkit.density import luders_mixture, rho
from ditkit.entropy import logical_entropy
from ditkit.errors import DitkitError, InvalidValue
from ditkit.partitions import GroundSet, choice_reduce, discrete_partition
from ditkit.z2dyn import Detect, SubsetVector, run_pipeline, sample_pipeline


def _owned_names(nodes) -> set[tuple[str, str]]:
    """(owner, attribute) for each `owner.attribute` under the nodes."""
    return {
        (node.value.id, node.attr)
        for top in nodes
        for node in ast.walk(top)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
    }


def _attribute_names(nodes) -> list[str]:
    """The attribute of each `x.attribute` under the nodes, once per use."""
    return [
        node.attr for top in nodes for node in ast.walk(top)
        if isinstance(node, ast.Attribute)
    ]


def test_every_public_function_is_exported_or_called():
    """A module-level function of the library, public or private, is
    exported from ditkit/__init__.py, or reached from another module of
    the library, directly or through the definitions of its own module
    that are reached.  A private method, such as a trusted constructor,
    is named on its class anywhere in the library, or on self or cls in
    another method of its class.  A public method of a private class is
    named as an attribute somewhere in the library outside its own
    definition.  Any other is dead code, or a helper only the tests call,
    which belongs in tests/oracles.py."""
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
    anywhere = _owned_names(trees.values())
    attributes = Counter(_attribute_names(trees.values()))
    for name, tree in trees.items():
        for cls in (node for node in tree.body if isinstance(node, ast.ClassDef)):
            for fn in cls.body:
                if not isinstance(fn, ast.FunctionDef):
                    continue
                if not fn.name.startswith("_"):
                    inside = _attribute_names([fn]).count(fn.name)
                    if cls.name.startswith("_") and attributes[fn.name] == inside:
                        dead.add(f"{name}.{cls.name}.{fn.name}")
                    continue
                if fn.name.endswith("__") or (cls.name, fn.name) in anywhere:
                    continue
                inside = _owned_names(other for other in cls.body if other is not fn)
                if not inside & {("self", fn.name), ("cls", fn.name)}:
                    dead.add(f"{name}.{cls.name}.{fn.name}")
    assert dead == set()


# The raises in the library that name a class outside DitkitError, each
# kept on purpose: (module, function, class).
_OTHER_RAISES = {
    # errors.json_input turns it into the DitkitError of a malformed value
    ("partitions", "_json_number", "ValueError"),
    # a singular map has no inverse; callers test GF2Map.nonsingular first
    ("z2dyn", "inverse", "ArithmeticError"),
}


def _raises(node: ast.AST, where: str):
    """(innermost enclosing function, raise node) for each raise under node."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.FunctionDef):
            yield from _raises(child, child.name)
        elif isinstance(child, ast.Raise):
            yield where, child
        else:
            yield from _raises(child, where)


def test_every_raise_names_a_ditkit_error():
    """Bad input leaves the library as a DitkitError: every `raise` of a
    new exception names a subclass of DitkitError, apart from the listed
    two, and a bare `raise` passes an exception on."""
    kinds = {
        name for name, value in vars(errors).items()
        if isinstance(value, type) and issubclass(value, DitkitError)
    }
    src = pathlib.Path(ditkit.__file__).parent
    other = set()
    for path in src.glob("*.py"):
        for where, node in _raises(ast.parse(path.read_text()), "<module>"):
            if node.exc is None:
                continue
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            name = ast.unparse(exc)
            if name not in kinds:
                other.add((path.stem, where, name))
    assert other == _OTHER_RAISES


def _is_float_source(node: ast.AST, logs: set[str]) -> bool:
    """A float literal, a `float(...)` call, or a call of a math log
    function, by `math.log*` or by a name imported from math."""
    if isinstance(node, ast.Constant):
        return isinstance(node.value, (float, complex))
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    if isinstance(func, ast.Name):
        return func.id == "float" or func.id in logs
    return (
        isinstance(func, ast.Attribute)
        and isinstance(func.value, ast.Name)
        and func.value.id == "math"
        and func.attr.startswith("log")
    )


def test_floats_stay_out_of_exact_paths():
    """Floats appear only where Shannon entropy is computed or a float is
    printed; every other path of the library is exact.  Each use is named
    by the top-level definition or assignment that holds it."""
    src = pathlib.Path(ditkit.__file__).parent
    found = set()
    for path in src.glob("*.py"):
        tree = ast.parse(path.read_text())
        logs = {
            a.asname or a.name
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.module == "math"
            for a in node.names
            if a.name.startswith("log")
        }
        for top in tree.body:
            if isinstance(top, (ast.FunctionDef, ast.ClassDef)):
                names = [top.name]
            elif isinstance(top, (ast.Assign, ast.AnnAssign)):
                targets = top.targets if isinstance(top, ast.Assign) else [top.target]
                names = [
                    n.id
                    for t in targets
                    for n in ast.walk(t)
                    if isinstance(n, ast.Name)
                ]
            else:
                names = ["<module>"]
            if any(_is_float_source(node, logs) for node in ast.walk(top)):
                found.update(f"{path.stem}.{name}" for name in names)
    assert found == {
        "cli._fmt",
        "entropy.shannon_entropy",
        "entropy.dit_to_bit_check",
    }


_AB = GroundSet(("a", "b"))
_PI = discrete_partition(_AB)


_BARE_CALLS = {
    "choice_reduce": lambda bare: choice_reduce([0, 1], bare, 0),
    "logical_entropy": lambda bare: logical_entropy(_PI, bare),
    "rho": lambda bare: rho(_PI, bare),
    "luders_mixture": lambda bare: luders_mixture(bare, _PI),
    "run_pipeline": lambda bare: run_pipeline(SubsetVector(_AB, [0, 1]), [Detect()], bare),
}


# run_pipeline reads p=None as the uniform distribution
@pytest.mark.parametrize("name, bare", [
    (name, bare)
    for name in _BARE_CALLS
    for bare in ("x", None)
    if (name, bare) != ("run_pipeline", None)
])
def test_a_value_without_a_ground_set_raises_a_ditkit_error(name, bare):
    with pytest.raises(DitkitError):
        _BARE_CALLS[name](bare)


_BOTH = SubsetVector(_AB, [0, 1])

# a value with the right ground set but the wrong type
_PROBS_CALLS = {
    "rho": lambda wrong: rho(_PI, wrong),
    "logical_entropy": lambda wrong: logical_entropy(_PI, wrong),
    "block_probs": lambda wrong: ditkit.block_probs(_PI, wrong),
    "shannon_entropy": lambda wrong: ditkit.shannon_entropy(_PI, wrong),
    "logical_entropy_ditsum": lambda wrong: ditkit.logical_entropy_ditsum(_PI, wrong),
    "consistency_h": lambda wrong: ditkit.consistency_h(_PI, wrong),
    "compound_logical": lambda wrong: ditkit.compound_logical(_PI, _PI, wrong),
    "compound_shannon": lambda wrong: ditkit.compound_shannon(_PI, _PI, wrong),
    "theorem_join": lambda wrong: ditkit.theorem_join(_PI, _PI, wrong),
    "theorem_entropy_increase":
        lambda wrong: ditkit.theorem_entropy_increase(_PI, _PI, wrong),
    "dit_to_bit_check": lambda wrong: ditkit.dit_to_bit_check(_PI, wrong),
    "verify_block_eigenvectors":
        lambda wrong: ditkit.verify_block_eigenvectors(_PI, wrong),
    "run_pipeline": lambda wrong: run_pipeline(_BOTH, [Detect()], wrong),
    "sample_pipeline": lambda wrong: sample_pipeline(_BOTH, [Detect()], 4, 0, wrong),
}


@pytest.mark.parametrize("name", list(_PROBS_CALLS))
def test_a_partition_in_place_of_probabilities_raises_invalid_value(name):
    with pytest.raises(InvalidValue, match="^probs must be a ProbGroundSet, got "):
        _PROBS_CALLS[name](_PI)

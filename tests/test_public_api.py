from __future__ import annotations

import ast
import dataclasses
import inspect
import pathlib
import re
from collections import Counter
from collections.abc import Iterator
from fractions import Fraction

import pytest

import ditkit
from ditkit import errors
from ditkit.density import luders_mixture, rho
from ditkit.entropy import logical_entropy
from ditkit.errors import DitkitError, GroundMismatch, InvalidValue, UnknownLabel
from ditkit.partitions import (
    GroundSet,
    discrete_partition,
    partition_to_json,
)
from ditkit.z2dyn import (
    Detect, SubsetVector, choice_reduce, run_pipeline, sample_pipeline,
)


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
    one, and a bare `raise` passes an exception on."""
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
    # a bare value in place of a ground set or a partition
    "enumerate_partitions": lambda bare: ditkit.enumerate_partitions(bare),
    "discrete_partition": lambda bare: discrete_partition(bare),
    "indiscrete_partition": lambda bare: ditkit.indiscrete_partition(bare),
    "make_partition": lambda bare: ditkit.make_partition(bare, [["a"], ["b"]]),
    "parse_partition": lambda bare: ditkit.parse_partition(bare, "a|b"),
    "Partition": lambda bare: ditkit.Partition(bare, [[0], [1]]),
    "ProbGroundSet": lambda bare: ditkit.ProbGroundSet(bare, (Fraction(1, 2),) * 2),
    "SubsetVector.from_labels": lambda bare: SubsetVector.from_labels(bare, ["a"]),
    "Attribute.from_values": lambda bare: ditkit.Attribute.from_values(bare, [1, 2]),
    "Attribute.from_map": lambda bare: ditkit.Attribute.from_map(bare, {"a": 1}),
    "ProbGroundSet.uniform": lambda bare: ditkit.ProbGroundSet.uniform(bare),
    "DensityMatrix": lambda bare: ditkit.DensityMatrix(bare, ()),
    "SubsetVector.empty": lambda bare: SubsetVector.empty(bare),
    "GF2Map.from_images": lambda bare: ditkit.GF2Map.from_images(bare, {}),
    "partition_to_json": lambda bare: partition_to_json(bare),
    "notation": lambda bare: ditkit.notation(bare),
    "ditset": lambda bare: ditkit.ditset(bare),
    "inditset": lambda bare: ditkit.inditset(bare),
    "bell_number": lambda bare: ditkit.bell_number(bare),
    # these two ignore the bare value: a negative n and a bool are not sizes
    "bell_number(-3)": lambda bare: ditkit.bell_number(-3),
    "bell_number(True)": lambda bare: ditkit.bell_number(True),
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
    "choice_reduce": lambda wrong: choice_reduce([0], wrong, 0),
}


@pytest.mark.parametrize("name", list(_PROBS_CALLS))
def test_a_partition_in_place_of_probabilities_raises_invalid_value(name):
    with pytest.raises(InvalidValue, match="^probs must be a ProbGroundSet, got "):
        _PROBS_CALLS[name](_PI)


_P = ditkit.ProbGroundSet.uniform(_AB)
_MAT = rho(_PI, _P)
_F = ditkit.Attribute.from_values(_AB, [1, 2])
_DSD = ditkit.DSD.standard(2)
_OP = ditkit.operator_from_attribute(_F)
_MAP = ditkit.GF2Map.identity(2)

# entry point: (function, a valid call's arguments, the positions of the
# arguments that are swapped for a value of the wrong type)
_TYPED_CALLS = {
    "join": (ditkit.join, (_PI, _PI), (0, 1)),
    "meet": (ditkit.meet, (_PI, _PI), (0, 1)),
    "refines": (ditkit.refines, (_PI, _PI), (0, 1)),
    "implication": (ditkit.implication, (_PI, _PI), (0, 1)),
    "logical_entropy": (logical_entropy, (_PI, _P), (0,)),
    "block_probs": (ditkit.block_probs, (_PI, _P), (0,)),
    "shannon_entropy": (ditkit.shannon_entropy, (_PI, _P), (0,)),
    "compound_logical": (ditkit.compound_logical, (_PI, _PI, _P), (0, 1)),
    "compound_shannon": (ditkit.compound_shannon, (_PI, _PI, _P), (0, 1)),
    "rho": (rho, (_PI, _P), (0,)),
    "theorem_join": (ditkit.theorem_join, (_PI, _PI, _P), (0, 1)),
    "theorem_entropy_increase":
        (ditkit.theorem_entropy_increase, (_PI, _PI, _P), (0, 1)),
    "consistency_h": (ditkit.consistency_h, (_PI, _P), (0,)),
    "luders_mixture": (luders_mixture, (_MAT, _PI), (0, 1)),
    "luders_rule": (
        ditkit.luders_rule, (_MAT, ditkit.ProjectionMask(_AB, [0])), (0, 1)
    ),
    "luders_outcomes": (ditkit.luders_outcomes, (_MAT, _PI), (0, 1)),
    "state_reduction_audit": (ditkit.state_reduction_audit, (_MAT, _PI), (0, 1)),
    "quantum_logical_entropy": (ditkit.quantum_logical_entropy, (_MAT,), (0,)),
    "commutator": (ditkit.commutator, (_OP, _OP), (0, 1)),
    "classify": (ditkit.classify, ([1, 2], _DSD, [1, 2], _DSD), (1, 3)),
    "operator_from_dsd": (ditkit.operator_from_dsd, ([1, 2], _DSD), (1,)),
    "theorem_se_equals_kernel":
        (ditkit.theorem_se_equals_kernel, ([1, 2], _DSD, [1, 2], _DSD), (1, 3)),
    "simultaneous_eigenspace": (ditkit.simultaneous_eigenspace, (_DSD, _DSD), (0, 1)),
    "inverse_image_partition": (ditkit.inverse_image_partition, (_F,), (0,)),
    "dsd_from_attribute": (ditkit.dsd_from_attribute, (_F,), (0,)),
    "operator_from_attribute": (ditkit.operator_from_attribute, (_F,), (0,)),
    "set_spectral_check": (ditkit.set_spectral_check, (_F,), (0,)),
    "evolve": (ditkit.evolve, (_BOTH, _MAP), (0, 1)),
    "is_nonsingular": (ditkit.is_nonsingular, (_MAP,), (0,)),
    "GF2Map.identity": (ditkit.GF2Map.identity, (2,), (0,)),
    "StateMixture": (ditkit.StateMixture, (_AB, ((_BOTH, 1),)), (0,)),
    "StateMixture.point": (ditkit.StateMixture.point, (_BOTH,), (0,)),
    "StateMixture.probability": (
        ditkit.StateMixture.probability, (ditkit.StateMixture.point(_BOTH), _BOTH), (1,)
    ),
    "SubsetVector.__add__": (SubsetVector.__add__, (_BOTH, _BOTH), (1,)),
    "run_pipeline": (run_pipeline, (_BOTH, [Detect()]), (0,)),
    "sample_pipeline": (sample_pipeline, (_BOTH, [Detect()], 1, 0), (0,)),
    "Evolve step": (lambda m: run_pipeline(_BOTH, [ditkit.Evolve(m)]), (_MAP,), (0,)),
    "Measure step":
        (lambda by: run_pipeline(_BOTH, [ditkit.Measure(by)]), (_PI,), (0,)),
}


def _swapped(args, at, wrong):
    return (*args[:at], wrong, *args[at + 1:])


# A wrong value is None, or a ditkit value of another type on the same
# ground: probabilities for a partition, a partition for anything else.
@pytest.mark.parametrize("name, at, wrong", [
    (name, at, wrong)
    for name, (_, _, positions) in _TYPED_CALLS.items()
    for at in positions
    for wrong in ("None", "other")
])
def test_a_value_of_the_wrong_type_raises_invalid_value(name, at, wrong):
    call, args, _ = _TYPED_CALLS[name]
    call(*args)
    other = _P if type(args[at]) is ditkit.Partition else _PI
    with pytest.raises(InvalidValue, match=", got "):
        call(*_swapped(args, at, None if wrong == "None" else other))


# Each entry point gated by `partitions._require_on`: (a call of (value,
# pi), a valid value), the value being the one it gates first and pi a
# partition on its ground set.
_GATED_ON = {
    "refines": (ditkit.refines, _PI),
    "join": (ditkit.join, _PI),
    "meet": (ditkit.meet, _PI),
    "implication": (ditkit.implication, _PI),
    "luders_mixture": (luders_mixture, _MAT),
    "luders_outcomes": (ditkit.luders_outcomes, _MAT),
    "state_reduction_audit": (ditkit.state_reduction_audit, _MAT),
    "rho": (lambda probs, pi: rho(pi, probs), _P),
    "block_probs": (lambda probs, pi: ditkit.block_probs(pi, probs), _P),
    "logical_entropy": (lambda probs, pi: logical_entropy(pi, probs), _P),
    "logical_entropy_ditsum":
        (lambda probs, pi: ditkit.logical_entropy_ditsum(pi, probs), _P),
    "shannon_entropy": (lambda probs, pi: ditkit.shannon_entropy(pi, probs), _P),
    "compound_logical":
        (lambda probs, pi: ditkit.compound_logical(_PI, pi, probs), _P),
    # the theorem checks gate (probs, pi), then (probs, sigma)
    "theorem_join pi":
        (lambda probs, pi: ditkit.theorem_join(pi, _PI, probs), _P),
    "theorem_join sigma":
        (lambda probs, sigma: ditkit.theorem_join(_PI, sigma, probs), _P),
    "theorem_entropy_increase pi":
        (lambda probs, pi: ditkit.theorem_entropy_increase(pi, _PI, probs), _P),
    "theorem_entropy_increase sigma":
        (lambda probs, sigma: ditkit.theorem_entropy_increase(_PI, sigma, probs), _P),
    "consistency_h": (lambda probs, pi: ditkit.consistency_h(pi, probs), _P),
}


@pytest.mark.parametrize("name", list(_GATED_ON))
def test_the_gate_checks_the_value_then_the_partition_then_the_ground(name):
    """With both gated arguments wrong, the InvalidValue names the value;
    with a partition on another ground set, the GroundMismatch names the
    value's labels first."""
    call, value = _GATED_ON[name]
    call(value, _PI)
    with pytest.raises(InvalidValue, match=r", got 'value'$"):
        call("value", "pi")
    other = discrete_partition(GroundSet(("a", "c")))
    with pytest.raises(GroundMismatch) as exc:
        call(value, other)
    assert str(exc.value) == "ground sets differ: ('a', 'b') vs ('a', 'c')"


# --- one generated sweep over the public surface ---
#
# Every function and class that ditkit exports, and every public method,
# classmethod and operator of an exported class, gets one valid call.
# Then each argument in turn is swapped for each bad value, and anything
# raised that is not a DitkitError is a leak.

_ABC = GroundSet(("a", "b", "c"))
_A = SubsetVector(_AB, [0])

# No bad value asks for work above size 5.
_BAD_VALUES = (
    None, 5, -1, "x", [], 0.5, True, discrete_partition(_ABC), _ABC, object(),
    ["x"], [[None]], {"a": None},
)

# The names the sweep leaves out, each with its reason.
_TRUSTED = {
    "SubsetVector.from_bits": "the documented trusted path: ground and mask unchecked",
    "Compatibility": "the stdlib Enum lookup, Compatibility(value)",
}

# A valid argument by its annotation, else by its parameter's name.
_BY_ANNOTATION = {
    "GroundSet": _AB,
    "Partition": _PI,
    "ProbGroundSet": _P,
    "Optional[ProbGroundSet]": _P,
    "DensityMatrix": _MAT,
    "SubsetVector": _A,
    "ProjectionMask": ditkit.ProjectionMask(_AB, [0]),
    "GF2Map": _MAP,
    "DSD": _DSD,
    "Operator": _OP,
    "Attribute": _F,
    "Formula": ditkit.Var("p"),
    "Matrix": ((1, 0), (0, 1)),
    "Mapping[str, Partition]": {"p": _PI},
    "dict[str, Partition]": {"p": _PI},
    "Iterable[Step]": [Detect()],
    "Iterable[Iterable[int]]": [[0], [1]],
    "Iterable[Iterable[str]]": [["a"], ["b"]],
    "tuple[Fraction, ...]": (Fraction(1, 2), Fraction(1, 2)),
    "Fraction": Fraction(1, 4),
    "float": 0.5,
}
_BY_NAME = {
    "labels": ("a", "b"), "blocks": [[0], [1]], "members": [0], "indices": [0],
    "block": [0, 1], "values": (Fraction(1, 2), Fraction(1, 2)),
    "mapping": {"a": 1, "b": 2},
    "images": {"a": "a", "b": "b"}, "text": "a|b", "label": "a", "name": "p",
    "i": 0, "k": 1, "n": 2, "dim": 2, "max_n": 2, "bound": 2, "mask": 1,
    "trials": 2, "rng": 0, "case": 1, "value": 2, "factor": 2, "pair": (0, 1),
    "pairs": frozenset({(0, 1)}), "cols": (1, 2), "groups": [[(1, 0)], [(0, 1)]],
    "subspaces": _DSD.subspaces, "entries": _MAT.entries, "terms": ((_A, 1),),
    "status": "valid-up-to-bound", "ev_f": (1, 2), "ev_g": (1, 2),
    "eigenvalues": (1, 2), "attrs": [_F], "dsds": [_DSD],
    "message": "m", "position": 0, "bound_reached": 0,
}
# the calls that the two tables cannot build
_RECIPES = {
    "parse": ("p",),
    "Attribute.from_json": (_F.to_json(),),
    "DSD.from_json": (_DSD.to_json(),),
    "DensityMatrix.from_json": (_MAT.to_json(),),
}


def _valid_arguments(name, call):
    """A valid argument for each positional parameter of `call`, or None
    when there is no recipe for one."""
    if name in _RECIPES:
        return _RECIPES[name]
    try:
        params = inspect.signature(call).parameters.values()
    except ValueError:  # a builtin exception type takes any message
        params = ()
    args = []
    for param in params:
        if param.kind not in (param.POSITIONAL_ONLY, param.POSITIONAL_OR_KEYWORD):
            continue
        note = param.annotation
        note = getattr(note, "__forward_arg__", note)  # a NamedTuple field
        note = note.strip("'") if isinstance(note, str) else None
        if note in _BY_ANNOTATION:
            args.append(_BY_ANNOTATION[note])
        elif param.name in _BY_NAME:
            args.append(_BY_NAME[param.name])
        elif param.default is not param.empty:
            args.append(param.default)
        else:
            return None
    return tuple(args)


def _run(call, args):
    result = call(*args)
    if isinstance(result, Iterator):
        list(result)


def _public_calls():
    """(calls, missing): name -> (callable, valid arguments) for every
    swept name whose valid call runs, and the names with no recipe or a
    recipe that raises.  A method is called on the instance its class's
    own valid call builds; an inherited one is listed under the subclass
    too, and the defining name decides whether it is trusted."""
    package = str(pathlib.Path(ditkit.__file__).parent)
    calls, missing = {}, set()

    def add(name, code_name, call):
        if name in _TRUSTED or code_name in _TRUSTED:
            return None
        args = _valid_arguments(name, call)
        if args is not None:
            try:
                _run(call, args)
            except Exception:
                args = None
        if args is None:
            missing.add(name)
        else:
            calls[name] = (call, args)
        return args

    for name, obj in vars(ditkit).items():
        if name[0] == "_" or not (inspect.isfunction(obj) or inspect.isclass(obj)):
            continue
        args = add(name, name, obj)
        if not inspect.isclass(obj):
            continue
        instance = obj(*args) if args is not None else None
        for attr in dir(obj):
            raw = inspect.getattr_static(obj, attr)
            code = getattr(raw, "__func__", raw)
            if not (
                inspect.isfunction(code)
                and code.__code__.co_filename.startswith(package)
                and (attr[0] != "_" or attr[:2] == attr[-2:] == "__")
                and attr not in ("__init__", "__post_init__")
            ):
                continue
            owner = obj if isinstance(raw, (classmethod, staticmethod)) else instance
            if owner is None:
                missing.add(f"{name}.{attr}")
                continue
            add(f"{name}.{attr}", code.__qualname__, getattr(owner, attr))
    return calls, missing


def test_the_sweep_builds_a_valid_call_for_every_public_name():
    """A new export or method with no recipe fails here, rather than
    dropping out of the sweep."""
    calls, missing = _public_calls()
    assert missing == set()
    assert {"rho", "GF2Map.apply_bits", "ProjectionMask.__contains__"} <= set(calls)


# The public dataclasses whose `__init__` takes the input form, not the
# stored fields, so `dataclasses.replace` raises TypeError (README says so).
_NO_REPLACE = {
    "Partition", "SubsetVector", "ProjectionMask", "DensityMatrix", "Operator",
}


def test_every_public_dataclass_round_trips_through_replace_or_is_named():
    refused = set()
    public = [(name, obj) for name, obj in vars(ditkit).items() if name[0] != "_"]
    for name, obj in public:
        if not (inspect.isclass(obj) and dataclasses.is_dataclass(obj)):
            continue
        value = obj(*_valid_arguments(name, obj))
        try:
            assert dataclasses.replace(value) == value, name
        except TypeError:
            refused.add(name)
    assert refused == _NO_REPLACE


def test_no_bad_argument_leaks_a_raw_exception():
    """Every swap of one argument for one bad value returns or raises a
    DitkitError.  Leaks are listed per name: the count of leaking calls
    and the exception classes raised."""
    calls, _ = _public_calls()
    leaks: dict[str, Counter] = {}
    for name, (call, args) in calls.items():
        for at in range(len(args)):
            for bad in _BAD_VALUES:
                try:
                    _run(call, _swapped(args, at, bad))
                except DitkitError:
                    pass
                except Exception as exc:
                    leaks.setdefault(name, Counter())[type(exc).__name__] += 1
    assert not leaks, "\n".join(
        f"{name}: {sum(kinds.values())} calls, {', '.join(sorted(kinds))}"
        for name, kinds in sorted(leaks.items())
    )


# The sweep sees only exceptions.  These calls answered, wrongly, at an
# index outside range(n): entry (0, 3) of a 3x3 matrix read entry (1, 0),
# -1 wrapped around to the last element, and a bool read element 0 or 1.
_P3 = ditkit.ProbGroundSet.from_values(_ABC, ["1/2", "1/3", "1/6"])
_RHO3 = rho(ditkit.indiscrete_partition(_ABC), _P3)


@pytest.mark.parametrize("call", [
    lambda: _RHO3.entry(0, 3),
    lambda: _RHO3.entry(-1, 0),
    lambda: _RHO3.entry(True, 0),
    lambda: ditkit.GF2Map((1, 2, 4)).entry(3, 0),
    lambda: ditkit.GF2Map((1, 2, 4)).apply_bits(8),
    lambda: _P3.prob([-1]),
    lambda: _ABC.index(["a"]),
], ids=["entry-row", "entry-wrap", "entry-bool", "map-entry", "map-mask", "prob",
        "label"])
def test_an_index_outside_the_ground_set_raises_unknown_label(call):
    with pytest.raises(UnknownLabel):
        call()


def test_weight_and_prob_read_a_set_of_indices():
    assert _P3.prob([0, 0]) == _P3.prob([0]) == Fraction(1, 2)
    assert _P3.weight((2, 1, 2)) == _P3.weight({1, 2}) == 3


def test_membership_is_false_for_anything_but_an_index():
    mask = ditkit.ProjectionMask(_ABC, [1])
    dits = ditkit.ditset(discrete_partition(_ABC))
    assert 1 in mask and (1, 0) in dits
    for bad in _BAD_VALUES:
        assert bad not in mask and bad not in dits and (bad, 0) not in dits


def test_a_mixture_refuses_a_vector_on_another_ground():
    with pytest.raises(GroundMismatch):
        ditkit.StateMixture.point(_BOTH).probability(SubsetVector(_ABC, [0]))


def _refuses_a_type(node: ast.If) -> bool:
    """`if not isinstance(...)` or `if not all(isinstance(...) ...)`, with
    a `raise` in its body."""
    def called(call, name):
        return (isinstance(call, ast.Call) and isinstance(call.func, ast.Name)
                and call.func.id == name)

    test = node.test
    if not (isinstance(test, ast.UnaryOp) and isinstance(test.op, ast.Not)):
        return False
    check = test.operand
    if called(check, "all") and isinstance(check.args[0], ast.GeneratorExp):
        check = check.args[0].elt
    return called(check, "isinstance") and any(
        isinstance(n, ast.Raise) for stmt in node.body for n in ast.walk(stmt)
    )


def _catches_type_error(node: ast.AST) -> bool:
    """An `except` clause that names TypeError, alone or in a tuple."""
    if not isinstance(node, ast.ExceptHandler) or node.type is None:
        return False
    names = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
    return any(isinstance(n, ast.Name) and n.id == "TypeError" for n in names)


def _sites(node: ast.AST, where: str, found):
    """The innermost enclosing function of each node under `node` for
    which `found(node)` holds."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.FunctionDef):
            yield from _sites(child, child.name, found)
            continue
        if found(child):
            yield where
        yield from _sites(child, where, found)


def _library_sites(found) -> set[tuple[str, str]]:
    """(module, function) of each library node for which `found` holds."""
    src = pathlib.Path(ditkit.__file__).parent
    return {
        (path.stem, where)
        for path in src.glob("*.py")
        for where in _sites(ast.parse(path.read_text()), "<module>", found)
    }


def test_partitions_require_is_the_only_type_gate():
    """A value of the wrong type is refused in one place: no `if` of the
    library raises on `not isinstance(...)` or `not all(isinstance(...))`
    except the one in `partitions._require`."""
    gates = _library_sites(lambda n: isinstance(n, ast.If) and _refuses_a_type(n))
    assert gates == {("partitions", "_require")}


def test_partitions_require_gates_take_fixed_positional_parameters():
    """Every `partitions._require*` gate has a fixed list of positional
    parameters: a `*values` signature makes each call about twice as slow
    on CPython 3.11, and a gate runs on every public call."""
    def gates(found) -> set[str]:
        return {
            where for module, where in _library_sites(
                lambda n: isinstance(n, ast.arguments) and found(n)
            )
            if module == "partitions" and where.startswith("_require")
        }

    assert gates(lambda n: n.vararg or n.kwarg or n.kwonlyargs) == set()
    assert gates(lambda n: True) == {
        "_require", "_require_exact", "_require_on", "_require_same_ground",
        "_require_size",
    }


def _calls_same_ground(node: ast.AST) -> bool:
    """A call of `_require_same_ground` by name."""
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "_require_same_ground")


def test_require_on_is_the_gate_for_a_value_and_a_partition():
    """A value and a partition on its ground set are checked by one gate,
    `partitions._require_on`; the other ground checks are `luders_rule`'s,
    whose outcome is a SubsetVector, and those of z2dyn's own values."""
    assert _library_sites(_calls_same_ground) == {
        ("partitions", "_require_on"),
        ("density", "luders_rule"),
        ("z2dyn", "__add__"),
        ("z2dyn", "__post_init__"),
        ("z2dyn", "probability"),
        ("z2dyn", "_compile"),
    }


def test_as_tuple_is_the_only_collection_reader():
    """A caller's collection is read in one place: no `except` clause of
    the library names TypeError outside `partitions._as_tuple`, the number
    reader `partitions._fraction` and the JSON reader `errors.json_input`."""
    assert _library_sites(_catches_type_error) == {
        ("partitions", "_as_tuple"),
        ("partitions", "_fraction"),
        ("errors", "json_input"),
    }


def _calls_a_gated_accessor(node: ast.AST) -> bool:
    """A call of `.apply_bits(...)` or `.entry(...)` on any value."""
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr in ("apply_bits", "entry"))


def test_no_library_code_calls_a_gated_accessor():
    """`GF2Map.apply_bits` and the `entry` methods check every index they
    are given, for callers outside the library.  Inside it, the index is
    in range by construction, so the code reads the fields or the
    unchecked fold `z2dyn._image`: a gate runs once, at an entry point,
    and never inside a kernel."""
    assert _library_sites(_calls_a_gated_accessor) == set()


def _calls_a_checking_constructor(node: ast.AST) -> bool:
    """A call of `DSD(...)`, `Operator(...)`, `DensityMatrix(...)`,
    `Counterexample(...)` or `ValidityReport(...)` by name."""
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id in ("DSD", "Operator", "DensityMatrix",
                                 "Counterexample", "ValidityReport"))


def test_no_library_code_calls_a_checking_constructor():
    """`Operator` and `DensityMatrix` check every entry of the grid they
    are given, for callers outside the library.  Inside it, a grid is
    valid by construction and goes through the trusted `_grid`; only
    `from_json` reads a caller's data, and it calls `cls(...)`.  Likewise
    `check_validity` builds its witness and report from values its own
    search produced, through `Counterexample._trusted` and
    `ValidityReport._trusted`, and `DSD.standard` and `dsd_from_attribute`
    build coordinate DSDs, a direct sum by construction, through
    `DSD._coordinate`; `DSD.from_vectors` and `DSD.from_json` read a
    caller's vectors and call `cls(...)`."""
    assert _library_sites(_calls_a_checking_constructor) == set()


def _names_a_draw(node: ast.AST) -> bool:
    """A use of `randrange`, `getrandbits` or `bisect_right`, bare or as an
    attribute."""
    name = (node.attr if isinstance(node, ast.Attribute)
            else node.id if isinstance(node, ast.Name) else None)
    return name in ("randrange", "getrandbits", "bisect_right")


def _imports_a_draw_module(node: ast.AST) -> bool:
    """An import of `random` or `bisect`, or an import from either."""
    if isinstance(node, ast.ImportFrom):
        return node.module in ("random", "bisect")
    return isinstance(node, ast.Import) and any(
        alias.name in ("random", "bisect") for alias in node.names
    )


def test_the_sampler_is_the_one_draw_site():
    """A random draw is made in one place: the sampler, which reads its
    integers in `sample_pipeline` and bisects a table in `_settle`.
    `choice_reduce` is one trial of it, and no other module imports
    `random` or `bisect`."""
    assert _library_sites(_names_a_draw) == {
        ("z2dyn", "sample_pipeline"),
        ("z2dyn", "_settle"),
    }
    assert {module for module, _ in _library_sites(_imports_a_draw_module)} == {
        "z2dyn"
    }


def _loads_a_table(node: ast.AST) -> bool:
    """A load of the attribute `_tables`, `table` or `fill`, other than
    the CLI's `--table` flag `args.table`."""
    return (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
            and node.attr in ("_tables", "table", "fill")
            and not (isinstance(node.value, ast.Name) and node.value.id == "args"))


def test_search_is_the_one_table_reader():
    """An operation table of the validity search is allocated, read and
    filled in one place, `logic._search`, whose inline loop runs the
    constant steps, the subformula steps and the join of c alike: no other
    library function loads `_tables`, `table` or `fill`, and no library
    class defines an `op`, `table` or `fill` method beside it."""
    assert _library_sites(_loads_a_table) == {("logic", "_search")}
    src = pathlib.Path(ditkit.__file__).parent
    ops = {
        (path.stem, cls.name)
        for path in src.glob("*.py")
        for cls in ast.walk(ast.parse(path.read_text()))
        if isinstance(cls, ast.ClassDef)
        for fn in cls.body
        if isinstance(fn, ast.FunctionDef) and fn.name in ("op", "table", "fill")
    }
    assert ops == set()


# --- the README quick tour ---

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def _plain(value) -> str:
    """A value as the tour's comments spell it: tuples and dicts of
    Fractions as (47/72, ...) and {a: 1/4, ...}."""
    if isinstance(value, tuple):
        return "(" + ", ".join(map(_plain, value)) + ")"
    if isinstance(value, dict):
        return "{" + ", ".join(f"{k}: {_plain(v)}" for k, v in value.items()) + "}"
    return str(value)


def test_readme_quick_tour_shows_the_values_it_computes():
    """Run the tour's python blocks in order.  Each expression statement
    with a comment on its line, or on the comment line just below it,
    must show its value there, as its repr or spelled plainly, spaces
    ignored."""
    tour = README.read_text(encoding="utf-8").split("\n## Quick tour\n")[1]
    tour = tour.split("\n## ")[0]
    namespace: dict = {}
    checked = []
    for block in re.findall(r"```python\n(.*?)```", tour, flags=re.S):
        lines = block.splitlines() + [""]
        for stmt in ast.parse(block).body:
            if not isinstance(stmt, ast.Expr):
                exec(compile(ast.Module([stmt], []), "README.md", "exec"), namespace)
                continue
            code = compile(ast.Expression(stmt.value), "README.md", "eval")
            value = eval(code, namespace)
            comment = lines[stmt.end_lineno - 1][stmt.end_col_offset:].strip()
            if not comment:
                comment = lines[stmt.end_lineno].strip()
            if not comment.startswith("#"):
                continue
            shown = "".join(comment.split())
            spellings = ("".join(r.split()) for r in (repr(value), _plain(value)))
            assert any(r in shown for r in spellings), (ast.unparse(stmt), value)
            checked.append(ast.unparse(stmt))
    assert len(checked) == 12, checked

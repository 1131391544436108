"""Layer tracing for ditkit, installed from outside the library at run time.

`Tracer.install()` wraps every public function of each layer module and
rebinds the wrapper under every name that holds the original function in
any ``ditkit`` or ``ditkit.*`` module namespace, so calls between layers
(and calls the benchmark makes through ``ditkit.<name>``) pass through it.
`Tracer.uninstall()` puts every original back and verifies that no
wrapper is left.  No file of the library is edited.

Each wrapped call records one span (name, start, end, parent) in
in-memory arrays, plus a few counters.  Methods of value classes
(`Partition`, `SqrtRational`, `GF2Map`, ...) are not wrapped, so their
time counts in the self time of the span that called them.  A generator
returned by a wrapped function (`enumerate_partitions`) is wrapped too:
each step it takes is a span of its own, so the partitions it builds are
charged to the `partitions` layer even though the caller consumes them.
"""

from __future__ import annotations

import functools
import json
import sys
import time
import types
from array import array
from collections import Counter

LAYERS = (
    "partitions",
    "entropy",
    "density",
    "logic",
    "lattice",
    "z2dyn",
    "observables",
    "linalg",
    "cli",
)

# Counts that must repeat exactly when the same ops are traced twice.
EXACT_COUNTS = (
    "density.entries_checked",
    "logic.assignments_charged",
    "lattice.covers",
    "z2dyn.draws",
    "linalg.rref.calls",
)

_MARK = "__perfbench_wrapper__"


def _bell(n: int) -> int:
    row = [1]
    for _ in range(max(n - 1, 0)):
        nxt = [row[-1]]
        for value in row:
            nxt.append(nxt[-1] + value)
        row = nxt
    return row[-1]


def _variable_count(formula) -> int:
    """Distinct variable names in a formula tree (Var nodes carry `name`,
    binary nodes `left` and `right`)."""
    seen: set[str] = set()
    todo = [formula]
    while todo:
        node = todo.pop()
        if hasattr(node, "name"):
            seen.add(node.name)
        elif hasattr(node, "left"):
            todo.extend((node.left, node.right))
    return len(seen)


class Tracer:
    """Spans and counters for one traced pass."""

    def __init__(self):
        self.span_names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("i")
        self._stack = [-1]
        self.calls: Counter[str] = Counter()
        self.errors: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self._last_error = None
        self._patched: list[tuple[types.ModuleType, str, object]] = []

    # -- recording -------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.span_names)
            self.span_names.append(name)
        return self._name_ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def _error(self, layer: str, exc: BaseException) -> None:
        # an exception passing through several wrappers counts once
        if exc is not self._last_error:
            self._last_error = exc
            self.errors[layer] += 1

    def _wrap(self, layer: str, fname: str, fn, post):
        key = f"{layer}.{fname}"
        nid = self._name_id(key)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.calls[key] += 1
            idx = tracer._open(nid)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                tracer._error(layer, exc)
                raise
            finally:
                tracer._close(idx)
            if post is not None:
                post(args, kwargs, result)
            if isinstance(result, types.GeneratorType):
                return tracer._steps(result, layer, tracer._name_id(f"{key}.next"))
            return result

        setattr(wrapper, _MARK, True)
        return wrapper

    def _steps(self, gen, layer: str, nid: int):
        counter = f"{layer}.enumerated"
        while True:
            idx = self._open(nid)
            try:
                item = next(gen)
            except StopIteration:
                return
            except Exception as exc:
                self._error(layer, exc)
                raise
            finally:
                self._close(idx)
            self.counts[counter] += 1
            yield item

    def _post_hooks(self) -> dict:
        counts = self.counts

        def matrix(args, kwargs, result):
            counts["density.matrices"] += 1
            counts["density.entries_checked"] += result.ground.n ** 2

        def conditioned(args, kwargs, result):
            matrix(args, kwargs, result[0])

        def validity(args, kwargs, result):
            k = _variable_count(args[0] if args else kwargs["f"])
            counts["logic.assignments_charged"] += sum(
                _bell(n) ** k for n in range(2, result.bound + 1)
            )

        def covers(args, kwargs, result):
            counts["lattice.covers"] += len(result)

        return {
            "density.rho": matrix,
            "density.luders_mixture": matrix,
            "density.luders_rule": conditioned,
            "logic.check_validity": validity,
            "lattice.covering_pairs": covers,
        }

    # -- installing ------------------------------------------------------

    def install(self) -> None:
        import ditkit.cli  # noqa: F401  (the package does not import it)

        hooks = self._post_hooks()
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules[f"ditkit.{layer}"]
            for attr, obj in vars(module).items():
                if (
                    not attr.startswith("_")
                    and isinstance(obj, types.FunctionType)
                    and obj.__module__ == module.__name__
                ):
                    post = hooks.get(f"{layer}.{attr}")
                    wrappers[obj] = self._wrap(layer, attr, obj, post)
        for module in _ditkit_modules():
            for attr, obj in list(vars(module).items()):
                if isinstance(obj, types.FunctionType) and obj in wrappers:
                    self._patched.append((module, attr, obj))
                    setattr(module, attr, wrappers[obj])

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()
        left = [
            f"{module.__name__}.{attr}"
            for module in _ditkit_modules()
            for attr, obj in vars(module).items()
            if getattr(obj, _MARK, False)
        ]
        if left:
            raise RuntimeError(f"wrappers left installed: {left}")

    # -- results ---------------------------------------------------------

    def layer_metrics(self, ops: int, wall_s: float, overhead: float) -> dict:
        """Per-layer metrics of the traced pass: `ops` ops took `wall_s`
        seconds traced; `overhead` is traced over untraced wall time."""
        n = len(self.start)
        names = self.span_names
        layer_of = [name.split(".", 1)[0] for name in names]
        child = [0.0] * n
        durations = [self.end[i] - self.start[i] for i in range(n)]
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += durations[i]
        self_s = dict.fromkeys(LAYERS, 0.0)
        validity_s = 0.0  # inclusive time inside check_validity
        draws = 0
        validity_nid = self._name_ids.get("logic.check_validity", -1)
        sample_nid = self._name_ids.get("z2dyn.sample_pipeline", -1)
        choice_nid = self._name_ids.get("partitions.choice_reduce", -2)
        for i in range(n):
            nid = self.name[i]
            self_s[layer_of[nid]] += durations[i] - child[i]
            if nid == validity_nid:
                validity_s += durations[i]
            p = self.parent[i]
            if nid == choice_nid and p >= 0 and self.name[p] == sample_nid:
                draws += 1

        metrics = {}
        for layer in LAYERS:
            calls = sum(c for k, c in self.calls.items() if k.split(".")[0] == layer)
            metrics[f"{layer}.calls"] = (calls, "count")
            metrics[f"{layer}.self_s"] = (self_s[layer], "s")
            metrics[f"{layer}.share"] = (self_s[layer] / wall_s, "ratio")
            metrics[f"{layer}.errors"] = (self.errors[layer], "count")
        charged = self.counts["logic.assignments_charged"]
        metrics.update(
            {
                "partitions.enumerated": (self.counts["partitions.enumerated"], "count"),
                "partitions.join.calls": (self.calls["partitions.join"], "count"),
                "density.matrices": (self.counts["density.matrices"], "count"),
                "density.entries_checked": (self.counts["density.entries_checked"], "count"),
                "density.rho_per_op": (self.calls["density.rho"] / ops, "count/op"),
                "logic.assignments_charged": (charged, "count"),
                "logic.assignments_per_s": (charged / validity_s if validity_s else 0.0, "1/s"),
                "lattice.covers": (self.counts["lattice.covers"], "count"),
                "z2dyn.draws": (draws, "count"),
                "linalg.rref.calls": (self.calls["linalg.rref"], "count"),
                "observables.pairs": (self.calls["observables.simultaneous_eigenspace"], "count"),
                "trace.overhead": (overhead, "ratio"),
            }
        )
        return metrics

    def exact_counts(self) -> dict:
        metrics = self.layer_metrics(1, 1.0, 1.0)
        return {key: metrics[key][0] for key in EXACT_COUNTS}

    def write(self, path) -> None:
        """Spans as a JSON header line followed by the four columns as
        raw native arrays (start, end: float64; name, parent: int32)."""
        header = {
            "names": self.span_names,
            "count": len(self.start),
            "columns": [["start", "d"], ["end", "d"], ["name", "i"], ["parent", "i"]],
            "byteorder": sys.byteorder,
        }
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for column in (self.start, self.end, self.name, self.parent):
                column.tofile(fh)


def _ditkit_modules() -> list[types.ModuleType]:
    return [
        module
        for name, module in list(sys.modules.items())
        if module is not None and (name == "ditkit" or name.startswith("ditkit."))
    ]

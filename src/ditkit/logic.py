"""Partition-logic formulas: parsing, evaluation on partition lattices,
and bounded validity search.

A formula is valid when every assignment of partitions (on any ground
set with at least two elements) evaluates to the discrete partition.
Only a bounded check is possible: `check_validity` sweeps all ground
sizes up to a limit and reports the least counterexample, if any, in a
deterministic order.
"""

from __future__ import annotations

import re
import string
from array import array
from dataclasses import dataclass
from typing import Optional, Union

from .errors import BudgetExceeded, FormulaSyntaxError, GroundMismatch, UnboundVariable
from .partitions import (
    GroundSet,
    Partition,
    bell_number,
    discrete_partition,
    enumerate_partitions,
    implication,
    indiscrete_partition,
    join,
    meet,
    notation,
    _from_rgs,
    _implies_rgs,
    _iter_rgs,
    _join_rgs,
    _meet_rgs,
)


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Top:
    pass


@dataclass(frozen=True)
class Bottom:
    pass


@dataclass(frozen=True)
class Join:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Meet:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Implies:
    left: "Formula"
    right: "Formula"


Formula = Union[Var, Top, Bottom, Join, Meet, Implies]

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<ident>[a-zA-Z][a-zA-Z0-9_]*)"
    r"|(?P<top>1)"
    r"|(?P<bottom>0)"
    r"|(?P<join>\\/|∨)"
    r"|(?P<meet>/\\|∧)"
    r"|(?P<implies>=>|⇒)"
    r"|(?P<lparen>\()"
    r"|(?P<rparen>\)))"
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            at = len(text) - len(stripped)
            raise FormulaSyntaxError(f"unexpected character {text[at]!r}", at)
        kind = m.lastgroup
        tokens.append((kind, m.group(kind), m.start(kind)))
        pos = m.end()
    tokens.append(("eof", "", len(text)))
    return tokens


class _Parser:
    """Recursive descent; precedence meet > join > implies, implies
    right-associative."""

    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.at = 0

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.at]

    def take(self) -> tuple[str, str, int]:
        tok = self.tokens[self.at]
        self.at += 1
        return tok

    def parse(self) -> Formula:
        f = self.implies_expr()
        kind, text, pos = self.peek()
        if kind != "eof":
            raise FormulaSyntaxError(f"unexpected {text!r}", pos)
        return f

    def implies_expr(self) -> Formula:
        left = self.join_expr()
        if self.peek()[0] == "implies":
            self.take()
            return Implies(left, self.implies_expr())
        return left

    def join_expr(self) -> Formula:
        f = self.meet_expr()
        while self.peek()[0] == "join":
            self.take()
            f = Join(f, self.meet_expr())
        return f

    def meet_expr(self) -> Formula:
        f = self.atom()
        while self.peek()[0] == "meet":
            self.take()
            f = Meet(f, self.atom())
        return f

    def atom(self) -> Formula:
        kind, text, pos = self.take()
        if kind == "ident":
            return Var(text)
        if kind == "top":
            return Top()
        if kind == "bottom":
            return Bottom()
        if kind == "lparen":
            f = self.implies_expr()
            kind, text, pos = self.take()
            if kind != "rparen":
                raise FormulaSyntaxError("expected ')'", pos)
            return f
        raise FormulaSyntaxError(
            "unexpected end of formula" if kind == "eof"
            else f"unexpected {text!r}", pos
        )


def parse(text: str) -> Formula:
    return _Parser(text).parse()


# precedence levels for printing: atoms bind tightest
_LEVEL = {Implies: 0, Join: 1, Meet: 2}


def pretty_print(f: Formula) -> str:
    def render(node: Formula, level: int) -> str:
        if isinstance(node, Var):
            return node.name
        if isinstance(node, Top):
            return "1"
        if isinstance(node, Bottom):
            return "0"
        own = _LEVEL[type(node)]
        if isinstance(node, Implies):
            text = f"{render(node.left, own + 1)} => {render(node.right, own)}"
        elif isinstance(node, Join):
            text = f"{render(node.left, own)} \\/ {render(node.right, own + 1)}"
        else:
            text = f"{render(node.left, own)} /\\ {render(node.right, own + 1)}"
        if own < level:
            return f"({text})"
        return text

    return render(f, 0)


def variables(f: Formula) -> tuple[str, ...]:
    """Variable names in sorted order."""
    seen: set[str] = set()

    def walk(node: Formula):
        if isinstance(node, Var):
            seen.add(node.name)
        elif isinstance(node, (Join, Meet, Implies)):
            walk(node.left)
            walk(node.right)

    walk(f)
    return tuple(sorted(seen))


def evaluate(
    f: Formula, assignment: dict[str, Partition], ground: GroundSet
) -> Partition:
    """Bottom-up evaluation with the partition lattice operations."""
    for name, pi in assignment.items():
        if pi.ground != ground:
            raise GroundMismatch(
                f"assignment for {name!r} lives on a different ground set"
            )

    def walk(node: Formula) -> Partition:
        if isinstance(node, Var):
            if node.name not in assignment:
                raise UnboundVariable(f"no partition assigned to {node.name!r}")
            return assignment[node.name]
        if isinstance(node, Top):
            return discrete_partition(ground)
        if isinstance(node, Bottom):
            return indiscrete_partition(ground)
        if isinstance(node, Join):
            return join(walk(node.left), walk(node.right))
        if isinstance(node, Meet):
            return meet(walk(node.left), walk(node.right))
        return implication(walk(node.left), walk(node.right))

    return walk(f)


def boolean_tautology(f: Formula) -> bool:
    """Evaluate over the two-element Boolean algebra instead; partition
    validity implies this, so a failure here is a cheap classical
    counterexample certificate."""
    names = variables(f)

    def walk(node: Formula, env: dict[str, bool]) -> bool:
        if isinstance(node, Var):
            return env[node.name]
        if isinstance(node, Top):
            return True
        if isinstance(node, Bottom):
            return False
        if isinstance(node, Join):
            return walk(node.left, env) or walk(node.right, env)
        if isinstance(node, Meet):
            return walk(node.left, env) and walk(node.right, env)
        return (not walk(node.left, env)) or walk(node.right, env)

    for mask in range(1 << len(names)):
        env = {name: bool(mask >> i & 1) for i, name in enumerate(names)}
        if not walk(f, env):
            return False
    return True


@dataclass(frozen=True)
class Counterexample:
    n: int
    assignment: dict[str, Partition]
    value: Partition


@dataclass(frozen=True)
class ValidityReport:
    """Outcome of the bounded search: either no counterexample up to the
    bound, or the least witness in (n, assignment) order."""

    status: str  # "valid-up-to-bound" | "counterexample"
    bound: int
    witness: Optional[Counterexample] = None

    @property
    def is_valid_up_to_bound(self) -> bool:
        return self.status == "valid-up-to-bound"

    def to_json(self) -> dict:
        data: dict = {"status": self.status, "bound": self.bound}
        if self.witness is not None:
            data["witness"] = {
                "n": self.witness.n,
                "assignment": {
                    name: notation(pi)
                    for name, pi in sorted(self.witness.assignment.items())
                },
                "value": notation(self.witness.value),
            }
        return data


DEFAULT_BUDGET = 1_000_000

# Ground sizes whose lattice and tables are kept between calls.  At n = 7,
# B = 877 and each operation table holds B**2 int16 entries, about 1.5 MB.
TABLE_MAX_N = 7

_KERNELS = {Join: _join_rgs, Meet: _meet_rgs, Implies: _implies_rgs}


def _ground_for(n: int) -> GroundSet:
    return GroundSet(tuple(string.ascii_lowercase[:n]))


class _Ranked:
    """The partitions of an n-set named by their rank in RGS order: bottom
    is 0, top is B - 1.  Each operation is a flat B x B table of result
    ranks, filled on first use from the RGS kernels (-1 marks a gap)."""

    def __init__(self, n: int):
        self.parts = list(enumerate_partitions(_ground_for(n), max_n=n))
        self.size = len(self.parts)
        self.bottom, self.top = 0, self.size - 1
        self._rgs = [pi._block_of for pi in self.parts]
        self._rank = {code: r for r, code in enumerate(self._rgs)}
        self._tables: dict = {}

    def elements(self) -> range:
        return range(self.size)

    def partition(self, x: int) -> Partition:
        return self.parts[x]

    def op(self, kernel):
        """`kernel` on ranks, through its table."""
        if kernel not in self._tables:
            self._tables[kernel] = array("h", [-1]) * (self.size * self.size)
        table, size, rgs, rank = self._tables[kernel], self.size, self._rgs, self._rank

        def lookup(a: int, b: int) -> int:
            at = a * size + b
            r = table[at]
            if r < 0:
                r = table[at] = rank[kernel(rgs[a], rgs[b])]
            return r

        return lookup


class _Unranked:
    """The partitions of an n-set as bare RGS tuples, for n too large to
    tabulate: elements are re-enumerated on every pass and operations run
    the kernels directly, so nothing of size B**2 is built or kept."""

    def __init__(self, n: int):
        self.n = n
        self.ground = _ground_for(n)
        self.bottom, self.top = (0,) * n, tuple(range(n))

    def elements(self):
        return _iter_rgs(self.n)

    def partition(self, rgs: tuple[int, ...]) -> Partition:
        return _from_rgs(self.ground, rgs)

    def op(self, kernel):
        return kernel


_RANKED: dict[int, _Ranked] = {}


def _lattice(n: int):
    if n > TABLE_MAX_N:
        return _Unranked(n)
    if n not in _RANKED:
        _RANKED[n] = _Ranked(n)
    return _RANKED[n]


def _compile(f: Formula, names: tuple[str, ...]):
    """Slot program for `f`.  Slot i < k holds variable names[i]; every
    other distinct subformula gets one slot.  Returns the constants as
    (slot, is_top), the binary steps as (slot, kernel, left, right) grouped
    by level, the root slot and the slot count.  Level 0 holds the steps
    that use no variable; level d + 1 those whose last variable is
    names[d], which therefore run once per value of names[d]."""
    slots: dict = {Var(name): i for i, name in enumerate(names)}
    level_of: dict = {Var(name): i + 1 for i, name in enumerate(names)}
    consts: list[tuple[int, bool]] = []
    levels: list[list] = [[] for _ in range(len(names) + 1)]

    def visit(node: Formula) -> int:
        if node in slots:
            return slots[node]
        if isinstance(node, (Top, Bottom)):
            slot = len(slots)
            consts.append((slot, isinstance(node, Top)))
            level_of[node] = 0
        else:
            left, right = visit(node.left), visit(node.right)
            slot = len(slots)
            level = max(level_of[node.left], level_of[node.right])
            levels[level].append((slot, _KERNELS[type(node)], left, right))
            level_of[node] = level
        slots[node] = slot
        return slot

    root = visit(f)
    return consts, levels, root, len(slots)


def _search(program, lattice):
    """Run the slot program over every assignment in nested order, first
    variable outermost, and return the variables' values and the root
    value at the first assignment whose root is below the top, or None."""
    consts, levels, root, width = program
    depth = len(levels) - 1
    values: list = [None] * width
    for slot, is_top in consts:
        values[slot] = lattice.top if is_top else lattice.bottom
    steps = [
        [(slot, lattice.op(kernel), left, right) for slot, kernel, left, right in level]
        for level in levels
    ]
    top = lattice.top

    def nested(d: int) -> bool:
        level, innermost = steps[d + 1], d + 1 == depth
        for x in lattice.elements():
            values[d] = x
            for slot, op, left, right in level:
                values[slot] = op(values[left], values[right])
            if innermost:
                if values[root] != top:
                    return True
            elif nested(d + 1):
                return True
        return False

    for slot, op, left, right in steps[0]:
        values[slot] = op(values[left], values[right])
    found = nested(0) if depth else values[root] != top
    return (values[:depth], values[root]) if found else None


def check_validity(
    f: Formula, max_n: int, budget: int = DEFAULT_BUDGET
) -> ValidityReport:
    """Search all assignments over ground sizes 2..max_n for an
    evaluation below the top.  Deterministic: smallest n first, then
    enumeration order per variable.  A pass is only a bounded claim.

    The search runs on RGS ranks through operation tables filled on demand
    and kept between calls for n <= TABLE_MAX_N; larger n run the RGS
    kernels directly.  Each subformula is evaluated once per value of the
    last variable it uses."""
    if max_n < 2:
        raise ValueError("max_n must be at least 2")
    names = variables(f)
    program = _compile(f, names)
    spent = 0
    for n in range(2, max_n + 1):
        cost = bell_number(n) ** len(names)
        if spent + cost > budget:
            raise BudgetExceeded(
                f"assignment budget {budget} exhausted before n={n}",
                bound_reached=n - 1,
            )
        spent += cost
        lattice = _lattice(n)
        hit = _search(program, lattice)
        if hit is not None:
            assignment, value = hit
            witness = Counterexample(
                n,
                {name: lattice.partition(x) for name, x in zip(names, assignment)},
                lattice.partition(value),
            )
            return ValidityReport("counterexample", n, witness)
    return ValidityReport("valid-up-to-bound", max_n)

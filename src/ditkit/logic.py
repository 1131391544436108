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
from collections.abc import Mapping
from dataclasses import dataclass
from typing import Optional, Union

from .errors import (
    BudgetExceeded,
    FormulaSyntaxError,
    GroundMismatch,
    InvalidValue,
    UnboundVariable,
)
from .partitions import (
    GroundSet,
    Partition,
    bell_number,
    notation,
    _from_rgs,
    _implies_rgs,
    _iter_rgs,
    _join_rgs,
    _meet_rgs,
)


# a variable name, as the tokenizer reads it
_IDENT = re.compile(r"[a-zA-Z][a-zA-Z0-9_]*")


@dataclass(frozen=True)
class Var:
    """A variable.  Its name is an identifier, so a printed formula parses
    back."""

    name: str

    def __post_init__(self):
        if not (isinstance(self.name, str) and _IDENT.fullmatch(self.name)):
            raise InvalidValue(f"variable name {self.name!r} is not an identifier")


@dataclass(frozen=True)
class Top:
    pass


@dataclass(frozen=True)
class Bottom:
    pass


@dataclass(frozen=True)
class _Binary:
    """A `\\/`, `/\\` or `=>` node.  Its operands are formula nodes, so a
    node built through the constructors is a whole formula."""

    left: "Formula"
    right: "Formula"

    def __post_init__(self):
        _require_formula(self.left)
        _require_formula(self.right)


@dataclass(frozen=True)
class Join(_Binary):
    pass


@dataclass(frozen=True)
class Meet(_Binary):
    pass


@dataclass(frozen=True)
class Implies(_Binary):
    pass


Formula = Union[Var, Top, Bottom, Join, Meet, Implies]

_KERNELS = {Join: _join_rgs, Meet: _meet_rgs, Implies: _implies_rgs}


def _require_formula(f) -> None:
    """Refuse anything but a formula node.  The nodes check their own
    operands, so each entry point checks only its root."""
    if not isinstance(f, Formula):
        raise InvalidValue(f"expected a formula node (see parse), got {f!r}")


_TOKEN_RE = re.compile(
    rf"\s*(?:(?P<ident>{_IDENT.pattern})"
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
    if not isinstance(text, str):
        raise InvalidValue(f"formula text must be a str, got {text!r}")
    return _Parser(text).parse()


# precedence levels for printing: atoms bind tightest
_LEVEL = {Implies: 0, Join: 1, Meet: 2}


def pretty_print(f: Formula) -> str:
    _require_formula(f)

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
    _require_formula(f)
    seen: set[str] = set()

    def walk(node: Formula):
        if isinstance(node, Var):
            seen.add(node.name)
        elif isinstance(node, _Binary):
            walk(node.left)
            walk(node.right)

    walk(f)
    return tuple(sorted(seen))


def evaluate(
    f: Formula, assignment: Mapping[str, Partition], ground: GroundSet
) -> Partition:
    """The value of `f` when each variable takes the `Partition` on
    `ground` that `assignment` maps it to.  A bottom-up walk on the RGS
    kernels that `join`, `meet` and `implication` run; one partition is
    built, at the root."""
    _require_formula(f)
    if not isinstance(ground, GroundSet):
        raise InvalidValue(f"ground must be a GroundSet, got {ground!r}")
    if not isinstance(assignment, Mapping):
        raise InvalidValue(f"assignment must be a mapping, got {assignment!r}")
    for name, pi in assignment.items():
        if not isinstance(pi, Partition):
            raise InvalidValue(f"assignment for {name!r} is not a Partition: {pi!r}")
        if pi.ground != ground:
            raise GroundMismatch(
                f"assignment for {name!r} lives on a different ground set"
            )
    n = ground.n

    def walk(node: Formula) -> tuple[int, ...]:
        if isinstance(node, Var):
            if node.name not in assignment:
                raise UnboundVariable(f"no partition assigned to {node.name!r}")
            return assignment[node.name].rgs
        if isinstance(node, Top):
            return tuple(range(n))
        if isinstance(node, Bottom):
            return (0,) * n
        return _KERNELS[type(node)](walk(node.left), walk(node.right))

    return _from_rgs(ground, walk(f))


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


def _ground_for(n: int) -> GroundSet:
    return GroundSet(tuple(string.ascii_lowercase[:n]))


class _Ranked:
    """The partitions of an n-set named by their rank in RGS order: bottom
    is 0, top is B - 1.  Each operation is a flat B x B table of result
    ranks, filled on first use from the RGS kernels (-1 marks a gap), and
    the orbit minima of each partition are kept once found."""

    def __init__(self, n: int):
        self.n, self.ground = n, _ground_for(n)
        self._rgs = list(_iter_rgs(n))
        self.size = len(self._rgs)
        self.bottom, self.top = 0, self.size - 1
        self._rank = {code: r for r, code in enumerate(self._rgs)}
        self.element = self._rank.__getitem__  # the rank of an RGS
        self._tables: dict = {}
        self._minima: dict[int, array] = {}

    def partition(self, x: int) -> Partition:
        return _from_rgs(self.ground, self._rgs[x])

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

    def minima(self, c: int) -> array:
        """The ranks of `_minima` of partition c, kept per c."""
        if c not in self._minima:
            self._minima[c] = array("h", map(self.element, _minima(self._rgs[c])))
        return self._minima[c]


class _Unranked:
    """The partitions of an n-set as bare RGS tuples, for n too large to
    tabulate: elements and orbit minima are re-enumerated on every pass and
    operations run the kernels directly, so nothing of size B**2 is built
    and nothing is kept between passes."""

    def __init__(self, n: int):
        self.n = n
        self.ground = _ground_for(n)
        self.bottom, self.top = (0,) * n, tuple(range(n))

    def partition(self, rgs: tuple[int, ...]) -> Partition:
        return _from_rgs(self.ground, rgs)

    def op(self, kernel):
        return kernel

    def minima(self, c: tuple[int, ...]):
        return _minima(c)


_RANKED: dict[int, _Ranked] = {}


def _lattice(n: int):
    if n > TABLE_MAX_N:
        return _Unranked(n)
    if n not in _RANKED:
        _RANKED[n] = _Ranked(n)
    return _RANKED[n]


def _compile(f: Formula):
    """The variables of `f`, their polarities and the slot program, from
    one walk.  Slot i < k holds variable names[i]; every other distinct
    subformula gets one slot, keyed by is_top for a constant and by
    (kernel, left slot, right slot) for a binary node, so equal subformulas
    share a slot and no formula is hashed.  A polarity is 1 if every
    occurrence of the variable is positive, -1 if every one is negative, 0
    if both; the sign flips on the left of `=>`, the one argument in which
    an operation is antitone.  The program is the constants as (slot,
    is_top), the binary steps as (slot, kernel, left, right) grouped by
    level, the root slot and the slot count.  Level 0 holds the steps that
    use no variable; level d + 1 those whose last variable is names[d],
    which therefore run once per value of names[d]."""
    names = variables(f)
    slots: dict = {name: i for i, name in enumerate(names)}
    level_of = list(range(1, len(names) + 1))
    signs: list[set[int]] = [set() for _ in names]
    consts: list[tuple[int, bool]] = []
    levels: list[list] = [[] for _ in range(len(names) + 1)]

    def visit(node: Formula, sign: int) -> int:
        # every occurrence is visited, for its sign; a repeat finds its slot
        if isinstance(node, Var):
            slot = slots[node.name]
            signs[slot].add(sign)
            return slot
        if isinstance(node, (Top, Bottom)):
            key, level = isinstance(node, Top), 0
        else:
            kernel = _KERNELS[type(node)]
            left = visit(node.left, -sign if isinstance(node, Implies) else sign)
            right = visit(node.right, sign)
            key, level = (kernel, left, right), max(level_of[left], level_of[right])
        if key not in slots:
            slot = slots[key] = len(level_of)
            level_of.append(level)
            if isinstance(key, tuple):
                levels[level].append((slot, *key))
            else:
                consts.append((slot, key))
        return slots[key]

    root = visit(f, 1)
    return names, tuple(map(sum, signs)), (consts, levels, root, len(level_of))


def _minima(c: tuple[int, ...]):
    """The least RGS of each orbit of the permutations that keep every
    block of partition c, in RGS order.  A permutation that keeps every
    block C_a of c maps a partition's blocks X_j to blocks with the same
    counts |X_j & C_a| in each C_a, and any two partitions with the same
    multiset of count vectors are so mapped, so that multiset is the
    orbit's key.  The least member of an orbit labels the elements of each
    C_a in non-decreasing order, since swapping two that are not gives a
    smaller RGS.  Only those RGS are scanned, and the first of each key is
    yielded.  At c = bottom the keys are the shapes (multisets of block
    sizes), found among the 2**(n-1) non-decreasing RGS."""
    n = len(c)
    weights = [(n + 1) ** a for a in c]  # a count vector as one integer
    before, last = [], {}  # the previous element in the same block of c
    for i, a in enumerate(c):
        before.append(last.get(a))
        last[a] = i
    labels, codes, seen = [0] * n, [0] * n, set()

    def grow(i: int, used: int):
        if i == n:
            key = tuple(sorted(codes[:used]))
            if key not in seen:
                seen.add(key)
                yield tuple(labels)
            return
        low = 0 if before[i] is None else labels[before[i]]
        for b in range(low, used + 1):
            labels[i] = b
            codes[b] += weights[i]
            yield from grow(i + 1, max(used, b + 1))
            codes[b] -= weights[i]

    return grow(0, 0)


def _search(program, polarity, lattice):
    """Run the slot program over the assignments in nested order, first
    variable outermost, and return the variables' values and the root
    value at the first assignment whose root is below the top, or None.

    Two kinds of assignment are skipped, neither of which can hold the
    first hit.  Orbits: let c be the join of the values already chosen,
    bottom for the first variable.  A permutation of the ground set that
    keeps every block of c fixes those values and the constants and
    commutes with every operation, so it maps a hit to a hit with the
    same earlier values.  The first hit therefore takes, at every depth,
    the least value of its orbit, and only `lattice.minima(c)` are tried.
    Polarity: the root is monotone in a variable of polarity 1, so if its
    least value, the bottom, leaves the rest clean, every value does.  It
    is antitone in one of polarity -1, so if the top leaves the rest
    clean, every value does; only if it does not are the minima tried."""
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
    # c is only needed below the first variable, so one variable builds no
    # join table
    join = lattice.op(_join_rgs) if depth > 1 else None

    def nested(d: int, c, xs) -> bool:
        level, innermost = steps[d + 1], d + 1 == depth
        for x in xs:
            values[d] = x
            for slot, op, left, right in level:
                values[slot] = op(values[left], values[right])
            if innermost:
                if values[root] != top:
                    return True
            elif search(d + 1, join(c, x)):
                return True
        return False

    def search(d: int, c) -> bool:
        if polarity[d] > 0:
            return nested(d, c, (lattice.bottom,))
        if polarity[d] < 0 and not nested(d, c, (top,)):
            return False
        return nested(d, c, lattice.minima(c))

    for slot, op, left, right in steps[0]:
        values[slot] = op(values[left], values[right])
    found = search(0, lattice.bottom) if depth else values[root] != top
    return (values[:depth], values[root]) if found else None


def check_validity(
    f: Formula, max_n: int, budget: int = DEFAULT_BUDGET
) -> ValidityReport:
    """Search all assignments over ground sizes 2..max_n for an
    evaluation below the top.  Deterministic: smallest n first, then
    enumeration order per variable.  A pass is only a bounded claim.

    One walk of `f` (`_compile`) finds its variables, their polarities
    and a slot program.  The search runs on RGS ranks through operation
    tables filled on demand and kept between calls for n <= TABLE_MAX_N;
    larger n run the RGS kernels directly.  Each subformula is evaluated
    once per value of the last variable it uses.  Two rules skip
    assignments that cannot hold the first counterexample.  Orbits: each
    variable takes only the least value of each orbit of the
    permutations that keep every block of the join of the earlier
    variables' values (for the first variable, the first value of each
    block-size shape).  Polarity: a variable of one polarity is settled by
    the bottom (positive) or first probed at the top (negative).  The
    witness is still the least one, and the budget still charges
    Bell(n) ** k assignments per n for k variables."""
    for name, value in (("max_n", max_n), ("budget", budget)):
        if not isinstance(value, int) or isinstance(value, bool):
            raise InvalidValue(f"{name} must be an integer, got {value!r}")
    if max_n < 2:
        raise InvalidValue("max_n must be at least 2")
    names, polarity, program = _compile(f)
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
        hit = _search(program, polarity, lattice)
        if hit is not None:
            assignment, value = hit
            witness = Counterexample(
                n,
                {name: lattice.partition(x) for name, x in zip(names, assignment)},
                lattice.partition(value),
            )
            return ValidityReport("counterexample", n, witness)
    return ValidityReport("valid-up-to-bound", max_n)


def boolean_tautology(f: Formula) -> bool:
    """Whether `f` holds in the two-element Boolean algebra, which is the
    partition lattice of a two-element ground set; partition validity
    implies this, so a failure here is a cheap classical counterexample
    certificate."""
    return check_validity(f, 2, budget=2 ** len(variables(f))).is_valid_up_to_bound

"""Partition-logic formulas: parsing, evaluation on partition lattices,
and bounded validity search.

A formula is valid when every assignment of partitions (on any ground
set with at least two elements) evaluates to the discrete partition.
In general only a bounded check is possible: `check_validity` sweeps all
ground sizes up to a limit and reports the least counterexample, if any,
in a deterministic order.

A formula in which at most one variable is *mixed* is decided at every
n by n <= 3, so the sweep stops there.  The value is monotone in a
*positive* variable, every occurrence of which is under an even number
of `=>` left sides, and antitone in a *negative* one, every occurrence
under an odd number; a mixed variable has occurrences of both kinds.
Setting the positive variables to 0 and the negative ones to 1 gives the
least value over their choices, so the formula is valid at n exactly
when the one so reduced is, and that one has at most one variable p.
The set {0, 1, p} is closed under join, meet and implication, and for p
neither 0 nor 1 each operation gives the same member whatever p is (for
example p => 0 = 0, 0 => p = 1, 1 => p = p; D. Ellerman, "The logic of
partitions", Rev. Symb. Logic 3, 2010).  So the verdict at every n is
that of p = 0 and p = 1, found at n = 2, and of one other p, first met
at n = 3.

`parse` reads text in one loop, so parentheses nest to any depth; the
other walks recurse, so a node more than `MAX_DEPTH` deep is refused.
"""

from __future__ import annotations

import re
from array import array
from collections.abc import Mapping
from dataclasses import dataclass, field
from typing import Optional, Union, get_args

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
    notation,
    _bell,
    _from_rgs,
    _ground_for,
    _implies_rgs,
    _is_int,
    _iter_rgs,
    _join_rgs,
    _meet_rgs,
    _require,
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


# the most operators on a path from a formula's root to a leaf: a deeper node
# is refused where it is built, so no walk reaches the interpreter's limit
MAX_DEPTH = 200


@dataclass(frozen=True)
class _Binary:
    """A `\\/`, `/\\` or `=>` node.  Its operands are formula nodes, so a
    node built through the constructors is a whole formula.  Its depth is
    kept outside equality, hashing and the repr."""

    left: "Formula"
    right: "Formula"

    def __post_init__(self):
        _require_formula(self.left)
        _require_formula(self.right)
        depth = 1 + max(getattr(f, "_depth", 0) for f in (self.left, self.right))
        if depth > MAX_DEPTH:
            raise InvalidValue(f"formula nested deeper than {MAX_DEPTH} operators")
        object.__setattr__(self, "_depth", depth)


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
_NODES = get_args(Formula)

_KERNELS = {Join: _join_rgs, Meet: _meet_rgs, Implies: _implies_rgs}


def _require_formula(f) -> None:
    """Refuse a value whose exact class is not one of `Formula`'s.  Nodes
    check their own operands, so each entry point checks only its root."""
    if type(f) not in _NODES:
        raise InvalidValue(f"expected a formula node (see parse), got {f!r}")


_TOKEN_RE = re.compile(
    rf"\s*(?:(?P<ident>{_IDENT.pattern})"
    r"|(?P<top>1)"
    r"|(?P<bottom>0)"
    r"|(?P<join>\\/|∨)"
    r"|(?P<meet>/\\|∧)"
    r"|(?P<implies>=>|⇒)"
    r"|(?P<lparen>\()"
    r"|(?P<rparen>\))"
    r"|(?P<bad>\S))"
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        at = m.start(kind)
        if kind == "bad":
            raise FormulaSyntaxError(f"unexpected character {text[at]!r}", at)
        tokens.append((kind, m.group(kind), at))
    tokens.append(("eof", "", len(text)))
    return tokens


_BINARY = {"implies": (0, Implies), "join": (1, Join), "meet": (2, Meet)}


def parse(text: str) -> Formula:
    """One loop over the tokens, with a stack of operands and one of
    pending operators, (level, node class) or None for an open `(`.  Meet
    binds tighter than join, join than `=>`; `=>` groups to the right."""
    _require(str, "formula text must be a str", text)
    operands, pending, opened, want_operand = [], [], 0, True

    def apply(level: int) -> None:
        # the pending operators of at least `level`, back to the last `(`
        while pending and pending[-1] is not None and pending[-1][0] >= level:
            right = operands.pop()
            operands[-1] = pending.pop()[1](operands[-1], right)

    for kind, token, pos in _tokenize(text):
        if want_operand:
            if kind == "lparen":
                pending.append(None)
                opened += 1
                continue
            if kind not in ("ident", "top", "bottom"):
                raise FormulaSyntaxError(
                    "unexpected end of formula" if kind == "eof"
                    else f"unexpected {token!r}", pos
                )
            operands.append(
                Var(token) if kind == "ident" else Top() if kind == "top" else Bottom()
            )
            want_operand = False
        elif kind in _BINARY:
            level, node = _BINARY[kind]
            apply(level + 1 if node is Implies else level)
            pending.append((level, node))
            want_operand = True
        elif kind == "rparen" and opened:
            apply(0)
            pending.pop()
            opened -= 1
        elif kind == "eof" and not opened:
            apply(0)
            return operands[0]
        else:
            raise FormulaSyntaxError(
                "expected ')'" if opened else f"unexpected {token!r}", pos
            )


# precedence levels and symbols for printing: atoms bind tightest
_LEVEL = {node: level for level, node in _BINARY.values()}
_SYMBOL = {Implies: "=>", Join: "\\/", Meet: "/\\", Top: "1", Bottom: "0"}


def pretty_print(f: Formula) -> str:
    _require_formula(f)

    def render(node: Formula, level: int) -> str:
        if isinstance(node, Var):
            return node.name
        if type(node) not in _LEVEL:  # a constant
            return _SYMBOL[type(node)]
        own = _LEVEL[type(node)]
        right = isinstance(node, Implies)  # `=>` groups to the right
        left = render(node.left, own + right)
        text = f"{left} {_SYMBOL[type(node)]} {render(node.right, own + 1 - right)}"
        if own < level:
            return f"({text})"
        return text

    return render(f, 0)


def variables(f: Formula) -> tuple[str, ...]:
    """Variable names in sorted order."""
    return _compile(f)[0]


def evaluate(
    f: Formula, assignment: Mapping[str, Partition], ground: GroundSet
) -> Partition:
    """The value of `f` when each variable takes the `Partition` on
    `ground` that `assignment` maps it to.  A bottom-up walk on the RGS
    kernels that `join`, `meet` and `implication` run; one partition is
    built, at the root."""
    _require_formula(f)
    _require(GroundSet, "ground must be a GroundSet", ground)
    _require(Mapping, "assignment must be a mapping", assignment)
    for name, pi in assignment.items():
        _require(Partition, "assignment values must be Partitions", pi)
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


def _require_ground_size(n) -> None:
    """Raise InvalidValue unless `n` is an int ground size of at least 2,
    the least size the search visits."""
    if not _is_int(n) or n < 2:
        raise InvalidValue(f"ground size must be an int of at least 2, got {n!r}")


@dataclass(frozen=True)
class Counterexample:
    """An assignment of partitions of an n-element ground set to the
    variables, and the value the formula takes there.  Construction copies
    the assignment and checks that n is an int of at least 2 and that
    every partition is on an n-element ground set."""

    n: int
    assignment: dict[str, Partition] = field(hash=False)
    value: Partition

    def __post_init__(self):
        _require_ground_size(self.n)
        _require(Mapping, "assignment must be a mapping", self.assignment)
        object.__setattr__(self, "assignment", dict(self.assignment))
        for name, pi in self.assignment.items():
            _require(str, "variable names must be strings", name)
            _require(Partition, "assignment values must be Partitions", pi)
        _require(Partition, "value must be a Partition", self.value)
        for pi in (*self.assignment.values(), self.value):
            if pi.ground.n != self.n:
                raise InvalidValue(
                    f"partition {notation(pi)!r} is not on {self.n} elements"
                )

    @classmethod
    def _trusted(
        cls, n: int, assignment: dict[str, Partition], value: Partition
    ) -> "Counterexample":
        """The trusted constructor: n must be an int of at least 2,
        `assignment` a dict of its own from names to partitions on n
        elements, and `value` a partition on n elements; none of it is
        checked or copied."""
        witness = object.__new__(cls)
        witness.__dict__.update(n=n, assignment=assignment, value=value)
        return witness


_STATUSES = ("valid-up-to-bound", "counterexample")


@dataclass(frozen=True)
class ValidityReport:
    """Outcome of the bounded search: either no counterexample up to the
    bound, or the least witness in (n, assignment) order.  Construction
    checks that the status is one of the two, that the bound is an int of
    at least 2, and that a witness on `bound` elements is given exactly
    when the status is "counterexample"."""

    status: str  # "valid-up-to-bound" | "counterexample"
    bound: int
    witness: Optional[Counterexample] = None

    def __post_init__(self):
        if self.status not in _STATUSES:
            raise InvalidValue(
                f"status must be one of {', '.join(_STATUSES)}, got {self.status!r}"
            )
        _require_ground_size(self.bound)
        if self.status == "valid-up-to-bound":
            if self.witness is not None:
                raise InvalidValue("a valid-up-to-bound report has no witness")
            return
        _require(Counterexample, "witness must be a Counterexample", self.witness)
        if self.witness.n != self.bound:
            raise InvalidValue(
                f"witness on {self.witness.n} elements for bound {self.bound}"
            )

    @classmethod
    def _trusted(
        cls, status: str, bound: int, witness: Optional[Counterexample] = None
    ) -> "ValidityReport":
        """The trusted constructor: the fields must already be what the
        checking one accepts; none of it is checked."""
        report = object.__new__(cls)
        report.__dict__.update(status=status, bound=bound, witness=witness)
        return report

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


class _Ranked:
    """The partitions of an n-set named by their rank in RGS order: bottom
    is 0, top is B - 1.  `_tables` maps each RGS kernel to a flat B x B
    table of result ranks that `_search` allocates, reads and fills;
    each partition's orbit minima and each witness `Partition` are built
    once and kept."""

    def __init__(self, n: int):
        self.ground = _ground_for(n)
        self._rgs = list(_iter_rgs(n))
        self.size = len(self._rgs)
        self.bottom, self.top = 0, self.size - 1
        self._rank = {code: r for r, code in enumerate(self._rgs)}
        self._tables: dict = {}
        self._minima: dict[int, array] = {}
        self._partitions: dict[int, Partition] = {}

    def partition(self, x: int) -> Partition:
        """The partition of rank x, kept per x."""
        if x not in self._partitions:
            self._partitions[x] = _from_rgs(self.ground, self._rgs[x])
        return self._partitions[x]

    def minima(self, c: int) -> array:
        """The ranks of `_minima` of partition c, kept per c."""
        if c not in self._minima:
            ranks = map(self._rank.__getitem__, _minima(self._rgs[c]))
            self._minima[c] = array("h", ranks)
        return self._minima[c]


class _Unranked:
    """The partitions of an n-set as bare RGS tuples, for n too large to
    tabulate: elements and orbit minima are re-enumerated on every pass and
    operations run the kernels directly, so nothing of size B**2 is built
    and nothing is kept between passes."""

    def __init__(self, n: int):
        self.ground = _ground_for(n)
        self.bottom, self.top = (0,) * n, tuple(range(n))

    def partition(self, rgs: tuple[int, ...]) -> Partition:
        return _from_rgs(self.ground, rgs)

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
    one walk of the tree and one pass over its distinct subformulas.  Slot
    i < k holds variable names[i]; every other distinct subformula gets
    one slot, keyed by is_top for a constant and by (kernel, left slot,
    right slot) for a binary node, so equal subformulas share a slot and
    no formula is hashed.  A polarity is 1 if every occurrence of the
    variable is positive, -1 if every one is negative, 0 if both; the sign
    flips on the left of `=>`, the one argument in which an operation is
    antitone.  The program is the constants as (slot, is_top), the binary
    steps as (slot, kernel, left, right) grouped by level, the root slot
    and the slot count.  Level 0 holds the steps that use no variable;
    level d + 1 those whose last variable is names[d], which therefore run
    once per value of names[d].

    The walk cannot know a variable's place in sorted order until it has
    met them all, so it numbers them -1, -2, ... as first met and the
    other subformulas 0, 1, ... as first finished, the post-order that
    the slots follow; the pass then renumbers the steps into slots and
    sorts them into levels."""
    _require_formula(f)
    found: dict[str, int] = {}  # each variable's number
    signs: dict[str, set[int]] = {}
    keys: dict = {}
    steps: list = []  # each other subformula's key, at its number

    def visit(node: Formula, sign: int) -> int:
        # every occurrence is visited, for its sign; a repeat finds its number
        kind = type(node)
        if kind is Var:
            name = node.name
            if name not in found:
                found[name], signs[name] = -1 - len(found), set()
            signs[name].add(sign)
            return found[name]
        if kind is Top or kind is Bottom:
            key = kind is Top
        else:
            left = visit(node.left, -sign if kind is Implies else sign)
            key = (_KERNELS[kind], left, visit(node.right, sign))
        if key not in keys:
            keys[key] = len(steps)
            steps.append(key)
        return keys[key]

    root = visit(f, 1)
    names = tuple(sorted(found))
    k = len(names)
    # the slot of each number: k + number, or for a variable, whose
    # negative number reads from the end of the list, its place in names
    slot_of = list(range(k, 2 * k + len(steps)))
    level_of = list(range(1, k + 1))
    consts: list[tuple[int, bool]] = []
    levels: list[list] = [[]]
    for i, name in enumerate(names):
        slot_of[found[name]] = i
        levels.append([])
    for slot, key in enumerate(steps, k):
        if type(key) is tuple:
            kernel, left, right = key
            left, right = slot_of[left], slot_of[right]
            level = max(level_of[left], level_of[right])
            levels[level].append((slot, kernel, left, right))
        else:
            level = 0
            consts.append((slot, key))
        level_of.append(level)
    polarity = tuple([sum(signs[name]) for name in names])
    return names, polarity, (consts, levels, slot_of[root], len(slot_of))


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
    clean, every value does; only if it does not are the minima tried.
    With at most one polarity 0, the same rule leaves one variable, whose
    verdict at n = 3 holds at every larger n (module docstring), so
    `check_validity` runs this search only for n <= 3.

    Slot width + d holds c at depth d, and the level of each variable but
    the innermost ends by joining its value into the next c, so one
    variable builds no join table.  The steps that use no variable run
    once, as the level of a variable -1 with a scratch slot at the end.
    On ranks it alone allocates, reads and fills `lattice._tables`: entry
    a * B + b of a kernel's table is the rank of its result, -1 a gap."""
    consts, levels, root, width = program
    depth = len(levels) - 1
    values: list = [None] * width + [lattice.bottom] * (depth + 1)
    for slot, is_top in consts:
        values[slot] = lattice.top if is_top else lattice.bottom
    # ranks read their tables inline and fill a gap from the kernel; RGS
    # tuples run the kernel itself
    ranked = isinstance(lattice, _Ranked)
    if ranked:
        size, tables = lattice.size, lattice._tables
    bound = []
    for d, level in enumerate(levels):
        if 0 < d < depth:
            level = [*level, (width + d, _join_rgs, width + d - 1, d - 1)]
        if ranked:
            steps = []
            for slot, kernel, left, right in level:
                if kernel not in tables:
                    tables[kernel] = array("h", [-1]) * (size * size)
                steps.append((slot, tables[kernel], kernel, left, right))
            level = steps
        bound.append(level)
    levels, top = bound, lattice.top

    def nested(d: int, xs) -> bool:
        level, innermost = levels[d + 1], d + 1 == depth
        for x in xs:
            values[d] = x
            if ranked:
                for slot, table, kernel, left, right in level:
                    a, b = values[left], values[right]
                    r = table[a * size + b]
                    if r < 0:
                        r = lattice._rank[kernel(lattice._rgs[a], lattice._rgs[b])]
                        table[a * size + b] = r
                    values[slot] = r
            else:
                for slot, kernel, left, right in level:
                    values[slot] = kernel(values[left], values[right])
            if innermost:
                if values[root] != top:
                    return True
            elif search(d + 1):
                return True
        return False

    def search(d: int) -> bool:
        if polarity[d] > 0:
            return nested(d, (lattice.bottom,))
        if polarity[d] < 0 and not nested(d, (top,)):
            return False
        return nested(d, lattice.minima(values[width + d]))

    found = nested(-1, (None,))
    return (values[:depth], values[root]) if found else None


def check_validity(
    f: Formula, max_n: int, budget: int = DEFAULT_BUDGET
) -> ValidityReport:
    """Search all assignments over ground sizes 2..max_n for an
    evaluation below the top.  Deterministic: smallest n first, then
    enumeration order per variable.  A pass is only a bounded claim.

    One walk of `f` and one pass over its distinct subformulas
    (`_compile`) find its variables, their polarities and a slot program.
    The search runs on RGS ranks through operation tables filled on
    demand and kept between calls for n <= TABLE_MAX_N, as are the
    witness partitions of each rank; larger n run the RGS kernels
    directly.  Each subformula is evaluated
    once per value of the last variable it uses, and one that uses none
    once, as the level of a variable -1; the join of the earlier values
    is one more step of each level.  Three rules skip
    assignments that cannot hold the first counterexample.  Orbits: each
    variable takes only the least value of each orbit of the
    permutations that keep every block of the join of the earlier
    variables' values (for the first variable, the first value of each
    block-size shape).  Polarity: a variable of one polarity is settled by
    the bottom (positive) or first probed at the top (negative).  Ground
    size: with at most one mixed variable, setting the others to the
    bottom or top leaves a formula in one variable p whose value is 0, 1
    or p, by the same case for every p other than 0 and 1, so n <= 3
    decides every n (module docstring) and larger n are not searched.

    The budget charges Bell(n) ** k assignments for k variables at every
    n from 2 up, searched or not, in one walk: each n is charged, searched
    if n <= `last` (the largest n the rules leave) and otherwise only
    charged, and BudgetExceeded is raised at the first n whose sum exceeds
    the budget.  So a search cut short at n = 3 reports, and runs out of
    budget, exactly as the full sweep does, and the sum stops at the
    witness.  With no variable each n costs 1, so the sum at n is n - 1:
    the walk ends at `last`, and if the budget lasts that far its stop is
    read off there as budget + 2.  The walk reads Bell(n) from the
    library's one Bell triangle, the one `bell_number` reads, which is
    kept between calls and grows a row only when a walk reaches an n
    that no call has reached before."""
    for name, value in (("max_n", max_n), ("budget", budget)):
        if not _is_int(value):
            raise InvalidValue(f"{name} must be an integer, got {value!r}")
    if max_n < 2:
        raise InvalidValue("max_n must be at least 2")
    names, polarity, program = _compile(f)
    k = len(names)
    # with at most one mixed variable, n = 3 decides every larger n
    last = max_n if polarity.count(0) > 1 else min(max_n, 3)
    spent = 0
    for n in range(2, (max_n if k else last) + 1):
        spent += _bell(n) ** k
        if spent > budget:
            break
        if n > last:
            continue
        lattice = _lattice(n)
        hit = _search(program, polarity, lattice)
        if hit is not None:
            assignment, value = hit
            witness = Counterexample._trusted(
                n,
                {name: lattice.partition(x) for name, x in zip(names, assignment)},
                lattice.partition(value),
            )
            return ValidityReport._trusted("counterexample", n, witness)
    else:
        n = max_n + 1 if k else budget + 2
    if n <= max_n:
        raise BudgetExceeded(
            f"assignment budget {budget} exhausted before n={n}",
            bound_reached=n - 1,
        )
    return ValidityReport._trusted("valid-up-to-bound", max_n)


def boolean_tautology(f: Formula) -> bool:
    """Whether `f` holds in the two-element Boolean algebra, which is the
    partition lattice of a two-element ground set; partition validity
    implies this, so a failure here is a cheap classical counterexample
    certificate."""
    _, polarity, program = _compile(f)
    return _search(program, polarity, _lattice(2)) is None

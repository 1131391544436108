"""Independent reference implementations used only by the tests.

Nothing here imports the enumeration or algebra code paths under test:
the partition oracle builds partitions by recursive insertion (insert
element n into every block of every partition of n-1 elements, or as a
new block), where the library uses restricted growth strings.  The
lattice operations work on sets of blocks and pairs, where the library
relabels restricted growth strings, and the validity search walks every
assignment of block tuples, where the library looks results up in tables.
The unreduced validity search runs the kernels over every assignment,
keeping their results on ranks in a memo of its own, where the library
reads and fills its operation tables, tries only the least value of each
orbit that fixes the earlier variables, and skips the values a monotone
variable cannot need.  Those orbit minima are found by applying every
permutation that keeps each block of the earlier variables' join, where
the library compares block-intersection counts; the shape representatives
are found by scanning every RGS, where the library generates them.  The
formula parser descends recursively, one method per precedence level,
where the library runs one loop on an operand and an operator stack.  The
assignment budget is a running sum of Bell numbers from their binomial
recurrence, where the library walks the Bell triangle and charges a
formula with no variable for every n at once.  The
Boolean oracle evaluates over {False, True}, where the library searches
the two-element partition lattice.  The oracles read a formula's
variable names by a walk of their own, where the library takes them from
its compile.  Hasse diagrams build a checked
`Partition` per node and filter the covers by block containment, where
the library names block tuples it builds once per n and merges blocks.
The density and entropy oracles compute entry by entry and block by block
in `Fraction` arithmetic on the radicands of `SqrtRational` entries, with
their own rational square root, and the compound entropies from the
blocks of a set join, where the library works on an integer grid and
sums block weights from restricted growth strings.  The integer
compound entropies take one pass over a restricted growth string per
partition, the join's built by `_join_rgs`, where the library sums the
masses of pi, sigma and their join in one pass.  A density matrix's
JSON is read through its checked `SqrtRational` entries, where the
library prints each numerator over the grid's one denominator.  Shannon
entropy takes float(Pr(B)) * log2(1/Pr(B)) on `Fraction` block
probabilities, where the library divides integer block weights by the
denominator and back.  The square part of a radicand is found by trial
division up to its square root, where the library stops below 2**16
and tests the rest with `isqrt`, and an exact root is read from the
numerator and denominator separately, where the library reads the one
split of their product.
A conditional draw scales the `Fraction` point probabilities by the lcm
of their denominators and walks the counts, where the library bisects the
integer table of `z2dyn._draw_counts`.  The GF(2) sampler draws every
measurement that way and evolves `SubsetVector`s step by step, where the
library compiles the same tables, and the exact GF(2) pipeline splits
`frozenset` members with `Fraction` weights, where the library sums the
steps' draw tables over bitmasks.  The linear algebra eliminates on
`Fraction` rows, where the library works on integer rows, and builds
operators as sums of eigenvalue times projection, where the library
solves one integer system per operator.  Two subspaces are intersected
as the kernel of both annihilators stacked, where the library solves the
small system N_B A^T on the bases a DSD keeps.  GF(2) maps are reduced
on their transposed rows, where the library reduces their columns, and
level-set partitions go through the checking `Partition` constructor,
where the library builds them from a restricted growth string, and a
family of attributes is complete when its value tuples are distinct,
where the library joins their level-set partitions.  A command line is
parsed by the one full parser, which sorts the arguments before it hands
them to the subcommand's parser, where the library hands them straight to
the subcommand's parser.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
import sys
from fractions import Fraction
from typing import Iterator

from ditkit import cli
from ditkit.density import SqrtRational
from ditkit.errors import (
    DegenerateDSD,
    DimensionMismatch,
    DitkitError,
    DuplicateEigenvalue,
    EmptyState,
    FormulaSyntaxError,
    NotCommuting,
)
from ditkit.linalg import Matrix, Vector
from ditkit.logic import (
    _KERNELS,
    Bottom,
    Counterexample,
    Implies,
    Join,
    Meet,
    Top,
    ValidityReport,
    Var,
    _lattice,
    _Ranked,
    _tokenize,
)
from ditkit.observables import DSD, Compatibility
from ditkit.partitions import (
    Partition,
    ProbGroundSet,
    _iter_rgs,
    _join_rgs,
    _require_same_ground,
    discrete_partition,
)
from ditkit.z2dyn import Detect, Evolve, Measure, StateMixture, SubsetVector, evolve


def insert_enumerate(n: int) -> list[tuple[tuple[int, ...], ...]]:
    """All partitions of {0..n-1} as canonical block tuples, by recursive
    insertion."""
    if n == 0:
        return [()]
    out = []
    for smaller in insert_enumerate(n - 1):
        for at in range(len(smaller)):
            grown = list(smaller)
            grown[at] = grown[at] + (n - 1,)
            out.append(tuple(grown))
        out.append(smaller + ((n - 1,),))
    return [canonical(p) for p in out]


def canonical(blocks) -> tuple[tuple[int, ...], ...]:
    return tuple(sorted((tuple(sorted(b)) for b in blocks), key=lambda b: b[0]))


def rgs_of(blocks) -> tuple[int, ...]:
    """The restricted growth string of canonical blocks: its i-th entry
    numbers the block of i, blocks numbered by least element (the
    position of the block in canonical form)."""
    home = {i: j for j, blk in enumerate(blocks) for i in blk}
    return tuple(home[i] for i in range(len(home)))


def rgs_order(n: int) -> list[tuple[tuple[int, ...], ...]]:
    """All partitions of {0..n-1}, sorted by restricted growth string."""
    return sorted(insert_enumerate(n), key=rgs_of)


def all_pairs(ground) -> Iterator[tuple[Partition, Partition]]:
    """Every ordered pair of partitions of the ground set, each built by
    the checking constructor, in restricted growth string order."""
    parts = [Partition(ground, blocks) for blocks in rgs_order(ground.n)]
    return itertools.product(parts, parts)


# --- lattice operations on sets of blocks ---------------------------------

Blocks = tuple[tuple[int, ...], ...]


def set_join(a: Blocks, b: Blocks) -> Blocks:
    """The non-empty pairwise intersections of blocks."""
    meets = (set(x) & set(y) for x in a for y in b)
    return canonical(m for m in meets if m)


def set_meet(a: Blocks, b: Blocks) -> Blocks:
    """Classes of the transitive closure of the union of the two indit
    relations (pairs of elements sharing a block)."""
    related = {(i, k) for blocks in (a, b) for blk in blocks for i in blk for k in blk}
    elements = sorted({i for i, _ in related})
    for via in elements:
        related |= {(i, k) for i in elements for k in elements
                    if (i, via) in related and (via, k) in related}
    return canonical(
        {frozenset(k for k in elements if (i, k) in related) for i in elements}
    )


def set_implication(sigma: Blocks, pi: Blocks) -> Blocks:
    """sigma => pi: every block of pi inside some block of sigma is broken
    into singletons; the other blocks of pi stay as they are."""
    out = []
    for blk in pi:
        if any(set(blk) <= set(home) for home in sigma):
            out.extend((i,) for i in blk)
        else:
            out.append(blk)
    return canonical(out)


def covers_by_filter(n: int) -> list[tuple[Blocks, Blocks]]:
    """(lower, upper) pairs where upper has one block more than lower and
    each of its blocks lies inside a block of lower, both in RGS order."""
    nodes = rgs_order(n)
    return [
        (lower, upper)
        for lower in nodes
        for upper in nodes
        if len(upper) == len(lower) + 1
        and all(any(set(u) <= set(l) for l in lower) for u in upper)
    ]


# --- Hasse diagrams, one checked Partition per node -----------------------


def hasse_name(blocks: Blocks, labels) -> str:
    """Partition notation: blocks joined by "|", the labels inside a block
    by "," unless every label is one character long."""
    sep = "" if all(len(lab) == 1 for lab in labels) else ","
    return "|".join(sep.join(labels[i] for i in blk) for blk in blocks)


def hasse_json(ground) -> dict:
    nodes = rgs_order(ground.n)
    name = {blocks: hasse_name(blocks, ground.labels) for blocks in nodes}
    return {
        "ground": list(ground.labels),
        "nodes": list(name.values()),
        "edges": [[name[lo], name[up]] for lo, up in covers_by_filter(ground.n)],
    }


def cluster_lines(ground, highlight: frozenset, prefix: str) -> list[str]:
    """DOT statements for one lattice, highlighting the nodes that are
    equal to a partition in `highlight`."""
    nodes = [Partition(ground, blocks) for blocks in rgs_order(ground.n)]
    name = {pi.blocks: hasse_name(pi.blocks, ground.labels) for pi in nodes}
    ident = {blocks: f'"{prefix}{text}"' for blocks, text in name.items()}
    lines = []
    for pi in nodes:
        style = ' style=filled fillcolor="gold"' if pi in highlight else ""
        lines.append(f'{ident[pi.blocks]} [label="{name[pi.blocks]}"{style}];')
    for count in range(1, ground.n + 1):
        rank = [ident[pi.blocks] for pi in nodes if pi.num_blocks == count]
        if len(rank) > 1:
            lines.append(f'{{rank=same; {" ".join(rank)}}}')
    for lo, up in covers_by_filter(ground.n):
        lines.append(f"{ident[lo]} -> {ident[up]} [dir=none];")
    return lines


def hasse_dot(ground, highlight=()) -> str:
    body = cluster_lines(ground, frozenset(highlight), prefix="")
    inner = "\n".join(f"  {line}" for line in body)
    return f'digraph "partition lattice" {{\n  rankdir=BT;\n{inner}\n}}\n'


class DescentParser:
    """Recursive descent over `logic._tokenize`, one method per precedence
    level: meet > join > implies, implies right-associative."""

    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.at = 0

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.at]

    def take(self) -> tuple[str, str, int]:
        tok = self.tokens[self.at]
        self.at += 1
        return tok

    def parse(self):
        f = self.implies_expr()
        kind, text, pos = self.peek()
        if kind != "eof":
            raise FormulaSyntaxError(f"unexpected {text!r}", pos)
        return f

    def implies_expr(self):
        left = self.join_expr()
        if self.peek()[0] == "implies":
            self.take()
            return Implies(left, self.implies_expr())
        return left

    def join_expr(self):
        f = self.meet_expr()
        while self.peek()[0] == "join":
            self.take()
            f = Join(f, self.meet_expr())
        return f

    def meet_expr(self):
        f = self.atom()
        while self.peek()[0] == "meet":
            self.take()
            f = Meet(f, self.atom())
        return f

    def atom(self):
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


def variables(f) -> tuple[str, ...]:
    """The variable names of `f` in sorted order, by a walk of its own."""
    if isinstance(f, Var):
        return (f.name,)
    if isinstance(f, (Top, Bottom)):
        return ()
    return tuple(sorted({*variables(f.left), *variables(f.right)}))


def brute_validity(f, max_n: int):
    """(status, bound, witness) of the bounded validity search by walking
    every assignment of block tuples in RGS order, first variable
    outermost; the witness is (n, {name: blocks}, value blocks) or None."""
    names = variables(f)
    for n in range(2, max_n + 1):
        top = tuple((i,) for i in range(n))
        bottom = (tuple(range(n)),)
        ops = {Join: set_join, Meet: set_meet}

        def value(node, env):
            if isinstance(node, Var):
                return env[node.name]
            if isinstance(node, Top):
                return top
            if isinstance(node, Bottom):
                return bottom
            left, right = value(node.left, env), value(node.right, env)
            return ops.get(type(node), set_implication)(left, right)

        for combo in itertools.product(rgs_order(n), repeat=len(names)):
            env = dict(zip(names, combo))
            got = value(f, env)
            if got != top:
                return "counterexample", n, (n, env, got)
    return "valid-up-to-bound", max_n, None


def boolean_tautology(f) -> bool:
    """Whether `f` evaluates to True under every assignment of
    {False, True} to its variables."""
    names = variables(f)

    def walk(node, env: dict[str, bool]) -> bool:
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


def first_of_each_shape(n: int) -> list[tuple[int, ...]]:
    """The first RGS of each shape (sorted block sizes), scanning every
    RGS of length n in order."""
    seen, firsts = set(), []
    for rgs in _iter_rgs(n):
        shape = tuple(sorted(map(rgs.count, range(max(rgs) + 1))))
        if shape not in seen:
            seen.add(shape)
            firsts.append(rgs)
    return firsts


def orbit_minima(n: int, c: tuple[int, ...]) -> list[tuple[int, ...]]:
    """The least RGS of each orbit of the permutations of {0..n-1} that
    keep every block of the partition with RGS c, in RGS order: every
    such permutation is applied to the blocks of every partition."""
    keeping = [
        g for g in itertools.permutations(range(n))
        if all(c[g[i]] == c[i] for i in range(n))
    ]
    return sorted({
        min(rgs_of(canonical([g[i] for i in blk] for blk in blocks)) for g in keeping)
        for blocks in insert_enumerate(n)
    })


def subformula_program(f, names: tuple[str, ...]):
    """The slot program of `logic._compile`, found by hashing subformulas:
    slot i < k holds Var(names[i]), and every other distinct subformula,
    met first in a post-order walk that stops at repeats, gets the next
    slot.  The same (consts, levels, root, width) layout."""
    slots: dict = {Var(name): i for i, name in enumerate(names)}
    level_of: dict = {Var(name): i + 1 for i, name in enumerate(names)}
    consts: list[tuple[int, bool]] = []
    levels: list[list] = [[] for _ in range(len(names) + 1)]

    def visit(node) -> int:
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


def polarity(f, names: tuple[str, ...]) -> tuple[int, ...]:
    """Per variable of `names`, by a walk of its own: 1 if every
    occurrence in `f` is positive, -1 if every one is negative, 0 if both,
    the sign flipping on the left of `=>`."""
    signs: dict[str, set[int]] = {name: set() for name in names}

    def walk(node, sign: int):
        if isinstance(node, Var):
            signs[node.name].add(sign)
        elif isinstance(node, (Join, Meet, Implies)):
            walk(node.left, -sign if isinstance(node, Implies) else sign)
            walk(node.right, sign)

    walk(f, 1)
    return tuple(sum(signs[name]) for name in names)


@functools.cache
def _on_ranks(n: int, kernel, a: int, b: int) -> int:
    """`kernel` on the partitions of ranks a and b of an n-set, run on
    their RGS and kept in a memo of its own, so that the unreduced search
    reads no table of the library."""
    lattice = _lattice(n)
    return lattice.element(kernel(lattice.partition(a).rgs, lattice.partition(b).rgs))


def unreduced_search(program, lattice):
    """Run the slot program over every assignment in nested order, first
    variable outermost, and return the variables' values and the root
    value at the first assignment whose root is below the top, or None."""
    consts, levels, root, width = program
    depth = len(levels) - 1
    values: list = [None] * width
    for slot, is_top in consts:
        values[slot] = lattice.top if is_top else lattice.bottom
    top, n = lattice.top, lattice.n
    # a ranked lattice names its elements by rank, an unranked one by RGS
    ranked = isinstance(lattice, _Ranked)

    def run(level) -> None:
        for slot, kernel, left, right in level:
            a, b = values[left], values[right]
            values[slot] = _on_ranks(n, kernel, a, b) if ranked else kernel(a, b)

    def nested(d: int) -> bool:
        for x in range(lattice.size) if ranked else _iter_rgs(n):
            values[d] = x
            run(levels[d + 1])
            if d + 1 == depth:
                if values[root] != top:
                    return True
            elif nested(d + 1):
                return True
        return False

    run(levels[0])
    found = nested(0) if depth else values[root] != top
    return (values[:depth], values[root]) if found else None


def unreduced_validity(f, max_n: int) -> ValidityReport:
    """The `check_validity` report, without a budget, from
    `unreduced_search` of `subformula_program` on the library's
    lattices.  It searches every n up to `max_n`, with no stop at n = 3
    for a formula with at most one mixed-polarity variable."""
    names = variables(f)
    program = subformula_program(f, names)
    for n in range(2, max_n + 1):
        lattice = _lattice(n)
        hit = unreduced_search(program, lattice)
        if hit is not None:
            assignment, value = hit
            witness = Counterexample(
                n,
                {name: lattice.partition(x) for name, x in zip(names, assignment)},
                lattice.partition(value),
            )
            return ValidityReport("counterexample", n, witness)
    return ValidityReport("valid-up-to-bound", max_n)


@functools.cache
def bell(n: int) -> int:
    """Bell(n) by the binomial recurrence Bell(n) = sum over k < n of
    C(n - 1, k) * Bell(k)."""
    return 1 if n == 0 else sum(math.comb(n - 1, k) * bell(k) for k in range(n))


def budget_stop(k: int, max_n: int, budget: int):
    """The first n in 2..max_n at which the running sum of Bell(n) ** k
    exceeds `budget`, or None if no n does."""
    spent = 0
    for n in range(2, max_n + 1):
        spent += bell(n) ** k
        if spent > budget:
            return n
    return None


def random_probs(n: int, rng: random.Random) -> list[Fraction]:
    """Random exact positive rationals summing to 1."""
    weights = [rng.randint(1, 20) for _ in range(n)]
    total = sum(weights)
    return [Fraction(w, total) for w in weights]


def _grouped(n: int, rows, rng: random.Random) -> DSD:
    """The DSD of Q^n whose subspaces are runs of `rows`, cut at random."""
    groups = []
    at = 0
    while at < n:
        size = rng.randint(1, n - at)
        groups.append(tuple(rows[at : at + size]))
        at += size
    return DSD(n, tuple(groups))


def random_orthogonal_dsd(n: int, rng: random.Random) -> DSD:
    """Random DSD with pairwise orthogonal subspaces: orthogonalize a
    random invertible rational matrix and group its rows."""
    while True:
        rows: Matrix = tuple(
            tuple(Fraction(rng.randint(-3, 3)) for _ in range(n))
            for _ in range(n)
        )
        if rank(rows) == n:
            break
    return _grouped(n, gram_schmidt(rows), rng)


def random_dsd(n: int, rng: random.Random) -> DSD:
    """Random DSD in general position: the rows of a random invertible
    rational matrix, grouped at random cut points."""
    while True:
        rows: Matrix = tuple(
            tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(n))
            for _ in range(n)
        )
        if rank(rows) == n:
            return _grouped(n, rows, rng)


def distinct_eigenvalues(k: int, rng: random.Random) -> tuple[Fraction, ...]:
    values = rng.sample(range(-12, 13), k)
    return tuple(Fraction(v) for v in values)


# --- density matrices and logical entropy, entry by entry -----------------

Grid = tuple[tuple[SqrtRational, ...], ...]


def split_square(n: int) -> tuple[int, int]:
    """n = square**2 * rest with rest squarefree (n >= 0), by trial
    division up to the square root of what is left; 0 is 0**2 * 1."""
    if n == 0:
        return 0, 1
    square, rest = 1, 1
    d = 2
    while d * d <= n:
        exp = 0
        while n % d == 0:
            n //= d
            exp += 1
        square *= d ** (exp // 2)
        if exp % 2:
            rest *= d
        d += 1
    return square, rest * n


def exact_sqrt(q: Fraction) -> Fraction | None:
    """The square root of a rational q >= 0, or None when it is
    irrational: numerator and denominator are both perfect squares."""
    rn = math.isqrt(q.numerator)
    rd = math.isqrt(q.denominator)
    if rn * rn == q.numerator and rd * rd == q.denominator:
        return Fraction(rn, rd)
    return None


def rational_sqrt(q: Fraction) -> Fraction:
    """The square root of a rational square q >= 0, such as a diagonal
    radicand p_i * p_i; any other q fails the check."""
    root = exact_sqrt(q)
    assert root is not None, f"sqrt({q}) is irrational"
    return root


_ZERO = SqrtRational(Fraction(0))


def _home(partition) -> dict[int, int]:
    return {i: j for j, blk in enumerate(partition.blocks) for i in blk}


def rho_entries(pi, probs) -> Grid:
    """sqrt(p_i p_k) where i and k share a block of pi, else 0."""
    home, p, n = _home(pi), probs.p, pi.ground.n
    return tuple(
        tuple(
            SqrtRational(p[i] * p[k]) if home[i] == home[k] else _ZERO
            for k in range(n)
        )
        for i in range(n)
    )


def masked_entries(entries: Grid, sigma) -> Grid:
    """Keep the entries whose pair lies inside one block of sigma."""
    home, n = _home(sigma), len(entries)
    return tuple(
        tuple(
            entries[i][k] if home[i] == home[k] else _ZERO for k in range(n)
        )
        for i in range(n)
    )


def conditioned_entries(entries: Grid, members) -> tuple[Grid, Fraction]:
    """Sandwich by the projection onto `members` and renormalize: the
    post-state grid and the outcome probability."""
    n = len(entries)
    prob = sum(
        (rational_sqrt(entries[i][i].radicand) for i in members), Fraction(0)
    )
    post = tuple(
        tuple(
            SqrtRational(entries[i][k].radicand / (prob * prob))
            if i in members and k in members
            else _ZERO
            for k in range(n)
        )
        for i in range(n)
    )
    return post, prob


def density_json(mat) -> dict:
    """A density matrix's JSON read through its `entries`, one checked
    `SqrtRational` per cell."""
    return {
        "ground": list(mat.ground.labels),
        "entries": [
            [{"radicand": str(e.radicand)} for e in row] for row in mat.entries
        ],
    }


def entries_entropy(entries: Grid) -> Fraction:
    """1 - tr(rho^2): one minus the sum of all radicands."""
    return 1 - sum(
        (cell.radicand for row in entries for cell in row), Fraction(0)
    )


def block_entropy(blocks: Blocks, probs) -> Fraction:
    """1 - sum over blocks of the squared block probability."""
    return 1 - sum(
        (sum((probs.p[i] for i in blk), Fraction(0)) ** 2 for blk in blocks),
        Fraction(0),
    )


def compound_logical(pi, sigma, probs) -> tuple[Fraction, ...]:
    """(joint, h(pi | sigma), h(sigma | pi), mutual) as `Fraction`
    differences of the block entropies of pi, sigma and their join, the
    join found by intersecting blocks."""
    h_pi = block_entropy(pi.blocks, probs)
    h_sigma = block_entropy(sigma.blocks, probs)
    h_join = block_entropy(set_join(pi.blocks, sigma.blocks), probs)
    return (h_join, h_join - h_sigma, h_join - h_pi, h_pi + h_sigma - h_join)


def square_mass(rgs: tuple[int, ...], weights: tuple[int, ...]) -> int:
    """Sum of W_B**2 over the blocks of the partition with RGS `rgs`, one
    mass per label up to the largest."""
    mass = [0] * (max(rgs) + 1)
    for b, w in zip(rgs, weights):
        mass[b] += w
    return sum(m * m for m in mass)


def grid_logical_entropy(pi, probs) -> Fraction:
    """(D**2 - sum of W_B**2) / D**2 on the grid of `probs`."""
    square = probs.denominator**2
    return Fraction(square - square_mass(pi.rgs, probs.weights), square)


def grid_compound_logical(pi, sigma, probs) -> tuple[Fraction, ...]:
    """(joint, h(pi | sigma), h(sigma | pi), mutual) as integer
    differences over D**2 of the squared masses of pi, sigma and their
    join, one pass each."""
    w, square = probs.weights, probs.denominator**2
    s_pi = square_mass(pi.rgs, w)
    s_sigma = square_mass(sigma.rgs, w)
    s_join = square_mass(_join_rgs(pi.rgs, sigma.rgs), w)
    return (
        Fraction(square - s_join, square),
        Fraction(s_sigma - s_join, square),
        Fraction(s_pi - s_join, square),
        Fraction(square - s_pi - s_sigma + s_join, square),
    )


def shannon_entropy(blocks: Blocks, probs) -> float:
    """Sum over blocks, in order, of float(Pr(B)) * log2(1/Pr(B)), with
    Pr(B) the `Fraction` sum of the block's point probabilities."""
    masses = (sum((probs.p[i] for i in blk), Fraction(0)) for blk in blocks)
    return sum(float(pr) * math.log2(1 / pr) for pr in masses)


# --- conditional draws, and GF(2) sampling with one per measurement --------


def choice_reduce(block, probs, rng) -> int:
    """One member of a non-empty block of indices, member i with chance
    p_i / Pr(block): the p_i times the lcm of their denominators are
    integer counts, and a draw below their sum is walked down them."""
    if isinstance(rng, int):
        rng = random.Random(rng)
    members = sorted(set(block))
    if len(members) == 1:
        return members[0]
    weights = [probs.p[i] for i in members]
    scale = math.lcm(*(w.denominator for w in weights))
    counts = [int(w * scale) for w in weights]
    pick = rng.randrange(sum(counts))
    for i, c in zip(members, counts):
        pick -= c
        if pick < 0:
            return i
    raise AssertionError("unreachable")


def sample_pipeline(initial, steps, trials, rng, p=None):
    """One sampled trajectory per trial: evolve the subset vector, and at a
    Measure or Detect draw one member with the `choice_reduce` oracle and
    keep the members in its block."""
    if isinstance(rng, int):
        rng = random.Random(rng)
    ground = initial.ground
    probs = p if p is not None else ProbGroundSet.uniform(ground)
    steps = list(steps)
    counts: dict[SubsetVector, int] = {}
    for _ in range(trials):
        vec = initial
        for k, step in enumerate(steps):
            if isinstance(step, Evolve):
                vec = evolve(vec, step.map)
                continue
            sigma = (
                discrete_partition(ground)
                if isinstance(step, Detect)
                else step.by
            )
            if not vec.members:
                raise EmptyState(f"step {k} measures the empty state")
            hit = choice_reduce(sorted(vec.members), probs, rng)
            vec = SubsetVector(
                ground, vec.members & frozenset(sigma.blocks[sigma.rgs[hit]])
            )
        counts[vec] = counts.get(vec, 0) + 1
    return counts


# --- the exact GF(2) pipeline on frozensets and Fractions ----------------


def _weight(members, p) -> Fraction:
    if p is None:
        return Fraction(len(list(members)))
    return p.prob(members)


def _mixture(ground, terms) -> StateMixture:
    """Merge equal components and order them by their sorted members."""
    merged: dict[SubsetVector, Fraction] = {}
    for vec, q in terms:
        merged[vec] = merged.get(vec, Fraction(0)) + q
    return StateMixture(
        ground, tuple(sorted(merged.items(), key=lambda t: sorted(t[0].members)))
    )


def reduce(s, p=None) -> StateMixture:
    """Collapse to singletons with conditional probabilities."""
    if not s.members:
        raise EmptyState("cannot reduce the empty state")
    if p is not None:
        _require_same_ground(p, s)
    total = _weight(s.members, p)
    terms = [
        (SubsetVector(s.ground, frozenset({i})), _weight([i], p) / total)
        for i in sorted(s.members)
    ]
    return _mixture(s.ground, terms)


def run_pipeline(initial, steps, p=None) -> StateMixture:
    """Propagate an exact mixture step by step: split each component's
    members across the blocks of a Measure or Detect, weighting each piece
    by its conditional probability.  A step is checked when it is reached."""
    ground = initial.ground
    if p is not None:
        _require_same_ground(p, initial)
    mixture = StateMixture.point(initial)
    for k, step in enumerate(steps):
        terms: list[tuple[SubsetVector, Fraction]] = []
        if isinstance(step, Evolve):
            for vec, q in mixture.terms:
                terms.append((evolve(vec, step.map), q))
        elif isinstance(step, (Measure, Detect)):
            sigma = (
                discrete_partition(ground)
                if isinstance(step, Detect)
                else step.by
            )
            _require_same_ground(sigma, initial)
            for vec, q in mixture.terms:
                if not vec.members:
                    raise EmptyState(f"step {k} measures the empty state")
                total = _weight(vec.members, p)
                for blk in sigma.blocks:
                    piece = vec.members & frozenset(blk)
                    if piece:
                        terms.append(
                            (
                                SubsetVector(ground, piece),
                                q * _weight(piece, p) / total,
                            )
                        )
        else:
            raise TypeError(f"unknown pipeline step {step!r}")
        mixture = _mixture(ground, terms)
    return mixture


# --- GF(2) maps on transposed rows ----------------------------------------


def _gf2_rows(cols: tuple[int, ...]) -> list[int]:
    """The rows of the matrix whose columns are the bitmasks `cols`."""
    n = len(cols)
    return [sum(((cols[j] >> i & 1) << j) for j in range(n)) for i in range(n)]


def _gf2_reduce(rows: list[int], width: int) -> int:
    """Gauss-Jordan on the low `width` bits of `rows`, in place; the rank."""
    rank = 0
    for c in range(width):
        for i in range(rank, len(rows)):
            if rows[i] >> c & 1:
                rows[rank], rows[i] = rows[i], rows[rank]
                break
        else:
            continue
        for i in range(len(rows)):
            if i != rank and rows[i] >> c & 1:
                rows[i] ^= rows[rank]
        rank += 1
    return rank


def gf2_nonsingular(cols: tuple[int, ...]) -> bool:
    return _gf2_reduce(_gf2_rows(cols), len(cols)) == len(cols)


def gf2_inverse(cols: tuple[int, ...]) -> tuple[int, ...]:
    """Columns of the inverse: reduce [M | I] by rows to [I | M^-1], then
    read M^-1 column by column."""
    n = len(cols)
    rows = [row | 1 << (n + i) for i, row in enumerate(_gf2_rows(cols))]
    _gf2_reduce(rows, n)
    return tuple(
        sum(((rows[i] >> (n + j) & 1) << i) for i in range(n)) for j in range(n)
    )


# --- partitions by level sets ----------------------------------------------


def level_partition(f) -> Partition:
    """The level-set partition of an attribute, through the checking
    constructor."""
    blocks: dict[Fraction, list[int]] = {}
    for i, v in enumerate(f.values):
        blocks.setdefault(v, []).append(i)
    return Partition(f.ground, blocks.values())


def csca_complete(attrs) -> bool:
    """A family of attributes is complete when its value tuples
    (f(u), g(u), ...) are distinct, one per element."""
    n = attrs[0].ground.n
    return len({tuple(f.values[i] for f in attrs) for i in range(n)}) == n


# --- exact linear algebra by Gauss-Jordan on Fraction rows ----------------


def rref(a: Matrix) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form and the pivot column list."""
    rows = [list(row) for row in a]
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, nrows) if rows[i][c] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = 1 / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(nrows):
            if i != r and rows[i][c] != 0:
                factor = rows[i][c]
                rows[i] = [x - factor * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return tuple(tuple(row) for row in rows), pivots


def rank(a: Matrix) -> int:
    """The number of pivots of the RREF."""
    return len(rref(a)[1])


def nullspace(a: Matrix) -> Matrix:
    """Basis of the kernel, one vector per row (possibly empty)."""
    if not a:
        return ()
    reduced, pivots = rref(a)
    ncols = len(a[0])
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        vec = [Fraction(0)] * ncols
        vec[f] = Fraction(1)
        for r, c in enumerate(pivots):
            vec[c] = -reduced[r][f]
        basis.append(tuple(vec))
    return tuple(basis)


def invert(a: Matrix) -> Matrix:
    """Inverse of a square matrix; raises ArithmeticError if singular."""
    n = len(a)
    aug = tuple(
        tuple(row) + tuple(Fraction(1 if i == k else 0) for k in range(n))
        for i, row in enumerate(a)
    )
    reduced, pivots = rref(aug)
    if pivots != list(range(n)):
        raise ArithmeticError("matrix is singular")
    return tuple(row[n:] for row in reduced)


def row_basis(a: Matrix) -> Matrix:
    reduced, pivots = rref(a)
    return reduced[: len(pivots)]


def intersect_rowspaces(a: Matrix, b: Matrix) -> Matrix:
    constraints = tuple(nullspace(a)) + tuple(nullspace(b))
    if not constraints:
        ncols = len(a[0]) if a else len(b[0])
        return tuple(
            tuple(Fraction(int(i == k)) for k in range(ncols))
            for i in range(ncols)
        )
    return nullspace(constraints)


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    return tuple(
        tuple(sum((x * y for x, y in zip(row, col)), Fraction(0)) for col in zip(*b))
        for row in a
    )


# matrix builders the tests need and the library does not


def mat(rows) -> Matrix:
    return tuple(tuple(Fraction(x) for x in row) for row in rows)


def zeros(rows: int, cols: int) -> Matrix:
    return tuple((Fraction(0),) * cols for _ in range(rows))


def mat_add(a: Matrix, b: Matrix) -> Matrix:
    return tuple(
        tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a, b)
    )


def mat_vec(a: Matrix, v: Vector) -> Vector:
    return tuple(
        sum((x * y for x, y in zip(row, v)), Fraction(0)) for row in a
    )


def gram_schmidt(rows) -> Matrix:
    """Orthogonalize (not normalize) the rows, dropping dependents.
    Stays in Fraction: classical Gram-Schmidt without square roots."""
    ortho: list[Vector] = []
    for v in rows:
        w = list(v)
        for u in ortho:
            uu = sum((x * x for x in u), Fraction(0))
            uv = sum((x * y for x, y in zip(u, v)), Fraction(0))
            coef = uv / uu
            w = [x - coef * y for x, y in zip(w, u)]
        if any(x != 0 for x in w):
            ortho.append(tuple(w))
    return tuple(ortho)


def projection(a: Matrix) -> Matrix:
    """P = B^T (B B^T)^{-1} B for the RREF row basis B of `a`."""
    basis = row_basis(a)
    bt = tuple(zip(*basis))
    return mat_mul(bt, mat_mul(invert(mat_mul(basis, bt)), basis))


def operator_from_dsd(eigenvalues, dsd: DSD) -> Matrix:
    """F = sum of eigenvalue * projection over the decomposition."""
    values = tuple(Fraction(v) for v in eigenvalues)
    if len(values) != len(dsd.subspaces):
        raise DimensionMismatch(
            f"{len(values)} eigenvalues for {len(dsd.subspaces)} subspaces"
        )
    if len(set(values)) != len(values):
        raise DuplicateEigenvalue("eigenvalues must be pairwise distinct")
    for a, b in itertools.combinations(dsd.subspaces, 2):
        if any(sum((x * y for x, y in zip(u, v)), Fraction(0)) for u in a for v in b):
            raise DegenerateDSD("operator construction needs orthogonal subspaces")
    total = [[Fraction(0)] * dsd.dim for _ in range(dsd.dim)]
    for value, rows in zip(values, dsd.subspaces):
        for i, prow in enumerate(projection(rows)):
            for k, x in enumerate(prow):
                total[i][k] += value * x
    return tuple(tuple(row) for row in total)


def simultaneous_eigenspace(dsd_f: DSD, dsd_g: DSD) -> Matrix:
    if dsd_f.dim != dsd_g.dim:
        raise DimensionMismatch("decompositions of different spaces")
    pieces = [
        v
        for a in dsd_f.subspaces
        for b in dsd_g.subspaces
        for v in intersect_rowspaces(a, b)
    ]
    return row_basis(tuple(pieces)) if pieces else ()


def theorem_se_equals_kernel(ev_f, dsd_f: DSD, ev_g, dsd_g: DSD) -> bool:
    """Whether the simultaneous-eigenvector span equals the kernel of the
    commutator of the two projection-sum operators."""
    f = operator_from_dsd(ev_f, dsd_f)
    g = operator_from_dsd(ev_g, dsd_g)
    se = simultaneous_eigenspace(dsd_f, dsd_g)
    fg, gf = mat_mul(f, g), mat_mul(g, f)
    ker = nullspace(tuple(
        tuple(x - y for x, y in zip(r, s)) for r, s in zip(fg, gf)
    ))
    return row_basis(se) == row_basis(ker)


def classify(ev_f, dsd_f: DSD, ev_g, dsd_g: DSD) -> Compatibility:
    operator_from_dsd(ev_f, dsd_f)
    operator_from_dsd(ev_g, dsd_g)
    d = len(simultaneous_eigenspace(dsd_f, dsd_g))
    if d == dsd_f.dim:
        return Compatibility.COMMUTING
    if d == 0:
        return Compatibility.CONJUGATE
    return Compatibility.INCOMPATIBLE


def csco_complete(dsds) -> bool:
    """Pairwise commuting (the simultaneous eigenvectors span), then the
    iterated non-zero intersections all one-dimensional and spanning."""
    n = dsds[0].dim
    for a, b in itertools.combinations(dsds, 2):
        if len(simultaneous_eigenspace(a, b)) != n:
            raise NotCommuting("decompositions are not pairwise commuting")
    pieces = list(dsds[0].subspaces)
    for d in dsds[1:]:
        pieces = [
            cut for piece in pieces for s in d.subspaces
            if (cut := intersect_rowspaces(piece, s))
        ]
    return all(len(piece) == 1 for piece in pieces) and len(pieces) == n


def cli_main(argv) -> int:
    """`ditkit.cli.main` as one full parse: the top-level parser sorts
    every argument, then its subcommand's parser sorts them again."""
    args = cli._parser().parse_args(argv)
    try:
        return args.func(args)
    except DitkitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

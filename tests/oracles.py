"""Independent reference implementations used only by the tests.

Nothing here imports the enumeration or algebra code paths under test:
the partition oracle builds partitions by recursive insertion (insert
element n into every block of every partition of n-1 elements, or as a
new block), where the library uses restricted growth strings.  The
lattice operations work on sets of blocks and pairs, where the library
relabels restricted growth strings, and the validity search walks every
assignment of block tuples, where the library looks results up in tables.
The density and entropy oracles compute entry by entry in `Fraction` and
`SqrtRational` arithmetic, where the library works on an integer grid.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

from ditkit.density import SqrtRational
from ditkit.linalg import Matrix, gram_schmidt, rank
from ditkit.logic import Bottom, Join, Meet, Top, Var, variables
from ditkit.observables import DSD


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


def rgs_order(n: int) -> list[tuple[tuple[int, ...], ...]]:
    """All partitions of {0..n-1}, sorted by restricted growth string: the
    string whose i-th entry numbers the block of i, blocks numbered by
    least element (the position of the block in canonical form)."""

    def rgs(blocks):
        home = {i: j for j, blk in enumerate(blocks) for i in blk}
        return [home[i] for i in range(n)]

    return sorted(insert_enumerate(n), key=rgs)


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


def random_probs(n: int, rng: random.Random) -> list[Fraction]:
    """Random exact positive rationals summing to 1."""
    weights = [rng.randint(1, 20) for _ in range(n)]
    total = sum(weights)
    return [Fraction(w, total) for w in weights]


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
    ortho = list(gram_schmidt(rows))
    groups = []
    at = 0
    while at < n:
        size = rng.randint(1, n - at)
        groups.append(tuple(ortho[at : at + size]))
        at += size
    return DSD(n, tuple(groups))


def distinct_eigenvalues(k: int, rng: random.Random) -> tuple[Fraction, ...]:
    values = rng.sample(range(-12, 13), k)
    return tuple(Fraction(v) for v in values)


# --- density matrices and logical entropy, entry by entry -----------------

Grid = tuple[tuple[SqrtRational, ...], ...]
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
    prob = sum((entries[i][i].to_rational() for i in members), Fraction(0))
    post = tuple(
        tuple(
            entries[i][k].scaled(1 / prob)
            if i in members and k in members
            else _ZERO
            for k in range(n)
        )
        for i in range(n)
    )
    return post, prob


def entries_entropy(entries: Grid) -> Fraction:
    """1 - tr(rho^2): one minus the sum of all radicands."""
    return 1 - sum(
        (cell.squared() for row in entries for cell in row), Fraction(0)
    )


def block_entropy(pi, probs) -> Fraction:
    """1 - sum over blocks of the squared block probability."""
    return 1 - sum(
        (sum((probs.p[i] for i in blk), Fraction(0)) ** 2 for blk in pi.blocks),
        Fraction(0),
    )

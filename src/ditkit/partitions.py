"""Exact set-partition algebra.

A partition chops a ground set into disjoint non-empty blocks.  Everything
here is exact and immutable: blocks are index tuples in canonical form
(sorted by least element, sorted within), probabilities are `Fraction`s,
and the only randomness is the seeded draw in `choice_reduce`.

The lattice order used throughout is the distinction order: sigma <= pi
when every distinction (ordered pair split apart) made by sigma is also
made by pi.  The all-singletons partition is the top, the single-block
partition the bottom.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

from .errors import (
    BoundExceeded,
    DitkitError,
    EmptyBlock,
    GroundMismatch,
    NotExhaustive,
    OverlappingBlocks,
    UnknownLabel,
)

DEFAULT_ENUM_BOUND = 10


@dataclass(frozen=True)
class GroundSet:
    """Ordered set of distinct element labels."""

    labels: tuple[str, ...]

    def __post_init__(self):
        if len(self.labels) == 0:
            raise EmptyBlock("ground set must have at least one element")
        if len(set(self.labels)) != len(self.labels):
            raise OverlappingBlocks("ground-set labels must be distinct")
        object.__setattr__(
            self, "_index", {lab: i for i, lab in enumerate(self.labels)}
        )

    @classmethod
    def from_labels(cls, labels: Iterable[str]) -> "GroundSet":
        return cls(tuple(labels))

    @property
    def n(self) -> int:
        return len(self.labels)

    def index(self, label: str) -> int:
        try:
            return self._index[label]
        except KeyError:
            raise UnknownLabel(f"label {label!r} not in ground set") from None

    def label(self, i: int) -> str:
        return self.labels[i]

    def __iter__(self) -> Iterator[str]:
        return iter(self.labels)

    def __len__(self) -> int:
        return len(self.labels)


@dataclass(frozen=True)
class Partition:
    """A partition of a ground set, held in canonical block form.

    Use `make_partition` / `parse_partition` / `from_index_blocks` to
    construct; they validate and canonicalize.
    """

    ground: GroundSet
    blocks: tuple[tuple[int, ...], ...]
    _block_of: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        lookup = [-1] * self.ground.n
        for j, blk in enumerate(self.blocks):
            for i in blk:
                lookup[i] = j
        object.__setattr__(self, "_block_of", tuple(lookup))

    @classmethod
    def from_index_blocks(
        cls, ground: GroundSet, blocks: Iterable[Iterable[int]]
    ) -> "Partition":
        """Validate index blocks (non-empty, disjoint, exhaustive) and
        put them in canonical form."""
        canon = []
        seen: set[int] = set()
        for blk in blocks:
            indices = sorted(set(blk))
            if len(indices) != len(tuple(blk)):
                raise OverlappingBlocks("repeated element inside a block")
            if not indices:
                raise EmptyBlock("empty block in partition")
            if seen.intersection(indices):
                raise OverlappingBlocks(
                    f"blocks overlap on index {min(seen.intersection(indices))}"
                )
            seen.update(indices)
            canon.append(tuple(indices))
        if len(seen) != ground.n:
            missing = sorted(set(range(ground.n)) - seen)
            raise NotExhaustive(
                f"blocks do not cover indices {missing}"
            )
        canon.sort(key=lambda blk: blk[0])
        return cls(ground, tuple(canon))

    @property
    def num_blocks(self) -> int:
        return len(self.blocks)

    def block_index(self, i: int) -> int:
        return self._block_of[i]

    def block_containing(self, i: int) -> tuple[int, ...]:
        return self.blocks[self._block_of[i]]

    def same_block(self, i: int, k: int) -> bool:
        return self._block_of[i] == self._block_of[k]

    def is_discrete(self) -> bool:
        return self.num_blocks == self.ground.n

    def is_indiscrete(self) -> bool:
        return self.num_blocks == 1

    def label_blocks(self) -> tuple[tuple[str, ...], ...]:
        lab = self.ground.label
        return tuple(tuple(lab(i) for i in blk) for blk in self.blocks)

    # Lattice order: sigma <= pi  iff  dit(sigma) is a subset of dit(pi).
    def __le__(self, other: "Partition") -> bool:
        return refines(self, other)

    def __lt__(self, other: "Partition") -> bool:
        return self != other and refines(self, other)

    def __ge__(self, other: "Partition") -> bool:
        return refines(other, self)

    def __gt__(self, other: "Partition") -> bool:
        return self != other and refines(other, self)

    def __or__(self, other: "Partition") -> "Partition":
        return join(self, other)

    def __and__(self, other: "Partition") -> "Partition":
        return meet(self, other)

    def __str__(self) -> str:
        return notation(self)


@dataclass(frozen=True)
class PairRelation:
    """A set of ordered index pairs over a ground set (a dit-set or
    indit-set, materialized)."""

    ground: GroundSet
    pairs: frozenset[tuple[int, int]]

    def __contains__(self, pair: tuple[int, int]) -> bool:
        return pair in self.pairs

    def __len__(self) -> int:
        return len(self.pairs)

    def complement(self) -> "PairRelation":
        n = self.ground.n
        full = {(i, k) for i in range(n) for k in range(n)}
        return PairRelation(self.ground, frozenset(full - self.pairs))


@dataclass(frozen=True)
class ProbGroundSet:
    """Ground set with exact positive point probabilities summing to 1.

    Construction also puts the vector on one integer grid: p_i equals
    ``weights[i] / denominator``, where the denominator is the least
    common denominator of the p_i.  Block masses and entropies are then
    integer sums over that grid."""

    ground: GroundSet
    p: tuple[Fraction, ...]
    weights: tuple[int, ...] = field(init=False, repr=False, compare=False)
    denominator: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.p) != self.ground.n:
            raise GroundMismatch("probability vector length != ground size")
        if any(q <= 0 for q in self.p):
            raise ValueError("point probabilities must be positive")
        exact = [Fraction(q) for q in self.p]
        den = math.lcm(*(q.denominator for q in exact))
        weights = tuple(q.numerator * (den // q.denominator) for q in exact)
        if sum(weights) != den:
            raise ValueError(f"point probabilities sum to {sum(self.p)}, not 1")
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "denominator", den)

    @classmethod
    def uniform(cls, ground: GroundSet) -> "ProbGroundSet":
        n = ground.n
        return cls(ground, tuple(Fraction(1, n) for _ in range(n)))

    @classmethod
    def from_values(cls, ground: GroundSet, values: Sequence) -> "ProbGroundSet":
        return cls(ground, tuple(Fraction(v) for v in values))

    def prob(self, indices: Iterable[int]) -> Fraction:
        return Fraction(self.weight(indices), self.denominator)

    def weight(self, indices: Iterable[int]) -> int:
        """Grid mass of a set of indices: its probability times the
        denominator."""
        return sum(map(self.weights.__getitem__, indices))


def _require_same_ground(a, b) -> None:
    if a.ground != b.ground:
        raise GroundMismatch(
            f"ground sets differ: {a.ground.labels} vs {b.ground.labels}"
        )


def make_partition(
    ground: GroundSet, blocks: Iterable[Iterable[str]]
) -> Partition:
    """Build a partition from blocks of labels."""
    index_blocks = []
    for blk in blocks:
        labels = list(blk)
        if not labels:
            raise EmptyBlock("empty block in partition")
        if len(set(labels)) != len(labels):
            raise OverlappingBlocks("repeated label inside a block")
        index_blocks.append([ground.index(lab) for lab in labels])
    return Partition.from_index_blocks(ground, index_blocks)


def discrete_partition(ground: GroundSet) -> Partition:
    """The all-singletons top: every possible distinction is made."""
    return Partition(ground, tuple((i,) for i in range(ground.n)))


def indiscrete_partition(ground: GroundSet) -> Partition:
    """The one-block bottom: no distinctions at all."""
    return Partition(ground, (tuple(range(ground.n)),))


def inditset(pi: Partition) -> PairRelation:
    """All ordered pairs lying in a common block (the equivalence
    relation of the partition)."""
    pairs = frozenset(
        (i, k) for blk in pi.blocks for i in blk for k in blk
    )
    return PairRelation(pi.ground, pairs)


def ditset(pi: Partition) -> PairRelation:
    """All ordered pairs split across two blocks."""
    n = pi.ground.n
    pairs = frozenset(
        (i, k)
        for i in range(n)
        for k in range(n)
        if not pi.same_block(i, k)
    )
    return PairRelation(pi.ground, pairs)


def refines(sigma: Partition, pi: Partition) -> bool:
    """Distinction order: True when every dit of sigma is a dit of pi,
    equivalently when every block of pi sits inside a block of sigma."""
    _require_same_ground(sigma, pi)
    for blk in pi.blocks:
        home = sigma.block_index(blk[0])
        if any(sigma.block_index(i) != home for i in blk[1:]):
            return False
    return True


def join(pi: Partition, sigma: Partition) -> Partition:
    """Least upper bound: blocks are the non-empty pairwise block
    intersections, so the joined dit-set is the union of the two."""
    _require_same_ground(pi, sigma)
    groups: dict[tuple[int, int], list[int]] = {}
    for i in range(pi.ground.n):
        groups.setdefault((pi.block_index(i), sigma.block_index(i)), []).append(i)
    return Partition.from_index_blocks(pi.ground, groups.values())


def meet(pi: Partition, sigma: Partition) -> Partition:
    """Greatest lower bound: connected components of the graph whose
    edges are the indits of either partition."""
    _require_same_ground(pi, sigma)
    n = pi.ground.n
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for part in (pi, sigma):
        for blk in part.blocks:
            root = find(blk[0])
            for i in blk[1:]:
                parent[find(i)] = root
    groups: dict[int, list[int]] = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)
    return Partition.from_index_blocks(pi.ground, groups.values())


def implication(sigma: Partition, pi: Partition) -> Partition:
    """Partition conditional sigma => pi: each block of pi contained in
    some block of sigma is discretized into singletons; the rest stay
    whole.  Evaluates to the top exactly when sigma <= pi."""
    _require_same_ground(sigma, pi)
    out: list[tuple[int, ...]] = []
    for blk in pi.blocks:
        home = sigma.block_index(blk[0])
        if all(sigma.block_index(i) == home for i in blk):
            out.extend((i,) for i in blk)
        else:
            out.append(blk)
    return Partition.from_index_blocks(pi.ground, out)


def enumerate_partitions(
    ground: GroundSet, max_n: int = DEFAULT_ENUM_BOUND
) -> Iterator[Partition]:
    """Yield every partition of the ground set exactly once, in
    restricted-growth-string order.  Count is the Bell number of n."""
    n = ground.n
    if n > max_n:
        raise BoundExceeded(f"enumeration limited to n <= {max_n}, got n = {n}")
    return _iter_partitions(ground)


def _iter_partitions(ground: GroundSet) -> Iterator[Partition]:
    n = ground.n
    rgs = [0] * n
    maxes = [0] * n
    while True:
        blocks: list[list[int]] = [[] for _ in range(max(rgs) + 1)]
        for i, b in enumerate(rgs):
            blocks[b].append(i)
        yield Partition(ground, tuple(tuple(blk) for blk in blocks))
        # advance to the next restricted growth string
        i = n - 1
        while i > 0 and rgs[i] > maxes[i - 1]:
            i -= 1
        if i == 0:
            return
        rgs[i] += 1
        maxes[i] = max(maxes[i - 1], rgs[i])
        for k in range(i + 1, n):
            rgs[k] = 0
            maxes[k] = maxes[i]


def bell_number(n: int) -> int:
    """Number of partitions of an n-set, by the Bell triangle."""
    row = [1]
    for _ in range(max(n - 1, 0)):
        nxt = [row[-1]]
        for value in row:
            nxt.append(nxt[-1] + value)
        row = nxt
    return row[-1]


def choice_reduce(
    block: Iterable[int],
    probs: ProbGroundSet,
    rng: int | random.Random,
) -> int:
    """Draw one member of a block, each member i with conditional chance
    p_i / Pr(block).  Deterministic for a fixed seed.  A singleton block
    returns its member with probability one without consuming randomness.
    """
    members = sorted(set(block))
    if not members:
        raise EmptyBlock("cannot reduce an empty block")
    if len(members) == 1:
        return members[0]
    r = random.Random(rng) if isinstance(rng, int) else rng
    weights = [probs.p[i] for i in members]
    scale = math.lcm(*(w.denominator for w in weights))
    counts = [int(w * scale) for w in weights]
    pick = r.randrange(sum(counts))
    for i, c in zip(members, counts):
        pick -= c
        if pick < 0:
            return i
    raise AssertionError("unreachable")


# ---------------------------------------------------------------------------
# Text notation and JSON
# ---------------------------------------------------------------------------
#
# Blocks are separated by "|", labels inside a block by commas; when every
# label is a single character the commas may be dropped: "a|bc" == "a|b,c".


def notation(pi: Partition) -> str:
    compact = all(len(lab) == 1 for lab in pi.ground.labels)
    sep = "" if compact else ","
    return "|".join(
        sep.join(pi.ground.label(i) for i in blk) for blk in pi.blocks
    )


def parse_partition(ground: GroundSet, text: str) -> Partition:
    blocks: list[list[str]] = []
    for part in text.split("|"):
        part = part.strip()
        if "," in part:
            blocks.append([t.strip() for t in part.split(",")])
        elif part in ground.labels:
            blocks.append([part])
        else:
            blocks.append(list(part))
    return make_partition(ground, blocks)


def partition_to_json(pi: Partition) -> dict:
    return {
        "ground": list(pi.ground.labels),
        "blocks": [list(blk) for blk in pi.label_blocks()],
    }


def partition_from_json(data: dict) -> Partition:
    try:
        ground, blocks = GroundSet(tuple(data["ground"])), data["blocks"]
    except KeyError as exc:
        raise DitkitError(f"partition JSON lacks the {exc} field") from None
    return make_partition(ground, blocks)


def all_pairs(
    ground: GroundSet, max_n: int = DEFAULT_ENUM_BOUND
) -> Iterator[tuple[Partition, Partition]]:
    """Every ordered pair of partitions of the ground set."""
    parts = list(enumerate_partitions(ground, max_n))
    return itertools.product(parts, parts)

"""Exact set-partition algebra.

A partition chops a ground set into disjoint non-empty blocks.  Everything
here is exact, immutable and deterministic: blocks are index tuples in
canonical form (sorted by least element, sorted within) and probabilities
are `Fraction`s.

The lattice order used throughout is the distinction order: sigma <= pi
when every distinction (ordered pair split apart) made by sigma is also
made by pi.  The all-singletons partition is the top, the single-block
partition the bottom.

`_require` is the library's one check of an argument's type: an argument
of the wrong type, `None` or another ditkit value, raises InvalidValue
("..., got <repr>") at the entry point that receives it.  `_as_tuple` is
its one reader of a collection a caller passes: a non-iterable, at any
depth, raises InvalidValue with the caller's message.  `_check_index` is
its one check of an index a caller passes, raising UnknownLabel.
`_require_on` is its one gate for a value and a partition on its ground
set: the value's type, then the partition's, then the shared ground set.
"""

from __future__ import annotations

import string
import threading
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate
from typing import Iterable, Iterator, Sequence

from . import linalg
from .errors import (
    BoundExceeded,
    EmptyBlock,
    GroundMismatch,
    InvalidValue,
    NotExhaustive,
    OverlappingBlocks,
    UnknownLabel,
)

DEFAULT_ENUM_BOUND = 10


@dataclass(frozen=True)
class GroundSet:
    """Ordered set of distinct element labels.  A label is a non-empty
    string without "|", "," or surrounding whitespace, so that partitions
    written in `notation` parse back."""

    labels: tuple[str, ...]

    def __post_init__(self):
        labels = _as_tuple(self.labels, "labels must be an iterable")
        object.__setattr__(self, "labels", labels)
        if len(self.labels) == 0:
            raise EmptyBlock("ground set must have at least one element")
        for lab in self.labels:
            if not (
                isinstance(lab, str) and lab and lab == lab.strip()
                and "|" not in lab and "," not in lab
            ):
                raise InvalidValue(
                    f"label {lab!r} must be a non-empty string without '|',"
                    " ',' or surrounding whitespace"
                )
        if len(set(self.labels)) != len(self.labels):
            raise OverlappingBlocks("ground-set labels must be distinct")
        object.__setattr__(
            self, "_index", {lab: i for i, lab in enumerate(self.labels)}
        )

    @property
    def n(self) -> int:
        return len(self.labels)

    def index(self, label: str) -> int:
        if isinstance(label, str) and label in self._index:
            return self._index[label]
        raise UnknownLabel(f"label {label!r} not in ground set")

    def __iter__(self) -> Iterator[str]:
        return iter(self.labels)

    def __len__(self) -> int:
        return len(self.labels)


@dataclass(frozen=True, init=False)
class Partition:
    """A partition of a ground set, identified by its restricted growth
    string: ``rgs[i]`` numbers the block holding element i, blocks numbered
    by least element.  ``blocks`` is derived from it in canonical form.

    ``Partition(ground, blocks)`` checks that the index blocks are
    non-empty, disjoint and exhaustive, in any order; `make_partition` and
    `parse_partition` build from labels."""

    ground: GroundSet
    rgs: tuple[int, ...] = field(repr=False)
    blocks: tuple[tuple[int, ...], ...] = field(compare=False)

    def __init__(self, ground: GroundSet, blocks: Iterable[Iterable[int]]):
        _require(GroundSet, "ground must be a GroundSet", ground)
        blocks = _as_tuple(blocks, "blocks must be iterables of indices", 2)
        n = ground.n
        label = [-1] * n
        for j, blk in enumerate(blocks):
            if not blk:
                raise EmptyBlock("empty block in partition")
            for i in blk:
                _check_index(i, n)
                if label[i] >= 0:
                    raise OverlappingBlocks(f"blocks overlap on index {i}")
                label[i] = j
        if -1 in label:
            missing = [i for i, b in enumerate(label) if b < 0]
            raise NotExhaustive(f"blocks do not cover indices {missing}")
        # renumbering the labels gives the canonical RGS; the trusted path
        # builds the canonical blocks from it
        self.__dict__.update(_from_rgs(ground, _canon(label)).__dict__)

    @classmethod
    def from_index_blocks(cls, ground: GroundSet, blocks) -> "Partition":
        """The same as ``Partition(ground, blocks)``."""
        return cls(ground, blocks)

    @property
    def num_blocks(self) -> int:
        return len(self.blocks)

    def is_discrete(self) -> bool:
        return self.num_blocks == self.ground.n

    def label_blocks(self) -> tuple[tuple[str, ...], ...]:
        lab = self.ground.labels
        return tuple(tuple(lab[i] for i in blk) for blk in self.blocks)

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
    indit-set, materialized).

    ``PairRelation(ground, pairs)`` checks that `pairs` is a frozenset of
    (i, k) tuples of indices in range(n); `ditset`, `inditset` and
    `complement` build through the trusted `_trusted`."""

    ground: GroundSet
    pairs: frozenset[tuple[int, int]]

    def __post_init__(self):
        _require(GroundSet, "ground must be a GroundSet", self.ground)
        _require(frozenset, "pairs must be a frozenset", self.pairs)
        n = self.ground.n
        for pair in self.pairs:
            _require(tuple, "pairs must hold (i, k) index pairs", pair)
            if len(pair) != 2:
                raise InvalidValue(f"pair {pair!r} is not an (i, k) index pair")
            _check_index(pair[0], n)
            _check_index(pair[1], n)

    @classmethod
    def _trusted(cls, ground: GroundSet, pairs: frozenset) -> "PairRelation":
        """The trusted constructor: `pairs` must already hold (i, k) pairs
        of indices into range(n); none of it is checked."""
        relation = object.__new__(cls)
        relation.__dict__.update(ground=ground, pairs=pairs)
        return relation

    def __contains__(self, pair: tuple[int, int]) -> bool:
        """False, not an error, for anything but a pair of ints."""
        return (isinstance(pair, tuple) and all(map(_is_int, pair))
                and pair in self.pairs)

    def __len__(self) -> int:
        return len(self.pairs)

    def complement(self) -> "PairRelation":
        n = self.ground.n
        full = {(i, k) for i in range(n) for k in range(n)}
        return PairRelation._trusted(self.ground, frozenset(full - self.pairs))


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
        _require(GroundSet, "ground must be a GroundSet", self.ground)
        p = _as_tuple(self.p, "point probabilities must be an iterable")
        object.__setattr__(self, "p", p)
        if len(self.p) != self.ground.n:
            raise GroundMismatch("probability vector length != ground size")
        _require_exact(self.p, "point probabilities")
        if any(q <= 0 for q in self.p):
            raise InvalidValue("point probabilities must be positive")
        weights, den = linalg._clear(self.p)
        if sum(weights) != den:
            raise InvalidValue(f"point probabilities sum to {sum(self.p)}, not 1")
        object.__setattr__(self, "weights", tuple(weights))
        object.__setattr__(self, "denominator", den)

    @classmethod
    def uniform(cls, ground: GroundSet) -> "ProbGroundSet":
        _require(GroundSet, "ground must be a GroundSet", ground)
        n = ground.n
        return cls(ground, tuple(Fraction(1, n) for _ in range(n)))

    @classmethod
    def from_values(cls, ground: GroundSet, values: Sequence) -> "ProbGroundSet":
        values = _fractions(values, "point probabilities must be an iterable")
        return cls(ground, values)

    def prob(self, indices: Iterable[int]) -> Fraction:
        return Fraction(self.weight(indices), self.denominator)

    def weight(self, indices: Iterable[int]) -> int:
        """Grid mass of a set of indices: its probability times the
        denominator.  An index given twice counts once."""
        indices = _as_tuple(indices, "indices must be an iterable")
        for i in indices:
            _check_index(i, self.ground.n)
        return sum(map(self.weights.__getitem__, set(indices)))


def _fraction(value) -> Fraction:
    """`Fraction(value)`, with a float, a bool, a malformed number, a zero
    denominator or a non-number raised as InvalidValue.  A float is
    refused because its binary expansion is not the decimal it was
    written as: 0.1 would become 3602879701896397/36028797018963968."""
    if isinstance(value, (float, bool)):
        raise InvalidValue(
            f"{value!r} is not exact; give an int, a Fraction or a string"
        )
    try:
        return Fraction(value)
    except (ValueError, ZeroDivisionError, TypeError, OverflowError):
        raise InvalidValue(f"{value!r} is not a rational number") from None


def _fractions(values, what: str) -> tuple[Fraction, ...]:
    """`_fraction` of each value read by `_as_tuple(values, what)`."""
    return tuple(map(_fraction, _as_tuple(values, what)))


def _json_number(value) -> Fraction:
    """`Fraction(value)` for a number read from parsed JSON, an int or a
    string.  A float or a bool raises ValueError, which `json_input`
    reports as a malformed value like a malformed string."""
    if isinstance(value, (float, bool)):
        raise ValueError(f"{value!r} is not exact; give an int or a string")
    return Fraction(value)


def _is_int(value) -> bool:
    """An `int` that is not a `bool`, although a bool is an int."""
    return isinstance(value, int) and not isinstance(value, bool)


def _require_exact(values: Iterable, what: str) -> None:
    """Raise InvalidValue unless every value is an exact number: an `int`
    that is not a `bool`, or a `Fraction`."""
    for value in values:
        if not (_is_int(value) or isinstance(value, Fraction)):
            raise InvalidValue(f"{what} must be int or Fraction, got {value!r}")


def _as_tuple(items, what: str, depth: int = 1) -> tuple:
    """`items` as tuples nested `depth` deep, the form a value type stores
    so that it compares and hashes by value.  A TypeError while reading,
    such as a non-iterable at any depth, raises InvalidValue(what)."""
    try:
        if depth == 1:
            return tuple(items)
        if depth == 2:
            return tuple(map(tuple, items))
        return tuple(_as_tuple(x, what, depth - 1) for x in items)
    except TypeError:
        raise InvalidValue(what) from None


def _check_index(i, n: int) -> None:
    """Reject anything but an int index into range(n); a bool is not an
    index, although it is an int."""
    if not (_is_int(i) and 0 <= i < n):
        raise UnknownLabel(f"index {i!r} is not in range({n})")


def _require(kind, what: str, value) -> None:
    """Raise InvalidValue("<what>, got <repr>") unless `value` is a `kind`:
    a class, a tuple of classes or a union of them.  It takes one value: a
    `*values` signature makes each call about twice as slow, and a gate
    runs on every public call."""
    if not isinstance(value, kind):
        raise InvalidValue(f"{what}, got {value!r}")


def _require_size(what: str, value) -> None:
    """Raise InvalidValue("<what>, got <repr>") unless `value` is an int
    that is not a bool and is at least 0."""
    if not _is_int(value) or value < 0:
        raise InvalidValue(f"{what}, got {value!r}")


def _require_same_ground(a, b) -> None:
    # identity first: values built from one ground set share the object
    if a.ground is b.ground or a.ground == b.ground:
        return
    raise GroundMismatch(f"ground sets differ: {a.ground.labels} vs {b.ground.labels}")


def _require_on(kind, what: str, value, pi) -> None:
    """The one gate for a value and a partition on its ground set: refuse
    a `value` that is not a `kind`, then a `pi` that is not a Partition,
    then a pair on two ground sets, naming `value`'s first."""
    _require(kind, what, value)
    _require(Partition, "expected a Partition", pi)
    _require_same_ground(value, pi)


def make_partition(
    ground: GroundSet, blocks: Iterable[Iterable[str]]
) -> Partition:
    """Build a partition from blocks of labels."""
    blocks = _as_tuple(blocks, "blocks must be iterables of indices")
    return Partition(ground, (map(ground.index, b) for b in blocks))


def discrete_partition(ground: GroundSet) -> Partition:
    """The all-singletons top: every possible distinction is made."""
    _require(GroundSet, "ground must be a GroundSet", ground)
    return _from_rgs(ground, tuple(range(ground.n)))


def indiscrete_partition(ground: GroundSet) -> Partition:
    """The one-block bottom: no distinctions at all."""
    _require(GroundSet, "ground must be a GroundSet", ground)
    return _from_rgs(ground, (0,) * ground.n)


def inditset(pi: Partition) -> PairRelation:
    """All ordered pairs lying in a common block (the equivalence
    relation of the partition)."""
    _require(Partition, "expected a Partition", pi)
    pairs = frozenset(
        (i, k) for blk in pi.blocks for i in blk for k in blk
    )
    return PairRelation._trusted(pi.ground, pairs)


def ditset(pi: Partition) -> PairRelation:
    """All ordered pairs split across two blocks."""
    _require(Partition, "expected a Partition", pi)
    n, rgs = pi.ground.n, pi.rgs
    pairs = frozenset(
        (i, k)
        for i in range(n)
        for k in range(n)
        if rgs[i] != rgs[k]
    )
    return PairRelation._trusted(pi.ground, pairs)


def refines(sigma: Partition, pi: Partition) -> bool:
    """Distinction order: True when every dit of sigma is a dit of pi,
    equivalently when every block of pi sits inside a block of sigma, that
    is when the join of the two is pi."""
    _require_on(Partition, "expected a Partition", sigma, pi)
    return _join_rgs(sigma.rgs, pi.rgs) == pi.rgs


def join(pi: Partition, sigma: Partition) -> Partition:
    """Least upper bound: blocks are the non-empty pairwise block
    intersections, so the joined dit-set is the union of the two."""
    _require_on(Partition, "expected a Partition", pi, sigma)
    return _from_rgs(pi.ground, _join_rgs(pi.rgs, sigma.rgs))


def meet(pi: Partition, sigma: Partition) -> Partition:
    """Greatest lower bound: connected components of the graph whose
    edges are the indits of either partition."""
    _require_on(Partition, "expected a Partition", pi, sigma)
    return _from_rgs(pi.ground, _meet_rgs(pi.rgs, sigma.rgs))


def implication(sigma: Partition, pi: Partition) -> Partition:
    """Partition conditional sigma => pi: each block of pi contained in
    some block of sigma is discretized into singletons; the rest stay
    whole.  Evaluates to the top exactly when sigma <= pi."""
    _require_on(Partition, "expected a Partition", sigma, pi)
    return _from_rgs(pi.ground, _implies_rgs(sigma.rgs, pi.rgs))


# ---------------------------------------------------------------------------
# Restricted growth strings
# ---------------------------------------------------------------------------
#
# A partition is its restricted growth string, `Partition.rgs`.  The
# kernels below take block-label sequences and return canonical RGS
# tuples; they are the one implementation of the lattice operations, used
# by `join`/`meet`/`implication`/`refines` and by the tables of
# `logic.check_validity`.


def _canon(labels: Iterable) -> tuple[int, ...]:
    """Renumber block labels by first appearance, giving the RGS of the
    partition whose blocks are the classes of equal labels."""
    number: dict = {}
    return tuple([number.setdefault(x, len(number)) for x in labels])


def _join_rgs(a: Sequence[int], b: Sequence[int]) -> tuple[int, ...]:
    """Blocks of the join are the classes of equal (a-label, b-label)."""
    return _canon(zip(a, b))


def _meet_rgs(a: Sequence[int], b: Sequence[int]) -> tuple[int, ...]:
    """Blocks of the meet: a's blocks merged, by union-find over a's block
    labels, whenever one block of b meets both."""
    parent = list(range(max(a) + 1))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    first: dict[int, int] = {}
    for x, y in zip(a, b):
        if y in first:
            parent[find(x)] = find(first[y])
        else:
            first[y] = x
    return _canon([find(x) for x in a])


def _implies_rgs(s: Sequence[int], p: Sequence[int]) -> tuple[int, ...]:
    """s => p: a block of p whose members all share one s-label becomes
    singletons; the other blocks of p stay whole."""
    home: dict[int, int] = {}  # p-label -> the s-label of its block, or -1
    for x, y in zip(s, p):
        if home.setdefault(y, x) != x:
            home[y] = -1
    n = len(p)
    return _canon([y if home[y] < 0 else n + i for i, y in enumerate(p)])


def _from_rgs(ground: GroundSet, rgs: tuple[int, ...]) -> Partition:
    """The trusted constructor: the partition whose RGS is `rgs`, which
    must already be canonical and is not checked.  Its blocks are built
    once, here."""
    blocks: list[list[int]] = [[] for _ in range(max(rgs) + 1)]
    for i, b in enumerate(rgs):
        blocks[b].append(i)
    pi = object.__new__(Partition)
    pi.__dict__.update(ground=ground, rgs=rgs, blocks=tuple(map(tuple, blocks)))
    return pi


def _block_masks(pi: Partition) -> list[int]:
    """Each block of pi as a bitmask over the ground set (bit i set for
    element i), in block order."""
    masks = [0] * len(pi.blocks)
    for i, b in enumerate(pi.rgs):
        masks[b] |= 1 << i
    return masks


def _iter_rgs(n: int) -> Iterator[tuple[int, ...]]:
    """Every restricted growth string of length n, in lexicographic order
    (Knuth, TAOCP 4A, 7.2.1.5, Algorithm H)."""
    rgs = [0] * n
    maxes = [0] * n
    while True:
        yield tuple(rgs)
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


def _ground_for(n: int) -> GroundSet:
    """The stock ground a, b, c, ... of size n."""
    return GroundSet(tuple(string.ascii_lowercase[:n]))


def enumerate_partitions(
    ground: GroundSet, max_n: int = DEFAULT_ENUM_BOUND
) -> Iterator[Partition]:
    """Yield every partition of the ground set exactly once, in
    restricted-growth-string order.  Count is the Bell number of n."""
    _require(GroundSet, "ground must be a GroundSet", ground)
    _require_size("max_n must be a non-negative int", max_n)
    n = ground.n
    if n > max_n:
        raise BoundExceeded(f"enumeration limited to n <= {max_n}, got n = {n}")
    return (_from_rgs(ground, rgs) for rgs in _iter_rgs(n))


# Bell(0), Bell(1), ... as far as any call has needed, and the row of the
# Bell triangle that ends in the last of them.  Both only grow, a row at a
# time under the lock, so reading a Bell number that is there takes no lock
# and two threads that need the same new row build it once between them.
_BELLS = [1, 1]
_BELL_ROW = [1]
_BELL_LOCK = threading.Lock()


def _bell(n: int) -> int:
    """Bell(n) for an int n >= 0, from the library's one Bell triangle,
    grown only as far as n."""
    global _BELL_ROW
    bells = _BELLS
    if n < len(bells):
        return bells[n]
    with _BELL_LOCK:
        while len(bells) <= n:
            _BELL_ROW = list(accumulate(_BELL_ROW, initial=_BELL_ROW[-1]))
            bells.append(_BELL_ROW[-1])
    return bells[n]


def bell_number(n: int) -> int:
    """Number of partitions of an n-set, by the Bell triangle.  The rows
    are kept for the life of the process and shared with the validity
    search's budget, so each is built once."""
    _require_size("n must be a non-negative int", n)
    return _bell(n)


# ---------------------------------------------------------------------------
# Text notation and JSON
# ---------------------------------------------------------------------------
#
# Blocks are separated by "|", labels inside a block by commas; when every
# label is a single character the commas may be dropped: "a|bc" == "a|b,c".


def notation(pi: Partition) -> str:
    _require(Partition, "expected a Partition", pi)
    labels = pi.ground.labels
    sep = "," if max(map(len, labels)) > 1 else ""
    return "|".join([sep.join([labels[i] for i in blk]) for blk in pi.blocks])


def parse_partition(ground: GroundSet, text: str) -> Partition:
    _require(GroundSet, "ground must be a GroundSet", ground)
    _require(str, "partition text must be a str", text)
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
    _require(Partition, "expected a Partition", pi)
    return {
        "ground": list(pi.ground.labels),
        "blocks": [list(blk) for blk in pi.label_blocks()],
    }


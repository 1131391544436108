"""Subset dynamics over GF(2): the powerset of a ground set as a vector
space under symmetric difference, nonsingular linear evolution, and the
two-case double-slit computation on three points.

Subsets are int bitmasks (bit i set when element i is a member), and maps
are stored column-wise as bitmasks (column j = image of the j-th
singleton), so addition is XOR, evolution is an XOR fold and rank is bit
fiddling.
"""

from __future__ import annotations

import bisect
import itertools
import math
import random
from collections.abc import Mapping
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Optional, Union

from .errors import DimensionMismatch, EmptyBlock, EmptyState, InvalidValue, SingularMap
from .partitions import (
    GroundSet,
    Partition,
    ProbGroundSet,
    _as_tuple,
    _block_masks,
    _check_index,
    _is_int,
    _require,
    _require_exact,
    _require_same_ground,
    _require_size,
)


def _members(mask: int) -> list[int]:
    """The indices of the set bits of `mask`, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


@dataclass(frozen=True, init=False)
class SubsetVector:
    """A subset of the ground set, viewed as a GF(2) vector: bit i of
    ``mask`` is set when element i is a member.

    ``SubsetVector(ground, members)`` checks that the members are indices
    in range(n); `from_bits` is the one trusted path.  ``members`` is the
    index set derived from the mask."""

    ground: GroundSet
    mask: int

    def __init__(self, ground: GroundSet, members: Iterable[int]):
        _require(GroundSet, "ground must be a GroundSet", ground)
        mask = 0
        for i in _as_tuple(members, "members must be an iterable"):
            _check_index(i, ground.n)
            mask |= 1 << i
        self.__dict__.update(ground=ground, mask=mask)

    @classmethod
    def from_bits(cls, ground: GroundSet, mask: int) -> "SubsetVector":
        """The subset with bitmask `mask`; bits at or above n are dropped."""
        vec = object.__new__(cls)
        vec.__dict__.update(ground=ground, mask=mask & ~(-1 << ground.n))
        return vec

    @classmethod
    def from_labels(cls, ground: GroundSet, labels: Iterable[str]) -> "SubsetVector":
        _require(GroundSet, "ground must be a GroundSet", ground)
        labels = _as_tuple(labels, "members must be an iterable")
        return cls(ground, map(ground.index, labels))

    @classmethod
    def empty(cls, ground: GroundSet) -> "SubsetVector":
        _require(GroundSet, "ground must be a GroundSet", ground)
        return cls.from_bits(ground, 0)

    @property
    def members(self) -> frozenset[int]:
        return frozenset(_members(self.mask))

    def labels(self) -> tuple[str, ...]:
        return tuple(map(self.ground.labels.__getitem__, _members(self.mask)))

    def __add__(self, other: "SubsetVector") -> "SubsetVector":
        _require(SubsetVector, "expected a SubsetVector", other)
        _require_same_ground(self, other)
        return SubsetVector.from_bits(self.ground, self.mask ^ other.mask)

    def __len__(self) -> int:
        return self.mask.bit_count()

    def __str__(self) -> str:
        return "{" + ",".join(self.labels()) + "}"

    def __repr__(self) -> str:
        name = type(self).__name__
        return f"{name}(ground={self.ground!r}, members={self.members!r})"


def _gf2_rank(rows: list[int], width: int) -> int:
    rank = 0
    for c in range(width):
        pivot = next(
            (i for i in range(rank, len(rows)) if rows[i] >> c & 1), None
        )
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for i in range(len(rows)):
            if i != rank and rows[i] >> c & 1:
                rows[i] ^= rows[rank]
        rank += 1
    return rank


def _image(cols: tuple[int, ...], mask: int) -> int:
    """The XOR of the columns that the bits of `mask` pick: the unchecked
    fold behind `GF2Map.apply_bits`, for callers whose mask is in range."""
    out = 0
    j = 0
    while mask:
        if mask & 1:
            out ^= cols[j]
        mask >>= 1
        j += 1
    return out


@dataclass(frozen=True)
class GF2Map:
    """Linear map on GF(2)^n; cols[j] is the image bitmask of singleton j.
    Nonsingularity is certified once at construction."""

    cols: tuple[int, ...]
    nonsingular: bool = field(init=False, compare=False)

    def __post_init__(self):
        cols = _as_tuple(self.cols, "columns must be an iterable")
        object.__setattr__(self, "cols", cols)
        n = len(self.cols)
        for c in self.cols:
            if not _is_int(c):
                raise InvalidValue(f"column {c!r} is not an int bitmask")
        if any(c >> n for c in self.cols):
            raise DimensionMismatch("column has bits beyond the dimension")
        # a matrix and its transpose have the same rank
        object.__setattr__(self, "nonsingular", _gf2_rank(list(self.cols), n) == n)

    @property
    def n(self) -> int:
        return len(self.cols)

    @classmethod
    def from_images(cls, ground: GroundSet, images: Mapping) -> "GF2Map":
        """Map given by label -> iterable of image labels, one entry per
        ground element."""
        _require(GroundSet, "ground must be a GroundSet", ground)
        _require(Mapping, "images must be a mapping", images)
        cols = []
        for lab in ground.labels:
            if lab not in images:
                raise InvalidValue(f"label {lab!r} has no image")
            cols.append(SubsetVector.from_labels(ground, images[lab]).mask)
        return cls(tuple(cols))

    @classmethod
    def identity(cls, n: int) -> "GF2Map":
        _require_size("dimension must be a non-negative int", n)
        return cls(tuple(1 << i for i in range(n)))

    def entry(self, i: int, k: int) -> int:
        _check_index(i, self.n)
        _check_index(k, self.n)
        return self.cols[k] >> i & 1

    def apply_bits(self, mask: int) -> int:
        """The image of the subset `mask`, an index into the 2**n subsets."""
        _check_index(mask, 1 << self.n)
        return _image(self.cols, mask)

    def inverse(self) -> "GF2Map":
        """Inverse map by GF(2) Gauss-Jordan elimination.  The columns of
        M are the rows of its transpose, so reducing [M^T | I] leaves
        [I | (M^T)^-1], whose rows are the columns of M^-1."""
        n = self.n
        if not self.nonsingular:
            raise SingularMap("map is singular over GF(2)")
        rows = [c | 1 << (n + j) for j, c in enumerate(self.cols)]
        _gf2_rank(rows, n)
        return GF2Map(tuple(row >> n for row in rows))


def is_nonsingular(m: GF2Map) -> bool:
    _require(GF2Map, "expected a GF2Map", m)
    return m.nonsingular


def evolve(s: SubsetVector, m: GF2Map) -> SubsetVector:
    _require(SubsetVector, "expected a SubsetVector", s)
    _require(GF2Map, "expected a GF2Map", m)
    if s.ground.n != m.n:
        raise DimensionMismatch("map dimension does not match ground set")
    return SubsetVector.from_bits(s.ground, _image(m.cols, s.mask))


@dataclass(frozen=True)
class StateMixture:
    """Finitely supported exact distribution over subset vectors."""

    ground: GroundSet
    terms: tuple[tuple[SubsetVector, Fraction], ...]

    def __post_init__(self):
        _require(GroundSet, "ground must be a GroundSet", self.ground)
        terms = _as_tuple(self.terms, "mixture terms must be an iterable", 2)
        object.__setattr__(self, "terms", terms)
        for term in self.terms:
            if len(term) != 2:
                raise InvalidValue(
                    f"mixture term of length {len(term)} is not a "
                    "(vector, probability) pair"
                )
        vecs = [v for v, _ in self.terms]
        for v in vecs:
            _require(SubsetVector, f"mixture component {v!r} is not a SubsetVector", v)
        if len(set(vecs)) != len(vecs):
            raise InvalidValue("mixture components must be distinct")
        _require_exact((q for _, q in self.terms), "mixture probabilities")
        if any(q <= 0 for _, q in self.terms):
            raise InvalidValue("mixture probabilities must be positive")
        total = sum((q for _, q in self.terms), Fraction(0))
        if total != 1:
            raise InvalidValue("mixture probabilities must sum to 1")
        for v, _ in self.terms:
            _require_same_ground(v, self)

    @classmethod
    def _trusted(
        cls, ground: GroundSet, terms: tuple[tuple[SubsetVector, Fraction], ...]
    ) -> "StateMixture":
        """The trusted constructor: `terms` must already be distinct
        vectors on `ground` with positive probabilities summing to 1;
        none of it is checked."""
        mixture = object.__new__(cls)
        mixture.__dict__.update(ground=ground, terms=terms)
        return mixture

    @classmethod
    def point(cls, s: SubsetVector) -> "StateMixture":
        _require(SubsetVector, "expected a SubsetVector", s)
        return cls(s.ground, ((s, Fraction(1)),))

    def probability(self, s: SubsetVector) -> Fraction:
        _require(SubsetVector, "expected a SubsetVector", s)
        _require_same_ground(s, self)
        for vec, q in self.terms:
            if vec == s:
                return q
        return Fraction(0)

    def singleton_distribution(self) -> dict[str, Fraction]:
        """Distribution over element labels (zeros filled in); requires
        every component to be a singleton."""
        out = {lab: Fraction(0) for lab in self.ground.labels}
        for vec, q in self.terms:
            if len(vec) != 1:
                raise InvalidValue(f"component {vec} is not a singleton")
            out[vec.labels()[0]] = q
        return out


@dataclass(frozen=True)
class Evolve:
    map: GF2Map


@dataclass(frozen=True)
class Measure:
    by: Partition


@dataclass(frozen=True)
class Detect:
    pass


Step = Union[Evolve, Measure, Detect]


def _as_rng(rng) -> random.Random:
    """A generator for `rng`: an int seed that is not a bool seeds a new
    `random.Random`, a `random.Random` (or subclass) instance is used as
    given, and anything else is refused before any draw."""
    if isinstance(rng, random.Random):
        return rng
    if _is_int(rng):
        return random.Random(rng)
    raise InvalidValue(f"rng must be an int seed or a random.Random, got {rng!r}")


def _draw_counts(members: list[int], probs: ProbGroundSet) -> list[int]:
    """Cumulative counts of a draw over `members`: W_i // gcd(D, W_members)
    for the weights W over denominator D of `probs`, the least integers in
    ratio p_i / Pr(members); a draw r picks member `bisect_right(..., r)`."""
    w = list(map(probs.weights.__getitem__, members))
    scale = math.gcd(probs.denominator, *w)
    if scale != 1:
        w = [x // scale for x in w]
    return list(itertools.accumulate(w))


def _compile(initial: SubsetVector, steps: Iterable[Step], p: Optional[ProbGroundSet]):
    """Check every input, then compile the steps: an Evolve keeps its map,
    a Measure or Detect becomes the mask of the block holding each element.
    Returns the step count and `entry(k, mask)`: step k's image of mask, or
    its draw table (total, cumulative, nexts) over the members of mask in
    ascending order, `cumulative` from `_draw_counts`, each member leading
    to the members in its block.  A singleton maps to itself; the empty
    mask raises."""
    _require(SubsetVector, "expected a SubsetVector", initial)
    ground = initial.ground
    n = ground.n
    if p is None:
        p = ProbGroundSet.uniform(ground)
    else:
        _require(ProbGroundSet, "probs must be a ProbGroundSet", p)
        _require_same_ground(initial, p)
    plan: list[Union[GF2Map, tuple[int, ...]]] = []
    for step in _as_tuple(steps, "pipeline steps must be an iterable"):
        if isinstance(step, Evolve):
            _require(GF2Map, "expected a GF2Map", step.map)
            if step.map.n != n:
                raise DimensionMismatch("map dimension does not match ground set")
            plan.append(step.map)
        elif isinstance(step, Detect):
            plan.append(tuple(1 << i for i in range(n)))
        elif isinstance(step, Measure):
            _require(Partition, "expected a Partition", step.by)
            _require_same_ground(step.by, initial)
            block_masks = _block_masks(step.by)
            plan.append(tuple(block_masks[b] for b in step.by.rgs))
        else:
            raise InvalidValue(f"unknown pipeline step {step!r}")

    def entry(k: int, mask: int):
        step = plan[k]
        if isinstance(step, GF2Map):
            return _image(step.cols, mask)
        members = _members(mask)
        if not members:
            raise EmptyState(f"step {k} measures the empty state")
        if len(members) == 1:
            return mask
        cumulative = _draw_counts(members, p)
        return cumulative[-1], cumulative, [mask & step[i] for i in members]

    return len(plan), entry


def run_pipeline(
    initial: SubsetVector,
    steps: Iterable[Step],
    p: Optional[ProbGroundSet] = None,
) -> StateMixture:
    """Propagate an exact mixture through evolve / measure / detect steps.
    Measuring splits each component across the blocks it straddles with
    conditional probabilities; detection reduces to singletons.

    This is the exact sum over every branch of `sample_pipeline`'s draw
    tables.  The mixture is kept as mask -> integer weight over one
    denominator, which a measuring step multiplies by the lcm of its
    tables' totals."""
    count, entry = _compile(initial, steps, p)
    mixture, den = {initial.mask: 1}, 1
    for k in range(count):
        entries = [(entry(k, mask), w) for mask, w in mixture.items()]
        lcm = math.lcm(*(e[0] for e, _ in entries if type(e) is not int))
        den *= lcm
        mixture = {}
        for e, w in entries:
            if type(e) is int:
                mixture[e] = mixture.get(e, 0) + w * lcm
                continue
            total, cumulative, nexts = e
            w *= lcm // total
            for c, prev, nxt in zip(cumulative, [0, *cumulative], nexts):
                mixture[nxt] = mixture.get(nxt, 0) + w * (c - prev)
    # the masks are distinct and the weights positive integers summing to
    # den; the terms are sorted by their member lists, ascending
    ground = initial.ground
    return StateMixture._trusted(ground, tuple(
        (SubsetVector.from_bits(ground, m), Fraction(mixture[m], den))
        for m in sorted(mixture, key=_members)
    ))


# A draw table has at most 2**_SLOT_BITS buckets: a w-bit draw r lands in
# bucket r >> max(0, w - _SLOT_BITS), so up to _SLOT_BITS bits a bucket is
# one value of the draw.
_SLOT_BITS = 8


def _settle(buckets: list, r: int, memo: dict, jump):
    """The node that draw r of a bucket table leads to, found in `memo` or
    built by `jump` and written into every bucket that lies wholly inside
    the member's range of draws: the first draw into such a bucket, or any
    draw below the total into one that straddles a member's edge.
    `buckets` ends in the cumulative counts, the child keys, the total and
    (the draw's argument, shift)."""
    cumulative = buckets[-4]
    j = bisect.bisect_right(cumulative, r)
    key = buckets[-3][j]
    found = memo.get(key)
    if found is None:
        found = memo[key] = jump(key)
    # the buckets wholly inside draws [lo, hi): ceil(lo / 2**shift) up to
    # floor(hi / 2**shift)
    shift = buckets[-1][1]
    lo = cumulative[j - 1] if j else 0
    first, end = -(-lo >> shift), cumulative[j] >> shift
    buckets[first:end] = [found] * (end - first)
    return found


def sample_pipeline(
    initial: SubsetVector,
    steps: Iterable[Step],
    trials: int,
    rng: Union[int, random.Random],
    p: Optional[ProbGroundSet] = None,
) -> dict[SubsetVector, int]:
    """Monte Carlo counterpart of run_pipeline: one sampled trajectory per
    trial.  A Measure or Detect draws member i of the current subset with
    chance p_i / Pr(subset) and keeps the members in i's block; a singleton
    draws nothing.  `choice_reduce` is one trial of a `Detect`.

    The steps are checked and compiled once per call, as in run_pipeline.
    A node is what a trial reaches at step k and subset mask, after the
    deterministic steps from there (an Evolve, or a measurement of a
    singleton): the final mask, or the next draw table, whose members lead
    to the nodes of the step after it.  One memo keyed ``(k << n) | mask``
    holds each node, built the first time a trial reaches it, so an
    EmptyState is raised where the first trial to measure the empty state
    reaches it.

    A draw below a table's total t is ``rng.getrandbits(t.bit_length())``,
    repeated while it is not below t, which is how `random.Random.randrange`
    draws.  A generator whose class overrides ``randrange`` or draws
    integers another way, as one that overrides only ``random()`` does, is
    asked for ``rng.randrange(t)``.

    A table is a list of buckets, a guide table: for a total of w bits,
    draw r lands in bucket ``r >> shift`` with ``shift = max(0, w -
    _SLOT_BITS)``, so a table has at most 2**_SLOT_BITS (256) buckets, one
    per w-bit value when w is at most 8.  A bucket holds the node that
    every draw in it leads to, or None: draw again when the draw is not
    below t, and otherwise find the child by bisecting the cumulative
    counts and write it into every bucket that lies wholly inside the
    child's range of draws, so a later draw into such a bucket is one list
    index.  A bucket that straddles two members, or the total, stays None
    and is settled again on every draw into it.
    `rng` is an int seed or a `random.Random`; anything else raises
    InvalidValue."""
    _require_size("trials must be a non-negative integer", trials)
    count, entry = _compile(initial, steps, p)
    n = initial.ground.n
    rng = _as_rng(rng)
    # an unchanged Random.randrange(t) returns _randbelow(t), which draws bits
    bits = (type(rng).randrange is random.Random.randrange
            and getattr(type(rng), "_randbelow", None)
            is random.Random._randbelow_with_getrandbits)
    draw = rng.getrandbits if bits else rng.randrange
    memo: dict = {}
    full = ~(-1 << n)

    def jump(key: int):
        """The node at `key`: the final mask, or a bucket list that ends in
        the cumulative counts, the child keys, the total and (the draw's
        argument, shift), past its buckets."""
        k, mask = key >> n, key & full
        while k < count:
            step_entry = entry(k, mask)
            k += 1
            if type(step_entry) is not int:
                total, cumulative, nexts = step_entry
                width = total.bit_length()
                shift = max(0, width - _SLOT_BITS)
                buckets = [None] * ((1 << width - shift) + 4)
                buckets[-4:] = (cumulative, [k << n | m for m in nexts], total,
                                (width if bits else total, shift))
                return buckets
            mask = step_entry
        return mask

    tally: dict[int, int] = {}
    root = jump(initial.mask) if trials else None
    for _ in range(trials):
        node = root
        while type(node) is list:
            arg, shift = node[-1]
            r = draw(arg)
            found = node[r >> shift]
            while found is None:
                if r < node[-2]:
                    found = _settle(node, r, memo, jump)
                    break
                r = draw(arg)
                found = node[r >> shift]
            node = found
        tally[node] = tally.get(node, 0) + 1
    return {SubsetVector.from_bits(initial.ground, m): c for m, c in tally.items()}


def choice_reduce(
    block: Iterable[int],
    probs: ProbGroundSet,
    rng: Union[int, random.Random],
) -> int:
    """Draw one member of a block, each member i with conditional chance
    p_i / Pr(block): one trial of a `Detect` from the block, so it draws as
    `sample_pipeline` does.  A singleton block returns its member without
    consuming randomness.  `rng` is an int seed or a `random.Random`;
    anything else raises InvalidValue, for a singleton block too.  Each
    member must be an index into the ground set, as in `SubsetVector`.
    """
    _require(ProbGroundSet, "probs must be a ProbGroundSet", probs)
    start = SubsetVector(
        probs.ground, _as_tuple(block, "block must be an iterable of indices")
    )
    if start.mask == 0:
        raise EmptyBlock("cannot reduce an empty block")
    (hit,) = sample_pipeline(start, (Detect(),), 1, rng, probs)
    return hit.mask.bit_length() - 1


DOUBLE_SLIT_LABELS = ("a", "b", "c")


def double_slit_setup() -> tuple[GroundSet, GF2Map, SubsetVector]:
    """The fixed three-point interferometer: superposition {a,c} at the
    screen and the nonsingular dynamics a->{a,b}, b->{a,b,c}, c->{b,c}."""
    ground = GroundSet(DOUBLE_SLIT_LABELS)
    dynamics = GF2Map.from_images(
        ground, {"a": "ab", "b": "abc", "c": "bc"}
    )
    start = SubsetVector.from_labels(ground, "ac")
    return ground, dynamics, start


def double_slit_steps(case: int) -> list[Step]:
    if not _is_int(case) or case not in (1, 2):
        raise InvalidValue("case must be 1 or 2")
    _, dynamics, _ = double_slit_setup()
    if case == 1:
        return [Detect(), Evolve(dynamics), Detect()]
    return [Evolve(dynamics), Detect()]


def double_slit(case: int) -> dict[str, Fraction]:
    """Exact wall distribution: case 1 detects at the slits first, case 2
    lets the superposition evolve undetected."""
    _, _, start = double_slit_setup()
    mixture = run_pipeline(start, double_slit_steps(case))
    return mixture.singleton_distribution()

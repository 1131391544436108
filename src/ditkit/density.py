"""Partition density matrices over an exact square-root-of-rational scalar.

Every matrix entry is a value sqrt(q) for a non-negative rational q (the
``radicand``).  A `DensityMatrix` keeps its radicands on one integer grid,
integer numerators over a single common denominator, so building rho,
masking, conditioning and the entropy 1 - tr(rho^2) are integer work.
`SqrtRational` is the scalar at the API boundary: `entry`, `entries`,
`to_json` and the public constructor.  General matrix multiplication is
deliberately not provided; nothing here ever needs a tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable

from . import entropy as _entropy
from .errors import GroundMismatch, ZeroProbabilityOutcome, json_input
from .partitions import (
    GroundSet,
    Partition,
    ProbGroundSet,
    join,
)


@dataclass(frozen=True)
class SqrtRational:
    """The non-negative real sqrt(radicand) for an exact rational
    radicand >= 0.  Equality is radicand equality."""

    radicand: Fraction

    def __post_init__(self):
        if self.radicand < 0:
            raise ValueError("radicand must be non-negative")

    @classmethod
    def of(cls, value) -> "SqrtRational":
        """The square root of `value`."""
        return cls(Fraction(value))

    @classmethod
    def from_rational(cls, value) -> "SqrtRational":
        """Embed a non-negative rational exactly (radicand value**2)."""
        q = Fraction(value)
        if q < 0:
            raise ValueError("cannot embed a negative rational")
        return cls(q * q)

    def __bool__(self) -> bool:
        return self.radicand != 0

    def __mul__(self, other: "SqrtRational") -> "SqrtRational":
        return SqrtRational(self.radicand * other.radicand)

    def scaled(self, factor) -> "SqrtRational":
        """Multiply by a non-negative rational factor."""
        c = Fraction(factor)
        if c < 0:
            raise ValueError("scaling factor must be non-negative")
        return SqrtRational(c * c * self.radicand)

    def squared(self) -> Fraction:
        return self.radicand

    def is_rational(self) -> bool:
        return _rational_sqrt(self.radicand) is not None

    def to_rational(self) -> Fraction:
        root = _rational_sqrt(self.radicand)
        if root is None:
            raise ArithmeticError(f"sqrt({self.radicand}) is irrational")
        return root

    def __str__(self) -> str:
        num, den = self.radicand.numerator, self.radicand.denominator
        root = _rational_sqrt(self.radicand)
        if root is not None:
            return str(root)
        # sqrt(num/den) = sqrt(num*den)/den; pull the square part out
        square, rest = _split_square(num * den)
        coeff = Fraction(square, den)
        head = "" if coeff.numerator == 1 else str(coeff.numerator)
        tail = "" if coeff.denominator == 1 else f"/{coeff.denominator}"
        return f"{head}√{rest}{tail}"


def _rational_sqrt(q: Fraction) -> Fraction | None:
    """Exact square root of a non-negative rational, or None."""
    if q < 0:
        return None
    rn = math.isqrt(q.numerator)
    rd = math.isqrt(q.denominator)
    if rn * rn == q.numerator and rd * rd == q.denominator:
        return Fraction(rn, rd)
    return None


def _split_square(n: int) -> tuple[int, int]:
    """n = square**2 * rest with rest squarefree (n >= 1)."""
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


@dataclass(frozen=True)
class ProjectionMask:
    """Diagonal 0/1 projection onto a subset of the ground set."""

    ground: GroundSet
    members: frozenset[int]

    @classmethod
    def from_labels(cls, ground: GroundSet, labels: Iterable[str]) -> "ProjectionMask":
        return cls(ground, frozenset(ground.index(lab) for lab in labels))

    def complement(self) -> "ProjectionMask":
        return ProjectionMask(
            self.ground, frozenset(range(self.ground.n)) - self.members
        )

    def __contains__(self, i: int) -> bool:
        return i in self.members


@dataclass(frozen=True, init=False)
class DensityMatrix:
    """Symmetric matrix of SqrtRational entries with exact unit trace.

    `DensityMatrix(ground, entries)` takes a grid of SqrtRational.  The
    matrix holds the radicand of entry (i, k) as ``_num[i*n + k] / _den``:
    row-major integer numerators over one denominator, reduced so that no
    integer above 1 divides the denominator and every numerator.  That
    form is unique, so equality and hashing compare values.  Diagonal
    entry i, the square root of its radicand, is ``_roots[i] / _den``."""

    ground: GroundSet
    _num: tuple[int, ...]
    _den: int
    _roots: tuple[int, ...] = field(repr=False, compare=False)

    def __init__(
        self, ground: GroundSet, entries: tuple[tuple[SqrtRational, ...], ...]
    ):
        n = ground.n
        if len(entries) != n or any(len(row) != n for row in entries):
            raise ValueError("entry grid does not match ground size")
        radicands = [cell.radicand for row in entries for cell in row]
        den = math.lcm(*(q.denominator for q in radicands))
        self._fill(
            ground, tuple(q.numerator * (den // q.denominator) for q in radicands), den
        )

    @classmethod
    def _grid(cls, ground: GroundSet, num: tuple[int, ...], den: int) -> "DensityMatrix":
        """A matrix straight from grid numerators over `den`, validated
        like one from the public constructor."""
        mat = cls.__new__(cls)
        mat._fill(ground, num, den)
        return mat

    def _fill(self, ground: GroundSet, num: tuple[int, ...], den: int) -> None:
        common = math.gcd(den, *num)
        if common > 1:
            den //= common
            num = tuple(x // common for x in num)
        n = ground.n
        # row i equals column i for every i exactly when the grid is symmetric
        if any(num[i * n : i * n + n] != num[i::n] for i in range(n)):
            i, k = next(
                (i, k)
                for i in range(n)
                for k in range(i)
                if num[i * n + k] != num[k * n + i]
            )
            raise ValueError(f"matrix not symmetric at ({i},{k})")
        # diagonal entry sqrt(x / den) = sqrt(x * den) / den
        roots = []
        for x in num[:: n + 1]:
            square = x * den
            root = math.isqrt(square)
            if root * root != square:
                raise ArithmeticError(f"sqrt({Fraction(x, den)}) is irrational")
            roots.append(root)
        if sum(roots) != den:
            raise ValueError(f"trace is {Fraction(sum(roots), den)}, not 1")
        object.__setattr__(self, "ground", ground)
        object.__setattr__(self, "_num", num)
        object.__setattr__(self, "_den", den)
        object.__setattr__(self, "_roots", tuple(roots))

    @property
    def entries(self) -> tuple[tuple[SqrtRational, ...], ...]:
        n = self.ground.n
        cells = [SqrtRational(Fraction(x, self._den)) for x in self._num]
        return tuple(tuple(cells[i * n : i * n + n]) for i in range(n))

    def entry(self, i: int, k: int) -> SqrtRational:
        return SqrtRational(Fraction(self._num[i * self.ground.n + k], self._den))

    def trace(self) -> Fraction:
        return Fraction(sum(self._roots), self._den)

    def diagonal(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(root, self._den) for root in self._roots)

    def to_json(self) -> dict:
        return {
            "ground": list(self.ground.labels),
            "entries": [
                [{"radicand": str(e.radicand)} for e in row]
                for row in self.entries
            ],
        }

    @classmethod
    def from_json(cls, data: dict) -> "DensityMatrix":
        with json_input("density matrix"):
            ground = GroundSet(tuple(data["ground"]))
            entries = tuple(
                tuple(SqrtRational(Fraction(cell["radicand"])) for cell in row)
                for row in data["entries"]
            )
        return cls(ground, entries)


def rho(pi: Partition, probs: ProbGroundSet) -> DensityMatrix:
    """Density matrix of a partition state: entry (i,k) is
    sqrt(p_i * p_k) when i and k share a block, else 0, so the non-zero
    entries are exactly the indistinctions.  On the grid of `probs` its
    radicand is w_i * w_k / D^2."""
    if pi.ground != probs.ground:
        raise GroundMismatch("partition and probabilities disagree on ground")
    n = pi.ground.n
    w = probs.weights
    num = [0] * (n * n)
    for blk in pi.blocks:
        for i in blk:
            row, wi = i * n, w[i]
            for k in blk:
                num[row + k] = wi * w[k]
    return DensityMatrix._grid(pi.ground, tuple(num), probs.denominator**2)


def verify_block_eigenvectors(pi: Partition, probs: ProbGroundSet) -> bool:
    """Check, in exact arithmetic, that each block vector (entries
    sqrt(p_i / Pr(B)) on its block) is an eigenvector of rho with
    eigenvalue Pr(B), and that the block vectors are orthonormal.

    The factor sqrt(p_i / Pr(B)) comes out of (rho v)_i, leaving the
    rational sum over k in B of sqrt(rho_ik^2 * p_k / p_i); v is an
    eigenvector when that sum is Pr(B) for i in B and 0 for i outside."""
    mat = rho(pi, probs)
    n = pi.ground.n
    w = probs.weights
    for blk in pi.blocks:
        mass = probs.weight(blk)
        for i in range(n):
            # sqrt(num/den * w_k/w_i) = sqrt(num * w_k * den * w_i) / (den * w_i)
            scale = mat._den * w[i]
            total = 0
            for k in blk:
                square = mat._num[i * n + k] * w[k] * scale
                root = math.isqrt(square)
                if root * root != square:
                    return False
                total += root
            # total / scale == (mass / D) * [i in blk]
            if total * probs.denominator != (mass * scale if i in blk else 0):
                return False
    # <v_A, v_B> is the weight of the common members over sqrt(W_A * W_B)
    for a in pi.blocks:
        for b in pi.blocks:
            shared = probs.weight(set(a) & set(b))
            if shared * shared != (probs.weight(a) * probs.weight(b) if a == b else 0):
                return False
    return True


def luders_mixture(mat: DensityMatrix, sigma: Partition) -> DensityMatrix:
    """Post-measurement state: sandwiching by the block projections of
    sigma keeps an entry exactly when its pair lies inside one sigma
    block and zeroes the rest."""
    if mat.ground != sigma.ground:
        raise GroundMismatch("state and measurement disagree on ground")
    n = mat.ground.n
    kept = mat._num
    num = [0] * (n * n)
    for blk in sigma.blocks:
        for i in blk:
            row = i * n
            for k in blk:
                num[row + k] = kept[row + k]
    return DensityMatrix._grid(mat.ground, tuple(num), mat._den)


def luders_rule(
    mat: DensityMatrix, outcome: ProjectionMask
) -> tuple[DensityMatrix, Fraction]:
    """Condition on one outcome: sandwich by its projection, normalize by
    the trace, and return (post state, outcome probability)."""
    if mat.ground != outcome.ground:
        raise GroundMismatch("state and outcome disagree on ground")
    n = mat.ground.n
    members = outcome.members
    # the outcome probability is mass / den; dividing a radicand x / den
    # by its square gives x * den / mass^2
    mass = sum(mat._roots[i] for i in members)
    if mass == 0:
        raise ZeroProbabilityOutcome(
            f"outcome {sorted(members)} has probability zero"
        )
    num = [0] * (n * n)
    for i in members:
        row = i * n
        for k in members:
            num[row + k] = mat._num[row + k] * mat._den
    post = DensityMatrix._grid(mat.ground, tuple(num), mass * mass)
    return post, Fraction(mass, mat._den)


def luders_outcomes(
    mat: DensityMatrix, sigma: Partition
) -> list[tuple[tuple[int, ...], Fraction, DensityMatrix]]:
    """The full outcome table of measuring by sigma: one
    (block, probability, conditioned state) row per block."""
    if mat.ground != sigma.ground:
        raise GroundMismatch("state and measurement disagree on ground")
    rows = []
    for blk in sigma.blocks:
        mask = ProjectionMask(mat.ground, frozenset(blk))
        state, prob = luders_rule(mat, mask)
        rows.append((blk, prob, state))
    return rows


def quantum_logical_entropy(mat: DensityMatrix) -> Fraction:
    """1 - tr(rho^2), exact: the diagonal of the square needs only the
    squares of the entries, which are the rational radicands."""
    return Fraction(mat._den - sum(mat._num), mat._den)


def state_reduction_audit(
    mat: DensityMatrix, sigma: Partition
) -> list[tuple[int, int]]:
    """The off-diagonal non-zero entries whose pair is split by sigma:
    exactly the coherences that measuring by sigma decoheres."""
    if mat.ground != sigma.ground:
        raise GroundMismatch("state and measurement disagree on ground")
    n = mat.ground.n
    return [
        (i, k)
        for i in range(n)
        for k in range(n)
        if i != k and mat._num[i * n + k] and not sigma.same_block(i, k)
    ]


def theorem_join(pi: Partition, sigma: Partition, probs: ProbGroundSet) -> bool:
    """Measuring the state of pi by sigma lands exactly on the state of
    the join."""
    return luders_mixture(rho(pi, probs), sigma) == rho(join(pi, sigma), probs)


def theorem_entropy_increase(
    pi: Partition, sigma: Partition, probs: ProbGroundSet
) -> bool:
    """The entropy gained by measuring equals the total squared mass of
    the zeroed coherences, exactly."""
    mat = rho(pi, probs)
    hat = luders_mixture(mat, sigma)
    gained = quantum_logical_entropy(hat) - quantum_logical_entropy(mat)
    n = mat.ground.n
    zeroed = Fraction(
        sum(mat._num[i * n + k] for (i, k) in state_reduction_audit(mat, sigma)),
        mat._den,
    )
    return gained == zeroed


def consistency_h(pi: Partition, probs: ProbGroundSet) -> bool:
    """The matrix entropy 1 - tr(rho^2) agrees exactly with the
    partition's logical entropy."""
    return quantum_logical_entropy(rho(pi, probs)) == _entropy.logical_entropy(
        pi, probs
    )

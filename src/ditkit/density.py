"""Partition density matrices over an exact square-root-of-rational scalar.

Every matrix entry is a value sqrt(q) for a non-negative rational q (the
``radicand``).  A `DensityMatrix` keeps its radicands on one integer grid,
integer numerators over a single common denominator, so building rho,
masking, conditioning and the entropy 1 - tr(rho^2) are integer work.
`SqrtRational` is the scalar at the API boundary: `entry`, `entries`,
`to_json` and the public constructor, the only one that checks a matrix;
`rho` and the Lüders maps build theirs on the unchecked trusted path, and
the diagonal and trace are read as integer square roots of the radicands.
A `ProjectionMask`, the outcome `luders_outcomes` conditions on, is a
`SubsetVector` bitmask, since at the set level a projection is the
subset it keeps; `luders_rule` takes any `SubsetVector`.
General matrix multiplication is deliberately not provided; nothing here
ever needs a tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from . import entropy as _entropy
from . import linalg
from .errors import InvalidValue, ZeroProbabilityOutcome, json_input
from .partitions import (
    GroundSet,
    Partition,
    ProbGroundSet,
    _as_tuple,
    _block_masks,
    _check_index,
    _fraction,
    _is_int,
    _json_number,
    _require,
    _require_exact,
    _require_on,
    _require_same_ground,
    join,
)
from .z2dyn import SubsetVector


@dataclass(frozen=True)
class SqrtRational:
    """The non-negative real sqrt(radicand) for an exact rational
    radicand >= 0.  Equality is radicand equality."""

    radicand: Fraction

    def __post_init__(self):
        _require_exact((self.radicand,), "radicand")
        if self.radicand < 0:
            raise InvalidValue("radicand must be non-negative")

    @classmethod
    def of(cls, value) -> "SqrtRational":
        """The square root of `value`."""
        return cls(_fraction(value))

    @classmethod
    def from_rational(cls, value) -> "SqrtRational":
        """Embed a non-negative rational exactly (radicand value**2)."""
        q = _fraction(value)
        if q < 0:
            raise InvalidValue("cannot embed a negative rational")
        return cls(q * q)

    def __bool__(self) -> bool:
        return self.radicand != 0

    def scaled(self, factor) -> "SqrtRational":
        """Multiply by a non-negative rational factor."""
        c = _fraction(factor)
        if c < 0:
            raise InvalidValue("scaling factor must be non-negative")
        return SqrtRational(c * c * self.radicand)

    def __str__(self) -> str:
        num, den = self.radicand.numerator, self.radicand.denominator
        # sqrt(num/den) = sqrt(num*den)/den; pull the square part out
        square, rest = _split_square(num * den)
        coeff = Fraction(square, den)
        if rest == 1:
            return str(coeff)
        head = "" if coeff.numerator == 1 else str(coeff.numerator)
        tail = "" if coeff.denominator == 1 else f"/{coeff.denominator}"
        return f"{head}√{rest}{tail}"


def _split_square(n: int) -> tuple[int, int]:
    """n = square**2 * rest (n >= 0), and rest is 1 exactly when n is a
    perfect square, found before any trial division.  Trial division
    stops below 2**16; the cofactor left moves into `square` only if it
    is a perfect square, so `rest` is squarefree whenever that cofactor
    has at most two prime factors, as it has for every n < 2**48."""
    root = math.isqrt(n)
    if root * root == n:
        return root, 1
    square, rest = 1, 1
    d = 2
    while d < 1 << 16 and d * d <= n:
        exp = 0
        while n % d == 0:
            n //= d
            exp += 1
        square *= d ** (exp // 2)
        if exp % 2:
            rest *= d
        d += 1
    root = math.isqrt(n)
    if root * root == n:
        return square * root, rest
    return square, rest * n


class ProjectionMask(SubsetVector):
    """Diagonal 0/1 projection onto a subset of the ground set; it never
    equals a `SubsetVector` with the same members."""

    def complement(self) -> "ProjectionMask":
        return self.from_bits(self.ground, ~self.mask)

    def __contains__(self, i: int) -> bool:
        """False, not an error, for anything but an index in range(n)."""
        return _is_int(i) and i >= 0 and self.mask >> i & 1 == 1


@dataclass(frozen=True, init=False)
class DensityMatrix:
    """Symmetric matrix of SqrtRational entries with exact unit trace.

    `DensityMatrix(ground, entries)` is the one checking constructor: it
    checks a SqrtRational grid's shape, symmetry, rational diagonal and
    unit trace.  `_grid` is the trusted path.  The matrix holds the
    radicand of entry (i, k) as ``_num[i*n + k] / _den``: row-major integer
    numerators over one denominator, reduced so that no integer above 1
    divides the denominator and every numerator.  That form is unique, so
    equality and hashing compare values.  Diagonal entry i, the square root
    of its radicand, is ``_root(i) / _den``."""

    ground: GroundSet
    _num: tuple[int, ...]
    _den: int

    def __init__(
        self, ground: GroundSet, entries: tuple[tuple[SqrtRational, ...], ...]
    ):
        _require(GroundSet, "ground must be a GroundSet", ground)
        n = ground.n
        entries = _as_tuple(entries, "entry grid must be an iterable", 2)
        if len(entries) != n or any(len(row) != n for row in entries):
            raise InvalidValue("entry grid does not match ground size")
        cells = [cell for row in entries for cell in row]
        for cell in cells:
            _require(SqrtRational, "density matrix entries must be SqrtRationals", cell)
        num, den = linalg._clear([cell.radicand for cell in cells])
        for i in range(n):
            for k in range(i):
                if num[i * n + k] != num[k * n + i]:
                    raise InvalidValue(f"matrix not symmetric at ({i},{k})")
        # diagonal entry sqrt(x / den) = sqrt(x * den) / den
        trace = 0
        for x in num[:: n + 1]:
            square = x * den
            root = math.isqrt(square)
            if root * root != square:
                raise InvalidValue(f"sqrt({Fraction(x, den)}) is irrational")
            trace += root
        if trace != den:
            raise InvalidValue(f"trace is {Fraction(trace, den)}, not 1")
        self.__dict__.update(self._grid(ground, tuple(num), den).__dict__)

    @classmethod
    def _grid(
        cls, ground: GroundSet, num: tuple[int, ...], den: int
    ) -> "DensityMatrix":
        """The trusted constructor: radicands `num` over `den`, unchecked."""
        common = math.gcd(den, *num)
        if common > 1:
            den //= common
            num = tuple(x // common for x in num)
        mat = object.__new__(cls)
        mat.__dict__.update(ground=ground, _num=num, _den=den)
        return mat

    def _root(self, i: int) -> int:
        """Diagonal entry i times `_den`, exact as the diagonal is rational."""
        return math.isqrt(self._num[i * self.ground.n + i] * self._den)

    @property
    def entries(self) -> tuple[tuple[SqrtRational, ...], ...]:
        n = self.ground.n
        cells = [SqrtRational(Fraction(x, self._den)) for x in self._num]
        return tuple(tuple(cells[i * n : i * n + n]) for i in range(n))

    def entry(self, i: int, k: int) -> SqrtRational:
        n = self.ground.n
        _check_index(i, n)
        _check_index(k, n)
        return SqrtRational(Fraction(self._num[i * n + k], self._den))

    def trace(self) -> Fraction:
        return Fraction(sum(map(self._root, range(self.ground.n))), self._den)

    def diagonal(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(self._root(i), self._den) for i in range(self.ground.n))

    def to_json(self) -> dict:
        n, den = self.ground.n, self._den
        cells = [{"radicand": str(Fraction(x, den))} for x in self._num]
        return {
            "ground": list(self.ground.labels),
            "entries": [cells[i * n : i * n + n] for i in range(n)],
        }

    @classmethod
    def from_json(cls, data: dict) -> "DensityMatrix":
        with json_input("density matrix"):
            ground = GroundSet(tuple(data["ground"]))
            entries = tuple(
                tuple(SqrtRational(_json_number(cell["radicand"])) for cell in row)
                for row in data["entries"]
            )
        return cls(ground, entries)


def rho(pi: Partition, probs: ProbGroundSet) -> DensityMatrix:
    """Density matrix of a partition state: entry (i,k) is
    sqrt(p_i * p_k) when i and k share a block, else 0, so the non-zero
    entries are exactly the indistinctions.  On the grid of `probs` its
    radicand is w_i * w_k / D^2."""
    _require_on(ProbGroundSet, "probs must be a ProbGroundSet", probs, pi)
    n = pi.ground.n
    w, d = probs.weights, probs.denominator
    num = [0] * (n * n)
    for blk in pi.blocks:
        for i in blk:
            row, wi = i * n, w[i]
            for k in blk:
                num[row + k] = wi * w[k]
    return DensityMatrix._grid(pi.ground, tuple(num), d * d)


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
    masses = [sum(map(w.__getitem__, blk)) for blk in pi.blocks]
    for blk, mass in zip(pi.blocks, masses):
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
    for a, mass_a in zip(pi.blocks, masses):
        for b, mass_b in zip(pi.blocks, masses):
            shared = sum(map(w.__getitem__, set(a) & set(b)))
            if shared * shared != (mass_a * mass_b if a == b else 0):
                return False
    return True


def luders_mixture(mat: DensityMatrix, sigma: Partition) -> DensityMatrix:
    """Post-measurement state: sandwiching by the block projections of
    sigma keeps an entry exactly when its pair lies inside one sigma
    block and zeroes the rest, so the diagonal is kept whole."""
    _require_on(DensityMatrix, "expected a DensityMatrix", mat, sigma)
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
    mat: DensityMatrix, outcome: SubsetVector
) -> tuple[DensityMatrix, Fraction]:
    """Condition on one outcome, any `SubsetVector` on the ground set of
    `mat` such as a `ProjectionMask`: sandwich by its projection, normalize
    by the trace, and return (post state, outcome probability)."""
    _require(DensityMatrix, "expected a DensityMatrix", mat)
    _require(SubsetVector, "expected a SubsetVector", outcome)
    _require_same_ground(mat, outcome)
    n = mat.ground.n
    members = outcome.members
    # the outcome probability is mass / den; dividing the state by it takes
    # a radicand x / den to x * den / mass^2
    mass = sum(map(mat._root, members))
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
    _require_on(DensityMatrix, "expected a DensityMatrix", mat, sigma)
    rows = []
    for blk, mask in zip(sigma.blocks, _block_masks(sigma)):
        state, prob = luders_rule(mat, ProjectionMask.from_bits(mat.ground, mask))
        rows.append((blk, prob, state))
    return rows


def quantum_logical_entropy(mat: DensityMatrix) -> Fraction:
    """1 - tr(rho^2), exact: the diagonal of the square needs only the
    squares of the entries, which are the rational radicands."""
    _require(DensityMatrix, "expected a DensityMatrix", mat)
    return Fraction(mat._den - sum(mat._num), mat._den)


def state_reduction_audit(
    mat: DensityMatrix, sigma: Partition
) -> list[tuple[int, int]]:
    """The off-diagonal non-zero entries whose pair is split by sigma:
    exactly the coherences that measuring by sigma decoheres."""
    _require_on(DensityMatrix, "expected a DensityMatrix", mat, sigma)
    n, num, label = mat.ground.n, mat._num, sigma.rgs
    return [
        (i, k)
        for i in range(n)
        for k in range(n)
        if label[i] != label[k] and num[i * n + k]
    ]


def theorem_join(pi: Partition, sigma: Partition, probs: ProbGroundSet) -> bool:
    """Measuring the state of pi by sigma lands exactly on the state of
    the join."""
    return luders_mixture(rho(pi, probs), sigma) == rho(join(pi, sigma), probs)


def theorem_entropy_increase(
    pi: Partition, sigma: Partition, probs: ProbGroundSet
) -> bool:
    """The entropy gained by measuring equals the total squared mass of
    the zeroed coherences, exactly.  With S the radicand sum of a state,
    1 - tr(rho^2) is 1 - S / den, so the gain is S / den - S_hat / den_hat
    and the check cross-multiplies it against the zeroed mass Z / den."""
    mat = rho(pi, probs)
    hat = luders_mixture(mat, sigma)
    n, num = mat.ground.n, mat._num
    zeroed = sum(num[i * n + k] for (i, k) in state_reduction_audit(mat, sigma))
    return (sum(num) - zeroed) * hat._den == sum(hat._num) * mat._den


def consistency_h(pi: Partition, probs: ProbGroundSet) -> bool:
    """The matrix entropy 1 - tr(rho^2) agrees exactly with the
    partition's logical entropy: (den - S) / den against
    (D^2 - sum of W_B^2) / D^2, cross-multiplied."""
    mat = rho(pi, probs)
    square = probs.denominator**2
    blocks = _entropy._square_mass(pi.rgs, probs.weights)
    return (mat._den - sum(mat._num)) * square == (square - blocks) * mat._den

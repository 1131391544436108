"""Numerical attributes on a ground set and their linear counterparts.

An attribute f: U -> Q induces a partition by level sets; the same data
linearized gives a direct-sum decomposition of Q^n and a symmetric
operator built from exact rational projections.  The compatibility of
two operators is decided by the span of their simultaneous eigenvectors.
That span always sits inside the kernel of the commutator, and fills it
for commuting pairs and in dimension <= 2; theorem_se_equals_kernel
checks whether the two spaces coincide for a given pair.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce

from . import linalg
from .errors import (
    DegenerateDSD,
    DimensionMismatch,
    DuplicateEigenvalue,
    GroundMismatch,
    NotCommuting,
    json_input,
)
from .linalg import Matrix, Vector
from .partitions import GroundSet, Partition, join


@dataclass(frozen=True)
class Attribute:
    """A total rational-valued function on a ground set, values[i] = f(u_i)."""

    ground: GroundSet
    values: tuple[Fraction, ...]

    def __post_init__(self):
        if len(self.values) != self.ground.n:
            raise ValueError("attribute must assign a value to every element")

    @classmethod
    def from_map(cls, ground: GroundSet, mapping: dict) -> "Attribute":
        values = tuple(Fraction(mapping[lab]) for lab in ground.labels)
        return cls(ground, values)

    @classmethod
    def from_values(cls, ground: GroundSet, values) -> "Attribute":
        return cls(ground, tuple(Fraction(v) for v in values))

    def __call__(self, label: str) -> Fraction:
        return self.values[self.ground.index(label)]

    def image(self) -> tuple[Fraction, ...]:
        """Distinct values in first-appearance order."""
        return tuple(dict.fromkeys(self.values))

    def to_json(self) -> dict:
        return {
            "ground": list(self.ground.labels),
            "values": {
                lab: str(v) for lab, v in zip(self.ground.labels, self.values)
            },
        }

    @classmethod
    def from_json(cls, data: dict) -> "Attribute":
        with json_input("attribute"):
            return cls.from_map(GroundSet(tuple(data["ground"])), data["values"])


@dataclass(frozen=True)
class DSD:
    """Direct-sum decomposition of Q^n: subspaces given by row bases whose
    concatenation is a basis of the whole space."""

    dim: int
    subspaces: tuple[Matrix, ...]

    def __post_init__(self):
        stacked = []
        for rows in self.subspaces:
            if not rows:
                raise DegenerateDSD("zero subspace in decomposition")
            if any(len(v) != self.dim for v in rows):
                raise DimensionMismatch("basis vector of wrong length")
            if linalg.rank(rows) != len(rows):
                raise DegenerateDSD("subspace basis rows are dependent")
            stacked.extend(rows)
        if len(stacked) != self.dim or linalg.rank(tuple(stacked)) != self.dim:
            raise DegenerateDSD("subspaces do not give a direct sum of the space")

    @classmethod
    def standard(cls, n: int) -> "DSD":
        eye = linalg.identity(n)
        return cls(n, tuple((row,) for row in eye))

    @classmethod
    def from_vectors(cls, n: int, groups) -> "DSD":
        return cls(
            n,
            tuple(
                tuple(tuple(Fraction(x) for x in v) for v in group)
                for group in groups
            ),
        )

    def is_orthogonal(self) -> bool:
        for a, b in itertools.combinations(self.subspaces, 2):
            for u in a:
                for v in b:
                    if sum((x * y for x, y in zip(u, v)), Fraction(0)) != 0:
                        return False
        return True

    def projections(self) -> tuple[Matrix, ...]:
        return tuple(linalg.projection_onto_span(s) for s in self.subspaces)

    def to_json(self) -> dict:
        return {
            "dim": self.dim,
            "subspaces": [
                [[str(x) for x in v] for v in rows] for rows in self.subspaces
            ],
        }

    @classmethod
    def from_json(cls, data: dict) -> "DSD":
        with json_input("DSD"):
            return cls.from_vectors(data["dim"], data["subspaces"])


@dataclass(frozen=True)
class Operator:
    """Symmetric matrix of exact rationals."""

    mat: Matrix

    def __post_init__(self):
        n = len(self.mat)
        if any(len(row) != n for row in self.mat):
            raise DimensionMismatch("operator matrix must be square")
        if self.mat != linalg.transpose(self.mat):
            raise ValueError("operator matrix must be symmetric")

    @property
    def dim(self) -> int:
        return len(self.mat)


class Compatibility(enum.Enum):
    COMMUTING = "Commuting"
    INCOMPATIBLE = "Incompatible"
    CONJUGATE = "Conjugate"


def inverse_image_partition(f: Attribute) -> Partition:
    """Partition of the ground set by the level sets of the attribute."""
    blocks: dict[Fraction, list[int]] = {}
    for i, v in enumerate(f.values):
        blocks.setdefault(v, []).append(i)
    return Partition.from_index_blocks(f.ground, blocks.values())


def set_spectral_check(f: Attribute) -> bool:
    """Verify f = sum over its values r of r times the indicator of the
    r-level set, pointwise, and that the level sets resolve every subset
    into disjoint pieces (set-level resolution of identity)."""
    pi = inverse_image_partition(f)
    level = {blk: f.values[blk[0]] for blk in pi.blocks}
    for i in range(f.ground.n):
        total = sum(
            (r for blk, r in level.items() if i in blk), Fraction(0)
        )
        if total != f.values[i]:
            return False
    # resolution of identity on subsets; sweep them all while 2^n is small
    n = f.ground.n
    universe = frozenset(range(n))
    subsets: list[frozenset[int]] = [universe]
    if n <= 10:
        subsets = [
            frozenset(s)
            for k in range(n + 1)
            for s in itertools.combinations(range(n), k)
        ]
    for s in subsets:
        pieces = [s & frozenset(blk) for blk in pi.blocks]
        if sum(len(piece) for piece in pieces) != len(s):
            return False
        if frozenset().union(*pieces) != s:
            return False
    return True


def operator_from_dsd(eigenvalues, dsd: DSD) -> Operator:
    """F = sum of eigenvalue * projection over the decomposition."""
    values = tuple(Fraction(v) for v in eigenvalues)
    if len(values) != len(dsd.subspaces):
        raise DimensionMismatch(
            f"{len(values)} eigenvalues for {len(dsd.subspaces)} subspaces"
        )
    if len(set(values)) != len(values):
        raise DuplicateEigenvalue("eigenvalues must be pairwise distinct")
    if not dsd.is_orthogonal():
        raise DegenerateDSD("operator construction needs orthogonal subspaces")
    total = linalg.zeros(dsd.dim, dsd.dim)
    for value, proj in zip(values, dsd.projections()):
        total = linalg.mat_add(total, linalg.scale(proj, value))
    return Operator(total)


def operator_from_attribute(f: Attribute) -> Operator:
    """Diagonal operator with the attribute values as eigenvalues."""
    n = f.ground.n
    return Operator(
        tuple(
            tuple(f.values[i] if i == k else Fraction(0) for k in range(n))
            for i in range(n)
        )
    )


def dsd_from_attribute(f: Attribute) -> tuple[tuple[Fraction, ...], DSD]:
    """Eigenvalue list and coordinate-subspace DSD of the attribute's
    level sets, so operator_from_dsd(*dsd_from_attribute(f)) is the
    diagonal operator of f."""
    pi = inverse_image_partition(f)
    eye = linalg.identity(f.ground.n)
    values = tuple(f.values[blk[0]] for blk in pi.blocks)
    subspaces = tuple(tuple(eye[i] for i in blk) for blk in pi.blocks)
    return values, DSD(f.ground.n, subspaces)


def commutator(f: Operator, g: Operator) -> Matrix:
    if f.dim != g.dim:
        raise DimensionMismatch("operators act on different spaces")
    return linalg.mat_sub(
        linalg.mat_mul(f.mat, g.mat), linalg.mat_mul(g.mat, f.mat)
    )


def kernel(m: Matrix) -> Matrix:
    """Basis rows of the null space."""
    return linalg.nullspace(m)


def simultaneous_eigenspace(dsd_f: DSD, dsd_g: DSD) -> Matrix:
    """Canonical basis of the span of all pairwise subspace intersections:
    the space spanned by simultaneous eigenvectors."""
    if dsd_f.dim != dsd_g.dim:
        raise DimensionMismatch("decompositions of different spaces")
    pieces: list[Vector] = []
    for a in dsd_f.subspaces:
        for b in dsd_g.subspaces:
            pieces.extend(linalg.intersect_rowspaces(a, b))
    if not pieces:
        return ()
    return linalg.row_basis(tuple(pieces))


def theorem_se_equals_kernel(ev_f, dsd_f: DSD, ev_g, dsd_g: DSD) -> bool:
    """Whether the simultaneous-eigenvector span fills the kernel of the
    commutator.  The containment span <= kernel always holds, and it is
    an equality for commuting pairs and in dimension <= 2.  In dimension
    >= 3 the kernel can be strictly larger: F=diag(1,2,3) against the
    all-ones-off-diagonal operator leaves (1,-2,1) in the kernel although
    it is an eigenvector of neither."""
    f = operator_from_dsd(ev_f, dsd_f)
    g = operator_from_dsd(ev_g, dsd_g)
    se = simultaneous_eigenspace(dsd_f, dsd_g)
    ker = kernel(commutator(f, g))
    if not se and not ker:
        return True
    if not se or not ker:
        return False
    return linalg.spans_equal(se, ker)


def classify(ev_f, dsd_f: DSD, ev_g, dsd_g: DSD) -> Compatibility:
    """Commuting, Incompatible, or Conjugate by the dimension of the
    simultaneous-eigenvector span (full, intermediate, zero)."""
    operator_from_dsd(ev_f, dsd_f)
    operator_from_dsd(ev_g, dsd_g)
    d = len(simultaneous_eigenspace(dsd_f, dsd_g))
    if d == dsd_f.dim:
        return Compatibility.COMMUTING
    if d == 0:
        return Compatibility.CONJUGATE
    return Compatibility.INCOMPATIBLE


def csca_complete(attrs) -> bool:
    """A family of attributes is complete when the join of their level-set
    partitions is discrete, equivalently when the value tuples
    (f(u), g(u), ...) separate the elements."""
    attrs = list(attrs)
    if not attrs:
        raise ValueError("need at least one attribute")
    ground = attrs[0].ground
    for f in attrs[1:]:
        if f.ground != ground:
            raise GroundMismatch("attributes live on different ground sets")
    joined = reduce(join, (inverse_image_partition(f) for f in attrs))
    tuples = [tuple(f.values[i] for f in attrs) for i in range(ground.n)]
    separates = len(set(tuples)) == ground.n
    return joined.is_discrete() and separates


def csco_complete(dsds) -> bool:
    """A family of pairwise-commuting DSDs is complete when the iterated
    non-zero intersections are all one-dimensional (and hence span)."""
    dsds = list(dsds)
    if not dsds:
        raise ValueError("need at least one decomposition")
    n = dsds[0].dim
    for d in dsds[1:]:
        if d.dim != n:
            raise DimensionMismatch("decompositions of different spaces")
    for a, b in itertools.combinations(dsds, 2):
        if len(simultaneous_eigenspace(a, b)) != n:
            raise NotCommuting("decompositions are not pairwise commuting")
    pieces: list[Matrix] = list(dsds[0].subspaces)
    for d in dsds[1:]:
        refined = []
        for piece in pieces:
            for s in d.subspaces:
                cut = linalg.intersect_rowspaces(piece, s)
                if cut:
                    refined.append(cut)
        pieces = refined
    total = sum(len(piece) for piece in pieces)
    return all(len(piece) == 1 for piece in pieces) and total == n

"""Numerical attributes on a ground set and their linear counterparts.

An attribute f: U -> Q induces a partition by level sets; the same data
linearized gives a direct-sum decomposition of Q^n and a symmetric
operator built from exact rational projections.  The compatibility of
two operators is decided by the span of their simultaneous eigenvectors.
That span always sits inside the kernel of the commutator, and fills it
for commuting pairs and in dimension <= 2; theorem_se_equals_kernel
checks whether the two spaces coincide for a given pair.

A DSD keeps the integer form its constructor checks: each subspace's
rows A cleared of denominators (`linalg._clear`), an integer basis N_A
of the vectors orthogonal to it, its orthogonal projection
P = A^T (A A^T)^-1 A as integer rows P d over one denominator d, and
whether the subspaces are pairwise orthogonal.  Operators, projections,
orthogonality, the simultaneous eigenspace and complete families read
these and never eliminate a subspace again.  An operator is the integer
sum of its eigenvalues times the stored projections, F = sum of lambda P,
the Hilbert-space form of an attribute f = sum of r times the indicator
of its r-level set.  The common refinement of DSDs, the counterpart of
the partition join, is found one DSD at a time: span(A) ∩ span(B) is
x A for x in the kernel of the small matrix N_B A^T.  Its pieces form a
direct sum that fills the space exactly when the DSDs pairwise commute;
for a pair they span the simultaneous eigenvectors.  Operators keep
their integer rows and are multiplied only as those, by the one
commutator that both `commutator` and `theorem_se_equals_kernel` use;
the theorem compares the dimension of the pieces' span with that of the
commutator's kernel.  Every matrix product here (Gram matrices,
projections, the constraints N_B A^T, the cuts x A and the commutator)
is `linalg._dots`, A B^T on integer rows; the only other sum of
products is an operator's eigenvalue-weighted sum of projections.
"""

from __future__ import annotations

import enum
import itertools
from collections.abc import Mapping
from dataclasses import dataclass, field
from fractions import Fraction
from functools import reduce
from math import gcd, lcm
from operator import mul, or_

from . import linalg
from .errors import (
    DegenerateDSD,
    DimensionMismatch,
    DuplicateEigenvalue,
    InvalidValue,
    NotCommuting,
    json_input,
)
from .linalg import Matrix
from .partitions import (
    GroundSet,
    Partition,
    _as_tuple,
    _block_masks,
    _canon,
    _fractions,
    _from_rgs,
    _json_number,
    _require,
    _require_exact,
    _require_size,
    join,
)


@dataclass(frozen=True)
class Attribute:
    """A total rational-valued function on a ground set, values[i] = f(u_i)."""

    ground: GroundSet
    values: tuple[Fraction, ...]

    def __post_init__(self):
        _require(GroundSet, "ground must be a GroundSet", self.ground)
        values = _as_tuple(self.values, "values must be an iterable")
        object.__setattr__(self, "values", values)
        if len(self.values) != self.ground.n:
            raise InvalidValue("attribute must assign a value to every element")
        _require_exact(self.values, "attribute values")

    @classmethod
    def from_map(cls, ground: GroundSet, mapping: Mapping) -> "Attribute":
        _require(GroundSet, "ground must be a GroundSet", ground)
        _require(Mapping, "mapping must map labels to values", mapping)
        for lab in ground.labels:
            if lab not in mapping:
                raise InvalidValue(f"no value for label {lab!r}")
        return cls.from_values(ground, [mapping[lab] for lab in ground.labels])

    @classmethod
    def from_values(cls, ground: GroundSet, values) -> "Attribute":
        return cls(ground, _fractions(values, "values must be an iterable"))

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
            ground, values = GroundSet(tuple(data["ground"])), data["values"]
            return cls(
                ground, tuple(_json_number(values[lab]) for lab in ground.labels)
            )


@dataclass(frozen=True)
class DSD:
    """Direct-sum decomposition of Q^n: subspaces given by row bases whose
    concatenation is a basis of the whole space.

    Construction keeps what checking the subspaces yields: each basis
    cleared of denominators row by row (`int_bases`), an integer basis
    of its annihilator, the n - dim vectors orthogonal to it
    (`annihilators`), the orthogonal projection onto it as a pair
    (P d, d) of integer rows and their least common denominator
    (`int_projections`), and whether the subspaces are pairwise
    orthogonal (`orthogonal`).  All are derived, so they take no part in
    equality, hashing or the repr."""

    dim: int
    subspaces: tuple[Matrix, ...]
    int_bases: tuple[tuple[tuple[int, ...], ...], ...] = field(
        init=False, repr=False, compare=False
    )
    annihilators: tuple[tuple[tuple[int, ...], ...], ...] = field(
        init=False, repr=False, compare=False
    )
    int_projections: tuple[tuple[tuple[tuple[int, ...], ...], int], ...] = field(
        init=False, repr=False, compare=False
    )
    orthogonal: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        subspaces = _as_tuple(self.subspaces, "subspace bases must be an iterable", 3)
        object.__setattr__(self, "subspaces", subspaces)
        _require_exact(
            (x for rows in self.subspaces for v in rows for x in v), "basis entries"
        )
        n = self.dim
        bases, annihilators, stacked = [], [], []
        for rows in self.subspaces:
            if not rows:
                raise DegenerateDSD("zero subspace in decomposition")
            if any(len(v) != n for v in rows):
                raise DimensionMismatch("basis vector of wrong length")
            ints = linalg._int_rows(rows)
            # _kernel reorders the list it is given, never the rows in it
            null = [tuple(v) for _, v in linalg._kernel(list(ints))]
            if len(null) != n - len(rows):
                raise DegenerateDSD("subspace basis rows are dependent")
            bases.append(tuple(map(tuple, ints)))
            annihilators.append(tuple(null))
            stacked.extend(ints)
        if len(stacked) != n or len(linalg._basis(stacked)) != n:
            raise DegenerateDSD("subspaces do not give a direct sum of the space")
        # last, so that every input refused by a check above keeps its error
        _require_size("dimension must be a non-negative int", n)
        object.__setattr__(self, "int_bases", tuple(bases))
        object.__setattr__(self, "annihilators", tuple(annihilators))
        object.__setattr__(
            self, "int_projections", tuple(map(_int_projection, bases))
        )
        # scaling a row to integers does not change whether a dot product is 0
        object.__setattr__(
            self,
            "orthogonal",
            not any(
                any(row)
                for a, b in itertools.combinations(bases, 2)
                for row in linalg._dots(a, b)
            ),
        )

    @classmethod
    def standard(cls, n: int) -> "DSD":
        _require_size("dimension must be a non-negative int", n)
        eye = linalg.identity(n)
        return cls(n, tuple((row,) for row in eye))

    @classmethod
    def from_vectors(cls, n: int, groups) -> "DSD":
        what = "groups must be iterables of vectors"
        groups = _as_tuple(groups, what, 2)
        return cls(n, tuple(tuple(_fractions(v, what) for v in g) for g in groups))

    def projections(self) -> tuple[Matrix, ...]:
        """The orthogonal projection onto each subspace, A^T (A A^T)^-1 A."""
        return tuple(
            tuple(linalg._over(row, d) for row in rows)
            for rows, d in self.int_projections
        )

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
            groups = data["subspaces"]
            rows = tuple(tuple(tuple(map(_json_number, v)) for v in g) for g in groups)
            return cls(data["dim"], rows)


def _int_projection(a) -> tuple[tuple[tuple[int, ...], ...], int]:
    """(P d, d) for the orthogonal projection P = A^T (A A^T)^-1 A onto
    the span of the independent integer rows A, with d the least common
    denominator of P.  Reducing [A A^T | A] gives [p_r e_r | Y_r], Y_r / p_r
    row r of (A A^T)^-1 A, which A^T then multiplies over the lcm of the
    p_r; dividing by the gcd of all of it leaves the least d."""
    k = len(a)
    rows = [gram + list(u) for gram, u in zip(linalg._dots(a, a), a)]
    linalg._echelon(rows, k)
    lead = lcm(*[row[r] for r, row in enumerate(rows)])
    y = [[x * (lead // row[r]) for x in row[k:]] for r, row in enumerate(rows)]
    p = linalg._dots(zip(*a), tuple(zip(*y)))
    g = gcd(lead, *itertools.chain.from_iterable(p))
    return tuple([tuple([x // g for x in row]) for row in p]), lead // g


@dataclass(frozen=True)
class Operator:
    """Symmetric matrix of exact rationals, also kept as integer rows F d
    over one denominator d (`int_matrix`, derived, so it takes no part in
    equality, hashing or the repr), which `commutator` multiplies.  `_grid`
    is the trusted path; the checking constructor takes the least d."""

    mat: Matrix
    int_matrix: tuple[tuple[tuple[int, ...], ...], int] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self):
        mat = _as_tuple(self.mat, "operator rows must be an iterable", 2)
        object.__setattr__(self, "mat", mat)
        n = len(self.mat)
        if any(len(row) != n for row in self.mat):
            raise DimensionMismatch("operator matrix must be square")
        _require_exact((x for row in self.mat for x in row), "operator entries")
        if self.mat != tuple(zip(*self.mat)):
            raise InvalidValue("operator matrix must be symmetric")
        ints, d = linalg._clear([x for row in self.mat for x in row])
        rows = tuple(tuple(ints[i * n : i * n + n]) for i in range(n))
        object.__setattr__(self, "int_matrix", (rows, d))

    @classmethod
    def _grid(cls, rows, d: int) -> "Operator":
        """The trusted constructor: symmetric integer rows over d, unchecked."""
        op = object.__new__(cls)
        op.__dict__.update(
            mat=tuple(linalg._over(row, d) for row in rows), int_matrix=(rows, d)
        )
        return op

    @property
    def dim(self) -> int:
        return len(self.mat)


class Compatibility(enum.Enum):
    COMMUTING = "Commuting"
    INCOMPATIBLE = "Incompatible"
    CONJUGATE = "Conjugate"


def inverse_image_partition(f: Attribute) -> Partition:
    """Partition of the ground set by the level sets of the attribute."""
    _require(Attribute, "expected an Attribute", f)
    return _from_rgs(f.ground, _canon(f.values))


def set_spectral_check(f: Attribute) -> bool:
    """Verify f = sum over its values r of r times the indicator of the
    r-level set, pointwise, and that the level sets resolve every subset
    into disjoint pieces (set-level resolution of identity).

    Both hold for every `Attribute` by construction: the level sets are
    the blocks of `inverse_image_partition(f)`, disjoint and covering, and
    each element lies in the one level set of its own value.  So the check
    returns True; `ditkit observable` prints it as a worked statement of
    the spectral decomposition, not as a test that can fail."""
    pi = inverse_image_partition(f)
    n = f.ground.n
    masks = _block_masks(pi)
    level = [f.values[blk[0]] for blk in pi.blocks]
    for i in range(n):
        total = sum((r for m, r in zip(masks, level) if m >> i & 1), Fraction(0))
        if total != f.values[i]:
            return False
    # resolution of identity: pieces that are disjoint and cover the
    # universe cut every subset s into the disjoint pieces s & m covering s
    return sum(m.bit_count() for m in masks) == n and reduce(or_, masks) == (1 << n) - 1


def _spectrum(eigenvalues, dsd: DSD) -> tuple[Fraction, ...]:
    """The eigenvalues as Fractions, once they pass the checks an operator
    built from a DSD needs: one per subspace, pairwise distinct, and
    pairwise orthogonal subspaces."""
    _require(DSD, "expected a DSD", dsd)
    values = _fractions(eigenvalues, "eigenvalues must be an iterable")
    if len(values) != len(dsd.subspaces):
        raise DimensionMismatch(
            f"{len(values)} eigenvalues for {len(dsd.subspaces)} subspaces"
        )
    if len(set(values)) != len(values):
        raise DuplicateEigenvalue("eigenvalues must be pairwise distinct")
    if not dsd.orthogonal:
        raise DegenerateDSD("operator construction needs orthogonal subspaces")
    return values


def _spectral_sum(values, dsd: DSD) -> tuple[tuple[tuple[int, ...], ...], int]:
    """F times `lead` as integer rows, and `lead`: F = sum of value times
    projection over the stored (P d, d), with `lead` the lcm of the
    den(value) d.  Over an orthogonal DSD this is the operator with each
    subspace as its value's eigenspace."""
    projections = dsd.int_projections
    lead = lcm(*[v.denominator * d for v, (_, d) in zip(values, projections)])
    scales = [
        v.numerator * (lead // (v.denominator * d))
        for v, (_, d) in zip(values, projections)
    ]
    return tuple(
        tuple([sum(map(mul, scales, entries)) for entries in zip(*rows)])
        for rows in zip(*[p for p, _ in projections])
    ), lead


def operator_from_dsd(eigenvalues, dsd: DSD) -> Operator:
    """F = sum of eigenvalue * projection over the decomposition."""
    return Operator._grid(*_spectral_sum(_spectrum(eigenvalues, dsd), dsd))


def operator_from_attribute(f: Attribute) -> Operator:
    """Diagonal operator with the attribute values as eigenvalues."""
    _require(Attribute, "expected an Attribute", f)
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


def _commutator(f: linalg.IntRows, g: linalg.IntRows) -> linalg.IntRows:
    """FG - GF on symmetric square integer rows.  Because G is symmetric,
    row j of G is its column j, so FG is F G^T; and because both are
    symmetric, GF = (FG)^T, so one product gives FG - (FG)^T."""
    fg = linalg._dots(f, g)
    return [[x - y for x, y in zip(row, col)] for row, col in zip(fg, zip(*fg))]


def commutator(f: Operator, g: Operator) -> Matrix:
    """[F, G] = FG - GF, from the stored F d_F and G d_G on integer rows,
    divided by d_F d_G."""
    _require(Operator, "expected an Operator", f)
    _require(Operator, "expected an Operator", g)
    if f.dim != g.dim:
        raise DimensionMismatch("operators act on different spaces")
    (f_rows, d_f), (g_rows, d_g) = f.int_matrix, g.int_matrix
    return tuple(
        linalg._over(row, d_f * d_g) for row in _commutator(f_rows, g_rows)
    )


def kernel(m: Matrix) -> Matrix:
    """Basis rows of the null space."""
    m = _as_tuple(m, "matrix rows must be an iterable", 2)
    if any(len(row) != len(m[0]) for row in m):
        raise DimensionMismatch("matrix rows must all have the same length")
    _require_exact((x for row in m for x in row), "matrix entries")
    return tuple(linalg._over(v, v[f]) for f, v in linalg._kernel(linalg._int_rows(m)))


def _cut(a, null_b) -> linalg.IntRows:
    """span(A) ∩ span(B) as integer rows x A, given integer rows A and an
    integer basis N_B of B's annihilator.  x A lies in B exactly when
    N_B (x A)^T = 0, so x runs over the kernel of the small matrix N_B A^T;
    the intersection is A itself when B is the whole space (N_B empty).
    When the rows of A are independent, these x A are too."""
    if not null_b:
        return list(map(list, a))
    xs = [x for _, x in linalg._kernel(linalg._dots(null_b, a))]
    return linalg._dots(xs, tuple(zip(*a)))


def _join_pieces(dsds) -> list[linalg.IntRows]:
    """The common refinement of DSDs of one space: the non-zero
    intersections of one subspace from each, as integer rows, refined one
    DSD at a time by `_cut`.  The pieces are independent, since every DSD
    is a direct sum, and fill Q^n exactly when the DSDs pairwise commute."""
    pieces = dsds[0].int_bases
    for d in dsds[1:]:
        pieces = [
            cut for piece in pieces for null_s in d.annihilators
            if (cut := _cut(piece, null_s))
        ]
    return pieces


def _se_dim(dsd_f: DSD, dsd_g: DSD) -> int:
    """The dimension of the span of the pairwise subspace intersections,
    the row count of `_join_pieces((dsd_f, dsd_g))`, without building the
    pieces: span(A) ∩ span(B) has dimension len(A) - rank(N_B A^T), the
    dimension of the kernel `_cut` takes its basis from, because the rows
    of A are independent; an empty N_B (B the whole space) has rank 0."""
    if dsd_f.dim != dsd_g.dim:
        raise DimensionMismatch("decompositions of different spaces")
    return sum(
        len(a) - len(linalg._echelon(linalg._dots(null_b, a), len(a)))
        for a in dsd_f.int_bases
        for null_b in dsd_g.annihilators
    )


def simultaneous_eigenspace(dsd_f: DSD, dsd_g: DSD) -> Matrix:
    """Canonical basis of the span of the pairwise subspace intersections,
    the pieces of `_join_pieces`: the space spanned by simultaneous
    eigenvectors."""
    _require(DSD, "expected a DSD", dsd_f)
    _require(DSD, "expected a DSD", dsd_g)
    if dsd_f.dim != dsd_g.dim:
        raise DimensionMismatch("decompositions of different spaces")
    rows = [v for piece in _join_pieces((dsd_f, dsd_g)) for v in piece]
    return linalg._rational(linalg._basis(rows))


def theorem_se_equals_kernel(ev_f, dsd_f: DSD, ev_g, dsd_g: DSD) -> bool:
    """Whether the simultaneous-eigenvector span fills the kernel of the
    commutator.  The containment span <= kernel always holds: for v with
    Fv = lambda v and Gv = mu v, FGv = lambda mu v = GFv.  So the two
    spaces are equal exactly when their dimensions are: the count of the
    independent pairwise pieces against n - rank [F, G].  Equality holds
    for commuting pairs and in dimension <= 2.  In dimension >= 3 the
    kernel can be strictly larger: F=diag(1,2,3) against the
    all-ones-off-diagonal operator leaves (1,-2,1) in the kernel although
    it is an eigenvector of neither."""
    values_f = _spectrum(ev_f, dsd_f)
    values_g = _spectrum(ev_g, dsd_g)
    se = _se_dim(dsd_f, dsd_g)
    # the sums are multiples of F and G, so their commutator is a
    # multiple of [F, G] with the same rank
    f, _ = _spectral_sum(values_f, dsd_f)
    g, _ = _spectral_sum(values_g, dsd_g)
    return se == dsd_f.dim - len(linalg._basis(_commutator(f, g)))


def classify(ev_f, dsd_f: DSD, ev_g, dsd_g: DSD) -> Compatibility:
    """Commuting, Incompatible, or Conjugate by the dimension of the
    simultaneous-eigenvector span (full, intermediate, zero), counted by
    `_se_dim`."""
    _spectrum(ev_f, dsd_f)
    _spectrum(ev_g, dsd_g)
    d = _se_dim(dsd_f, dsd_g)
    if d == dsd_f.dim:
        return Compatibility.COMMUTING
    if d == 0:
        return Compatibility.CONJUGATE
    return Compatibility.INCOMPATIBLE


def csca_complete(attrs) -> bool:
    """A family of attributes is complete when the join of their level-set
    partitions is discrete, equivalently when the value tuples
    (f(u), g(u), ...) separate the elements."""
    attrs = _as_tuple(attrs, "attributes must be an iterable")
    if not attrs:
        raise InvalidValue("need at least one attribute")
    for f in attrs:
        _require(Attribute, "attributes must be Attributes", f)
    return reduce(join, map(inverse_image_partition, attrs)).is_discrete()


def csco_complete(dsds) -> bool:
    """A family of DSDs is complete when the pieces of their common
    refinement are all lines.  The pieces are independent, so they fill
    Q^n, as they do exactly when the family pairwise commutes, when their
    row counts sum to n; otherwise NotCommuting is raised."""
    dsds = _as_tuple(dsds, "decompositions must be an iterable")
    if not dsds:
        raise InvalidValue("need at least one decomposition")
    for d in dsds:
        _require(DSD, "decompositions must be DSDs", d)
        if d.dim != dsds[0].dim:
            raise DimensionMismatch("decompositions of different spaces")
    pieces = _join_pieces(dsds)
    if sum(map(len, pieces)) != dsds[0].dim:
        raise NotCommuting("decompositions are not pairwise commuting")
    return all(len(piece) == 1 for piece in pieces)

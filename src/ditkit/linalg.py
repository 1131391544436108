"""Small exact linear algebra over Fraction for the observables layer.

Matrices are tuples of row tuples.  Everything is dense and exact; sizes
here are the ground-set size (tiny), so no pivoting strategy is needed.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence

Matrix = tuple[tuple[Fraction, ...], ...]
Vector = tuple[Fraction, ...]


def mat(rows: Iterable[Iterable]) -> Matrix:
    return tuple(tuple(Fraction(x) for x in row) for row in rows)


def zeros(rows: int, cols: int) -> Matrix:
    return tuple((Fraction(0),) * cols for _ in range(rows))


def identity(n: int) -> Matrix:
    return tuple(
        tuple(Fraction(1 if i == k else 0) for k in range(n)) for i in range(n)
    )


def transpose(a: Matrix) -> Matrix:
    return tuple(zip(*a)) if a else ()


def mat_add(a: Matrix, b: Matrix) -> Matrix:
    return tuple(
        tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a, b)
    )


def mat_sub(a: Matrix, b: Matrix) -> Matrix:
    return tuple(
        tuple(x - y for x, y in zip(ra, rb)) for ra, rb in zip(a, b)
    )


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    bt = transpose(b)
    return tuple(
        tuple(sum((x * y for x, y in zip(row, col)), Fraction(0)) for col in bt)
        for row in a
    )


def mat_vec(a: Matrix, v: Vector) -> Vector:
    return tuple(
        sum((x * y for x, y in zip(row, v)), Fraction(0)) for row in a
    )


def scale(a: Matrix, c) -> Matrix:
    c = Fraction(c)
    return tuple(tuple(c * x for x in row) for row in a)


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
    """The non-zero rows of the rref: a canonical basis of the row space."""
    reduced, pivots = rref(a)
    return reduced[: len(pivots)]


def spans_equal(a: Matrix, b: Matrix) -> bool:
    """Row spaces are equal iff the canonical bases coincide."""
    return row_basis(a) == row_basis(b)


def projection_onto_span(a: Matrix) -> Matrix:
    """Orthogonal projection onto the row space of `a` (rows need not be
    independent): P = B^T (B B^T)^{-1} B for any row basis B."""
    basis = row_basis(a)
    if not basis:
        ncols = len(a[0]) if a else 0
        return zeros(ncols, ncols)
    bt = transpose(basis)
    gram_inv = invert(mat_mul(basis, bt))
    return mat_mul(bt, mat_mul(gram_inv, basis))


def intersect_rowspaces(a: Matrix, b: Matrix) -> Matrix:
    """Basis of span(a) ∩ span(b): vectors satisfying both spaces'
    complement constraints, i.e. the kernel of the stacked nullspaces."""
    constraints = tuple(nullspace(a)) + tuple(nullspace(b))
    if not constraints:
        ncols = len(a[0]) if a else (len(b[0]) if b else 0)
        return identity(ncols)
    return nullspace(constraints)


def gram_schmidt(rows: Sequence[Vector]) -> Matrix:
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

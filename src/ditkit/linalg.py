"""Small exact linear algebra for the observables layer.

Matrices are tuples of row tuples of `Fraction`.  The module holds only
what the library calls: the identity, and the integer elimination behind
kernels and canonical row bases with its read-outs to `Fraction`.  It has
no products, no projection and no inverse: `observables` builds those on
integer rows and this elimination.  Everything is dense and exact; sizes
here are the ground-set size (tiny), so no pivoting strategy is needed.
Elimination runs on integer rows: each row is cleared of its denominators
once, and fraction-free Gauss-Jordan divides every row it produces by the
gcd of its entries, so entries stay small.  `Fraction` appears only in the
values returned.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable

Matrix = tuple[tuple[Fraction, ...], ...]
Vector = tuple[Fraction, ...]
IntRows = list[list[int]]

_ZERO = Fraction(0)


def identity(n: int) -> Matrix:
    return tuple(
        tuple(Fraction(1 if i == k else 0) for k in range(n)) for i in range(n)
    )


def _int_rows(a: Iterable[Iterable]) -> IntRows:
    """Each row times the lcm of its denominators: integer rows with the
    same row space, and so the same RREF and kernel."""
    out = []
    for row in a:
        d = lcm(*[x.denominator for x in row])
        out.append([x.numerator * (d // x.denominator) for x in row])
    return out


def _echelon(rows: IntRows, ncols: int) -> list[int]:
    """Fraction-free elimination on the first `ncols` columns of integer
    rows; returns the pivot columns.

    Works in place on the outer list: rows are swapped and replaced, but no
    row list is ever mutated, so callers may share row lists.  Row r ends
    up holding the r-th pivot.  Every row produced is divided by the gcd of
    its entries, and pivots are made positive.  The entries above each
    pivot are cleared too (Gauss-Jordan), so row r is the primitive integer
    multiple of the r-th RREF row, which is canonical for the row space.
    """
    nrows = len(rows)
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        at = next((i for i in range(r, nrows) if rows[i][c]), None)
        if at is None:
            continue
        prow = rows[at]
        rows[at] = rows[r]
        g = gcd(*prow)
        if prow[c] < 0:
            g = -g
        if g != 1:
            prow = [x // g for x in prow]
        rows[r] = prow
        pv = prow[c]
        for i in range(nrows):
            x = rows[i][c]
            if x and i != r:
                new = [pv * y - x * z for y, z in zip(rows[i], prow)]
                g = gcd(*new)
                rows[i] = [y // g for y in new] if g > 1 else new
        pivots.append(c)
        r += 1
    return pivots


def _over(row: Iterable[int], d: int) -> Vector:
    """The integer row divided by d, as Fractions."""
    return tuple(Fraction(x, d) if x else _ZERO for x in row)


def _rational(rows: IntRows) -> Matrix:
    """Canonical integer rows divided by their pivots: RREF rows."""
    return tuple(_over(row, next(filter(None, row))) for row in rows)


def _width(rows: IntRows) -> int:
    return len(rows[0]) if rows else 0


def _basis(rows: IntRows) -> IntRows:
    """Canonical integer basis of the row space: the primitive multiples
    of the non-zero RREF rows, pivots positive."""
    return rows[: len(_echelon(rows, _width(rows)))]


def _kernel(rows: IntRows) -> list[tuple[int, list[int]]]:
    """Kernel basis of integer rows as (free column f, vector) pairs: the
    nullspace vector of f, which is 1 at f, scaled by the lcm of the
    pivots it divides by."""
    ncols = _width(rows)
    pivots = _echelon(rows, ncols)
    out = []
    for f in range(ncols):
        if f in pivots:
            continue
        hits = [(row[f], row[c], c) for row, c in zip(rows, pivots) if row[f]]
        lead = lcm(*[p for _, p, _ in hits])
        vec = [0] * ncols
        vec[f] = lead
        for x, p, c in hits:
            vec[c] = -x * (lead // p)
        out.append((f, vec))
    return out


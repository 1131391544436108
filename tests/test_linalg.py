from __future__ import annotations

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from ditkit import linalg
from ditkit.linalg import identity
from ditkit.observables import _cut, kernel

import oracles
from oracles import gram_schmidt, mat, mat_vec, rank, row_basis, zeros


def F(x):
    return Fraction(x)


def canonical(a):
    """The library's canonical row basis: the RREF rows of the row space."""
    return linalg._rational(linalg._basis(linalg._int_rows(a)))


def intersect(a, b):
    """span(a) ∩ span(b) through `_cut`, on an independent integer basis
    of a and the integer annihilator of b."""
    null_b = [v for _, v in linalg._kernel(linalg._int_rows(b))]
    return _cut(linalg._basis(linalg._int_rows(a)), null_b)


small_matrices = st.integers(min_value=1, max_value=4).flatmap(
    lambda n: st.lists(
        st.lists(st.integers(min_value=-5, max_value=5), min_size=n, max_size=n),
        min_size=1,
        max_size=4,
    )
)


def leading_columns(rows):
    return [next(c for c, x in enumerate(row) if x) for row in rows]


def test_rref_hand_example():
    a = mat([[1, 2, 3], [2, 4, 7], [1, 2, 4]])
    basis = canonical(a)
    assert leading_columns(basis) == [0, 2]
    assert basis == ((F(1), F(2), F(0)), (F(0), F(0), F(1)))
    assert rank(a) == 2


def test_rank_examples():
    assert rank(mat([[1, 1], [1, 1]])) == 1
    assert rank(identity(3)) == 3
    assert rank(zeros(2, 3)) == 0


def test_nullspace_examples():
    assert kernel(zeros(2, 2)) == identity(2)
    assert kernel(mat([[0, 2], [-2, 0]])) == ()
    basis = kernel(mat([[1, 1], [1, 1]]))
    assert len(basis) == 1
    v = basis[0]
    assert v[0] + v[1] == 0 and v != (0, 0)


@settings(max_examples=60, deadline=None)
@given(small_matrices)
def test_rank_nullity(rows):
    a = mat(rows)
    assert rank(a) + len(kernel(a)) == len(a[0])
    for v in kernel(a):
        assert all(x == 0 for x in mat_vec(a, v))


def test_spans_equal_is_representation_free():
    a = mat([[1, 0], [0, 1]])
    b = mat([[1, 1], [1, -1]])
    assert canonical(a) == canonical(b)
    assert canonical(mat([[1, 0]])) != canonical(mat([[0, 1]]))
    assert canonical(mat([[2, 2], [1, 1]])) == ((F(1), F(1)),)


def test_intersection_examples():
    e1 = mat([[1, 0]])
    diag = mat([[1, 1]])
    assert intersect(e1, diag) == []
    plane_a = mat([[1, 0, 0], [0, 1, 0]])
    plane_b = mat([[0, 1, 0], [0, 0, 1]])
    assert intersect(plane_a, plane_b) == [[0, 1, 0]]
    assert canonical(intersect(plane_a, plane_a)) == canonical(plane_a)
    # the whole space has no annihilator: the cut is A itself
    assert _cut(((2, 1, 0), (0, 0, 3)), ()) == [[2, 1, 0], [0, 0, 3]]


@settings(max_examples=60, deadline=None)
@given(small_matrices, st.randoms(use_true_random=False))
def test_intersection_is_contained_in_both(rows, rnd):
    a = mat(rows)
    n = len(rows[0])
    b = mat([[rnd.randint(-3, 3) for _ in range(n)] for _ in range(len(rows))])
    cut = mat(intersect(a, b))
    for v in cut:
        # v in span(a) iff stacking does not raise the rank; same for b
        assert rank(tuple(row_basis(a)) + (v,)) == rank(a)
        assert rank(tuple(row_basis(b)) + (v,)) == rank(b)


def test_gram_schmidt_orthogonalizes_and_spans():
    rows = mat([[1, 1, 0], [1, 0, 1], [2, 1, 1]])  # third is dependent
    ortho = gram_schmidt(rows)
    assert len(ortho) == 2
    dot = sum((x * y for x, y in zip(ortho[0], ortho[1])), F(0))
    assert dot == 0
    assert canonical(ortho) == canonical(rows[:2])


# --- differential tests against the Fraction Gauss-Jordan oracle ---


@st.composite
def matrices(draw, shape=None):
    """1-9 rows and columns of mixed-denominator entries, some columns
    zeroed and some rows replaced by multiples of earlier ones; half of
    them built as products with a small inner dimension, so the rank is
    low and kernels are large.  Entries come from a drawn seeded
    generator, which keeps each example cheap to draw."""
    nrows, ncols = shape or (draw(st.integers(1, 9)), draw(st.integers(1, 9)))
    low_rank = draw(st.booleans())
    rng = draw(st.randoms(use_true_random=False))

    def entry():
        kind = rng.randrange(3)
        return Fraction(0 if kind == 0 else rng.randint(-9, 9),
                        rng.randint(1, 12) if kind == 2 else 1)

    def block(r, c):
        return [[entry() for _ in range(c)] for _ in range(r)]

    if low_rank:
        k = rng.randint(0, min(nrows, ncols))
        right = block(k, ncols)
        rows = [
            [sum((x * r[j] for x, r in zip(row, right)), F(0)) for j in range(ncols)]
            for row in block(nrows, k)
        ]
    else:
        rows = block(nrows, ncols)
    for j in range(ncols):
        if rng.randrange(4) == 0:
            for row in rows:
                row[j] = F(0)
    for i in range(1, nrows):
        if rng.randrange(4) == 0:
            c = rng.choice([1, -1, 2, Fraction(1, 3), Fraction(-5, 2)])
            rows[i] = [c * x for x in rows[rng.randrange(i)]]
    return mat(rows)


@settings(max_examples=400, deadline=None)
@given(matrices())
def test_rref_rank_and_nullspace_match_the_fraction_oracle(a):
    reduced, pivots = oracles.rref(a)
    basis = canonical(a)
    assert leading_columns(basis) == pivots
    assert basis == reduced[: len(pivots)]
    assert linalg._echelon(linalg._int_rows(a), len(a[0])) == pivots
    assert kernel(a) == oracles.nullspace(a)


@st.composite
def matrix_pairs(draw):
    ncols = draw(st.integers(1, 9))
    a = draw(matrices(shape=(draw(st.integers(1, 9)), ncols)))
    b = draw(matrices(shape=(draw(st.integers(1, 9)), ncols)))
    return a, b


@settings(max_examples=300, deadline=None)
@given(matrix_pairs(), st.sampled_from([1, -1, 3, Fraction(2, 7)]))
def test_row_space_operations_match_the_fraction_oracle(pair, c):
    a, b = pair
    assert (canonical(a) == canonical(b)) == (row_basis(a) == row_basis(b))
    # the rows of the cut are independent, and span the oracle's meet
    cut = intersect(a, b)
    assert canonical(cut) == row_basis(oracles.intersect_rowspaces(a, b))
    assert len(canonical(cut)) == len(cut)
    # the same span from other rows: scaled, each plus the one before
    other = tuple(
        tuple(c * x + y for x, y in zip(row, prev))
        for row, prev in zip(a, ((F(0),) * len(a[0]),) + a)
    )
    assert canonical(a) == canonical(other)


def test_spans_equal_ignores_row_scaling():
    # canonical integer bases must be primitive with positive pivots
    assert canonical(mat([[2, 2], [0, 3]])) == canonical(mat([[1, 1], [0, -1]]))
    assert canonical(mat([[-4, 6, 0]])) == canonical(mat([["2/3", -1, 0]]))
    assert canonical(mat([[1, 2]])) != canonical(mat([[2, 1]]))


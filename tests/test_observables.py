from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction
from functools import reduce

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ditkit import (
    DSD,
    Attribute,
    Compatibility,
    DegenerateDSD,
    DimensionMismatch,
    DitkitError,
    DuplicateEigenvalue,
    GroundMismatch,
    GroundSet,
    InvalidValue,
    NotCommuting,
    Operator,
    classify,
    commutator,
    csca_complete,
    csco_complete,
    dsd_from_attribute,
    inverse_image_partition,
    kernel,
    make_partition,
    operator_from_attribute,
    operator_from_dsd,
    set_spectral_check,
    simultaneous_eigenspace,
    theorem_se_equals_kernel,
)
from ditkit import linalg, observables
from ditkit.linalg import identity

import oracles
from oracles import (
    distinct_eigenvalues,
    mat,
    mat_add,
    mat_vec,
    random_dsd,
    random_orthogonal_dsd,
    rank,
    row_basis,
    zeros,
)

U3 = GroundSet(("a", "b", "c"))
U4 = GroundSet(("a", "b", "c", "d"))

F = Fraction


# --- attributes and level sets ---


def test_attribute_basics():
    f = Attribute.from_map(U3, {"a": 1, "b": "1/2", "c": 1})
    assert f("a") == 1
    assert f("b") == F(1, 2)
    assert f.image() == (F(1), F(1, 2))
    with pytest.raises(ValueError):
        Attribute(U3, (F(1),))


def test_attribute_json_round_trip():
    f = Attribute.from_values(U3, [1, "1/2", -3])
    assert Attribute.from_json(f.to_json()) == f
    with pytest.raises(DitkitError, match="values"):
        Attribute.from_json({"ground": ["a"]})
    for wrong in ([], {"ground": ["a"], "values": 5}):
        with pytest.raises(DitkitError, match="wrong shape"):
            Attribute.from_json(wrong)


def test_inverse_image_partition():
    f = Attribute.from_values(U3, [1, 2, 1])
    assert inverse_image_partition(f) == make_partition(U3, [["a", "c"], ["b"]])
    g = Attribute.from_values(U3, [5, 5, 5])
    assert inverse_image_partition(g).num_blocks == 1
    h = Attribute.from_values(U3, [1, 2, 3])
    assert inverse_image_partition(h).is_discrete()
    rng = random.Random(5)
    for _ in range(200):
        n = rng.randint(1, 8)
        ground = GroundSet(tuple(f"u{i}" for i in range(n)))
        f = Attribute.from_values(
            ground, [Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(n)]
        )
        got, expected = inverse_image_partition(f), oracles.level_partition(f)
        assert got == expected and got.blocks == expected.blocks


def test_set_spectral_check_examples_and_random():
    assert set_spectral_check(Attribute.from_values(U3, [1, 2, 1]))
    assert set_spectral_check(Attribute.from_values(U4, [7, 7, 7, 7]))
    rng = random.Random(11)
    for n in [rng.randint(1, 6) for _ in range(30)] + [10, 11]:
        ground = GroundSet(tuple(f"u{i}" for i in range(n)))
        f = Attribute.from_values(
            ground, [rng.randint(-3, 3) for _ in range(n)]
        )
        assert set_spectral_check(f)


# --- direct-sum decompositions ---


def test_dsd_validation():
    with pytest.raises(DegenerateDSD):
        DSD.from_vectors(2, [[[1, 0], [1, 0]], [[0, 1]]])  # dependent rows
    with pytest.raises(DegenerateDSD):
        DSD.from_vectors(2, [[[1, 0]]])  # does not fill the space
    with pytest.raises(DegenerateDSD):
        DSD.from_vectors(2, [[[1, 0]], [[1, 1]], [[0, 1]]])  # overfills
    with pytest.raises(DimensionMismatch):
        DSD.from_vectors(2, [[[1, 0, 0]], [[0, 1]]])
    with pytest.raises(DegenerateDSD):
        DSD(2, (((F(0), F(0)),), ((F(0), F(1)),)))
    with pytest.raises(DegenerateDSD, match="zero subspace"):
        DSD.from_vectors(2, [[], [[1, 0], [0, 1]]])


@pytest.mark.parametrize("dim, groups", [
    (2.0, [[[1, 0]], [[0, 1]]]),
    (1.0, [[[1]]]),
    (True, [[[1]]]),
    (False, []),
    (F(2), [[[1, 0]], [[0, 1]]]),
])
def test_dsd_dimension_must_be_an_int(dim, groups):
    with pytest.raises(InvalidValue, match="dimension must be a non-negative int"):
        DSD.from_vectors(dim, groups)
    with pytest.raises(InvalidValue, match="dimension must be a non-negative int"):
        DSD.from_json({"dim": dim, "subspaces": groups})
    with pytest.raises(InvalidValue, match="dimension must be a non-negative int"):
        DSD.standard(dim)


def test_standard_dsd_refuses_a_negative_dimension():
    # the checking constructor refuses DSD(-2, groups) by the shape of its
    # subspaces first, as a DimensionMismatch or a DegenerateDSD
    with pytest.raises(InvalidValue, match="dimension must be a non-negative int"):
        DSD.standard(-2)


def test_dsd_dimension_errors_keep_their_first_cause():
    # a dimension that no vector length matches fails the length check,
    # as it always did, before the dimension's own type is looked at
    with pytest.raises(DimensionMismatch, match="wrong length"):
        DSD.from_vectors("2", [[[1, 0]], [[0, 1]]])
    with pytest.raises(DegenerateDSD, match="direct sum"):
        DSD.from_vectors(-1, [])
    with pytest.raises(DegenerateDSD, match="direct sum"):
        DSD.from_vectors(2.0, [[[1, 0]], [[2, 0]]])
    assert DSD.from_vectors(0, []).subspaces == ()


def test_dsd_keeps_integer_bases_and_annihilators():
    d = DSD.from_vectors(3, [[[1, "1/2", 0], [0, 0, "2/3"]], [[1, -2, 0]]])
    assert d.int_bases == (((2, 1, 0), (0, 0, 2)), ((1, -2, 0),))
    for basis, null in zip(d.int_bases, d.annihilators):
        assert len(null) == d.dim - len(basis)
        assert all(sum(x * y for x, y in zip(u, v)) == 0 for u in basis for v in null)
        assert rank(mat(basis + null)) == d.dim
    assert DSD.from_vectors(2, [[[1, 1], [1, -1]]]).annihilators == ((),)
    skew = DSD.from_vectors(3, [[[2, 4, 0]], [[1, 1, 0], [0, 1, "1/3"]]])
    whole = DSD.from_vectors(2, [[[1, 1], [1, -1]]])
    for e in (d, skew, whole):
        for (p, den), rows in zip(e.int_projections, e.subspaces):
            assert math.gcd(den, *(x for row in p for x in row)) == 1
            assert mat([[F(x, den) for x in row] for row in p]) == (
                oracles.projection(rows)
            )
        assert e.orthogonal == all(
            sum(x * y for x, y in zip(u, v)) == 0
            for a, b in itertools.combinations(e.subspaces, 2)
            for u in a
            for v in b
        )
    assert (d.orthogonal, skew.orthogonal, whole.orthogonal) == (True, False, True)
    assert whole.int_projections == ((((1, 0), (0, 1)), 1),)


def test_derived_fields_leave_value_semantics_unchanged():
    rows = [[[1, "1/2", 0], [0, 0, 1]], [[1, -2, 0]]]
    d, e = DSD.from_vectors(3, rows), DSD.from_vectors(3, rows)
    assert d == e and hash(d) == hash(e)
    assert d != DSD.from_vectors(3, [[[2, 1, 0], [0, 0, 1]], [[1, -2, 0]]])
    assert repr(d) == f"DSD(dim=3, subspaces={d.subspaces!r})"
    assert d.to_json() == {
        "dim": 3,
        "subspaces": [[["1", "1/2", "0"], ["0", "0", "1"]], [["1", "-2", "0"]]],
    }
    back = DSD.from_json(d.to_json())
    assert back == d and hash(back) == hash(d)
    assert (back.int_bases, back.annihilators) == (d.int_bases, d.annihilators)
    assert (back.int_projections, back.orthogonal) == (
        d.int_projections,
        d.orthogonal,
    )
    # ==, hash, repr and to_json ignore the stored projections and orthogonality
    object.__setattr__(e, "int_projections", ())
    object.__setattr__(e, "orthogonal", not d.orthogonal)
    assert e == d and hash(e) == hash(d)
    assert repr(e) == repr(d) and e.to_json() == d.to_json()
    # and those of an operator ignore its stored integer rows: the swap
    # built from a DSD keeps (F 2, 2), the checked one (F, 1)
    built = operator_from_dsd((1, -1), DSD.from_vectors(2, [[[1, 1]], [[1, -1]]]))
    checked = Operator(mat([[0, 1], [1, 0]]))
    assert built.int_matrix == (((0, 2), (2, 0)), 2)
    assert checked.int_matrix == (((0, 1), (1, 0)), 1)
    assert built == checked and hash(built) == hash(checked)
    assert repr(built) == repr(checked) == f"Operator(mat={checked.mat!r})"
    object.__setattr__(checked, "int_matrix", ((), 7))
    assert built == checked and hash(built) == hash(checked)
    assert repr(built) == repr(checked)


def test_built_dsds_are_queried_without_new_eliminations(monkeypatch):
    f = DSD.from_vectors(3, [[[1, 1, 0], [0, 0, 1]], [[1, -1, 0]]])
    g = DSD.from_vectors(3, [[[1, 0, 0]], [[0, 1, 1]], [[0, 1, -1]]])
    calls = []
    echelon = linalg._echelon

    def counted(rows, ncols):
        calls.append(ncols)
        return echelon(rows, ncols)

    monkeypatch.setattr(linalg, "_echelon", counted)
    operator_from_dsd((1, 2), f)
    operator_from_dsd((1, 2, 3), g)
    f.projections()
    g.projections()
    assert calls == []
    assert not theorem_se_equals_kernel((1, 2), f, (1, 2, 3), g)
    # one cut per pair of subspaces (no subspace of g is the whole space),
    # then the rank of the 3 x 3 commutator
    assert calls == [len(a) for a in f.int_bases for _ in g.annihilators] + [3]


def test_dsd_standard_and_orthogonality():
    d = DSD.standard(3)
    assert len(d.subspaces) == 3
    assert d.orthogonal
    skew = DSD.from_vectors(2, [[[1, 0]], [[1, 1]]])
    assert not skew.orthogonal


def test_dsd_projections_resolve_identity():
    d = DSD.from_vectors(2, [[[1, 1]], [[1, -1]]])
    p1, p2 = d.projections()
    assert mat_add(p1, p2) == identity(2)
    assert p1 == mat([["1/2", "1/2"], ["1/2", "1/2"]])


def test_dsd_json_round_trip():
    d = DSD.from_vectors(3, [[[1, 1, 0], [0, 0, 1]], [[1, -1, 0]]])
    assert DSD.from_json(d.to_json()) == d
    with pytest.raises(DitkitError, match="subspaces"):
        DSD.from_json({"dim": 1})
    for wrong in ([], {"dim": 1, "subspaces": 5}, {"dim": 1, "subspaces": [5]}):
        with pytest.raises(DitkitError, match="wrong shape"):
            DSD.from_json(wrong)


# --- operators ---


def test_operator_must_be_symmetric_square():
    with pytest.raises(ValueError):
        Operator(mat([[0, 1], [0, 0]]))
    with pytest.raises(DimensionMismatch):
        Operator(mat([[1, 2, 3], [2, 1, 4]]))


@pytest.mark.parametrize("m, error, message", [
    (5, DitkitError, "^operator rows must be an iterable$"),
    ([5], DitkitError, "^operator rows must be an iterable$"),
    ([[1, 2]], DimensionMismatch, "^operator matrix must be square$"),
    ([[1, 2], [3]], DimensionMismatch, "^operator matrix must be square$"),
    ([[0, 1], [0, 0]], InvalidValue, "^operator matrix must be symmetric$"),
    ([[F(1, 2), 1], [2, 0]], InvalidValue, "^operator matrix must be symmetric$"),
    ([[0.5]], InvalidValue, "^operator entries must be int or Fraction, got 0.5$"),
    ([[True]], InvalidValue, "^operator entries must be int or Fraction, got True$"),
    ([[1, None], [None, 1]], InvalidValue, "got None$"),
    ([[[1]]], InvalidValue, r"got \[1\]$"),
])
def test_bad_operators_keep_their_error(m, error, message):
    with pytest.raises(error, match=message):
        Operator(m)


def test_operators_from_dsds_take_the_trusted_path(monkeypatch):
    calls = []
    post_init = Operator.__post_init__

    def counted(self):
        calls.append(self)
        post_init(self)

    monkeypatch.setattr(Operator, "__post_init__", counted)
    d = DSD.from_vectors(3, [[[1, 1, 0], [0, 0, 1]], [[1, -1, 0]]])
    f = operator_from_dsd((1, F(1, 2)), d)
    assert calls == []
    assert Operator(f.mat) == f and len(calls) == 1


def test_operator_from_dsd_golden():
    # eigenvalues +1 on span{(1,1)}, -1 on span{(1,-1)} gives the swap matrix
    d = DSD.from_vectors(2, [[[1, 1]], [[1, -1]]])
    g = operator_from_dsd([1, -1], d)
    assert g.mat == mat([[0, 1], [1, 0]])


GOOD2 = DSD.from_vectors(2, [[[1, 1]], [[1, -1]]])
SKEW2 = DSD.from_vectors(2, [[[1, 0]], [[1, 1]]])
# valid, and of another dimension: its own checks pass, so any error it
# draws out is the dimension mismatch, raised after both spectra
GOOD3 = ((1, 2, 3), DSD.standard(3))
# invalid as well, with a message of its own
BAD3 = ((1,), DSD.standard(3))

BAD_SPECTRA = [
    (([1], GOOD2), DimensionMismatch, "^1 eigenvalues for 2 subspaces$"),
    (([2, 2], GOOD2), DuplicateEigenvalue, "pairwise distinct"),
    (([1, 2], SKEW2), DegenerateDSD, "orthogonal subspaces"),
]

ROUTES = {
    "operator_from_dsd": lambda bad: operator_from_dsd(*bad),
    "classify-first": lambda bad: classify(*bad, *GOOD3),
    "classify-second": lambda bad: classify(*GOOD3, *bad),
    "classify-both": lambda bad: classify(*bad, *BAD3),
    "theorem-first": lambda bad: theorem_se_equals_kernel(*bad, *GOOD3),
    "theorem-second": lambda bad: theorem_se_equals_kernel(*GOOD3, *bad),
    "theorem-both": lambda bad: theorem_se_equals_kernel(*bad, *BAD3),
}


@pytest.mark.parametrize("route", ROUTES)
def test_operator_from_dsd_errors(route):
    """Each spectrum is checked (count, distinctness, orthogonality, in that
    order), the first operand's before the second's, and both before the
    dimensions are compared."""
    for bad, error, message in BAD_SPECTRA:
        with pytest.raises(error, match=message):
            ROUTES[route](bad)


@pytest.mark.parametrize("route", ROUTES)
@pytest.mark.parametrize("eigenvalues, error, message", [
    pytest.param((0.5, 1), InvalidValue, "0.5 is not exact", id="float"),
    pytest.param((True, 2), InvalidValue, "True is not exact", id="bool"),
    pytest.param(("a", 1), InvalidValue, "'a' is not a rational", id="string"),
    pytest.param(5, DitkitError, "eigenvalues must be an iterable", id="scalar"),
])
def test_eigenvalues_are_exact_inputs(route, eigenvalues, error, message):
    with pytest.raises(error, match=message):
        ROUTES[route]((eigenvalues, GOOD2))


@pytest.mark.parametrize("route", [classify, theorem_se_equals_kernel])
def test_decompositions_of_different_dimension(route):
    with pytest.raises(DimensionMismatch, match="decompositions of different spaces"):
        route([1, -1], GOOD2, *GOOD3)


def test_operator_reconstructs_from_random_dsd():
    rng = random.Random(23)
    for _ in range(20):
        n = rng.randint(1, 4)
        d = random_orthogonal_dsd(n, rng)
        ev = distinct_eigenvalues(len(d.subspaces), rng)
        f = operator_from_dsd(ev, d)
        # each subspace vector is an eigenvector with its eigenvalue
        for value, rows in zip(ev, d.subspaces):
            for v in rows:
                image = tuple(
                    sum((f.mat[i][k] * v[k] for k in range(n)), F(0))
                    for i in range(n)
                )
                assert image == tuple(value * x for x in v)


def test_attribute_operator_matches_dsd_route():
    f = Attribute.from_values(U3, [1, 2, 1])
    direct = operator_from_attribute(f)
    values, dsd = dsd_from_attribute(f)
    assert values == (F(1), F(2))
    assert operator_from_dsd(values, dsd) == direct
    assert direct.mat == mat([[1, 0, 0], [0, 2, 0], [0, 0, 1]])


# --- commutators, kernels, simultaneous eigenvectors ---


def test_commutator_golden():
    f = Operator(mat([[1, 0], [0, -1]]))
    g = Operator(mat([[0, 1], [1, 0]]))
    assert commutator(f, g) == mat([[0, 2], [-2, 0]])
    assert commutator(f, f) == zeros(2, 2)
    with pytest.raises(DimensionMismatch):
        commutator(f, Operator(identity(3)))


def _commutator_oracle(f, g):
    fg, gf = oracles.mat_mul(f, g), oracles.mat_mul(g, f)
    return tuple(tuple(x - y for x, y in zip(r, s)) for r, s in zip(fg, gf))


mixed_entries = st.one_of(
    st.integers(-6, 6),
    st.builds(Fraction, st.integers(-6, 6), st.sampled_from([2, 3, 4, 5, 7, 9, 12])),
)


@st.composite
def symmetric_matrices(draw, n):
    """n x n symmetric matrices mixing int and Fraction entries whose
    denominators differ from row to row."""
    m = [[None] * n for _ in range(n)]
    for i in range(n):
        for k in range(i, n):
            m[i][k] = m[k][i] = draw(mixed_entries)
    return tuple(map(tuple, m))


@st.composite
def operators(draw, n):
    """Operators on Q^n from either path: the checking constructor on a
    symmetric matrix, or `operator_from_dsd` over a random orthogonal DSD,
    whose stored denominator need not be least."""
    if draw(st.booleans()):
        return Operator(draw(symmetric_matrices(n)))
    rng = random.Random(draw(st.integers(0, 2**32)))
    dsd = random_orthogonal_dsd(n, rng)
    scale = draw(st.sampled_from([1, 2, 3, 6]))
    ev = tuple(v / scale for v in distinct_eigenvalues(len(dsd.subspaces), rng))
    return operator_from_dsd(ev, dsd)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 5).flatmap(operators))
def test_stored_integer_rows_equal_the_matrix(op):
    rows, d = op.int_matrix
    assert all(type(x) is int for row in rows for x in row)
    assert tuple(tuple(F(x, d) for x in row) for row in rows) == op.mat
    # the checking constructor keeps the least denominator
    checked = Operator(op.mat)
    assert checked == op
    assert checked.int_matrix[1] == math.lcm(
        *[F(x).denominator for row in op.mat for x in row]
    )


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 5).flatmap(lambda n: st.tuples(operators(n), operators(n))))
@example((Operator(((F(1, 2), 1), (1, F(1, 3)))), Operator(((0, 1), (1, 0)))))
@example((Operator(((F(1, 2), 0), (0, 1))), Operator(((F(1, 3), 1), (1, 0)))))
def test_commutator_matches_the_fraction_oracle(pair):
    f, g = pair
    got = commutator(f, g)
    assert got == _commutator_oracle(f.mat, g.mat)
    assert all(type(x) is Fraction for row in got for x in row)


def test_kernel_examples():
    assert kernel(zeros(2, 2)) == identity(2)
    assert kernel(mat([[0, 2], [-2, 0]])) == ()
    k = kernel(mat([[1, 1], [1, 1]]))
    assert len(k) == 1 and k[0][0] + k[0][1] == 0 and k[0] != (0, 0)
    assert kernel(()) == ()


@pytest.mark.parametrize("m, error, message", [
    pytest.param(((0.5, 1),), InvalidValue, "entries must be int", id="float"),
    pytest.param((("a",),), InvalidValue, "entries must be int", id="string"),
    pytest.param(((True, 1),), InvalidValue, "entries must be int", id="bool"),
    pytest.param(((1, 2), (3,)), DimensionMismatch, "same length", id="ragged"),
    pytest.param(5, DitkitError, "rows must be an iterable", id="scalar"),
    pytest.param((5,), DitkitError, "rows must be an iterable", id="scalar-row"),
])
def test_kernel_checks_its_matrix(m, error, message):
    with pytest.raises(error, match=message):
        kernel(m)


def test_simultaneous_eigenspace_cases():
    diag = DSD.standard(2)
    pm = DSD.from_vectors(2, [[[1, 1]], [[1, -1]]])
    assert simultaneous_eigenspace(diag, diag) == identity(2)
    assert simultaneous_eigenspace(diag, pm) == ()
    coarse = DSD.from_vectors(3, [[[1, 0, 0], [0, 1, 0]], [[0, 0, 1]]])
    se = simultaneous_eigenspace(DSD.standard(3), coarse)
    assert len(se) == 3
    with pytest.raises(DimensionMismatch):
        simultaneous_eigenspace(diag, DSD.standard(3))


def test_se_equals_kernel_conjugate_pair():
    diag = DSD.standard(2)
    pm = DSD.from_vectors(2, [[[1, 1]], [[1, -1]]])
    assert theorem_se_equals_kernel([1, -1], diag, [1, -1], pm)
    assert classify([1, -1], diag, [1, -1], pm) is Compatibility.CONJUGATE


def test_se_equals_kernel_commuting_pair():
    d1 = DSD.standard(3)
    d2 = DSD.from_vectors(3, [[[1, 0, 0], [0, 1, 0]], [[0, 0, 1]]])
    assert theorem_se_equals_kernel([1, 2, 3], d1, [5, 7], d2)
    assert classify([1, 2, 3], d1, [5, 7], d2) is Compatibility.COMMUTING


def test_classify_incompatible_middle_ground():
    # share only the third coordinate axis: 0 < dim SE=1 < 3
    f_dsd = DSD.standard(3)
    g_dsd = DSD.from_vectors(
        3, [[[1, 1, 0]], [[1, -1, 0]], [[0, 0, 1]]]
    )
    se = simultaneous_eigenspace(f_dsd, g_dsd)
    assert row_basis(se) == row_basis(mat([[0, 0, 1]]))
    assert classify([1, 2, 3], f_dsd, [4, 5, 6], g_dsd) is Compatibility.INCOMPATIBLE
    assert theorem_se_equals_kernel([1, 2, 3], f_dsd, [4, 5, 6], g_dsd)


def test_se_contained_in_kernel_random_pairs():
    # the containment direction holds for every pair; classify always
    # agrees with the dimension count it is defined by
    rng = random.Random(37)
    for _ in range(60):
        n = rng.randint(2, 4)
        dsd_f = random_orthogonal_dsd(n, rng)
        dsd_g = random_orthogonal_dsd(n, rng)
        ev_f = distinct_eigenvalues(len(dsd_f.subspaces), rng)
        ev_g = distinct_eigenvalues(len(dsd_g.subspaces), rng)
        f = operator_from_dsd(ev_f, dsd_f)
        g = operator_from_dsd(ev_g, dsd_g)
        se = simultaneous_eigenspace(dsd_f, dsd_g)
        ker = kernel(commutator(f, g))
        for v in se:
            assert rank(tuple(ker) + (v,)) == rank(ker)
        verdict = classify(ev_f, dsd_f, ev_g, dsd_g)
        expected = {
            n: Compatibility.COMMUTING,
            0: Compatibility.CONJUGATE,
        }.get(len(se), Compatibility.INCOMPATIBLE)
        assert verdict is expected


@st.composite
def dsd_pairs(draw):
    """Two decompositions of Q^n: the standard one, an orthogonal one or
    one in general position, and half the time a second one that regroups
    the first one's basis rows, one row sheared onto another, so that the
    pairwise intersections are often neither zero nor whole."""
    n = draw(st.integers(1, 5))
    rng = random.Random(draw(st.integers(0, 2**32)))
    makers = (DSD.standard, lambda n: random_orthogonal_dsd(n, rng),
              lambda n: random_dsd(n, rng))
    f = draw(st.sampled_from(makers))(n)
    if draw(st.booleans()):
        return f, draw(st.sampled_from(makers))(n)
    rows = [v for sub in f.subspaces for v in sub]
    rng.shuffle(rows)
    if n > 1 and draw(st.booleans()):
        rows[0] = tuple(x + y for x, y in zip(rows[0], rows[1]))
    cuts = sorted(rng.sample(range(1, n), rng.randint(0, n - 1)))
    return f, DSD(n, tuple(tuple(rows[i:j]) for i, j in zip([0, *cuts], [*cuts, n])))


@settings(max_examples=200, deadline=None)
@given(dsd_pairs())
def test_se_dimension_by_rank_matches_the_pieces(pair):
    for a, b in (pair, pair[::-1]):
        dim = observables._se_dim(a, b)
        assert dim == sum(map(len, observables._join_pieces((a, b))))
        assert dim == len(oracles.simultaneous_eigenspace(a, b))


def test_se_equals_kernel_dimension_two_random():
    # in dimension 2 a shared eigenvector forces commuting, so the two
    # spaces agree for every pair
    rng = random.Random(43)
    for _ in range(40):
        dsd_f = random_orthogonal_dsd(2, rng)
        dsd_g = random_orthogonal_dsd(2, rng)
        ev_f = distinct_eigenvalues(len(dsd_f.subspaces), rng)
        ev_g = distinct_eigenvalues(len(dsd_g.subspaces), rng)
        assert theorem_se_equals_kernel(ev_f, dsd_f, ev_g, dsd_g)


def test_se_equals_kernel_commuting_random():
    # operators sharing one eigenbasis commute; both spaces are then full
    rng = random.Random(47)
    for _ in range(40):
        n = rng.randint(2, 4)
        shared = random_orthogonal_dsd(n, rng)
        # coarsen the shared decomposition two independent ways
        def coarsen(dsd):
            groups: dict[int, list] = {}
            for rows in dsd.subspaces:
                groups.setdefault(rng.randrange(2), []).extend(rows)
            return DSD(n, tuple(tuple(g) for g in groups.values() if g))

        dsd_f, dsd_g = coarsen(shared), coarsen(shared)
        ev_f = distinct_eigenvalues(len(dsd_f.subspaces), rng)
        ev_g = distinct_eigenvalues(len(dsd_g.subspaces), rng)
        assert theorem_se_equals_kernel(ev_f, dsd_f, ev_g, dsd_g)
        f = operator_from_dsd(ev_f, dsd_f)
        g = operator_from_dsd(ev_g, dsd_g)
        assert commutator(f, g) == zeros(n, n)


def test_kernel_can_strictly_exceed_se_in_dimension_three():
    # F = diag(1,2,3); G has eigenvalue 2 on the diagonal line and -1 on
    # its orthogonal plane.  (1,-2,1) kills the commutator yet is an
    # eigenvector of neither operator, so span equality fails.
    dsd_f = DSD.standard(3)
    dsd_g = DSD.from_vectors(3, [[[1, 1, 1]], [[1, -1, 0], [1, 1, -2]]])
    ev_f, ev_g = [1, 2, 3], [2, -1]
    assert simultaneous_eigenspace(dsd_f, dsd_g) == ()
    f = operator_from_dsd(ev_f, dsd_f)
    g = operator_from_dsd(ev_g, dsd_g)
    ker = kernel(commutator(f, g))
    assert row_basis(ker) == row_basis(mat([[1, -2, 1]]))
    assert not theorem_se_equals_kernel(ev_f, dsd_f, ev_g, dsd_g)
    assert classify(ev_f, dsd_f, ev_g, dsd_g) is Compatibility.CONJUGATE


# --- complete families ---


def test_csca_complete_pair():
    f = Attribute.from_values(U3, [1, 1, 2])
    g = Attribute.from_values(U3, [1, 2, 2])
    assert csca_complete([f, g])
    assert not csca_complete([f])
    assert not csca_complete([g])


def test_csca_value_tuples_must_separate():
    f = Attribute.from_values(U3, [1, 2, 3])
    assert csca_complete([f])
    with pytest.raises(GroundMismatch):
        csca_complete([f, Attribute.from_values(U4, [1, 2, 3, 4])])
    with pytest.raises(ValueError):
        csca_complete([])


def test_csca_complete_checks_its_input():
    f = Attribute.from_values(U3, [1, 2, 3])
    with pytest.raises(DitkitError, match="attributes must be an iterable"):
        csca_complete(5)
    for family in ([1], [f, "x"], [f, DSD.standard(3)]):
        with pytest.raises(InvalidValue, match="attributes must be Attributes"):
            csca_complete(family)
    with pytest.raises(GroundMismatch):
        csca_complete([f, Attribute.from_values(U4, [1, 2, 3, 4])])
    assert csca_complete(iter([f]))


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 6).flatmap(
        lambda n: st.lists(
            st.lists(st.fractions(-2, 2, max_denominator=2), min_size=n, max_size=n),
            min_size=1,
            max_size=4,
        )
    )
)
def test_csca_join_matches_tuple_separation_oracle(families):
    ground = GroundSet(tuple(f"u{i}" for i in range(len(families[0]))))
    attrs = [Attribute(ground, tuple(values)) for values in families]
    assert csca_complete(attrs) == oracles.csca_complete(attrs)


def test_csco_complete_examples():
    d1 = DSD.from_vectors(3, [[[1, 0, 0], [0, 1, 0]], [[0, 0, 1]]])
    d2 = DSD.from_vectors(3, [[[1, 0, 0]], [[0, 1, 0], [0, 0, 1]]])
    assert csco_complete([d1, d2])
    assert not csco_complete([d1])
    assert csco_complete([DSD.standard(4)])


def test_csco_rejects_noncommuting():
    diag = DSD.standard(2)
    pm = DSD.from_vectors(2, [[[1, 1]], [[1, -1]]])
    with pytest.raises(NotCommuting):
        csco_complete([diag, pm])
    with pytest.raises(ValueError):
        csco_complete([])
    with pytest.raises(DimensionMismatch):
        csco_complete([diag, DSD.standard(3)])


def test_csco_complete_checks_its_input():
    with pytest.raises(DitkitError, match="decompositions must be an iterable"):
        csco_complete(5)
    for family in ([1], [DSD.standard(2), "x"]):
        with pytest.raises(InvalidValue, match="decompositions must be DSDs"):
            csco_complete(family)
    assert csco_complete(iter([DSD.standard(2)]))


def test_csco_linearizes_csca():
    # the coordinate DSDs of a complete attribute family are a complete
    # family of decompositions, and vice versa
    f = Attribute.from_values(U3, [1, 1, 2])
    g = Attribute.from_values(U3, [1, 2, 2])
    _, df = dsd_from_attribute(f)
    _, dg = dsd_from_attribute(g)
    assert csco_complete([df, dg])
    assert not csco_complete([df])


# --- product attribute on a product ground set ---


def _product_attribute(f: Attribute, g: Attribute):
    """Injective pairing of two attributes on the product ground set."""
    labels = tuple(
        f"{x}.{y}" for x in f.ground.labels for y in g.ground.labels
    )
    ground = GroundSet(labels)
    # injective pairing: values of f and g are small here, scale separates
    values = [
        f.values[i] * 1000 + g.values[k]
        for i in range(f.ground.n)
        for k in range(g.ground.n)
    ]
    return ground, Attribute.from_values(ground, values)


def test_product_attribute_partition_is_product_of_partitions():
    f = Attribute.from_values(U3, [1, 2, 1])
    g = Attribute.from_values(GroundSet(("x", "y")), [3, 3])
    ground, fg = _product_attribute(f, g)
    got = inverse_image_partition(fg)
    # expected: blocks are cartesian products of the factor blocks
    pf = inverse_image_partition(f)
    pg = inverse_image_partition(g)
    expected_blocks = [
        [f"{f.ground.labels[i]}.{g.ground.labels[k]}" for i in bf for k in bg]
        for bf in pf.blocks
        for bg in pg.blocks
    ]
    assert got == make_partition(ground, expected_blocks)


# --- differential tests against the projection-sum oracle ---


def _rebased(dsd: DSD, rng: random.Random) -> DSD:
    """The same decomposition from other bases of its subspaces: each row
    scaled, plus the row before it, so bases are no longer orthogonal
    within a subspace."""
    groups = []
    for rows in dsd.subspaces:
        prev = (F(0),) * dsd.dim
        new = []
        for v in rows:
            c = F(rng.choice([1, -1, 2, 3]), rng.choice([1, 2, 5]))
            new.append(tuple(c * x + y for x, y in zip(v, prev)))
            prev = v
        groups.append(tuple(new))
    return DSD(dsd.dim, tuple(groups))


def _coarsened(dsd: DSD, rng: random.Random) -> DSD:
    """Neighbouring subspaces merged at random: a DSD commuting with dsd."""
    groups = [dsd.subspaces[0]]
    for rows in dsd.subspaces[1:]:
        if rng.random() < 0.5:
            groups[-1] = groups[-1] + rows
        else:
            groups.append(rows)
    return DSD(dsd.dim, tuple(groups))


@settings(max_examples=120, deadline=None)
@given(
    st.integers(1, 6),
    st.sampled_from(["independent", "coarsened", "same"]),
    st.integers(0, 2**32),
)
def test_operators_and_verdicts_match_the_projection_oracle(n, relation, seed):
    rng = random.Random(seed)
    f = random_orthogonal_dsd(n, rng)
    g = {
        "independent": lambda: random_orthogonal_dsd(n, rng),
        "coarsened": lambda: _coarsened(f, rng),
        "same": lambda: f,
    }[relation]()
    f, g = _rebased(f, rng), _rebased(g, rng)
    ev_f = distinct_eigenvalues(len(f.subspaces), rng)
    ev_g = distinct_eigenvalues(len(g.subspaces), rng)
    assert operator_from_dsd(ev_f, f).mat == oracles.operator_from_dsd(ev_f, f)
    assert operator_from_dsd(ev_g, g).mat == oracles.operator_from_dsd(ev_g, g)
    assert simultaneous_eigenspace(f, g) == oracles.simultaneous_eigenspace(f, g)
    assert classify(ev_f, f, ev_g, g) == oracles.classify(ev_f, f, ev_g, g)
    assert theorem_se_equals_kernel(ev_f, f, ev_g, g) == (
        oracles.theorem_se_equals_kernel(ev_f, f, ev_g, g)
    )
    # span(SE) lies in ker [F, G], which lets the theorem compare dimensions
    commutator_rows = observables._commutator(
        observables._spectral_sum(ev_f, f)[0], observables._spectral_sum(ev_g, g)[0]
    )
    for v in itertools.chain.from_iterable(observables._join_pieces((f, g))):
        assert all(sum(x * y for x, y in zip(row, v)) == 0 for row in commutator_rows)


def _whole_space(n: int, rng: random.Random) -> DSD:
    """The one-subspace DSD of Q^n, on a random basis."""
    rows = tuple(v for rows in random_dsd(n, rng).subspaces for v in rows)
    return DSD(n, (rows,))


def _scaled_lines(n: int, rng: random.Random) -> DSD:
    """The orthogonal DSD of Q^n into n lines, each spanned by one integer
    row made non-primitive by a factor of 2 to 4, such as (2, 4)."""
    rows = (v for rows in random_orthogonal_dsd(n, rng).subspaces for v in rows)
    scaled = []
    for v in rows:
        factor = rng.randint(2, 4) * math.lcm(*(x.denominator for x in v))
        scaled.append(([x * factor for x in v],))
    return DSD.from_vectors(n, scaled)


def _csco_outcome(fn, dsds):
    try:
        return fn(dsds)
    except NotCommuting:
        return NotCommuting


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 5),
    st.sampled_from(["independent", "coarsened", "same", "whole", "both whole"]),
    st.booleans(),
    st.integers(0, 2**32),
)
def test_se_and_csco_match_the_oracle_on_general_dsds(n, relation, swap, seed):
    rng = random.Random(seed)
    f = _whole_space(n, rng) if relation == "both whole" else random_dsd(n, rng)
    g = {
        "independent": lambda: random_dsd(n, rng),
        "coarsened": lambda: _coarsened(f, rng),
        "same": lambda: f,
        "whole": lambda: _whole_space(n, rng),
        "both whole": lambda: _whole_space(n, rng),
    }[relation]()
    if swap:
        f, g = g, f
    se = simultaneous_eigenspace(f, g)
    assert se == oracles.simultaneous_eigenspace(f, g)
    # the pieces are independent, which classify counts on
    assert sum(map(len, observables._join_pieces((f, g)))) == len(se)
    for family in ([f, g], [g, f], [f, g, f], [f, g, _coarsened(f, rng)]):
        assert _csco_outcome(csco_complete, family) == (
            _csco_outcome(oracles.csco_complete, family)
        )


@settings(max_examples=150, deadline=None)
@given(
    st.integers(1, 5),
    st.sampled_from(["orthogonal", "general", "whole", "scaled lines"]),
    st.integers(0, 2**32),
)
@example(1, "whole", 0)
@example(1, "orthogonal", 0)
@example(2, "scaled lines", 0)
def test_projections_match_the_oracle(n, kind, seed):
    rng = random.Random(seed)
    make = {
        "orthogonal": random_orthogonal_dsd,
        "general": random_dsd,
        "whole": _whole_space,
        "scaled lines": _scaled_lines,
    }[kind]
    d = make(n, rng)
    projections = d.projections()
    assert projections == tuple(oracles.projection(rows) for rows in d.subspaces)
    # the integer form is the least: d is the common denominator of P
    for (rows, den), p in zip(d.int_projections, projections):
        assert den == math.lcm(*(x.denominator for row in p for x in row))
        assert rows == tuple(tuple(int(x * den) for x in row) for row in p)
    # idempotent, symmetric, and fixing the subspace's own rows
    for p, rows in zip(projections, d.subspaces):
        assert oracles.mat_mul(p, p) == p
        assert tuple(zip(*p)) == p
        for v in rows:
            assert mat_vec(p, v) == v
    if d.orthogonal:
        assert reduce(mat_add, projections) == identity(n)
    else:
        assert kind == "general"

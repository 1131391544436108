from __future__ import annotations

import itertools
import random
from fractions import Fraction

import pytest

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
    NotCommuting,
    Operator,
    classify,
    commutator,
    csca_complete,
    csco_complete,
    discrete_partition,
    dsd_from_attribute,
    inverse_image_partition,
    join,
    kernel,
    make_partition,
    operator_from_attribute,
    operator_from_dsd,
    set_spectral_check,
    simultaneous_eigenspace,
    theorem_se_equals_kernel,
)
from ditkit.linalg import (
    identity,
    mat,
    mat_add,
    rank,
    spans_equal,
    zeros,
)

from oracles import distinct_eigenvalues, random_orthogonal_dsd

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


def test_set_spectral_check_examples_and_random():
    assert set_spectral_check(Attribute.from_values(U3, [1, 2, 1]))
    assert set_spectral_check(Attribute.from_values(U4, [7, 7, 7, 7]))
    rng = random.Random(11)
    for _ in range(30):
        n = rng.randint(1, 6)
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


def test_dsd_standard_and_orthogonality():
    d = DSD.standard(3)
    assert len(d.subspaces) == 3
    assert d.is_orthogonal()
    skew = DSD.from_vectors(2, [[[1, 0]], [[1, 1]]])
    assert not skew.is_orthogonal()


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


def test_operator_from_dsd_golden():
    # eigenvalues +1 on span{(1,1)}, -1 on span{(1,-1)} gives the swap matrix
    d = DSD.from_vectors(2, [[[1, 1]], [[1, -1]]])
    g = operator_from_dsd([1, -1], d)
    assert g.mat == mat([[0, 1], [1, 0]])


def test_operator_from_dsd_errors():
    d = DSD.from_vectors(2, [[[1, 1]], [[1, -1]]])
    with pytest.raises(DimensionMismatch):
        operator_from_dsd([1], d)
    with pytest.raises(DuplicateEigenvalue):
        operator_from_dsd([2, 2], d)
    skew = DSD.from_vectors(2, [[[1, 0]], [[1, 1]]])
    with pytest.raises(DegenerateDSD):
        operator_from_dsd([1, 2], skew)


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


def test_kernel_examples():
    assert kernel(zeros(2, 2)) == identity(2)
    assert kernel(mat([[0, 2], [-2, 0]])) == ()
    k = kernel(mat([[1, 1], [1, 1]]))
    assert len(k) == 1 and k[0][0] + k[0][1] == 0


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
    assert spans_equal(se, mat([[0, 0, 1]]))
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
    assert spans_equal(ker, mat([[1, -2, 1]]))
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


def test_csca_join_matches_value_tuples():
    # brute force: completeness iff joined level partitions are discrete
    rng = random.Random(41)
    for _ in range(40):
        n = rng.randint(2, 5)
        ground = GroundSet(tuple(f"u{i}" for i in range(n)))
        attrs = [
            Attribute.from_values(ground, [rng.randint(0, 2) for _ in range(n)])
            for _ in range(rng.randint(1, 3))
        ]
        parts = [inverse_image_partition(f) for f in attrs]
        acc = parts[0]
        for p in parts[1:]:
            acc = join(acc, p)
        tuples = {
            tuple(f.values[i] for f in attrs) for i in range(n)
        }
        expect = acc == discrete_partition(ground) and len(tuples) == n
        assert csca_complete(attrs) == expect


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

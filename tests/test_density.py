from __future__ import annotations

import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ditkit import density
from ditkit.density import (
    DensityMatrix,
    ProjectionMask,
    SqrtRational,
    consistency_h,
    luders_mixture,
    luders_outcomes,
    luders_rule,
    quantum_logical_entropy,
    rho,
    state_reduction_audit,
    theorem_entropy_increase,
    theorem_join,
    verify_block_eigenvectors,
)
from ditkit.entropy import compound_logical, logical_entropy
from ditkit.errors import (
    DitkitError,
    GroundMismatch,
    InvalidValue,
    UnknownLabel,
    ZeroProbabilityOutcome,
)
from ditkit.partitions import (
    GroundSet,
    Partition,
    ProbGroundSet,
    discrete_partition,
    enumerate_partitions,
    indiscrete_partition,
    join,
    parse_partition,
)

from oracles import (
    all_pairs,
    block_entropy,
    conditioned_entries,
    density_json,
    entries_entropy,
    exact_sqrt,
    masked_entries,
    random_probs,
    rational_sqrt,
    rho_entries,
    split_square,
)

ABC = GroundSet(("a", "b", "c"))
GOLDEN_P = ProbGroundSet.from_values(ABC, ["1/3", "1/4", "5/12"])
PI = parse_partition(ABC, "a|bc")
SIGMA = parse_partition(ABC, "ab|c")


def ground(n):
    return GroundSet(tuple("abcde"[:n]))


def F(x) -> Fraction:
    return Fraction(x)


# --- the scalar -----------------------------------------------------------


def test_sqrt_rational_scaling_and_embedding():
    a = SqrtRational(F("5/48"))
    assert a.scaled(F("1/2")) == SqrtRational(F("5/192"))
    assert SqrtRational.from_rational(F("3/4")) == SqrtRational(F("9/16"))
    with pytest.raises(ValueError):
        SqrtRational.from_rational(F(-1))
    with pytest.raises(ValueError):
        SqrtRational(F(-1))
    with pytest.raises(ValueError):
        a.scaled(-1)


HALF, ZERO = SqrtRational(F("1/2")), SqrtRational(F(0))


@pytest.mark.parametrize("make, error, message", [
    (lambda: SqrtRational(0.5), InvalidValue, "radicand must be int or Fraction"),
    (lambda: SqrtRational(True), InvalidValue, "radicand must be int or Fraction"),
    (lambda: SqrtRational("1/2"), InvalidValue, "radicand must be int or Fraction"),
    (lambda: SqrtRational(None), InvalidValue, "radicand must be int or Fraction"),
    (lambda: DensityMatrix(ground(2), ((1, 0), (0, 0))), InvalidValue,
     "entries must be SqrtRationals"),
    (lambda: DensityMatrix(ground(2), ((HALF, 0.0), (ZERO, HALF))), InvalidValue,
     "entries must be SqrtRationals"),
    (lambda: DensityMatrix(ground(2), None), DitkitError, "must be an iterable"),
    (lambda: DensityMatrix(ground(2), (1, 2)), DitkitError, "must be an iterable"),
], ids=["float radicand", "bool radicand", "str radicand", "None radicand",
        "int cells", "float cell", "None grid", "int rows"])
def test_bare_constructors_take_only_exact_input(make, error, message):
    with pytest.raises(error, match=message):
        make()


def test_an_int_radicand_stays_valid():
    assert SqrtRational(2) == SqrtRational(F(2))
    assert DensityMatrix(ground(1), [[SqrtRational(1)]]).trace() == 1


def test_sqrt_rational_rendering():
    assert str(SqrtRational(F("5/48"))) == "√15/12"
    assert str(SqrtRational(F(8))) == "2√2"
    assert str(SqrtRational(F("4/9"))) == "2/3"
    assert str(SqrtRational(F(0))) == "0"
    assert str(SqrtRational(F("50/9"))) == "5√2/3"


def test_sqrt_rational_rendering_matches_full_trial_division(monkeypatch):
    # a prime square beyond the trial bound of 2**16 still leaves the root
    assert str(SqrtRational(F(1_000_000_007**2 * 3))) == "1000000007√3"
    q = Fraction(1_000_000_007 * 1_000_000_009, 4)
    assert str(SqrtRational(q)) == "√1000000016000000063/2"
    # below 2**32 the bound changes no string
    rng = random.Random(41)
    values = [Fraction(rng.randrange(1, 1 << 16), rng.randrange(1, 1 << 16))
              for _ in range(400)]
    values += [F(0), F(65521**2 * 3), F(65521 * 65519), F(2**32 - 1), 1 / F(2**31 - 1)]
    radicands = [SqrtRational(q) for q in values]
    fast = [str(x) for x in radicands]
    monkeypatch.setattr(density, "_split_square", split_square)
    assert [str(x) for x in radicands] == fast


# integers past 2**48, some with one or two prime factors past 2**16
_PRIME = st.sampled_from((1, 65537, 65539, 1_000_003, 2**31 - 1, 2**61 - 1))
_WIDE = st.builds(
    lambda a, p, r: a * p * r, st.integers(1 << 48, 1 << 64), _PRIME, _PRIME
)
_RATIONALS = st.builds(Fraction, st.just(0) | _WIDE, _WIDE)


@settings(max_examples=200, deadline=None)
@given(_RATIONALS | _RATIONALS.map(lambda q: q * q))
@example(Fraction(65537**2, 9973**2))
@example(Fraction(0))
def test_rendering_an_exact_root_matches_the_oracle(q):
    assert str(SqrtRational(q * q)) == str(q)
    root = exact_sqrt(q)
    if root is not None:
        assert str(SqrtRational(q)) == str(root)


# --- construction ---------------------------------------------------------


def test_rho_golden_matrix():
    mat = rho(PI, GOLDEN_P)
    assert mat.diagonal() == (F("1/3"), F("1/4"), F("5/12"))
    assert mat.entry(0, 1).radicand == 0
    assert mat.entry(0, 2).radicand == 0
    # sqrt(p_b p_c) = sqrt(5/48), the only nonzero coherence
    assert mat.entry(1, 2) == SqrtRational(F("5/48"))
    assert mat.entry(2, 1) == mat.entry(1, 2)
    assert str(mat.entry(1, 2)) == "√15/12"


def test_rho_discrete_is_diagonal():
    mat = rho(discrete_partition(ABC), GOLDEN_P)
    for i in range(3):
        for k in range(3):
            if i != k:
                assert not mat.entry(i, k)
    assert mat.diagonal() == GOLDEN_P.p


def test_rho_indiscrete_is_full():
    mat = rho(indiscrete_partition(ABC), GOLDEN_P)
    p = GOLDEN_P.p
    for i in range(3):
        for k in range(3):
            assert mat.entry(i, k) == SqrtRational(p[i] * p[k])


def test_rho_ground_mismatch():
    with pytest.raises(GroundMismatch):
        rho(discrete_partition(ground(4)), GOLDEN_P)


def _on(g):
    """SIGMA and GOLDEN_P rebuilt over the ground set `g`."""
    probs = ProbGroundSet.from_values(g, ["1/3", "1/4", "5/12"])
    return Partition(g, [[0, 1], [2]]), probs


@pytest.mark.parametrize(
    "call",
    [
        lambda s, p: join(PI, s),
        lambda s, p: logical_entropy(PI, p),
        lambda s, p: compound_logical(PI, s, GOLDEN_P),
        lambda s, p: compound_logical(PI, SIGMA, p),
        lambda s, p: rho(PI, p),
        lambda s, p: theorem_join(PI, s, GOLDEN_P),
        lambda s, p: theorem_join(PI, SIGMA, p),
        lambda s, p: theorem_entropy_increase(PI, s, GOLDEN_P),
        lambda s, p: theorem_entropy_increase(PI, SIGMA, p),
    ],
    ids=[
        "join", "entropy", "compound-sigma", "compound-probs", "rho",
        "theorem-join-sigma", "theorem-join-probs", "increase-sigma",
        "increase-probs",
    ],
)
def test_ground_check_compares_ground_sets_by_value(call):
    twin = GroundSet(("a", "b", "c"))
    assert twin == ABC and twin is not ABC
    assert call(*_on(twin)) == call(SIGMA, GOLDEN_P)
    with pytest.raises(GroundMismatch):
        call(*_on(GroundSet(("a", "b", "x"))))


def test_density_matrix_validation():
    z = SqrtRational(F(0))
    h = SqrtRational(F("1/4"))
    bad_sym = ((h, z), (SqrtRational(F("1/9")), h))
    with pytest.raises(ValueError):
        DensityMatrix(GroundSet(("a", "b")), bad_sym)
    quarter = SqrtRational.from_rational(F("1/4"))
    bad_trace = ((quarter, z), (z, quarter))  # trace 1/2
    with pytest.raises(ValueError):
        DensityMatrix(GroundSet(("a", "b")), bad_trace)
    # common radicand denominator 180, not a square; trace 1/2 + 1/3
    third = SqrtRational.from_rational(F("1/3"))
    coherence = SqrtRational(F("1/5"))
    with pytest.raises(ValueError, match="trace is 5/6"):
        DensityMatrix(GroundSet(("a", "b")), ((h, coherence), (coherence, third)))
    irrational = SqrtRational(F("1/2"))
    with pytest.raises(InvalidValue, match=r"sqrt\(1/2\) is irrational"):
        DensityMatrix(GroundSet(("a", "b")), ((irrational, z), (z, irrational)))


def test_density_json_round_trip():
    mat = rho(PI, GOLDEN_P)
    blob = mat.to_json()
    assert blob["entries"][1][2] == {"radicand": "5/48"}
    assert DensityMatrix.from_json(blob) == mat


def test_density_json_round_trip_non_square_denominator():
    half = SqrtRational.from_rational(F("1/2"))
    third = SqrtRational.from_rational(F("1/3"))
    grids = [
        ((half, SqrtRational(F("5/48"))), (SqrtRational(F("5/48")), half)),
        (
            (third, SqrtRational(F("2/15")), SqrtRational(F(0))),
            (SqrtRational(F("2/15")), third, SqrtRational(F("1/27"))),
            (SqrtRational(F(0)), SqrtRational(F("1/27")), third),
        ),
    ]
    for entries in grids:
        mat = DensityMatrix(ground(len(entries)), entries)
        blob = mat.to_json()
        radicands = [F(cell["radicand"]) for row in blob["entries"] for cell in row]
        common = math.lcm(*(q.denominator for q in radicands))
        assert math.isqrt(common) ** 2 != common
        back = DensityMatrix.from_json(blob)
        assert back == mat and hash(back) == hash(mat)
        assert back.entries == entries
        assert back.trace() == 1
        assert quantum_logical_entropy(back) == 1 - sum(radicands)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_to_json_matches_the_entries_oracle(data):
    # rho, its Luders mixture and each Luders post-state print the same
    # JSON text as the SqrtRational-per-cell rendering
    n = data.draw(st.integers(1, 5), label="n")
    weights = data.draw(st.lists(st.integers(1, 10**6), min_size=n, max_size=n))
    total = sum(weights)
    probs = ProbGroundSet(ground(n), tuple(Fraction(w, total) for w in weights))
    parts = st.sampled_from(list(enumerate_partitions(probs.ground)))
    pi, sigma = data.draw(parts, label="pi"), data.draw(parts, label="sigma")
    mat = rho(pi, probs)
    mats = [mat, luders_mixture(mat, sigma)] + [
        luders_rule(mat, ProjectionMask(probs.ground, frozenset(blk)))[0]
        for blk in sigma.blocks
    ]
    for m in mats:
        assert json.dumps(m.to_json()) == json.dumps(density_json(m))


def test_density_from_json_missing_field():
    with pytest.raises(DitkitError, match="entries"):
        DensityMatrix.from_json({"ground": ["a"]})
    with pytest.raises(DitkitError, match="radicand"):
        DensityMatrix.from_json({"ground": ["a"], "entries": [[{}]]})
    for wrong in ([], {"ground": "ab", "entries": 5}, {"ground": "a", "entries": [[5]]}):
        with pytest.raises(DitkitError, match="wrong shape"):
            DensityMatrix.from_json(wrong)


def test_density_from_json_irrational_diagonal_is_invalid_value():
    blob = {
        "ground": ["a", "b"],
        "entries": [[{"radicand": "1/2"}, {"radicand": 0}],
                    [{"radicand": 0}, {"radicand": "1/2"}]],
    }
    with pytest.raises(InvalidValue, match=r"sqrt\(1/2\) is irrational"):
        DensityMatrix.from_json(blob)


# --- eigenstructure -------------------------------------------------------


def test_block_eigenvectors_golden():
    assert verify_block_eigenvectors(PI, GOLDEN_P)
    # eigenvalues are the block probabilities 1/3 and 2/3
    from ditkit.entropy import block_probs

    assert [pr for _, pr in block_probs(PI, GOLDEN_P)] == [F("1/3"), F("2/3")]


def test_block_eigenvectors_discrete_and_random():
    assert verify_block_eigenvectors(discrete_partition(ABC), GOLDEN_P)
    rng = random.Random(42)
    for n in (2, 3, 4, 5):
        g = ground(n)
        probs = ProbGroundSet(g, tuple(random_probs(n, rng)))
        for pi in enumerate_partitions(g):
            assert verify_block_eigenvectors(pi, probs)


# --- measurement ----------------------------------------------------------


def test_luders_mixture_golden():
    hat = luders_mixture(rho(PI, GOLDEN_P), SIGMA)
    assert hat.diagonal() == (F("1/3"), F("1/4"), F("5/12"))
    for i in range(3):
        for k in range(3):
            if i != k:
                assert not hat.entry(i, k)


def test_luders_mixture_degenerate_partitions():
    mat = rho(PI, GOLDEN_P)
    assert luders_mixture(mat, indiscrete_partition(ABC)) == mat
    flat = luders_mixture(mat, discrete_partition(ABC))
    assert flat == rho(discrete_partition(ABC), GOLDEN_P)


def test_luders_mixture_idempotent():
    mat = rho(PI, GOLDEN_P)
    once = luders_mixture(mat, SIGMA)
    assert luders_mixture(once, SIGMA) == once


def test_masking_and_conditioning_reduce_a_common_factor():
    # radicands 1/4 on the diagonal and 1/16 off it sit on the grid
    # (4, 1, 1, 4) / 16; zeroing the coherence leaves (4, 0, 0, 4) / 16,
    # whose factor 4 the trusted path must divide out, and conditioning
    # on {a} leaves (64, 0, 0, 0) / 64
    ab = GroundSet(("a", "b"))
    diag, coherence = SqrtRational(Fraction(1, 4)), SqrtRational(Fraction(1, 16))
    want = ((diag, coherence), (coherence, diag))
    mat = DensityMatrix(ab, want)
    assert (mat._num, mat._den) == ((4, 1, 1, 4), 16)
    flat = luders_mixture(mat, discrete_partition(ab))
    want_flat = masked_entries(want, discrete_partition(ab))
    assert flat == DensityMatrix(ab, want_flat)
    assert (flat._num, flat._den) == ((1, 0, 0, 1), 4)
    assert hash(flat) == hash(DensityMatrix(ab, want_flat))
    assert flat.to_json() == density_json(flat)
    assert luders_mixture(mat, indiscrete_partition(ab)) == mat
    post, prob = luders_rule(mat, ProjectionMask(ab, [0]))
    want_post, want_prob = conditioned_entries(want, [0])
    assert prob == want_prob == Fraction(1, 2)
    assert post == DensityMatrix(ab, want_post)
    assert (post._num, post._den) == ((1, 0, 0, 0), 1)
    for blk, prob, state in luders_outcomes(mat, discrete_partition(ab)):
        assert state == DensityMatrix(ab, conditioned_entries(want, blk)[0])


def test_theorem_join_golden_and_exhaustive():
    assert theorem_join(PI, SIGMA, GOLDEN_P)
    assert join(PI, SIGMA) == discrete_partition(ABC)
    rng = random.Random(77)
    for n in (2, 3, 4):
        g = ground(n)
        probs = ProbGroundSet(g, tuple(random_probs(n, rng)))
        for pi, sigma in all_pairs(g):
            assert theorem_join(pi, sigma, probs)


def test_luders_rule_golden():
    hat = luders_mixture(rho(PI, GOLDEN_P), SIGMA)
    post, prob = luders_rule(hat, ProjectionMask.from_labels(ABC, "ab"))
    assert prob == F("7/12")
    assert post.diagonal() == (F("4/7"), F("3/7"), F(0))
    post_c, prob_c = luders_rule(hat, ProjectionMask.from_labels(ABC, "c"))
    assert prob_c == F("5/12")
    assert post_c.diagonal() == (F(0), F(0), F(1))


def test_luders_rule_full_mask_is_identity():
    mat = rho(PI, GOLDEN_P)
    post, prob = luders_rule(mat, ProjectionMask.from_labels(ABC, "abc"))
    assert prob == 1
    assert post == mat


@pytest.mark.parametrize(
    "member, shown", [(5, "5"), (-1, "-1"), (0.5, "0.5"), (True, "True")]
)
def test_projection_mask_members_must_be_indices_in_range(member, shown):
    with pytest.raises(UnknownLabel, match=rf"index {shown} is not in range\(3\)"):
        luders_rule(rho(PI, GOLDEN_P), ProjectionMask(ABC, frozenset({member})))


def test_luders_rule_zero_probability_outcome():
    hat = luders_mixture(rho(PI, GOLDEN_P), SIGMA)
    post, _ = luders_rule(hat, ProjectionMask.from_labels(ABC, "ab"))
    with pytest.raises(ZeroProbabilityOutcome):
        luders_rule(post, ProjectionMask.from_labels(ABC, "c"))


def test_outcomes_sum_to_one_and_match_block_mass():
    rng = random.Random(11)
    for n in (2, 3, 4):
        g = ground(n)
        probs = ProbGroundSet(g, tuple(random_probs(n, rng)))
        for pi, sigma in all_pairs(g):
            mat = rho(pi, probs)
            rows = luders_outcomes(mat, sigma)
            assert sum((pr for _, pr, _ in rows), F(0)) == 1
            for blk, pr, _ in rows:
                assert pr == probs.prob(blk)


# --- entropy of states ----------------------------------------------------


def test_quantum_logical_entropy_golden():
    mat = rho(PI, GOLDEN_P)
    hat = luders_mixture(mat, SIGMA)
    assert quantum_logical_entropy(mat) == F("4/9")
    assert quantum_logical_entropy(hat) == F("94/144")
    g = ground(4)
    assert quantum_logical_entropy(
        rho(discrete_partition(g), ProbGroundSet.uniform(g))
    ) == F("3/4")


def test_entropy_increase_golden():
    mat = rho(PI, GOLDEN_P)
    hat = luders_mixture(mat, SIGMA)
    gain = quantum_logical_entropy(hat) - quantum_logical_entropy(mat)
    assert gain == F("5/24")
    assert gain == 2 * F("5/48")  # both zeroed coherences squared
    assert theorem_entropy_increase(PI, SIGMA, GOLDEN_P)


def test_entropy_increase_trivial_measurement():
    assert theorem_entropy_increase(PI, indiscrete_partition(ABC), GOLDEN_P)
    mat = rho(PI, GOLDEN_P)
    same = luders_mixture(mat, indiscrete_partition(ABC))
    assert quantum_logical_entropy(same) == quantum_logical_entropy(mat)


def test_state_reduction_audit_golden():
    mat = rho(PI, GOLDEN_P)
    assert state_reduction_audit(mat, SIGMA) == [(1, 2), (2, 1)]
    assert state_reduction_audit(mat, indiscrete_partition(ABC)) == []


def test_audit_matches_matrix_diff():
    rng = random.Random(13)
    for n in (2, 3, 4):
        g = ground(n)
        probs = ProbGroundSet(g, tuple(random_probs(n, rng)))
        for pi, sigma in all_pairs(g):
            mat = rho(pi, probs)
            hat = luders_mixture(mat, sigma)
            diff = [
                (i, k)
                for i in range(n)
                for k in range(n)
                if mat.entry(i, k) != hat.entry(i, k)
            ]
            assert state_reduction_audit(mat, sigma) == diff


def test_consistency_with_partition_entropy():
    assert consistency_h(PI, GOLDEN_P)
    rng = random.Random(17)
    for n in (2, 3, 4, 5):
        g = ground(n)
        probs = ProbGroundSet(g, tuple(random_probs(n, rng)))
        for pi in enumerate_partitions(g):
            assert quantum_logical_entropy(rho(pi, probs)) == logical_entropy(
                pi, probs
            )


# --- the integer grid against the entry-by-entry oracle -------------------


def _vectors(n, rng):
    """Two probability vectors per weight range: weights in 1..9 and in
    1..10**6, so both small and large common denominators."""
    for high in (9, 10**6):
        for _ in range(2):
            weights = [rng.randint(1, high) for _ in range(n)]
            total = sum(weights)
            yield ProbGroundSet(ground(n), tuple(Fraction(w, total) for w in weights))


def _check_trusted_diagonal(mat, want):
    """The builders hand only radicands to the unchecked `_grid`, and the
    diagonal is read back from them: check the diagonal and the trace
    against the oracle's square roots."""
    diagonal = tuple(rational_sqrt(want[i][i].radicand) for i in range(len(want)))
    assert mat.diagonal() == diagonal
    assert mat.trace() == sum(diagonal) == 1


def test_grid_matches_fraction_oracle_on_every_pair():
    rng = random.Random(2718)
    for n in (1, 2, 3, 4):
        for probs in _vectors(n, rng):
            for pi, sigma in all_pairs(probs.ground):
                mat = rho(pi, probs)
                want = rho_entries(pi, probs)
                assert mat.entries == want
                _check_trusted_diagonal(mat, want)
                hat = luders_mixture(mat, sigma)
                want_hat = masked_entries(want, sigma)
                assert hat.entries == want_hat
                assert hat == DensityMatrix(probs.ground, want_hat)
                _check_trusted_diagonal(hat, want_hat)
                h, h_hat = quantum_logical_entropy(mat), quantum_logical_entropy(hat)
                assert type(h) is Fraction and h == entries_entropy(want)
                assert h_hat == entries_entropy(want_hat)
                h_pi = logical_entropy(pi, probs)
                assert type(h_pi) is Fraction
                assert h_pi == block_entropy(pi.blocks, probs)
                for blk in sigma.blocks:
                    post, prob = luders_rule(
                        mat, ProjectionMask(probs.ground, frozenset(blk))
                    )
                    want_post, want_prob = conditioned_entries(want, blk)
                    assert type(prob) is Fraction and prob == want_prob
                    assert post.entries == want_post
                    assert post == DensityMatrix(probs.ground, want_post)
                    _check_trusted_diagonal(post, want_post)

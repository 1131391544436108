from __future__ import annotations

import math
import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ditkit.density import DensityMatrix, rho
from ditkit.entropy import (
    block_probs,
    compound_logical,
    compound_shannon,
    dit_to_bit_check,
    logical_entropy,
    logical_entropy_ditsum,
    shannon_entropy,
)
from ditkit.errors import GroundMismatch
from ditkit.partitions import (
    GroundSet,
    Partition,
    ProbGroundSet,
    discrete_partition,
    ditset,
    enumerate_partitions,
    indiscrete_partition,
    parse_partition,
)

import oracles
from oracles import all_pairs, random_probs

ABC = GroundSet(("a", "b", "c"))
GOLDEN_P = ProbGroundSet.from_values(ABC, ["1/3", "1/4", "5/12"])
PI = parse_partition(ABC, "a|bc")
SIGMA = parse_partition(ABC, "ab|c")
TOL = 1e-12


def ground(n):
    return GroundSet(tuple("abcdef"[:n]))


def test_block_probs_golden():
    assert [pr for _, pr in block_probs(PI, GOLDEN_P)] == [
        Fraction(1, 3),
        Fraction(2, 3),
    ]
    bottom = indiscrete_partition(ABC)
    assert [pr for _, pr in block_probs(bottom, GOLDEN_P)] == [Fraction(1)]
    g = ground(4)
    uniform = ProbGroundSet.uniform(g)
    assert [pr for _, pr in block_probs(discrete_partition(g), uniform)] == [
        Fraction(1, 4)
    ] * 4


def test_block_probs_ground_mismatch():
    with pytest.raises(GroundMismatch):
        block_probs(discrete_partition(ground(4)), GOLDEN_P)


def test_logical_entropy_golden():
    assert logical_entropy(PI, GOLDEN_P) == Fraction(4, 9)
    assert logical_entropy_ditsum(PI, GOLDEN_P) == Fraction(4, 9)


def test_logical_entropy_extremes():
    assert logical_entropy(indiscrete_partition(ABC), GOLDEN_P) == 0
    g = ground(4)
    uniform = ProbGroundSet.uniform(g)
    assert logical_entropy(discrete_partition(g), uniform) == Fraction(3, 4)


def test_ditsum_is_sum_of_distinction_probabilities():
    # h(a|bc) = 2 p_a p_b + 2 p_a p_c
    p = GOLDEN_P.p
    assert logical_entropy_ditsum(PI, GOLDEN_P) == 2 * p[0] * p[1] + 2 * p[0] * p[2]


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_two_entropy_forms_agree(n):
    rng = random.Random(600 + n)
    g = ground(n)
    probs = ProbGroundSet(g, tuple(random_probs(n, rng)))
    for pi in enumerate_partitions(g):
        assert logical_entropy(pi, probs) == logical_entropy_ditsum(pi, probs)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_entropy_bounds_and_extremes(n):
    g = ground(n)
    uniform = ProbGroundSet.uniform(g)
    top_h = logical_entropy(discrete_partition(g), uniform)
    assert top_h == 1 - Fraction(1, n)
    for pi in enumerate_partitions(g):
        h = logical_entropy(pi, uniform)
        assert 0 <= h <= top_h
        assert (h == 0) == (pi.num_blocks == 1)
        assert (h == top_h) == pi.is_discrete()


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_monotone_in_refinement(n):
    rng = random.Random(700 + n)
    g = ground(n)
    probs = ProbGroundSet(g, tuple(random_probs(n, rng)))
    for sigma, pi in all_pairs(g):
        if sigma <= pi:
            assert logical_entropy(sigma, probs) <= logical_entropy(pi, probs)


def test_compound_golden():
    comp = compound_logical(PI, SIGMA, GOLDEN_P)
    assert comp.joint == Fraction(47, 72)
    assert comp.conditional_pi_given_sigma == Fraction(1, 6)
    assert comp.conditional_sigma_given_pi == Fraction(5, 24)
    assert comp.mutual == Fraction(5, 18)


def test_compound_degenerate_cases():
    same = compound_logical(PI, PI, GOLDEN_P)
    h = logical_entropy(PI, GOLDEN_P)
    assert same.joint == h and same.mutual == h
    assert same.conditional_pi_given_sigma == 0
    bottom = indiscrete_partition(ABC)
    free = compound_logical(PI, bottom, GOLDEN_P)
    assert free.joint == h and free.conditional_pi_given_sigma == h
    assert free.mutual == 0


@pytest.mark.parametrize("n", [2, 3, 4])
def test_mutual_is_measure_of_common_dits(n):
    rng = random.Random(800 + n)
    g = ground(n)
    probs = ProbGroundSet(g, tuple(random_probs(n, rng)))
    for pi, sigma in all_pairs(g):
        comp = compound_logical(pi, sigma, probs)
        common = ditset(pi).pairs & ditset(sigma).pairs
        measure = sum((probs.p[i] * probs.p[k] for i, k in common), Fraction(0))
        assert comp.mutual == measure
        assert comp.mutual >= 0
        assert comp.joint == logical_entropy(pi, probs) + logical_entropy(
            sigma, probs
        ) - comp.mutual


@st.composite
def triples(draw):
    """(pi, sigma, probs) on up to six elements, with integer weights up
    to 10**6, so that the common denominator D and D**2 are large."""
    n = draw(st.integers(min_value=1, max_value=6))
    g = ground(n)

    def partition():
        labels = draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
        blocks = [[i for i in range(n) if labels[i] == b] for b in set(labels)]
        return Partition(g, blocks)

    weights = draw(st.lists(st.integers(1, 10**6), min_size=n, max_size=n))
    total = sum(weights)
    probs = ProbGroundSet(g, tuple(Fraction(w, total) for w in weights))
    return partition(), partition(), probs


@settings(max_examples=200, deadline=None)
@given(triples())
def test_integer_kernel_matches_block_oracles(triple):
    """Against the block-by-block `Fraction` oracles and the integer ones
    that take a pass per partition; and rho's grid, taken as it is built,
    against the checking constructor's grid of the entry-by-entry oracle."""
    pi, sigma, probs = triple
    h = logical_entropy(pi, probs)
    assert type(h) is Fraction and h == oracles.block_entropy(pi.blocks, probs)
    comp = compound_logical(pi, sigma, probs)
    assert all(type(x) is Fraction for x in comp)
    assert comp == oracles.compound_logical(pi, sigma, probs)
    assert comp == oracles.grid_compound_logical(pi, sigma, probs)
    for partition in (pi, sigma):
        assert logical_entropy(partition, probs) == oracles.grid_logical_entropy(
            partition, probs
        )
        mat = rho(partition, probs)
        want = DensityMatrix(probs.ground, oracles.rho_entries(partition, probs))
        assert mat == want and hash(mat) == hash(want)
        assert mat.to_json() == want.to_json()


def test_compound_logical_stays_linear_in_the_ground_size():
    # n = 3000 with both partitions discrete gives n join blocks; a mass
    # slot for every label pair would be 9e6 entries, about 72 MB
    n = 3000
    g = GroundSet(tuple(f"x{i}" for i in range(n)))
    total = n * (n + 1) // 2
    probs = ProbGroundSet(g, tuple(Fraction(i + 1, total) for i in range(n)))
    discrete = discrete_partition(g)
    halves = Partition(g, [range(0, n, 2), range(1, n, 2)])
    pairs = [(discrete, discrete), (discrete, halves), (halves, discrete)]
    tracemalloc.start()
    try:
        got = [compound_logical(pi, sigma, probs) for pi, sigma in pairs]
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20
    for comp, (pi, sigma) in zip(got, pairs):
        assert comp == oracles.grid_compound_logical(pi, sigma, probs)


def test_shannon_golden_values():
    g = ground(4)
    uniform = ProbGroundSet.uniform(g)
    assert abs(shannon_entropy(discrete_partition(g), uniform) - 2.0) <= TOL
    assert shannon_entropy(indiscrete_partition(ABC), GOLDEN_P) == 0.0
    expected = math.log2(3) - 2 / 3  # (1/3)log2(3) + (2/3)log2(3/2)
    assert abs(shannon_entropy(PI, GOLDEN_P) - expected) <= TOL


@st.composite
def grids(draw):
    """A probability vector on up to six elements with integer weights up
    to 10**30 over their sum."""
    n = draw(st.integers(min_value=1, max_value=6))
    weights = draw(st.lists(st.integers(1, 10**30), min_size=n, max_size=n))
    total = sum(weights)
    return ProbGroundSet(ground(n), tuple(Fraction(w, total) for w in weights))


@settings(max_examples=100, deadline=None)
@given(grids())
def test_shannon_grid_sum_equals_fraction_oracle(probs):
    for pi in enumerate_partitions(probs.ground):
        assert shannon_entropy(pi, probs) == oracles.shannon_entropy(pi.blocks, probs)


def test_shannon_compound_identities():
    comp = compound_shannon(PI, SIGMA, GOLDEN_P)
    h_pi = shannon_entropy(PI, GOLDEN_P)
    h_sigma = shannon_entropy(SIGMA, GOLDEN_P)
    assert abs(comp.joint - (h_sigma + comp.conditional_pi_given_sigma)) <= TOL
    assert abs(comp.joint - (h_pi + comp.conditional_sigma_given_pi)) <= TOL
    assert abs(comp.mutual - (h_pi + h_sigma - comp.joint)) <= TOL
    assert comp.mutual >= -TOL


def test_dit_to_bit_transform():
    assert dit_to_bit_check(PI, GOLDEN_P)
    assert dit_to_bit_check(indiscrete_partition(ABC), GOLDEN_P)
    rng = random.Random(901)
    for n in range(2, 7):
        g = ground(n)
        probs = ProbGroundSet(g, tuple(random_probs(n, rng)))
        for pi in enumerate_partitions(g):
            assert dit_to_bit_check(pi, probs)

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ditkit.errors import (
    BoundExceeded,
    DitkitError,
    EmptyBlock,
    GroundMismatch,
    NotExhaustive,
    OverlappingBlocks,
    UnknownLabel,
)
from ditkit.partitions import (
    GroundSet,
    Partition,
    ProbGroundSet,
    all_pairs,
    choice_reduce,
    discrete_partition,
    ditset,
    enumerate_partitions,
    implication,
    indiscrete_partition,
    inditset,
    join,
    make_partition,
    meet,
    notation,
    parse_partition,
    partition_from_json,
    partition_to_json,
    refines,
)

from oracles import (
    canonical,
    insert_enumerate,
    set_implication,
    set_join,
    set_meet,
)

ABC = GroundSet(("a", "b", "c"))
ABCD = GroundSet(("a", "b", "c", "d"))


def ground(n: int) -> GroundSet:
    return GroundSet(tuple("abcdefgh"[:n]))


def parts(n: int) -> list[Partition]:
    return list(enumerate_partitions(ground(n)))


@st.composite
def rgs_partitions(draw, max_n=6):
    n = draw(st.integers(min_value=1, max_value=max_n))
    rgs = [0]
    top = 0
    for _ in range(n - 1):
        nxt = draw(st.integers(min_value=0, max_value=top + 1))
        rgs.append(nxt)
        top = max(top, nxt)
    g = ground(n)
    blocks: list[list[int]] = [[] for _ in range(top + 1)]
    for i, b in enumerate(rgs):
        blocks[b].append(i)
    return Partition.from_index_blocks(g, blocks)


# --- construction ---------------------------------------------------------


def test_make_partition_canonical_form():
    pi = make_partition(ABCD, [["d", "c"], ["b", "a"]])
    assert pi.blocks == ((0, 1), (2, 3))
    assert notation(pi) == "ab|cd"


def test_singleton_ground_forces_trivial_partition():
    g = GroundSet(("a",))
    pi = make_partition(g, [["a"]])
    assert pi == discrete_partition(g) == indiscrete_partition(g)


def test_make_partition_validation_errors():
    with pytest.raises(OverlappingBlocks):
        make_partition(GroundSet(("a", "b")), [["a"], ["a", "b"]])
    with pytest.raises(EmptyBlock):
        make_partition(ABC, [["a", "b", "c"], []])
    with pytest.raises(NotExhaustive):
        make_partition(ABC, [["a", "b"]])
    with pytest.raises(UnknownLabel):
        make_partition(ABC, [["a", "b"], ["z"]])
    with pytest.raises(OverlappingBlocks):
        make_partition(ABC, [["a", "a", "b"], ["c"]])


def test_ground_set_validation():
    with pytest.raises(OverlappingBlocks):
        GroundSet(("a", "a"))
    with pytest.raises(EmptyBlock):
        GroundSet(())
    with pytest.raises(UnknownLabel):
        ABC.index("q")


# --- ditsets / inditsets --------------------------------------------------


def test_discrete_ditset_is_everything_but_diagonal():
    top = discrete_partition(ABC)
    expected = {(i, k) for i in range(3) for k in range(3) if i != k}
    assert ditset(top).pairs == frozenset(expected)


def test_indiscrete_makes_no_distinctions():
    bottom = indiscrete_partition(ABC)
    assert len(ditset(bottom)) == 0
    assert len(inditset(bottom)) == 9


def test_ditset_example_a_bc():
    pi = parse_partition(ABC, "a|bc")
    assert ditset(pi).pairs == frozenset({(0, 1), (1, 0), (0, 2), (2, 0)})


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_inditset_is_equivalence_relation(n):
    g = ground(n)
    for pi in enumerate_partitions(g):
        indit = inditset(pi).pairs
        for i in range(n):
            assert (i, i) in indit
        for i, k in indit:
            assert (k, i) in indit
        for i, k in indit:
            for k2, m in indit:
                if k2 == k:
                    assert (i, m) in indit


@pytest.mark.parametrize("n", [2, 3, 4])
def test_dit_and_indit_partition_the_square(n):
    g = ground(n)
    full = {(i, k) for i in range(n) for k in range(n)}
    for pi in enumerate_partitions(g):
        dits, indits = ditset(pi).pairs, inditset(pi).pairs
        assert dits | indits == full
        assert not dits & indits
        assert ditset(pi).complement().pairs == indits


# --- refinement order -----------------------------------------------------


def test_bottom_and_top_bound_everything():
    for pi in parts(4):
        assert refines(indiscrete_partition(ABCD), pi)
        assert refines(pi, discrete_partition(ABCD))


def test_refines_directional_example():
    bottom = indiscrete_partition(ABCD)
    pi = parse_partition(ABCD, "ab|cd")
    assert refines(bottom, pi)
    assert not refines(pi, bottom)


def test_incomparable_pair():
    pi = parse_partition(ABC, "a|bc")
    sigma = parse_partition(ABC, "ab|c")
    assert not refines(pi, sigma)
    assert not refines(sigma, pi)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_refines_agrees_with_ditset_containment(n):
    for sigma, pi in all_pairs(ground(n)):
        assert refines(sigma, pi) == (ditset(sigma).pairs <= ditset(pi).pairs)


def test_refines_ground_mismatch():
    with pytest.raises(GroundMismatch):
        refines(discrete_partition(ABC), discrete_partition(ABCD))


# --- join and meet --------------------------------------------------------


def test_join_golden_examples():
    assert join(
        parse_partition(ABC, "a|bc"), parse_partition(ABC, "ab|c")
    ) == discrete_partition(ABC)
    assert join(
        parse_partition(ABCD, "ab|cd"), parse_partition(ABCD, "ac|bd")
    ) == discrete_partition(ABCD)


def test_meet_golden_examples():
    assert meet(
        parse_partition(ABCD, "ab|cd"), parse_partition(ABCD, "ad|bc")
    ) == indiscrete_partition(ABCD)
    pi = parse_partition(ABCD, "ab|cd")
    assert meet(pi, discrete_partition(ABCD)) == pi
    assert meet(pi, indiscrete_partition(ABCD)) == indiscrete_partition(ABCD)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_lattice_laws(n):
    g = ground(n)
    bottom, top = indiscrete_partition(g), discrete_partition(g)
    for pi, sigma in all_pairs(g):
        assert join(pi, sigma) == join(sigma, pi)
        assert meet(pi, sigma) == meet(sigma, pi)
        assert join(pi, pi) == pi and meet(pi, pi) == pi
        assert join(pi, bottom) == pi and meet(pi, top) == pi
        # absorption
        assert join(pi, meet(pi, sigma)) == pi
        assert meet(pi, join(pi, sigma)) == pi
        # join/meet really are lub/glb
        up = join(pi, sigma)
        assert refines(pi, up) and refines(sigma, up)
        down = meet(pi, sigma)
        assert refines(down, pi) and refines(down, sigma)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_operations_match_block_set_oracle(n):
    for pi, sigma in all_pairs(ground(n)):
        a, b = pi.blocks, sigma.blocks
        assert join(pi, sigma).blocks == set_join(a, b)
        assert meet(pi, sigma).blocks == set_meet(a, b)
        got = implication(pi, sigma)
        assert got.blocks == set_implication(a, b)
        # the result is a valid, canonical partition
        assert got == Partition.from_index_blocks(got.ground, got.blocks)


def test_lattice_associativity_small():
    g = ground(3)
    ps = parts(3)
    for a in ps:
        for b in ps:
            for c in ps:
                assert join(join(a, b), c) == join(a, join(b, c))
                assert meet(meet(a, b), c) == meet(a, meet(b, c))


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_join_ditset_is_union_and_indit_intersection(n):
    for pi, sigma in all_pairs(ground(n)):
        up = join(pi, sigma)
        assert ditset(up).pairs == ditset(pi).pairs | ditset(sigma).pairs
        assert inditset(up).pairs == inditset(pi).pairs & inditset(sigma).pairs


def test_join_least_upper_bound_property():
    g = ground(4)
    ps = parts(4)
    for pi, sigma in all_pairs(g):
        up = join(pi, sigma)
        for tau in ps:
            if refines(pi, tau) and refines(sigma, tau):
                assert refines(up, tau)


def test_meet_greatest_lower_bound_property():
    g = ground(4)
    ps = parts(4)
    for pi, sigma in all_pairs(g):
        down = meet(pi, sigma)
        for tau in ps:
            if refines(tau, pi) and refines(tau, sigma):
                assert refines(tau, down)


# --- implication ----------------------------------------------------------


def test_implication_examples():
    sigma = parse_partition(ABC, "ab|c")
    pi = parse_partition(ABC, "a|bc")
    assert implication(sigma, pi) == pi  # {b,c} straddles sigma, kept whole
    assert implication(pi, pi) == discrete_partition(ABC)
    top, bottom = discrete_partition(ABC), indiscrete_partition(ABC)
    assert implication(top, bottom) == bottom


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_implication_law(n):
    g = ground(n)
    top = discrete_partition(g)
    for sigma, pi in all_pairs(g):
        assert (implication(sigma, pi) == top) == refines(sigma, pi)


# --- enumeration ----------------------------------------------------------


def test_enumeration_matches_insertion_oracle_sets():
    for n in range(1, 7):
        ours = {pi.blocks for pi in enumerate_partitions(ground(n))}
        oracle = {canonical(p) for p in insert_enumerate(n)}
        assert ours == oracle


def test_enumeration_first_is_bottom_and_all_distinct():
    ps = parts(4)
    assert ps[0] == indiscrete_partition(ABCD)
    assert len(set(ps)) == len(ps)


def test_enumeration_bound():
    big = GroundSet(tuple(f"x{i}" for i in range(11)))
    with pytest.raises(BoundExceeded):
        enumerate_partitions(big)
    # explicit override lifts the cap
    first = next(iter(enumerate_partitions(big, max_n=11)))
    assert first.num_blocks == 1


# --- choice_reduce --------------------------------------------------------

GOLDEN_P = ProbGroundSet.from_values(ABC, ["1/3", "1/4", "5/12"])


def test_choice_singleton_is_certain():
    assert choice_reduce([2], GOLDEN_P, rng=123) == 2


def test_choice_empty_block_rejected():
    with pytest.raises(EmptyBlock):
        choice_reduce([], GOLDEN_P, rng=0)


def test_choice_deterministic_for_seed():
    seq1 = [choice_reduce([0, 1, 2], GOLDEN_P, rng=random.Random(99)) for _ in range(20)]
    seq2 = [choice_reduce([0, 1, 2], GOLDEN_P, rng=random.Random(99)) for _ in range(20)]
    assert seq1 == seq2


def test_choice_frequencies_match_conditionals():
    # block {a,b}: conditional chances 4/7 and 3/7
    rng = random.Random(2024)
    draws = [choice_reduce([0, 1], GOLDEN_P, rng) for _ in range(7000)]
    share_a = draws.count(0) / len(draws)
    assert abs(share_a - 4 / 7) < 0.02


# --- notation and serialization -------------------------------------------


def test_notation_round_trip_all_small():
    for n in range(1, 5):
        g = ground(n)
        for pi in enumerate_partitions(g):
            assert parse_partition(g, notation(pi)) == pi


def test_notation_multichar_labels_use_commas():
    g = GroundSet(("x1", "y2", "z3"))
    pi = make_partition(g, [["x1", "y2"], ["z3"]])
    assert notation(pi) == "x1,y2|z3"
    assert parse_partition(g, "x1,y2|z3") == pi


def test_json_round_trip():
    pi = parse_partition(ABCD, "ab|cd")
    blob = partition_to_json(pi)
    assert blob == {"ground": ["a", "b", "c", "d"], "blocks": [["a", "b"], ["c", "d"]]}
    assert partition_from_json(blob) == pi
    with pytest.raises(DitkitError, match="blocks"):
        partition_from_json({"ground": ["a"]})
    for wrong in ([], {"ground": ["a"], "blocks": 5}, {"ground": 5, "blocks": []}):
        with pytest.raises(DitkitError, match="wrong shape"):
            partition_from_json(wrong)


def test_probs_validation():
    with pytest.raises(ValueError):
        ProbGroundSet.from_values(ABC, ["1/2", "1/2", "0"])
    with pytest.raises(ValueError):
        ProbGroundSet.from_values(ABC, ["1/2", "1/4", "1/2"])
    with pytest.raises(GroundMismatch):
        ProbGroundSet.from_values(ABC, ["1/2", "1/2"])
    assert ProbGroundSet.uniform(ABCD).prob([0, 1]) == Fraction(1, 2)


# --- property-based checks ------------------------------------------------


@settings(max_examples=120, deadline=None)
@given(rgs_partitions())
def test_random_partition_invariants(pi):
    seen = sorted(i for blk in pi.blocks for i in blk)
    assert seen == list(range(pi.ground.n))
    assert all(blk == tuple(sorted(blk)) for blk in pi.blocks)
    assert [blk[0] for blk in pi.blocks] == sorted(blk[0] for blk in pi.blocks)
    assert refines(pi, pi)
    assert join(pi, pi) == pi == meet(pi, pi)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_random_pair_order_laws(data):
    n = data.draw(st.integers(min_value=2, max_value=5))
    ps = parts(n)
    pi = data.draw(st.sampled_from(ps))
    sigma = data.draw(st.sampled_from(ps))
    if refines(pi, sigma) and refines(sigma, pi):
        assert pi == sigma
    assert refines(meet(pi, sigma), join(pi, sigma))

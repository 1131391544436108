from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ditkit
import oracles
from ditkit.errors import (
    BoundExceeded,
    DitkitError,
    EmptyBlock,
    GroundMismatch,
    InvalidValue,
    NotExhaustive,
    OverlappingBlocks,
    UnknownLabel,
)
from ditkit.partitions import (
    GroundSet,
    PairRelation,
    Partition,
    ProbGroundSet,
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
    partition_to_json,
    refines,
)

from ditkit.observables import DSD, Attribute, Operator
from ditkit.z2dyn import GF2Map, StateMixture, SubsetVector, choice_reduce

from oracles import (
    all_pairs,
    canonical,
    insert_enumerate,
    set_implication,
    set_join,
    set_meet,
)

AB = GroundSet(("a", "b"))
ABC = GroundSet(("a", "b", "c"))
ABCD = GroundSet(("a", "b", "c", "d"))


def ground(n: int) -> GroundSet:
    return GroundSet(tuple("abcdefgh"[:n]))


def parts(n: int) -> list[Partition]:
    return list(enumerate_partitions(ground(n)))


@st.composite
def rgs_partitions(draw, max_n=6, grounds=None):
    if grounds is None:
        g = ground(draw(st.integers(min_value=1, max_value=max_n)))
    else:
        g = draw(grounds)
    rgs = [0]
    top = 0
    for _ in range(g.n - 1):
        nxt = draw(st.integers(min_value=0, max_value=top + 1))
        rgs.append(nxt)
        top = max(top, nxt)
    blocks: list[list[int]] = [[] for _ in range(top + 1)]
    for i, b in enumerate(rgs):
        blocks[b].append(i)
    return Partition(g, blocks)


def assert_canonical(pi: Partition) -> None:
    """`pi.rgs` is a restricted growth string, element i lies in block
    `rgs[i]` of the canonical `pi.blocks`, and the checking constructor
    gives `pi` back."""
    rgs = pi.rgs
    assert len(rgs) == pi.ground.n
    assert all(0 <= b <= max(rgs[:i], default=-1) + 1 for i, b in enumerate(rgs))
    assert pi.blocks == canonical(pi.blocks)
    assert {(i, j) for j, blk in enumerate(pi.blocks) for i in blk} == set(
        enumerate(rgs)
    )
    again = Partition(pi.ground, pi.blocks)
    assert again == pi and again.blocks == pi.blocks


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


def test_constructor_checks_and_canonicalizes():
    g = ground(2)
    swapped = Partition(g, ((1,), (0,)))
    assert swapped == discrete_partition(g) and swapped.rgs == (0, 1)
    assert Partition.from_index_blocks(g, [[1, 0]]) == indiscrete_partition(g)
    with pytest.raises(NotExhaustive):
        Partition(g, ((0,),))
    bad_blocks = ([[0], [-1]], [[0], [5]], [[0], [1.0]], [[0], [True]], [[0], ["b"]])
    for bad in (*bad_blocks, [[0], None], 5):
        with pytest.raises(DitkitError):
            Partition(g, bad)
    for bad in (5, [["a"], 5]):
        with pytest.raises(DitkitError, match="blocks must be iterables of indices"):
            make_partition(g, bad)
    with pytest.raises(EmptyBlock):
        Partition(g, [[0, 1], []])
    with pytest.raises(OverlappingBlocks):
        Partition(g, [[0, 1], [1]])


@settings(max_examples=100, deadline=None)
@given(rgs_partitions(), st.randoms(use_true_random=False))
def test_block_order_does_not_matter(pi, rng):
    shuffled = [rng.sample(blk, len(blk)) for blk in pi.blocks]
    rng.shuffle(shuffled)
    again = Partition(pi.ground, shuffled)
    assert again == pi and hash(again) == hash(pi)
    assert again.blocks == canonical(shuffled)


def test_ground_set_validation():
    with pytest.raises(OverlappingBlocks):
        GroundSet(("a", "a"))
    with pytest.raises(EmptyBlock):
        GroundSet(())
    with pytest.raises(UnknownLabel):
        ABC.index("q")
    for bad in ("", "a|b", "a,b", " a", "a\n", 1, None):
        with pytest.raises(InvalidValue, match="^label .+ must be a non-empty string"):
            GroundSet(("c", bad))


_AB = GroundSet(("a", "b"))
_HALF = Fraction(1, 2)
_POINT = SubsetVector(_AB, [0])

# (constructor of one argument, the argument in a list form, its tuple twin)
CONTAINER_TWINS = {
    "ground-str": (GroundSet, "abc", ("a", "b", "c")),
    "ground-list": (GroundSet, ["a", "b"], ("a", "b")),
    "prob": (lambda p: ProbGroundSet(_AB, p), [_HALF, _HALF], (_HALF, _HALF)),
    "attribute": (lambda v: Attribute(_AB, v), [Fraction(1), _HALF], (1, _HALF)),
    "gf2map": (GF2Map, [1, 2], (1, 2)),
    "mixture": (
        lambda t: StateMixture(_AB, t), [(_POINT, 1)], ((_POINT, Fraction(1)),)
    ),
    "dsd": (lambda s: DSD(2, s), [[[1, 0]], [[0, 1]]], DSD.standard(2).subspaces),
    "operator": (Operator, [[1, 0], [0, 1]], ((1, 0), (0, 1))),
}


@pytest.mark.parametrize(
    "make, given, twin", CONTAINER_TWINS.values(), ids=list(CONTAINER_TWINS)
)
def test_value_types_store_tuples(make, given, twin):
    value = make(given)
    assert value == make(twin) and hash(value) == hash(make(twin))
    with pytest.raises(DitkitError):
        make(5)


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


# the string sorts before or after the pair by its per-process hash, so
# the first error met may be either
@pytest.mark.parametrize("pairs, error", [
    (frozenset({"x", (0, 7)}), (InvalidValue, UnknownLabel)),
    (frozenset({"x"}), InvalidValue),
    (frozenset({(0, 1, 1)}), InvalidValue),
    (frozenset({(0,)}), InvalidValue),
    (frozenset({(0, 7)}), UnknownLabel),
    (frozenset({(-1, 0)}), UnknownLabel),
    (frozenset({(True, 0)}), UnknownLabel),
    (frozenset({("a", "b")}), UnknownLabel),
])
def test_pair_relation_checks_its_pairs(pairs, error):
    """Before the pairs were checked, the first of these was accepted on a
    2-element ground, with len 2, a complement of 4 pairs and (0, 7) a
    member."""
    with pytest.raises(error):
        PairRelation(GroundSet("ab"), pairs)


def test_dit_and_indit_sets_take_the_trusted_path(monkeypatch):
    calls = []
    post_init = PairRelation.__post_init__

    def counted(self):
        calls.append(self)
        post_init(self)

    monkeypatch.setattr(PairRelation, "__post_init__", counted)
    pi = make_partition(ground(3), [["a"], ["b", "c"]])
    dits = ditset(pi)
    assert dits.complement() == inditset(pi)
    assert calls == []
    assert PairRelation(dits.ground, dits.pairs) == dits and len(calls) == 1
    ab = GroundSet("ab")
    assert PairRelation(ab, frozenset({(0, 1), (1, 1)})).complement() == (
        PairRelation(ab, frozenset({(0, 0), (1, 0)}))
    )


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
    g = ground(n)
    for pi in (discrete_partition(g), indiscrete_partition(g), *parts(n)):
        assert_canonical(pi)
    for pi, sigma in all_pairs(g):
        a, b = pi.blocks, sigma.blocks
        results = join(pi, sigma), meet(pi, sigma), implication(pi, sigma)
        expected = set_join(a, b), set_meet(a, b), set_implication(a, b)
        for got, want in zip(results, expected):
            assert got.blocks == want
            assert_canonical(got)


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


@pytest.mark.parametrize("block, error, message", [
    ([5], UnknownLabel, r"^index 5 is not in range\(3\)$"),
    ([-1, 0], UnknownLabel, r"^index -1 is not in range\(3\)$"),
    ([True, 2], UnknownLabel, r"^index True is not in range\(3\)$"),
    ([0, 7], UnknownLabel, r"^index 7 is not in range\(3\)$"),
    (["a", 1], UnknownLabel, r"^index 'a' is not in range\(3\)$"),
    (5, DitkitError, "^block must be an iterable of indices$"),
])
def test_choice_checks_its_block(block, error, message):
    with pytest.raises(error, match=message):
        choice_reduce(block, GOLDEN_P, rng=0)


def test_choice_draws_alike_for_any_iterable_of_the_members():
    blocks = ([0, 1, 2], (2, 0, 1), {1, 2, 0}, [0, 2, 2, 1])
    for seed in range(20):
        assert len({choice_reduce(iter(b), GOLDEN_P, seed) for b in blocks}) == 1


def test_choice_deterministic_for_seed():
    seq1 = [choice_reduce([0, 1, 2], GOLDEN_P, rng=random.Random(99)) for _ in range(20)]
    seq2 = [choice_reduce([0, 1, 2], GOLDEN_P, rng=random.Random(99)) for _ in range(20)]
    assert seq1 == seq2


@pytest.mark.parametrize("rng", [0.5, "7", None, [1], True, False])
@pytest.mark.parametrize("block", [[0, 1, 2], [2]])
def test_choice_refuses_anything_but_a_seed_or_a_generator(rng, block):
    with pytest.raises(InvalidValue, match="rng must be an int seed"):
        choice_reduce(block, GOLDEN_P, rng)


def test_choice_takes_an_int_seed_or_any_random_instance():
    class Subclass(random.Random):
        pass

    by_seed = choice_reduce([0, 1, 2], GOLDEN_P, 99)
    assert choice_reduce([0, 1, 2], GOLDEN_P, random.Random(99)) == by_seed
    assert choice_reduce([0, 1, 2], GOLDEN_P, Subclass(99)) == by_seed


def test_choice_frequencies_match_conditionals():
    # block {a,b}: conditional chances 4/7 and 3/7
    rng = random.Random(2024)
    draws = [choice_reduce([0, 1], GOLDEN_P, rng) for _ in range(7000)]
    share_a = draws.count(0) / len(draws)
    assert abs(share_a - 4 / 7) < 0.02


class FloatRandom(random.Random):
    """Overrides only random(), so `randrange` draws through random()."""

    def random(self):
        return (super().random() + 0.5) % 1.0


class BitsRandom(random.Random):
    """Overrides getrandbits, which `randrange` draws through: every bit
    flipped."""

    def getrandbits(self, k):
        return super().getrandbits(k) ^ ~(-1 << k)


class RangeRandom(random.Random):
    """Overrides randrange to count down from the top."""

    def randrange(self, *args):
        return args[0] - 1 - super().randrange(*args)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.one_of(st.integers(1, 6), st.integers(1, 10**12)), min_size=1, max_size=7),
    st.lists(st.integers(0, 6), min_size=1, max_size=7),
    st.integers(0, 2**32),
    st.sampled_from([random.Random, FloatRandom, BitsRandom, RangeRandom]),
)
@example([2, 2, 1], [0, 1], 0, random.Random)
@example([2, 2, 1], [0, 1], 0, FloatRandom)
@example([2, 2, 1], [0, 1], 0, BitsRandom)
@example([2, 2, 1], [0, 1], 0, RangeRandom)
def test_choice_matches_the_fraction_oracle(weights, picks, seed, generator):
    """The member drawn and the generator state left behind agree with the
    oracle's lcm-and-walk draw, over 20 draws from one generator: a
    `random.Random`, or a subclass that overrides only random(),
    getrandbits or randrange."""
    n, total = len(weights), sum(weights)
    probs = ProbGroundSet(ground(n), tuple(Fraction(w, total) for w in weights))
    block = [i % n for i in picks]
    mine, theirs = generator(seed), generator(seed)
    for _ in range(20):
        assert choice_reduce(block, probs, mine) == oracles.choice_reduce(
            block, probs, theirs
        )
        assert mine.getstate() == theirs.getstate()


# --- notation and serialization -------------------------------------------


def test_notation_round_trip_all_small():
    for n in range(1, 5):
        g = ground(n)
        for pi in enumerate_partitions(g):
            assert parse_partition(g, notation(pi)) == pi


def _valid_label(lab: str) -> bool:
    return lab == lab.strip() and "|" not in lab and "," not in lab


# ground sets of random valid labels: all of one character (compact
# notation) or up to four (comma notation)
label_grounds = st.sampled_from([1, 4]).flatmap(
    lambda size: st.lists(
        st.text(min_size=1, max_size=size).filter(_valid_label),
        min_size=1,
        max_size=6,
        unique=True,
    )
).map(lambda labels: GroundSet(tuple(labels)))


@settings(max_examples=200, deadline=None)
@given(rgs_partitions(grounds=label_grounds))
def test_notation_round_trip_random_labels(pi):
    assert parse_partition(pi.ground, notation(pi)) == pi


def test_notation_multichar_labels_use_commas():
    g = GroundSet(("x1", "y2", "z3"))
    pi = make_partition(g, [["x1", "y2"], ["z3"]])
    assert notation(pi) == "x1,y2|z3"
    assert parse_partition(g, "x1,y2|z3") == pi


def test_json_round_trip():
    pi = parse_partition(ABCD, "ab|cd")
    blob = partition_to_json(pi)
    assert blob == {"ground": ["a", "b", "c", "d"], "blocks": [["a", "b"], ["c", "d"]]}
    assert make_partition(GroundSet(tuple(blob["ground"])), blob["blocks"]) == pi


@pytest.mark.parametrize(
    "make",
    [
        lambda: ProbGroundSet.from_values(ABC, ["1/2", "1/2", "0"]),
        lambda: ditkit.SqrtRational(Fraction(-1)),
        lambda: ditkit.Attribute(ABC, (Fraction(1),)),
        lambda: ditkit.csca_complete([]),
        lambda: ditkit.StateMixture(ABC, ()),
        lambda: ditkit.StateMixture(
            ABC, ((ditkit.SubsetVector(ABC, [0]), "x"),)
        ),
        lambda: ditkit.StateMixture(ABC, ((ditkit.SubsetVector(ABC, [0]), 1.0),)),
        lambda: ditkit.check_validity(ditkit.parse("p"), max_n=1),
        lambda: ditkit.check_validity(ditkit.parse("p"), max_n=2.5),
        lambda: ditkit.check_validity(ditkit.parse("p"), max_n=True),
        lambda: ditkit.check_validity(ditkit.parse("p"), max_n=3, budget="x"),
        lambda: ditkit.DensityMatrix.from_json(
            {"ground": ["a"], "entries": [[{"radicand": "-1"}]]}
        ),
    ],
    ids=[
        "probs",
        "radicand",
        "attribute",
        "csca",
        "mixture",
        "mixture-weight",
        "mixture-float",
        "max_n",
        "max_n-float",
        "max_n-bool",
        "budget-str",
        "radicand-json",
    ],
)
def test_bad_values_raise_invalid_value(make):
    with pytest.raises(InvalidValue) as info:
        make()
    assert isinstance(info.value, DitkitError) and isinstance(info.value, ValueError)


@pytest.mark.parametrize(
    "read, blob, what",
    [
        (
            ditkit.DensityMatrix.from_json,
            {"ground": ["a"], "entries": [[{"radicand": "abc"}]]},
            "density matrix",
        ),
        (ditkit.DSD.from_json, {"dim": 1, "subspaces": [[["x"]]]}, "DSD"),
        (
            ditkit.Attribute.from_json,
            {"ground": ["a"], "values": {"a": "zz"}},
            "attribute",
        ),
        (
            ditkit.DensityMatrix.from_json,
            {"ground": ["a"], "entries": [[{"radicand": "1/0"}]]},
            "density matrix",
        ),
        (ditkit.DSD.from_json, {"dim": 1, "subspaces": [[["1/0"]]]}, "DSD"),
        (
            ditkit.Attribute.from_json,
            {"ground": ["a"], "values": {"a": "1/0"}},
            "attribute",
        ),
        (
            ditkit.DensityMatrix.from_json,
            {"ground": ["a"], "entries": [[{"radicand": 1.0}]]},
            "density matrix",
        ),
        (ditkit.DSD.from_json, {"dim": 1, "subspaces": [[[0.1]]]}, "DSD"),
        (
            ditkit.Attribute.from_json,
            {"ground": ["a", "b"], "values": {"a": 0.5, "b": 1}},
            "attribute",
        ),
        (
            ditkit.DensityMatrix.from_json,
            {"ground": ["a"], "entries": [[{"radicand": True}]]},
            "density matrix",
        ),
        (ditkit.DSD.from_json, {"dim": 1, "subspaces": [[[True]]]}, "DSD"),
        (
            ditkit.Attribute.from_json,
            {"ground": ["a", "b"], "values": {"a": 1, "b": True}},
            "attribute",
        ),
    ],
    ids=[
        "density",
        "dsd",
        "attribute",
        "density-zero",
        "dsd-zero",
        "attribute-zero",
        "density-float",
        "dsd-float",
        "attribute-float",
        "density-bool",
        "dsd-bool",
        "attribute-bool",
    ],
)
def test_malformed_json_number_raises_ditkit_error(read, blob, what):
    with pytest.raises(DitkitError, match=f"^{what} JSON has a malformed value") as e:
        read(blob)
    assert not isinstance(e.value, ValueError)


@pytest.mark.parametrize("text", ["x", "1/0"])
@pytest.mark.parametrize(
    "read",
    [ProbGroundSet.from_values, ditkit.Attribute.from_values],
    ids=["probs", "attribute"],
)
def test_malformed_numbers_raise_invalid_value(read, text):
    with pytest.raises(InvalidValue, match=f"^'{text}' is not a rational number$"):
        read(GroundSet(("a", "b")), [text, "1"])


@pytest.mark.parametrize(
    "read, message",
    [
        (lambda: ditkit.Attribute.from_map(AB, {"a": 1}), "no value for label 'b'"),
        (lambda: ditkit.Attribute.from_map(AB, {"a": "x", "b": 1}), "'x' is not"),
        (lambda: ditkit.DSD.from_vectors(2, [[["x", 0]]]), "'x' is not"),
        (lambda: ditkit.SqrtRational.of("1/0"), "'1/0' is not"),
        (lambda: ditkit.SqrtRational.from_rational("x"), "'x' is not"),
        (lambda: ditkit.SqrtRational.of(1).scaled("1/0"), "'1/0' is not"),
        (lambda: ProbGroundSet.from_values(AB, [None, 1]), "None is not"),
        (lambda: ProbGroundSet.from_values(AB, [float("inf"), 1]), "inf is not"),
        (lambda: ProbGroundSet.from_values(AB, [0.1, 0.9]), "0.1 is not"),
        (lambda: ditkit.Attribute.from_values(AB, [0.1, 1]), "0.1 is not"),
        (lambda: ditkit.DSD.from_vectors(2, [[(0.1, 0)], [(0, 1)]]), "0.1 is not"),
        (lambda: ditkit.SqrtRational.of(0.1), "0.1 is not"),
        (lambda: ditkit.Attribute.from_values(AB, [True, 1]), "True is not"),
    ],
    ids=[
        "map-missing", "map-malformed", "dsd", "sqrt-zero", "sqrt-embed",
        "sqrt-scale", "probs-none", "probs-inf", "probs-float",
        "attribute-float", "dsd-float", "sqrt-float", "attribute-bool",
    ],
)
def test_number_readers_raise_invalid_value(read, message):
    with pytest.raises(InvalidValue, match=f"^{message}"):
        read()


@pytest.mark.parametrize("bad", [0.5, "1/2", None, True], ids=repr)
@pytest.mark.parametrize(
    "make, what",
    [
        (lambda x: ProbGroundSet(AB, [x, Fraction(1, 2)]), "point probabilities"),
        (lambda x: ditkit.Attribute(AB, [x, 1]), "attribute values"),
        (lambda x: ditkit.Operator([[x, 0], [0, 1]]), "operator entries"),
        (lambda x: ditkit.DSD(2, [[(x, 0)], [(0, 1)]]), "basis entries"),
    ],
    ids=["probs", "attribute", "operator", "dsd"],
)
def test_checking_constructors_take_only_exact_numbers(make, what, bad):
    with pytest.raises(InvalidValue, match=f"^{what} must be int or Fraction, got "):
        make(bad)


@pytest.mark.parametrize(
    "read, message",
    [
        (lambda: ditkit.DSD.from_vectors(2, [5]), "groups must be"),
        (lambda: ditkit.DSD.from_vectors(2, 5), "groups must be"),
        (lambda: ditkit.DSD.from_vectors(2, [[5]]), "groups must be"),
        (lambda: ditkit.Attribute.from_map(AB, 5), "mapping must"),
        (lambda: ditkit.Attribute.from_map(AB, ["a", "b"]), "mapping must"),
        (lambda: ditkit.Attribute.from_values(AB, 5), "values must be"),
        (lambda: ProbGroundSet.from_values(AB, 5), "point probabilities must be"),
        (lambda: GF2Map.from_images(AB, None), "images must be a mapping"),
        (lambda: GF2Map.from_images(AB, "ab"), "images must be a mapping"),
        (lambda: Partition(AB, 5), "blocks must be"),
        (lambda: SubsetVector(AB, 5), "members must be"),
        (lambda: choice_reduce(5, ProbGroundSet.uniform(AB), 0), "block must be"),
        (lambda: parse_partition(AB, None), "partition text must be a str"),
        (lambda: enumerate_partitions(AB, "x"), "max_n must be"),
        (lambda: PairRelation(None, frozenset()), "ground must be a GroundSet"),
        (lambda: ProbGroundSet.uniform(AB).weight(5), "indices must be an iterable"),
    ],
    ids=[
        "dsd-group", "dsd-groups", "dsd-vector", "map-int", "map-list", "values",
        "probs-values", "images-none", "images-str", "partition", "subset",
        "choice-block", "parse-none", "enum-bound", "pair-relation", "probs-weight",
    ],
)
def test_non_iterable_containers_raise_ditkit_error(read, message):
    with pytest.raises(InvalidValue, match=f"^{message}"):
        read()


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

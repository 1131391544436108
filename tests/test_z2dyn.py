from __future__ import annotations

import bisect
import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ditkit import (
    Detect,
    DimensionMismatch,
    DitkitError,
    EmptyState,
    Evolve,
    GF2Map,
    GroundMismatch,
    GroundSet,
    InvalidValue,
    Measure,
    Partition,
    ProbGroundSet,
    StateMixture,
    SingularMap,
    SubsetVector,
    UnknownLabel,
    double_slit,
    double_slit_setup,
    double_slit_steps,
    evolve,
    is_nonsingular,
    make_partition,
    run_pipeline,
    sample_pipeline,
)
from ditkit.density import ProjectionMask

from oracles import gf2_inverse, gf2_nonsingular
from oracles import reduce as oracle_reduce
from oracles import run_pipeline as oracle_run_pipeline
from oracles import sample_pipeline as oracle_sample_pipeline

U3 = GroundSet(("a", "b", "c"))
F = Fraction


def vec(labels: str) -> SubsetVector:
    return SubsetVector.from_labels(U3, labels)


# --- GF(2) vectors ---


def test_symmetric_difference_examples():
    assert vec("ab") + vec("bc") == vec("ac")
    s = vec("ab")
    assert s + s == SubsetVector.empty(U3)
    assert s + SubsetVector.empty(U3) == s
    with pytest.raises(GroundMismatch):
        vec("a") + SubsetVector.from_labels(GroundSet(("x", "y")), "x")


def test_vector_presentation():
    assert str(vec("ca")) == "{a,c}"
    assert str(SubsetVector.empty(U3)) == "{}"
    assert vec("ac").labels() == ("a", "c")
    assert len(vec("ab")) == 2


@pytest.mark.parametrize(
    "member, shown",
    [(5, "5"), (-1, "-1"), (0.5, "0.5"), ("a", "'a'"), (True, "True")],
)
def test_members_must_be_indices_in_range(member, shown):
    for cls in (SubsetVector, ProjectionMask):
        with pytest.raises(UnknownLabel, match=rf"index {shown} is not in range\(3\)"):
            cls(U3, frozenset({member}))


@pytest.mark.parametrize(
    "make",
    [
        lambda: SubsetVector(U3, 5),
        lambda: SubsetVector.from_labels(U3, 5),
        lambda: ProjectionMask(U3, 5),
        lambda: ProjectionMask.from_labels(U3, 5),
        lambda: GF2Map.from_images(U3, {"a": 5, "b": [], "c": []}),
    ],
    ids=["subset", "subset-labels", "mask", "mask-labels", "map-image"],
)
def test_non_iterable_members_raise_ditkit_error(make):
    with pytest.raises(InvalidValue, match="^members must be an iterable$"):
        make()


@pytest.mark.parametrize("cls", [SubsetVector, ProjectionMask])
@pytest.mark.parametrize("ground", [None, ("a", "b", "c")], ids=["none", "tuple"])
def test_vectors_are_built_on_a_ground_set(cls, ground):
    with pytest.raises(InvalidValue, match="^ground must be a GroundSet, got "):
        cls(ground, [0])


def test_mask_is_the_stored_form():
    s = vec("ca")
    assert s.mask == 0b101
    assert s.members == frozenset({0, 2})
    assert repr(s) == (
        "SubsetVector(ground=GroundSet(labels=('a', 'b', 'c')),"
        " members=frozenset({0, 2}))"
    )
    assert SubsetVector.from_bits(U3, 0b11101) == s  # bits >= n are dropped
    assert hash(SubsetVector.from_bits(U3, 0b101)) == hash(s)
    with pytest.raises(AttributeError):
        s.members = frozenset()
    # a projection is the same bitmask, but never equal to a SubsetVector
    m = ProjectionMask.from_labels(U3, "ca")
    assert m.mask == 0b101 and m.members == frozenset({0, 2})
    assert repr(m) == (
        "ProjectionMask(ground=GroundSet(labels=('a', 'b', 'c')),"
        " members=frozenset({0, 2}))"
    )
    assert m.complement() == ProjectionMask(U3, [1])
    assert type(m.complement()) is ProjectionMask
    assert 0 in m and 2 in m and 1 not in m and 5 not in m
    assert hash(ProjectionMask.from_bits(U3, 0b11101)) == hash(m)
    assert m != s and s != m


def test_bits_round_trip():
    for members in itertools.chain.from_iterable(
        itertools.combinations("abc", k) for k in range(4)
    ):
        s = SubsetVector.from_labels(U3, members)
        assert SubsetVector.from_bits(U3, s.mask) == s


# --- linear maps ---


def test_map_from_images_and_entries():
    _, dynamics, _ = double_slit_setup()
    assert dynamics.cols == (0b011, 0b111, 0b110)
    assert dynamics.entry(0, 0) == 1
    assert dynamics.entry(2, 0) == 0


def test_nonsingularity():
    _, dynamics, _ = double_slit_setup()
    assert is_nonsingular(dynamics)
    assert is_nonsingular(GF2Map.identity(4))
    repeated = GF2Map((0b011, 0b011, 0b100))
    assert not is_nonsingular(repeated)
    with pytest.raises(DimensionMismatch):
        GF2Map((0b10, 0b100))  # bit beyond a 2-dim map


def test_evolution_examples():
    _, dynamics, start = double_slit_setup()
    assert evolve(start, dynamics) == vec("ac")  # interference: b cancels
    assert evolve(vec("b"), dynamics) == vec("abc")
    assert evolve(vec("ab"), dynamics) == vec("c")
    empty = SubsetVector.empty(U3)
    assert evolve(empty, dynamics) == empty
    with pytest.raises(DimensionMismatch):
        evolve(SubsetVector.from_labels(GroundSet(("x", "y")), "x"), dynamics)


def test_evolution_is_linear():
    _, dynamics, _ = double_slit_setup()
    vectors = [
        SubsetVector.from_bits(U3, mask) for mask in range(8)
    ]
    for s, t in itertools.product(vectors, repeat=2):
        assert evolve(s + t, dynamics) == evolve(s, dynamics) + evolve(t, dynamics)


def test_inverse_round_trip():
    _, dynamics, _ = double_slit_setup()
    inv = dynamics.inverse()
    for mask in range(8):
        s = SubsetVector.from_bits(U3, mask)
        assert evolve(evolve(s, dynamics), inv) == s
        assert evolve(evolve(s, inv), dynamics) == s
    with pytest.raises(ArithmeticError):
        GF2Map((0b01, 0b01)).inverse()
    with pytest.raises(SingularMap, match="singular over GF"):
        GF2Map((0b01, 0b01)).inverse()
    assert issubclass(SingularMap, DitkitError)


def test_random_nonsingular_maps_have_inverses():
    rng = random.Random(3)
    found = 0
    for _ in range(300):
        n = rng.randint(1, 12)
        m = GF2Map(tuple(rng.randrange(1 << n) for _ in range(n)))
        assert m.nonsingular == gf2_nonsingular(m.cols)
        if not m.nonsingular:
            with pytest.raises(ArithmeticError):
                m.inverse()
            with pytest.raises(DitkitError):
                m.inverse()
            continue
        inv = m.inverse()
        assert inv.cols == gf2_inverse(m.cols)
        for j in range(n):
            assert inv.apply_bits(m.cols[j]) == 1 << j
        found += 1
    assert found >= 20


# --- mixtures and reduction ---


def test_mixture_validation():
    with pytest.raises(ValueError):
        StateMixture(U3, ((vec("a"), F(1, 2)), (vec("a"), F(1, 2))))
    with pytest.raises(ValueError):
        StateMixture(U3, ((vec("a"), F(1, 2)),))
    with pytest.raises(ValueError):
        StateMixture(U3, ((vec("a"), F(3, 2)), (vec("b"), F(-1, 2))))
    with pytest.raises(GroundMismatch):
        StateMixture(
            U3,
            ((SubsetVector.from_labels(GroundSet(("x",)), "x"), F(1)),),
        )


def test_mixture_components_are_distinct_by_members():
    # a ProjectionMask never equals the SubsetVector with its members
    with pytest.raises(InvalidValue, match="^mixture components must be distinct$"):
        StateMixture(U3, ((vec("a"), F(1, 2)), (ProjectionMask(U3, [0]), F(1, 2))))
    m = StateMixture(U3, ((ProjectionMask(U3, [0]), F(1, 3)), (vec("b"), F(2, 3))))
    assert m.probability(vec("a")) == F(1, 3)
    assert m.probability(ProjectionMask(U3, [1])) == F(2, 3)
    assert m.singleton_distribution() == {"a": F(1, 3), "b": F(2, 3), "c": 0}


@pytest.mark.parametrize(
    "component, shown",
    [([0], r"\[0\]"), ((0,), r"\(0,\)"), ("a", "'a'")],
    ids=["list", "tuple", "label"],
)
def test_mixture_components_must_be_subset_vectors(component, shown):
    with pytest.raises(DitkitError, match=f"^mixture component {shown} is not"):
        StateMixture(U3, ((component, F(1)),))
    with pytest.raises(DitkitError, match=f"^mixture component {shown} is not"):
        StateMixture(U3, ((vec("a"), F(1, 2)), (component, F(1, 2))))


@pytest.mark.parametrize("rest", [(F(1), 2), ()], ids=["triple", "single"])
def test_mixture_terms_must_be_pairs(rest):
    with pytest.raises(InvalidValue, match="^mixture term of length [13] is not a"):
        StateMixture(U3, ((vec("a"), *rest),))


def collapse(s, p=None):
    """Detection alone: a subset state reduced to its singletons."""
    return run_pipeline(s, [Detect()], p)


def test_reduce_uniform_and_weighted():
    m = collapse(vec("ab"))
    assert m.probability(vec("a")) == F(1, 2)
    assert m.probability(vec("b")) == F(1, 2)
    assert m.probability(vec("c")) == 0
    p = ProbGroundSet.from_values(U3, ["1/3", "1/4", "5/12"])
    m = collapse(vec("ab"), p)
    assert m.probability(vec("a")) == F(4, 7)
    assert m.probability(vec("b")) == F(3, 7)
    assert collapse(vec("c")).probability(vec("c")) == 1
    with pytest.raises(EmptyState):
        collapse(SubsetVector.empty(U3))


def test_singleton_distribution_requires_singletons():
    with pytest.raises(ValueError):
        StateMixture.point(vec("ab")).singleton_distribution()
    dist = StateMixture(
        U3, [(vec("a"), F(1, 2)), (vec("c"), F(1, 2))]
    ).singleton_distribution()
    assert dist == {"a": F(1, 2), "b": F(0), "c": F(1, 2)}


# --- pipelines ---


def test_empty_pipeline_is_point_mass():
    m = run_pipeline(vec("ac"), [])
    assert m.terms == ((vec("ac"), F(1)),)


def test_measure_splits_across_blocks():
    sigma = make_partition(U3, [["a", "b"], ["c"]])
    m = run_pipeline(vec("abc"), [Measure(sigma)])
    assert m.probability(vec("ab")) == F(2, 3)
    assert m.probability(vec("c")) == F(1, 3)
    # weighted variant
    p = ProbGroundSet.from_values(U3, ["1/3", "1/4", "5/12"])
    m = run_pipeline(vec("abc"), [Measure(sigma)], p)
    assert m.probability(vec("ab")) == F(7, 12)
    assert m.probability(vec("c")) == F(5, 12)


def test_measure_respecting_blocks_is_identity():
    sigma = make_partition(U3, [["a", "c"], ["b"]])
    m = run_pipeline(vec("ac"), [Measure(sigma)])
    assert m.terms == ((vec("ac"), F(1)),)


def test_pipeline_probabilities_always_sum_to_one():
    _, dynamics, _ = double_slit_setup()
    rng = random.Random(9)
    steps_pool = [
        Evolve(dynamics),
        Measure(make_partition(U3, [["a", "b"], ["c"]])),
        Detect(),
    ]
    for _ in range(25):
        steps = [rng.choice(steps_pool) for _ in range(rng.randint(0, 4))]
        m = run_pipeline(vec("ac"), steps)
        assert sum(q for _, q in m.terms) == 1


both_pipelines = pytest.mark.parametrize(
    "pipeline",
    [run_pipeline, lambda s, steps, p=None: sample_pipeline(s, steps, 5, 0, p)],
    ids=["run_pipeline", "sample_pipeline"],
)


@both_pipelines
def test_mismatched_measurement_ground(pipeline):
    start = SubsetVector.from_labels(GroundSet(("a", "b")), "ab")
    xy = GroundSet(("x", "y"))
    xyz = GroundSet(("x", "y", "z"))
    with pytest.raises(GroundMismatch):
        pipeline(vec("a"), [Measure(make_partition(xy, [["x"], ["y"]]))])
    with pytest.raises(GroundMismatch):
        pipeline(start, [Measure(make_partition(xy, [["x"], ["y"]]))])
    with pytest.raises(GroundMismatch):
        pipeline(start, [Measure(make_partition(xyz, [["x"], ["y", "z"]]))])
    with pytest.raises(GroundMismatch):
        pipeline(start, [Detect()], ProbGroundSet.uniform(xyz))
    # every step is checked before the first runs, so a later foreign
    # Measure wins over the EmptyState the singular map would cause
    singular = Evolve(GF2Map((0b11, 0b11)))
    foreign = Measure(make_partition(xy, [["x"], ["y"]]))
    with pytest.raises(GroundMismatch):
        pipeline(start, [singular, Detect(), foreign])


@both_pipelines
def test_bad_steps_raise(pipeline):
    start = SubsetVector.from_labels(GroundSet(("a", "b")), "ab")
    with pytest.raises(DimensionMismatch):
        pipeline(start, [Evolve(GF2Map.identity(3))])
    with pytest.raises(InvalidValue, match="unknown pipeline step"):
        pipeline(start, [Detect(), "coin flip"])


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: GF2Map((0.5,)), "column 0.5 is not an int bitmask"),
        (lambda: GF2Map((True,)), "column True is not an int bitmask"),
        (lambda: GF2Map.from_images(GroundSet(("a",)), {}), "label 'a' has no image"),
        (lambda: double_slit(1.0), "case must be 1 or 2"),
        (lambda: double_slit(True), "case must be 1 or 2"),
        (lambda: double_slit(F(2)), "case must be 1 or 2"),
        (lambda: double_slit(0), "case must be 1 or 2"),
        (lambda: double_slit(3), "case must be 1 or 2"),
        (lambda: double_slit_steps(-1), "case must be 1 or 2"),
    ],
    ids=["float-column", "bool-column", "missing-image", "float-case", "bool-case",
         "fraction-case", "case-0", "case-3", "steps-case-minus-1"],
)
def test_bad_maps_raise_invalid_value(make, message):
    with pytest.raises(InvalidValue, match=message):
        make()


def test_sampler_checks_everything_before_the_first_trial():
    start = SubsetVector.from_labels(GroundSet(("a", "b")), "ab")
    for trials in (-1, 2.5, True):
        with pytest.raises(DitkitError, match="non-negative integer"):
            sample_pipeline(start, [], trials, 0)
    assert sample_pipeline(start, [Detect()], 0, 0) == {}
    foreign = make_partition(GroundSet(("x", "y")), [["x"], ["y"]])
    for steps, error in (
        ([Evolve(GF2Map.identity(3))], DimensionMismatch),
        ([Detect(), Measure(foreign)], GroundMismatch),
        (["coin flip"], InvalidValue),
    ):
        with pytest.raises(error):
            sample_pipeline(start, steps, 0, 0)


@pytest.mark.parametrize("rng", [0.5, "7", None, [1], True, False])
@pytest.mark.parametrize("trials", [0, 5])
def test_sampler_refuses_anything_but_a_seed_or_a_generator(rng, trials):
    start = SubsetVector.from_labels(U3, "abc")
    with pytest.raises(InvalidValue, match="rng must be an int seed"):
        sample_pipeline(start, [Detect()], trials, rng)


@both_pipelines
def test_measuring_after_singular_map_raises_empty_state(pipeline):
    ab = GroundSet(("a", "b"))
    singular = Evolve(GF2Map((0b11, 0b11)))  # {a,b} evolves to the empty set
    start = SubsetVector.from_labels(ab, "ab")
    for last in (Detect(), Measure(make_partition(ab, [["a"], ["b"]]))):
        with pytest.raises(EmptyState, match="step 1 "):
            pipeline(start, [singular, last])


# --- the three-point interferometer ---


def test_case1_distribution():
    assert double_slit(1) == {"a": F(1, 4), "b": F(1, 2), "c": F(1, 4)}


def test_case2_distribution():
    assert double_slit(2) == {"a": F(1, 2), "b": F(0), "c": F(1, 2)}


def test_case1_is_detect_then_evolve_then_detect():
    _, dynamics, start = double_slit_setup()
    steps = double_slit_steps(1)
    assert [type(s) for s in steps] == [Detect, Evolve, Detect]
    assert steps[1].map == dynamics
    # law of total probability: composing the two branch distributions
    m = run_pipeline(start, steps)
    by_hand = {
        "a": F(1, 2) * F(1, 2),
        "b": F(1, 2) * F(1, 2) + F(1, 2) * F(1, 2),
        "c": F(1, 2) * F(1, 2),
    }
    assert m.singleton_distribution() == by_hand


def test_case2_interference_skips_b():
    _, dynamics, start = double_slit_setup()
    assert evolve(start, dynamics) == vec("ac")
    steps = double_slit_steps(2)
    assert [type(s) for s in steps] == [Evolve, Detect]
    with pytest.raises(ValueError):
        double_slit_steps(3)


def test_double_slit_dynamics_certified_nonsingular():
    _, dynamics, _ = double_slit_setup()
    assert is_nonsingular(dynamics)
    assert dynamics.inverse().cols is not None


# --- sampling ---


def test_sampling_is_deterministic_per_seed():
    _, _, start = double_slit_setup()
    steps = double_slit_steps(1)
    a = sample_pipeline(start, steps, 200, 12345)
    b = sample_pipeline(start, steps, 200, 12345)
    assert a == b
    assert sum(a.values()) == 200


def test_sampling_tracks_exact_distribution():
    _, _, start = double_slit_setup()
    for case in (1, 2):
        steps = double_slit_steps(case)
        counts = sample_pipeline(start, steps, 8000, random.Random(7))
        exact = double_slit(case)
        for label, q in exact.items():
            got = counts.get(vec(label), 0) / 8000
            assert abs(got - float(q)) < 0.02


def test_sampling_weighted_measurement():
    p = ProbGroundSet.from_values(U3, ["1/3", "1/4", "5/12"])
    sigma = make_partition(U3, [["a", "b"], ["c"]])
    counts = sample_pipeline(
        vec("abc"), [Measure(sigma)], 6000, random.Random(11), p
    )
    assert abs(counts.get(vec("ab"), 0) / 6000 - 7 / 12) < 0.02
    assert abs(counts.get(vec("c"), 0) / 6000 - 5 / 12) < 0.02


# --- the compiled sampler against the choice_reduce oracle ---


class RecordingRandom(random.Random):
    """A seeded generator that logs the width and the result of every
    getrandbits, the one source `randrange` draws integers from."""

    def __init__(self, seed):
        super().__init__(seed)
        self.calls = []

    def getrandbits(self, k):
        r = super().getrandbits(k)
        self.calls.append((k, r))
        return r


class FloatRandom(random.Random):
    """Overrides only random(), so `randrange` draws through random() and
    the sampler must fall back to it.  Logs every random() result."""

    def __init__(self, seed):
        super().__init__(seed)
        self.calls = []

    def random(self):
        x = super().random()
        self.calls.append(x)
        return x


class LowRandom(random.Random):
    """Overrides randrange to return 0 below any total above 2, so the
    sampler must call it as `choice_reduce` does.  Logs every call."""

    def __init__(self, seed):
        super().__init__(seed)
        self.calls = []

    def randrange(self, *args):
        r = 0 if args[0] > 2 else super().randrange(*args)
        self.calls.append((args, r))
        return r


def sampled(pipeline, start, steps, trials, seed, p, generator=RecordingRandom):
    """Counts in dict order (or the EmptyState message), every logged
    draw, and the generator state left behind."""
    rng = generator(seed)
    try:
        outcome = list(pipeline(start, steps, trials, rng, p).items())
    except EmptyState as exc:
        outcome = str(exc)
    return outcome, rng.calls, rng.getstate()


@st.composite
def gf2_maps(draw, n):
    """A random column list, or a nonsingular map built from a permutation
    by random column additions."""
    if draw(st.booleans()):
        return GF2Map(tuple(draw(st.lists(
            st.integers(0, (1 << n) - 1), min_size=n, max_size=n))))
    cols = [1 << i for i in draw(st.permutations(range(n)))]
    if n > 1:
        pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
        for i, j in draw(st.lists(pairs.filter(lambda t: t[0] != t[1]), max_size=8)):
            cols[i] ^= cols[j]
    return GF2Map(tuple(cols))


@st.composite
def sampler_setups(draw):
    n = draw(st.integers(1, 6))
    ground = GroundSet(tuple("abcdef"[:n]))
    measures = st.builds(
        lambda labels: Measure(Partition(ground, [
            [i for i in range(n) if labels[i] == b] for b in sorted(set(labels))
        ])),
        st.lists(st.integers(0, n - 1), min_size=n, max_size=n),
    )
    steps = draw(st.lists(
        st.one_of(gf2_maps(n).map(Evolve), st.just(Detect()), measures),
        min_size=1, max_size=5,
    ))
    # small weights give tables of one bucket per draw, with a reject
    # region whenever the total is not a power of two; weights up to 10**6
    # give tables whose buckets hold many draws
    weights = draw(
        st.none()
        | st.lists(st.integers(1, 10**6), min_size=n, max_size=n)
        | st.lists(st.integers(1, 9), min_size=n, max_size=n)
    )
    p = None if weights is None else ProbGroundSet(
        ground, tuple(F(w, sum(weights)) for w in weights))
    start = SubsetVector.from_bits(ground, draw(st.integers(0, (1 << n) - 1)))
    return start, steps, p


# p = (2/9, 4/9, 3/9): the draw over {a,b} has counts (2, 4), since
# gcd(D, W_a, W_b) = gcd(9, 2, 4) = 1, not (1, 2) from gcd(W_a, W_b) = 2.
GCD_CASE = (
    vec("abc"),
    [Measure(make_partition(U3, [["a", "b"], ["c"]])), Detect()],
    ProbGroundSet.from_values(U3, ["2/9", "4/9", "1/3"]),
)


def bucket_edge(a: int, b: int):
    """Detect on {a, b} with p = (a, b, 1) / (a + b + 1), so one draw table
    whose members a and b count a and b draws of its total a + b.  A total
    of 255 draws 8 bits, one draw per bucket; a total of 256 to 1023 draws
    9 or 10, two or four draws per bucket."""
    t = a + b + 1
    p = ProbGroundSet.from_values(U3, [f"{a}/{t}", f"{b}/{t}", f"1/{t}"])
    return vec("ab"), [Detect()], p


ABCD = GroundSet(tuple("abcd"))


# p = (1, 255, 256, 256)/768: Measure(ab|cd) draws from a 10-bit table,
# Detect on {c, d} from a 1-bit one, and Detect on {a, b, c}, the image of
# c, from a 10-bit one, so a trajectory goes from four draws per bucket
# to one and back.
MIXED_WIDTHS = (
    SubsetVector.from_bits(ABCD, 0b1111),
    [
        Measure(make_partition(ABCD, [["a", "b"], ["c", "d"]])),
        Detect(),
        Evolve(GF2Map((1, 2, 7, 11))),
        Detect(),
    ],
    ProbGroundSet.from_values(ABCD, ["1/768", "255/768", "1/3", "1/3"]),
)


@settings(max_examples=150, deadline=None)
@given(sampler_setups(), st.integers(0, 80), st.integers(0, 2**32))
@example(GCD_CASE, 60, 0)
@example(bucket_edge(1, 254), 300, 0)
@example(bucket_edge(1, 255), 300, 0)
@example(bucket_edge(1, 256), 300, 0)
@example(bucket_edge(256, 256), 300, 0)
@example(MIXED_WIDTHS, 300, 0)
def test_sampler_matches_choice_reduce_oracle(setup, trials, seed):
    start, steps, p = setup
    assert sampled(sample_pipeline, start, steps, trials, seed, p) == sampled(
        oracle_sample_pipeline, start, steps, trials, seed, p
    )


@settings(max_examples=60, deadline=None)
@given(sampler_setups(), st.integers(0, 40), st.integers(0, 2**32))
@example(GCD_CASE, 60, 0)
@example(bucket_edge(1, 256), 300, 0)
@example(bucket_edge(256, 256), 300, 0)
@example(MIXED_WIDTHS, 300, 0)
def test_sampler_falls_back_to_randrange_for_other_generators(setup, trials, seed):
    start, steps, p = setup
    for generator in (FloatRandom, LowRandom):
        assert sampled(sample_pipeline, start, steps, trials, seed, p, generator) == (
            sampled(oracle_sample_pipeline, start, steps, trials, seed, p, generator)
        )


@pytest.mark.parametrize(
    "a, b, trials, bisects",
    [(1, 254, 1000, 2), (1, 254, 5, 1), (1, 255, 1000, 8), (256, 256, 1000, 2),
     (300, 700, 1000, 2)],
    ids=["255-1000-2", "255-5-1", "256-1000-8", "512-1000-2", "1000-1000-2"],
)
def test_slot_tables_take_draws_of_up_to_eight_bits(monkeypatch, a, b, trials, bisects):
    """A table bisects on the first draw into each member's whole buckets
    and on every draw into a bucket that straddles two members.  Draws of
    up to 8 bits have one draw per bucket, so a member bisects once however
    few trials reach it; at 256 = 1 + 255 the 9-bit draws 0 and 1 share
    bucket 0, where member a ends, so the draws into it bisect each time;
    at 512 = 256 + 256 and 1000 = 300 + 700 every member ends on a bucket
    edge."""
    calls = []
    bisect_right = bisect.bisect_right

    def counted(*args):
        calls.append(args)
        return bisect_right(*args)

    monkeypatch.setattr(bisect, "bisect_right", counted)
    start, steps, p = bucket_edge(a, b)
    counts = sample_pipeline(start, steps, trials, 3, p)
    assert sum(counts.values()) == trials
    assert len(calls) == bisects


def test_draw_counts_divide_by_the_gcd_with_the_denominator():
    start, steps, p = GCD_CASE
    got = sampled(sample_pipeline, start, steps, 50, 1, p)
    # totals 9 and 6 draw 4 and 3 bits; a total of 3, from gcd(W_a, W_b),
    # would draw 2
    assert {width for width, _ in got[1]} == {4, 3}
    assert got == sampled(oracle_sample_pipeline, start, steps, 50, 1, p)


def test_empty_start_raises_only_when_a_trial_measures_it():
    empty = SubsetVector.empty(U3)
    rng = random.Random(5)
    state = rng.getstate()
    assert sample_pipeline(empty, [Detect()], 0, rng) == {}
    with pytest.raises(EmptyState, match="^step 0 measures the empty state$"):
        sample_pipeline(empty, [Detect()], 1, rng)
    assert rng.getstate() == state


# --- the exact pipeline against the frozenset / Fraction oracle ---


def exact(pipeline, *args):
    """Terms in order with the type of each weight, or the EmptyState
    message."""
    try:
        mixture = pipeline(*args)
    except EmptyState as exc:
        return str(exc)
    return [(vec, type(q), q) for vec, q in mixture.terms]


U5 = GroundSet(tuple("abcde"))


@settings(max_examples=200, deadline=None)
@given(sampler_setups())
@example(GCD_CASE)
@example((
    SubsetVector.from_labels(GroundSet(("a", "b")), "ab"),
    [Evolve(GF2Map((0b11, 0b11))), Detect()],
    None,
))
# {a,c} (mask 5) comes before {b} (mask 2): terms sort by member list
@example((vec("abc"), [Measure(make_partition(U3, [["a", "c"], ["b"]]))], None))
# tables of totals 2 and 3 at the Detect: the denominator grows by lcm 6
@example((
    SubsetVector.from_labels(U5, "abcde"),
    [Measure(make_partition(U5, [["a", "b"], ["c", "d", "e"]])), Detect()],
    None,
))
def test_run_pipeline_matches_fraction_oracle(setup):
    start, steps, p = setup
    assert exact(run_pipeline, start, steps, p) == exact(
        oracle_run_pipeline, start, steps, p
    )
    if start.mask:
        assert exact(collapse, start, p) == exact(oracle_reduce, start, p)

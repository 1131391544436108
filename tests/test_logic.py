from __future__ import annotations

import itertools
import random
import time
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ditkit import logic
from ditkit import (
    Bottom,
    BudgetExceeded,
    Counterexample,
    FormulaSyntaxError,
    GroundMismatch,
    GroundSet,
    Implies,
    InvalidValue,
    Join,
    Meet,
    Top,
    UnboundVariable,
    Var,
    bell_number,
    boolean_tautology,
    check_validity,
    discrete_partition,
    enumerate_partitions,
    evaluate,
    indiscrete_partition,
    make_partition,
    notation,
    parse,
    pretty_print,
    refines,
    variables,
)
from ditkit.partitions import _iter_rgs

import oracles
from oracles import brute_validity, unreduced_validity

U2 = GroundSet(("a", "b"))
U3 = GroundSet(("a", "b", "c"))


# --- parsing ---


def test_parse_structure():
    assert parse("p") == Var("p")
    assert parse("1") == Top()
    assert parse("0") == Bottom()
    assert parse("p \\/ q") == Join(Var("p"), Var("q"))
    assert parse("p /\\ q") == Meet(Var("p"), Var("q"))
    assert parse("p => q") == Implies(Var("p"), Var("q"))


def test_parse_precedence():
    # meet binds tighter than join, join tighter than implication
    assert parse("p /\\ q \\/ r") == Join(Meet(Var("p"), Var("q")), Var("r"))
    assert parse("p \\/ q /\\ r") == Join(Var("p"), Meet(Var("q"), Var("r")))
    assert parse("p \\/ q => r") == Implies(Join(Var("p"), Var("q")), Var("r"))
    assert parse("(p => q) => r") == Implies(Implies(Var("p"), Var("q")), Var("r"))


def test_parse_implication_right_associative():
    assert parse("p => q => r") == Implies(Var("p"), Implies(Var("q"), Var("r")))


def test_parse_left_associative_joins_and_meets():
    assert parse("p \\/ q \\/ r") == Join(Join(Var("p"), Var("q")), Var("r"))
    assert parse("p /\\ q /\\ r") == Meet(Meet(Var("p"), Var("q")), Var("r"))


def test_parse_unicode_operators():
    assert parse("p ∨ q") == parse("p \\/ q")
    assert parse("p ∧ q") == parse("p /\\ q")
    assert parse("p ⇒ q") == parse("p => q")


def test_parse_identifiers():
    assert parse("sigma2 => pi_1") == Implies(Var("sigma2"), Var("pi_1"))
    assert variables(parse("t \\/ s /\\ t => p")) == ("p", "s", "t")


def test_syntax_error_positions():
    with pytest.raises(FormulaSyntaxError) as exc:
        parse("s => => p")
    assert exc.value.position == 5
    assert "(at position 5)" in str(exc.value)

    with pytest.raises(FormulaSyntaxError) as exc:
        parse("p \\/")
    assert "end of formula" in str(exc.value)
    assert exc.value.position == 4

    with pytest.raises(FormulaSyntaxError) as exc:
        parse("(p")
    assert "')'" in str(exc.value)

    with pytest.raises(FormulaSyntaxError) as exc:
        parse("p $ q")
    assert "'$'" in str(exc.value)
    assert exc.value.position == 2

    with pytest.raises(FormulaSyntaxError) as exc:
        parse("p q")
    assert exc.value.position == 2

    with pytest.raises(FormulaSyntaxError):
        parse("")


_PI3 = make_partition(U3, [["a"], ["b", "c"]])

# every entry point checks its root and each node its operands, so a
# formula that is not built from nodes is refused before any walk
BAD_FORMULA_INPUT = {
    "check_validity of text": lambda: check_validity("p => p", 3),
    "boolean_tautology of None": lambda: boolean_tautology(None),
    "evaluate of text": lambda: evaluate("p", {}, U3),
    "join of ints": lambda: check_validity(Join(1, 2), 3),
    "var named by an int": lambda: check_validity(Join(Var(5), Var("p")), 3),
    "pretty_print of text": lambda: pretty_print("p"),
    "var named None": lambda: pretty_print(Var(None)),
    "var named by a non-identifier": lambda: Var("p q"),
    "var named by a digit": lambda: Var("1p"),
    "var named by a non-ascii letter": lambda: Var("π"),
    "var with an empty name": lambda: Var(""),
    "meet of text": lambda: Meet(Var("p"), "q"),
    "implication of None": lambda: Implies(None, Top()),
    "variables of text": lambda: variables("p"),
    "variables of None": lambda: variables(None),
    "parse of an int": lambda: parse(5),
    "parse of None": lambda: parse(None),
    "parse of a tuple": lambda: parse(("p",)),
    "assignment as pairs": lambda: evaluate(parse("p"), [("p", _PI3)], U3),
    "assignment of text": lambda: evaluate(parse("p"), {"p": "x"}, U3),
    "ground as text": lambda: evaluate(parse("1"), {}, "abc"),
}


@pytest.mark.parametrize("call", BAD_FORMULA_INPUT.values(), ids=BAD_FORMULA_INPUT)
def test_bad_formula_input_raises_invalid_value(call):
    with pytest.raises(InvalidValue):
        call()


# --- printing ---


def test_pretty_print_golden():
    assert pretty_print(parse("p => q => r")) == "p => q => r"
    assert pretty_print(parse("(p => q) => r")) == "(p => q) => r"
    assert pretty_print(parse("p /\\ q \\/ r")) == "p /\\ q \\/ r"
    assert pretty_print(parse("p /\\ (q \\/ r)")) == "p /\\ (q \\/ r)"
    assert pretty_print(parse("p \\/ (q \\/ r)")) == "p \\/ (q \\/ r)"
    assert pretty_print(parse("((p)) ")) == "p"
    assert pretty_print(parse("1 => 0")) == "1 => 0"


def _random_formula(rng: random.Random, depth: int):
    if depth == 0 or rng.random() < 0.3:
        return rng.choice([Var("p"), Var("s"), Var("t"), Top(), Bottom()])
    op = rng.choice([Join, Meet, Implies])
    return op(_random_formula(rng, depth - 1), _random_formula(rng, depth - 1))


def test_pretty_print_parse_round_trip():
    rng = random.Random(17)
    for _ in range(200):
        f = _random_formula(rng, 3)
        assert parse(pretty_print(f)) == f


# --- evaluation ---


def test_evaluate_constants_and_vars():
    pi = make_partition(U3, [["a", "c"], ["b"]])
    assert evaluate(parse("1"), {}, U3) == discrete_partition(U3)
    assert evaluate(parse("0"), {}, U3) == indiscrete_partition(U3)
    assert evaluate(parse("p"), {"p": pi}, U3) == pi


def test_evaluate_golden():
    pi = make_partition(U3, [["a"], ["b", "c"]])
    sigma = make_partition(U3, [["a", "b"], ["c"]])
    assert evaluate(parse("p \\/ s"), {"p": pi, "s": sigma}, U3) == discrete_partition(U3)
    assert evaluate(parse("p /\\ s"), {"p": pi, "s": sigma}, U3) == indiscrete_partition(U3)
    # implication discretizes contained blocks only
    got = evaluate(parse("s => p"), {"p": pi, "s": sigma}, U3)
    assert got == make_partition(U3, [["a"], ["b", "c"]])


def test_evaluate_errors():
    pi = make_partition(U3, [["a"], ["b", "c"]])
    with pytest.raises(UnboundVariable):
        evaluate(parse("p \\/ q"), {"p": pi}, U3)
    other = discrete_partition(U2)
    with pytest.raises(GroundMismatch):
        evaluate(parse("p"), {"p": other}, U3)


def test_implication_tops_exactly_on_refinement():
    # s => p evaluates to the everything-distinct partition iff the value
    # of s refines the value of p
    f = parse("s => p")
    parts = list(enumerate_partitions(U3))
    top = discrete_partition(U3)
    for sv, pv in itertools.product(parts, repeat=2):
        got = evaluate(f, {"s": sv, "p": pv}, U3)
        assert (got == top) == refines(sv, pv)


# --- boolean shadow ---


def test_boolean_tautology_examples():
    assert boolean_tautology(parse("s => s"))
    assert boolean_tautology(parse("p => (p \\/ s)"))
    assert boolean_tautology(parse("p => (s => p)"))
    assert not boolean_tautology(parse("p => (p /\\ s)"))
    assert not boolean_tautology(parse("0"))
    assert boolean_tautology(parse("1"))


def test_boolean_tautology_matches_two_element_search():
    # the two-element lattice is the Boolean algebra, so the search at
    # n = 2 fails exactly where a two-valued assignment does
    rng = random.Random(29)
    for _ in range(200):
        f = _random_formula(rng, 3)
        assert boolean_tautology(f) == oracles.boolean_tautology(f)


# --- bounded validity search ---


def test_check_validity_valid_formulas():
    report = check_validity(parse("s => s"), 4)
    assert report.is_valid_up_to_bound
    assert report.status == "valid-up-to-bound"
    assert report.bound == 4
    assert report.witness is None
    assert check_validity(parse("p => (p \\/ s)"), 5).is_valid_up_to_bound
    assert check_validity(parse("p /\\ s => p"), 4).is_valid_up_to_bound
    assert check_validity(parse("1"), 3).is_valid_up_to_bound


def test_check_validity_counterexample_is_least():
    report = check_validity(parse("p => (p /\\ s)"), 5)
    assert not report.is_valid_up_to_bound
    assert report.status == "counterexample"
    assert report.bound == 2
    w = report.witness
    assert w.n == 2
    assert notation(w.assignment["p"]) == "a|b"
    assert notation(w.assignment["s"]) == "ab"
    assert notation(w.value) == "ab"


def test_check_validity_deterministic():
    a = check_validity(parse("p => (p /\\ s)"), 4)
    b = check_validity(parse("p => (p /\\ s)"), 4)
    assert a == b


def test_check_validity_json():
    report = check_validity(parse("p => (p /\\ s)"), 4)
    data = report.to_json()
    assert data == {
        "status": "counterexample",
        "bound": 2,
        "witness": {
            "n": 2,
            "assignment": {"p": "a|b", "s": "ab"},
            "value": "ab",
        },
    }
    valid = check_validity(parse("s => s"), 3).to_json()
    assert valid == {"status": "valid-up-to-bound", "bound": 3}


def test_check_validity_budget():
    # two variables cost Bell(n)^2 per size: 4 at n=2, then 25 at n=3
    with pytest.raises(BudgetExceeded) as exc:
        check_validity(parse("p => (p \\/ s)"), 6, budget=20)
    assert exc.value.bound_reached == 2
    with pytest.raises(BudgetExceeded) as exc:
        check_validity(parse("p => (p \\/ s)"), 6, budget=3)
    assert exc.value.bound_reached == 1


def test_check_validity_rejects_small_bound():
    with pytest.raises(ValueError):
        check_validity(parse("p"), 1)


def test_variable_free_formulas():
    assert check_validity(parse("0 => 1"), 3).is_valid_up_to_bound
    report = check_validity(parse("1 => 0"), 3)
    assert report.witness.n == 2
    assert report.witness.assignment == {}


# --- table-driven search against the brute-force oracle ---


def _as_blocks(report):
    w = report.witness
    if w is None:
        return report.status, report.bound, None
    assignment = {name: pi.blocks for name, pi in w.assignment.items()}
    return report.status, report.bound, (w.n, assignment, w.value.blocks)


DIFFERENTIAL_FORMULAS = (
    "1", "0", "0 => 1", "1 => 0", "0 \\/ 1", "p", "p => p",
    "(p => 0) \\/ ((p => 0) => 0)", "p \\/ (p => 0)", "p /\\ 1 => p /\\ p",
    "p => (p \\/ q)", "(p => q) \\/ (q => p)", "q => (p => q)",
    "(p /\\ (p => q)) => q", "((p => q) => p) => p", "(p /\\ q) => (q /\\ 0)",
    "((p => q) /\\ (q => r)) => (p => r)", "p => (p \\/ (q /\\ r))",
    "(p => (q \\/ r)) => ((p => q) \\/ (p => r))",
    "(p /\\ (q \\/ r)) => ((p /\\ q) \\/ (p /\\ r))",
    "(p \\/ q => r) => r \\/ (q /\\ p) \\/ 1",
)


@pytest.mark.parametrize("text", DIFFERENTIAL_FORMULAS)
def test_check_validity_matches_brute_force(text):
    f = parse(text)
    for max_n in (2, 3, 4):
        assert _as_blocks(check_validity(f, max_n)) == brute_validity(f, max_n)


def test_check_validity_matches_brute_force_on_random_formulas():
    rng = random.Random(41)
    for _ in range(40):
        f = _random_formula(rng, 3)
        assert _as_blocks(check_validity(f, 3)) == brute_validity(f, 3)


def test_budget_refuses_before_building_tables():
    logic._RANKED.clear()
    with pytest.raises(BudgetExceeded) as exc:
        check_validity(parse("p => (p \\/ s)"), 6, budget=20)
    assert exc.value.bound_reached == 2
    assert sorted(logic._RANKED) == [2]


def test_large_n_search_keeps_no_table():
    # n = 8 takes the untabulated path: B_8 = 4140, so one table of that
    # size would be 4140**2 int16 entries, about 34 MB
    logic._RANKED.clear()
    tracemalloc.start()
    try:
        report = check_validity(parse("p => p"), 8)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.is_valid_up_to_bound and report.bound == 8
    assert sorted(logic._RANKED) == list(range(2, logic.TABLE_MAX_N + 1))
    assert peak < 8 * 2**20


def test_untabulated_orbit_minima_keep_no_list():
    # at n = 8 the second variable of a mixed-polarity pair runs over the
    # orbit minima of each of the 22 first values, which the untabulated
    # path yields one at a time (about 1 MB at peak, the keys of one scan);
    # keeping all 16,010 of them would add about 3 MB.  The tables for
    # n <= TABLE_MAX_N are built before tracing starts.
    f = parse("(p /\\ q) => (q /\\ p)")
    budget = 2 * bell_number(8) ** 2
    assert logic._compile(f)[1] == (0, 0)
    check_validity(f, logic.TABLE_MAX_N, budget=budget)
    tracemalloc.start()
    try:
        report = check_validity(f, 8, budget=budget)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.is_valid_up_to_bound and report.bound == 8
    assert peak < 2 * 2**20


def test_untabulated_search_matches_brute_force(monkeypatch):
    # the path taken for n > TABLE_MAX_N, run at small n
    monkeypatch.setattr(logic, "TABLE_MAX_N", 1)
    logic._RANKED.clear()
    for text in DIFFERENTIAL_FORMULAS:
        f = parse(text)
        assert _as_blocks(check_validity(f, 3)) == brute_validity(f, 3)
    assert not logic._RANKED


# --- reduced search against the unreduced one ---

_LEAVES = st.sampled_from([Var("p"), Var("q"), Var("r"), Top(), Bottom()])
_OPS = st.sampled_from([Join, Meet, Implies])
_FORMULAS = st.recursive(
    _LEAVES,
    lambda sub: st.builds(lambda op, left, right: op(left, right), _OPS, sub, sub),
    max_leaves=8,
)

# one formula per polarity mix, each with its signs in variable order:
# positive-only, negative-only, mixed, and only under nested `=>`
POLARITY_CASES = (
    ("p => (p \\/ q)", (0, 1)),
    ("(p /\\ q) => p", (0, -1)),
    ("((p \\/ q) => r) => (p => r)", (0, 1, 0)),
    ("(p => q) => q", (1, 0)),
    ("((p => q) => r) => r", (-1, 1, 0)),
    ("(r => 0) => (p \\/ q)", (1, 1, 1)),
    ("(q => p) => 0", (-1, 1)),
)


@pytest.mark.parametrize("text, signs", POLARITY_CASES)
def test_polarity_flips_left_of_implication(text, signs):
    f = parse(text)
    assert logic._compile(f)[1] == signs


# formulas that reuse a subformula in a second place, under a second
# operator, so that slots are shared and signs meet on both sides of `=>`
_SHARING = st.recursive(
    _LEAVES,
    lambda sub: st.one_of(
        st.builds(lambda op, left, right: op(left, right), _OPS, sub, sub),
        st.builds(
            lambda outer, inner, g, h: outer(g, inner(h, g)), _OPS, _OPS, sub, sub
        ),
    ),
    max_leaves=12,
)


@settings(max_examples=300, deadline=None)
@given(f=_SHARING)
@example(f=parse("(p \\/ q) => (p /\\ q)"))
@example(f=parse("(p => q) => (q => p)"))
@example(f=parse("((1 => p) => (q \\/ 0)) => ((1 => p) /\\ (q \\/ 0) /\\ 1)"))
@example(f=parse("((p => q) => r) => (((p => q) => r) \\/ (p => q))"))
def test_compile_matches_subformula_hashing(f):
    # one walk keyed by child slots gives the program of the walk that
    # hashes subformulas, slot for slot, and the signs of a separate walk
    names = variables(f)
    assert logic._compile(f) == (
        names, oracles.polarity(f, names), oracles.subformula_program(f, names)
    )


def test_validity_search_hashes_no_formula(monkeypatch):
    f = parse("((p => q) /\\ (p => q)) => ((p => q) \\/ (1 /\\ 1) \\/ (0 => 0))")
    g = parse("(p /\\ (p => 0)) => ((p => 0) \\/ 0)")
    expected = check_validity(f, 4), boolean_tautology(g)

    def refuse(node):
        raise AssertionError(f"{node!r} was hashed")

    for node in (Var, Top, Bottom, Join, Meet, Implies):
        monkeypatch.setattr(node, "__hash__", refuse)
    assert (check_validity(f, 4), boolean_tautology(g)) == expected


@pytest.mark.parametrize(
    "table_max_n", [logic.TABLE_MAX_N, 1], ids=["ranked", "unranked"]
)
@settings(max_examples=120, deadline=None)
@given(f=_FORMULAS)
@example(f=parse("(p => q) \\/ (q => p)"))
@example(f=parse("(p /\\ (q \\/ r)) => ((p /\\ q) \\/ (p /\\ r))"))
@example(f=parse("((p => q) => r) => ((p => r) => r)"))
@example(f=parse("(p => (q \\/ r)) => ((p => q) \\/ (p => r))"))
def test_reduced_search_matches_unreduced_and_brute_force(table_max_n, f):
    # the search skips the first variable's repeated shapes and the values
    # a monotone variable cannot need; the report must not change
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(logic, "TABLE_MAX_N", table_max_n)
        report, oracle = check_validity(f, 4), unreduced_validity(f, 4)
        assert report == oracle and report.to_json() == oracle.to_json()
        assert _as_blocks(check_validity(f, 3)) == brute_validity(f, 3)


# a random formula and one in p, q and r under random operations, so that
# every formula has three variables and the orbit rule reaches depth 2
_THREE_VARIABLES = st.builds(
    lambda op, f, g, flip: op(g, f) if flip else op(f, g),
    _OPS,
    _FORMULAS,
    st.builds(
        lambda outer, inner, xs: outer(xs[0], inner(xs[1], xs[2])),
        _OPS, _OPS, st.permutations([Var("p"), Var("q"), Var("r")]),
    ),
    st.booleans(),
)


@pytest.mark.parametrize(
    "table_max_n", [logic.TABLE_MAX_N, 1], ids=["ranked", "unranked"]
)
@settings(max_examples=30, deadline=None)
@given(f=_THREE_VARIABLES)
@example(f=parse("((p => q) /\\ (q => r)) => (p => r)"))
@example(f=parse("(p => q) => ((r \\/ p) => (r \\/ q))"))
def test_three_variable_search_matches_unreduced(table_max_n, f):
    oracle = unreduced_validity(f, 5)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(logic, "TABLE_MAX_N", table_max_n)
        report = check_validity(f, 5)
    assert report == oracle and report.to_json() == oracle.to_json()


@pytest.mark.parametrize("text", [text for text, _ in POLARITY_CASES])
def test_reduced_search_matches_unreduced_on_each_polarity_mix(text):
    f = parse(text)
    assert check_validity(f, 5) == unreduced_validity(f, 5)


def test_ranked_and_unranked_shapes_agree():
    for n in range(1, 7):
        ranked, unranked = logic._Ranked(n), logic._Unranked(n)
        pairs = list(zip(range(ranked.size), _iter_rgs(n), strict=True))
        assert len(pairs) == bell_number(n)
        for r, rgs in pairs:
            assert ranked.partition(r) == unranked.partition(rgs)
            assert ranked.partition(r).rgs == rgs
            minima = [ranked.partition(x).rgs for x in ranked.minima(r)]
            assert minima == list(unranked.minima(rgs))
    # at the bottom the orbits are the shapes
    for n in range(1, 10):
        firsts = oracles.first_of_each_shape(n)
        for lattice in (logic._Ranked(n), logic._Unranked(n)):
            reps = lattice.minima(lattice.bottom)
            assert [lattice.partition(x).rgs for x in reps] == firsts


@pytest.mark.parametrize("n", range(1, 6))
def test_orbit_minima_match_every_permutation(n):
    for c in _iter_rgs(n):
        assert list(logic._minima(c)) == oracles.orbit_minima(n, c)


def test_orbit_scan_at_bottom_finds_the_shape_representatives():
    for n in range(1, 12):
        firsts = oracles.first_of_each_shape(n)
        assert list(logic._minima((0,) * n)) == firsts


def test_one_variable_search_enumerates_no_large_lattice(monkeypatch):
    # p occurs with both signs, so it runs over one value per shape; above
    # TABLE_MAX_N those are found among the 2**(n-1) non-decreasing RGS,
    # not by scanning every RGS
    lengths = []

    def counted(n):
        lengths.append(n)
        return _iter_rgs(n)

    monkeypatch.setattr(logic, "_iter_rgs", counted)
    f = parse("(p => 0) \\/ ((p => 0) => 0)")
    assert logic._compile(f)[1] == (0,)
    assert check_validity(f, 9).is_valid_up_to_bound
    assert max(lengths, default=0) <= logic.TABLE_MAX_N


def test_untabulated_reach_with_both_reductions():
    # q occurs only left of `=>` and p is the first variable; at n = 8 the
    # search runs on bare RGS tuples and probes 22 shapes, not 4140**2 pairs
    start = time.perf_counter()
    f, budget = parse("(p /\\ q) => p"), bell_number(8) ** 2 * 2
    report = check_validity(f, 8, budget=budget)
    assert time.perf_counter() - start < 20
    assert report.status == "valid-up-to-bound" and report.bound == 8

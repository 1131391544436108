from __future__ import annotations

import itertools
import random
import tracemalloc

import pytest

from ditkit import logic
from ditkit import (
    Bottom,
    BudgetExceeded,
    Counterexample,
    FormulaSyntaxError,
    GroundMismatch,
    GroundSet,
    Implies,
    Join,
    Meet,
    Top,
    UnboundVariable,
    Var,
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

from oracles import brute_validity

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
    # the two-element lattice is the Boolean algebra, so a boolean failure
    # is exactly a counterexample on a two-element ground set
    rng = random.Random(29)
    for _ in range(60):
        f = _random_formula(rng, 3)
        report = check_validity(f, 2)
        assert boolean_tautology(f) == report.is_valid_up_to_bound


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


def test_untabulated_search_matches_brute_force(monkeypatch):
    # the path taken for n > TABLE_MAX_N, run at small n
    monkeypatch.setattr(logic, "TABLE_MAX_N", 1)
    logic._RANKED.clear()
    for text in DIFFERENTIAL_FORMULAS:
        f = parse(text)
        assert _as_blocks(check_validity(f, 3)) == brute_validity(f, 3)
    assert not logic._RANKED

from __future__ import annotations

import functools
import itertools
import random
import sys
import threading
import time
import tracemalloc
from dataclasses import dataclass

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ditkit import logic, partitions
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
    ValidityReport,
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
from ditkit.partitions import _from_rgs, _ground_for, _iter_rgs, _join_rgs

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


# subclasses of nodes: a node's exact class must be one of Formula's
@dataclass(frozen=True)
class _SubJoin(Join):
    pass


@dataclass(frozen=True)
class _SubVar(Var):
    pass


@dataclass(frozen=True)
class _SubTop(Top):
    pass


def _sub_join():
    return _SubJoin(Var("p"), Var("p"))


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
    "check_validity of a join subclass": lambda: check_validity(_sub_join(), 3),
    "evaluate of a join subclass": lambda: evaluate(_sub_join(), {"p": _PI3}, U3),
    "pretty_print of a join subclass": lambda: pretty_print(_sub_join()),
    "variables of a join subclass": lambda: variables(_sub_join()),
    "boolean_tautology of a join subclass": lambda: boolean_tautology(_sub_join()),
    "join of a var subclass": lambda: Join(_SubVar("p"), Var("q")),
    "meet of a top subclass": lambda: Meet(Var("p"), _SubTop()),
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


_AB = GroundSet(("a", "b"))
_ABC = GroundSet(("a", "b", "c"))
_WITNESS = Counterexample(2, {"p": discrete_partition(_AB)}, indiscrete_partition(_AB))


@pytest.mark.parametrize("build, message", [
    # the report that once serialized as {'status': 'nonsense', 'bound': -3}
    (lambda: ValidityReport("nonsense", -3), "^status must be one of "),
    (lambda: ValidityReport("valid-up-to-bound", -3), "^ground size must be an int"),
    (lambda: ValidityReport("valid-up-to-bound", 1), "^ground size must be an int"),
    (lambda: ValidityReport("valid-up-to-bound", True), "^ground size must be an int"),
    (lambda: ValidityReport("valid-up-to-bound", 2, _WITNESS), "has no witness$"),
    (lambda: ValidityReport("counterexample", 2), "^witness must be a Counterexample"),
    (lambda: ValidityReport("counterexample", 2, "w"), "^witness must be a Counterexample"),
    (lambda: ValidityReport("counterexample", 3, _WITNESS), "^witness on 2 elements"),
    (lambda: Counterexample(1, {}, discrete_partition(GroundSet(("a",)))),
     "^ground size must be an int"),
    (lambda: Counterexample(2.0, {}, _WITNESS.value), "^ground size must be an int"),
    (lambda: Counterexample(2, [], _WITNESS.value), "^assignment must be a mapping"),
    (lambda: Counterexample(2, {1: _WITNESS.value}, _WITNESS.value),
     "^variable names must be strings"),
    (lambda: Counterexample(2, {"p": "a|b"}, _WITNESS.value),
     "^assignment values must be Partitions"),
    (lambda: Counterexample(2, {}, "ab"), "^value must be a Partition"),
    (lambda: Counterexample(2, {"p": discrete_partition(_ABC)}, _WITNESS.value),
     "is not on 2 elements$"),
    (lambda: Counterexample(2, {}, discrete_partition(_ABC)), "is not on 2 elements$"),
])
def test_result_records_check_their_fields(build, message):
    with pytest.raises(InvalidValue, match=message):
        build()


def test_result_records_accept_what_the_search_returns():
    report = ValidityReport("counterexample", 2, _WITNESS)
    assert report.to_json()["witness"] == {"n": 2, "assignment": {"p": "a|b"}, "value": "ab"}
    assert ValidityReport("valid-up-to-bound", 2).is_valid_up_to_bound


def test_counterexamples_keep_their_own_assignment_and_hash():
    w = check_validity(parse(r"p \/ (p => 0)"), 3).witness
    a = dict(w.assignment)
    c = Counterexample(3, a, w.value)
    a["zz"] = 5
    assert c == w and "zz" not in c.assignment
    # equal reports hash equal, whether valid or a counterexample
    for formula in (r"p \/ (p => 0)", "s => s"):
        report = check_validity(parse(formula), 3)
        assert hash(report) == hash(check_validity(parse(formula), 3))
    assert hash(c) == hash(w)


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


@pytest.fixture
def bell_rows(monkeypatch):
    """An emptied Bell memo, and the Bell-triangle rows built since."""
    monkeypatch.setattr(partitions, "_BELLS", [1, 1])
    monkeypatch.setattr(partitions, "_BELL_ROW", [1])
    rows, accumulate = [], partitions.accumulate

    def counting(*args, **kwargs):
        rows.append(args)
        return accumulate(*args, **kwargs)

    monkeypatch.setattr(partitions, "accumulate", counting)
    return rows


def test_variable_free_formulas_stop_the_walk_at_three(bell_rows):
    # Bell(n) ** 0 is 1, so a formula with no variable charges 1 per n:
    # the walk ends where the search does, at n = 3, after two Bell rows
    assert check_validity(parse("1 => 1"), 5_000).is_valid_up_to_bound
    assert len(bell_rows) == 2  # one row per n = 2, 3
    assert check_validity(parse("(p /\\ q) => p"), 6).is_valid_up_to_bound
    assert len(bell_rows) == 2 + 3  # the rows it reached past n = 3
    with pytest.raises(BudgetExceeded) as exc:
        check_validity(parse("1 => 1"), 50, budget=10)
    assert str(exc.value) == "assignment budget 10 exhausted before n=12"
    assert exc.value.bound_reached == 11
    assert check_validity(parse("(p /\\ q) => p"), 6).is_valid_up_to_bound
    assert len(bell_rows) == 2 + 3  # a warm memo builds none
    assert partitions._BELLS == [oracles.bell(n) for n in range(7)]


BUDGET_FORMULAS = (
    "1", "0", "1 => 1", "1 => 0", "0 => 1", "p", "p => p", "p \\/ (p => 0)",
    "p => (p \\/ q)", "(p /\\ q) => p", "p \\/ q",
)


@pytest.mark.parametrize("text", BUDGET_FORMULAS)
def test_budget_runs_out_where_the_oracle_sum_first_exceeds_it(text):
    # the search stops at the witness, so the budget counts up to it
    f = parse(text)
    k = len(variables(f))
    for max_n in range(2, 41 if k == 0 else 6):
        free = oracles.unreduced_validity(f, max_n)
        last = free.witness.n if free.witness else max_n
        sums = list(itertools.accumulate(
            oracles.bell(n) ** k for n in range(2, last + 1)
        ))
        budgets = {*range(-2, 46), 10**6, *(s + d for s in sums for d in (-1, 0, 1))}
        for budget in sorted(budgets):
            stop = oracles.budget_stop(k, last, budget)
            if stop is None:
                assert check_validity(f, max_n, budget=budget) == free
                continue
            with pytest.raises(BudgetExceeded) as exc:
                check_validity(f, max_n, budget=budget)
            assert str(exc.value) == (
                f"assignment budget {budget} exhausted before n={stop}"
            )
            assert exc.value.bound_reached == stop - 1


def test_a_witness_below_the_rule_stops_the_budget_sum(bell_rows):
    # each n is charged just before it is searched, so the sum stops at the
    # witness, and runs on to the budget stop, n = 1456 for 10**3000 and
    # one variable, only when no witness came; run again, the walk reads
    # the memo and builds no row
    budget = 10**3000
    for warm in (False, True):
        report = check_validity(parse("p => 0"), 10**6, budget=budget)
        assert report.to_json() == {
            "status": "counterexample",
            "bound": 2,
            "witness": {"n": 2, "assignment": {"p": "a|b"}, "value": "ab"},
        }
        assert len(bell_rows) == (1455 if warm else 1)  # one row, for n = 2
        # two mixed variables: no rule bounds n, and the witness is at n = 4
        report = check_validity(parse(r"(p => q) \/ (q => p)"), 10**6, budget=budget)
        assert report.status == "counterexample" and report.bound == 4
        assert len(bell_rows) == (1455 if warm else 1 + 2)  # n = 3, 4
        if not warm:
            assert len(partitions._BELLS) == 4 + 1  # no row past the witness
        with pytest.raises(BudgetExceeded) as exc:
            check_validity(parse("p => p"), 10**6, budget=budget)
        assert str(exc.value) == f"assignment budget {budget} exhausted before n=1456"
        assert exc.value.bound_reached == 1455
        assert len(bell_rows) == 1 + 2 + 1452  # the rows n = 5..1456


def test_a_formula_with_no_variable_is_charged_without_a_walk():
    # 1 per n is a sum, so max_n = 10**8 costs no more than max_n = 4
    start = time.perf_counter()
    report = check_validity(parse("1 => 1"), 10**8, budget=10**12)
    with pytest.raises(BudgetExceeded) as exc:
        check_validity(parse("1 => 1"), 10**8, budget=10**6)
    assert time.perf_counter() - start < 2.0
    assert report == ValidityReport("valid-up-to-bound", 10**8)
    assert str(exc.value) == "assignment budget 1000000 exhausted before n=1000002"
    assert exc.value.bound_reached == 1000001


def test_valid_formulas_run_out_of_budget_where_the_oracle_sum_does():
    # one valid formula for each k = 0..3, with at most one mixed variable,
    # so the search ends at n = 3 and only the charge walks on to max_n
    texts = ("1", "p => p", "(p /\\ q) => p", "(p /\\ q /\\ r) => p")
    for k, f in enumerate(map(parse, texts)):
        sums = list(itertools.accumulate(oracles.bell(n) ** k for n in range(2, 61)))
        for max_n in range(2, 61):
            budgets = {*range(-2, 51), 10**6, 10**12,
                       *(s + d for s in sums[: max_n - 1] for d in (-1, 0, 1))}
            for budget in budgets:
                stop = oracles.budget_stop(k, max_n, budget)
                if stop is None:
                    report = check_validity(f, max_n, budget=budget)
                    assert report == ValidityReport("valid-up-to-bound", max_n)
                    continue
                with pytest.raises(BudgetExceeded) as exc:
                    check_validity(f, max_n, budget=budget)
                assert exc.value.bound_reached == stop - 1, (k, max_n, budget)
    # with no variable the sum at n is n - 1, too long a walk for the oracle
    for budget in range(-2, 51):
        with pytest.raises(BudgetExceeded) as exc:
            check_validity(parse("1"), 10**8, budget=budget)
        assert exc.value.bound_reached == oracles.budget_stop(0, 10**8, budget) - 1


# one valid formula for each k = 0..4 with at most one mixed variable: the
# search ends at n = 3 and the Bell walk alone decides where the budget stops
WALK_FORMULAS = (
    "1", "p => p", "(p /\\ q) => p", "(p /\\ q /\\ r) => p",
    "(p /\\ q /\\ r /\\ s) => p",
)


def _walk_cases():
    """(formula, k, max_n, budget) for max_n 2..12 and every budget at a
    cumulative sum of Bell(n) ** k, minus 1, at it and plus 1."""
    for k, f in enumerate(map(parse, WALK_FORMULAS)):
        for max_n in range(2, 13):
            sums = itertools.accumulate(oracles.bell(n) ** k for n in range(2, max_n + 1))
            for budget in sorted({s + d for s in sums for d in (-1, 0, 1)}):
                yield f, k, max_n, budget


def _walk_outcome(f, max_n, budget):
    try:
        return check_validity(f, max_n, budget=budget)
    except BudgetExceeded as exc:
        return str(exc), exc.bound_reached


def _oracle_outcome(k, max_n, budget):
    stop = oracles.budget_stop(k, max_n, budget)
    if stop is None:
        return ValidityReport("valid-up-to-bound", max_n)
    return f"assignment budget {budget} exhausted before n={stop}", stop - 1


def test_the_bell_walk_matches_the_oracle_from_an_empty_and_a_full_memo(
    monkeypatch,
):
    monkeypatch.setattr(partitions, "_BELLS", [1, 1])
    for f, k, max_n, budget in _walk_cases():
        del partitions._BELLS[2:]
        monkeypatch.setattr(partitions, "_BELL_ROW", [1])
        expected = _oracle_outcome(k, max_n, budget)
        assert _walk_outcome(f, max_n, budget) == expected, (k, max_n, budget)
    bell_number(40)
    for f, k, max_n, budget in _walk_cases():
        expected = _oracle_outcome(k, max_n, budget)
        assert _walk_outcome(f, max_n, budget) == expected, (k, max_n, budget)
    assert partitions._BELLS == [oracles.bell(n) for n in range(41)]


def test_threads_growing_the_bell_memo_at_once_agree_with_the_oracle(
    monkeypatch,
):
    # four threads grow an emptied memo at once, switching every microsecond;
    # a row built twice would shift every later Bell number by one place
    expected = [oracles.bell(n) for n in range(120)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(8):
            monkeypatch.setattr(partitions, "_BELLS", [1, 1])
            monkeypatch.setattr(partitions, "_BELL_ROW", [1])
            start, got = threading.Barrier(4), {}

            def grow(i):
                start.wait(timeout=10)
                got[i] = [bell_number(n) for n in range(i, 120, 4)]

            threads = [threading.Thread(target=grow, args=(i,)) for i in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=10)
                assert not t.is_alive()
            for i in range(4):
                assert got[i] == expected[i::4]
            assert partitions._BELLS == expected
    finally:
        sys.setswitchinterval(interval)


def test_witness_partitions_are_kept_per_rank_and_built_as_fresh():
    for n in range(2, 6):
        lattice = logic._lattice(n)
        for x, rgs in enumerate(_iter_rgs(n)):
            pi = lattice.partition(x)
            assert lattice.partition(x) is pi
            fresh = _from_rgs(_ground_for(n), rgs)
            assert (pi, pi.rgs, pi.blocks) == (fresh, fresh.rgs, fresh.blocks)
            assert pi.ground is lattice.ground


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
    # size would be 4140**2 int16 entries, about 34 MB.  Both variables are
    # mixed, so the search does not stop at n = 3.
    logic._RANKED.clear()
    f = parse("(p /\\ q) => (q /\\ p)")
    tracemalloc.start()
    try:
        report = check_validity(f, 8, budget=2 * bell_number(8) ** 2)
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
    # one walk keyed by child slots gives the names and signs of separate
    # walks and the program of the walk that hashes subformulas, slot for slot
    names = oracles.variables(f)
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


# --- trusted reports against the checking constructors ---


def _assert_rebuilds(report):
    # `check_validity` builds its reports unchecked; the checking
    # constructors must accept every field and give an equal report
    w = report.witness
    if w is not None:
        w = Counterexample(w.n, w.assignment, w.value)
    rebuilt = ValidityReport(report.status, report.bound, w)
    assert rebuilt == report and hash(rebuilt) == hash(report)
    if w is not None:
        assert type(report.witness.assignment) is dict


@pytest.mark.parametrize("text", DIFFERENTIAL_FORMULAS)
def test_trusted_reports_rebuild_through_the_checking_constructors(text):
    f = parse(text)
    for max_n in (2, 3, 4):
        _assert_rebuilds(check_validity(f, max_n))


@settings(max_examples=150, deadline=None)
@given(f=_FORMULAS, max_n=st.integers(2, 4))
@example(f=parse("p \\/ (p => 0)"), max_n=3)
@example(f=parse("(p => q) \\/ (q => p)"), max_n=4)
def test_trusted_reports_rebuild_on_random_formulas(f, max_n):
    _assert_rebuilds(check_validity(f, max_n))


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


# a constant-only binary step (1 => 0), run as the level of variable -1,
# beside two mixed variables, so that the join of c runs as a slot step
CONSTANT_STEP_FORMULAS = (
    "(p => q) \\/ (q => p) \\/ (1 => 0)",
    "(p /\\ q) => ((q /\\ p) \\/ (1 => 0))",
)


@pytest.mark.parametrize(
    "table_max_n", [logic.TABLE_MAX_N, 1], ids=["ranked", "unranked"]
)
@pytest.mark.parametrize("text", CONSTANT_STEP_FORMULAS)
def test_constant_steps_and_join_of_c_match_unreduced(table_max_n, text):
    f = parse(text)
    _, polarity, (_, levels, _, _) = logic._compile(f)
    assert polarity == (0, 0) and levels[0]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(logic, "TABLE_MAX_N", table_max_n)
        report, oracle = check_validity(f, 4), unreduced_validity(f, 4)
        assert report == oracle and report.to_json() == oracle.to_json()
        assert _as_blocks(report) == brute_validity(f, 4)


def test_constant_step_formulas_pinned():
    refuted, valid = map(parse, CONSTANT_STEP_FORMULAS)
    assert check_validity(refuted, 3).is_valid_up_to_bound
    assert check_validity(refuted, 5).to_json() == {
        "status": "counterexample", "bound": 4,
        "witness": {
            "n": 4,
            "assignment": {"p": "abc|d", "q": "abd|c"},
            "value": "ab|c|d",
        },
    }
    assert check_validity(valid, 5).to_json() == {
        "status": "valid-up-to-bound", "bound": 5,
    }


def test_only_a_search_below_the_first_variable_builds_a_join_table():
    # neither formula has a join node: only the join of c can build one
    logic._RANKED.clear()
    check_validity(parse("(p /\\ p) => p"), 3)
    assert logic._join_rgs not in logic._RANKED[3]._tables
    logic._RANKED.clear()
    check_validity(parse("(p /\\ q) => (q /\\ p)"), 3)
    assert logic._join_rgs in logic._RANKED[3]._tables


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


# --- twin swaps on the tabulated lattices ---


def _join_rank(lattice, ranks) -> int:
    """The rank of the join of the partitions of `ranks`, bottom for none."""
    code = functools.reduce(_join_rgs, map(lattice._rgs.__getitem__, ranks), lattice._rgs[0])
    return lattice._rank[code]


def _twin_nodes(n: int, longest: int):
    """Each node the search can reach at n below one to `longest` values,
    as (values, key), each value from its parent's list and each key
    found as the search finds it, by one `step` from its parent's."""
    lattice = logic._lattice(n)

    def grow(prefix, key):
        if prefix:
            yield prefix, key
        if len(prefix) < longest:
            for x in lattice.orbit(key):
                below = (*prefix, x)
                yield from grow(below, lattice.step(key, x, _join_rank(lattice, below)))

    return grow((), lattice.root)


@pytest.mark.parametrize("n, longest", [(2, 3), (3, 3), (4, 3), (5, 2)])
def test_twin_lists_match_every_twin_permutation(n, longest):
    lattice = logic._lattice(n)
    for prefix, key in _twin_nodes(n, longest):
        earlier = [lattice._rgs[x] for x in prefix]
        c = _join_rank(lattice, prefix)
        assert lattice._keys[key][0] == c
        got = [lattice._rgs[x] for x in lattice.orbit(key)]
        assert got == oracles.twin_orbit_minima(n, earlier), earlier
        assert set(oracles.stabiliser_minima(n, earlier)) <= set(got)
        assert set(got) <= set(logic._minima(lattice._rgs[c]))


def _innermost_values(f, n: int, twins: bool = True) -> int:
    """The values the search tries at the innermost depth, summed over its
    tree, for a formula valid at n: a positive variable tries the bottom,
    a negative one the top and a mixed one its node's list, the twin list
    of `lattice.step` or, with `twins` off, the orbit minima of c."""
    _, polarity, _ = logic._compile(f)
    lattice = logic._lattice(n)

    def walk(d: int, key, earlier) -> int:
        if polarity[d]:
            xs = (lattice.bottom if polarity[d] > 0 else lattice.top,)
        else:
            xs = lattice.orbit(key) if twins else lattice.minima(lattice._keys[key][0])
        if d + 1 == len(polarity):
            return len(xs)
        total = 0
        for x in xs:
            below = [*earlier, x]
            total += walk(d + 1, lattice.step(key, x, _join_rank(lattice, below)), below)
        return total

    return walk(0, lattice.root, [])


# the valid three-variable formulas of the validity_search benchmark at n = 4
BENCHMARK_THREE_VARIABLES = (
    "(p /\\ (q /\\ r)) => ((p /\\ q) /\\ r)",
    "p => (p \\/ (q /\\ r))",
    "((p => q) /\\ (q => r)) => (p => r)",
    "(p => q) => ((r \\/ p) => (r \\/ q))",
    "(p => (q => r)) => ((p /\\ q) => r)",
)


def test_twin_swaps_halve_the_innermost_values():
    f = parse("(p => q) => ((r \\/ p) => (r \\/ q))")
    assert check_validity(f, 5).is_valid_up_to_bound
    assert [_innermost_values(f, n) for n in (4, 5)] == [303, 2_318]
    # the orbits of the permutations inside the blocks of c alone
    assert [_innermost_values(f, n, twins=False) for n in (4, 5)] == [601, 7_188]
    formulas = [parse(text) for text in BENCHMARK_THREE_VARIABLES]
    assert all(check_validity(g, 4).is_valid_up_to_bound for g in formulas)
    assert sum(_innermost_values(g, 4) for g in formulas) == 1_217
    assert sum(_innermost_values(g, 4, twins=False) for g in formulas) == 2_409


def test_threads_numbering_search_nodes_at_once_agree_with_one_thread():
    # four threads search the same emptied lattices at once, switching
    # every microsecond: each must get the reports one thread gets, and
    # every node key must keep one number of its own
    formulas = [parse(text) for text in (
        *BENCHMARK_THREE_VARIABLES,
        "(p /\\ (q \\/ r)) => ((p /\\ q) \\/ (p /\\ r))",
        "(p => (q \\/ r)) => ((p => q) \\/ (p => r))",
        "(p => q) \\/ (q => p)",
    )]
    expected = [oracles.young_validity(f, 5) for f in formulas]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(4):
            logic._RANKED.clear()
            for n in range(2, 6):
                logic._lattice(n)
            start, got = threading.Barrier(4), {}

            def search(i):
                start.wait(timeout=10)
                got[i] = [check_validity(f, 5) for f in formulas[i:] + formulas[:i]]

            threads = [threading.Thread(target=search, args=(i,)) for i in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
                assert not t.is_alive()
            for i in range(4):
                assert got[i] == expected[i:] + expected[:i]
            for lattice in logic._RANKED.values():
                assert [lattice._ids[key] for key in lattice._keys] == list(range(len(lattice._keys)))
    finally:
        sys.setswitchinterval(interval)


@settings(max_examples=100, deadline=None)
@given(f=_THREE_VARIABLES)
@example(f=parse("((p => q) /\\ (q => r)) => (p => r)"))
@example(f=parse("(p => q) => ((r \\/ p) => (r \\/ q))"))
# refuted at n = 3 and 4: twins told apart by size alone skip their witnesses
@example(f=parse("(p /\\ (q \\/ r)) => ((p /\\ q) \\/ (p /\\ r))"))
@example(f=parse("(p => (q \\/ r)) => ((p => q) \\/ (p => r))"))
def test_twin_search_matches_the_young_rule(f):
    report, oracle = check_validity(f, 5), oracles.young_validity(f, 5)
    assert report == oracle and report.to_json() == oracle.to_json()


def test_untabulated_search_enumerates_no_large_lattice(monkeypatch):
    # p and q occur with both signs, so each runs over orbit minima; above
    # TABLE_MAX_N those are found by the scan of `_minima` (for p among the
    # 2**(n-1) non-decreasing RGS), not by scanning every RGS
    lengths = []

    def counted(n):
        lengths.append(n)
        return _iter_rgs(n)

    monkeypatch.setattr(logic, "_iter_rgs", counted)
    f = parse("(p /\\ q) => (q /\\ p)")
    assert logic._compile(f)[1] == (0, 0)
    report = check_validity(f, 8, budget=2 * bell_number(8) ** 2)
    assert report.is_valid_up_to_bound
    assert max(lengths, default=0) <= logic.TABLE_MAX_N


def test_untabulated_reach_with_both_reductions():
    # p and q occur with both signs and s only left of `=>`; at n = 8 the
    # search runs on bare RGS tuples, p and q over orbit minima and s at
    # the top alone, not over 4140**3 triples
    start = time.perf_counter()
    f, budget = parse("(p /\\ q /\\ s) => (q /\\ p)"), bell_number(8) ** 3 * 2
    assert logic._compile(f)[1] == (0, 0, -1)
    report = check_validity(f, 8, budget=budget)
    assert time.perf_counter() - start < 20
    assert report.status == "valid-up-to-bound" and report.bound == 8


# --- the n <= 3 rule: at most one mixed-polarity variable ---


def _one_mixed(f) -> bool:
    return logic._compile(f)[1].count(0) <= 1


def _all_formulas(ops: int, leaves):
    """Every formula with exactly `ops` binary operators over `leaves`."""
    if ops == 0:
        yield from leaves
        return
    for left_ops in range(ops):
        for left in _all_formulas(left_ops, leaves):
            for right in _all_formulas(ops - 1 - left_ops, leaves):
                for node in (Join, Meet, Implies):
                    yield node(left, right)


def test_one_mixed_variable_search_matches_unreduced():
    # every formula of at most two operators over p, q, 0 and 1, and of
    # three over p and q; the search stops at n = 3 on those with at most
    # one mixed variable, the unreduced one sweeps n = 4 and 5
    small = [
        f
        for leaves, most in ((("p", "q", "1", "0"), 2), (("p", "q"), 3))
        for ops in range(most + 1)
        for f in _all_formulas(ops, [parse(leaf) for leaf in leaves])
    ]
    kept, valid = [f for f in dict.fromkeys(small) if _one_mixed(f)], 0
    for f in kept:
        report, oracle = check_validity(f, 5), unreduced_validity(f, 5)
        assert report == oracle and report.to_json() == oracle.to_json()
        valid += report.is_valid_up_to_bound
    # the valid ones are those whose n = 4 and 5 the rule skips
    assert (len(kept), valid) == (3_232, 894)


@settings(max_examples=200, deadline=None)
@given(f=_FORMULAS.filter(_one_mixed))
@example(f=parse("p \\/ (p => 0)"))
@example(f=parse("q => (p => q)"))
def test_one_mixed_variable_search_matches_unreduced_on_random_formulas(f):
    report, oracle = check_validity(f, 5), unreduced_validity(f, 5)
    assert report == oracle and report.to_json() == oracle.to_json()


# valid up to n = 3, each with at most one mixed variable, which is not
# always the first
VALID_ONE_MIXED = (
    "p => p", "(p => 0) \\/ ((p => 0) => 0)", "p => ((p => 0) => 0)",
    "p => (p \\/ q)", "(p /\\ q) => p", "q => (p => q)",
    "(p => 0) => (p => q)", "(p /\\ (q \\/ p)) => p", "p => (p \\/ (q /\\ r))",
    "(q /\\ p) => ((p => 0) => (r \\/ p))",
)


@pytest.mark.parametrize("text", VALID_ONE_MIXED)
def test_one_mixed_variable_has_no_hit_above_three(text):
    # the library's own search at each larger n, with no stop at n = 3
    f = parse(text)
    _, polarity, program = logic._compile(f)
    assert polarity.count(0) <= 1
    assert check_validity(f, 3).is_valid_up_to_bound
    for n in range(4, 8):
        assert logic._search(program, polarity, logic._lattice(n)) is None


def test_excluded_middle_fails_first_at_three():
    f = parse("p \\/ (p => 0)")
    assert check_validity(f, 2).is_valid_up_to_bound
    for max_n in range(3, 9):
        assert check_validity(f, max_n).to_json() == {
            "status": "counterexample", "bound": 3,
            "witness": {"n": 3, "assignment": {"p": "ab|c"}, "value": "ab|c"},
        }


def test_two_mixed_variables_search_past_three():
    # the control: both variables mixed, valid up to n = 3, refuted at 4
    f = parse("(p \\/ q => p) \\/ (p \\/ q => p => q)")
    assert logic._compile(f)[1] == (0, 0)
    assert check_validity(f, 3).is_valid_up_to_bound
    assert check_validity(f, 4).to_json() == {
        "status": "counterexample", "bound": 4,
        "witness": {
            "n": 4,
            "assignment": {"p": "abc|d", "q": "abd|c"},
            "value": "ab|c|d",
        },
    }


def test_rule_keeps_budget_and_builds_no_table_above_three():
    # the budget still charges Bell(n)**2 for every n the rule skips
    logic._RANKED.clear()
    with pytest.raises(BudgetExceeded) as exc:
        check_validity(parse("p => (p \\/ s)"), 8)
    assert str(exc.value) == "assignment budget 1000000 exhausted before n=8"
    assert exc.value.bound_reached == 7
    assert sorted(logic._RANKED) == [2, 3]


# --- the parse loop against recursive descent ---


def _parsed(parser, text):
    """The tree's repr, or the syntax error's message and position."""
    try:
        return repr(parser(text))
    except FormulaSyntaxError as exc:
        return str(exc), exc.position


def _descent(text):
    return oracles.DescentParser(text).parse()


_TOKENS = (
    "p", "q", "x1", "1", "0", "\\/", "/\\", "=>", "∨", "∧", "⇒",
    "(", "(", ")", ")", " ", "$",
)


def test_parse_matches_recursive_descent_on_random_token_strings():
    rng = random.Random(26)
    trees = 0
    for _ in range(20_000):
        tokens = rng.choices(_TOKENS, k=rng.randrange(12))
        text = rng.choice(("", " ")).join(tokens)
        outcome = _parsed(parse, text)
        assert outcome == _parsed(_descent, text), text
        trees += isinstance(outcome, str)
    assert trees > 500


def _tokens(tokenize, text):
    """The token list, or the syntax error's message and position."""
    try:
        return tokenize(text)
    except FormulaSyntaxError as exc:
        return str(exc), exc.position


# partial operators and whitespace that `\s` and `str.lstrip` both read,
# trailing whitespace included
_TOKEN_TEXT = st.text(
    alphabet=list("pqx1_0\\/=>∨∧⇒() \t\n\x1c\xa0$"), max_size=12
)


@settings(max_examples=1000, deadline=None)
@given(text=_TOKEN_TEXT)
@example(text="\xa0 ")
@example(text="p \t")
@example(text=" \x1c$")
@example(text="=/\\\n=")
def test_tokenize_matches_the_position_loop(text):
    assert _tokens(logic._tokenize, text) == _tokens(oracles.tokenize, text)


_SPELLED = {Join: "\\/", Meet: "/\\", Implies: "=>"}


def _spelled(f, rng: random.Random) -> str:
    """`f` as text with the parentheses precedence needs and some extra
    ones, each added with chance 0.3 around an operand or the whole."""
    if type(f) not in _SPELLED:
        text = pretty_print(f)
    else:
        own = logic._LEVEL[type(f)]
        # the least level an operand may have without parentheses: `=>`
        # groups to the right, join and meet to the left
        need = (own + 1, own) if isinstance(f, Implies) else (own, own + 1)
        sides = []
        for child, least in zip((f.left, f.right), need):
            text = _spelled(child, rng)
            if logic._LEVEL.get(type(child), 3) < least or rng.random() < 0.3:
                text = f"({text})"
            sides.append(text)
        text = f" {_SPELLED[type(f)]} ".join(sides)
    return f"({text})" if rng.random() < 0.3 else text


_PARSE_FORMULAS = st.recursive(
    _LEAVES,
    lambda sub: st.builds(lambda op, left, right: op(left, right), _OPS, sub, sub),
    max_leaves=16,
)


@settings(max_examples=300, deadline=None)
@given(f=_PARSE_FORMULAS, rng=st.randoms(use_true_random=False))
@example(f=parse("p => q => r"), rng=random.Random(0))
@example(f=parse("(p \\/ q) \\/ (r /\\ p /\\ q)"), rng=random.Random(0))
def test_parse_matches_recursive_descent_on_spelled_formulas(f, rng):
    text = _spelled(f, rng)
    assert parse(text) == f
    assert _parsed(parse, text) == _parsed(_descent, text)


# --- formula depth ---


def _chain(node, depth: int, on_left: bool):
    """`depth` nodes of one class, each an operand of the next, on the
    left or on the right; the leaves alternate p, q, p, ..."""
    f = Var("p")
    for i in range(depth):
        leaf = Var("pq"[i % 2 == 0])
        f = node(f, leaf) if on_left else node(leaf, f)
    return f


_CHAINS = [(node, on_left) for node in (Join, Meet, Implies) for on_left in (True, False)]
_CHAIN_IDS = [
    f"{node.__name__}-{'left' if on_left else 'right'}" for node, on_left in _CHAINS
]
_SET_OPS = {
    Join: oracles.set_join, Meet: oracles.set_meet, Implies: oracles.set_implication
}


@pytest.mark.parametrize("node, on_left", _CHAINS, ids=_CHAIN_IDS)
def test_every_entry_point_takes_a_formula_of_max_depth(node, on_left):
    f = _chain(node, logic.MAX_DEPTH, on_left)
    g = _chain(node, logic.MAX_DEPTH, on_left)
    assert f == g and hash(f) == hash(g) and repr(f) == repr(g)
    assert f != _chain(node, logic.MAX_DEPTH, not on_left)
    assert parse(pretty_print(f)) == f
    assert parse(f"(((({pretty_print(f)}))))") == f
    assert variables(f) == ("p", "q")
    env = {"p": make_partition(U3, [["a"], ["b", "c"]]),
           "q": make_partition(U3, [["a", "b"], ["c"]])}
    expected, op = env["p"].blocks, _SET_OPS[node]
    for i in range(logic.MAX_DEPTH):
        leaf = env["pq"[i % 2 == 0]].blocks
        expected = op(expected, leaf) if on_left else op(leaf, expected)
    assert evaluate(f, env, U3).blocks == expected
    assert _as_blocks(check_validity(f, 3)) == brute_validity(f, 3)


TOO_DEEP = f"^formula nested deeper than {logic.MAX_DEPTH} operators$"


@pytest.mark.parametrize("node, on_left", _CHAINS, ids=_CHAIN_IDS)
def test_one_more_level_raises_invalid_value(node, on_left):
    f = _chain(node, logic.MAX_DEPTH, on_left)
    with pytest.raises(InvalidValue, match=TOO_DEEP):
        node(f, Var("q")) if on_left else node(Var("q"), f)
    text, symbol = pretty_print(f), _SPELLED[node]
    with pytest.raises(InvalidValue, match=TOO_DEEP):
        parse(f"({text}) {symbol} q" if on_left else f"q {symbol} ({text})")


def test_parentheses_nest_to_any_depth():
    assert parse("(" * 20_000 + "p" + ")" * 20_000) == Var("p")
    chain = " => ".join(["p"] * (logic.MAX_DEPTH + 1))
    assert parse(chain.replace("p", "((p))")) == parse(chain)
    with pytest.raises(InvalidValue, match=TOO_DEEP):
        parse(chain + " => p")
    with pytest.raises(FormulaSyntaxError, match="expected '\\)'"):
        parse("(" * 20_000 + "p" + ")" * 19_999)

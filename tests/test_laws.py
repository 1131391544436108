"""Which lattice and implication laws the partition lattices keep, each
with its verdict, the least n of a counterexample and the witness there.

A = B is checked as the formula (A => B) /\\ (B => A), and A <= B as
A => B: an implication is the top exactly when its left side refines its
right side, and a meet is the top only when both sides are.  Each row is
checked twice, by `check_validity` to n = 5 and by the brute-force oracle
of `tests/oracles.py`, which walks every assignment of block tuples, to
n = 4.
"""

from __future__ import annotations

import pytest

from ditkit import (
    GroundSet,
    ValidityReport,
    check_validity,
    discrete_partition,
    enumerate_partitions,
    evaluate,
    parse,
    refines,
)

from oracles import brute_validity

MAX_N = 5
ORACLE_N = 4  # 15**3 assignments for three variables


def _equal(a: str, b: str) -> str:
    return f"(({a}) => ({b})) /\\ (({b}) => ({a}))"


def _below(a: str, b: str) -> str:
    return f"({a}) => ({b})"


# (name, formula, least n of a counterexample or None if valid up to MAX_N,
#  the witness's assignment, the formula's value there)
LAWS = (
    ("distributivity",
     _equal(r"p /\ (q \/ r)", r"(p /\ q) \/ (p /\ r)"),
     3, {"p": "ab|c", "q": "ac|b", "r": "a|bc"}, "abc"),
    ("dual distributivity",
     _equal(r"p \/ (q /\ r)", r"(p \/ q) /\ (p \/ r)"),
     3, {"p": "ab|c", "q": "ac|b", "r": "a|bc"}, "ab|c"),
    ("modularity",
     _equal(r"(p /\ r) \/ (q /\ r)", r"((p /\ r) \/ q) /\ r"),
     4, {"p": "ab|cd", "q": "ac|bd", "r": "ab|c|d"}, "a|b|cd"),
    ("modular inequality",
     _below(r"(p \/ q) /\ (p \/ r)", r"p \/ (q /\ (p \/ r))"),
     4, {"p": "ab|cd", "q": "ac|bd", "r": "abc|d"}, "a|b|cd"),
    ("Heyting law",
     _equal(r"p => (q /\ r)", r"(p => q) /\ (p => r)"),
     3, {"p": "ab|c", "q": "ab|c", "r": "ac|b"}, "abc"),
    ("excluded middle", r"p \/ (p => 0)", 3, {"p": "ab|c"}, "ab|c"),
    ("weak excluded middle", r"(p => 0) \/ ((p => 0) => 0)", None, None, None),
    ("associativity of meet",
     _equal(r"p /\ (q /\ r)", r"(p /\ q) /\ r"), None, None, None),
    ("absorption", _equal(r"p /\ (p \/ q)", "p"), None, None, None),
    ("a join left of =>",
     _equal(r"(p \/ q) => r", r"(p => r) /\ (q => r)"), None, None, None),
)


def _named(blocks) -> str:
    return "|".join("".join("abcde"[i] for i in block) for block in blocks)


@pytest.mark.parametrize(
    ("text", "n", "assignment", "value"),
    [row[1:] for row in LAWS],
    ids=[row[0] for row in LAWS],
)
def test_the_laws_of_the_partition_lattice(text, n, assignment, value):
    f = parse(text)
    report = check_validity(f, MAX_N)
    status, bound, witness = brute_validity(f, ORACLE_N)
    if n is None:
        assert report == ValidityReport("valid-up-to-bound", MAX_N)
        assert (status, bound, witness) == ("valid-up-to-bound", ORACLE_N, None)
        return
    assert report.to_json() == {
        "status": "counterexample",
        "bound": n,
        "witness": {"n": n, "assignment": assignment, "value": value},
    }
    at, env, got = witness
    assert (status, bound, at) == ("counterexample", n, n)
    named = {name: _named(blocks) for name, blocks in env.items()}
    assert (named, _named(got)) == (assignment, value)


def test_the_encoding_reads_the_order_off_the_implication():
    # p => q is the top exactly when p refines q, so the meet of both
    # implications is the top exactly when p = q
    ground = GroundSet(tuple("abcd"))
    top = discrete_partition(ground)
    below, both = parse("p => q"), parse(_equal("p", "q"))
    for p in enumerate_partitions(ground):
        for q in enumerate_partitions(ground):
            env = {"p": p, "q": q}
            assert (evaluate(below, env, ground) == top) == refines(p, q)
            assert (evaluate(both, env, ground) == top) == (p == q)

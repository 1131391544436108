from __future__ import annotations

import hashlib
import json
import os
import random
import subprocess
import sys

import pytest

import oracles
from ditkit import cli
from ditkit.cli import GOLDEN_P, _parser, build_parser, main
from ditkit.lattice import LATTICE_BOUND
from ditkit.logic import MAX_DEPTH


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# --- partition ---


def test_partition_info(capsys):
    code, out, _ = run(capsys, "partition", "--ground", "abc", "a|bc")
    assert code == 0
    assert "partition: a|bc" in out
    assert "blocks:    2" in out
    assert "dits:      4 of 9" in out


def test_partition_operations(capsys):
    code, out, _ = run(
        capsys, "partition", "--ground", "abc", "a|bc", "--join", "ab|c"
    )
    assert code == 0
    assert out.strip() == "join(a|bc, ab|c) = a|b|c"

    code, out, _ = run(
        capsys, "partition", "--ground", "abc", "a|bc", "--meet", "ab|c"
    )
    assert out.strip() == "meet(a|bc, ab|c) = abc"

    code, out, _ = run(
        capsys, "partition", "--ground", "abc", "ab|c", "--implies", "a|bc"
    )
    assert out.strip() == "implies(ab|c, a|bc) = a|bc"

    code, out, _ = run(
        capsys, "partition", "--ground", "abc", "a|b|c", "--refines", "a|bc"
    )
    assert out.strip() == "refines(a|b|c, a|bc) = False"


def test_partition_json(capsys):
    code, out, _ = run(
        capsys, "partition", "--ground", "abc", "a|bc", "--json"
    )
    data = json.loads(out)
    assert data["blocks"] == [["a"], ["b", "c"]]


def test_partition_bad_input_exits_2(capsys):
    code, _, err = run(capsys, "partition", "--ground", "abc", "a|b")
    assert code == 2
    assert "error:" in err


def test_partition_empty_label_exits_2(capsys):
    code, out, err = run(capsys, "partition", "--ground", "a,,b", "a|b|")
    assert (code, out) == (2, "")
    assert "label ''" in err


def usage_error(capsys, *argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    out = capsys.readouterr()
    return exc.value.code, out.out, out.err


def test_partition_refuses_an_empty_operation(capsys):
    """An empty value counts as given: alone it is an empty block, and
    beside a second operation the pair is refused."""
    code, out, err = run(capsys, "partition", "--ground", "abc", "a|bc", "--join", "")
    assert (code, out, err) == (2, "", "error: empty block in partition\n")
    code, out, err = usage_error(
        capsys, "partition", "--ground", "abc", "a|bc", "--join", "", "--meet", "ab|c"
    )
    assert (code, out) == (2, "")
    assert "argument --meet: not allowed with argument --join" in err


@pytest.mark.parametrize(
    "first, second",
    [("join", "meet"), ("join", "implies"), ("join", "refines"),
     ("meet", "implies"), ("meet", "refines"), ("implies", "refines")],
)
def test_partition_refuses_a_second_operation(capsys, first, second):
    code, out, err = usage_error(
        capsys, "partition", "--ground", "abc", "a|bc",
        f"--{second}", "ab|c", f"--{first}", "a|b|c",
    )
    assert (code, out) == (2, "")
    assert f"argument --{first}: not allowed with argument --{second}" in err


# --- entropy ---


def test_entropy_golden(capsys):
    code, out, _ = run(
        capsys, "entropy", "--ground", "a,b,c", "--p", "1/3,1/4,5/12", "a|bc"
    )
    assert code == 0
    assert "Pr(a) = 1/3" in out
    assert "Pr(bc) = 2/3" in out
    assert "logical entropy h = 4/9" in out
    assert "shannon entropy H = 0.918295834054 bits" in out


def test_entropy_of_a_probability_below_the_float_range(capsys):
    d = 10**400
    code, out, _ = run(
        capsys, "entropy", "--ground", "ab", "--p", f"1/{d},{d - 1}/{d}", "a|b"
    )
    assert code == 0
    assert "shannon entropy H = 0 bits" in out


def test_entropy_compound(capsys):
    code, out, _ = run(
        capsys,
        "entropy",
        "--ground",
        "a,b,c",
        "--p",
        "1/3,1/4,5/12",
        "a|bc",
        "--with",
        "ab|c",
    )
    assert code == 0
    assert "h(pi)          = 4/9" in out
    assert "h(sigma)       = 35/72" in out
    assert "h(pi v sigma)  = 47/72" in out
    assert "h(pi|sigma)    = 1/6" in out
    assert "h(sigma|pi)    = 5/24" in out
    assert "m(pi;sigma)    = 5/18" in out


def test_entropy_decimal(capsys):
    code, out, _ = run(
        capsys, "entropy", "--ground", "abc", "a|bc", "--decimal"
    )
    assert code == 0
    assert "logical entropy h = 0.444444444444" in out


def test_entropy_table_has_bell_rows(capsys):
    code, out, _ = run(capsys, "entropy", "--ground", "abcd", "--table")
    lines = out.strip().splitlines()
    assert lines[0] == "partition\tblocks\tlogical\tshannon_bits"
    assert len(lines) == 1 + 15
    assert lines[1].startswith("abcd\t1\t0\t0")


def test_entropy_table_decimal(capsys):
    code, out, _ = run(capsys, "entropy", "--ground", "abc", "--table", "--decimal")
    assert code == 0
    assert out.splitlines()[3] == "ac|b\t2\t0.444444444444\t0.918295834054"


@pytest.mark.parametrize("extra", [["a|bc"], ["--with", "a|bc"]])
def test_entropy_table_refuses_the_flags_it_would_ignore(capsys, extra):
    code, out, err = run(capsys, "entropy", "--ground", "abc", "--table", *extra)
    assert (code, out) == (2, "")
    assert err == "error: --table takes no partition or --with\n"


def test_entropy_table_beyond_bound_prints_nothing(capsys):
    code, out, err = run(capsys, "entropy", "--ground", "abcdefghijk", "--table")
    assert (code, out) == (2, "")
    assert "n <= 10" in err


def test_entropy_json(capsys):
    code, out, _ = run(
        capsys, "entropy", "--ground", "abc", "a|bc", "--json"
    )
    data = json.loads(out)
    assert data["logical"] == "4/9"
    assert data["block_probs"] == ["1/3", "2/3"]


def test_entropy_requires_partition_without_table(capsys):
    code, _, err = run(capsys, "entropy", "--ground", "abc")
    assert code == 2
    assert "required" in err


# --- measure ---


def test_measure_golden_report(capsys):
    code, out, _ = run(capsys, "measure", "--golden")
    assert code == 0
    expected = """\
state pi      = a|bc   p = (1/3, 1/4, 5/12)
measured by   = ab|c
rho(pi):
  [ 1/3       0       0 ]
  [   0     1/4  √15/12 ]
  [   0  √15/12    5/12 ]
rho_hat = sum_r P_r rho P_r:
  [ 1/3    0     0 ]
  [   0  1/4     0 ]
  [   0    0  5/12 ]
join pi v sigma       = a|b|c
rho_hat == rho(join)  = True
zeroed coherences     = (b,c), (c,b)
h(rho)     = 4/9
h(rho_hat) = 47/72
gain       = 5/24
outcomes (Luders rule on rho_hat):
  ab: probability 7/12, state diag(4/7, 3/7, 0)
  c: probability 5/12, state diag(0, 0, 1)
"""
    assert out == expected


def test_measure_json(capsys):
    code, out, _ = run(capsys, "measure", "--golden", "--json")
    data = json.loads(out)
    assert data["join"] == "a|b|c"
    assert data["join_matches"] is True
    assert data["zeroed"] == [["b", "c"], ["c", "b"]]
    assert data["h_gain"] == "5/24"
    assert data["outcomes"][0] == {
        "block": ["a", "b"],
        "probability": "7/12",
        "state_diagonal": ["4/7", "3/7", "0"],
    }
    assert data["rho"]["entries"][1][2] == {"radicand": "5/48"}


def test_measure_prints_large_radicands(capsys):
    code, out, _ = run(
        capsys, "measure", "--ground", "ab",
        "--p", "1000000007/2000000016,1000000009/2000000016",
        "--state", "ab", "--by", "a|b",
    )
    assert code == 0
    assert "√1000000016000000063/2000000016 ]" in out


def test_measure_requires_state_and_by(capsys):
    code, _, err = run(capsys, "measure")
    assert code == 2
    assert "--state" in err


@pytest.mark.parametrize(
    "flag, value",
    [("--ground", "a,b,c"), ("--p", GOLDEN_P), ("--state", "a|bc"), ("--by", "ab|c")],
)
def test_measure_golden_refuses_the_flags_it_would_ignore(capsys, flag, value):
    code, out, err = run(capsys, "measure", "--golden", flag, value)
    assert (code, out) == (2, "")
    assert err == "error: --golden takes no --ground, --p, --state or --by\n"


def test_measure_without_ground_reads_a_b_c(capsys):
    code, out, _ = run(capsys, "measure", "--state", "a|bc", "--by", "ab|c", "--json")
    assert code == 0
    assert json.loads(out)["rho"]["ground"] == ["a", "b", "c"]


# --- logic ---


def test_logic_valid_exits_0(capsys):
    code, out, _ = run(capsys, "logic", r"p => (p \/ s)")
    assert code == 0
    assert out.strip() == r"valid up to n=4: p => p \/ s"


def test_logic_counterexample_exits_1(capsys):
    code, out, _ = run(capsys, "logic", r"p => (p /\ s)")
    assert code == 1
    assert "counterexample at n=2: p=a|b, s=ab" in out
    assert "evaluates to ab" in out


def test_logic_syntax_error_exits_2(capsys):
    code, _, err = run(capsys, "logic", "p => =>")
    assert code == 2
    assert "at position 5" in err


# parentheses build no node, so any number of them parse; one operator
# more than MAX_DEPTH on a path is refused
NESTED_P = "(" * 400 + "p" + ")" * 400
TOO_DEEP = " => ".join(["p"] * (MAX_DEPTH + 2))


def test_logic_nested_parentheses_reach_a_verdict(capsys):
    code, out, err = run(capsys, "logic", NESTED_P)
    assert (code, err) == (1, "")
    assert out == "counterexample at n=2: p=ab\nevaluates to ab (not the top)\n"


def test_logic_too_deep_exits_2_with_nothing_on_stdout(capsys):
    code, out, err = run(capsys, "logic", TOO_DEEP)
    assert (code, out) == (2, "")
    assert err == f"error: formula nested deeper than {MAX_DEPTH} operators\n"


def test_logic_json(capsys):
    code, out, _ = run(capsys, "logic", "s => s", "--json", "--max-n", "3")
    assert code == 0
    assert json.loads(out) == {"status": "valid-up-to-bound", "bound": 3}


def test_logic_budget_exit(capsys):
    code, _, err = run(
        capsys, "logic", r"p => (p \/ s)", "--budget", "3", "--max-n", "5"
    )
    assert code == 2
    assert "budget" in err


# --- observable ---


def test_observable_se_demo(capsys):
    code, out, _ = run(capsys, "observable", "--se-demo")
    assert code == 0
    expected = """\
F = diag(1, -1); G = eigenvalues (1, -1) on (1,1)/(1,-1)
G matrix rows: [['0', '1'], ['1', '0']]
[F,G] rows:    [['0', '2'], ['-2', '0']]
dim SE = 0  ->  Conjugate
SE == ker[F,G]: True
"""
    assert out == expected


def test_observable_csca(capsys):
    code, out, _ = run(
        capsys,
        "observable",
        "--ground",
        "abc",
        "--attr",
        "1,1,2",
        "--attr",
        "1,2,2",
    )
    assert code == 0
    assert "attribute (1, 1, 2): levels ab|c, spectral check True" in out
    assert "join of level partitions: a|b|c" in out
    assert "complete set of compatible attributes: True" in out
    assert "a -> (1, 1)" in out
    assert "c -> (2, 2)" in out


def test_observable_csca_incomplete(capsys):
    code, out, _ = run(
        capsys, "observable", "--ground", "abc", "--attr", "1,1,2"
    )
    assert code == 0
    assert "complete set of compatible attributes: False" in out


def test_observable_json(capsys):
    code, out, _ = run(
        capsys,
        "observable",
        "--ground",
        "abc",
        "--attr",
        "1,1,2",
        "--attr",
        "1,2,2",
        "--json",
    )
    data = json.loads(out)
    assert data["partitions"] == ["ab|c", "a|bc"]
    assert data["csca_complete"] is True


def test_repeated_calls_do_not_share_attr_lists(capsys):
    _parser.cache_clear()
    for values, levels in (("1,1,2", "ab|c"), ("1,2,2", "a|bc")):
        code, out, _ = run(
            capsys, "observable", "--ground", "abc", "--attr", values, "--json"
        )
        assert code == 0
        assert json.loads(out)["partitions"] == [levels]
    assert _parser.cache_info().misses == 1


def test_usage_and_library_errors_exit_2_with_empty_stdout(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["partition", "--ground"])
    out = capsys.readouterr()
    assert (exc.value.code, out.out) == (2, "")
    assert "usage:" in out.err
    code, out, err = run(capsys, "partition", "--ground", "abc", "a|b")
    assert (code, out) == (2, "")
    assert err.startswith("error:")
    code, out, _ = run(capsys, "partition", "--ground", "abc", "a|bc")
    assert (code, out.splitlines()[0]) == (0, "partition: a|bc")


def test_observable_se_demo_json(capsys):
    code, out, _ = run(capsys, "observable", "--se-demo", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["commutator_rows"] == [["0", "2"], ["-2", "0"]]
    assert data["dim_se"] == 0
    assert data["se_equals_kernel"] is True


@pytest.mark.parametrize("flag, value", [("--ground", "ab"), ("--attr", "1,2")])
def test_se_demo_refuses_the_flags_it_would_ignore(capsys, flag, value):
    code, out, err = run(capsys, "observable", "--se-demo", flag, value)
    assert (code, out) == (2, "")
    assert err == "error: --se-demo takes no --ground or --attr\n"


def test_observable_needs_input(capsys):
    code, _, err = run(capsys, "observable")
    assert code == 2
    assert "--attr" in err or "--se-demo" in err


# --- double-slit ---


def test_double_slit_case1_text(capsys):
    code, out, _ = run(capsys, "double-slit", "--case", "1")
    assert code == 0
    expected = """\
case 1 wall distribution:
  a   1/4  ##########
  b   1/2  ####################
  c   1/4  ##########
"""
    assert out == expected


def test_double_slit_case2_text(capsys):
    code, out, _ = run(capsys, "double-slit", "--case", "2")
    assert code == 0
    lines = out.splitlines()
    assert lines[1] == "  a   1/2  ####################"
    assert lines[2] == "  b     0  "
    assert lines[3] == "  c   1/2  ####################"


def test_double_slit_json(capsys):
    code, out, _ = run(capsys, "double-slit", "--case", "2", "--json")
    data = json.loads(out)
    assert data == {"case": 2, "wall": {"a": "1/2", "b": "0", "c": "1/2"}}


def test_double_slit_sampling_deterministic(capsys):
    code, first, _ = run(
        capsys, "double-slit", "--case", "1", "--trials", "400", "--seed", "9"
    )
    assert code == 0
    code, second, _ = run(
        capsys, "double-slit", "--case", "1", "--trials", "400", "--seed", "9"
    )
    assert first == second
    assert "exact 1/2, sampled" in first


def test_double_slit_negative_trials_exits_2(capsys):
    code, out, err = run(capsys, "double-slit", "--trials", "-5")
    assert (code, out) == (2, "")
    assert "--trials" in err


def test_double_slit_sampling_json(capsys):
    code, out, _ = run(
        capsys,
        "double-slit",
        "--case",
        "2",
        "--trials",
        "100",
        "--seed",
        "3",
        "--json",
    )
    data = json.loads(out)
    assert data["exact"] == {"a": "1/2", "b": "0", "c": "1/2"}
    assert sum(data["counts"].values()) == 100
    assert data["counts"].get("b", 0) == 0


def test_double_slit_dot(capsys):
    code, out, _ = run(capsys, "double-slit", "--format", "dot")
    assert code == 0
    assert "subgraph cluster_before" in out
    assert "style=dashed" in out


def test_double_slit_dot_refuses_json(capsys):
    code, out, err = run(capsys, "double-slit", "--format", "dot", "--json")
    assert (code, out) == (2, "")
    assert "--json" in err


@pytest.mark.parametrize(
    "flag, value", [("--case", "1"), ("--trials", "5"), ("--seed", "7")]
)
def test_double_slit_dot_refuses_the_flags_it_would_ignore(capsys, flag, value):
    code, out, err = run(capsys, "double-slit", "--format", "dot", flag, value)
    assert (code, out) == (2, "")
    assert err == "error: --format dot takes no --json, --case 1, --trials or --seed\n"


@pytest.mark.parametrize("argv", [("--seed", "7"), ("--trials", "0", "--seed", "7")])
def test_double_slit_seed_takes_a_nonzero_trials(capsys, argv):
    code, out, err = run(capsys, "double-slit", *argv)
    assert (code, out) == (2, "")
    assert err == "error: --seed takes a nonzero --trials\n"


# --- lattice ---


def test_lattice_json(capsys):
    code, out, _ = run(capsys, "lattice", "--n", "3", "--format", "json")
    data = json.loads(out)
    assert len(data["nodes"]) == 5
    assert len(data["edges"]) == 6


@pytest.mark.parametrize("n", range(1, LATTICE_BOUND + 1))
def test_lattice_n_names_the_ground_a_b_and_on(capsys, n):
    code, out, _ = run(capsys, "lattice", "--n", str(n), "--format", "json")
    assert code == 0
    assert json.loads(out)["ground"] == [chr(ord("a") + i) for i in range(n)]


def test_lattice_dot_default(capsys):
    code, out, _ = run(capsys, "lattice", "--n", "2")
    assert code == 0
    assert out.startswith('digraph "partition lattice"')
    assert '"ab" -> "a|b" [dir=none];' in out


def test_lattice_ground_option(capsys):
    code, out, _ = run(
        capsys, "lattice", "--ground", "x,y", "--format", "json"
    )
    assert json.loads(out)["nodes"] == ["xy", "x|y"]


def test_lattice_refuses_n_with_ground(capsys):
    code, out, err = run(capsys, "lattice", "--n", "2", "--ground", "xyz")
    assert (code, out) == (2, "")
    assert err == "error: give --n or --ground, not both\n"


def test_lattice_bound_and_missing_args(capsys):
    code, _, err = run(capsys, "lattice", "--n", "7")
    assert code == 2
    assert "between 1 and 6" in err
    code, _, err = run(capsys, "lattice")
    assert code == 2
    assert "--n or --ground" in err


# --- byte-exact goldens of the largest outputs ---

# weights near 10**30, and one small, over their exact sum
BIG_WEIGHTS = (
    10**30 - 7, 3 * 10**29 + 11, 10**30 + 123, 7 * 10**28, 10**30 // 3, 999
)
BIG_P = ",".join(f"{w}/{sum(BIG_WEIGHTS)}" for w in BIG_WEIGHTS)
BIG_TABLE = ["entropy", "--ground", "abcdef", "--p", BIG_P, "--table"]
MULTI_TABLE = ["entropy", "--ground", "x1,x2,y1,y2,z1,z2",
               "--p", "1/12,1/6,1/4,1/12,1/3,1/12", "--table"]

# SHA-256 of each run's stdout, so that any changed byte fails
GOLDEN_DIGESTS = {
    "lattice-6-json": (
        ["lattice", "--n", "6", "--format", "json"],
        "136017e4053974dd1ddab44db1faf220904e64fe4fbb21a6a574ba59f3e1b2b3",
    ),
    "lattice-6-dot": (
        ["lattice", "--n", "6"],
        "72dff710947d5c307a40335ff271ac24294db68abc1ced5459438443eebfc9b4",
    ),
    "lattice-multi-json": (
        ["lattice", "--ground", "u1,u2,u3,u4,u5,u6", "--format", "json"],
        "0779c395de4d86fbb2de83fb2836e4c2c9e19cb53bdc3989f82ad80cc19d5a35",
    ),
    "table-big": (
        BIG_TABLE,
        "df1e8b649f930c59b1c19d6bb38b6494a3091b6b45fb2939ed28d3394ea8a737",
    ),
    "table-big-json": (
        [*BIG_TABLE, "--json"],
        "370420d19f4bfebaff0bcee1ae29ed65e5191ab24d82a145f09507fba9a70ee0",
    ),
    "table-big-decimal": (
        [*BIG_TABLE, "--decimal"],
        "be503322b4182fe33b680fe9cf61fe06fc5363cfdc7bc448ff5c2a1ad65227b8",
    ),
    "table-multi": (
        MULTI_TABLE,
        "8235f4479e1da59f7509a0f0f32204359770b68ca03157bd3759417428ad9a0b",
    ),
    "table-multi-json": (
        [*MULTI_TABLE, "--json"],
        "1d8fdfd8085df595eaa080d9093a6a62c3e2953a22b49c493131de93f9389428",
    ),
    "table-multi-decimal": (
        [*MULTI_TABLE, "--decimal"],
        "776307fb90149db220ceb01fae87b57a04710619c81265bb3e6ab264d4eac541",
    ),
    "double-slit-dot": (
        ["double-slit", "--format", "dot"],
        "cacc3164abe10b5b08139fd7a3ed643e4326059be5996f4f99dcc6a71c4b48f7",
    ),
}


@pytest.mark.parametrize(
    "argv, digest", GOLDEN_DIGESTS.values(), ids=list(GOLDEN_DIGESTS)
)
def test_large_outputs_are_byte_exact(capsys, argv, digest):
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# --- the --json report ---

JSON_RUNS = {
    "partition": ["partition", "--ground", "abc", "a|bc", "--json"],
    "join": ["partition", "--ground", "abc", "a|bc", "--join", "ab|c", "--json"],
    "refines": ["partition", "--ground", "abc", "a|bc", "--refines", "abc", "--json"],
    "entropy": ["entropy", "--ground", "abc", "--p", GOLDEN_P, "a|bc", "--json"],
    "entropy-with": ["entropy", "--ground", "abc", "--p", GOLDEN_P, "a|bc",
                     "--with", "ab|c", "--json"],
    "entropy-table": ["entropy", "--ground", "abc", "--p", GOLDEN_P, "--table",
                      "--json"],
    "measure": ["measure", "--golden", "--json"],
    "logic": ["logic", r"p => (p /\ s)", "--json"],
    "se-demo": ["observable", "--se-demo", "--json"],
    "observable": ["observable", "--ground", "abc", "--attr", "1/2,1,1", "--json"],
    "double-slit": ["double-slit", "--json"],
    "double-slit-trials": ["double-slit", "--trials", "20", "--json"],
    "lattice": ["lattice", "--n", "3", "--format", "json"],
}


@pytest.mark.parametrize("argv", JSON_RUNS.values(), ids=list(JSON_RUNS))
def test_json_output_is_one_parsable_line(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code in (0, 1) and err == ""
    assert out.endswith("\n") and out.count("\n") == 1
    assert isinstance(json.loads(out), dict)


DECIMAL_RUNS = ("entropy", "entropy-with", "entropy-table", "measure")


@pytest.mark.parametrize(
    "argv", [JSON_RUNS[name] for name in DECIMAL_RUNS], ids=DECIMAL_RUNS
)
def test_decimal_does_not_apply_to_json(capsys, argv):
    _, plain, _ = run(capsys, *argv)
    _, decimal, _ = run(capsys, *argv, "--decimal")
    assert decimal == plain
    assert '"4/9"' in plain


@pytest.mark.parametrize(
    "argv, text",
    [
        (["entropy", "--ground", "abc", "--p", "1/0,1,1", "a|bc"], "1/0"),
        (["entropy", "--ground", "abc", "--p", "x,1,1", "a|bc"], "x"),
        (["measure", "--state", "abc", "--by", "a|bc", "--p", "1,x,1"], "x"),
        (["observable", "--ground", "abc", "--attr", "1,1/0,2"], "1/0"),
        (["observable", "--ground", "abc", "--attr", "x,1,2", "--json"], "x"),
    ],
    ids=["p-zero", "p-literal", "measure-p", "attr-zero", "attr-literal"],
)
def test_bad_numbers_exit_2_through_the_library_reader(capsys, argv, text):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == f"error: '{text}' is not a rational number\n"


# --- random argvs ---

_GROUNDS = [
    "abc", "ab", "a", "abcd", "abcdef", "abcdefg", "x,y,z", "a,a", ",", "", "a|b",
]
_PARTS = ["a|bc", "abc", "a|b|c", "ab|c", "a|b", "x|yz", "", "|", "a||bc", "aa|bc"]
_NUMBERS = [
    "1/3,1/4,5/12", "1/2,1/2", "1,0,0", "-1,1,1", "0.1,0.2,0.7", "1/0,1,1",
    "1e400,0,0", "inf,0,0", "x,1,1", "1,1,2", "1/3", "",
]
_FORMULAS = [
    "p => p", r"s => (s \/ p)", r"p /\ q", r"(p => q) \/ (q => p)", "0 => p",
    "1", "(p", "p =>", "p & q", "", NESTED_P, TOO_DEEP,
]
_SIZES = ["-1", "0", "1", "2", "3", "4", "7", "x"]

# per subcommand: (flag, values) in order; "" marks the positional argument
# and None a switch
_FUZZ = {
    "partition": [
        ("--ground", _GROUNDS), ("", _PARTS), ("--join", _PARTS),
        ("--meet", _PARTS), ("--implies", _PARTS), ("--refines", _PARTS),
        ("--json", None),
    ],
    "entropy": [
        ("--ground", _GROUNDS), ("--p", _NUMBERS), ("", _PARTS),
        ("--with", _PARTS), ("--table", None), ("--decimal", None),
        ("--json", None),
    ],
    "measure": [
        ("--golden", None), ("--ground", _GROUNDS), ("--p", _NUMBERS),
        ("--state", _PARTS), ("--by", _PARTS), ("--decimal", None),
        ("--json", None),
    ],
    "logic": [
        ("", _FORMULAS), ("--max-n", _SIZES),
        ("--budget", ["-3", "0", "10", "1000", "x"]), ("--json", None),
    ],
    "observable": [
        ("--ground", _GROUNDS), ("--attr", _NUMBERS), ("--attr", _NUMBERS),
        ("--se-demo", None), ("--json", None),
    ],
    "double-slit": [
        ("--case", ["1", "2", "3"]), ("--trials", ["-1", "0", "5", "40", "x"]),
        ("--seed", _SIZES), ("--format", ["text", "dot", "svg"]),
        ("--json", None),
    ],
    "lattice": [
        ("--n", _SIZES), ("--ground", _GROUNDS),
        ("--format", ["dot", "json", "svg"]),
    ],
}


def _random_argv(rng: random.Random) -> list[str]:
    """A subcommand with each flag given at random, good values and bad
    mixed; the positional argument is left out one time in ten."""
    command = rng.choice(sorted(_FUZZ))
    argv = [command]
    for flag, values in _FUZZ[command]:
        if rng.random() < (0.1 if flag == "" else 0.5):
            continue
        if values is None:
            argv.append(flag)
        else:
            argv += [flag, rng.choice(values)] if flag else [rng.choice(values)]
    return argv


def test_random_argvs_exit_0_1_or_2_and_print_nothing_on_errors(capsys):
    """Every exception main lets out of a subcommand is a DitkitError, so
    any argv ends in exit 0, 1 or 2, and exit 2 leaves stdout empty."""
    rng = random.Random(2304)
    for _ in range(300):
        argv = _random_argv(rng)
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
        out = capsys.readouterr().out
        assert code in (0, 1, 2), argv
        assert code != 2 or out == "", argv


def test_every_formula_and_lattice_size_keeps_the_exit_contract(capsys):
    """The fuzz values the seeded draw may miss, each run once: every
    formula through `logic`, every size and ground through `lattice`."""
    argvs = [["logic", f] for f in _FORMULAS]
    for fmt in ("json", "dot"):
        argvs += [["lattice", "--n", n, "--format", fmt] for n in _SIZES]
        argvs += [["lattice", "--ground", g, "--format", fmt] for g in _GROUNDS]
    for argv in argvs:
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        out = capsys.readouterr().out
        assert code in (0, 1, 2), argv
        assert code != 2 or out == "", argv


# --- one parse per call, against the full parser ---

# one argv per request shape of the benchmark's cli_queries workload
BENCH_SHAPES = [
    ["partition", "--ground", "abcd", "a|bcd", "--implies", "ab|cd", "--json"],
    ["entropy", "--ground", "abcde", "--p", "1/9,2/9,1/3,1/9,2/9", "ab|cde", "--json"],
    ["entropy", "--ground", "abc", "--p", GOLDEN_P, "a|bc", "--with", "ab|c", "--json"],
    ["entropy", "--ground", "abcd", "--p", "1/8,3/8,1/4,1/4", "--table"],
    ["measure", "--golden", "--json"],
    ["measure", "--ground", "abcd", "--p", "1/8,3/8,1/4,1/4", "--state", "a|bcd",
     "--by", "ab|cd", "--json"],
    ["logic", "((p => q) => p) => p", "--max-n", "4", "--json"],
    ["observable", "--se-demo", "--json"],
    ["observable", "--ground", "abc", "--attr", "0,3,3", "--attr", "1,1,2", "--json"],
    ["double-slit", "--case", "1", "--trials", "100", "--seed", "123", "--json"],
    ["double-slit", "--case", "2", "--json"],
    ["double-slit", "--format", "dot"],
    ["lattice", "--n", "6", "--format", "json"],
    ["lattice", "--n", "4"],
]

EDGE_ARGVS = {
    "no-arguments": [],
    "help": ["-h"],
    "long-help": ["--help"],
    "abbreviated-help": ["--he"],
    "unknown-command": ["bogus"],
    "abbreviated-command": ["entr", "--ground", "abc", "a|bc"],
    "option-before-command": ["--json", "entropy", "--ground", "abc", "a|bc"],
    "dashes-before-command": ["--", "entropy", "--ground", "abc", "a|bc"],
    "command-help": ["entropy", "-h"],
    "abbreviated-command-help": ["entropy", "--hel"],
    "trailing-unknown-flag": ["entropy", "--ground", "abc", "a|bc", "--bogus"],
    "unknown-flag-first": ["entropy", "--bogus", "--ground", "abc", "a|bc"],
    "equals-value": ["entropy", "--ground=abc", "a|bc"],
    "abbreviated-flag": ["entropy", "--grou", "abc", "a|bc"],
    "no-positional": ["entropy", "--ground", "abc", "--table"],
    "dashes-before-formula": ["logic", "--max-n", "3", "--", "p => p"],
    "negative-looking-value": ["observable", "--ground", "ab", "--attr", "-1,2"],
    "extra-positional": ["partition", "--ground", "abc", "a|bc", "ab|c"],
    "missing-positional": ["logic", "--json"],
    "two-operations": ["partition", "--ground", "abc", "a|bc", "--join", "ab|c",
                       "--meet", "a|b|c"],
    "bad-choice": ["double-slit", "--case", "3"],
    "bad-int": ["lattice", "--n", "x"],
    "library-error": ["partition", "--ground", "abc", "a|b"],
}


@pytest.fixture
def namespaces(monkeypatch):
    """Run main on a fresh full parser whose commands record the namespace
    each gets; returns the list they record into."""
    seen = []
    parser = build_parser()
    for sub in parser._commands.values():
        func = sub.get_default("func")

        def record(args, func=func):
            seen.append(dict(vars(args)))  # before a command changes args
            return func(args)

        sub.set_defaults(func=record)
    monkeypatch.setattr(cli, "_parser", lambda: parser)
    return seen


def outcomes(capsys, seen, argv):
    """(exit code, stdout, stderr, namespaces) of main and of the one-parser
    reference on argv."""
    results = []
    for call in (main, oracles.cli_main):
        seen.clear()
        try:
            code = call(list(argv))
        except SystemExit as exc:  # help and usage errors
            code = exc.code
        out = capsys.readouterr()
        results.append((code, out.out, out.err, list(seen)))
    return results


@pytest.mark.parametrize("argv", EDGE_ARGVS.values(), ids=list(EDGE_ARGVS))
def test_main_matches_the_full_parser_on_edge_cases(capsys, namespaces, argv):
    ours, reference = outcomes(capsys, namespaces, argv)
    assert ours == reference


def test_main_matches_the_full_parser_on_random_and_benchmark_argvs(
    capsys, namespaces
):
    rng = random.Random(1)
    for argv in [_random_argv(rng) for _ in range(1000)] + BENCH_SHAPES:
        ours, reference = outcomes(capsys, namespaces, argv)
        assert ours == reference, argv


def test_the_module_runs_as_a_program(capsys):
    """`python -m ditkit.cli` reads its arguments from sys.argv."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))

    def program(*argv):
        return subprocess.run(
            [sys.executable, "-m", "ditkit.cli", *argv],
            capture_output=True, env={**os.environ, "PYTHONPATH": path},
        )

    proc = program("measure", "--golden", "--json")
    _, out, _ = run(capsys, "measure", "--golden", "--json")
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, out.encode(), b"")
    proc = program("entropy", "--ground", "abc", "a|bc", "--bogus")
    lines = proc.stderr.decode().splitlines()
    assert (proc.returncode, proc.stdout) == (2, b"")
    assert lines[0].startswith("usage: ditkit [-h]")  # not a subcommand's usage
    assert lines[-1] == "ditkit: error: unrecognized arguments: --bogus"

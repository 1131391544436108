"""Replayable mutations: each entry changes one exact text in one source
file and names the tests that must fail once it is applied.

    python tests/mutants.py [NAME ...]

runs every mutant, or the named ones.  It first runs all their tests on
an unmutated copy of `src/` and `tests/` in a temporary directory, which
must pass; then, one mutant at a time, it applies the mutant to a fresh
copy, runs only that mutant's tests and calls the mutant killed when
every one of them fails.  Each run loads the Hypothesis profile
"no-shrink" of `tests/conftest.py`, so a failing property test stops at
its first failing example instead of shrinking it, and runs plain
asserts, which raise without diffing their two sides.  It prints one
line per mutant, lists the survivors and exits 1 if there are any.
Nothing in the working tree is written.  `tests/test_mutants.py` checks
the registry's form in Tier-1, including that every mutated file still
compiles, since a mutant that does not parse fails at collection and
would be reported as a survivor; the full run is opt-in.  A change that
deletes a mutated line deletes its entry rather than weaken a test that
kills it.
"""

from __future__ import annotations

import os
import pathlib
import re
import shutil
import subprocess
import sys
import tempfile
from typing import NamedTuple

ROOT = pathlib.Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    path: str  # relative to the repository root
    old: str  # occurs exactly once in `path`
    new: str
    tests: tuple[str, ...]  # pytest node ids, each of which must fail


MUTANTS = (
    Mutant(
        "split-square-exit-on-any-n",
        "src/ditkit/density.py",
        "    if root * root == n:\n        return root, 1\n",
        "    if root * root <= n:\n        return root, 1\n",
        ("tests/test_density.py::test_sqrt_rational_rendering",
         "tests/test_cli.py::test_measure_prints_large_radicands"),
    ),
    Mutant(
        "printer-groups-implies-left",
        "src/ditkit/logic.py",
        "right = isinstance(node, Implies)",
        "right = False",
        ("tests/test_logic.py::test_pretty_print_golden",
         "tests/test_logic.py::test_pretty_print_parse_round_trip"),
    ),
    Mutant(
        "lattice-letters-drift",
        "src/ditkit/cli.py",
        "_ground_for(args.n)",
        '_parse_ground("bcdefg"[: args.n])',
        ("tests/test_cli.py::test_lattice_n_names_the_ground_a_b_and_on",
         "tests/test_cli.py::test_lattice_dot_default"),
    ),
    Mutant(
        "one-letter-labels-keep-commas",
        "src/ditkit/lattice.py",
        '    if max(map(len, ground.labels)) == 1:\n        table[ord(",")] = None\n',
        "",
        ("tests/test_lattice.py::test_label_template_matches_the_oracle_on_odd_labels",
         "tests/test_lattice.py::test_hasse_json_and_dot_match_per_partition_oracle",
         "tests/test_cli.py::test_lattice_dot_default"),
    ),
    Mutant(
        "template-split-on-one-bar",
        "src/ditkit/lattice.py",
        'template.translate(table).split("||")',
        'template.translate(table).split("|")',
        ("tests/test_lattice.py::test_label_template_matches_the_oracle_on_odd_labels",
         "tests/test_lattice.py::test_hasse_json_and_dot_match_per_partition_oracle",
         "tests/test_cli.py::test_large_outputs_are_byte_exact"),
    ),
    Mutant(
        "dot-labels-unescaped",
        "src/ditkit/lattice.py",
        r"""text.replace("\\", "\\\\").replace('"', '\\"')""",
        "text",
        ("tests/test_lattice.py::test_dot_quotes_every_label",
         "tests/test_lattice.py::test_label_template_matches_the_oracle_on_odd_labels"),
    ),
    Mutant(
        "hasse-skips-the-adjacent-merge",
        "src/ditkit/lattice.py",
        "for j in range(k)",
        "for j in range(k - 1)",
        ("tests/test_lattice.py::test_covering_counts",),
    ),
    Mutant(
        "tokenizer-bad-matches-whitespace",
        "src/ditkit/logic.py",
        r'r"|(?P<bad>\S))"',
        r'r"|(?P<bad>.))"',
        ("tests/test_logic.py::test_tokenize_matches_the_position_loop",),
    ),
    Mutant(
        "golden-measure-keeps-uniform-p",
        "src/ditkit/cli.py",
        "args.ground, args.p = GOLDEN_GROUND, GOLDEN_P",
        "args.ground = GOLDEN_GROUND",
        ("tests/test_cli.py::test_measure_golden_report",
         "tests/test_cli.py::test_measure_json"),
    ),
    Mutant(
        "double-slit-case-unbounded",
        "src/ditkit/z2dyn.py",
        "if not _is_int(case) or case not in (1, 2):",
        "if not _is_int(case):",
        ("tests/test_z2dyn.py::test_bad_maps_raise_invalid_value",),
    ),
    Mutant(
        "join-pieces-second-dsd-only",
        "src/ditkit/observables.py",
        "for d in dsds[1:]:",
        "for d in dsds[1:2]:",
        ("tests/test_observables.py::test_se_and_csco_match_the_oracle_on_general_dsds",),
    ),
    Mutant(
        "coordinate-dsd-not-orthogonal",
        "src/ditkit/observables.py",
        "orthogonal=True,",
        "orthogonal=False,",
        ("tests/test_observables.py::test_attribute_operator_matches_dsd_route",
         "tests/test_observables.py::test_coordinate_dsds_match_the_checked_constructor"),
    ),
    Mutant(
        "coordinate-annihilator-inside-the-block",
        "src/ditkit/observables.py",
        "if i not in blk",
        "if i in blk",
        ("tests/test_observables.py::test_coordinate_dsds_match_the_checked_constructor",
         "tests/test_observables.py::test_dsd_standard_and_orthogonality"),
    ),
    Mutant(
        "one-mixed-rule-stops-at-2",
        "src/ditkit/logic.py",
        "polarity.count(0) > 1 else min(max_n, 3)",
        "polarity.count(0) > 1 else min(max_n, 2)",
        ("tests/test_logic.py::test_excluded_middle_fails_first_at_three",
         "tests/test_logic.py::test_one_mixed_variable_search_matches_unreduced"),
    ),
    Mutant(
        "two-mixed-variables-counted-as-one",
        "src/ditkit/logic.py",
        "polarity.count(0) > 1 else min(max_n, 3)",
        "polarity.count(0) > 2 else min(max_n, 3)",
        ("tests/test_logic.py::test_two_mixed_variables_search_past_three",
         "tests/test_logic.py::test_check_validity_matches_brute_force"),
    ),
    Mutant(
        "no-variable-budget-jump-off-by-one",
        "src/ditkit/logic.py",
        "else budget + 2",
        "else budget + 3",
        ("tests/test_logic.py::test_a_formula_with_no_variable_is_charged_without_a_walk",
         "tests/test_logic.py::test_budget_runs_out_where_the_oracle_sum_first_exceeds_it",
         "tests/test_logic.py::test_valid_formulas_run_out_of_budget_where_the_oracle_sum_does"),
    ),
    Mutant(
        "budget-stops-at-an-equal-sum",
        "src/ditkit/logic.py",
        "if spent > budget:",
        "if spent >= budget:",
        ("tests/test_logic.py::test_budget_runs_out_where_the_oracle_sum_first_exceeds_it",
         "tests/test_logic.py::test_valid_formulas_run_out_of_budget_where_the_oracle_sum_does"),
    ),
    Mutant(
        "search-runs-at-the-budget-stop",
        "src/ditkit/logic.py",
        "if spent > budget:\n            break\n",
        "if spent > budget:\n            pass\n",
        ("tests/test_logic.py::test_budget_refuses_before_building_tables",
         "tests/test_logic.py::test_budget_runs_out_where_the_oracle_sum_first_exceeds_it"),
    ),
    Mutant(
        "charge-walk-stops-at-last",
        "src/ditkit/logic.py",
        "(max_n if k else last)",
        "(last)",
        ("tests/test_logic.py::test_valid_formulas_run_out_of_budget_where_the_oracle_sum_does",
         "tests/test_logic.py::test_a_witness_below_the_rule_stops_the_budget_sum"),
    ),
    Mutant(
        "bell-memo-reads-one-place-back",
        "src/ditkit/partitions.py",
        "    if n < len(bells):\n        return bells[n]\n",
        "    if n < len(bells):\n        return bells[n - 1]\n",
        ("tests/test_logic.py::test_budget_runs_out_where_the_oracle_sum_first_exceeds_it",
         "tests/test_logic.py::test_valid_formulas_run_out_of_budget_where_the_oracle_sum_does",
         "tests/test_logic.py::test_the_bell_walk_matches_the_oracle_from_an_empty_and_a_full_memo"),
    ),
    Mutant(
        "bell-memo-grown-without-the-lock",
        "src/ditkit/partitions.py",
        "    with _BELL_LOCK:\n",
        "    if True:\n",
        ("tests/test_logic.py::test_threads_growing_the_bell_memo_at_once_agree_with_the_oracle",),
    ),
    Mutant(
        "rank-memo-keeps-a-neighbour",
        "src/ditkit/logic.py",
        "_from_rgs(self.ground, self._rgs[x])",
        "_from_rgs(self.ground, self._rgs[x - 1])",
        ("tests/test_logic.py::test_check_validity_matches_brute_force",
         "tests/test_logic.py::test_ranked_and_unranked_shapes_agree",
         "tests/test_logic.py::test_witness_partitions_are_kept_per_rank_and_built_as_fresh"),
    ),
    Mutant(
        "formula-gate-admits-subclasses",
        "src/ditkit/logic.py",
        "if type(f) not in _NODES:",
        "if not isinstance(f, _NODES):",
        ("tests/test_logic.py::test_bad_formula_input_raises_invalid_value",),
    ),
    Mutant(
        "density-json-unreduced-radicands",
        "src/ditkit/density.py",
        '{"radicand": str(Fraction(x, den))}',
        '{"radicand": f"{x}/{den}"}',
        ("tests/test_density.py::test_to_json_matches_the_entries_oracle",),
    ),
    Mutant(
        "dot-ignores-case-trials-seed",
        "src/ditkit/cli.py",
        "if args.json or args.case != 2 or args.trials or args.seed:",
        "if args.json:",
        ("tests/test_cli.py::test_double_slit_dot_refuses_the_flags_it_would_ignore",),
    ),
    Mutant(
        "table-ignores-partition-and-with",
        "src/ditkit/cli.py",
        "if (args.partition, args.with_) != (None, None):",
        "if False:",
        ("tests/test_cli.py::test_entropy_table_refuses_the_flags_it_would_ignore",),
    ),
    Mutant(
        "se-demo-ignores-ground-and-attr",
        "src/ditkit/cli.py",
        "if args.ground is not None or args.attr:",
        "if False:",
        ("tests/test_cli.py::test_se_demo_refuses_the_flags_it_would_ignore",),
    ),
    Mutant(
        "require-on-checks-the-partition-first",
        "src/ditkit/partitions.py",
        '    _require(kind, what, value)\n'
        '    _require(Partition, "expected a Partition", pi)\n',
        '    _require(Partition, "expected a Partition", pi)\n'
        '    _require(kind, what, value)\n',
        ("tests/test_public_api.py::test_the_gate_checks_the_value_then_the_partition_then_the_ground",),
    ),
    Mutant(
        "search-fills-the-gap-transposed",
        "src/ditkit/logic.py",
        "table[a * size + b] = r",
        "table[b * size + a] = r",
        ("tests/test_logic.py::test_check_validity_matches_brute_force",
         "tests/test_logic.py::test_reduced_search_matches_unreduced_and_brute_force"),
    ),
    Mutant(
        "compile-keeps-the-sign-left-of-implies",
        "src/ditkit/logic.py",
        "-sign if kind is Implies else sign",
        "sign",
        ("tests/test_logic.py::test_compile_matches_subformula_hashing",
         "tests/test_logic.py::test_polarity_flips_left_of_implication"),
    ),
    Mutant(
        "trusted-witness-off-its-bound",
        "src/ditkit/logic.py",
        'ValidityReport._trusted("counterexample", n, witness)',
        'ValidityReport._trusted("counterexample", n + 1, witness)',
        ("tests/test_logic.py::test_trusted_reports_rebuild_through_the_checking_constructors",
         "tests/test_logic.py::test_trusted_reports_rebuild_on_random_formulas"),
    ),
    Mutant(
        "partition-ops-outside-the-group",
        "src/ditkit/cli.py",
        'ops.add_argument(f"--{name}", metavar="SIGMA")',
        'p.add_argument(f"--{name}", metavar="SIGMA")',
        ("tests/test_cli.py::test_partition_refuses_a_second_operation",
         "tests/test_cli.py::test_partition_refuses_an_empty_operation"),
    ),
    Mutant(
        "double-slit-ignores-a-lone-seed",
        "src/ditkit/cli.py",
        '    if not args.trials and args.seed:\n'
        '        raise DitkitError("--seed takes a nonzero --trials")\n',
        "",
        ("tests/test_cli.py::test_double_slit_seed_takes_a_nonzero_trials",),
    ),
    Mutant(
        "main-runs-despite-leftover-arguments",
        "src/ditkit/cli.py",
        "    if sub is None or extra:\n",
        "    if sub is None:\n",
        ("tests/test_cli.py::test_main_matches_the_full_parser_on_edge_cases",
         "tests/test_cli.py::test_the_module_runs_as_a_program"),
    ),
    Mutant(
        "subcommand-parses-its-own-name",
        "src/ditkit/cli.py",
        "argv[1:], argparse.Namespace(command=argv[0])",
        "argv, argparse.Namespace(command=argv[0])",
        ("tests/test_cli.py::test_main_matches_the_full_parser_on_edge_cases",
         "tests/test_cli.py::test_main_matches_the_full_parser_on_random_and_benchmark_argvs",
         "tests/test_cli.py::test_entropy_table_has_bell_rows"),
    ),
    Mutant(
        "shannon-fallback-unreduced",
        "src/ditkit/entropy.py",
        "gcds = [math.gcd(m, d) for m in masses]",
        "gcds = [1] * len(masses)",
        ("tests/test_entropy.py::test_shannon_reduces_a_block_probability_past_the_float_range",),
    ),
    Mutant(
        "mixture-distinct-by-class",
        "src/ditkit/z2dyn.py",
        "len({v.mask for v in vecs})",
        "len(set(vecs))",
        ("tests/test_z2dyn.py::test_mixture_components_are_distinct_by_members",),
    ),
    Mutant(
        "join-masses-keyed-by-the-pi-label",
        "src/ditkit/entropy.py",
        "key = a * n + b\n",
        "key = a\n",
        ("tests/test_entropy.py::test_integer_kernel_matches_block_oracles",),
    ),
    Mutant(
        "theorem-join-skips-the-sigma-gate",
        "src/ditkit/density.py",
        "probs, sigma)\n    joined = ",
        "probs, pi)\n    joined = ",
        ("tests/test_public_api.py::test_a_value_of_the_wrong_type_raises_invalid_value",
         "tests/test_public_api.py::test_the_gate_checks_the_value_then_the_partition_then_the_ground"),
    ),
    Mutant(
        "twins-by-size-alone",
        "src/ditkit/logic.py",
        "(old, size, -1 if x.count(x[i]) == size else x[i])",
        "(size,)",
        ("tests/test_logic.py::test_twin_lists_match_every_twin_permutation",
         "tests/test_logic.py::test_twin_search_matches_the_young_rule"),
    ),
    Mutant(
        "twin-whole-block-dropped",
        "src/ditkit/logic.py",
        "-1 if x.count(x[i]) == size else x[i]",
        "x[i]",
        ("tests/test_logic.py::test_twin_swaps_halve_the_innermost_values",
         "tests/test_logic.py::test_twin_lists_match_every_twin_permutation"),
    ),
    Mutant(
        "luders-mixture-keeps-a-common-factor",
        "src/ditkit/density.py",
        "    return _lowest(mat.ground, num, mat._den)\n",
        "    return DensityMatrix._grid(mat.ground, tuple(num), mat._den)\n",
        ("tests/test_density.py::test_masking_and_conditioning_reduce_a_common_factor",),
    ),
)


def _copy(into: pathlib.Path) -> None:
    skip = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, into / name, ignore=skip)
    shutil.copy(ROOT / "pyproject.toml", into)


def _failed(copy: pathlib.Path, tests) -> set[str]:
    """The node ids among `tests` with at least one failing case.  A
    verdict needs the first failure, not the smallest or an explained one,
    so the run loads the Hypothesis profile "no-shrink"
    (`tests/conftest.py`) and plain asserts: a rewritten assert diffs both
    sides of every failure, which on a long DOT text takes minutes."""
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-rf", "-p", "no:cacheprovider",
         "--assert=plain", "--hypothesis-profile", "no-shrink", *tests],
        cwd=copy, capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(copy / "src")},
    )
    hit = {line.split()[1] for line in run.stdout.splitlines()
           if line.startswith("FAILED ")}
    return {t for t in tests if any(re.match(re.escape(t) + r"(\[|$)", h) for h in hit)}


def main(names) -> int:
    chosen = [m for m in MUTANTS if not names or m.name in names]
    unknown = set(names) - {m.name for m in MUTANTS}
    if unknown:
        print(f"unknown mutants: {', '.join(sorted(unknown))}")
        return 2
    with tempfile.TemporaryDirectory() as tmp:
        base = pathlib.Path(tmp, "base")
        _copy(base)
        broken = _failed(base, sorted({t for m in chosen for t in m.tests}))
        if broken:
            print(f"fail without a mutant: {', '.join(sorted(broken))}")
            return 2
        survivors = []
        for m in chosen:
            copy = pathlib.Path(tmp, m.name)
            _copy(copy)
            source = copy / m.path
            source.write_text(source.read_text().replace(m.old, m.new, 1))
            passed = [t for t in m.tests if t not in _failed(copy, m.tests)]
            verdict = f"SURVIVED, {', '.join(passed)}" if passed else "killed"
            print(f"{m.name}: {verdict}")
            if passed:
                survivors.append(m.name)
            shutil.rmtree(copy)
    print(f"survivors: {', '.join(survivors) or 'none'}")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""Command-line front end: exact-fraction reports over every module.

Each subcommand builds one report dict.  --json prints it as one JSON
line, exact numbers as strings; otherwise the text lines are read from
the same report.  Text numbers print as exact fractions unless --decimal
is given, which does not apply to --json.  The logic subcommand exits 0
for valid-up-to-bound, 1 for a counterexample, 2 for errors; other
subcommands exit 0 on success, 2 on bad input.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction

from . import density, entropy, lattice, logic, observables, z2dyn
from .errors import DitkitError
from .partitions import (
    GroundSet,
    ProbGroundSet,
    ditset,
    enumerate_partitions,
    implication,
    join,
    meet,
    notation,
    parse_partition,
    partition_to_json,
    refines,
    _ground_for,
)

GOLDEN_GROUND = "a,b,c"
GOLDEN_P = "1/3,1/4,5/12"
GOLDEN_STATE = "a|bc"
GOLDEN_BY = "ab|c"


def _parse_ground(text: str) -> GroundSet:
    labels = text.split(",") if "," in text else list(text)
    return GroundSet(tuple(lab.strip() for lab in labels))


def _parse_probs(ground: GroundSet, text: str | None) -> ProbGroundSet:
    if text is None:
        return ProbGroundSet.uniform(ground)
    return ProbGroundSet.from_values(ground, text.split(","))


def _fmt(x, decimal: bool) -> str:
    """A Fraction exactly, or as a decimal with --decimal; a float always
    as a decimal."""
    if decimal or isinstance(x, float):
        return f"{float(x):.12g}"
    return str(x)


def _emit(args, report: dict) -> bool:
    """Print the report as one JSON line under --json, exact numbers as
    their strings; return whether it did."""
    if args.json:
        print(json.dumps(report, default=str))
    return args.json


def _print_matrix(mat: density.DensityMatrix) -> None:
    cells = [[str(cell) for cell in row] for row in mat.entries]
    widths = [
        max(len(cells[i][k]) for i in range(len(cells)))
        for k in range(len(cells))
    ]
    for row in cells:
        line = "  ".join(cell.rjust(w) for cell, w in zip(row, widths))
        print(f"  [ {line} ]")


# ---------------------------------------------------------------------------
# partition
# ---------------------------------------------------------------------------

_OPS = {"join": join, "meet": meet, "implies": implication, "refines": refines}


def cmd_partition(args) -> int:
    ground = _parse_ground(args.ground)
    pi = parse_partition(ground, args.partition)
    op = next((name for name in _OPS if getattr(args, name) is not None), None)
    if op is None:
        if not _emit(args, partition_to_json(pi)):
            print(f"partition: {notation(pi)}")
            print(f"blocks:    {pi.num_blocks}")
            print(f"dits:      {len(ditset(pi))} of {ground.n * ground.n}")
        return 0
    sigma = parse_partition(ground, getattr(args, op))
    result = _OPS[op](pi, sigma)
    verdict = isinstance(result, bool)
    if not _emit(args, {op: result} if verdict else partition_to_json(result)):
        shown = result if verdict else notation(result)
        print(f"{op}({notation(pi)}, {notation(sigma)}) = {shown}")
    return 0


# ---------------------------------------------------------------------------
# entropy
# ---------------------------------------------------------------------------

_COMPOUND_NAMES = (
    "h(pi)", "h(sigma)", "h(pi v sigma)", "h(pi|sigma)", "h(sigma|pi)",
    "m(pi;sigma)", "H joint bits", "I(pi;sigma)",
)


def cmd_entropy(args) -> int:
    ground = _parse_ground(args.ground)
    probs = _parse_probs(ground, args.p)
    if args.table:
        if (args.partition, args.with_) != (None, None):
            raise DitkitError("--table takes no partition or --with")
        rows = [
            {
                "partition": notation(pi),
                "blocks": pi.num_blocks,
                "logical": entropy.logical_entropy(pi, probs),
                "shannon_bits": entropy.shannon_entropy(pi, probs),
            }
            for pi in enumerate_partitions(ground)
        ]
        if not _emit(args, {"table": rows}):
            print("\t".join(rows[0]))  # the column names are the keys
            for row in rows:
                h = _fmt(row["logical"], args.decimal)
                bits = _fmt(row["shannon_bits"], args.decimal)
                print(f"{row['partition']}\t{row['blocks']}\t{h}\t{bits}")
        return 0
    if args.partition is None:
        raise DitkitError("a partition argument is required without --table")
    pi = parse_partition(ground, args.partition)
    h = entropy.logical_entropy(pi, probs)
    if args.with_ is not None:
        sigma = parse_partition(ground, args.with_)
        report = {
            "logical": {
                "h_pi": h,
                "h_sigma": entropy.logical_entropy(sigma, probs),
                **entropy.compound_logical(pi, sigma, probs)._asdict(),
            },
            "shannon_bits": entropy.compound_shannon(pi, sigma, probs)._asdict(),
        }
        if not _emit(args, report):
            print(f"pi:     {notation(pi)}")
            print(f"sigma:  {notation(sigma)}")
            bits = report["shannon_bits"]
            values = [*report["logical"].values(), bits["joint"], bits["mutual"]]
            for name, x in zip(_COMPOUND_NAMES, values):
                print(f"{name:<15}= {_fmt(x, args.decimal)}")
        return 0
    blocks = entropy.block_probs(pi, probs)
    report = {
        "partition": notation(pi),
        "block_probs": [pr for _, pr in blocks],
        "logical": h,
        "shannon_bits": entropy.shannon_entropy(pi, probs),
    }
    if not _emit(args, report):
        print(f"partition: {report['partition']}")
        for blk, pr in blocks:
            labels = "".join(ground.labels[i] for i in blk)
            print(f"  Pr({labels}) = {_fmt(pr, args.decimal)}")
        print(f"logical entropy h = {_fmt(report['logical'], args.decimal)}")
        print(f"shannon entropy H = {report['shannon_bits']:.12g} bits")
    return 0


# ---------------------------------------------------------------------------
# measure
# ---------------------------------------------------------------------------


def cmd_measure(args) -> int:
    if args.golden:
        if (args.ground, args.p, args.state, args.by) != (None,) * 4:
            raise DitkitError("--golden takes no --ground, --p, --state or --by")
        args.ground, args.p = GOLDEN_GROUND, GOLDEN_P
        args.state, args.by = GOLDEN_STATE, GOLDEN_BY
    elif args.state is None or args.by is None:
        raise DitkitError("--state and --by are required without --golden")
    ground = _parse_ground(GOLDEN_GROUND if args.ground is None else args.ground)
    probs = _parse_probs(ground, args.p)
    pi = parse_partition(ground, args.state)
    sigma = parse_partition(ground, args.by)

    mat = density.rho(pi, probs)
    hat = density.luders_mixture(mat, sigma)
    joined = join(pi, sigma)
    h_before = density.quantum_logical_entropy(mat)
    h_after = density.quantum_logical_entropy(hat)
    report = {
        "state": notation(pi),
        "measured_by": notation(sigma),
        "rho": mat.to_json(),
        "rho_hat": hat.to_json(),
        "join": notation(joined),
        "join_matches": hat == density.rho(joined, probs),
        "zeroed": [
            [ground.labels[i], ground.labels[k]]
            for i, k in density.state_reduction_audit(mat, sigma)
        ],
        "h_before": h_before,
        "h_after": h_after,
        "h_gain": h_after - h_before,
        "outcomes": [
            {
                "block": [ground.labels[i] for i in blk],
                "probability": pr,
                "state_diagonal": post.diagonal(),
            }
            for blk, pr, post in density.luders_outcomes(hat, sigma)
        ],
    }
    if _emit(args, report):
        return 0

    dec = args.decimal
    print(f"state pi      = {report['state']}   p = ({', '.join(map(str, probs.p))})")
    print(f"measured by   = {report['measured_by']}")
    print("rho(pi):")
    _print_matrix(mat)
    print("rho_hat = sum_r P_r rho P_r:")
    _print_matrix(hat)
    print(f"join pi v sigma       = {report['join']}")
    print(f"rho_hat == rho(join)  = {report['join_matches']}")
    zeroed = ", ".join(f"({i},{k})" for i, k in report["zeroed"]) or "none"
    print(f"zeroed coherences     = {zeroed}")
    print(f"h(rho)     = {_fmt(report['h_before'], dec)}")
    print(f"h(rho_hat) = {_fmt(report['h_after'], dec)}")
    print(f"gain       = {_fmt(report['h_gain'], dec)}")
    print("outcomes (Luders rule on rho_hat):")
    for row in report["outcomes"]:
        diag = ", ".join(_fmt(d, dec) for d in row["state_diagonal"])
        pr = _fmt(row["probability"], dec)
        print(f"  {''.join(row['block'])}: probability {pr}, state diag({diag})")
    return 0


# ---------------------------------------------------------------------------
# logic
# ---------------------------------------------------------------------------


def cmd_logic(args) -> int:
    formula = logic.parse(args.formula)
    report = logic.check_validity(formula, args.max_n, budget=args.budget)
    if not _emit(args, report.to_json()):
        if report.is_valid_up_to_bound:
            print(f"valid up to n={report.bound}: {logic.pretty_print(formula)}")
        else:
            w = report.witness
            assign = ", ".join(
                f"{name}={notation(pi)}" for name, pi in sorted(w.assignment.items())
            )
            print(f"counterexample at n={w.n}: {assign}")
            print(f"evaluates to {notation(w.value)} (not the top)")
    return 0 if report.is_valid_up_to_bound else 1


# ---------------------------------------------------------------------------
# observable
# ---------------------------------------------------------------------------


def cmd_observable(args) -> int:
    if args.se_demo:
        if args.ground is not None or args.attr:
            raise DitkitError("--se-demo takes no --ground or --attr")
        dsd_f = observables.DSD.standard(2)
        dsd_g = observables.DSD.from_vectors(2, [[(1, 1)], [(1, -1)]])
        ev = (Fraction(1), Fraction(-1))
        g = observables.operator_from_dsd(ev, dsd_g)
        report = {
            "g_rows": g.mat,
            "commutator_rows": observables.commutator(
                observables.operator_from_dsd(ev, dsd_f), g
            ),
            "dim_se": len(observables.simultaneous_eigenspace(dsd_f, dsd_g)),
            "classification": observables.classify(ev, dsd_f, ev, dsd_g).value,
            "se_equals_kernel": observables.theorem_se_equals_kernel(
                ev, dsd_f, ev, dsd_g
            ),
        }
        if not _emit(args, report):
            g_rows = [[str(x) for x in row] for row in report["g_rows"]]
            comm_rows = [[str(x) for x in row] for row in report["commutator_rows"]]
            print("F = diag(1, -1); G = eigenvalues (1, -1) on (1,1)/(1,-1)")
            print(f"G matrix rows: {g_rows}")
            print(f"[F,G] rows:    {comm_rows}")
            print(f"dim SE = {report['dim_se']}  ->  {report['classification']}")
            print(f"SE == ker[F,G]: {report['se_equals_kernel']}")
        return 0
    if not args.attr:
        raise DitkitError("give at least one --attr (or --se-demo)")
    if args.ground is None:
        raise DitkitError("--ground is required with --attr")
    ground = _parse_ground(args.ground)
    attrs = [
        observables.Attribute.from_values(ground, text.split(","))
        for text in args.attr
    ]
    parts = [observables.inverse_image_partition(f) for f in attrs]
    report = {
        "attributes": [f.to_json() for f in attrs],
        "partitions": [notation(pi) for pi in parts],
        "csca_complete": observables.csca_complete(attrs),
    }
    if _emit(args, report):
        return 0
    for f, levels in zip(attrs, report["partitions"]):
        values = ", ".join(str(v) for v in f.values)
        print(f"attribute ({values}): levels {levels}, "
              f"spectral check {observables.set_spectral_check(f)}")
    print(f"join of level partitions: {notation(functools.reduce(join, parts))}")
    complete = report["csca_complete"]
    print(f"complete set of compatible attributes: {complete}")
    if complete:
        for i in range(ground.n):
            tup = ", ".join(str(f.values[i]) for f in attrs)
            print(f"  {ground.labels[i]} -> ({tup})")
    return 0


# ---------------------------------------------------------------------------
# double-slit
# ---------------------------------------------------------------------------


def cmd_double_slit(args) -> int:
    if args.format == "dot":
        if args.json or args.case != 2 or args.trials or args.seed:
            raise DitkitError(
                "--format dot takes no --json, --case 1, --trials or --seed"
            )
        sys.stdout.write(lattice.double_slit_dot())
        return 0
    if args.trials < 0:
        raise DitkitError(f"--trials must be non-negative, got {args.trials}")
    if not args.trials and args.seed:
        raise DitkitError("--seed takes a nonzero --trials")
    dist = z2dyn.double_slit(args.case)
    if not args.trials:
        if not _emit(args, {"case": args.case, "wall": dist}):
            print(f"case {args.case} wall distribution:")
            for lab, q in dist.items():
                print(f"  {lab}  {str(q):>4}  {'#' * int(q * 40)}")
        return 0
    start = z2dyn.double_slit_setup()[2]
    counts = z2dyn.sample_pipeline(
        start, z2dyn.double_slit_steps(args.case), trials=args.trials, rng=args.seed
    )
    report = {
        "case": args.case,
        "exact": dist,
        "trials": args.trials,
        "seed": args.seed,
        "counts": {vec.labels()[0]: hits for vec, hits in counts.items()},
    }
    if not _emit(args, report):
        print(f"case {args.case}, {args.trials} samples (seed {args.seed}):")
        for lab, q in dist.items():
            hits = report["counts"].get(lab, 0)
            print(
                f"  {lab}: exact {q}, sampled {hits}/{args.trials}"
                f" = {hits / args.trials:.4f}"
            )
    return 0


# ---------------------------------------------------------------------------
# lattice
# ---------------------------------------------------------------------------


def cmd_lattice(args) -> int:
    if args.n is not None:
        if args.ground is not None:
            raise DitkitError("give --n or --ground, not both")
        if not 1 <= args.n <= lattice.LATTICE_BOUND:
            raise DitkitError(
                f"--n must be between 1 and {lattice.LATTICE_BOUND}"
            )
        ground = _ground_for(args.n)
    elif args.ground is not None:
        ground = _parse_ground(args.ground)
    else:
        raise DitkitError("give --n or --ground")
    if args.format == "json":
        print(json.dumps(lattice.hasse_json(ground)))
    else:
        sys.stdout.write(lattice.hasse_dot(ground))
    return 0


# ---------------------------------------------------------------------------
# wiring
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ditkit",
        description="Exact partition algebra, logical entropy, and skeletal "
        "measurement.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("partition", help="partition algebra on a ground set")
    p.add_argument("--ground", required=True, help="labels, e.g. abc or x,y,z")
    p.add_argument("partition", help='partition text, e.g. "a|bc"')
    ops = p.add_mutually_exclusive_group()
    for name in _OPS:
        ops.add_argument(f"--{name}", metavar="SIGMA")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_partition)

    p = sub.add_parser("entropy", help="logical and Shannon entropy")
    p.add_argument("--ground", required=True)
    p.add_argument("--p", help="point probabilities, e.g. 1/3,1/4,5/12")
    p.add_argument("partition", nargs="?")
    p.add_argument("--with", dest="with_", metavar="SIGMA",
                   help="compound entropies with a second partition")
    p.add_argument("--table", action="store_true",
                   help="TSV entropy table over all partitions")
    p.add_argument("--decimal", action="store_true")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_entropy)

    p = sub.add_parser("measure", help="density-matrix measurement report")
    p.add_argument("--golden", action="store_true",
                   help="run the built-in three-element worked example")
    p.add_argument("--ground", help="default a,b,c")
    p.add_argument("--p")
    p.add_argument("--state", help="partition being measured")
    p.add_argument("--by", help="measurement partition")
    p.add_argument("--decimal", action="store_true")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_measure)

    p = sub.add_parser("logic", help="bounded partition-logic validity")
    p.add_argument("formula", help=r'e.g. "s => (s \/ p)"')
    p.add_argument("--max-n", type=int, default=4)
    p.add_argument("--budget", type=int, default=logic.DEFAULT_BUDGET)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_logic)

    p = sub.add_parser("observable", help="attributes, level sets, CSCA")
    p.add_argument("--ground")
    p.add_argument("--attr", action="append", default=[],
                   help="comma list of rational values, one per element")
    p.add_argument("--se-demo", action="store_true",
                   help="show the 2x2 conjugate pair and the SE=ker theorem")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_observable)

    p = sub.add_parser("double-slit", help="two-case skeletal double slit")
    p.add_argument("--case", type=int, choices=(1, 2), default=2)
    p.add_argument("--trials", type=int, default=0,
                   help="also sample this many Monte Carlo runs")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--format", choices=("text", "dot"), default="text")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_double_slit)

    p = sub.add_parser("lattice", help="Hasse diagram of the partition lattice")
    p.add_argument("--n", type=int, help="ground-set size (labels a, b, ...)")
    p.add_argument("--ground")
    p.add_argument("--format", choices=("dot", "json"), default="dot")
    p.set_defaults(func=cmd_lattice)

    parser._commands = sub.choices  # each subcommand's name -> its parser
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The one parser, built on the first call rather than at import."""
    return build_parser()


def main(argv=None) -> int:
    """Run one command line and return its exit code.

    Each call is parsed once, by its subcommand's parser; help and usage
    errors print as before.  The full parser runs only when the first
    argument is not a subcommand or arguments are left over, and then it
    prints its help or usage error and exits.
    """
    if argv is None:
        argv = sys.argv[1:]
    parser = _parser()
    sub = parser._commands.get(argv[0]) if argv else None
    if sub is not None:
        args, extra = sub.parse_known_args(
            argv[1:], argparse.Namespace(command=argv[0])
        )
    if sub is None or extra:
        args = parser.parse_args(argv)
    try:
        return args.func(args)
    except DitkitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

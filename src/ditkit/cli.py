"""Command-line front end: exact-fraction reports over every module.

Numbers print as exact fractions unless --decimal is given.  The logic
subcommand exits 0 for valid-up-to-bound, 1 for a counterexample, 2 for
errors; other subcommands exit 0 on success, 2 on bad input.
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
    values = [Fraction(part.strip()) for part in text.split(",")]
    return ProbGroundSet(ground, tuple(values))


def _fmt(x: Fraction, decimal: bool) -> str:
    if decimal:
        return f"{float(x):.12g}"
    return str(x)


def _print_matrix(mat: density.DensityMatrix, indent: str = "  ") -> None:
    cells = [[str(cell) for cell in row] for row in mat.entries]
    widths = [
        max(len(cells[i][k]) for i in range(len(cells)))
        for k in range(len(cells))
    ]
    for row in cells:
        line = "  ".join(cell.rjust(w) for cell, w in zip(row, widths))
        print(f"{indent}[ {line} ]")


# ---------------------------------------------------------------------------
# partition
# ---------------------------------------------------------------------------


def cmd_partition(args) -> int:
    ground = _parse_ground(args.ground)
    pi = parse_partition(ground, args.partition)
    if args.join or args.meet or args.implies or args.refines:
        other_text = args.join or args.meet or args.implies or args.refines
        sigma = parse_partition(ground, other_text)
        if args.join:
            result = join(pi, sigma)
            op = "join"
        elif args.meet:
            result = meet(pi, sigma)
            op = "meet"
        elif args.implies:
            result = implication(pi, sigma)
            op = "implies"
        else:
            verdict = refines(pi, sigma)
            if args.json:
                print(json.dumps({"refines": verdict}))
            else:
                print(f"refines({notation(pi)}, {notation(sigma)}) = {verdict}")
            return 0
        if args.json:
            print(json.dumps(partition_to_json(result)))
        else:
            print(f"{op}({notation(pi)}, {notation(sigma)}) = {notation(result)}")
        return 0
    if args.json:
        print(json.dumps(partition_to_json(pi)))
        return 0
    print(f"partition: {notation(pi)}")
    print(f"blocks:    {pi.num_blocks}")
    print(f"dits:      {len(ditset(pi))} of {ground.n * ground.n}")
    return 0


# ---------------------------------------------------------------------------
# entropy
# ---------------------------------------------------------------------------


def cmd_entropy(args) -> int:
    ground = _parse_ground(args.ground)
    probs = _parse_probs(ground, args.p)
    if args.table:
        table = enumerate_partitions(ground)
        print("partition\tblocks\tlogical\tshannon_bits")
        for pi in table:
            h = entropy.logical_entropy(pi, probs)
            bits = entropy.shannon_entropy(pi, probs)
            print(f"{notation(pi)}\t{pi.num_blocks}\t{h}\t{bits:.12g}")
        return 0
    if args.partition is None:
        raise DitkitError("a partition argument is required without --table")
    pi = parse_partition(ground, args.partition)
    h = entropy.logical_entropy(pi, probs)
    bits = entropy.shannon_entropy(pi, probs)
    if args.with_ is not None:
        sigma = parse_partition(ground, args.with_)
        comp = entropy.compound_logical(pi, sigma, probs)
        scomp = entropy.compound_shannon(pi, sigma, probs)
        if args.json:
            print(
                json.dumps(
                    {
                        "logical": {
                            "h_pi": str(h),
                            "h_sigma": str(entropy.logical_entropy(sigma, probs)),
                            "joint": str(comp.joint),
                            "conditional_pi_given_sigma": str(
                                comp.conditional_pi_given_sigma
                            ),
                            "conditional_sigma_given_pi": str(
                                comp.conditional_sigma_given_pi
                            ),
                            "mutual": str(comp.mutual),
                        },
                        "shannon_bits": {
                            "joint": scomp.joint,
                            "conditional_pi_given_sigma": scomp.conditional_pi_given_sigma,
                            "conditional_sigma_given_pi": scomp.conditional_sigma_given_pi,
                            "mutual": scomp.mutual,
                        },
                    }
                )
            )
            return 0
        print(f"pi:     {notation(pi)}")
        print(f"sigma:  {notation(sigma)}")
        print(f"h(pi)          = {_fmt(h, args.decimal)}")
        print(
            f"h(sigma)       = "
            f"{_fmt(entropy.logical_entropy(sigma, probs), args.decimal)}"
        )
        print(f"h(pi v sigma)  = {_fmt(comp.joint, args.decimal)}")
        print(
            f"h(pi|sigma)    = {_fmt(comp.conditional_pi_given_sigma, args.decimal)}"
        )
        print(
            f"h(sigma|pi)    = {_fmt(comp.conditional_sigma_given_pi, args.decimal)}"
        )
        print(f"m(pi;sigma)    = {_fmt(comp.mutual, args.decimal)}")
        print(f"H joint bits   = {scomp.joint:.12g}")
        print(f"I(pi;sigma)    = {scomp.mutual:.12g}")
        return 0
    if args.json:
        blocks = entropy.block_probs(pi, probs)
        print(
            json.dumps(
                {
                    "partition": notation(pi),
                    "block_probs": [str(pr) for _, pr in blocks],
                    "logical": str(h),
                    "shannon_bits": bits,
                }
            )
        )
        return 0
    print(f"partition: {notation(pi)}")
    for blk, pr in entropy.block_probs(pi, probs):
        labels = "".join(ground.label(i) for i in blk)
        print(f"  Pr({labels}) = {_fmt(pr, args.decimal)}")
    print(f"logical entropy h = {_fmt(h, args.decimal)}")
    print(f"shannon entropy H = {bits:.12g} bits")
    return 0


# ---------------------------------------------------------------------------
# measure
# ---------------------------------------------------------------------------


def cmd_measure(args) -> int:
    if args.golden:
        ground_text, p_text = GOLDEN_GROUND, GOLDEN_P
        state_text, by_text = GOLDEN_STATE, GOLDEN_BY
    else:
        if args.state is None or args.by is None:
            raise DitkitError("--state and --by are required without --golden")
        ground_text, p_text = args.ground, args.p
        state_text, by_text = args.state, args.by
    ground = _parse_ground(ground_text)
    probs = _parse_probs(ground, p_text)
    pi = parse_partition(ground, state_text)
    sigma = parse_partition(ground, by_text)

    mat = density.rho(pi, probs)
    hat = density.luders_mixture(mat, sigma)
    joined = join(pi, sigma)
    h_before = density.quantum_logical_entropy(mat)
    h_after = density.quantum_logical_entropy(hat)
    zeroed = density.state_reduction_audit(mat, sigma)
    outcomes = density.luders_outcomes(hat, sigma)

    if args.json:
        print(
            json.dumps(
                {
                    "state": notation(pi),
                    "measured_by": notation(sigma),
                    "rho": density.DensityMatrix.to_json(mat),
                    "rho_hat": density.DensityMatrix.to_json(hat),
                    "join": notation(joined),
                    "join_matches": hat == density.rho(joined, probs),
                    "zeroed": [
                        [ground.label(i), ground.label(k)] for i, k in zeroed
                    ],
                    "h_before": str(h_before),
                    "h_after": str(h_after),
                    "h_gain": str(h_after - h_before),
                    "outcomes": [
                        {
                            "block": [ground.label(i) for i in blk],
                            "probability": str(pr),
                            "state_diagonal": [str(d) for d in post.diagonal()],
                        }
                        for blk, pr, post in outcomes
                    ],
                }
            )
        )
        return 0

    dec = args.decimal
    print(f"state pi      = {notation(pi)}   p = ({', '.join(map(str, probs.p))})")
    print(f"measured by   = {notation(sigma)}")
    print("rho(pi):")
    _print_matrix(mat)
    print("rho_hat = sum_r P_r rho P_r:")
    _print_matrix(hat)
    print(f"join pi v sigma       = {notation(joined)}")
    print(f"rho_hat == rho(join)  = {hat == density.rho(joined, probs)}")
    pretty_zeroed = (
        ", ".join(f"({ground.label(i)},{ground.label(k)})" for i, k in zeroed)
        or "none"
    )
    print(f"zeroed coherences     = {pretty_zeroed}")
    print(f"h(rho)     = {_fmt(h_before, dec)}")
    print(f"h(rho_hat) = {_fmt(h_after, dec)}")
    print(f"gain       = {_fmt(h_after - h_before, dec)}")
    print("outcomes (Luders rule on rho_hat):")
    for blk, pr, post in outcomes:
        labels = "".join(ground.label(i) for i in blk)
        diag = ", ".join(_fmt(d, dec) for d in post.diagonal())
        print(f"  {labels}: probability {_fmt(pr, dec)}, state diag({diag})")
    return 0


# ---------------------------------------------------------------------------
# logic
# ---------------------------------------------------------------------------


def cmd_logic(args) -> int:
    formula = logic.parse(args.formula)
    report = logic.check_validity(formula, args.max_n, budget=args.budget)
    if args.json:
        print(json.dumps(report.to_json()))
    elif report.is_valid_up_to_bound:
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
        dsd_f = observables.DSD.standard(2)
        dsd_g = observables.DSD.from_vectors(2, [[(1, 1)], [(1, -1)]])
        ev = (Fraction(1), Fraction(-1))
        f = observables.operator_from_dsd(ev, dsd_f)
        g = observables.operator_from_dsd(ev, dsd_g)
        comm = observables.commutator(f, g)
        se = observables.simultaneous_eigenspace(dsd_f, dsd_g)
        kind = observables.classify(ev, dsd_f, ev, dsd_g)
        if args.json:
            print(
                json.dumps(
                    {
                        "g_rows": [[str(x) for x in row] for row in g.mat],
                        "commutator_rows": [
                            [str(x) for x in row] for row in comm
                        ],
                        "dim_se": len(se),
                        "classification": kind.value,
                        "se_equals_kernel": observables.theorem_se_equals_kernel(
                            ev, dsd_f, ev, dsd_g
                        ),
                    }
                )
            )
            return 0
        print("F = diag(1, -1); G = eigenvalues (1, -1) on (1,1)/(1,-1)")
        print(f"G matrix rows: {[[str(x) for x in row] for row in g.mat]}")
        print(f"[F,G] rows:    {[[str(x) for x in row] for row in comm]}")
        print(f"dim SE = {len(se)}  ->  {kind.value}")
        print(
            "SE == ker[F,G]: "
            f"{observables.theorem_se_equals_kernel(ev, dsd_f, ev, dsd_g)}"
        )
        return 0
    if not args.attr:
        raise DitkitError("give at least one --attr (or --se-demo)")
    if args.ground is None:
        raise DitkitError("--ground is required with --attr")
    ground = _parse_ground(args.ground)
    attrs = []
    for text in args.attr:
        values = [Fraction(part.strip()) for part in text.split(",")]
        attrs.append(observables.Attribute.from_values(ground, values))
    parts = [observables.inverse_image_partition(f) for f in attrs]
    if args.json:
        print(
            json.dumps(
                {
                    "attributes": [f.to_json() for f in attrs],
                    "partitions": [notation(pi) for pi in parts],
                    "csca_complete": observables.csca_complete(attrs),
                }
            )
        )
        return 0
    for f, pi in zip(attrs, parts):
        values = ", ".join(str(v) for v in f.values)
        print(f"attribute ({values}): levels {notation(pi)}, "
              f"spectral check {observables.set_spectral_check(f)}")
    joined = parts[0]
    for pi in parts[1:]:
        joined = join(joined, pi)
    print(f"join of level partitions: {notation(joined)}")
    complete = observables.csca_complete(attrs)
    print(f"complete set of compatible attributes: {complete}")
    if complete:
        for i in range(ground.n):
            tup = ", ".join(str(f.values[i]) for f in attrs)
            print(f"  {ground.label(i)} -> ({tup})")
    return 0


# ---------------------------------------------------------------------------
# double-slit
# ---------------------------------------------------------------------------


def cmd_double_slit(args) -> int:
    if args.format == "dot":
        sys.stdout.write(lattice.double_slit_dot())
        return 0
    if args.trials < 0:
        raise DitkitError(f"--trials must be non-negative, got {args.trials}")
    dist = z2dyn.double_slit(args.case)
    if args.trials:
        _, dynamics, start = z2dyn.double_slit_setup()
        steps = z2dyn.double_slit_steps(args.case)
        counts = z2dyn.sample_pipeline(
            start, steps, trials=args.trials, rng=args.seed
        )
        by_label = {
            vec.labels()[0]: hits for vec, hits in counts.items()
        }
        if args.json:
            print(
                json.dumps(
                    {
                        "case": args.case,
                        "exact": {lab: str(q) for lab, q in dist.items()},
                        "trials": args.trials,
                        "seed": args.seed,
                        "counts": by_label,
                    }
                )
            )
            return 0
        print(f"case {args.case}, {args.trials} samples (seed {args.seed}):")
        for lab, q in dist.items():
            hits = by_label.get(lab, 0)
            print(
                f"  {lab}: exact {q}, sampled {hits}/{args.trials}"
                f" = {hits / args.trials:.4f}"
            )
        return 0
    if args.json:
        print(
            json.dumps(
                {"case": args.case, "wall": {lab: str(q) for lab, q in dist.items()}}
            )
        )
        return 0
    print(f"case {args.case} wall distribution:")
    for lab, q in dist.items():
        bar = "#" * int(q * 40)
        print(f"  {lab}  {str(q):>4}  {bar}")
    return 0


# ---------------------------------------------------------------------------
# lattice
# ---------------------------------------------------------------------------


def cmd_lattice(args) -> int:
    if args.n is not None:
        if not 1 <= args.n <= lattice.LATTICE_BOUND:
            raise DitkitError(
                f"--n must be between 1 and {lattice.LATTICE_BOUND}"
            )
        ground = _parse_ground("abcdef"[: args.n])
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
    p.add_argument("--join", metavar="SIGMA")
    p.add_argument("--meet", metavar="SIGMA")
    p.add_argument("--implies", metavar="SIGMA")
    p.add_argument("--refines", metavar="SIGMA")
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
    p.add_argument("--ground", default=GOLDEN_GROUND)
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

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The one parser, built on the first call rather than at import."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (DitkitError, ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

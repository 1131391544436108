"""The four benchmark workloads.

Each workload turns a seed into one *pass*: a list of ops built through
ditkit's public constructors.  `run(op)` performs one op through the
library and returns its result; `check(op, result)` verifies that result
independently (see README.md for what each check covers).  `warmup()`
is a fixed op, the same for every seed, that set-up runs once untimed.

Ops call the library as ``ditkit.<name>`` (or ``ditkit.cli.main``) at call
time, so the layer wrappers of layertrace.py see every call.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import random
import string
from fractions import Fraction

import ditkit
import ditkit.cli

F = Fraction


def _labels(n: int) -> tuple[str, ...]:
    return tuple(string.ascii_lowercase[:n])


def _random_blocks(rng: random.Random, n: int, max_blocks: int) -> list[list[int]]:
    """A random partition of range(n) into at most max_blocks blocks."""
    k = rng.randint(1, max_blocks)
    blocks: dict[int, list[int]] = {}
    for i in range(n):
        blocks.setdefault(rng.randrange(k), []).append(i)
    return list(blocks.values())


def _text(blocks, labels) -> str:
    """Partition notation: blocks of single-letter labels joined by '|'."""
    return "|".join("".join(labels[i] for i in sorted(b)) for b in blocks)


def _rgs_partitions(n: int):
    """Every partition of range(n), by restricted growth strings; an
    enumeration of the benchmark's own, used only by the checks."""
    def grow(prefix, top):
        if len(prefix) == n:
            blocks: dict[int, list[int]] = {}
            for i, b in enumerate(prefix):
                blocks.setdefault(b, []).append(i)
            yield list(blocks.values())
            return
        for b in range(top + 2):
            yield from grow(prefix + [b], max(top, b))

    yield from grow([0], 0)


BELL = {1: 1, 2: 2, 3: 5, 4: 15, 5: 52, 6: 203}
# a cover splits one block B in two: 2**(|B|-1) - 1 ways per block
COVERS = {
    n: sum(2 ** (len(b) - 1) - 1 for blocks in _rgs_partitions(n) for b in blocks)
    for n in BELL
}


def _rank(rows) -> int:
    """Rank of a Fraction matrix by plain Gaussian elimination."""
    m = [list(r) for r in rows]
    rank = 0
    cols = len(m[0]) if m else 0
    for c in range(cols):
        pivot = next((i for i in range(rank, len(m)) if m[i][c] != 0), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        for i in range(rank + 1, len(m)):
            if m[i][c] != 0:
                factor = m[i][c] / m[rank][c]
                m[i] = [x - factor * y for x, y in zip(m[i], m[rank])]
        rank += 1
    return rank


def _dot(u, v) -> Fraction:
    return sum((x * y for x, y in zip(u, v)), F(0))


# ---------------------------------------------------------------------------
# theorem_sweep
# ---------------------------------------------------------------------------


def _ref_entropy(blocks, p) -> Fraction:
    return 1 - sum((sum((p[i] for i in b), F(0)) ** 2 for b in blocks), F(0))


def _ref_join(a, b) -> list[list[int]]:
    return [x for x in ([i for i in s if i in set(t)] for s in a for t in b) if x]


class TheoremSweep:
    """One op checks one triple (pi, sigma, p) with theorem_join,
    theorem_entropy_increase and the compound_logical Venn identities;
    the first op of each (pi, p) in a pass also runs consistency_h."""

    name = "theorem_sweep"
    # probability vectors per (n, weight range) in one pass
    VECTORS = {2: 2, 3: 2, 4: 3, 5: 4}
    SIGMAS_PER_PI_N5 = 8
    RANGES = (9, 10**6)  # small and large weights, so small and large denominators

    def build(self, seed: int) -> list:
        rng = random.Random(f"{self.name}:{seed}")
        ops = []
        for n, count in self.VECTORS.items():
            ground = ditkit.GroundSet(_labels(n))
            parts = list(ditkit.enumerate_partitions(ground))
            for high in self.RANGES:
                for _ in range(count):
                    weights = [rng.randint(1, high) for _ in range(n)]
                    total = sum(weights)
                    probs = ditkit.ProbGroundSet(
                        ground, tuple(F(w, total) for w in weights)
                    )
                    if n < 5:
                        pairs = itertools.product(parts, parts)
                    else:
                        pairs = [
                            (pi, sigma)
                            for pi in parts
                            for sigma in rng.sample(parts, self.SIGMAS_PER_PI_N5)
                        ]
                    ops.extend([pi, sigma, probs, False] for pi, sigma in pairs)
        rng.shuffle(ops)
        seen = set()
        for op in ops:
            key = (id(op[0]), id(op[2]))
            op[3] = key not in seen
            seen.add(key)
        return [tuple(op) for op in ops]

    def describe(self, op) -> str:
        pi, sigma, probs, first = op
        return f"{pi.blocks} {sigma.blocks} {probs.p} {first}"

    def warmup(self):
        ground = ditkit.GroundSet(_labels(3))
        probs = ditkit.ProbGroundSet(ground, (F(1, 3), F(1, 4), F(5, 12)))
        pi = ditkit.parse_partition(ground, "a|bc")
        sigma = ditkit.parse_partition(ground, "ab|c")
        return (pi, sigma, probs, True)

    def run(self, op):
        pi, sigma, probs, first = op
        return (
            ditkit.theorem_join(pi, sigma, probs),
            ditkit.theorem_entropy_increase(pi, sigma, probs),
            ditkit.consistency_h(pi, probs) if first else None,
            ditkit.compound_logical(pi, sigma, probs),
            ditkit.logical_entropy(pi, probs),
            ditkit.logical_entropy(sigma, probs),
        )

    def check(self, op, result) -> bool:
        pi, sigma, probs, first = op
        joined, increase, consistent, comp, h_pi, h_sigma = result
        p = probs.p
        return (
            joined is True
            and increase is True
            and consistent is (True if first else None)
            and comp.joint == h_pi + comp.conditional_sigma_given_pi
            and comp.joint == h_sigma + comp.conditional_pi_given_sigma
            and comp.mutual == h_pi + h_sigma - comp.joint
            and h_pi == ditkit.logical_entropy_ditsum(pi, probs)
            and h_sigma == ditkit.logical_entropy_ditsum(sigma, probs)
            and h_pi == _ref_entropy(pi.blocks, p)
            and h_sigma == _ref_entropy(sigma.blocks, p)
            and comp.joint == _ref_entropy(_ref_join(pi.blocks, sigma.blocks), p)
        )


# ---------------------------------------------------------------------------
# validity_search
# ---------------------------------------------------------------------------

# (formula, max_n, recorded status, recorded bound).  Valid formulas sweep
# every assignment up to max_n; invalid ones are classical tautologies that
# stop at their least witness, at n = 3 or 4.
FORMULAS = (
    # two variables, long sweeps: 203**2 assignments at n = 6
    (r"p => (p \/ q)", 6, "valid-up-to-bound", 6),
    (r"(p /\ q) => p", 5, "valid-up-to-bound", 5),
    (r"(p /\ (p => q)) => q", 5, "valid-up-to-bound", 5),
    (r"p => (q => p)", 5, "valid-up-to-bound", 5),
    (r"(p /\ q) => (q /\ p)", 5, "valid-up-to-bound", 5),
    (r"q => (p => q)", 5, "valid-up-to-bound", 5),
    (r"(p /\ q) => (p \/ q)", 5, "valid-up-to-bound", 5),
    (r"(p => 0) => (p => q)", 5, "valid-up-to-bound", 5),
    (r"(p /\ (q \/ p)) => p", 5, "valid-up-to-bound", 5),
    # three variables: 15**3 assignments at n = 4, 5**3 at n = 3
    (r"(p /\ (q /\ r)) => ((p /\ q) /\ r)", 4, "valid-up-to-bound", 4),
    (r"p => (p \/ (q /\ r))", 4, "valid-up-to-bound", 4),
    (r"((p => q) /\ (q => r)) => (p => r)", 4, "valid-up-to-bound", 4),
    (r"(p => q) => ((r \/ p) => (r \/ q))", 4, "valid-up-to-bound", 4),
    (r"(p => (q => r)) => ((p /\ q) => r)", 4, "valid-up-to-bound", 4),
    (r"((p \/ q) => r) => (p => r)", 3, "valid-up-to-bound", 3),
    (r"((p => r) /\ (q => r)) => ((p \/ q) => r)", 3, "valid-up-to-bound", 3),
    (r"(p /\ q /\ r) => (r \/ q)", 3, "valid-up-to-bound", 3),
    (r"(p => (q => r)) => ((p /\ q) => r)", 3, "valid-up-to-bound", 3),
    # one variable: 203 assignments at n = 6; they sit around the median
    (r"p => p", 6, "valid-up-to-bound", 6),
    (r"(p => 0) \/ ((p => 0) => 0)", 6, "valid-up-to-bound", 6),
    (r"p => (p /\ p)", 6, "valid-up-to-bound", 6),
    (r"(p /\ p) => p", 6, "valid-up-to-bound", 6),
    (r"p => (p \/ p)", 6, "valid-up-to-bound", 6),
    (r"0 => p", 6, "valid-up-to-bound", 6),
    (r"p => 1", 6, "valid-up-to-bound", 6),
    (r"p \/ 1", 6, "valid-up-to-bound", 6),
    (r"p => ((p => 0) => 0)", 6, "valid-up-to-bound", 6),
    (r"1 \/ p", 6, "valid-up-to-bound", 6),
    (r"p \/ (p => p)", 6, "valid-up-to-bound", 6),
    (r"p => (0 \/ p)", 6, "valid-up-to-bound", 6),
    (r"(p /\ 0) => p", 6, "valid-up-to-bound", 6),
    (r"(p /\ 1) => p", 6, "valid-up-to-bound", 6),
    (r"(p => 0) => 1", 6, "valid-up-to-bound", 6),
    (r"(p => p) \/ p", 6, "valid-up-to-bound", 6),
    (r"p => (p => p)", 6, "valid-up-to-bound", 6),
    (r"(p \/ p) => p", 6, "valid-up-to-bound", 6),
    (r"0 => (p => p)", 6, "valid-up-to-bound", 6),
    (r"p => (1 => p)", 6, "valid-up-to-bound", 6),
    (r"(p => 1) \/ p", 6, "valid-up-to-bound", 6),
    # invalid: early witnesses
    (r"(p => q) \/ (q => p)", 6, "counterexample", 4),
    (r"(p /\ (q \/ r)) => ((p /\ q) \/ (p /\ r))", 6, "counterexample", 3),
    (r"((p \/ q) /\ (p \/ r)) => (p \/ (q /\ r))", 6, "counterexample", 3),
    (r"((p => q) => p) => p", 6, "counterexample", 3),
    (r"p \/ (p => 0)", 6, "counterexample", 3),
    (r"((p => 0) => 0) => p", 6, "counterexample", 3),
    (r"(p => q) => ((p => 0) \/ q)", 6, "counterexample", 3),
    (r"((p /\ q) => r) => (p => (q => r))", 6, "counterexample", 3),
    (r"(p => (q \/ r)) => ((p => q) \/ (p => r))", 6, "counterexample", 4),
    (r"((p => 0) => p) => p", 6, "counterexample", 3),
    (r"(p => q) \/ (p => (q => 0))", 6, "counterexample", 3),
    (r"((p => q) => q) => (p \/ q)", 6, "counterexample", 3),
    (r"(p => q) \/ (q => r)", 6, "counterexample", 3),
    (r"((p => q) => r) => ((p => r) => r)", 6, "counterexample", 3),
    (r"((q => 0) => (p => 0)) => (p => q)", 6, "counterexample", 3),
    (r"(p \/ q) => (p \/ (q /\ (p => 0)))", 6, "counterexample", 3),
    (r"(p => q) => (p => (p /\ q))", 6, "counterexample", 3),
)


class ValiditySearch:
    """One op is one check_validity(formula, max_n) call; a pass is a
    seeded order of FORMULAS."""

    name = "validity_search"

    def build(self, seed: int) -> list:
        rng = random.Random(f"{self.name}:{seed}")
        rows = list(FORMULAS)
        rng.shuffle(rows)
        return [(text, ditkit.parse(text), max_n, status, bound)
                for text, max_n, status, bound in rows]

    def describe(self, op) -> str:
        return f"{op[0]} {op[2]}"

    def warmup(self):
        text = r"(p => q) \/ (q => p)"
        return (text, ditkit.parse(text), 4, "counterexample", 4)

    def run(self, op):
        return ditkit.check_validity(op[1], op[2])

    def check(self, op, report) -> bool:
        _, formula, _, status, bound = op
        if report.status != status or report.bound != bound:
            return False
        witness = report.witness
        if status == "valid-up-to-bound":
            return witness is None
        ground = ditkit.GroundSet(_labels(witness.n))
        value = ditkit.evaluate(formula, witness.assignment, ground)
        return (
            witness.n == bound
            and value == witness.value
            and len(value.blocks) < witness.n  # below the discrete top
        )


# ---------------------------------------------------------------------------
# cli_queries
# ---------------------------------------------------------------------------

CLI_FORMULAS = (
    (r"p => (p \/ q)", 4),
    (r"(p /\ q) => p", 4),
    (r"(p => q) \/ (q => p)", 4),
    (r"((p => q) => p) => p", 4),
    (r"(p /\ (q \/ r)) => ((p /\ q) \/ (p /\ r))", 3),
    (r"p => (p \/ (q /\ r))", 3),
)

DOUBLE_SLIT = {
    1: {"a": "1/4", "b": "1/2", "c": "1/4"},
    2: {"a": "1/2", "b": "0", "c": "1/2"},
}


class CliQueries:
    """One op is one in-process ditkit.cli.main(argv) call with stdout
    captured; a pass is ROUNDS rounds of the fixed request mix below,
    with seeded arguments, in a seeded order.  The heavy tail is one
    `lattice --n 6 --format json` per round and one 10000-trial
    double-slit sample every other round, so that the op at the tail
    percentile falls in the middle of the lattice group rather than at
    its edge.  The shape of each request (its n, formula, case, number
    of attributes) comes from fixed cycles, the same for every seed, so
    that a pass costs the same whatever the seed; the seed draws the
    partitions, weights, attribute values, sampling seeds and order."""

    name = "cli_queries"
    ROUNDS = 10

    def build(self, seed: int) -> list:
        rng = random.Random(f"{self.name}:{seed}")
        shapes = {
            "n": itertools.cycle(range(2, 7)),
            "table_n": itertools.cycle(range(3, 7)),
            "lattice_n": itertools.cycle(range(2, 6)),
            "formula": itertools.cycle(CLI_FORMULAS),
            "attrs": itertools.cycle(range(1, 4)),
            "case": itertools.cycle((1, 2)),
            "sample_case": itertools.cycle((1, 2)),
        }
        ops = []
        for i in range(self.ROUNDS):
            ops.extend(self._round(rng, shapes, sample=i % 2 == 0))
        rng.shuffle(ops)
        return [tuple(argv) for argv in ops]

    def _round(self, rng: random.Random, shapes: dict, sample: bool) -> list[list[str]]:
        def shape(name):
            return next(shapes[name])

        def ground(n):
            return "".join(_labels(n))

        def part(n):
            return _text(_random_blocks(rng, n, n), _labels(n))

        def normalised(n):
            weights = [rng.randint(1, 9) for _ in range(n)]
            return ",".join(str(F(w, sum(weights))) for w in weights)

        out = []
        for op in ("join", "meet", "implies", "refines") * 2:
            n = shape("n")
            out.append(["partition", "--ground", ground(n), part(n),
                        f"--{op}", part(n), "--json"])
        for _ in range(3):
            n = shape("n")
            out.append(["entropy", "--ground", ground(n), "--p", normalised(n),
                        part(n), "--json"])
        for _ in range(2):
            n = shape("n")
            out.append(["entropy", "--ground", ground(n), "--p", normalised(n),
                        part(n), "--with", part(n), "--json"])
        n = shape("table_n")
        out.append(["entropy", "--ground", ground(n), "--p", normalised(n), "--table"])
        out.append(["measure", "--golden", "--json"])
        for _ in range(4):
            n = shape("n")
            out.append(["measure", "--ground", ground(n), "--p", normalised(n),
                        "--state", part(n), "--by", part(n), "--json"])
        for _ in range(5):
            text, max_n = shape("formula")
            out.append(["logic", text, "--max-n", str(max_n), "--json"])
        out.append(["observable", "--se-demo", "--json"])
        for _ in range(3):
            n = shape("n")
            attrs = []
            for _ in range(shape("attrs")):
                attrs += ["--attr", ",".join(str(rng.randint(0, 3)) for _ in range(n))]
            out.append(["observable", "--ground", ground(n), *attrs, "--json"])
        if sample:
            out.append(["double-slit", "--case", str(shape("sample_case")), "--trials",
                        "10000", "--seed", str(rng.randrange(10**6)), "--json"])
        out.append(["double-slit", "--case", str(shape("case")), "--trials",
                    "100", "--seed", str(rng.randrange(10**6)), "--json"])
        for case in (1, 2):
            out.append(["double-slit", "--case", str(case), "--json"])
        out.append(["double-slit", "--format", "dot"])
        out.append(["lattice", "--n", "6", "--format", "json"])
        for _ in range(3):
            out.append(["lattice", "--n", str(shape("lattice_n")), "--format", "json"])
        for _ in range(2):
            out.append(["lattice", "--n", str(shape("lattice_n"))])
        return out

    def describe(self, op) -> str:
        return json.dumps(op)

    def warmup(self):
        return ("measure", "--golden", "--json")

    def run(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = ditkit.cli.main(list(argv))
        return code, out.getvalue(), err.getvalue()

    def check(self, argv, result) -> bool:
        code, out, err = result
        if err:
            return False
        command = argv[0]
        opts = _options(argv)
        if command == "lattice":
            n = int(opts["--n"])
            if opts.get("--format") == "json":
                data = json.loads(out)
                return (code == 0 and len(data["nodes"]) == BELL[n]
                        and len(data["edges"]) == COVERS[n])
            lines = out.splitlines()
            return (code == 0
                    and sum(" -> " in line for line in lines) == COVERS[n]
                    and sum("[label=" in line for line in lines) == BELL[n])
        if command == "double-slit":
            if opts.get("--format") == "dot":
                return code == 0 and out.startswith('digraph "double slit"')
            data = json.loads(out)
            exact = DOUBLE_SLIT[int(opts["--case"])]
            if "--trials" not in opts:
                return code == 0 and data["wall"] == exact
            trials = int(opts["--trials"])
            return (code == 0 and data["exact"] == exact
                    and sum(data["counts"].values()) == trials
                    and all(exact[lab] != "0" for lab in data["counts"]))
        if command == "logic":
            formula = ditkit.parse(argv[1])
            report = ditkit.check_validity(formula, int(opts["--max-n"]))
            expected_code = 0 if report.is_valid_up_to_bound else 1
            return code == expected_code and json.loads(out) == report.to_json()
        if command == "observable":
            data = json.loads(out)
            if "--se-demo" in opts:
                return (code == 0 and data["classification"] == "Conjugate"
                        and data["dim_se"] == 0 and data["se_equals_kernel"] is True)
            ground = ditkit.GroundSet(tuple(opts["--ground"]))
            attrs = [ditkit.Attribute.from_values(ground, text.split(","))
                     for text in opts["--attr"]]
            return (code == 0
                    and data["csca_complete"] == ditkit.csca_complete(attrs)
                    and data["partitions"] == [
                        ditkit.notation(ditkit.inverse_image_partition(f))
                        for f in attrs])
        ground = ditkit.GroundSet(tuple(opts["--ground"])) if "--ground" in opts else None
        if command == "partition":
            data = json.loads(out)
            pi = ditkit.parse_partition(ground, argv[3])
            for op in ("join", "meet", "implies"):
                if f"--{op}" in opts:
                    sigma = ditkit.parse_partition(ground, opts[f"--{op}"])
                    fn = {"join": ditkit.join, "meet": ditkit.meet,
                          "implies": ditkit.implication}[op]
                    expected = fn(pi, sigma)
                    return code == 0 and data == {
                        "ground": list(ground.labels),
                        "blocks": [list(b) for b in expected.label_blocks()],
                    }
            sigma = ditkit.parse_partition(ground, opts["--refines"])
            return code == 0 and data == {"refines": ditkit.refines(pi, sigma)}
        if command == "entropy":
            probs = ditkit.ProbGroundSet.from_values(ground, opts["--p"].split(","))
            if "--table" in opts:
                rows = out.splitlines()[1:]
                expected = {
                    ditkit.notation(pi): str(ditkit.logical_entropy(pi, probs))
                    for pi in ditkit.enumerate_partitions(ground)
                }
                got = {row.split("\t")[0]: row.split("\t")[2] for row in rows}
                return code == 0 and len(rows) == BELL[ground.n] and got == expected
            data = json.loads(out)
            pi = ditkit.parse_partition(ground, argv[5])  # entropy --ground G --p P PI
            if "--with" in opts:
                sigma = ditkit.parse_partition(ground, opts["--with"])
                comp = ditkit.compound_logical(pi, sigma, probs)
                return code == 0 and data["logical"] == {
                    "h_pi": str(ditkit.logical_entropy(pi, probs)),
                    "h_sigma": str(ditkit.logical_entropy(sigma, probs)),
                    "joint": str(comp.joint),
                    "conditional_pi_given_sigma": str(comp.conditional_pi_given_sigma),
                    "conditional_sigma_given_pi": str(comp.conditional_sigma_given_pi),
                    "mutual": str(comp.mutual),
                }
            return (code == 0
                    and data["logical"] == str(_ref_entropy(pi.blocks, probs.p))
                    and data["block_probs"] == [
                        str(pr) for _, pr in ditkit.block_probs(pi, probs)])
        if command == "measure":
            data = json.loads(out)
            if "--golden" in opts:
                return code == 0 and data["h_gain"] == "5/24" and data["join_matches"]
            probs = ditkit.ProbGroundSet.from_values(ground, opts["--p"].split(","))
            pi = ditkit.parse_partition(ground, opts["--state"])
            sigma = ditkit.parse_partition(ground, opts["--by"])
            before = _ref_entropy(pi.blocks, probs.p)
            after = _ref_entropy(_ref_join(pi.blocks, sigma.blocks), probs.p)
            return (code == 0 and data["join_matches"] is True
                    and data["h_before"] == str(before)
                    and data["h_after"] == str(after)
                    and data["h_gain"] == str(after - before))
        return False


def _options(argv) -> dict:
    """Flags of an argv list: '--flag value' pairs, bare flags map to
    True, and repeated --attr values collect into a list."""
    opts: dict = {"--attr": []}
    i = 1
    while i < len(argv):
        arg = argv[i]
        if not arg.startswith("--"):
            i += 1
            continue
        takes_value = i + 1 < len(argv) and not argv[i + 1].startswith("--")
        value = argv[i + 1] if takes_value else True
        if arg == "--attr":
            opts["--attr"].append(value)
        else:
            opts[arg] = value
        i += 2 if takes_value else 1
    return opts


# ---------------------------------------------------------------------------
# compat_dynamics
# ---------------------------------------------------------------------------


def _orthogonal_dsd(rng: random.Random, n: int):
    """Groups of pairwise-orthogonal rational rows spanning Q^n: Gram-
    Schmidt over a random full-rank integer matrix, rows grouped at
    random cut points."""
    while True:
        rows = [[F(rng.randint(-3, 3)) for _ in range(n)] for _ in range(n)]
        if _rank(rows) == n:
            break
    ortho = []
    for v in rows:
        w = list(v)
        for u in ortho:
            coef = _dot(u, v) / _dot(u, u)
            w = [x - coef * y for x, y in zip(w, u)]
        ortho.append(tuple(w))
    groups, at = [], 0
    while at < n:
        size = rng.randint(1, n - at)
        groups.append(tuple(ortho[at:at + size]))
        at += size
    return tuple(groups)


def _nonsingular_cols(rng: random.Random, n: int) -> tuple[int, ...]:
    """Columns of a random nonsingular GF(2) matrix: the identity after
    random column additions and a random column order."""
    cols = [1 << i for i in range(n)]
    for _ in range(3 * n):
        i, j = rng.sample(range(n), 2)
        cols[i] ^= cols[j]
    rng.shuffle(cols)
    return tuple(cols)


def _operator(values, groups, n):
    """sum of value * projection; rows within a group are orthogonal, so
    each projection is sum of v v^T / (v . v)."""
    op = [[F(0)] * n for _ in range(n)]
    for value, group in zip(values, groups):
        for v in group:
            scale = value / _dot(v, v)
            for i in range(n):
                for k in range(n):
                    op[i][k] += scale * v[i] * v[k]
    return op


def _matmul(a, b):
    return [[_dot(row, col) for col in zip(*b)] for row in a]


class CompatDynamics:
    """Two op kinds, half each: classify + theorem_se_equals_kernel on a
    pair of random orthogonal rational DSDs of dimension 3 to 5, and
    run_pipeline + sample_pipeline on a random nonsingular GF2Map of
    dimension 4 to 12 with random measurement partitions."""

    name = "compat_dynamics"
    PAIRS = 100  # of each kind per pass
    TRIALS = 300

    def build(self, seed: int) -> list:
        rng = random.Random(f"{self.name}:{seed}")
        ops = []
        for i in range(self.PAIRS):
            n = 3 + i % 3
            f, g = _orthogonal_dsd(rng, n), _orthogonal_dsd(rng, n)
            ev_f = tuple(F(v) for v in rng.sample(range(-12, 13), len(f)))
            ev_g = tuple(F(v) for v in rng.sample(range(-12, 13), len(g)))
            ops.append(("dsd", ev_f, ditkit.DSD(n, f), ev_g, ditkit.DSD(n, g)))
        for i in range(self.PAIRS):
            n = 4 + i % 9
            ground = ditkit.GroundSet(_labels(n))
            dynamics = ditkit.GF2Map(_nonsingular_cols(rng, n))
            weights = [rng.randint(1, 9) for _ in range(n)]
            probs = ditkit.ProbGroundSet(ground, tuple(F(w, sum(weights)) for w in weights))
            measure = [
                ditkit.Measure(ditkit.Partition.from_index_blocks(
                    ground, _random_blocks(rng, n, n - 1)))
                for _ in range(2)
            ]
            start = ditkit.SubsetVector(
                ground, frozenset(rng.sample(range(n), rng.randint(2, n))))
            steps = (measure[0], ditkit.Evolve(dynamics), measure[1],
                     ditkit.Evolve(dynamics), ditkit.Detect())
            ops.append(("gf2", start, steps, probs, rng.randrange(10**6)))
        rng.shuffle(ops)
        return ops

    def describe(self, op) -> str:
        if op[0] == "dsd":
            return f"dsd {op[1]} {op[2].subspaces} {op[3]} {op[4].subspaces}"
        _, start, steps, probs, sample_seed = op
        return (f"gf2 {sorted(start.members)} {steps[1].map.cols} "
                f"{steps[0].by.blocks} {steps[2].by.blocks} {probs.p} {sample_seed}")

    def warmup(self):
        # diag(1,2,3) against eigenvalue 2 on (1,1,1) and -1 on its
        # orthogonal plane: the pair whose kernel exceeds the SE span
        f = ditkit.DSD.standard(3)
        g = ditkit.DSD.from_vectors(3, [[(1, 1, 1)], [(1, -1, 0), (1, 1, -2)]])
        return ("dsd", (F(1), F(2), F(3)), f, (F(2), F(-1)), g)

    def run(self, op):
        if op[0] == "dsd":
            _, ev_f, f, ev_g, g = op
            return (ditkit.classify(ev_f, f, ev_g, g),
                    ditkit.theorem_se_equals_kernel(ev_f, f, ev_g, g))
        _, start, steps, probs, sample_seed = op
        return (ditkit.run_pipeline(start, steps, probs),
                ditkit.sample_pipeline(start, steps, self.TRIALS, sample_seed, probs))

    def check(self, op, result) -> bool:
        if op[0] == "dsd":
            return self._check_dsd(op, result)
        _, start, steps, probs, _ = op
        mixture, counts = result
        dynamics = steps[1].map
        inverse = dynamics.inverse()
        n = dynamics.n
        for j in range(n):
            if inverse.apply_bits(dynamics.apply_bits(1 << j)) != 1 << j:
                return False
            if dynamics.apply_bits(inverse.apply_bits(1 << j)) != 1 << j:
                return False
        support = {vec: q for vec, q in mixture.terms}
        return (
            sum(support.values(), F(0)) == 1
            and all(len(vec) == 1 for vec in support)
            and sum(counts.values()) == self.TRIALS
            and all(support.get(vec, 0) > 0 for vec in counts)
        )

    def _check_dsd(self, op, result) -> bool:
        _, ev_f, f, ev_g, g = op
        verdict, equal = result
        n = f.dim
        # subspaces within one DSD are orthogonal, so the pairwise
        # intersections are independent and their dimensions add up
        dim_se = sum(
            len(a) + len(b) - _rank(a + b) for a in f.subspaces for b in g.subspaces
        )
        op_f = _operator(ev_f, f.subspaces, n)
        op_g = _operator(ev_g, g.subspaces, n)
        fg, gf = _matmul(op_f, op_g), _matmul(op_g, op_f)
        comm = [[x - y for x, y in zip(r, s)] for r, s in zip(fg, gf)]
        dim_kernel = n - _rank(comm)
        expected = ("Commuting" if dim_se == n
                    else "Conjugate" if dim_se == 0 else "Incompatible")
        return verdict.value == expected and equal == (dim_se == dim_kernel)


WORKLOADS = {
    w.name: w
    for w in (TheoremSweep(), ValiditySearch(), CliQueries(), CompatDynamics())
}


def inputs_digest(workload, ops) -> str:
    """sha256 over the canonical text of a pass's generated inputs."""
    text = "\n".join(map(workload.describe, ops))
    return hashlib.sha256(text.encode()).hexdigest()

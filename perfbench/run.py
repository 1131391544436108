"""ditkit benchmark: four seeded workloads, end to end or traced by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the library is imported from ./src.  One
client issues ops in a closed loop: each op starts after the previous one
returns.  A pass runs every op of the workload once.  With --trace 0 the
timed region runs round(S / PASS_SECONDS) whole passes (at least one), so
every run of a workload does the same work and yields the same number of
latency samples; each result is checked between ops, outside the timing,
and the end-to-end metrics are printed.  Their times are calibrated by
speed probes run between ops (speed.py); the wall times are printed too.
With --trace 1 the ops run untraced, twice with every layer wrapped
(layertrace.py), and untraced again; the per-layer metrics come from the
first traced pass.  The last line of stdout is one JSON object: correct,
attempted, failed and metrics.  A full record (seed, inputs digest,
environment, every metric) is also written under perfbench/out/.  See
README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

import speed

HERE = os.path.dirname(os.path.abspath(__file__))
OUT = os.path.join(HERE, "out")
SETUP_PROBES = 8  # half before the timed region, half after
TAIL_BEYOND = 10
PASS_SECONDS = 4.0  # --seconds per pass: --seconds 40 runs ten passes
CHUNK_NS = 200_000_000  # wall time between two speed probes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "ditkit", "__init__.py")):
        print(f"error: no ditkit sources at {src}; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    import ditkit
    import workloads

    if os.path.dirname(os.path.abspath(ditkit.__file__)) != os.path.join(src, "ditkit"):
        print(f"error: imported ditkit from {ditkit.__file__}, not {src}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]

    probes = []
    if not args.trace:
        probes += _setup_probes(root, args.workload, args.seed, SETUP_PROBES // 2 + 1)[1:]
    ops = wl.build(args.seed)
    digest = workloads.inputs_digest(wl, ops)
    wl.run(wl.warmup())
    # Exempt the set-up heap (modules, inputs) from later collections, so
    # the benchmark's own objects add no collector pauses to op latencies.
    gc.collect()
    gc.freeze()

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "inputs_sha256": digest,
        "ops_per_pass": len(ops),
        "environment": _environment(root),
    }
    if args.trace:
        result = _traced(wl, ops, record)
    else:
        result = _end_to_end(wl, ops, args.seconds, record)
        probes += _setup_probes(root, args.workload, args.seed, SETUP_PROBES // 2)
        if {p["inputs_sha256"] for p in probes} != {digest}:
            print("error: set-up probes generated different inputs", file=sys.stderr)
            return 2
        _report_setup(result, record, probes)

    os.makedirs(OUT, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(OUT, name), "w") as fh:
        json.dump({**record, "result": result}, fh, indent=1)
    print(json.dumps(result))
    return 0


# ---------------------------------------------------------------------------
# running ops
# ---------------------------------------------------------------------------


def _pass(wl, ops, verdicts=None, factors=None):
    """Run every op once, timing each call on its own.  Between ops, and
    outside the timing, each result is reduced to its signature and, when
    `verdicts` is given, checked.  Results are not kept, so the heap does
    not grow with the run.  When `factors` is given, a speed probe runs
    before the first op, after the last and between ops every CHUNK_NS of
    wall time, and `factors` receives each op's calibration factor (see
    speed.py).  Returns (wall latencies in ns, signatures, failed)."""
    clock = time.perf_counter_ns
    latencies, signatures, failed = [], [], 0
    probes, chunk_ends = [], []  # the ops ops[chunk_ends[c-1]:chunk_ends[c]]
    if factors is not None:      # ran between probes[c] and probes[c + 1]
        probes.append(speed.probe())
    chunk_started = clock()
    for i, op in enumerate(ops):
        started = clock()
        try:
            result = wl.run(op)
        except Exception as exc:  # counted as a failed op
            result = exc
        latencies.append(clock() - started)
        signature = _signature(result)
        signatures.append(signature)
        if verdicts is not None:
            key = f"{i}:{signature}"  # a str key keeps the dict untracked by gc
            if key not in verdicts:  # an identical result is checked once
                verdicts[key] = _check(wl, op, result)
            failed += not verdicts[key]
        if factors is not None and (clock() - chunk_started >= CHUNK_NS
                                    or i == len(ops) - 1):
            probes.append(speed.probe())
            chunk_ends.append(i + 1)
            chunk_started = clock()
    if factors is not None:
        start = 0
        for c, end in enumerate(chunk_ends):
            factors.extend([speed.factor(probes[c], probes[c + 1])] * (end - start))
            start = end
    return latencies, signatures, failed


def _signature(result) -> str:
    if isinstance(result, Exception):
        return f"raised {type(result).__name__}: {result}"
    return repr(result)


def _check(wl, op, result) -> bool:
    ok = False
    if not isinstance(result, Exception):
        try:
            ok = bool(wl.check(op, result))
        except Exception as exc:
            print(f"check raised {exc!r}", file=sys.stderr)
    if not ok:
        print(f"op failed: {wl.describe(op)[:200]} -> {_signature(result)[:200]}",
              file=sys.stderr)
    return ok


# ---------------------------------------------------------------------------
# end to end
# ---------------------------------------------------------------------------


def _setup_probes(root: str, workload: str, seed: int, count: int) -> list[dict]:
    """Set-up time and inputs digest from `count` fresh processes.  The
    first probe of a run also warms the bytecode and file caches, so the
    caller drops it."""
    probe = os.path.join(HERE, "probe.py")
    lines = []
    for _ in range(count):
        done = subprocess.run(
            [sys.executable, probe, workload, str(seed)],
            cwd=root, capture_output=True, text=True, timeout=150, check=True,
        )
        lines.append(json.loads(done.stdout.strip().splitlines()[-1]))
    return lines


def _report_setup(result: dict, record: dict, probes: list[dict]) -> None:
    times = [p["setup_s"] for p in probes]
    setup_s = statistics.median(times)
    wall_s = statistics.median(p["wall_s"] for p in probes)
    result["metrics"]["setup_s"] = {"value": setup_s, "unit": "s"}
    record["setup_probes_s"] = times
    record["setup_wall_s"] = wall_s
    print(f"  {'setup_s':<12} {setup_s:14.6g} s  [{wall_s:.6g} wall]  "
          f"(median of {len(times)} fresh processes)")


def _end_to_end(wl, ops, seconds: float, record: dict) -> dict:
    walls: list[list[int]] = []  # per pass, per op: wall ns
    calibrated: list[list[float]] = []  # the same, in calibrated ns
    all_factors: list[float] = []
    verdicts: dict = {}
    failed = 0
    passes = max(1, round(seconds / PASS_SECONDS))
    started = time.perf_counter()
    for _ in range(passes):
        factors: list[float] = []
        times, _, bad = _pass(wl, ops, verdicts, factors)
        walls.append(times)
        calibrated.append([t * f for t, f in zip(times, factors)])
        all_factors += factors
        failed += bad
    elapsed = time.perf_counter() - started
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    attempted = passes * len(ops)

    def timings(per_pass):
        """ops_per_s, p50 and tail in ms, the tail's index and the
        sample count."""
        # the ops back to back; the checks and probes between them excluded
        busy = sum(map(sum, per_pass)) / 1e9
        # One latency sample per op: the median of its repeats, one per
        # pass, so that a pause the machine imposes on one repeat does not
        # count.
        samples = sorted(statistics.median(col) for col in zip(*per_pass))
        tail_at = max(len(samples) - 1 - TAIL_BEYOND, 0)
        return (attempted / busy, statistics.median(samples) / 1e6,
                samples[tail_at] / 1e6, tail_at, len(samples))

    ops_per_s, p50, tail, tail_at, n = timings(calibrated)
    wall = dict(zip(("ops_per_s", "op_p50_ms", "op_tail_ms"), timings(walls)))
    tail_pct = 100 * (tail_at + 1) / n
    metrics = {
        "ops_per_s": (ops_per_s, "1/s"),
        "op_p50_ms": (p50, "ms"),
        "op_tail_ms": (tail, "ms"),
        "peak_rss_mb": (peak_rss_mb, "MiB"),
    }
    record.update(
        passes=passes,
        wall_s=sum(map(sum, walls)) / 1e9,
        elapsed_with_checks_s=elapsed,
        tail={"percentile": tail_pct, "samples": n, "beyond": n - 1 - tail_at},
        error_rate=failed / attempted,
        wall_metrics=wall,
        calibration_factor_quartiles=statistics.quantiles(all_factors, n=4),
    )
    print(f"workload {record['workload']}  seed {record['seed']}  "
          f"inputs sha256 {record['inputs_sha256'][:16]}  "
          f"{passes} passes x {len(ops)} ops in {record['wall_s']:.2f} s wall")
    print(f"  times are calibrated (speed.py); wall times in brackets; "
          f"calibration factor quartiles "
          + " ".join(f"{q:.3f}" for q in record["calibration_factor_quartiles"]))
    for name, (value, unit) in metrics.items():
        note = f"  [{wall[name]:.6g} wall]" if name in wall else ""
        if name == "op_tail_ms":
            note += (f"  (p{tail_pct:.2f} of {n} ops, {n - 1 - tail_at} beyond; "
                     f"each op the median of {passes} repeats)")
        print(f"  {name:<12} {value:14.6g} {unit}{note}")
    print(f"  {'error_rate':<12} {failed / attempted:14.6g} ratio  "
          f"({failed} of {attempted} ops failed)")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


# ---------------------------------------------------------------------------
# traced
# ---------------------------------------------------------------------------


def _traced(wl, ops, record: dict) -> dict:
    import layertrace

    # Passes run untraced, traced, traced, untraced, so that a machine
    # slowing down or speeding up during the run cancels in the overhead.
    verdicts: dict = {}
    plain, expected, failed = _pass(wl, ops, verdicts)
    untraced_s = sum(plain) / 1e9

    tracers, walls = [], []
    for _ in range(2):
        tracer = layertrace.Tracer()
        tracer.install()
        try:
            times, signatures, _ = _pass(wl, ops)
        finally:
            tracer.uninstall()
        tracers.append(tracer)
        walls.append(sum(times) / 1e9)
        # a traced op fails when its result differs from the untraced one
        failed += sum(s != e for s, e in zip(signatures, expected))
    times, _, bad = _pass(wl, ops, verdicts)
    untraced_s += sum(times) / 1e9
    failed += bad
    counts = [t.exact_counts() for t in tracers]
    metrics = tracers[0].layer_metrics(len(ops), walls[0], sum(walls) / untraced_s)
    self_total = sum(metrics[f"{layer}.self_s"][0] for layer in layertrace.LAYERS)
    problems = []
    if counts[0] != counts[1]:
        problems.append(f"exact counts differ between traced passes: {counts}")
    if self_total > walls[0]:
        problems.append(f"layer self times {self_total} exceed traced wall {walls[0]}")
    for problem in problems:
        print(f"error: {problem}", file=sys.stderr)

    os.makedirs(OUT, exist_ok=True)
    tracers[0].write(os.path.join(OUT, f"{record['workload']}.spans"))
    record.update(
        untraced_two_passes_s=untraced_s,
        traced_s=walls,
        spans=len(tracers[0].start),
        layer_self_total_s=self_total,
        exact_counts=counts[0],
    )
    print(f"workload {record['workload']}  seed {record['seed']}  "
          f"inputs sha256 {record['inputs_sha256'][:16]}  {len(ops)} ops  "
          f"untraced {untraced_s / 2:.2f} s, traced {walls[0]:.2f} s per pass, "
          f"{record['spans']} spans")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<28} {value:14.6g} {unit}")
    print(f"  layer self times total {self_total:.4f} s of traced wall {walls[0]:.4f} s")
    return {
        "correct": failed == 0 and not problems,
        "attempted": 4 * len(ops),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def _environment(root: str) -> dict:
    import hashlib

    src = os.path.join(root, "src", "ditkit")
    digest = hashlib.sha256()
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "commit": _git_head(root),
        "source_sha256": digest.hexdigest(),
    }


def _git_head(root: str):
    """The checked-out commit, read from .git without running git; None
    when the directory is not a git work tree (an exported checkout)."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.isfile(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


if __name__ == "__main__":
    sys.exit(main())

"""Set-up probe: one fresh process, timed from before `import ditkit`
until the first timed op could start.

    python3 perfbench/probe.py <workload> <seed>

Run from the repository root.  Prints one JSON line with the set-up time,
calibrated by speed probes right after it (speed.py), its wall time and
the digest of the generated inputs.  run.py starts several of these
and reports their median as setup_s.
"""

import os
import sys
import time


def main() -> None:
    workload, seed = sys.argv[1], int(sys.argv[2])
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    started = time.perf_counter()
    import ditkit  # noqa: F401  (timed: the import is part of set-up)
    import workloads

    wl = workloads.WORKLOADS[workload]
    ops = wl.build(seed)
    wl.run(wl.warmup())
    wall_s = time.perf_counter() - started

    # Imported only now, so that set-up does not find its modules loaded.
    import json
    import statistics

    import speed

    speed.probe()  # warms the kernel's code paths
    probe = statistics.median(speed.probe() for _ in range(3))
    setup_s = wall_s * speed.factor(probe, probe)
    print(json.dumps({"setup_s": setup_s, "wall_s": wall_s,
                      "inputs_sha256": workloads.inputs_digest(wl, ops)}))


if __name__ == "__main__":
    main()

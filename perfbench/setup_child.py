"""Time one set-up of a workload in a fresh interpreter.

Set-up is what a user's single run pays before any bound: importing
``boxprop``, building the workload's graphs (for ``compare-cli``: generating
the grid, writing it as ``.fg`` and parsing it back) and validating them.
numpy is imported before the clock starts. Its import took about 0.16 s of a
0.24 s set-up on a shared 2-core host, costs the same at every commit of
boxprop, and would bury the part of set-up that boxprop's code decides.
The time is scaled to the reference speed by the mean of reference probes
taken just before and just after it (see ``perfbench/calibrate.py``).
``perfbench/run.py`` starts this script several times and reports the median.

Usage: python3 perfbench/setup_child.py WORKLOAD SEED WORKDIR
Prints one JSON object: {"setup_s": ...}.
"""

import json
import statistics
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
# Reference probes timed before and again after the set-up.
PROBES = 9


def main(argv):
    name, seed, workdir = argv[0], int(argv[1]), Path(argv[2])
    import numpy  # noqa: F401
    from perfbench.calibrate import REF_PROBE_S, probe

    probes = [probe() for _ in range(PROBES + 2)][2:]  # the first two warm up
    t0 = perf_counter()
    import boxprop  # noqa: F401
    if name == "compare-cli":
        import boxprop.cli  # noqa: F401
    import_s = perf_counter() - t0
    from perfbench.workloads import make_workload

    workload = make_workload(name, seed, workdir)
    t1 = perf_counter()
    workload.setup(workdir)
    raw = import_s + perf_counter() - t1
    probes += [probe() for _ in range(PROBES)]
    print(json.dumps({"setup_s": raw * REF_PROBE_S / statistics.fmean(probes)}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

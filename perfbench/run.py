#!/usr/bin/env python3
"""Benchmark driver for boxprop: one workload, one seed, one JSON result line.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload hyper-mixed --seed 1 --seconds 55 --trace 0

``--workload all`` runs the three workloads one after another, each in its
own process, and exits with the worst of their exit codes.

Workloads (see BENCHMARK.json for why each was chosen, METRICS.md for what
each metric means and what it should move):

- ``grid5-saw``: every root of a 5x5 binary and a 5x5 ternary grid, walk tree
  of 5000 nodes (the paper's experiment); run by hand, not listed in
  BENCHMARK.json, because its 140 ms roots are too long to time steadily on a
  shared host (see METRICS.md);
- ``hyper-mixed``: every root of a seeded 80-variable graph with
  three-variable factors, both methods at 500 nodes;
- ``compare-cli``: ``boxprop compare --methods subtree --bp`` in-process on a
  8x8 grid written as a ``.fg`` file.

Load is a closed loop from one client: one process, one thread, one pass at
a time. Each pass runs on freshly built graphs (caches cold, as in a user's
single run) after a warm-up on a small unrelated graph. Timings are taken
here, around the calls, never read from boxprop's own results. With
``--trace 0`` passes repeat until ``--seconds`` is used up; each timed piece
of a pass (a root, an oracle, the remainder) is scaled to a reference host
speed by a fixed probe loop timed around it (see ``perfbench/calibrate.py``),
each figure is the median over the passes (see ``timing_metrics``), and
set-up is the median of fresh interpreters started between the passes. With
``--trace 1`` untraced and traced passes alternate, no probes run, and the
per-layer metrics come from the traced passes only.

Every box of every pass is checked outside the timed region: finite,
``0 <= lo <= hi <= 1``, ``sum(lo) <= 1 <= sum(hi)``, containing the exact
marginal from variable elimination, and bit-identical to the first pass.
The last stdout line is ``{"correct", "attempted", "failed", "metrics"}``;
the line before it holds informational fields (box sha256, gap medians,
the median raw pass length, versions). The exit code is 1 when any check
fails, 2 when the checkout has no boxprop sources. Run records and spans go
to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_RUNS = 11
SETUP_TIMEOUT_S = 120
# The box invariants use the tolerance of ``boxprop compare``'s own check;
# containment uses the slack of scripts/run_grid_benchmarks.py.
SUM_SLACK = 1e-12
CONTAIN_SLACK = 1e-9


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def time_setup(name: str, seed: int, workdir: Path) -> float:
    """Set-up seconds of one fresh interpreter."""
    child = Path(__file__).resolve().parent / "setup_child.py"
    proc = subprocess.run(
        [sys.executable, str(child), name, str(seed), str(workdir)],
        cwd=ROOT, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up child failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def check_bounds(bounds, refs, first) -> list[str]:
    """Problems with a pass's boxes; ``first`` holds the first pass's bytes."""
    problems = []
    for k, b in enumerate(bounds):
        tag, _, root = b.label.split("/")
        exact = refs[tag][int(root)]
        lo, hi = b.lower, b.upper
        ok = (
            lo.shape == hi.shape == exact.shape
            and bool(np.isfinite(lo).all() and np.isfinite(hi).all())
            and bool((lo >= 0.0).all() and (lo <= hi).all() and (hi <= 1.0).all())
            and lo.sum() <= 1.0 + SUM_SLACK
            and hi.sum() >= 1.0 - SUM_SLACK
            and bool((exact >= lo - CONTAIN_SLACK).all() and (exact <= hi + CONTAIN_SLACK).all())
        )
        if not ok:
            problems.append(f"{b.label}: box [{lo}, {hi}] fails its check (exact {exact})")
        elif first is not None and first[k] != (lo.tobytes(), hi.tobytes()):
            problems.append(f"{b.label}: box differs from the first pass")
    return problems


def box_digest(bounds) -> str:
    h = hashlib.sha256()
    for b in bounds:
        h.update(b.lower.tobytes())
        h.update(b.upper.tobytes())
    return h.hexdigest()


def info_fields() -> dict:
    sha = "unknown"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        if proc.returncode == 0:
            sha = proc.stdout.strip()
    src_lines = sum(len(p.read_text().splitlines()) for p in sorted((SRC / "boxprop").glob("*.py")))
    return {"git_sha": sha, "src_lines": src_lines, "nproc": os.cpu_count(),
            "python": platform.python_version(), "numpy": np.__version__}


def timing_metrics(pieces, timed_method: str, n_roots: int) -> dict[str, float]:
    """End-to-end times of the passes, in seconds at the reference speed.

    A pass is cut into pieces timed from outside: every root, the oracles on
    compare-cli, and the remainder. Each piece is scaled by the reference
    probes timed around it (see ``perfbench.calibrate``), the remainder by
    the pass's mean probe, so that the host's slow and fast stretches
    read alike; each figure is then the median over the run's passes. The
    raw times are kept in the run record.
    """
    if not pieces:  # every pass failed; the result line says so
        return dict.fromkeys(("wall_s", "roots_per_s", "root_ms_p50", "root_ms_p80"), 0.0)
    walls, root_totals = [], []
    for p in pieces:
        raw_rest = (p["wall"] - sum(sum(t) for t in p["root_s"].values())
                    - sum(p["phase_s"].values()) - p["probe_s"])
        root_total = sum(sum(t) for t in p["cal_root_s"].values())
        root_totals.append(root_total)
        walls.append(root_total + sum(p["cal_phase_s"].values()) + raw_rest * p["pass_scale"])
    ms = np.median([p["cal_root_s"][timed_method] for p in pieces], axis=0) * 1e3
    return {
        "wall_s": statistics.median(walls),
        "roots_per_s": n_roots / statistics.median(root_totals),
        "root_ms_p50": float(np.percentile(ms, 50)),
        "root_ms_p80": float(np.percentile(ms, 80)),
    }


def measure(workload, seconds, tracer, workdir, refs, set_up=None, clock=None):
    """Repeat passes until ``seconds`` is used up; return per-pass records.

    ``set_up``, when given, times one set-up in a fresh interpreter. It runs
    ``SETUP_RUNS`` times, spread evenly over the run between passes, so that
    the set-up samples see the same host conditions as the passes instead of
    one short stretch. Its time does not count against ``seconds``.

    ``clock``, when given, times the reference probe before every piece of
    an untraced pass (see ``perfbench.calibrate``).
    """
    rec = {"walls": [], "traced_walls": [], "pieces": [], "layers": [], "setups": [],
           "attempted": 0, "failed": 0, "problems": [], "first": None}
    setup_due = lambda elapsed: (set_up is not None and len(rec["setups"]) < SETUP_RUNS
                                 and len(rec["setups"]) * seconds / SETUP_RUNS <= elapsed)
    expected = workload.expected_bounds()

    def account(result):
        problems = list(result.problems)
        if len(result.bounds) != expected:
            problems.append(f"pass produced {len(result.bounds)} boxes, expected {expected}")
        bad = check_bounds(result.bounds, refs, rec["first"])
        if rec["first"] is None and not problems and not bad:
            rec["first"] = [(b.lower.tobytes(), b.upper.tobytes()) for b in result.bounds]
            rec["bounds"] = result.bounds
        n_bad = len(bad) + max(0, expected - len(result.bounds))
        if result.problems:
            n_bad = expected  # the run itself failed: count every box it owed
        rec["attempted"] += expected
        rec["failed"] += min(expected, n_bad)
        rec["problems"] += problems + bad

    begin = perf_counter()
    paused = 0.0
    while True:
        cycle_start = perf_counter()
        state = workload.prepare()
        gc.collect()
        t0 = perf_counter()
        result = workload.run(state, clock=clock)
        rec["walls"].append(perf_counter() - t0)
        result = workload.collect(state, result)
        if not result.problems:
            rec["pieces"].append({
                "wall": rec["walls"][-1], "root_s": result.root_s, "phase_s": result.phase_s,
                "cal_root_s": result.cal_root_s, "cal_phase_s": result.cal_phase_s,
                "probe_s": result.probe_s, "pass_scale": result.pass_scale,
            })
        account(result)
        if tracer is not None:
            with tracer.installed():
                workload.setup(workdir)
                state = workload.prepare()
                gc.collect()
                t0 = perf_counter()
                result = workload.run(state, tracer)
                rec["traced_walls"].append(perf_counter() - t0)
            rec["layers"].append(tracer.pass_metrics())
            account(workload.collect(state, result))
        now = perf_counter()
        cycle = now - cycle_start
        if setup_due(now - begin - paused):
            rec["setups"].append(set_up())
            paused += perf_counter() - now
        if perf_counter() - begin - paused + cycle > seconds:
            break
    while setup_due(float("inf")):
        rec["setups"].append(set_up())
    return rec


def run(args) -> int:
    if not (SRC / "boxprop" / "__init__.py").is_file():
        print(f"perfbench: no boxprop sources under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path[:0] = [str(SRC), str(ROOT)]
    import boxprop

    if Path(boxprop.__file__).resolve().parent != (SRC / "boxprop").resolve():
        print(f"perfbench: imported boxprop from {boxprop.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from perfbench.calibrate import Clock
    from perfbench.spans import Tracer
    from perfbench.workloads import WORKLOADS, make_workload

    if args.workload == "all":
        return max(
            subprocess.run([sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                            "--seconds", str(args.seconds), "--trace", str(args.trace)],
                           cwd=ROOT).returncode
            for name in WORKLOADS
        )
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; one of {WORKLOADS} or all",
              file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{os.getpid()}"
    (workdir / "setup").mkdir(parents=True)
    try:
        small = make_workload(args.workload, args.seed, workdir, small=True)
        small.setup(workdir)
        small.run(small.prepare())
        workload = make_workload(args.workload, args.seed, workdir)
        workload.setup(workdir)
        refs = workload.references()
        tracer = Tracer() if args.trace else None
        set_up = None if args.trace else (
            lambda: time_setup(args.workload, args.seed, workdir / "setup"))
        rec = measure(workload, args.seconds, tracer, workdir, refs, set_up,
                      None if args.trace else Clock())
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if args.trace:
        layers = {k: statistics.median(p[k] for p in rec["layers"]) for k in rec["layers"][0]}
        # Fastest traced pass against fastest untraced pass; no probes run here.
        overhead = min(rec["traced_walls"]) - min(rec["walls"])
        layers["trace.overhead_s"] = overhead
        layers["trace.overhead_frac"] = overhead / min(rec["walls"])
        values, wanted = layers, spec["per_layer"]
    else:
        values = timing_metrics(rec["pieces"], workload.methods[0][0], workload.expected_bounds())
        values["setup_s"] = statistics.median(rec["setups"])
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        wanted = spec["end_to_end"]
    if set(values) != {m["name"] for m in wanted}:
        raise RuntimeError(f"metrics {sorted(values)} do not match BENCHMARK.json")

    bounds = rec.get("bounds", [])
    gaps: dict[str, list[float]] = {}
    for b in bounds:
        gaps.setdefault(b.label.split("/")[1], []).append(float(np.max(b.upper - b.lower)))
    info = info_fields() | {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "passes": len(rec["walls"]), "traced_passes": len(rec["traced_walls"]),
        "box_sha256": box_digest(bounds) if bounds else None,
        "failed_frac": {"value": rec["failed"] / rec["attempted"], "unit": "fraction"},
        **{f"gap_median.{m}": {"value": statistics.median(g), "unit": "prob"}
           for m, g in sorted(gaps.items())},
        # The median raw pass length, next to the gated calibrated wall_s, and
        # the host's median slowdown against the reference speed.
        "wall_s_passes": {"value": statistics.median(rec["walls"]), "unit": "s"},
        "host_slowdown": {"value": statistics.median(1.0 / p["pass_scale"] for p in rec["pieces"])
                          if rec["pieces"] and not args.trace else None, "unit": "x"},
    }
    result = {
        "correct": rec["failed"] == 0,
        "attempted": rec["attempted"],
        "failed": rec["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"run-{stem}.json").write_text(json.dumps({
        "info": info, "result": result, "pieces": rec["pieces"], "walls": rec["walls"],
        "traced_walls": rec["traced_walls"], "setups": rec["setups"],
    }))
    if tracer is not None:
        tracer.save(OUT / f"spans-{stem}.npz")
    for problem in rec["problems"][:20]:
        print(f"perfbench: FAILED {problem}", file=sys.stderr)
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(run(parse_args(sys.argv[1:])))

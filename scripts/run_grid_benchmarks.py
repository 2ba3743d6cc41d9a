#!/usr/bin/env python3
"""Desk-scale grid benchmark: gap profiles for both bound methods.

For each interaction strength, generates one seeded grid instance (binary
spin glass and/or ternary pairwise), bounds every variable with the subtree
and walk-tree methods, checks the exact marginal lies inside every box, and
writes summary/profile CSVs plus per-variable detail records. Exits 1 if an
exact marginal lies outside a box.

Example:
    python scripts/run_grid_benchmarks.py --out-dir results --rows 5 --cols 5
"""

import argparse
import sys
from pathlib import Path
from statistics import median

import numpy as np

from boxprop.bench import (
    GridSpec,
    compare,
    detail_lines,
    gap_profiles,
    gen_ising_grid,
    gen_ternary_grid,
    median_gap,
    profiles_csv,
    summary_csv,
)
from boxprop.factorgraph import write_fg


def run_family(name, maker, domain, args, out_dir):
    rows = []
    for beta in args.betas:
        spec = GridSpec(args.rows, args.cols, domain, beta, args.seed)
        g = maker(spec)
        tag = f"{name}_{args.rows}x{args.cols}_beta{beta:g}_seed{args.seed}"
        (out_dir / f"{tag}.fg").write_text(write_fg(g))
        result = compare(g, {"subtree": args.max_nodes, "sawtree": args.max_nodes}, run_bp=args.bp)
        (out_dir / f"{tag}_summary.csv").write_text(summary_csv(result.gap_records))
        (out_dir / f"{tag}_details.jsonl").write_text(detail_lines(result.detail_records))
        (out_dir / f"{tag}_profiles.csv").write_text(
            profiles_csv(gap_profiles(result.gap_records))
        )

        contained = "n/a"
        if result.exact is not None:
            ok = all(
                np.all(result.exact[r.variable].values >= np.array(r.lower) - 1e-9)
                and np.all(result.exact[r.variable].values <= np.array(r.upper) + 1e-9)
                for r in result.detail_records
                if not r.note
            )
            contained = "yes" if ok else "NO"
        line = {
            "family": name,
            "beta": beta,
            "sawtree_median": median_gap(result.gap_records, "sawtree"),
            "subtree_median": median_gap(result.gap_records, "subtree"),
            "sawtree_ms": median(r.time_ms for r in result.gap_records if r.method == "sawtree"),
            "subtree_ms": median(r.time_ms for r in result.gap_records if r.method == "subtree"),
            "exact_in_boxes": contained,
        }
        if args.bp and result.bp is not None:
            line["bp_converged"] = result.bp.converged
        rows.append(line)
        print(
            f"{name} beta={beta:<6g} median gap: sawtree {line['sawtree_median']:.4f} "
            f"subtree {line['subtree_median']:.4f}  exact in boxes: {contained}"
        )
    return rows


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out-dir", type=Path, default=Path("bench_results"))
    parser.add_argument("--rows", type=int, default=5)
    parser.add_argument("--cols", type=int, default=5)
    parser.add_argument("--betas", type=float, nargs="+", default=[0.01, 0.1, 1.0, 10.0])
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--max-nodes", type=int, default=5000)
    parser.add_argument("--family", choices=["binary", "ternary", "both"], default="both")
    parser.add_argument("--bp", action="store_true", help="also run loopy BP")
    args = parser.parse_args(argv)

    args.out_dir.mkdir(parents=True, exist_ok=True)
    rows = []
    if args.family in ("binary", "both"):
        rows += run_family("binary", gen_ising_grid, 2, args, args.out_dir)
    if args.family in ("ternary", "both"):
        rows += run_family("ternary", gen_ternary_grid, 3, args, args.out_dir)
    print(f"wrote reports to {args.out_dir}/")
    missed = [f"{r['family']} beta={r['beta']:g}" for r in rows if r["exact_in_boxes"] == "NO"]
    if missed:
        print(f"error: exact marginal outside a box: {', '.join(missed)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

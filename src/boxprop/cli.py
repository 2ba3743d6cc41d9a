"""Command-line front end: generate, validate, bound, bp, exact, compare.

Exit codes: 0 on success, 1 on usage errors, 2 on computation errors
(validation failures, capacity limits, zero measures, running out of memory).
Every run echoes its effective configuration to stderr so results are
reproducible from the log. Output files are written atomically (write to a
temp file, then rename).
"""

from __future__ import annotations

import json
import math
import os
import sys
from pathlib import Path
from time import perf_counter

import click

from .bench import (
    METHODS,
    DetailRecord,
    GridSpec,
    compare,
    detail_lines,
    gap_profiles,
    gen_ising_grid,
    gen_ternary_grid,
    profiles_csv,
    run_method,
    summary_csv,
)
from .errors import CapacityExceededError, FgFormatError, ZeroMeasureError
from .factorgraph import parse_fg, validate, write_fg
from .propagation import BP_DAMPING, BP_MAX_ITER, BP_TOL, bp_marginals, exact_marginals

DEFAULT_MAX_NODES = 5000
NODE_BUDGET = click.IntRange(min=1)


def _banner(command: str, **params) -> None:
    pairs = " ".join(f"{k}={v}" for k, v in sorted(params.items()))
    click.echo(f"# boxprop {command} {pairs}", err=True)


def _atomic_write(path: str, text: str) -> None:
    target = Path(path)
    tmp = target.with_name(target.name + ".tmp")
    tmp.write_text(text)
    os.replace(tmp, target)


def _load_graph(path: str):
    return parse_fg(Path(path).read_text())


def _emit(text: str, out: str | None) -> None:
    if out:
        _atomic_write(out, text)
    else:
        click.echo(text, nl=False)


@click.group(name="boxprop")
def cli():
    """Rigorous per-variable bounds on factor-graph marginals."""


def _positive_finite(ctx, param, value: float) -> float:
    if not 0.0 < value < math.inf:
        raise click.BadParameter(f"want a positive finite number, got {value!r}")
    return value


@cli.group()
def gen():
    """Generate benchmark factor graphs."""


@gen.command("grid")
@click.option("--rows", type=click.IntRange(min=1), required=True)
@click.option("--cols", type=click.IntRange(min=1), required=True)
@click.option("--domain", type=click.Choice(["2", "3"]), default="2", show_default=True)
@click.option("--beta", type=float, default=1.0, show_default=True, callback=_positive_finite)
@click.option("--seed", type=click.IntRange(min=0), default=0, show_default=True)
@click.option("--out", "out_path", type=click.Path(), required=True)
def gen_grid(rows, cols, domain, beta, seed, out_path):
    """Seeded random grid (binary spin glass or ternary pairwise)."""
    _banner("gen grid", rows=rows, cols=cols, domain=domain, beta=beta, seed=seed, out=out_path)
    spec = GridSpec(rows, cols, int(domain), beta, seed)
    g = gen_ising_grid(spec) if spec.domain_size == 2 else gen_ternary_grid(spec)
    _atomic_write(out_path, write_fg(g))
    click.echo(
        f"wrote {g.num_variables} variables, {g.num_factors} factors to {out_path}",
        err=True,
    )
    return 0


@cli.command("validate")
@click.option("--in", "in_path", type=click.Path(exists=True), required=True)
def validate_cmd(in_path):
    """Check connectedness, finite tables and positivity; exit 2 on violations."""
    _banner("validate", **{"in": in_path})
    g = _load_graph(in_path)
    violations = validate(g)
    if not violations:
        click.echo("ok")
        return 0
    for v in violations:
        click.echo(v.message)
    return 2


def _validated_graph(in_path):
    g = _load_graph(in_path)
    violations = validate(g)
    if violations:
        for v in violations:
            click.echo(v.message, err=True)
        raise ValueError(f"graph fails validation with {len(violations)} violation(s)")
    return g


@cli.command("bound")
@click.option("--method", type=click.Choice(METHODS), required=True)
@click.option("--in", "in_path", type=click.Path(exists=True), required=True)
@click.option("--root", type=click.IntRange(min=0), default=None, help="Single root variable; default all.")
@click.option("--max-nodes", type=NODE_BUDGET, default=DEFAULT_MAX_NODES, show_default=True)
@click.option("--out", "out_path", type=click.Path(), default=None)
def bound_cmd(method, in_path, root, max_nodes, out_path):
    """Per-variable bound boxes as JSON lines (time_ms: tree build plus propagation)."""
    _banner(
        "bound", method=method, max_nodes=max_nodes, root="all" if root is None else root,
        **{"in": in_path, "out": out_path},
    )
    g = _validated_graph(in_path)
    roots = range(g.num_variables) if root is None else [root]
    records = []
    for v in roots:
        t0 = perf_counter()
        res = run_method(g, method, v, max_nodes)
        records.append(DetailRecord.of(res, (perf_counter() - t0) * 1e3))
    _check_records(records)
    _emit(detail_lines(records), out_path)
    return 0


def _damping(ctx, param, value: float) -> float:
    if not 0.0 <= value < 1.0:
        raise click.BadParameter(f"want a number in [0, 1), got {value!r}")
    return value


@cli.command("bp")
@click.option("--in", "in_path", type=click.Path(exists=True), required=True)
@click.option("--tol", type=float, default=BP_TOL, show_default=True, callback=_positive_finite)
@click.option("--max-iter", type=click.IntRange(min=1), default=BP_MAX_ITER, show_default=True)
@click.option("--damping", type=float, default=BP_DAMPING, show_default=True, callback=_damping)
@click.option("--out", "out_path", type=click.Path(), default=None)
def bp_cmd(in_path, tol, max_iter, damping, out_path):
    """Loopy belief propagation beliefs as JSON lines."""
    _banner("bp", tol=tol, max_iter=max_iter, damping=damping, **{"in": in_path, "out": out_path})
    g = _validated_graph(in_path)
    res = bp_marginals(g, tol=tol, max_iter=max_iter, damping=damping)
    lines = [
        json.dumps(
            {"converged": res.converged, "iterations": res.iterations, "residual": res.residual}
        )
    ]
    for i, belief in enumerate(res.beliefs):
        lines.append(json.dumps({"variable": i, "belief": [float(x) for x in belief.values]}))
    _emit("\n".join(lines) + "\n", out_path)
    return 0


@cli.command("exact")
@click.option("--in", "in_path", type=click.Path(exists=True), required=True)
@click.option("--engine", type=click.Choice(["brute", "varelim"]), default="brute", show_default=True)
@click.option("--out", "out_path", type=click.Path(), default=None)
def exact_cmd(in_path, engine, out_path):
    """Exact marginals as JSON lines (may exit 2 on capacity limits)."""
    _banner("exact", engine=engine, **{"in": in_path, "out": out_path})
    g = _validated_graph(in_path)
    marginals = exact_marginals(g, engine=engine)
    lines = [
        json.dumps({"variable": i, "marginal": [float(x) for x in m.values]})
        for i, m in enumerate(marginals)
    ]
    _emit("\n".join(lines) + "\n", out_path)
    return 0


def _method_list(ctx, param, value: str) -> list[str]:
    """Split ``--methods``; an unknown, empty or repeated entry is a usage error."""
    names = value.split(",")
    if not set(names) <= set(METHODS) or len(set(names)) < len(names):
        raise click.BadParameter(f"want distinct names from {', '.join(METHODS)}, got {value!r}")
    return names


@cli.command("compare")
@click.option("--in", "in_path", type=click.Path(exists=True), required=True)
@click.option("--methods", default="subtree,sawtree", show_default=True, callback=_method_list)
@click.option("--max-nodes", type=NODE_BUDGET, default=DEFAULT_MAX_NODES, show_default=True)
@click.option("--bp/--no-bp", "run_bp", default=False, show_default=True)
@click.option("--summary-out", type=click.Path(), default=None)
@click.option("--details-out", type=click.Path(), default=None)
@click.option("--profiles-out", type=click.Path(), default=None)
def compare_cmd(in_path, methods, max_nodes, run_bp, summary_out, details_out, profiles_out):
    """Gap/time comparison of bound methods over every variable."""
    _banner(
        "compare", methods=",".join(methods), max_nodes=max_nodes, bp=run_bp,
        **{"in": in_path, "summary_out": summary_out, "details_out": details_out,
           "profiles_out": profiles_out},
    )
    g = _validated_graph(in_path)
    # Only the BP error rows read the exact marginals.
    result = compare(g, dict.fromkeys(methods, max_nodes), run_bp=run_bp, exact=run_bp)
    _check_records(result.detail_records)
    failed = [f"{what}: {error}" for what, error in
              (("BP", result.bp_error), ("exact marginals", result.exact_error)) if error]
    if failed:
        # The run still succeeds; only the bp rows, which need both, are missing.
        click.echo(f"warning: skipped the bp rows: {'; '.join(failed)}", err=True)
    elif run_bp and not result.bp.converged:
        bp = result.bp
        click.echo(f"warning: BP did not converge in {bp.iterations} sweeps (residual "
                   f"{bp.residual!r}); the bp rows are its last sweep's error", err=True)
    _emit(summary_csv(result.gap_records), summary_out)
    if details_out:
        _atomic_write(details_out, detail_lines(result.detail_records))
    if profiles_out:
        _atomic_write(profiles_out, profiles_csv(gap_profiles(result.gap_records)))
    return 0


def _check_records(details) -> None:
    for r in details:
        if r.note:
            continue
        lower, upper = r.lower, r.upper
        ok = (
            all(0.0 <= lo <= hi <= 1.0 for lo, hi in zip(lower, upper))
            and sum(lower) <= 1.0 + 1e-12
            and sum(upper) >= 1.0 - 1e-12
        )
        if not ok:
            raise ValueError(
                f"record for variable {r.variable} method {r.method} violates box invariants"
            )


def main(argv: list[str] | None = None) -> int:
    """Entry point with the documented exit-code contract."""
    try:
        rv = cli.main(args=argv, standalone_mode=False)
    except click.ClickException as exc:
        exc.show()
        return 1
    except click.exceptions.Abort:
        return 1
    except (FgFormatError, ZeroMeasureError, CapacityExceededError, OSError, ValueError,
            MemoryError) as exc:
        click.echo(f"error: {str(exc) or type(exc).__name__}", err=True)
        return 2
    return int(rv) if isinstance(rv, int) else 0


if __name__ == "__main__":
    sys.exit(main())

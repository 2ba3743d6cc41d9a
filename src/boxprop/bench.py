"""Experiment generators, the gap metric, method comparison, and reports.

Grids use the spin encoding state 0 -> -1, state 1 -> +1. Randomness comes
from numpy's seeded ``default_rng`` (PCG64); for a fixed seed the parameters
are drawn once at unit interaction strength and then scaled by ``beta``, so
gap-versus-beta curves for one seed share a single disorder realization.
Determinism is promised within this implementation only, not across others.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from .errors import CapacityExceededError, ZeroMeasureError
from .factorgraph import TABLE_CAP, Factor, FactorGraph
from .measure import Box
from .propagation import (
    BoundResult,
    BpResult,
    bp_marginals,
    boxprop_sawtree,
    boxprop_subtree,
    build_saw_tree,
    build_subtree,
    exact_marginals,
)

__all__ = [
    "GridSpec",
    "GapRecord",
    "DetailRecord",
    "CompareResult",
    "gen_ising_grid",
    "gen_ternary_grid",
    "grid_edges",
    "gap",
    "run_method",
    "compare",
    "summary_csv",
    "detail_lines",
    "gap_profiles",
    "profiles_csv",
    "median_gap",
    "METHODS",
]

METHODS = ("subtree", "sawtree")


@dataclass(frozen=True)
class GridSpec:
    """Size, domain, interaction strength, and seed of a random grid instance."""

    rows: int
    cols: int
    domain_size: int
    beta: float
    seed: int

    def __post_init__(self):
        if self.rows < 1 or self.cols < 1:
            raise ValueError("grid dimensions must be >= 1")
        if self.domain_size not in (2, 3):
            raise ValueError("domain_size must be 2 or 3")
        if self.domain_size == 3 and self.rows * self.cols == 1:
            raise ValueError("a 1x1 ternary grid has no edges, so no factors")
        if not self.beta > 0.0:
            raise ValueError("beta must be positive")
        # Refused before anything is allocated: no .fg file can hold such tables.
        rows, cols, d = self.rows, self.cols, self.domain_size
        edges = 2 * rows * cols - rows - cols
        entries = 9 * edges if d == 3 else 2 * rows * cols + 4 * edges
        if entries > TABLE_CAP:
            raise ValueError(f"a {rows}x{cols} grid of domain {d} has {entries} table entries, "
                             f"above the .fg cap {TABLE_CAP}")


def grid_edges(rows: int, cols: int) -> list[tuple[int, int]]:
    """Nearest-neighbor edges of a rows-by-cols grid, row-major node ids."""
    edges = []
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c
            if c + 1 < cols:
                edges.append((v, v + 1))
            if r + 1 < rows:
                edges.append((v, v + cols))
    return edges


def gen_ising_grid(spec: GridSpec) -> FactorGraph:
    """Spin-glass grid with binary +-1 spins.

    One unary factor ``exp(theta_i * s_i)`` per variable and one pairwise
    factor ``exp(J_ij * s_i * s_j)`` per grid edge, with ``theta`` and ``J``
    drawn i.i.d. standard normal at unit strength and scaled by ``beta``.
    Raises ``ValueError`` when ``beta`` is so large that a table overflows.
    """
    if spec.domain_size != 2:
        raise ValueError("gen_ising_grid needs domain_size == 2")
    n = spec.rows * spec.cols
    edges = grid_edges(spec.rows, spec.cols)
    rng = np.random.default_rng(spec.seed)
    theta = rng.normal(size=n) * spec.beta
    coupling = rng.normal(size=len(edges)) * spec.beta
    factors = []
    with np.errstate(over="ignore"):
        for i in range(n):
            factors.append(_grid_factor(spec, i, (i,), (2,), np.exp([-theta[i], theta[i]])))
        for k, (a, b) in enumerate(edges):
            j = coupling[k]
            # Little-endian over scope (a, b): s_a*s_b is +1 at indices 0 and 3.
            table = np.exp([j, -j, -j, j])
            factors.append(_grid_factor(spec, n + k, (a, b), (2, 2), table))
    return FactorGraph(factors)


def gen_ternary_grid(spec: GridSpec) -> FactorGraph:
    """Grid of ternary variables with random pairwise tables, no unary factors.

    Each of the nine entries of every edge table is the exponential of an
    independent normal draw with standard deviation ``beta`` (drawn at unit
    strength, scaled by ``beta`` in log space). Raises ``ValueError`` when
    ``beta`` is so large that a table overflows.
    """
    if spec.domain_size != 3:
        raise ValueError("gen_ternary_grid needs domain_size == 3")
    edges = grid_edges(spec.rows, spec.cols)
    rng = np.random.default_rng(spec.seed)
    logs = rng.normal(size=(len(edges), 9)) * spec.beta
    with np.errstate(over="ignore"):
        factors = [
            _grid_factor(spec, k, (a, b), (3, 3), np.exp(logs[k]))
            for k, (a, b) in enumerate(edges)
        ]
    return FactorGraph(factors)


def _grid_factor(spec: GridSpec, fid: int, scope, sizes, table: np.ndarray) -> Factor:
    """The generated factor; ``ValueError`` naming ``beta`` if ``exp`` overflowed its table."""
    try:
        return Factor(fid, scope, sizes, table)
    except ValueError:  # an entry is inf, the one defect exp can make here
        raise ValueError(
            f"beta={spec.beta} overflows exp in factor {fid} of the "
            f"{spec.rows}x{spec.cols} grid (seed {spec.seed}); use a smaller beta"
        ) from None


def gap(b: Box) -> float:
    """Bound tightness: the largest per-state width ``upper - lower``."""
    return float(np.max(b.upper.values - b.lower.values))


@dataclass(frozen=True)
class GapRecord:
    variable: int
    method: str
    gap: float
    time_ms: float


@dataclass(frozen=True)
class DetailRecord:
    variable: int
    method: str
    lower: tuple[float, ...]
    upper: tuple[float, ...]
    nodes_used: int
    time_ms: float
    note: str = ""

    @classmethod
    def of(cls, res: BoundResult, time_ms: float) -> DetailRecord:
        """The record of one bound, its box bounds as Python floats."""
        return cls(
            res.variable,
            res.method,
            tuple(float(x) for x in res.box.lower.values),
            tuple(float(x) for x in res.box.upper.values),
            res.nodes_used,
            time_ms,
        )


@dataclass(eq=False)
class CompareResult:
    gap_records: list[GapRecord] = field(default_factory=list)
    detail_records: list[DetailRecord] = field(default_factory=list)
    exact: list | None = None
    bp: BpResult | None = None
    exact_error: str = ""
    bp_error: str = ""


def run_method(g: FactorGraph, method: str, root: int, max_nodes: int) -> BoundResult:
    """Build the method's tree for one root and propagate, in one call."""
    if method == "subtree":
        return boxprop_subtree(g, build_subtree(g, root, max_nodes))
    if method == "sawtree":
        return boxprop_sawtree(g, build_saw_tree(g, root, max_nodes))
    raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")


def compare(
    g: FactorGraph, budgets: dict[str, int], *, run_bp: bool = False, exact: bool = True
) -> CompareResult:
    """Run each method of ``budgets`` at its budget for every variable.

    Methods run in ``budgets``' order. Per-variable failures (capacity or
    zero-measure) become notes on detail records instead of aborting the run.
    With ``exact``, variable elimination gives the result's exact marginals,
    and if BP is requested its per-variable error ``max_x |belief - exact|``
    is reported as extra gap records under the method label ``bp``. When
    elimination exceeds its cap, the result's ``exact`` is ``None``, its
    ``exact_error`` holds the cap error's message and no ``bp`` rows are
    made; when BP fails (it leaves the floating-point range, or the messages
    into a variable multiply to zero), its ``bp`` is ``None`` and its
    ``bp_error`` holds the message, with no ``bp`` rows either. Records are
    merged deterministically by (method, variable).
    """
    out = CompareResult()
    for method, budget in budgets.items():
        for v in range(g.num_variables):
            t0 = perf_counter()
            try:
                res = run_method(g, method, v, budget)
            except (CapacityExceededError, ZeroMeasureError) as exc:
                ms = (perf_counter() - t0) * 1e3
                out.detail_records.append(
                    DetailRecord(v, method, (), (), 0, ms, note=type(exc).__name__)
                )
                continue
            ms = (perf_counter() - t0) * 1e3
            out.detail_records.append(DetailRecord.of(res, ms))
            out.gap_records.append(GapRecord(v, method, gap(res.box), ms))
    if exact:
        try:
            out.exact = exact_marginals(g, engine="varelim")
        except CapacityExceededError as exc:
            out.exact = None
            out.exact_error = str(exc)
    if run_bp:
        t0 = perf_counter()
        try:
            out.bp = bp_marginals(g)
        except (CapacityExceededError, ZeroMeasureError) as exc:
            out.bp_error = str(exc)
        bp_ms = (perf_counter() - t0) * 1e3
        if out.exact is not None and out.bp is not None:
            for v in range(g.num_variables):
                err = float(
                    np.abs(out.bp.beliefs[v].values - out.exact[v].values).max()
                )
                out.gap_records.append(GapRecord(v, "bp", err, bp_ms))
    key = lambda r: (r.method, r.variable)
    out.gap_records.sort(key=key)
    out.detail_records.sort(key=key)
    return out


def summary_csv(records: list[GapRecord]) -> str:
    """Summary CSV: ``variable,method,gap,time_ms``, sorted by method, variable."""
    lines = ["variable,method,gap,time_ms"]
    for r in sorted(records, key=lambda r: (r.method, r.variable)):
        lines.append(f"{r.variable},{r.method},{float(r.gap)!r},{r.time_ms:.3f}")
    return "\n".join(lines) + "\n"


def detail_lines(records: list[DetailRecord]) -> str:
    """Detail records as JSON lines, one self-describing object per record."""
    lines = []
    for r in records:
        obj = {
            "variable": r.variable,
            "method": r.method,
            "lower": list(r.lower),
            "upper": list(r.upper),
            "nodes_used": r.nodes_used,
            "time_ms": round(r.time_ms, 3),
        }
        if r.note:
            obj["note"] = r.note
        lines.append(json.dumps(obj))
    return "\n".join(lines) + "\n"


def gap_profiles(records: list[GapRecord]) -> dict[str, list[float]]:
    """Per-method gap lists sorted ascending, ready for profile plots."""
    out: dict[str, list[float]] = {}
    for r in records:
        out.setdefault(r.method, []).append(r.gap)
    for gaps in out.values():
        gaps.sort()
    return out


def profiles_csv(profiles: dict[str, list[float]]) -> str:
    lines = ["method,rank,gap"]
    for method in sorted(profiles):
        for rank, value in enumerate(profiles[method]):
            lines.append(f"{method},{rank},{float(value)!r}")
    return "\n".join(lines) + "\n"


def median_gap(records: list[GapRecord], method: str) -> float:
    gaps = [r.gap for r in records if r.method == method]
    if not gaps:
        raise ValueError(f"no gap records for method {method!r}")
    gaps.sort()
    mid = len(gaps) // 2
    return float(gaps[mid] if len(gaps) % 2 else (gaps[mid - 1] + gaps[mid]) / 2)

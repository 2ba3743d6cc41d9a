"""The benchmark's workloads: seeded inputs, set-up, and one timed pass each.

Every workload calls ``boxprop`` only through its public functions, looked up
as module attributes at call time (``propagation.build_saw_tree(...)``), so
the tracer in :mod:`perfbench.spans` can wrap them for a traced pass. A pass
always runs on freshly built graph objects: the factor-matrix cache in
``boxprop.measure`` is keyed on ``Factor`` objects, so reusing a graph would
make later passes warmer than a user's single run.

A pass is split in three so that only the middle part is timed:
``prepare`` (fresh inputs), ``run`` (the work a user waits for) and
``collect`` (boxes read back for checking). Inside ``run`` the benchmark also
times the pieces of the pass from outside: every root, and on
``compare-cli`` the BP and exact oracles. Given a :class:`Clock`, ``run``
times the reference probe right before each piece and once more at the end,
and ``finish_pass`` turns each piece's time into seconds at the reference
speed (see :mod:`perfbench.calibrate`).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

from boxprop import bench, cli, factorgraph, propagation
from boxprop.bench import GridSpec
from boxprop.errors import CapacityExceededError, ZeroMeasureError
from boxprop.factorgraph import Factor, FactorGraph
from perfbench.calibrate import Clock

# Paper experiment: 5x5 grids at interaction strength 1, walk trees of 5000 nodes.
GRID_SIDE = 5
GRID_BETA = 1.0
GRID_NODES = 5000
# Mixed-arity graph, built so that variable elimination stays far below its
# cap on every seed (see ``hyper_mixed_graph``).
HYPER_VARS = 80
HYPER_TRIPLES = 24
HYPER_WINDOW = 6
HYPER_NODES = 500
# CLI run: a grid small enough that a pass takes about a second, at a weak
# coupling so that BP's sweep count varies little from seed to seed.
CLI_SIDE = 8
CLI_BETA = 0.2


@dataclass
class Bound:
    """One box a pass produced, with the exact marginal it must contain."""

    label: str
    lower: np.ndarray
    upper: np.ndarray


@dataclass
class PassResult:
    bounds: list[Bound] = field(default_factory=list)
    # Build+propagate seconds of every root, per method, in root order.
    root_s: dict[str, list[float]] = field(default_factory=dict)
    # Seconds of the other timed pieces of the pass (the oracles on compare-cli).
    phase_s: dict[str, float] = field(default_factory=dict)
    # The same pieces calibrated to the reference speed (given a clock).
    cal_root_s: dict[str, list[float]] = field(default_factory=dict)
    cal_phase_s: dict[str, float] = field(default_factory=dict)
    # Seconds spent in probes, and the pass's mean scale, for the rest of the pass.
    probe_s: float = 0.0
    pass_scale: float = 1.0
    problems: list[str] = field(default_factory=list)


def timed(fn, sink: list, before=None, clock: Clock | None = None):
    """``fn`` wrapped to append (seconds, probe index) of each call to ``sink``.

    With a clock, a probe runs right before each call; without one the
    probe index is None.
    """

    def call(*args, **kwargs):
        if before is not None:
            before()
        at = clock.tick() if clock is not None else None
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            sink.append((perf_counter() - t0, at))

    return call


def finish_pass(out: PassResult, clock: Clock | None, roots: dict, phases: dict) -> None:
    """Fill ``out``'s raw and calibrated times from (seconds, probe index) lists.

    ``roots`` maps a method to its roots' pieces in order, ``phases`` a phase
    name to its calls. With a clock, one last probe closes the pass, so that
    the pieces at its end have probes after them too.
    """
    if clock is not None:
        clock.tick()
        out.probe_s = clock.pass_probe_s()
        out.pass_scale = clock.pass_scale()

    def cal(pieces):
        return [t * (clock.scale_at(at) if clock is not None else 1.0) for t, at in pieces]

    out.root_s = {m: [t for t, _ in pieces] for m, pieces in roots.items()}
    out.cal_root_s = {m: cal(pieces) for m, pieces in roots.items()}
    out.phase_s = {name: sum(t for t, _ in calls) for name, calls in phases.items()}
    out.cal_phase_s = {name: sum(cal(calls)) for name, calls in phases.items()}


def failed_bound(label: str, domain_size: int) -> Bound:
    """Stand-in for a root that raised: NaN bounds, which fail every check."""
    nan = np.full(domain_size, np.nan)
    return Bound(label, nan, nan)


def grid_graphs(seed: int, side: int = GRID_SIDE):
    """The paper's two grid families for one seed: binary spin glass, ternary."""
    return [
        ("binary", bench.gen_ising_grid(GridSpec(side, side, 2, GRID_BETA, seed))),
        ("ternary", bench.gen_ternary_grid(GridSpec(side, side, 3, GRID_BETA, seed))),
    ]


def hyper_mixed_graph(
    seed: int, n_vars: int = HYPER_VARS, n_triples: int = HYPER_TRIPLES
) -> FactorGraph:
    """Seeded connected graph with domains 2 or 3 and three-variable factors.

    Variables are laid out on a chain, binary and ternary alternating. A
    pairwise spanning tree links each variable to one of the ``HYPER_WINDOW``
    variables before it. Three-variable factors sit at evenly spaced points
    along the chain; each takes the variable there, the next one, and one of
    the two after that with the next one's domain, so every such factor has one
    variable of one domain and two of the other. Fixing the domain pattern
    keeps the corner counts, and so the cost of a pass, close across seeds;
    the tree, the third variable of each factor and all tables are random.
    Every factor spans at most ``HYPER_WINDOW + 1`` consecutive chain
    positions, so the graph's treewidth is at most ``HYPER_WINDOW`` and
    variable elimination, which gives the exact marginals the boxes are checked
    against, stays far below its 2**20-entry cap on every seed. Variables are
    then relabelled by a random permutation, so ids carry no structure. Tables
    are uniform in [0.1, 2], which makes every graph pass validation.
    """
    rng = np.random.default_rng(seed)
    sizes = [2 + v % 2 for v in range(n_vars)]
    scopes: list[tuple[int, ...]] = []
    for v in range(1, n_vars):
        scopes.append((v - 1 - int(rng.integers(0, min(v, HYPER_WINDOW))), v))
    for t in range(n_triples):
        start = (t * (n_vars - HYPER_WINDOW)) // max(n_triples - 1, 1)
        scopes.append((start, start + 1, start + 3 + 2 * int(rng.integers(0, 2))))
    label = [int(x) for x in rng.permutation(n_vars)]
    by_label = [0] * n_vars
    for v, new in enumerate(label):
        by_label[new] = sizes[v]
    factors = []
    for fid, scope in enumerate(scopes):
        scope = tuple(label[v] for v in scope)
        dims = tuple(by_label[v] for v in scope)
        factors.append(Factor(fid, scope, dims, rng.uniform(0.1, 2.0, int(np.prod(dims)))))
    return FactorGraph(factors)


def exact_for(g: FactorGraph) -> list[np.ndarray]:
    return [m.values for m in propagation.exact_marginals(g, engine="varelim")]


def validated(g: FactorGraph) -> FactorGraph:
    violations = factorgraph.validate(g)
    if violations:
        raise ValueError(f"generated graph fails validation: {violations[0].message}")
    return g


class BoundRoots:
    """Bound every root of seeded graphs by calling the tree methods directly.

    ``methods`` lists (method, budget) pairs run over all roots of every
    graph; the first method's roots give the per-root percentiles.
    """

    def __init__(self, name, make_graphs, methods, seed):
        self.name = name
        self._make_graphs = make_graphs
        self.methods = methods
        self.seed = seed

    def graphs(self):
        return self._make_graphs(self.seed)

    def setup(self, workdir: Path) -> None:
        for _, g in self.graphs():
            validated(g)

    def references(self) -> dict[str, list[np.ndarray]]:
        return {tag: exact_for(g) for tag, g in self.graphs()}

    def prepare(self):
        return self.graphs()

    def run(self, graphs, tracer=None, clock: Clock | None = None) -> PassResult:
        out = PassResult()
        if clock is not None:
            clock.start_pass()
        roots: dict[str, list] = {}
        for tag, g in graphs:
            for method, budget in self.methods:
                pieces = roots.setdefault(method, [])
                for r in range(g.num_variables):
                    if tracer is not None:
                        tracer.begin_root()
                    at = clock.tick() if clock is not None else None
                    t0 = perf_counter()
                    try:
                        if method == "sawtree":
                            res = propagation.boxprop_sawtree(
                                g, propagation.build_saw_tree(g, r, budget)
                            )
                        else:
                            res = propagation.boxprop_subtree(
                                g, propagation.build_subtree(g, r, budget)
                            )
                        bound = Bound(f"{tag}/{method}/{r}", res.box.lower.values, res.box.upper.values)
                    except (CapacityExceededError, ZeroMeasureError):
                        bound = failed_bound(f"{tag}/{method}/{r}", g.domain_size(r))
                    pieces.append((perf_counter() - t0, at))
                    out.bounds.append(bound)
        finish_pass(out, clock, roots, {})
        return out

    def collect(self, graphs, result: PassResult) -> PassResult:
        return result

    def expected_bounds(self) -> int:
        return sum(g.num_variables for _, g in self.graphs()) * len(self.methods)


class CompareCli:
    """``boxprop compare`` in-process on a seeded grid written as a ``.fg`` file."""

    name = "compare-cli"

    def __init__(self, seed, side=CLI_SIDE, workdir: Path | None = None):
        self.seed = seed
        self.side = side
        self.workdir = workdir
        self.methods = [("subtree", None)]

    def _paths(self, workdir: Path):
        return {k: workdir / f"{self.name}-{self.side}-{k}" for k in
                ("graph.fg", "summary.csv", "details.jsonl", "profiles.csv")}

    def grid(self) -> FactorGraph:
        return bench.gen_ising_grid(GridSpec(self.side, self.side, 2, CLI_BETA, self.seed))

    def setup(self, workdir: Path) -> None:
        """Generate the grid, write it as ``.fg``, parse it back and validate."""
        path = self._paths(workdir)["graph.fg"]
        path.write_text(factorgraph.write_fg(self.grid()))
        validated(factorgraph.parse_fg(path.read_text()))

    def references(self) -> dict[str, list[np.ndarray]]:
        return {"grid": exact_for(self.grid())}

    def prepare(self):
        paths = self._paths(self.workdir)
        for key in ("summary.csv", "details.jsonl", "profiles.csv"):
            paths[key].unlink(missing_ok=True)
        return paths

    def run(self, paths, tracer=None, clock: Clock | None = None) -> PassResult:
        """Run the CLI, timing each root (``bench.run_method``) and each oracle."""
        out = PassResult()
        if clock is not None:
            clock.start_pass()
        roots, bp, exact = [], [], []
        saved = {name: getattr(bench, name)
                 for name in ("run_method", "bp_marginals", "exact_marginals")}
        bench.run_method = timed(saved["run_method"], roots,
                                 tracer.begin_root if tracer is not None else None, clock)
        bench.bp_marginals = timed(saved["bp_marginals"], bp, clock=clock)
        bench.exact_marginals = timed(saved["exact_marginals"], exact, clock=clock)
        try:
            code = cli.main([
                "compare", "--in", str(paths["graph.fg"]), "--methods", "subtree", "--bp",
                "--summary-out", str(paths["summary.csv"]),
                "--details-out", str(paths["details.jsonl"]),
                "--profiles-out", str(paths["profiles.csv"]),
            ])
        finally:
            for name, fn in saved.items():
                setattr(bench, name, fn)
        finish_pass(out, clock, {"subtree": roots}, {"bp": bp, "exact": exact})
        if code != 0:
            out.problems.append(f"boxprop compare exited with code {code}")
        return out

    def collect(self, paths, result: PassResult) -> PassResult:
        """Read the boxes back from the details file and check the other outputs."""
        if result.problems:
            return result
        n = self.side * self.side
        records = [json.loads(line) for line in paths["details.jsonl"].read_text().splitlines()]
        if [(r["method"], r["variable"]) for r in records] != [("subtree", v) for v in range(n)]:
            result.problems.append("details do not hold one subtree record per variable, in order")
        for rec in records:
            label = f"grid/{rec['method']}/{rec['variable']}"
            if rec.get("note"):
                result.bounds.append(failed_bound(label, 2))
                continue
            result.bounds.append(Bound(
                label,
                np.array(rec["lower"], dtype=np.float64),
                np.array(rec["upper"], dtype=np.float64),
            ))
        summary = paths["summary.csv"].read_text().splitlines()
        # Header, one subtree row per variable, one BP error row per variable.
        if len(summary) != 1 + 2 * n or summary[0] != "variable,method,gap,time_ms":
            result.problems.append(f"summary has {len(summary)} lines, expected {1 + 2 * n}")
        profiles = paths["profiles.csv"].read_text().splitlines()
        if len(profiles) != 1 + 2 * n:
            result.problems.append(f"profiles has {len(profiles)} lines, expected {1 + 2 * n}")
        return result

    def expected_bounds(self) -> int:
        return self.side * self.side


def make_workload(name: str, seed: int, workdir: Path, small: bool = False):
    """The named workload, or with ``small`` a tiny unrelated one for warm-up."""
    if name == "grid5-saw":
        side, nodes = (3, 200) if small else (GRID_SIDE, GRID_NODES)
        return BoundRoots(
            name, lambda s: grid_graphs(s, side), [("sawtree", nodes)], seed
        )
    if name == "hyper-mixed":
        n, k, nodes = (12, 3, 100) if small else (HYPER_VARS, HYPER_TRIPLES, HYPER_NODES)
        return BoundRoots(
            name,
            lambda s: [("hyper", hyper_mixed_graph(s, n, k))],
            [("sawtree", nodes), ("subtree", nodes)],
            seed,
        )
    if name == "compare-cli":
        return CompareCli(seed, side=3 if small else CLI_SIDE, workdir=workdir)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("grid5-saw", "hyper-mixed", "compare-cli")

"""Shared graph builders and seeded random generators for the test suite."""

import numpy as np

from boxprop.factorgraph import Factor, FactorGraph
from boxprop.measure import Box, Measure, MessageSet, Simplex, box_corner_matrix


def graph_from(tables):
    """Build a graph from (scope, sizes, values) triples, ids by position."""
    return FactorGraph(
        [
            Factor(i, tuple(scope), tuple(sizes), np.asarray(values, dtype=float))
            for i, (scope, sizes, values) in enumerate(tables)
        ]
    )


SYM_TABLE = (1.0, 2.0, 2.0, 1.0)


def triangle_graph(table=SYM_TABLE):
    """Binary variables 0,1,2 with pairwise couplings (0,1), (0,2), (1,2)."""
    return graph_from(
        [
            ((0, 1), (2, 2), table),
            ((0, 2), (2, 2), table),
            ((1, 2), (2, 2), table),
        ]
    )


def triangle_graph_k_first(table=SYM_TABLE):
    """Triangle with the (0,2) coupling listed first, so breadth-first
    construction from root 0 reaches variable 2 before variable 1."""
    return graph_from(
        [
            ((0, 2), (2, 2), table),
            ((0, 1), (2, 2), table),
            ((1, 2), (2, 2), table),
        ]
    )


def random_connected_graph(rng, max_vars=10, max_domain=4, max_arity=3, max_extra=3):
    """Connected random graph: pairwise spanning tree plus extra factors.

    Tables are strictly positive (uniform in [0.1, 2]), so validation passes.
    """
    n = int(rng.integers(2, max_vars + 1))
    sizes = [int(s) for s in rng.integers(2, max_domain + 1, n)]
    tables = []
    order = rng.permutation(n)
    for idx in range(1, n):
        a, b = int(order[idx]), int(order[rng.integers(0, idx)])
        tables.append(((a, b), (sizes[a], sizes[b]), rng.uniform(0.1, 2.0, sizes[a] * sizes[b])))
    for _ in range(int(rng.integers(0, max_extra + 1))):
        arity = min(int(rng.integers(1, max_arity + 1)), n)
        scope = tuple(int(x) for x in rng.choice(n, arity, replace=False))
        sz = tuple(sizes[v] for v in scope)
        tables.append((scope, sz, rng.uniform(0.1, 2.0, int(np.prod(sz)))))
    return graph_from(tables)


def random_pairwise_graph(rng, max_vars=8, max_domain=3, max_extra=4):
    """Connected random graph with pairwise factors only (loops allowed)."""
    n = int(rng.integers(3, max_vars + 1))
    sizes = [int(s) for s in rng.integers(2, max_domain + 1, n)]
    tables = []
    order = rng.permutation(n)
    for idx in range(1, n):
        a, b = int(order[idx]), int(order[rng.integers(0, idx)])
        tables.append(((a, b), (sizes[a], sizes[b]), rng.uniform(0.1, 2.0, sizes[a] * sizes[b])))
    present = {tuple(sorted(t[0])) for t in tables}
    for _ in range(int(rng.integers(1, max_extra + 1))):
        a, b = (int(x) for x in rng.choice(n, 2, replace=False))
        if (min(a, b), max(a, b)) in present:
            continue
        present.add((min(a, b), max(a, b)))
        tables.append(((a, b), (sizes[a], sizes[b]), rng.uniform(0.1, 2.0, sizes[a] * sizes[b])))
    return graph_from(tables)


def random_tree_graph(rng, n_vars, max_domain=3):
    """Random factor tree: pairwise spanning tree plus a few unary factors."""
    sizes = [int(s) for s in rng.integers(2, max_domain + 1, n_vars)]
    tables = []
    for v in range(1, n_vars):
        u = int(rng.integers(0, v))
        tables.append(((u, v), (sizes[u], sizes[v]), rng.uniform(0.1, 2.0, sizes[u] * sizes[v])))
    for v in rng.choice(n_vars, size=max(1, n_vars // 4), replace=False):
        v = int(v)
        tables.append(((v,), (sizes[v],), rng.uniform(0.1, 2.0, sizes[v])))
    return graph_from(tables)


def scale_factor(g, fid, c):
    """Copy of the graph with one factor table multiplied by c > 0."""
    tables = []
    for f in g.factors:
        values = f.table * c if f.id == fid else f.table
        tables.append((f.scope, f.sizes, values))
    return graph_from(tables)


def permute_states(g, var, perm):
    """Copy of the graph with the states of one variable relabeled by perm."""
    perm = np.asarray(perm)
    tables = []
    for f in g.factors:
        if var in f.scope:
            nd = f.table_nd()
            nd = np.take(nd, perm, axis=f.scope.index(var))
            tables.append((f.scope, f.sizes, np.ravel(nd, order="F")))
        else:
            tables.append((f.scope, f.sizes, f.table))
    return graph_from(tables)


def measure_value(m: Measure, assignment: dict) -> float:
    """Look up one entry by joint assignment, via the little-endian formula."""
    idx = 0
    mult = 1
    for v, d in zip(m.scope, m.sizes):
        idx += assignment[v] * mult
        mult *= d
    return float(m.values[idx])


def box_contains(box, values, slack=0.0) -> bool:
    values = np.asarray(values)
    return bool(
        np.all(values >= box.lower.values - slack)
        and np.all(values <= box.upper.values + slack)
    )


# Reference operations on measures and message sets. The engine never calls
# them; tests use them to state what the engine's kernels must compute.


def partition_sum(m: Measure) -> float:
    """Sum of all entries."""
    return float(m.values.sum())


def delta_measures(var: int, domain_size: int) -> list[Measure]:
    eye = np.eye(domain_size)
    return [Measure((var,), (domain_size,), eye[s]) for s in range(domain_size)]


def extreme_points(ms: MessageSet) -> list[Measure]:
    """Extreme points of a message set: one-hot measures or box corners."""
    if isinstance(ms, Simplex):
        return delta_measures(ms.var, ms.domain_size)
    return [Measure(ms.scope, ms.sizes, row) for row in box_corner_matrix(ms)]


def smallest_bounding_box(points: list[Measure]) -> Box:
    """Componentwise min/max envelope of a nonempty list of same-scope measures."""
    if not points:
        raise ValueError("smallest_bounding_box needs at least one measure")
    scope, sizes = points[0].scope, points[0].sizes
    for p in points[1:]:
        if p.scope != scope or p.sizes != sizes:
            raise ValueError("all measures must share one scope")
    stacked = np.stack([p.values for p in points])
    return Box(
        Measure(scope, sizes, stacked.min(axis=0)),
        Measure(scope, sizes, stacked.max(axis=0)),
    )

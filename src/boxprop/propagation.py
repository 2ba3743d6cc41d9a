"""Bound algorithms over subtrees and self-avoiding-walk trees.

Two leaf-to-root passes each produce a box guaranteed to contain the exact
marginal of a chosen root variable: one propagates boxes over a breadth-first
subtree of the factor graph, the other over the (possibly truncated) tree of
self-avoiding walks starting at the root. Because both trees embed into the
computation tree that loopy belief propagation unrolls, the same boxes also
contain any converged loopy BP belief for the root.

Loopy BP and two exact-inference engines (brute-force enumeration and variable
elimination) are included as oracles for checking those containment claims.

Both methods are one engine, a method being a pair of a walk-tree builder and
a factor rule. A :class:`SawTree` is flat: int lists of endpoints, parent
endpoints, kind codes and child-range starts in breadth-first order, so one
reverse loop over them sends every message. The walk-tree method propagates
:func:`build_saw_tree`'s tree with the joint rule; the subtree method
propagates :func:`saw_tree_from_subtree`'s with the factorized rule. The
linked :class:`SawNode` view (``SawTree.root_node``) is built only on first
access, for inspection; the engine never reads it.

Messages are small ints: each id indexes a per-graph intern table of message
sets (below ``num_variables`` the simplices, above them boxes keyed by scope
and exact bytes). A variable memo keyed on the variable and its children's
ids, and a factor memo keyed on the rule, factor, parent variable and
children's ids, make a repeated local neighbourhood cost one tuple and one
dict lookup; walk trees repeat neighbourhoods many times. A key fixes its
inputs' bytes and order and the kernels are deterministic, so every bound is
bit-identical to an unmemoized run.

The registry holding the table, both memos and the cached adjacency is held
weakly by graph, made on the first root, and dies with the graph. A root that
starts on a registry whose memos exceed ``MESSAGE_MEMO_CAP`` entries per
bipartite node swaps in a fresh one; a root in flight keeps its own, so no id
it holds is invalidated. Distinct roots and methods can run concurrently:
interning runs under a lock, so one id never names two boxes, and two roots
that miss on one key store the same id. A single pass is sequential.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from functools import cached_property
from math import prod
from threading import Lock
from time import perf_counter
from weakref import WeakKeyDictionary

import numpy as np

from .errors import CapacityExceededError
from .factorgraph import FactorGraph
from .measure import (
    Box,
    Measure,
    MessageSet,
    Simplex,
    bound_sum_product,
    bound_sum_product_joint,
    box_product_disjoint_sbb,
    box_product_same_scope,
    full_box,
    marginalize_out,
    multiply,
    normalize,
    normalized_corner_box,
    scalar_measure,
    unit_box,
)

__all__ = [
    "VAR",
    "FAC",
    "Subtree",
    "SawNode",
    "SawTree",
    "BoundResult",
    "BpResult",
    "build_subtree",
    "boxprop_subtree",
    "build_saw_tree",
    "saw_tree_from_subtree",
    "boxprop_sawtree",
    "bp_marginals",
    "exact_marginals",
    "BRUTE_CAP",
    "VARELIM_BUCKET_CAP",
    "MESSAGE_MEMO_CAP",
]

VAR = "v"
FAC = "f"
Node = tuple[str, int]

BRUTE_CAP = 1 << 26
VARELIM_BUCKET_CAP = 1 << 20
MESSAGE_MEMO_CAP = 1024

JOINT = "joint"
FACTORIZED = "factorized"

_MEMO_LOCK = Lock()


class _Registry:
    """One graph's interned message sets, both message memos and its adjacency.

    ``var_memo`` maps ``(v, *child ids)`` and ``factor_memo`` maps ``(rule,
    fid, keep, *child ids)`` to the id of the message sent, a factor's child
    ids following its other scope variables in ascending order. Bipartite node
    ``i`` is variable ``i``, or factor ``i - num_variables``; ``nbrs[i]`` lists
    its neighbours in ascending id order, ``node_of[i]`` is its node tuple.
    """

    def __init__(self, g: FactorGraph):
        n = g.num_variables
        self.num_variables = n
        self.factors = g.factors
        self.sizes = tuple(g.domain_size(v) for v in range(n))
        self.sets: list[MessageSet] = [Simplex(v, d) for v, d in enumerate(self.sizes)]
        self.index: dict[tuple, int] = {}
        self.var_memo: dict[tuple, int] = {}
        self.factor_memo: dict[tuple, int] = {}
        self.nbrs: tuple[tuple[int, ...], ...] = tuple(
            tuple(n + fid for fid in g.var_factors(v)) for v in range(n)
        ) + tuple(tuple(sorted(f.scope)) for f in g.factors)
        self.node_of: tuple[Node, ...] = tuple((VAR, v) for v in range(n)) + tuple(
            (FAC, fid) for fid in range(g.num_factors)
        )

    def intern(self, box: Box) -> int:
        """The id of ``box``, adding it if no box with its bytes has one yet."""
        key = (box.scope, box.lower.values.tobytes(), box.upper.values.tobytes())
        with _MEMO_LOCK:
            i = self.index.get(key)
            if i is None:
                i = self.index[key] = len(self.sets)
                self.sets.append(box)
        return i


_REGISTRIES: "WeakKeyDictionary[FactorGraph, _Registry]" = WeakKeyDictionary()


def _registry(g: FactorGraph) -> _Registry:
    """The graph's registry, made on first use and swapped for a fresh one when full.

    A caller keeps the registry it got for a whole pass, so a swap by another
    root never invalidates the ids it holds.
    """
    with _MEMO_LOCK:
        reg = _REGISTRIES.get(g)
        cap = MESSAGE_MEMO_CAP * (g.num_variables + g.num_factors)
        if reg is None or len(reg.var_memo) + len(reg.factor_memo) > cap:
            reg = _REGISTRIES[g] = _Registry(g)
    return reg


def _variable_message(reg: _Registry, v: int, ids: tuple[int, ...]) -> int:
    """Id of the message variable ``v`` sends, given its children's message ids.

    A simplex child absorbs the product; no children send the unit box.
    """
    if v in ids:
        return v
    key = (v,) + ids
    m = reg.var_memo.get(key)
    if m is None:
        if ids:
            box = box_product_same_scope([reg.sets[i] for i in ids])
        else:
            box = unit_box(v, reg.sizes[v])
        m = reg.var_memo[key] = reg.intern(box)
    return m


def _factor_message(reg: _Registry, rule: str, fid: int, keep: int, ids: tuple[int, ...]) -> int:
    """Id of the box factor ``fid`` sends to ``keep`` under ``rule``.

    ``ids`` holds the message sets of the other scope variables, in ascending
    variable order. The ``JOINT`` rule encloses them in one joint box (a
    simplex becomes the [0,1] box on its variable, the loosest box containing
    it) and enumerates its corners; the ``FACTORIZED`` rule enumerates each
    set's extreme points separately.
    """
    key = (rule, fid, keep) + ids
    m = reg.factor_memo.get(key)
    if m is None:
        f = reg.factors[fid]
        others = [v for v in sorted(f.scope) if v != keep]
        incoming = {v: reg.sets[i] for v, i in zip(others, ids)}
        if rule == JOINT:
            boxes = [
                full_box(v, reg.sizes[v]) if isinstance(incoming[v], Simplex) else incoming[v]
                for v in f.scope
                if v != keep
            ]
            box = bound_sum_product_joint(f, keep, box_product_disjoint_sbb(boxes))
        else:
            box = bound_sum_product(f, keep, incoming)
        m = reg.factor_memo[key] = reg.intern(box)
    return m


@dataclass(eq=False)
class Subtree:
    """A rooted tree subgraph of the factor graph (no loose edges)."""

    root: int
    nodes: set[Node]
    parent: dict[Node, Node]
    children: dict[Node, list[Node]]


def build_subtree(g: FactorGraph, root: int, max_nodes: int) -> Subtree:
    """Breadth-first subtree from ``root``; first visit wins, ascending id order.

    Expansion stops once ``max_nodes`` nodes are in the tree, so the result is
    deterministic for a given graph and budget.
    """
    if max_nodes < 1:
        raise ValueError("max_nodes must be >= 1")
    if not 0 <= root < g.num_variables:
        raise ValueError(f"root {root} is not a variable of the graph")
    reg = _registry(g)
    nbrs, node_of = reg.nbrs, reg.node_of
    root_node = node_of[root]
    nodes = {root_node}
    parent: dict[Node, Node] = {}
    children: dict[Node, list[Node]] = {root_node: []}
    queue: deque[int] = deque([root])
    while queue:
        u = queue.popleft()
        unode = node_of[u]
        for w in nbrs[u]:
            wnode = node_of[w]
            if wnode in nodes or len(nodes) >= max_nodes:
                continue
            nodes.add(wnode)
            parent[wnode] = unode
            children[unode].append(wnode)
            children[wnode] = []
            queue.append(w)
    return Subtree(root, nodes, parent, children)


@dataclass(eq=False)
class BoundResult:
    """A per-variable bound: a box on the root's marginal, plus bookkeeping."""

    variable: int
    box: Box
    method: str
    nodes_used: int
    elapsed: float


def _finalize_root(reg: _Registry, root: int, ids: tuple[int, ...]) -> Box:
    """Combine the root's incoming message ids into the final belief box.

    If there are none, or any is a whole simplex, the belief is vacuous and the
    [0,1] box is returned; otherwise the box product of the incoming boxes is
    normalized corner by corner and enclosed in its smallest bounding box.
    """
    if not ids or root in ids:
        return full_box(root, reg.sizes[root])
    return normalized_corner_box(box_product_same_scope([reg.sets[i] for i in ids]))


# ``SawTree.kind`` codes index ``_KINDS``; from ``_CYCLE`` up a walk is cut off.
_KINDS = ("root", "inner", "dead_end", "cycle", "truncated")
_ROOT, _INNER, _DEAD_END, _CYCLE, _TRUNCATED = range(len(_KINDS))


@dataclass(eq=False, slots=True)
class SawNode:
    """One walk in the self-avoiding-walk tree, identified by its endpoint.

    Kinds: ``root``, ``inner``, ``dead_end`` (no admissible extension),
    ``cycle`` (endpoint revisits the walk; sends a simplex), and ``truncated``
    (marker for an extension cut off by the node budget; sends a simplex).
    """

    endpoint: Node
    kind: str
    parent: "SawNode | None"
    children: list["SawNode"] = field(default_factory=list)


@dataclass(eq=False)
class SawTree:
    """Tree of self-avoiding walks from a root variable, flat in breadth-first order.

    Walk ``i`` ends at bipartite node ``end[i]`` (variable ``v`` is ``v``,
    factor ``fid`` is ``num_variables + fid``); ``prev[i]`` is the endpoint of
    its parent walk (-1 for the root, walk 0); ``kind[i]`` indexes ``("root",
    "inner", "dead_end", "cycle", "truncated")``; and its children are the
    walks ``first[i]:first[i + 1]``, in ascending endpoint order. ``node_count``
    counts expanded walk nodes; ``truncated`` markers hang off the frontier
    once the budget is reached and are not counted against it.
    """

    root: int
    node_count: int
    num_variables: int
    end: list[int]
    prev: list[int]
    kind: list[int]
    first: list[int]

    @cached_property
    def root_node(self) -> SawNode:
        """The tree as linked :class:`SawNode` objects, built on first access."""
        n, first = self.num_variables, self.first
        nodes = [
            SawNode((VAR, u) if u < n else (FAC, u - n), _KINDS[k], None)
            for u, k in zip(self.end, self.kind)
        ]
        for i, node in enumerate(nodes):
            node.children = nodes[first[i] : first[i + 1]]
            for child in node.children:
                child.parent = node
        return nodes[0]


def _propagate(reg: _Registry, t: SawTree, rule: str) -> Box:
    """One leaf-to-root pass over a walk tree; factor nodes apply ``rule``.

    Walks are visited in reverse breadth-first order, so every child's message
    id is known before its parent's. A cut-off walk sends the simplex on the
    variable it reaches: its endpoint, or its parent's when it ends at a factor.
    """
    n = reg.num_variables
    end, prev, kind, first = t.end, t.prev, t.kind, t.first
    msg = [0] * len(end)
    for i in range(len(end) - 1, 0, -1):
        u = end[i]
        if kind[i] >= _CYCLE:
            msg[i] = u if u < n else prev[i]
            continue
        ids = tuple(msg[first[i] : first[i + 1]])
        if u < n:
            msg[i] = _variable_message(reg, u, ids)
        else:
            msg[i] = _factor_message(reg, rule, u - n, prev[i], ids)
    return _finalize_root(reg, t.root, tuple(msg[first[0] : first[1]]))


def build_saw_tree(g: FactorGraph, root: int, max_nodes: int) -> SawTree:
    """Breadth-first enumeration of self-avoiding walks from ``root``.

    A walk extends to every neighbor of its endpoint except the node it just
    came from (children in ascending id order). An extension whose endpoint
    already lies on the walk becomes a ``cycle`` leaf and is not expanded.
    Once ``max_nodes`` walks exist, further extensions become ``truncated``
    markers, which later propagate the loosest possible message. The tree's
    lists are the queue: walks are expanded in the order they were appended.
    """
    if max_nodes < 1:
        raise ValueError("max_nodes must be >= 1")
    if not 0 <= root < g.num_variables:
        raise ValueError(f"root {root} is not a variable of the graph")
    nbrs = _registry(g).nbrs
    end, prev, kind, first = [root], [-1], [_ROOT], []
    # Each walk's node set as a bitmask over bipartite ids.
    on_walk = [1 << root]
    count = 1
    for i, u in enumerate(end):
        start = len(end)
        first.append(start)
        if kind[i] > _INNER:
            continue
        p, mask = prev[i], on_walk[i]
        for w in nbrs[u]:
            if w == p:
                continue
            end.append(w)
            prev.append(u)
            on_walk.append(mask | 1 << w)
            if count < max_nodes:
                count += 1
                kind.append(_CYCLE if mask >> w & 1 else _INNER)
            else:
                kind.append(_TRUNCATED)
        if i and len(end) == start:
            kind[i] = _DEAD_END
    first.append(len(end))
    return SawTree(root, count, g.num_variables, end, prev, kind, first)


def saw_tree_from_subtree(g: FactorGraph, t: Subtree) -> SawTree:
    """The walk tree over which the subtree bound is computed.

    Every subtree node becomes the walk leading to it; extensions that leave
    the subtree become ``truncated`` markers, so they send a simplex. Children
    keep the subtree's neighbour order. :func:`boxprop_subtree` propagates over
    this tree with the factorized rule; on pairwise factor graphs the joint
    rule of :func:`boxprop_sawtree` gives the same box over it.
    """
    reg = _registry(g)
    nbrs, node_of = reg.nbrs, reg.node_of
    end, prev, kind, first = [t.root], [-1], [_ROOT], []
    for i, u in enumerate(end):
        start = len(end)
        first.append(start)
        if kind[i] == _TRUNCATED:
            continue
        p, tree_children = prev[i], t.children[node_of[u]]
        for w in nbrs[u]:
            if w == p:
                continue
            end.append(w)
            prev.append(u)
            kind.append(_INNER if node_of[w] in tree_children else _TRUNCATED)
        if i and len(end) == start:
            kind[i] = _DEAD_END
    first.append(len(end))
    return SawTree(t.root, len(t.nodes), g.num_variables, end, prev, kind, first)


def boxprop_subtree(g: FactorGraph, t: Subtree) -> BoundResult:
    """Leaf-to-root box propagation over a subtree of the factor graph.

    The returned box contains the exact marginal of the root variable and any
    converged loopy BP belief for it, whatever the subtree choice. The pass
    runs over :func:`saw_tree_from_subtree`'s walk tree with the factorized
    rule, so a graph edge missing from the subtree sends a whole simplex, as a
    truncated walk does.
    """
    start = perf_counter()
    belief = _propagate(_registry(g), saw_tree_from_subtree(g, t), FACTORIZED)
    return BoundResult(t.root, belief, "subtree", len(t.nodes), perf_counter() - start)


def boxprop_sawtree(g: FactorGraph, t: SawTree) -> BoundResult:
    """Leaf-to-root box propagation over a self-avoiding-walk tree.

    The returned box contains the exact root marginal and any converged loopy
    BP belief, whether or not the tree was truncated.
    """
    start = perf_counter()
    belief = _propagate(_registry(g), t, JOINT)
    return BoundResult(t.root, belief, "sawtree", t.node_count, perf_counter() - start)


@dataclass(eq=False)
class BpResult:
    beliefs: list[Measure]
    converged: bool
    iterations: int
    residual: float


def bp_marginals(
    g: FactorGraph,
    tol: float = 1e-9,
    max_iter: int = 10_000,
    damping: float = 0.0,
) -> BpResult:
    """Loopy belief propagation with synchronous (parallel) updates.

    Messages are normalized after every update; convergence is declared when
    the largest componentwise message change in a sweep drops below ``tol``.
    Non-convergence within ``max_iter`` sweeps is reported, not raised.
    Requires a graph that passes validation (positivity keeps messages
    strictly positive, so normalization never divides by zero).
    """
    if not 0.0 <= damping < 1.0:
        raise ValueError("damping must lie in [0, 1)")
    d = [g.domain_size(i) for i in range(g.num_variables)]
    nds = [f.table_nd() for f in g.factors]
    v2f: dict[tuple[int, int], np.ndarray] = {}
    f2v: dict[tuple[int, int], np.ndarray] = {}
    for f in g.factors:
        for v in f.scope:
            v2f[(v, f.id)] = np.full(d[v], 1.0 / d[v])
            f2v[(f.id, v)] = np.full(d[v], 1.0 / d[v])
    converged = False
    iterations = 0
    residual = float("inf")
    for iterations in range(1, max_iter + 1):
        new_f2v: dict[tuple[int, int], np.ndarray] = {}
        for f in g.factors:
            nd = nds[f.id]
            k = len(f.scope)
            for pos, v in enumerate(f.scope):
                cur = nd
                for qpos in range(k - 1, -1, -1):
                    if qpos != pos:
                        cur = np.tensordot(
                            cur, v2f[(f.scope[qpos], f.id)], axes=([qpos], [0])
                        )
                new_f2v[(f.id, v)] = cur / cur.sum()
        new_v2f: dict[tuple[int, int], np.ndarray] = {}
        for i in range(g.num_variables):
            fids = g.var_factors(i)
            for fid in fids:
                p = np.ones(d[i])
                for other in fids:
                    if other != fid:
                        p = p * f2v[(other, i)]
                new_v2f[(i, fid)] = p / p.sum()
        if damping:
            for key, val in new_f2v.items():
                new_f2v[key] = damping * f2v[key] + (1.0 - damping) * val
            for key, val in new_v2f.items():
                new_v2f[key] = damping * v2f[key] + (1.0 - damping) * val
        residual = 0.0
        for key, val in new_f2v.items():
            residual = max(residual, float(np.abs(val - f2v[key]).max()))
        for key, val in new_v2f.items():
            residual = max(residual, float(np.abs(val - v2f[key]).max()))
        f2v, v2f = new_f2v, new_v2f
        if residual < tol:
            converged = True
            break
    beliefs = []
    for i in range(g.num_variables):
        b = np.ones(d[i])
        for fid in g.var_factors(i):
            b = b * f2v[(fid, i)]
        beliefs.append(Measure((i,), (d[i],), b / b.sum()))
    return BpResult(beliefs, converged, iterations, residual)


def exact_marginals(g: FactorGraph, engine: str = "brute") -> list[Measure]:
    """Exact normalized single-variable marginals.

    ``brute`` materializes the joint table (capped at ``BRUTE_CAP`` states);
    ``varelim`` eliminates variables greedily by smallest intermediate table
    (each intermediate capped at ``VARELIM_BUCKET_CAP`` entries). Both raise
    :class:`CapacityExceededError` past their caps.
    """
    if engine == "brute":
        return _brute_marginals(g)
    if engine == "varelim":
        order = _elimination_order(g)
        return [_varelim_marginal(g, order, q) for q in range(g.num_variables)]
    raise ValueError(f"unknown exact-inference engine {engine!r}")


def _brute_marginals(g: FactorGraph) -> list[Measure]:
    total = g.joint_states()
    if total > BRUTE_CAP:
        raise CapacityExceededError(
            f"joint distribution has {total} states, above the cap of {BRUTE_CAP}"
        )
    joint = scalar_measure(1.0)
    for f in g.factors:
        joint = multiply(joint, Measure(f.scope, f.sizes, f.table))
    out = []
    for i in range(g.num_variables):
        out.append(normalize(marginalize_out(joint, set(joint.scope) - {i})))
    return out


def _elimination_order(g: FactorGraph) -> list[int]:
    """Greedy min-weight elimination order on the variable interaction graph.

    Computed once per graph; each per-query elimination reuses it, skipping
    the query variable (any order restricted this way stays valid).
    """
    size_of = {v.id: v.domain_size for v in g.variables}
    neighbors: dict[int, set[int]] = {i: set() for i in range(g.num_variables)}
    for f in g.factors:
        for a in f.scope:
            neighbors[a].update(f.scope)
    for i, ns in neighbors.items():
        ns.discard(i)
    remaining = set(range(g.num_variables))
    order: list[int] = []
    while remaining:
        best_v, best_w = -1, None
        for v in sorted(remaining):
            w = size_of[v] * prod(size_of[u] for u in neighbors[v] if u in remaining)
            if best_w is None or w < best_w:
                best_v, best_w = v, w
        order.append(best_v)
        remaining.remove(best_v)
        live = [u for u in neighbors[best_v] if u in remaining]
        for u in live:
            neighbors[u].update(live)
            neighbors[u].discard(u)
    return order


def _varelim_marginal(g: FactorGraph, order: list[int], q: int) -> Measure:
    size_of = {v.id: v.domain_size for v in g.variables}
    tables: dict[int, Measure] = {
        f.id: Measure._new(f.scope, f.sizes, f.table) for f in g.factors
    }
    by_var: dict[int, set[int]] = {i: set() for i in range(g.num_variables)}
    for tid, t in tables.items():
        for v in t.scope:
            by_var[v].add(tid)
    next_id = len(tables)
    for v in order:
        if v == q or not by_var[v]:
            continue
        ids = sorted(by_var[v])
        union: set[int] = set()
        for tid in ids:
            union.update(tables[tid].scope)
        weight = prod(size_of[u] for u in union)
        if weight > VARELIM_BUCKET_CAP:
            raise CapacityExceededError(
                f"eliminating variable {v} needs a {weight}-entry table "
                f"(cap {VARELIM_BUCKET_CAP})"
            )
        prodm = tables[ids[0]]
        for tid in ids[1:]:
            prodm = multiply(prodm, tables[tid])
        for tid in ids:
            for u in tables[tid].scope:
                by_var[u].discard(tid)
            del tables[tid]
        summed = marginalize_out(prodm, {v})
        tables[next_id] = summed
        for u in summed.scope:
            by_var[u].add(next_id)
        next_id += 1
    remaining = [tables[tid] for tid in sorted(tables)]
    result = remaining[0]
    for t in remaining[1:]:
        result = multiply(result, t)
    if result.scope != (q,):
        ones = Measure((q,), (size_of[q],), np.ones(size_of[q]))
        result = multiply(result, ones)
    return normalize(result)

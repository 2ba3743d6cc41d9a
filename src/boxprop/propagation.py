"""Bound algorithms over subtrees and self-avoiding-walk trees.

Two leaf-to-root passes each produce a box guaranteed to contain the exact
marginal of a chosen root variable: one propagates boxes over a breadth-first
subtree of the factor graph, the other over the (possibly truncated) tree of
self-avoiding walks starting at the root. Because both trees embed into the
computation tree that loopy belief propagation unrolls, the same boxes also
contain any converged loopy BP belief for the root.

Loopy BP and two exact-inference engines (brute-force enumeration and variable
elimination) are included as oracles for checking those containment claims.

Both methods send factor messages through one memo: per ``Factor``, a dict
maps (factor rule, parent variable, incoming message sets) to the box the
factor sends. Walk trees repeat the same local neighbourhoods many times, so
most messages of a pass, and of later roots on the same graph, are hits. Keys
hold the exact bytes of every incoming box (``None`` for a simplex) and the
kernels are deterministic, so a hit returns the very box a recomputation would
give and every bound is bit-identical to an unmemoized run. Entries live in a
``WeakKeyDictionary`` and die with their factor, so two graphs never share
one. A factor stores at most ``MESSAGE_MEMO_CAP`` messages; past that its new
messages are computed without being stored.

All functions are deterministic over immutable graphs; distinct roots and
methods can run concurrently. The memo is the only state they share: two
roots that miss on the same key both compute it and store equal boxes, and a
lock around each insert keeps the cap exact. A single propagation pass is
sequential (leaf-to-root order).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from math import prod
from threading import Lock
from time import perf_counter
from weakref import WeakKeyDictionary

import numpy as np

from .errors import CapacityExceededError
from .factorgraph import Factor, FactorGraph
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

_FACTOR_MESSAGES: "WeakKeyDictionary[Factor, dict[tuple, Box]]" = WeakKeyDictionary()
_MEMO_LOCK = Lock()


def _neighbors(g: FactorGraph, node: Node) -> list[Node]:
    """Graph neighbors of a bipartite node, in ascending id order."""
    kind, idx = node
    if kind == VAR:
        return [(FAC, fid) for fid in g.var_factors(idx)]
    return [(VAR, v) for v in sorted(g.factors[idx].scope)]


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
    root_node: Node = (VAR, root)
    nodes = {root_node}
    parent: dict[Node, Node] = {}
    children: dict[Node, list[Node]] = {root_node: []}
    queue: deque[Node] = deque([root_node])
    while queue:
        u = queue.popleft()
        for w in _neighbors(g, u):
            if w in nodes or len(nodes) >= max_nodes:
                continue
            nodes.add(w)
            parent[w] = u
            children[u].append(w)
            children[w] = []
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


def _finalize_root(g: FactorGraph, root: int, msgs: list[MessageSet]) -> Box:
    """Combine the root's incoming messages into the final belief box.

    If any incoming message is a whole simplex the belief is vacuous and the
    [0,1] box is returned; otherwise the box product of the incoming boxes is
    normalized corner by corner and enclosed in its smallest bounding box.
    """
    d = g.domain_size(root)
    boxes: list[Box] = []
    for m in msgs:
        if isinstance(m, Simplex):
            return full_box(root, d)
        boxes.append(m)
    if not boxes:
        return full_box(root, d)
    return normalized_corner_box(box_product_same_scope(boxes))


def _subtree_variable_message(g, t, child_sets, msg, u: Node) -> MessageSet:
    _, v = u
    parent = t.parent[u]
    boxes: list[Box] = []
    for fid in g.var_factors(v):
        fnode: Node = (FAC, fid)
        if fnode == parent:
            continue
        if fnode not in child_sets[u]:
            # Edge exists in the graph but not in the subtree: the unknown
            # contribution is a whole simplex, which absorbs the product.
            return Simplex(v, g.domain_size(v))
        m = msg[fnode]
        if isinstance(m, Simplex):
            return Simplex(v, g.domain_size(v))
        boxes.append(m)
    if not boxes:
        return unit_box(v, g.domain_size(v))
    return box_product_same_scope(boxes)


def _factor_message(
    g: FactorGraph, f: Factor, keep: int, incoming: dict[int, MessageSet], rule: str
) -> Box:
    """The box factor ``f`` sends to ``keep``, memoized per factor.

    ``incoming`` maps every other scope variable to its message set. The
    ``JOINT`` rule encloses them in one joint box (a simplex becomes the [0,1]
    box on its variable, the loosest box containing it) and enumerates its
    corners; the ``FACTORIZED`` rule
    enumerates each set's extreme points separately. The key is built from the
    raw message sets, so a hit skips the joint product as well.
    """
    msgs = [(v, incoming[v]) for v in f.scope if v != keep]
    key = (rule, keep) + tuple(
        None if isinstance(m, Simplex) else m.lower.values.tobytes() + m.upper.values.tobytes()
        for _, m in msgs
    )
    memo = _FACTOR_MESSAGES.get(f)
    if memo is None:
        memo = _FACTOR_MESSAGES.setdefault(f, {})
    box = memo.get(key)
    if box is not None:
        return box
    if rule == JOINT:
        boxes = [full_box(v, g.domain_size(v)) if isinstance(m, Simplex) else m for v, m in msgs]
        box = bound_sum_product_joint(f, keep, box_product_disjoint_sbb(boxes))
    else:
        box = bound_sum_product(f, keep, incoming)
    with _MEMO_LOCK:
        if len(memo) < MESSAGE_MEMO_CAP:
            memo[key] = box
    return box


def _subtree_factor_message(g, t, child_sets, msg, u: Node) -> Box:
    _, fid = u
    f = g.factors[fid]
    parent_var = t.parent[u][1]
    incoming: dict[int, MessageSet] = {}
    for v in f.scope:
        if v == parent_var:
            continue
        vnode: Node = (VAR, v)
        if vnode in child_sets[u]:
            incoming[v] = msg[vnode]
        else:
            incoming[v] = Simplex(v, g.domain_size(v))
    return _factor_message(g, f, parent_var, incoming, FACTORIZED)


def boxprop_subtree(g: FactorGraph, t: Subtree) -> BoundResult:
    """Leaf-to-root box propagation over a subtree of the factor graph.

    The returned box contains the exact marginal of the root variable and any
    converged loopy BP belief for it, whatever the subtree choice.
    """
    start = perf_counter()
    child_sets = {u: set(cs) for u, cs in t.children.items()}
    root_node: Node = (VAR, t.root)
    order: list[Node] = []
    stack = [root_node]
    while stack:
        u = stack.pop()
        order.append(u)
        stack.extend(t.children[u])
    msg: dict[Node, MessageSet] = {}
    for u in reversed(order):
        if u == root_node:
            continue
        if u[0] == VAR:
            msg[u] = _subtree_variable_message(g, t, child_sets, msg, u)
        else:
            msg[u] = _subtree_factor_message(g, t, child_sets, msg, u)
    incoming = [
        msg[(FAC, fid)]
        if (FAC, fid) in child_sets[root_node]
        else Simplex(t.root, g.domain_size(t.root))
        for fid in g.var_factors(t.root)
    ]
    belief = _finalize_root(g, t.root, incoming)
    return BoundResult(t.root, belief, "subtree", len(t.nodes), perf_counter() - start)


@dataclass(eq=False)
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
    """Tree of self-avoiding walks from a root variable.

    ``node_count`` counts expanded walk nodes; ``truncated`` markers hang off
    the frontier once the budget is reached and are not counted against it.
    """

    root: int
    root_node: SawNode
    node_count: int


def build_saw_tree(g: FactorGraph, root: int, max_nodes: int) -> SawTree:
    """Breadth-first enumeration of self-avoiding walks from ``root``.

    A walk extends to every neighbor of its endpoint except the node it just
    came from (children in ascending id order). An extension whose endpoint
    already lies on the walk becomes a ``cycle`` leaf and is not expanded.
    Once ``max_nodes`` walks exist, further extensions become ``truncated``
    markers, which later propagate the loosest possible message.
    """
    if max_nodes < 1:
        raise ValueError("max_nodes must be >= 1")
    root_node = SawNode((VAR, root), "root", None)
    count = 1
    queue: deque[tuple[SawNode, frozenset[Node], Node | None]] = deque(
        [(root_node, frozenset([(VAR, root)]), None)]
    )
    while queue:
        node, on_walk, prev = queue.popleft()
        extensions = [w for w in _neighbors(g, node.endpoint) if w != prev]
        if not extensions:
            if node is not root_node:
                node.kind = "dead_end"
            continue
        for w in extensions:
            if count < max_nodes:
                count += 1
                if w in on_walk:
                    node.children.append(SawNode(w, "cycle", node))
                else:
                    child = SawNode(w, "inner", node)
                    node.children.append(child)
                    queue.append((child, on_walk | {w}, node.endpoint))
            else:
                node.children.append(SawNode(w, "truncated", node))
    return SawTree(root, root_node, count)


def saw_tree_from_subtree(g: FactorGraph, t: Subtree) -> SawTree:
    """Restrict the self-avoiding-walk tree to the walks present in a subtree.

    Every subtree node becomes the walk leading to it; extensions that leave
    the subtree become ``truncated`` markers. On pairwise factor graphs,
    propagating boxes over this tree reproduces the subtree bound exactly.
    """
    root_node = SawNode((VAR, t.root), "root", None)
    count = 1
    stack: list[tuple[SawNode, Node, Node | None]] = [(root_node, (VAR, t.root), None)]
    while stack:
        snode, u, prev = stack.pop()
        extensions = [w for w in _neighbors(g, u) if w != prev]
        if not extensions:
            if snode is not root_node:
                snode.kind = "dead_end"
            continue
        tree_children = set(t.children[u])
        for w in extensions:
            if w in tree_children:
                count += 1
                child = SawNode(w, "inner", snode)
                snode.children.append(child)
                stack.append((child, w, u))
            else:
                snode.children.append(SawNode(w, "truncated", snode))
    return SawTree(t.root, root_node, count)


def _saw_message(g: FactorGraph, node: SawNode, msg: dict[int, MessageSet]) -> MessageSet:
    kind_tag, idx = node.endpoint
    if node.kind in ("cycle", "truncated"):
        if kind_tag == VAR:
            return Simplex(idx, g.domain_size(idx))
        pvar = node.parent.endpoint[1]
        return Simplex(pvar, g.domain_size(pvar))
    if kind_tag == VAR:
        boxes: list[Box] = []
        for c in node.children:
            m = msg[id(c)]
            if isinstance(m, Simplex):
                return Simplex(idx, g.domain_size(idx))
            boxes.append(m)
        if not boxes:
            return unit_box(idx, g.domain_size(idx))
        return box_product_same_scope(boxes)
    # Factor endpoint: bound the sum-product through one joint box over the
    # non-parent scope variables.
    incoming = {c.endpoint[1]: msg[id(c)] for c in node.children}
    return _factor_message(g, g.factors[idx], node.parent.endpoint[1], incoming, JOINT)


def boxprop_sawtree(g: FactorGraph, t: SawTree) -> BoundResult:
    """Leaf-to-root box propagation over a self-avoiding-walk tree.

    The returned box contains the exact root marginal and any converged loopy
    BP belief, whether or not the tree was truncated.
    """
    start = perf_counter()
    order: list[SawNode] = []
    stack = [t.root_node]
    while stack:
        n = stack.pop()
        order.append(n)
        stack.extend(n.children)
    msg: dict[int, MessageSet] = {}
    for n in reversed(order):
        if n is t.root_node:
            continue
        msg[id(n)] = _saw_message(g, n, msg)
    belief = _finalize_root(g, t.root, [msg[id(c)] for c in t.root_node.children])
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

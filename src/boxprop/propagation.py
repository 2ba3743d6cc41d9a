"""Bound algorithms over subtrees and self-avoiding-walk trees.

Two leaf-to-root passes each produce a box guaranteed to contain the exact
marginal of a chosen root variable: one propagates boxes over a breadth-first
subtree of the factor graph, the other over the (possibly truncated) tree of
self-avoiding walks starting at the root. Because both trees embed into the
computation tree that loopy belief propagation unrolls, the same boxes also
contain any converged loopy BP belief for the root.

Loopy BP and two exact-inference engines (brute-force enumeration and variable
elimination) are included as oracles for checking those containment claims.
Both reuse work and return the same bytes as a plain loop would. Variable
elimination shares bucket eliminations between query variables through a memo
local to one call, keyed on the bucket's variable and the identity of its
tables, storing only buckets free of the query variable (at most one per
variable). BP holds its messages in one ``(edges, d)`` array per domain size
and direction and repeats a per-edge loop's arithmetic in the same order. See
:func:`exact_marginals` and :func:`bp_marginals`.

Both methods are one engine, a method being a pair of a walk-tree builder and
a factor rule. A :class:`SawTree` is flat: int lists of endpoints, parent
endpoints, kind codes and child-range starts in breadth-first order, so one
reverse loop over them sends every message. Each method has one builder: the
walk-tree method propagates :func:`build_saw_tree`'s tree with the joint rule,
the subtree method :func:`build_subtree`'s with the factorized rule. The
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

from dataclasses import dataclass, field
from functools import cached_property
from math import inf, prod
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
    "SawNode",
    "SawTree",
    "BoundResult",
    "BpResult",
    "build_subtree",
    "boxprop_subtree",
    "build_saw_tree",
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
    its neighbours in ascending id order.
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
    counts the walks that are not ``truncated`` markers: those mark extensions
    the builder cut off and are not counted against its budget.
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


def build_subtree(g: FactorGraph, root: int, max_nodes: int) -> SawTree:
    """Breadth-first subtree from ``root``, as the walk tree its bound runs on.

    First visit wins: an extension joins the tree if its endpoint is not in
    the tree yet and fewer than ``max_nodes`` nodes are, so nodes join in
    ascending id order and the result is deterministic for a given graph and
    budget. Every other edge leaving a tree node, except the one back to its
    parent, becomes a ``truncated`` marker and sends a simplex. ``node_count``
    counts the tree's nodes. On pairwise factor graphs the joint rule of
    :func:`boxprop_sawtree` gives the same box over this tree as the factorized
    rule of :func:`boxprop_subtree`.
    """
    if max_nodes < 1:
        raise ValueError("max_nodes must be >= 1")
    if not 0 <= root < g.num_variables:
        raise ValueError(f"root {root} is not a variable of the graph")
    nbrs = _registry(g).nbrs
    end, prev, kind, first = [root], [-1], [_ROOT], []
    # The tree's node set as one bitmask over bipartite ids.
    in_tree = 1 << root
    count = 1
    for i, u in enumerate(end):
        start = len(end)
        first.append(start)
        if kind[i] == _TRUNCATED:
            continue
        p = prev[i]
        for w in nbrs[u]:
            if w == p:
                continue
            end.append(w)
            prev.append(u)
            if count < max_nodes and not in_tree >> w & 1:
                count += 1
                in_tree |= 1 << w
                kind.append(_INNER)
            else:
                kind.append(_TRUNCATED)
        if i and len(end) == start:
            kind[i] = _DEAD_END
    first.append(len(end))
    return SawTree(root, count, g.num_variables, end, prev, kind, first)


def boxprop_subtree(g: FactorGraph, t: SawTree) -> BoundResult:
    """Leaf-to-root box propagation over :func:`build_subtree`'s tree.

    The returned box contains the exact marginal of the root variable and any
    converged loopy BP belief for it, whatever the subtree choice. Factor nodes
    apply the factorized rule, and a graph edge missing from the subtree sends
    a whole simplex, as a truncated walk does.
    """
    start = perf_counter()
    belief = _propagate(_registry(g), t, FACTORIZED)
    return BoundResult(t.root, belief, "subtree", t.node_count, perf_counter() - start)


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
    strictly positive, so normalization never divides by zero), ``max_iter
    >= 1`` and a positive, finite ``tol``.

    Messages live in one ``(edges, d)`` array per domain size ``d`` and
    direction, one row per factor-variable edge; the edge ``(fid, v)`` has the
    same row in both directions. Each sweep does the arithmetic of a plain
    per-edge loop (``np.tensordot`` contractions, 1-D sums and products) on
    the same operands in the same order, so every belief, ``iterations`` and
    ``residual`` equals that loop's bit for bit:

    - factor to variable: the first contraction is the ``np.dot`` that
      ``np.tensordot`` makes, on the table matrix it would build (made once
      per edge), later ones (arity 3 and up) are ``np.tensordot``; a unary
      factor's row is its table, normalized like the others;
    - normalization divides by ``x.sum(axis=1)``, the same pairwise sum per
      row as a 1-D ``sum``;
    - variable to factor (and the final beliefs) multiply gathered rows in
      ``var_factors`` order, padded with a row of ones (``x * 1.0 == x``);
    - damping and the residual, a max of absolute differences, are array
      operations; a max is exact in any order.
    """
    if not 0.0 <= damping < 1.0:
        raise ValueError("damping must lie in [0, 1)")
    if not max_iter >= 1:
        raise ValueError("max_iter must be >= 1")
    if not 0.0 < tol < inf:
        raise ValueError("tol must be positive and finite")
    size = [g.domain_size(v) for v in range(g.num_variables)]
    edges: dict[int, list[tuple[int, int]]] = {}
    for f in g.factors:
        for v in f.scope:
            edges.setdefault(size[v], []).append((f.id, v))
    # An edge's row within its domain's arrays, and its number over all domains.
    slot = {e: r for es in edges.values() for r, e in enumerate(es)}
    number = {e: k for k, e in enumerate(e for es in edges.values() for e in es)}
    raw = {d: np.empty((len(es), d)) for d, es in edges.items()}
    contract: dict[int, list[tuple]] = {d: [] for d in edges}
    for f in g.factors:
        nd, k = f.table_nd(), len(f.scope)
        src = [number[(f.id, u)] for u in f.scope]
        for pos, v in enumerate(f.scope):
            d, row = size[v], slot[(f.id, v)]
            if k == 1:
                raw[d][row] = nd
                continue
            q0, *later = [q for q in range(k - 1, -1, -1) if q != pos]
            axes = [a for a in range(k) if a != q0]
            shape = tuple(nd.shape[a] for a in axes)
            mat = nd.transpose(axes + [q0]).reshape((prod(shape), nd.shape[q0]))
            contract[d].append((row, mat, shape, src[q0], [(q, src[q]) for q in later]))
    gather = {
        d: _padded([[slot[(o, v)] for o in g.var_factors(v) if o != fid] for fid, v in es], len(es))
        for d, es in edges.items()
    }
    f2v = {d: np.full((len(es), d), 1.0 / d) for d, es in edges.items()}
    v2f = {d: x.copy() for d, x in f2v.items()}
    converged = False
    for iterations in range(1, max_iter + 1):
        rows = [r for x in v2f.values() for r in x]
        for d, plan in contract.items():
            out = raw[d]
            for row, mat, shape, s0, later in plan:
                cur = np.dot(mat, rows[s0].reshape((-1, 1))).reshape(shape)
                for q, s in later:
                    cur = np.tensordot(cur, rows[s], axes=([q], [0]))
                out[row] = cur
        new_f2v = {d: x / x.sum(axis=1, keepdims=True) for d, x in raw.items()}
        new_v2f = {d: _gathered_products(f2v[d], gather[d]) for d in edges}
        if damping:
            new_f2v = {d: damping * f2v[d] + (1.0 - damping) * x for d, x in new_f2v.items()}
            new_v2f = {d: damping * v2f[d] + (1.0 - damping) * x for d, x in new_v2f.items()}
        residual = max(
            float(np.abs(new[d] - old[d]).max())
            for new, old in ((new_f2v, f2v), (new_v2f, v2f))
            for d in edges
        )
        f2v, v2f = new_f2v, new_v2f
        if residual < tol:
            converged = True
            break
    beliefs: dict[int, Measure] = {}
    for d, es in edges.items():
        variables = sorted({v for _, v in es})
        idx = _padded([[slot[(fid, v)] for fid in g.var_factors(v)] for v in variables], len(es))
        for v, b in zip(variables, _gathered_products(f2v[d], idx)):
            beliefs[v] = Measure((v,), (d,), b)
    return BpResult([beliefs[v] for v in range(g.num_variables)], converged, iterations, residual)


def _padded(lists: list[list[int]], pad: int) -> np.ndarray:
    """Row-index lists as one int array, padded on the right with ``pad``."""
    width = max(1, max(map(len, lists)))
    return np.array([r + [pad] * (width - len(r)) for r in lists], dtype=np.intp)


def _gathered_products(rows: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """Normalized products of the ``rows`` each row of ``idx`` names, in its order.

    An index equal to ``len(rows)`` names a row of ones, which pads ``idx``.
    """
    rows = np.vstack((rows, np.ones(rows.shape[1])))
    p = rows[idx[:, 0]]
    for c in range(1, idx.shape[1]):
        p = p * rows[idx[:, c]]
    return p / p.sum(axis=1, keepdims=True)


def exact_marginals(g: FactorGraph, engine: str = "brute") -> list[Measure]:
    """Exact normalized single-variable marginals.

    ``brute`` materializes the joint table (capped at ``BRUTE_CAP`` states);
    ``varelim`` eliminates variables greedily by smallest intermediate table
    (each intermediate capped at ``VARELIM_BUCKET_CAP`` entries). Both raise
    :class:`CapacityExceededError` past their caps.

    ``varelim`` runs one elimination per query variable, in order 0..n-1, over
    one shared set of factor measures, and shares bucket eliminations between
    queries through a memo local to the call (bucket elimination, Dechter
    1999). A bucket is keyed on its variable and the ``id`` of each of its
    tables in table-id order; ids grow the same way on every query's path, so
    a key fixes the inputs and their order, and a hit is bit-identical to
    recomputing it. Only buckets whose scope union misses the query variable
    are stored: only those recur in other queries, so the memo holds at most
    one entry per variable. Each entry keeps its input tables alive, so no
    ``id`` in a key is reused. Every bucket computed is checked against the
    cap, and a stored one was checked when computed, so a query fails exactly
    where it would without the memo.
    """
    if engine == "brute":
        return _brute_marginals(g)
    if engine == "varelim":
        order = _elimination_order(g)
        base = {f.id: Measure._new(f.scope, f.sizes, f.table) for f in g.factors}
        memo: dict[tuple[int, ...], tuple[Measure, list[Measure]]] = {}
        return [_varelim_marginal(g, order, q, base, memo) for q in range(g.num_variables)]
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

    Computed once per graph; each query's elimination follows it, skipping
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


def _varelim_marginal(
    g: FactorGraph,
    order: list[int],
    q: int,
    base: dict[int, Measure],
    memo: dict[tuple[int, ...], tuple[Measure, list[Measure]]],
) -> Measure:
    """Marginal of ``q``: eliminate every other variable from ``base`` along ``order``.

    ``memo`` maps a bucket's key to its summed-out table and its inputs; see
    :func:`exact_marginals`.
    """
    size_of = {v.id: v.domain_size for v in g.variables}
    tables = dict(base)
    by_var: dict[int, set[int]] = {i: set() for i in range(g.num_variables)}
    for tid, t in tables.items():
        for v in t.scope:
            by_var[v].add(tid)
    next_id = len(tables)
    for v in order:
        if v == q or not by_var[v]:
            continue
        ids = sorted(by_var[v])
        bucket = [tables[tid] for tid in ids]
        key = (v, *map(id, bucket))
        hit = memo.get(key)
        if hit is not None:
            summed = hit[0]
        else:
            union = set().union(*(t.scope for t in bucket))
            weight = prod(size_of[u] for u in union)
            if weight > VARELIM_BUCKET_CAP:
                raise CapacityExceededError(
                    f"eliminating variable {v} needs a {weight}-entry table "
                    f"(cap {VARELIM_BUCKET_CAP})"
                )
            prodm = bucket[0]
            for t in bucket[1:]:
                prodm = multiply(prodm, t)
            summed = marginalize_out(prodm, {v})
            if q not in union:
                memo[key] = (summed, bucket)
        for tid, t in zip(ids, bucket):
            for u in t.scope:
                by_var[u].discard(tid)
            del tables[tid]
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

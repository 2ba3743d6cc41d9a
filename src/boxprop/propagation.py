"""Bound algorithms over subtrees and self-avoiding-walk trees.

Two leaf-to-root passes each produce a box guaranteed to contain the exact
marginal of a chosen root variable: one propagates boxes over a breadth-first
subtree of the factor graph, the other over the (possibly truncated) tree of
self-avoiding walks starting at the root. Because both trees embed into the
computation tree that loopy belief propagation unrolls, the same boxes also
contain any converged loopy BP belief for the root.

Loopy BP (:func:`bp_marginals`) and two exact-inference engines (brute-force
enumeration and variable elimination, :func:`exact_marginals`) are included
as oracles for checking those containment claims; their products and sums of
dense tables are private helpers here. The oracles, BP and both bound methods
turn a numpy overflow into a :class:`CapacityExceededError` saying where it
happened. ``BP_TOL``, ``BP_MAX_ITER`` and ``BP_DAMPING`` are the defaults of
:func:`bp_marginals` and of ``boxprop bp``.

Both methods are one engine, a method being a pair of a walk-tree builder and
a factor rule. A :class:`SawTree` is flat: int lists of endpoints, parent
endpoints, kind codes and child-range starts in breadth-first order, so one
reverse loop over them sends every message. The walk-tree method propagates
:func:`build_saw_tree`'s tree with the joint rule, the subtree method
:func:`build_subtree`'s with the factorized rule. Both builders read only the
graph's adjacency, ``FactorGraph.nbrs``, and list walks by one set of rules:
a walk to a node with no other neighbour is a ``dead_end`` when listed, and a
walk whose message is fixed before its children are listed is *spent* and
lists none (a variable sends its own simplex, a factor its frontier message).
In a walk tree that is each walk past the budget that is not a leaf; in a
subtree, each variable with an edge leaving the tree. The linked ``SawNode``
view (``SawTree.root_node``, not exported) holds each walk's kind and
children, with a spent walk's markers restored; it is built on first access
and read only by the benchmark tracer's walk counts.

A message is the int ``v``, standing for the simplex on variable ``v``, or a
:class:`Box`. One memo, keyed on a variable and its children's messages or on
the rule, factor, parent variable and children's messages, makes a repeated
local neighbourhood cost one tuple and one dict lookup; walk trees repeat
neighbourhoods many times. The keys rely on ``Box`` staying ``eq=False``, so
that a box hashes by identity. A miss computes its message from the key alone,
with no per-factor plan or cached box. A factor whose children all send
simplices sends a constant, the same under both rules: such frontier messages
come from one table per graph, which answers every pair of a factor and a
scope variable. A stacked build fills most of it without the five traced
kernels; a pair it leaves out is bounded by ``bound_sum_product`` when first
asked for. A key fixes its inputs' bytes and order and the kernels are
deterministic, so every bound is bit-identical to an unmemoized run.

The registry holding the memo and the frontier table is held weakly by graph,
made on a root's first bound, and dies with the graph. A bound that starts on
a registry whose memo exceeds ``MESSAGE_MEMO_CAP`` entries per bipartite node
clears it in place. Bound the roots of a graph from one thread at a time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from heapq import heapify, heappop, heappush
from math import frexp, inf, prod
from time import perf_counter
from weakref import WeakKeyDictionary

import numpy as np

from .errors import CapacityExceededError, ZeroMeasureError
from .factorgraph import TABLE_CAP, FactorGraph, stacked_tables
from .measure import (
    Box,
    Measure,
    Simplex,
    bound_sum_product,
    bound_sum_product_joint,
    box_product_disjoint_sbb,
    box_product_same_scope,
    frontier_boxes,
    full_box,
    normalized_corner_box,
    unit_box,
)

__all__ = [
    "SawTree",
    "BoundResult",
    "BpResult",
    "build_subtree",
    "boxprop_subtree",
    "build_saw_tree",
    "boxprop_sawtree",
    "bp_marginals",
    "exact_marginals",
    "VARELIM_BUCKET_CAP",
    "MESSAGE_MEMO_CAP",
    "BP_TOL",
    "BP_MAX_ITER",
    "BP_DAMPING",
]

VARELIM_BUCKET_CAP = 1 << 20
MESSAGE_MEMO_CAP = 1024
BP_TOL = 1e-9
BP_MAX_ITER = 10_000
BP_DAMPING = 0.0

JOINT = "joint"
FACTORIZED = "factorized"


class _Frontier(dict):
    """``(fid, keep)`` to the message both rules send when every child is a simplex.

    Made from :func:`frontier_boxes`' table. A pair it leaves out is bounded
    on first request by ``bound_sum_product`` on simplices, which masks a zero
    column and raises past the cap or the floating-point range; a box is kept.
    """

    def __init__(self, factors):
        super().__init__(frontier_boxes(factors))
        self.factors = factors

    def __missing__(self, pair: tuple[int, int]) -> Box:
        fid, keep = pair
        f = self.factors[fid]
        sets = {v: Simplex(v, d) for v, d in zip(f.scope, f.sizes) if v != keep}
        box = self[pair] = bound_sum_product(f, keep, sets)
        return box


class _Registry:
    """One graph's message memo and its constant messages.

    ``memo`` maps a variable key ``(v, *child messages)`` or a factor key
    ``(rule, fid, keep, *child messages)`` to the box sent; a factor key's
    leading ``str`` keeps the two kinds apart, and its children follow the
    factor's other scope variables in ascending order. ``frontier`` is the
    :class:`_Frontier` table, built on first use.
    """

    def __init__(self, g: FactorGraph):
        self.num_variables = g.num_variables
        self.factors = g.factors
        self.sizes = g.sizes
        self.memo: dict[tuple, Box] = {}

    @cached_property
    def frontier(self) -> _Frontier:
        return _Frontier(self.factors)


_REGISTRIES: "WeakKeyDictionary[FactorGraph, _Registry]" = WeakKeyDictionary()


def _registry(g: FactorGraph) -> _Registry:
    """The graph's registry, made on first use; its memo is cleared when full."""
    reg = _REGISTRIES.get(g)
    if reg is None:
        reg = _REGISTRIES[g] = _Registry(g)
    elif len(reg.memo) > MESSAGE_MEMO_CAP * len(g.nbrs):
        reg.memo.clear()
    return reg


def _variable_message(reg: _Registry, v: int, kids: tuple[Box, ...]) -> Box:
    """The box variable ``v`` sends, computed on a memo miss.

    ``kids`` holds its children's boxes, none a simplex (which absorbs the
    product); no children send the unit box.
    """
    box = box_product_same_scope(kids) if kids else unit_box(v, reg.sizes[v])
    reg.memo[(v,) + kids] = box
    return box


def _factor_message(
    reg: _Registry, rule: str, fid: int, keep: int, kids: tuple[int | Box, ...]
) -> Box:
    """The box factor ``fid`` sends to ``keep`` under ``rule``, computed on a miss.

    ``kids`` holds the messages of the other scope variables in ascending
    variable order. With simplices only, both rules send the frontier table's
    box, as the joint corner images are convex combinations of the factor's
    columns. Otherwise the ``JOINT`` rule encloses them, in scope order, in
    one joint box (a simplex becomes the [0,1] box on its variable) and
    enumerates its corners; the ``FACTORIZED`` rule enumerates each set's
    extreme points separately. With one child, both rules compute
    ``f.matrices[keep] @ corners.T`` from the same corner matrix, so they send
    the same bytes.
    """
    f = reg.factors[fid]
    if all(type(m) is int for m in kids):
        box = reg.frontier[fid, keep]
    else:
        others = [v for v in f.scope if v != keep]
        sent = dict(zip(sorted(others), kids))
        if rule == JOINT:
            boxes = [full_box(v, reg.sizes[v]) if type(sent[v]) is int else sent[v] for v in others]
            box = bound_sum_product_joint(f, keep, box_product_disjoint_sbb(boxes))
        else:
            sets = {v: Simplex(v, reg.sizes[v]) if type(m) is int else m for v, m in sent.items()}
            box = bound_sum_product(f, keep, sets)
    reg.memo[(rule, fid, keep) + kids] = box
    return box


@dataclass(eq=False)
class BoundResult:
    """A per-variable bound: a box on the root's marginal, plus bookkeeping."""

    variable: int
    box: Box
    method: str
    nodes_used: int
    elapsed: float


# ``SawTree.kind`` codes index ``_KINDS``; from ``_CYCLE`` up a walk is cut off.
# A spent walk is an inner walk left unexpanded, and the node view shows it so.
_KINDS = ("root", "inner", "dead_end", "cycle", "truncated", "inner")
_ROOT, _INNER, _DEAD_END, _CYCLE, _TRUNCATED, _SPENT = range(len(_KINDS))


@dataclass(eq=False, slots=True)
class SawNode:
    """One walk of a :class:`SawTree`'s node view: its kind and its child walks.

    Kinds: ``root``, ``inner``, ``dead_end`` (no admissible extension),
    ``cycle`` (endpoint revisits the walk; sends a simplex), and ``truncated``
    (marker for an extension cut off by the node budget; sends a simplex).
    The walk's endpoint is in the tree's flat lists.
    """

    kind: str
    children: list["SawNode"] = field(default_factory=list)


@dataclass(eq=False)
class SawTree:
    """Tree of self-avoiding walks from a root variable, flat in breadth-first order.

    Walk ``i`` ends at bipartite node ``end[i]`` (variable ``v`` is ``v``,
    factor ``fid`` is the graph's ``num_variables + fid``); ``prev[i]`` is the
    endpoint of its parent walk (-1 for the root, walk 0); ``kind[i]`` indexes
    ``_KINDS``: root, inner, dead_end, cycle, truncated, or spent (listed
    with no children: in a walk tree an inner walk past the budget, in a
    subtree a variable with an edge leaving the tree); and its children are
    the walks ``first[i]:first[i + 1]``, in ascending endpoint order.
    ``node_count`` counts the nodes the builder spent its budget on: in a
    walk tree the walks that are not markers, in a subtree the nodes its join
    pass joins, those left unlisted below a variable with a marker child too.
    ``nbrs`` is the graph's adjacency, ``FactorGraph.nbrs``. These lists are
    the tree; ``root_node`` is a view of them.
    """

    root: int
    node_count: int
    end: list[int]
    prev: list[int]
    kind: list[int]
    first: list[int]
    nbrs: tuple[tuple[int, ...], ...] = field(repr=False)

    @cached_property
    def root_node(self) -> SawNode:
        """The walk kinds as linked :class:`SawNode` objects, built on first access.

        A spent walk is shown as ``inner``, over the markers it left out: one
        ``truncated`` node per neighbour of its endpoint but its parent's.
        """
        end, prev, kind, first, nbrs = self.end, self.prev, self.kind, self.first, self.nbrs
        nodes = [SawNode(_KINDS[k]) for k in kind]
        for i, node in enumerate(nodes):
            if kind[i] == _SPENT:
                node.children = [SawNode("truncated") for w in nbrs[end[i]] if w != prev[i]]
            else:
                node.children = nodes[first[i] : first[i + 1]]
        return nodes[0]


def _propagate(reg: _Registry, t: SawTree, rule: str) -> Box:
    """One leaf-to-root pass over a walk tree; factor nodes apply ``rule``.

    Walks are visited in reverse breadth-first order, so every child's message
    is known before its parent's. A cut-off walk sends the simplex on the
    variable it reaches: its endpoint, or its parent's when it ends at a factor.
    A variable with a simplex child sends its own simplex, so a spent variable
    does. A spent factor's markers would all send simplices, so it sends its
    frontier message, read from the frontier table, which answers every pair.
    Memo hits are read here; only a miss calls the message functions. The
    root's belief is the vacuous [0,1] box when it has no children or one
    sends a simplex; else the product of its incoming boxes is normalized
    corner by corner and enclosed in its smallest bounding box.
    """
    n = reg.num_variables
    end, prev, kind, first = t.end, t.prev, t.kind, t.first
    hit = reg.memo.get
    msg: list[int | Box] = [0] * len(end)
    for i in range(len(end) - 1, 0, -1):
        u = end[i]
        if kind[i] >= _CYCLE:
            msg[i] = (u if u < n else prev[i] if kind[i] < _SPENT
                      else reg.frontier[u - n, prev[i]])
            continue
        kids = tuple(msg[first[i] : first[i + 1]])
        if u >= n:
            m = hit((rule, u - n, prev[i]) + kids)
            msg[i] = _factor_message(reg, rule, u - n, prev[i], kids) if m is None else m
        elif u in kids:
            msg[i] = u
        else:
            m = hit((u,) + kids)
            msg[i] = _variable_message(reg, u, kids) if m is None else m
    kids, root = msg[first[0] : first[1]], t.root
    if not kids or root in kids:
        return full_box(root, reg.sizes[root])
    return normalized_corner_box(box_product_same_scope(kids))


def _check_build(g: FactorGraph, root: int, max_nodes: int) -> None:
    """Raise ``ValueError`` unless ``root`` and ``max_nodes`` pass the builders' checks."""
    if max_nodes < 1:
        raise ValueError("max_nodes must be >= 1")
    if not 0 <= root < g.num_variables:
        raise ValueError(f"root {root} is not a variable of the graph")


def build_saw_tree(g: FactorGraph, root: int, max_nodes: int) -> SawTree:
    """Breadth-first enumeration of self-avoiding walks from ``root``.

    A walk extends to every neighbor of its endpoint except the node it just
    came from (children in ascending id order). An extension whose endpoint
    already lies on the walk becomes a ``cycle`` leaf, and one whose endpoint
    has no other neighbour a ``dead_end``; neither is expanded. Once
    ``max_nodes`` walks exist, further extensions of the walk being expanded
    become ``truncated`` markers, which propagate the loosest possible
    message, and expansion stops: every later inner walk is *spent*, its
    child range empty (the root is always expanded). The tree's lists are
    the queue: walks are expanded in the order they were appended. On the seed-42 5x5 grids
    at 5,000 nodes the 25 roots list 125,030 walks (binary) and 125,003
    (ternary), where listing every marker gave 163,177 and 171,953.
    """
    _check_build(g, root, max_nodes)
    nbrs = g.nbrs
    end, prev, kind, first = [root], [-1], [_ROOT], []
    # Each counted walk's node set as a bitmask (a marker is never expanded,
    # so it has none); a node gets its bit at its first visit (the root 1,
    # then 2, 4, ...), so masks grow with the tree only.
    bit = [0] * len(nbrs)
    bit[root] = top = 1
    on_walk = [1]
    count = 1
    for i, u in enumerate(end):
        if count == max_nodes and i:
            break
        first.append(len(end))
        if kind[i] > _INNER:
            continue
        p, mask = prev[i], on_walk[i]
        for w in nbrs[u]:
            if w == p:
                continue
            end.append(w)
            prev.append(u)
            if count < max_nodes:
                count += 1
                b = bit[w]
                if not b:
                    bit[w] = b = top = top << 1
                on_walk.append(mask | b)
                kind.append(_CYCLE if mask & b else _INNER if len(nbrs[w]) > 1 else _DEAD_END)
            else:
                kind.append(_TRUNCATED)
    # Walks from ``spent`` on came after the budget was spent: no children.
    spent = len(first)
    kind[spent:] = [_SPENT if k == _INNER else k for k in kind[spent:]]
    first += [len(end)] * (len(end) + 1 - spent)
    return SawTree(root, count, end, prev, kind, first, nbrs)


def build_subtree(g: FactorGraph, root: int, max_nodes: int) -> SawTree:
    """Breadth-first subtree from ``root``, as the walk tree its bound runs on.

    A join pass first runs a plain breadth-first search from ``root``: a node
    joins the tree when first reached, unless ``max_nodes`` nodes already
    have, so nodes join in ascending id order and the result is deterministic
    for a given graph and budget. ``node_count`` is the number that join. The
    walks are then listed by :func:`build_saw_tree`'s rules: an edge from a
    tree node to a node it joined is a walk (a ``dead_end`` if that node has
    no other neighbour), and every other edge but the one to its parent is a
    ``truncated`` marker. A marker makes a variable send its own simplex, so
    a joined variable with an edge leaving the tree is *spent*, listed with no
    children, and a root with one lists only its markers. On pairwise factor
    graphs the joint rule of :func:`boxprop_sawtree` gives the same box over
    this tree as the factorized rule of :func:`boxprop_subtree`.
    """
    _check_build(g, root, max_nodes)
    n, nbrs = g.num_variables, g.nbrs
    # ``parent[w]``: the node that joined ``w`` (-1 if none; the root is its
    # own); ``cut[v]``: whether variable ``v`` has a marker child.
    parent = [-1] * len(nbrs)
    parent[root] = root
    cut = bytearray(len(nbrs))
    joined = [root]
    for u in joined:
        p = parent[u]
        for w in nbrs[u]:
            if parent[w] < 0 and len(joined) < max_nodes:
                parent[w] = u
                joined.append(w)
            elif u < n and w != p:
                cut[u] = 1
    end, prev, kind, first = [root], [-1], [_ROOT], []
    for i, u in enumerate(end):
        first.append(len(end))
        if kind[i] > _INNER:
            continue
        p = prev[i]
        for w in nbrs[u]:
            if w == p or cut[u] and parent[w] == u:
                continue
            end.append(w)
            prev.append(u)
            if parent[w] != u:
                kind.append(_TRUNCATED)
            else:
                kind.append(_SPENT if cut[w] else _INNER if len(nbrs[w]) > 1 else _DEAD_END)
    first.append(len(end))
    return SawTree(root, len(joined), end, prev, kind, first, nbrs)


def _bound(g: FactorGraph, t: SawTree, rule: str, method: str) -> BoundResult:
    """One pass over ``t`` under ``rule``, timed, labelled ``method``; an overflow raises."""
    start = perf_counter()
    try:
        with np.errstate(over="raise", invalid="raise"):
            belief = _propagate(_registry(g), t, rule)
    except FloatingPointError:
        raise CapacityExceededError(
            f"{method} propagation left the floating-point range at root {t.root}"
        ) from None
    return BoundResult(t.root, belief, method, t.node_count, perf_counter() - start)


def boxprop_subtree(g: FactorGraph, t: SawTree) -> BoundResult:
    """Leaf-to-root box propagation over :func:`build_subtree`'s tree.

    The returned box contains the exact marginal of the root variable and any
    converged loopy BP belief for it, whatever the subtree choice. Factor nodes
    apply the factorized rule, and a graph edge missing from the subtree sends
    a whole simplex, as a truncated walk does.
    """
    return _bound(g, t, FACTORIZED, "subtree")


def boxprop_sawtree(g: FactorGraph, t: SawTree) -> BoundResult:
    """Leaf-to-root box propagation over a self-avoiding-walk tree.

    The returned box contains the exact root marginal and any converged loopy
    BP belief, whether or not the tree was truncated.
    """
    return _bound(g, t, JOINT, "sawtree")


@dataclass(eq=False)
class BpResult:
    beliefs: list[Measure]
    converged: bool
    iterations: int
    residual: float


@np.errstate(over="raise", invalid="raise")
def bp_marginals(
    g: FactorGraph,
    tol: float = BP_TOL,
    max_iter: int = BP_MAX_ITER,
    damping: float = BP_DAMPING,
) -> BpResult:
    """Loopy belief propagation with synchronous (parallel) updates.

    Messages are normalized after every update; convergence is declared when
    the largest componentwise message change in a sweep drops below ``tol``.
    Non-convergence within ``max_iter`` sweeps is reported, not raised.
    Requires a graph that passes validation, ``max_iter >= 1`` and a
    positive, finite ``tol``. Positivity does not keep the messages into a
    variable from multiplying to zero (unary factors ``[1, 0]`` and ``[0, 1]``
    on it): such a ``0 / 0`` raises :class:`ZeroMeasureError` naming it, and
    a sweep that overflows raises :class:`CapacityExceededError`.
    Damping keeps them above zero, so the belief products also run over the
    last sweep's undamped messages and raise as undamped BP would.

    Messages live in one ``(edges, d)`` array per domain size ``d`` and
    direction, one row per factor-variable edge; the edge ``(fid, v)`` has the
    same row in both directions. A plan built once per call stacks the tables
    of all factors with the same domain sizes, each slice read in Fortran
    order as :meth:`Factor.table_nd` reads it; each position of such a stack
    is one group of edges. A sweep makes one stacked ``np.matmul`` per
    contraction of a group (one for a pairwise factor, ``arity - 1`` in
    general) against its gathered source rows and scatters the result into
    its target rows. The arithmetic is that of a plain per-edge loop
    (``np.tensordot`` contractions, 1-D sums and products) on the same
    operands in the same order, so every belief, ``iterations`` and
    ``residual`` equals that loop's bit for bit:

    - factor to variable: each contraction moves the summed axis last and
      reshapes, as ``np.tensordot`` does (a view where one exists, else a
      C-order copy), so each slice has the strides the per-edge ``np.dot``
      saw and BLAS runs the same kernel on it; making an F-ordered slice
      contiguous instead changes results in the last bit. A unary factor's
      row is its table, normalized like the others;
    - normalization divides by ``x.sum(axis=1)``, the same pairwise sum per
      row as a 1-D ``sum``;
    - variable to factor (and the final beliefs) multiply gathered rows in
      ``var_factors`` order, padded with a row of ones made once per call
      (``x * 1.0 == x``);
    - damping and the residual, a max of absolute differences, are array
      operations; a max is exact in any order.
    """
    if not 0.0 <= damping < 1.0:
        raise ValueError("damping must lie in [0, 1)")
    if not max_iter >= 1:
        raise ValueError("max_iter must be >= 1")
    if not 0.0 < tol < inf:
        raise ValueError("tol must be positive and finite")
    size = g.sizes
    edges: dict[int, list[tuple[int, int]]] = {}
    by_sizes: dict[tuple[int, ...], list] = {}
    for f in g.factors:
        by_sizes.setdefault(f.sizes, []).append(f)
        for v in f.scope:
            edges.setdefault(size[v], []).append((f.id, v))
    slot = {e: r for es in edges.values() for r, e in enumerate(es)}
    owner = {d: [v for _, v in es] for d, es in edges.items()}
    raw = {d: np.empty((len(es), d)) for d, es in edges.items()}
    plan = []
    for sizes, fs in by_sizes.items():
        k, n = len(sizes), len(fs)
        nd = stacked_tables(fs)
        slots = np.array([[slot[(f.id, v)] for v in f.scope] for f in fs], dtype=np.intp).T
        if k == 1:
            raw[sizes[0]][slots[0]] = nd
            continue
        for pos in range(k):
            # One contraction per other axis, highest first, each moving its axis last.
            steps, dims = [], list(sizes)
            for q in [q for q in range(k - 1, -1, -1) if q != pos]:
                rest = dims[:q] + dims[q + 1 :]
                perm = (0, *[a + 1 for a in range(len(dims)) if a != q], q + 1)
                steps.append((perm, (n, prod(rest), dims[q]), (n, *rest), dims[q], slots[q]))
                dims = rest
            plan.append((raw[sizes[pos]], slots[pos], nd, steps))
    gather = {
        d: _padded([[slot[(o, v)] for o in g.var_factors(v) if o != fid] for fid, v in es], len(es))
        for d, es in edges.items()
    }
    padded = {d: np.ones((len(es) + 1, d)) for d, es in edges.items()}
    f2v = {d: np.full((len(es), d), 1.0 / d) for d, es in edges.items()}
    v2f = {d: x.copy() for d, x in f2v.items()}
    converged = False
    for iterations in range(1, max_iter + 1):
        try:
            for out, target, cur, steps in plan:
                for perm, mshape, shape, d, s in steps:
                    cur = np.matmul(cur.transpose(perm).reshape(mshape), v2f[d][s][:, :, None])
                    cur = cur.reshape(shape)
                out[target] = cur
            new_f2v = {d: _normalized(x, owner[d]) for d, x in raw.items()}
        except FloatingPointError:
            raise CapacityExceededError(
                f"BP left the floating-point range in sweep {iterations}"
            ) from None
        new_v2f = {d: _gathered_products(f2v[d], gather[d], padded[d], owner[d]) for d in edges}
        if damping:
            undamped = new_f2v
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
        if damping:
            _gathered_products(undamped[d], idx, padded[d], variables)
        for v, b in zip(variables, _gathered_products(f2v[d], idx, padded[d], variables)):
            beliefs[v] = Measure._new((v,), (d,), b)
    return BpResult([beliefs[v] for v in range(g.num_variables)], converged, iterations, residual)


def _padded(lists: list[list[int]], pad: int) -> np.ndarray:
    """Row-index lists as one int array, padded on the right with ``pad``."""
    width = max(1, max(map(len, lists)))
    return np.array([r + [pad] * (width - len(r)) for r in lists], dtype=np.intp)


def _gathered_products(
    rows: np.ndarray, idx: np.ndarray, padded: np.ndarray, owner: list[int]
) -> np.ndarray:
    """Normalized products of the ``rows`` each row of ``idx`` names, in its order.

    ``rows`` is copied into ``padded``, whose extra last row of ones is named
    by the index ``len(rows)``, which pads ``idx``; product ``r`` goes into
    variable ``owner[r]``.
    """
    padded[:-1] = rows
    p = padded.take(idx[:, 0], axis=0)
    for c in range(1, idx.shape[1]):
        p = p * padded.take(idx[:, c], axis=0)
    return _normalized(p, owner)


def _normalized(p: np.ndarray, owner: list[int]) -> np.ndarray:
    """``p``'s rows over their sums; ``bp_marginals`` raises on ``0 / 0`` rows."""
    z = p.sum(axis=1, keepdims=True)
    try:
        return p / z
    except FloatingPointError:
        v = owner[int(z.argmin())]
        raise ZeroMeasureError(f"the BP messages into variable {v} multiply to zero") from None


def exact_marginals(g: FactorGraph, engine: str = "brute") -> list[Measure]:
    """Exact normalized single-variable marginals.

    ``brute`` materializes the joint table (capped at ``TABLE_CAP`` states);
    ``varelim`` runs bucket-tree elimination (Kask, Dechter, Larrosa and
    Dechter 2005) along a greedy min-weight order, with every clique capped at
    ``VARELIM_BUCKET_CAP`` entries. Both raise :class:`CapacityExceededError`
    past their caps or the floating-point range, and :class:`ZeroMeasureError`
    naming a variable when every joint assignment has weight zero
    (``validate`` allows that). Factor tables are finite from construction,
    so only an overflow, which both engines trap with ``np.errstate``, can
    make a value infinite or NaN.

    Each factor goes into the bucket of its earliest-eliminated variable. An
    upward pass along the order multiplies each bucket's factors and its
    children's messages, sums out the bucket's variable and sends the result
    to the bucket of that result's earliest-eliminated variable, its parent;
    a scalar result ends a connected component and is dropped. A downward
    pass in reverse order gives each variable's marginal from its bucket
    product times its parent's message, and sends each child the same
    product without the child's own message, summed down to that message's
    scope. Each message is scaled by a power of two, so strong couplings do
    not overflow. The order is made first and checks each bucket's clique
    (the union of its tables' scopes) against the cap, so no table is built
    for a graph past the cap; every later table lies on a subset of a clique.
    """
    if engine == "brute":
        return _brute_marginals(g)
    if engine == "varelim":
        return _bucket_tree_marginals(g, _elimination_order(g))
    raise ValueError(f"unknown exact-inference engine {engine!r}")


def _brute_marginals(g: FactorGraph) -> list[Measure]:
    """All marginals from the joint table, refused if it leaves the floating-point range."""
    total = prod(g.sizes)
    if total > TABLE_CAP:
        raise CapacityExceededError(
            f"joint distribution has {total} states, above the cap of {TABLE_CAP}"
        )
    joint, out = Measure._new((), (), np.ones(1)), []
    try:
        with np.errstate(over="raise", invalid="raise"):
            for f in g.factors:
                at = f"factor {f.id}"
                joint = _multiply(joint, Measure._new(f.scope, f.sizes, f.table))
            for v in range(g.num_variables):
                at = f"the marginal of variable {v}"
                out.append(_marginal(joint, v))
    except FloatingPointError:
        raise CapacityExceededError(f"brute force left the floating-point range at {at}") from None
    return out


def _marginal(m: Measure, v: int) -> Measure:
    """Variable ``v``'s normalized marginal of ``m``; zero mass means a zero joint measure."""
    m = _marginalize_out(m, set(m.scope) - {v})
    z = m.values.sum()
    if not z > 0.0:
        raise ZeroMeasureError(f"every joint assignment has weight zero, so the marginal of "
                               f"variable {v} has zero mass")
    return Measure._new(m.scope, m.sizes, m.values / z)


def _elimination_order(g: FactorGraph) -> list[int]:
    """Greedy min-weight elimination order on the variable interaction graph.

    A variable's weight is the size of the table eliminating it would build:
    its domain size times its live neighbours'. Each step eliminates the
    lightest variable, the smallest id among equals, and connects its live
    neighbours; only their weights change, by the variable each loses and the
    neighbours it gains, and a popped entry whose weight is out of date is
    skipped. A popped weight is the size of that variable's bucket clique (it
    and its live neighbours), so the cap is checked here.
    """
    n, nbrs, size_of = g.num_variables, g.nbrs, g.sizes
    neighbors = [{w for fn in nbrs[v] for w in nbrs[fn] if w != v} for v in range(n)]
    weight = [size_of[v] * prod(size_of[u] for u in neighbors[v]) for v in range(n)]
    heap = [(w, v) for v, w in enumerate(weight)]
    heapify(heap)
    eliminated = [False] * n
    order: list[int] = []
    while heap:
        w, v = heappop(heap)
        if eliminated[v] or w != weight[v]:
            continue
        if w > VARELIM_BUCKET_CAP:
            raise CapacityExceededError(
                f"eliminating variable {v} needs a {w}-entry table (cap {VARELIM_BUCKET_CAP})"
            )
        eliminated[v] = True
        order.append(v)
        live = neighbors[v]
        for u in live:
            ns = neighbors[u]
            ns.discard(v)
            gained = live - ns
            gained.discard(u)
            ns |= gained
            weight[u] = weight[u] // size_of[v] * prod(size_of[x] for x in gained)
            heappush(heap, (weight[u], u))
    return order


def _bucket_tree_marginals(g: FactorGraph, order: list[int]) -> list[Measure]:
    """All marginals by one upward and one downward pass; see :func:`exact_marginals`.

    Every variable lies in some factor, so every bucket gets a factor or a
    child's message: a variable stays in each message until its own bucket.
    An overflow or invalid value raises :class:`CapacityExceededError` naming
    the bucket's variable, as does a zero marginal entry when every table is
    positive, which only underflow makes.
    """
    n = g.num_variables
    earliest = {v: k for k, v in enumerate(order)}.__getitem__
    bucket: list[list[Measure]] = [[] for _ in range(n)]
    for f in g.factors:
        bucket[min(f.scope, key=earliest)].append(Measure._new(f.scope, f.sizes, f.table))
    # Each bucket's factor product, its children, and the messages each way;
    # ``None`` stands for the constant 1.
    local: list[Measure | None] = [None] * n
    children: list[list[int]] = [[] for _ in range(n)]
    up: list[Measure | None] = [None] * n
    down: list[Measure | None] = [None] * n
    out: list = [None] * n
    try:
        with np.errstate(over="raise", invalid="raise"):
            for v in order:
                for t in bucket[v]:
                    local[v] = _times(local[v], t)
                clique = local[v]
                for c in children[v]:
                    clique = _times(clique, up[c])
                msg = _marginalize_out(clique, {v})
                if msg.scope:
                    up[v] = _scaled(msg)
                    children[min(msg.scope, key=earliest)].append(v)
            for v in reversed(order):
                kids = children[v]
                # prefix[j]: the bucket's factors and parent message times the first j
                # children's messages; suffix[j]: the messages of children j + 1 on.
                prefix = [_times(local[v], down[v])]
                for c in kids:
                    prefix.append(_times(prefix[-1], up[c]))
                suffix: list[Measure | None] = [None]
                for c in reversed(kids[1:]):
                    suffix.append(_times(up[c], suffix[-1]))
                suffix.reverse()
                out[v] = _marginal(prefix[-1], v)
                for j, c in enumerate(kids):
                    rest = _times(prefix[j], suffix[j])
                    if rest is not None:
                        drop = set(rest.scope) - set(up[c].scope)
                        down[c] = _scaled(_marginalize_out(rest, drop))
            for v in range(n):
                if not out[v].values.all():
                    if all(f.table.all() for f in g.factors):
                        raise FloatingPointError("underflow")
                    break
    except FloatingPointError:
        raise CapacityExceededError(
            f"variable elimination left the floating-point range at the bucket of variable {v}"
        ) from None
    return out


def _multiply(a: Measure, b: Measure) -> Measure:
    """Pointwise product on the union scope: ``a``'s, then ``b``'s new variables.

    ``a``'s values get unit axes for the new variables and ``b``'s axes are
    put in result order, so each entry is one IEEE product.
    """
    scope, sizes = a.scope, a.sizes
    at = []  # result axis of each of b's variables
    for v, d in zip(b.scope, b.sizes):
        if v not in scope:
            scope += (v,)
            sizes += (d,)
        at.append(scope.index(v))
    shape = [1] * len(scope)
    for k, d in zip(at, b.sizes):
        shape[k] = d
    bn = b.values.reshape(b.sizes, order="F").transpose(sorted(range(len(at)), key=at.__getitem__))
    an = a.values.reshape(a.sizes + (1,) * (len(scope) - len(a.scope)), order="F")
    return Measure._new(scope, sizes, (an * bn.reshape(shape)).ravel(order="F"))


def _marginalize_out(m: Measure, drop: set[int]) -> Measure:
    """Sum over the dropped variables, one ``np.add.reduce`` over the Fortran-order view."""
    axes = tuple(k for k, v in enumerate(m.scope) if v in drop)
    summed = np.add.reduce(m.values.reshape(m.sizes, order="F"), axis=axes)
    scope = tuple(v for v in m.scope if v not in drop)
    sizes = tuple(d for v, d in zip(m.scope, m.sizes) if v not in drop)
    return Measure._new(scope, sizes, summed.ravel(order="F"))


def _scaled(m: Measure) -> Measure:
    """``m`` times the power of two that brings its largest entry into [0.5, 1).

    Messages stay bounded however strong the couplings, so their products do
    not overflow. A power-of-two scaling is exact and cancels in the final
    normalization: without overflow or underflow the marginals keep their bytes.
    """
    _, e = frexp(np.maximum.reduce(m.values))
    return Measure._new(m.scope, m.sizes, np.ldexp(m.values, -e))


def _times(a: Measure | None, b: Measure | None) -> Measure | None:
    """Product of two optional measures; ``None`` stands for the constant 1."""
    if a is None:
        return b
    if b is None:
        return a
    return _multiply(a, b)

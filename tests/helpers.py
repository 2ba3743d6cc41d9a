"""Shared graph builders and seeded random generators for the test suite."""

from math import prod

import numpy as np

from boxprop.errors import CapacityExceededError, ZeroMeasureError
from boxprop.factorgraph import Factor, FactorGraph, Violation
from boxprop.measure import (
    ENUMERATION_CAP,
    Box,
    Measure,
    MessageSet,
    Simplex,
    bound_sum_product,
    bound_sum_product_joint,
    box_corner_matrix,
    box_product_disjoint_sbb,
    box_product_same_scope,
    full_box,
    unit_box,
)
from boxprop.measure import _check_single_var, _corner_table
from boxprop.propagation import (
    _CYCLE,
    _DEAD_END,
    _INNER,
    _ROOT,
    _SPENT,
    _TRUNCATED,
    JOINT,
    BpResult,
    SawTree,
    _padded,
)


def graph_from(tables):
    """Build a graph from (scope, sizes, values) triples, ids by position."""
    return FactorGraph(
        [
            Factor(i, tuple(scope), tuple(sizes), np.asarray(values, dtype=float))
            for i, (scope, sizes, values) in enumerate(tables)
        ]
    )


SYM_TABLE = (1.0, 2.0, 2.0, 1.0)

# Declares one factor block but holds two; the second starts on line 10.
OVERLONG_FG = "1\n\n1\n0\n2\n2\n0 1\n1 1\n\n1\n1\n2\n2\n0 1\n1 1\n"

# A block whose sizes (line 5) multiply to 2**48 table entries, which no
# machine could allocate: the reader must refuse it before allocating.
HUGE_BLOCK_FG = "1\n\n3\n0 1 2\n65536 65536 65536\n0\n"
HUGE_BLOCK_ERROR = "line 5: 281474976710656 table entries, above the cap 67108864"

# A 2-entry block, then an 8192x8192 block (sizes on line 10) of 2**26 entries,
# which the cap allows alone but not in a file that already holds 2 entries.
TOTAL_PAST_CAP_FG = "2\n\n1\n0\n2\n0\n\n2\n1 2\n8192 8192\n0\n"
TOTAL_PAST_CAP_ERROR = "line 10: 67108866 table entries, above the cap 67108864"

# A 2-entry block that lists index 0 on lines 7 and 9.
REPEATED_INDEX_FG = "1\n\n1\n0\n2\n3\n0 1\n1 1\n0 5\n"
REPEATED_INDEX_ERROR = "line 9: table index 0 repeated, first set on line 7"

# A ternary 4-ary factor on (0, 1, 2, 3) and a pairwise factor (0, 4). At a
# budget of 3 every child of the root's factors is cut off, so both send
# frontier messages, the 4-ary one over 27 other states (the joint rule's
# [0,1] box on them has 2**27 corners). CI writes the same file.
WIDE_FACTOR_FG = (
    "2\n\n4\n0 1 2 3\n3 3 3 3\n81\n"
    + "".join(f"{i} {i % 7 + 1}\n" for i in range(81))
    + "\n2\n0 4\n3 3\n9\n"
    + "".join(f"{i} {i % 4 + 1}\n" for i in range(9))
)


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


def grid_and_triangle_tables(rng):
    """Two components as (scope, sizes, values) lists: a binary 3x3 grid
    (variables 0-8, 12 couplings, unary factors on 0 and 4) and a ternary
    triangle (variables 9-11, three couplings and one 3-ary factor)."""
    coupling = lambda d, e: rng.uniform(0.1, 2.0, d * e)
    grid = [((r * 3 + c, r * 3 + c + 1), (2, 2), coupling(2, 2)) for r in range(3) for c in range(2)]
    grid += [((k, k + 3), (2, 2), coupling(2, 2)) for k in range(6)]
    grid += [((0,), (2,), coupling(2, 1)), ((4,), (2,), coupling(2, 1))]
    triangle = [((9, 10), (3, 3), coupling(3, 3)), ((10, 11), (3, 3), coupling(3, 3)),
                ((9, 11), (3, 3), coupling(3, 3)), ((9, 10, 11), (3, 3, 3), coupling(9, 3))]
    return grid, triangle


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


def _reference_aligned(m: Measure, scope: tuple[int, ...]) -> np.ndarray:
    """ndarray with axes following ``scope``, singleton where a variable is absent."""
    present = [v for v in scope if v in m.scope]
    perm = [m.scope.index(v) for v in present]
    nd = m.values.reshape(m.sizes, order="F").transpose(perm)
    missing = tuple(k for k, v in enumerate(scope) if v not in m.scope)
    return np.expand_dims(nd, axis=missing) if missing else nd


def reference_multiply(a: Measure, b: Measure) -> Measure:
    """The pointwise product by aligning both operands to the union scope.

    The result scope is ``a``'s followed by ``b``'s new variables; each entry
    is one product, so ``propagation._multiply`` must give the same bytes.
    """
    for v, d in zip(b.scope, b.sizes):
        if v in a.scope and a.sizes[a.scope.index(v)] != d:
            raise ValueError(f"domain mismatch for variable {v}")
    scope = a.scope + tuple(v for v in b.scope if v not in a.scope)
    size_of = dict(zip(a.scope, a.sizes)) | dict(zip(b.scope, b.sizes))
    sizes = tuple(size_of[v] for v in scope)
    out = _reference_aligned(a, scope) * _reference_aligned(b, scope)
    return Measure._new(scope, sizes, np.ravel(out, order="F"))


def reference_marginalize_out(m: Measure, drop) -> Measure:
    """Sum over ``drop`` with ``ndarray.sum`` on the F-order view of ``m``.

    ``propagation._marginalize_out`` sums the same view and must give the same bytes.
    """
    drop = set(drop)
    unknown = drop - set(m.scope)
    if unknown:
        raise ValueError(f"cannot marginalize unknown variables {sorted(unknown)}")
    if not drop:
        return Measure._new(m.scope, m.sizes, m.values.copy())
    axes = tuple(k for k, v in enumerate(m.scope) if v in drop)
    keep = tuple(k for k, v in enumerate(m.scope) if v not in drop)
    summed = m.values.reshape(m.sizes, order="F").sum(axis=axes)
    scope = tuple(m.scope[k] for k in keep)
    sizes = tuple(m.sizes[k] for k in keep)
    return Measure._new(scope, sizes, np.ravel(summed, order="F"))


# The factor kernels' tails as first written: ``ndarray`` reductions, a fresh
# ``np.eye`` per simplex child and summed-out matrices through ``np.moveaxis``.
# The engine's kernels must give the same bytes, errors and messages.


def reference_box_corner_matrix(box: Box) -> np.ndarray:
    lower = box.lower.values
    upper = box.upper.values
    free = (upper > lower).nonzero()[0]
    n = int(free.size)
    if n == 0:
        return lower.reshape(1, -1).copy()
    if 1 << n > ENUMERATION_CAP:
        raise CapacityExceededError(
            f"box has {n} free states; 2**{n} corners exceed the cap of {ENUMERATION_CAP}"
        )
    table = _corner_table(n)
    if n == lower.size:
        return np.where(table, upper, lower)
    corners = np.repeat(lower[None, :], 1 << n, axis=0)
    corners[:, free] = np.where(table, upper[free], lower[free])
    return corners


def reference_bounding_box_of_normalized(images, scope, sizes) -> Box:
    z = images.sum(axis=0)
    mask = z > 0.0
    if not mask.all():
        if not mask.any():
            raise ZeroMeasureError("every enumerated combination gives a zero measure")
        images = images[:, mask]
        z = z[mask]
    norm = images / z
    return Box._new(scope, sizes, norm.min(axis=1), norm.max(axis=1))


def reference_summed_out_matrix(factor: Factor, keep: int) -> np.ndarray:
    kpos = factor.scope.index(keep)
    return np.ascontiguousarray(
        np.moveaxis(factor.table_nd(), kpos, 0).reshape((factor.sizes[kpos], -1), order="F")
    )


def reference_bound_sum_product(factor: Factor, keep: int, incoming) -> Box:
    if keep not in factor.scope:
        raise ValueError(f"variable {keep} not in factor scope {factor.scope}")
    others = [v for v in factor.scope if v != keep]
    point_mats = []
    n_combos = 1
    for v in others:
        if v not in incoming:
            raise ValueError(f"missing incoming message set for variable {v}")
        ms = incoming[v]
        _check_single_var(ms, v)
        mat = np.eye(ms.domain_size) if isinstance(ms, Simplex) else reference_box_corner_matrix(ms)
        n_combos *= mat.shape[0]
        if n_combos > ENUMERATION_CAP:
            raise CapacityExceededError(
                f"{n_combos}+ extreme-point combinations exceed the cap of {ENUMERATION_CAP}"
            )
        point_mats.append(mat)
    d_keep = factor.sizes[factor.scope.index(keep)]
    if not point_mats:
        images = reference_summed_out_matrix(factor, keep)
    elif len(point_mats) == 1:
        images = reference_summed_out_matrix(factor, keep) @ point_mats[0].T
    else:
        kpos = factor.scope.index(keep)
        cur = np.moveaxis(factor.table_nd(), kpos, 0)
        for mat in point_mats:
            cur = np.tensordot(cur, mat, axes=([1], [1]))
        images = cur.reshape(d_keep, -1)
    return reference_bounding_box_of_normalized(images, (keep,), (d_keep,))


def reference_bound_sum_product_joint(factor: Factor, keep: int, joint: Box) -> Box:
    """The joint kernel over the reference corner matrix, summed-out matrix and tail."""
    images = reference_summed_out_matrix(factor, keep) @ reference_box_corner_matrix(joint).T
    d_keep = factor.sizes[factor.scope.index(keep)]
    return reference_bounding_box_of_normalized(images, (keep,), (d_keep,))


def reference_variable_message(reg, v, kids):
    """Variable message glue as a plain lookup-then-compute, for the engine to match.

    Checks the simplex rule and the memo itself, and multiplies the children's
    boxes with the public kernel on a miss; no children send the unit box.
    """
    if v in kids:
        return v
    key = (v,) + kids
    box = reg.memo.get(key)
    if box is None:
        if kids:
            box = box_product_same_scope(list(kids))
        else:
            box = unit_box(v, reg.sizes[v])
        reg.memo[key] = box
    return box


def reference_factor_message(reg, rule, fid, keep, kids):
    """Factor message glue without plans or cached boxes, for the engine to match.

    The other scope variables are sorted afresh to pair them with ``kids``, an
    ``incoming`` dict maps each to its set (a fresh :class:`Simplex` for an
    int child), and under the joint rule each simplex child becomes a fresh
    :func:`full_box` before the public kernels run. When every child is a
    simplex both rules send the factorized kernel's box: the joint rule's
    normalized corner images are convex combinations of the normalized
    columns that box encloses.
    """
    key = (rule, fid, keep) + kids
    box = reg.memo.get(key)
    if box is None:
        f = reg.factors[fid]
        others = [v for v in sorted(f.scope) if v != keep]
        simplices = all(isinstance(m, int) for m in kids)
        incoming = {
            v: Simplex(v, reg.sizes[v]) if isinstance(m, int) else m for v, m in zip(others, kids)
        }
        if rule == JOINT and not simplices:
            boxes = [
                full_box(v, reg.sizes[v]) if isinstance(incoming[v], Simplex) else incoming[v]
                for v in f.scope
                if v != keep
            ]
            box = bound_sum_product_joint(f, keep, box_product_disjoint_sbb(boxes))
        else:
            box = bound_sum_product(f, keep, incoming)
            if simplices:
                # Spent walks send the table's box itself, so a frontier message
                # must be that object for the memo keys upstream to match the engine's.
                served = reg.frontier[fid, keep]
                assert served.lower.values.tobytes() == box.lower.values.tobytes()
                assert served.upper.values.tobytes() == box.upper.values.tobytes()
                box = served
        reg.memo[key] = box
    return box


def reference_validate(g: FactorGraph) -> list[Violation]:
    """``validate`` as a loop over factors, one table at a time, summing each slice."""
    out: list[Violation] = []

    n = g.num_variables
    nbrs = [[n + fid for fid in g.var_factors(v)] for v in range(n)]
    nbrs += [list(f.scope) for f in g.factors]
    reached = {0}
    stack = [0]
    while stack:
        for w in nbrs[stack.pop()]:
            if w not in reached:
                reached.add(w)
                stack.append(w)
    variables = sum(1 for u in reached if u < n)
    if variables < n:
        message = (
            f"graph is disconnected: reached {variables}/{n} variables "
            f"and {len(reached) - variables}/{g.num_factors} factors from variable 0"
        )
        out.append(Violation("disconnected", None, None, None, message))

    for f in g.factors:
        nd = f.table_nd()
        for pos, v in enumerate(f.scope):
            summed = nd.sum(axis=pos)
            if summed.min() > 0.0:
                continue
            rest = tuple(u for u in f.scope if u != v)
            for assignment in np.argwhere(~(summed > 0.0)):
                out.append(
                    Violation(
                        "positivity",
                        f.id,
                        v,
                        tuple(int(x) for x in assignment),
                        f"factor {f.id}: sum over variable {v} is zero at "
                        f"assignment {dict(zip(rest, (int(x) for x in assignment)))}",
                    )
                )
    return out


def reference_build_subtree(g: FactorGraph, root: int, max_nodes: int) -> SawTree:
    """Breadth-first subtree with every walk listed, dead or not.

    First visit wins: an extension joins the tree if its endpoint is not in
    the tree yet and fewer than ``max_nodes`` nodes are, so nodes join in
    ascending id order and the result is deterministic for a given graph and
    budget. Every other edge leaving a tree node, except the one back to its
    parent, becomes a ``truncated`` marker and sends a simplex. ``node_count``
    counts the tree's nodes. The engine's ``build_subtree`` must give this
    tree with each variable that has a marker child spent (see
    :func:`without_dead_walks`).
    """
    if max_nodes < 1:
        raise ValueError("max_nodes must be >= 1")
    if not 0 <= root < g.num_variables:
        raise ValueError(f"root {root} is not a variable of the graph")
    nbrs = g.nbrs
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
    return SawTree(root, count, end, prev, kind, first, nbrs)


def without_dead_walks(t: SawTree, n: int) -> SawTree:
    """``t`` with each variable that has a ``truncated`` child cut down.

    ``n`` is the graph's number of variables: endpoints below it are
    variables. Such a variable sends its simplex whatever its other children
    send, so nothing below them reaches the root: under the root only the
    markers stay, and any other such variable becomes a childless ``spent``
    walk. ``node_count`` stays.
    """
    end, kind, first = t.end, t.kind, t.first
    cut = [end[i] < n and any(kind[j] == _TRUNCATED for j in range(first[i], first[i + 1]))
           for i in range(len(end))]
    kept, starts = [0], [1]
    for i in kept:  # breadth-first, so ``kept`` stays in list order
        kids = range(first[i], first[i + 1])
        if cut[i]:
            kids = [j for j in kids if kind[j] == _TRUNCATED] if i == 0 else ()
        kept.extend(kids)
        starts.append(starts[-1] + len(kids))
    return SawTree(
        t.root,
        t.node_count,
        [end[i] for i in kept],
        [t.prev[i] for i in kept],
        [_SPENT if cut[i] and i else kind[i] for i in kept],
        starts,
        t.nbrs,
    )


def reference_build_saw_tree(g: FactorGraph, root: int, max_nodes: int) -> SawTree:
    """Breadth-first self-avoiding walks with every ``truncated`` marker listed.

    Every walk that is not a leaf is expanded, in the order walks are
    appended: it extends to each neighbour of its endpoint but the one it
    came from, in ascending id order. An extension becomes a ``cycle`` leaf
    when its endpoint is already on the walk, and a ``truncated`` marker once
    ``max_nodes`` walks that are not markers exist; a walk with no extension
    is a ``dead_end``. The engine's ``build_saw_tree`` must give this tree
    with each spent walk's markers removed (see :func:`without_spent_markers`).
    """
    if max_nodes < 1:
        raise ValueError("max_nodes must be >= 1")
    if not 0 <= root < g.num_variables:
        raise ValueError(f"root {root} is not a variable of the graph")
    nbrs = g.nbrs
    end, prev, kind, first = [root], [-1], [_ROOT], []
    on_walk = [1 << root]  # each walk's node set, one bit per bipartite id
    count = 1
    for i, u in enumerate(end):
        start = len(end)
        first.append(start)
        if kind[i] in (_CYCLE, _TRUNCATED):
            continue
        for w in nbrs[u]:
            if w == prev[i]:
                continue
            end.append(w)
            prev.append(u)
            on_walk.append(on_walk[i] | 1 << w)
            if count < max_nodes:
                count += 1
                kind.append(_CYCLE if on_walk[i] >> w & 1 else _INNER)
            else:
                kind.append(_TRUNCATED)
        if i and len(end) == start:
            kind[i] = _DEAD_END
    first.append(len(end))
    return SawTree(root, count, end, prev, kind, first, nbrs)


def without_spent_markers(t: SawTree) -> SawTree:
    """``t`` with each spent walk's ``truncated`` markers removed.

    A spent walk is an ``inner`` walk, not the root, whose children are all
    markers: the budget was spent before it was expanded. It keeps its entry,
    with an empty child range and the ``spent`` kind code; ``node_count``
    stays.
    """
    end, kind, first = t.end, t.kind, t.first
    spent = [
        i > 0 and kind[i] == _INNER and all(kind[j] == _TRUNCATED for j in range(first[i], first[i + 1]))
        for i in range(len(end))
    ]
    kept, starts = [0], [1]
    for i in kept:  # breadth-first, so ``kept`` stays in list order
        kids = () if spent[i] else range(first[i], first[i + 1])
        kept.extend(kids)
        starts.append(starts[-1] + len(kids))
    return SawTree(
        t.root,
        t.node_count,
        [end[i] for i in kept],
        [t.prev[i] for i in kept],
        [_SPENT if spent[i] else kind[i] for i in kept],
        starts,
        t.nbrs,
    )


def reference_elimination_order(g) -> list[int]:
    """Greedy min-weight elimination order by a full rescan at every step.

    Each step scans the remaining variables in ascending id order and takes
    the first of smallest weight (domain size times the live neighbours'
    domain sizes), then connects its live neighbours. The engine's order must
    equal this one.
    """
    size_of = g.sizes
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


def reference_bp_marginals(g, tol=1e-9, max_iter=10_000, damping=0.0):
    """Synchronous loopy BP as a plain per-edge loop, one ``np.dot`` per edge.

    Each factor-to-variable message is the contraction ``np.tensordot`` makes:
    the first against the table matrix it would build (``np.dot``), later ones
    (arity 3 and up) by ``np.tensordot`` itself. Normalization, the
    variable-to-factor products (padded with a fresh row of ones each call),
    damping and the residual are those of ``bp_marginals``, whose beliefs,
    ``iterations``, ``residual`` and ``converged`` must equal this loop's bit
    for bit.
    """
    size = g.sizes
    edges = {}
    for f in g.factors:
        for v in f.scope:
            edges.setdefault(size[v], []).append((f.id, v))
    slot = {e: r for es in edges.values() for r, e in enumerate(es)}
    number = {e: k for k, e in enumerate(e for es in edges.values() for e in es)}
    raw = {d: np.empty((len(es), d)) for d, es in edges.items()}
    contract = {d: [] for d in edges}
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
            for row, mat, shape, s0, later in plan:
                cur = np.dot(mat, rows[s0].reshape((-1, 1))).reshape(shape)
                for q, s in later:
                    cur = np.tensordot(cur, rows[s], axes=([q], [0]))
                raw[d][row] = cur
        new_f2v = {d: x / x.sum(axis=1, keepdims=True) for d, x in raw.items()}
        new_v2f = {d: _gathered(f2v[d], gather[d]) for d in edges}
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
    beliefs = {}
    for d, es in edges.items():
        variables = sorted({v for _, v in es})
        idx = _padded([[slot[(fid, v)] for fid in g.var_factors(v)] for v in variables], len(es))
        for v, b in zip(variables, _gathered(f2v[d], idx)):
            beliefs[v] = Measure((v,), (d,), b)
    return BpResult([beliefs[v] for v in range(g.num_variables)], converged, iterations, residual)


def _gathered(rows, idx):
    """Normalized products of the ``rows`` each row of ``idx`` names, in its order.

    An index equal to ``len(rows)`` names a row of ones, which pads ``idx``.
    """
    rows = np.vstack((rows, np.ones(rows.shape[1])))
    p = rows[idx[:, 0]]
    for c in range(1, idx.shape[1]):
        p = p * rows[idx[:, c]]
    return p / p.sum(axis=1, keepdims=True)

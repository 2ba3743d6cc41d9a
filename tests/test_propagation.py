import gc
import tracemalloc
import weakref
from collections import Counter
from math import prod

import numpy as np
import pytest

from boxprop import measure, propagation
from boxprop.errors import CapacityExceededError, ZeroMeasureError
from boxprop.factorgraph import parse_fg, validate
from boxprop.measure import Box, Measure, Simplex, box_product_disjoint_sbb, full_box
from boxprop.propagation import (
    FACTORIZED,
    JOINT,
    bp_marginals,
    boxprop_sawtree,
    boxprop_subtree,
    build_saw_tree,
    build_subtree,
    exact_marginals,
)
from boxprop.bench import GridSpec, compare, gap, gen_ising_grid, gen_ternary_grid, run_method
from helpers import (
    WIDE_FACTOR_FG,
    box_contains,
    graph_from,
    grid_and_triangle_tables,
    random_connected_graph,
    random_pairwise_graph,
    random_tree_graph,
    reference_bp_marginals,
    reference_build_saw_tree,
    reference_build_subtree,
    reference_elimination_order,
    reference_factor_message,
    reference_marginalize_out,
    reference_multiply,
    reference_variable_message,
    scale_factor,
    triangle_graph,
    triangle_graph_k_first,
    without_dead_walks,
    without_spent_markers,
)

EX1_LOW, EX1_HIGH = 1 / 5, 4 / 5
EX2_LOW, EX2_HIGH = 2 / 7, 5 / 7


# ----------------------------------------------------------- subtree build

VAR, FAC = "v", "f"  # the node tags of ``subtree_children``


def subtree_children(g, t):
    """Each subtree node's children, from the flat tree without its truncated markers.

    A node is ``(VAR, v)`` for variable ``v`` and ``(FAC, fid)`` for factor ``fid``.
    """
    n, end, kind, first = g.num_variables, t.end, t.kind, t.first
    node = lambda u: (VAR, u) if u < n else (FAC, u - n)
    kept = [k != propagation._TRUNCATED for k in kind]
    return {
        node(end[i]): [node(end[j]) for j in range(first[i], first[i + 1]) if kept[j]]
        for i in range(len(end))
        if kept[i]
    }


def test_build_subtree_reproduces_drawn_example():
    # With the (0,2) coupling listed first, the breadth-first tree from root 0
    # hangs the (1,2) factor off variable 2, and variable 1 stays a leaf.
    g = triangle_graph_k_first()
    t = build_subtree(g, 0, 100)
    children = subtree_children(g, t)
    assert children[(VAR, 0)] == [(FAC, 0), (FAC, 1)]
    assert children[(FAC, 0)] == [(VAR, 2)]
    assert children[(FAC, 1)] == [(VAR, 1)]
    assert children[(VAR, 2)] == [(FAC, 2)]
    assert children[(VAR, 1)] == []
    assert children[(FAC, 2)] == []
    assert len(children) == t.node_count == 6


def test_build_subtree_budget_one():
    g = triangle_graph()
    t = build_subtree(g, 0, 1)
    assert subtree_children(g, t) == {(VAR, 0): []}
    assert t.node_count == 1


def test_build_subtree_covers_whole_tree_graph():
    rng = np.random.default_rng(2)
    g = random_tree_graph(rng, 20)
    t = build_subtree(g, 0, 10_000)
    assert len(subtree_children(g, t)) == t.node_count == g.num_variables + g.num_factors


def test_subtree_invariants():
    # Each graph node joins at most once; a marker stands for an edge to a node
    # already in the tree, or for any edge once the budget is spent; on a
    # connected graph the tree takes every node the budget allows.
    rng = np.random.default_rng(32)
    for _ in range(25):
        g = random_connected_graph(rng, max_vars=8, max_domain=3, max_arity=3)
        total = g.num_variables + g.num_factors
        for root in range(g.num_variables):
            for budget in (1, 2, 5, 12, 100_000):
                t = reference_build_subtree(g, root, budget)
                inner = [i for i, k in enumerate(t.kind) if k != propagation._TRUNCATED]
                joined_at = {t.end[i]: i for i in inner}
                assert len(joined_at) == len(inner) == t.node_count == min(budget, total)
                for j, k in enumerate(t.kind):
                    if k == propagation._TRUNCATED:
                        spent = sum(1 for i in inner if i < j) == budget
                        assert joined_at.get(t.end[j], j) < j or spent


# ------------------------------------------------------- subtree propagation


def test_example_one_box():
    g = triangle_graph()
    t = build_subtree(g, 0, 5)
    assert set(subtree_children(g, t)) == {(VAR, 0), (FAC, 0), (FAC, 1), (VAR, 1), (VAR, 2)}
    res = boxprop_subtree(g, t)
    assert np.allclose(res.box.lower.values, [EX1_LOW, EX1_LOW], atol=1e-12)
    assert np.allclose(res.box.upper.values, [EX1_HIGH, EX1_HIGH], atol=1e-12)


def test_example_two_box():
    g = triangle_graph()
    res = boxprop_subtree(g, build_subtree(g, 0, 100))
    assert np.allclose(res.box.lower.values, [EX2_LOW, EX2_LOW], atol=1e-12)
    assert np.allclose(res.box.upper.values, [EX2_HIGH, EX2_HIGH], atol=1e-12)
    exact = exact_marginals(g, "brute")[0]
    assert box_contains(res.box, exact.values)


def test_subtree_exact_on_trees():
    rng = np.random.default_rng(3)
    for _ in range(5):
        g = random_tree_graph(rng, int(rng.integers(5, 30)))
        exact = exact_marginals(g, "varelim")
        for v in range(g.num_variables):
            res = boxprop_subtree(g, build_subtree(g, v, 10_000))
            assert gap(res.box) <= 1e-9
            assert np.abs(res.box.lower.values - exact[v].values).max() <= 1e-9


# ------------------------------------------------------------ SAW tree build


def enumerate_saws(g, root):
    """Independent brute-force enumeration of self-avoiding walks from root."""
    walks = []

    def extend(walk):
        walks.append(walk)
        if len(set(walk)) != len(walk):
            return  # final node repeats: a cycle leaf, not extendable
        prev = walk[-2] if len(walk) > 1 else None
        for w in nbrs[walk[-1]]:
            if w != prev:
                extend(walk + (w,))

    nbrs = propagation._registry(g).nbrs
    extend((root,))
    return walks


def saw_nodes(tree):
    out = []
    stack = [tree.root_node]
    while stack:
        n = stack.pop()
        out.append(n)
        stack.extend(n.children)
    return out


def test_saw_tree_triangle_matches_enumeration():
    g = triangle_graph()
    tree = build_saw_tree(g, 0, 100_000)
    walks = enumerate_saws(g, 0)
    assert tree.node_count == len(walks) == 13
    # Both cycle leaves close at the root, one per direction round the triangle.
    cycles = [u for u, k in zip(tree.end, tree.kind) if k == propagation._CYCLE]
    assert cycles == [0, 0]


def test_saw_tree_matches_enumeration_random():
    rng = np.random.default_rng(4)
    for _ in range(10):
        g = random_pairwise_graph(rng, max_vars=6)
        tree = build_saw_tree(g, 0, 500_000)
        walks = enumerate_saws(g, 0)
        assert tree.node_count == len(walks)
        n_cycle = sum(1 for w in walks if len(set(w)) != len(w))
        assert sum(1 for n in saw_nodes(tree) if n.kind == "cycle") == n_cycle


def test_saw_tree_of_tree_graph_is_graph_itself():
    rng = np.random.default_rng(5)
    g = random_tree_graph(rng, 15)
    tree = build_saw_tree(g, 0, 100_000)
    assert tree.node_count == g.num_variables + g.num_factors
    assert all(n.kind != "cycle" for n in saw_nodes(tree))


def test_saw_tree_budget_one():
    g = triangle_graph()
    tree = build_saw_tree(g, 0, 1)
    assert tree.node_count == 1
    assert tree.root_node.kind == "root"
    assert [c.kind for c in tree.root_node.children] == ["truncated", "truncated"]


def test_first_saw_tree_build_on_a_large_grid_stays_small():
    # Walk masks take a bit per node the tree reaches, not per graph node: a
    # table of ``1 << i`` for all 39,800 bipartite nodes alone held ~100 MB.
    g = gen_ising_grid(GridSpec(100, 100, 2, 1.0, 1))
    tracemalloc.start()
    try:
        tree = build_saw_tree(g, 0, 50)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert tree.node_count == 50
    assert peak < 16 * 2**20


def test_builders_reject_a_root_outside_the_graph():
    # Bipartite ids above the variables name factors, so an out-of-range root
    # must fail rather than start a tree at a factor.
    g = triangle_graph()
    for build in (build_subtree, build_saw_tree):
        for root in (-1, 3, 4):
            with pytest.raises(ValueError, match="not a variable"):
                build(g, root, 10)


def check_flat_layout(tree):
    """Invariants of a flat walk tree, and its node view's kinds and child counts."""
    end, prev, kind, first = tree.end, tree.prev, tree.kind, tree.first
    kinds = [propagation._KINDS[k] for k in kind]
    assert len(prev) == len(kind) == len(end) == len(first) - 1
    assert (end[0], prev[0], kinds[0]) == (tree.root, -1, "root")
    assert first[0] == 1 and first[-1] == len(end)
    assert all(a <= b for a, b in zip(first, first[1:]))
    for i in range(len(end)):
        assert all(prev[j] == end[i] for j in range(first[i], first[i + 1]))
    assert tree.node_count == sum(1 for k in kinds if k != "truncated")
    # The view in breadth-first order: the lists' walks, each spent walk shown
    # as ``inner`` over one restored marker (-1 here) per neighbour but its parent.
    want, queue = [], [0]
    for i in queue:
        if i < 0:
            want.append(("truncated", 0))
            continue
        kids = list(range(first[i], first[i + 1]))
        if kind[i] == propagation._SPENT:
            assert not kids and kinds[i] == "inner"
            kids = [-1 for w in tree.nbrs[end[i]] if w != prev[i]]
        want.append((kinds[i], len(kids)))
        queue.extend(kids)
    view = tree.root_node
    assert tree.root_node is view
    assert view_kinds(tree) == want


def view_kinds(tree):
    """The node view in breadth-first order, as (kind, number of children) pairs."""
    nodes = [tree.root_node]
    for node in nodes:
        nodes.extend(node.children)
    return [(x.kind, len(x.children)) for x in nodes]


def test_flat_layout_of_both_builders():
    rng = np.random.default_rng(31)
    for _ in range(12):
        g = random_connected_graph(rng, max_vars=8, max_domain=3, max_arity=3)
        for root in range(g.num_variables):
            for budget in (1, 4, 25, 100_000):
                check_flat_layout(build_saw_tree(g, root, budget))
                check_flat_layout(reference_build_subtree(g, root, budget))


def tree_fields(t):
    return t.root, t.node_count, t.end, t.prev, t.kind, t.first


def propagated(g, t, rule):
    """Box bytes of one pass over ``t`` and the box, or the error's type and None."""
    try:
        box = propagation._propagate(propagation._registry(g), t, rule)
    except (CapacityExceededError, ZeroMeasureError) as e:
        return type(e), None
    return box.lower.values.tobytes() + box.upper.values.tobytes(), box


@pytest.mark.parametrize("cap", [None, 4])
def test_subtree_lists_only_the_walks_that_reach_the_root(monkeypatch, cap):
    # A variable with a marker child sends its simplex, so the walks below its
    # other children are left out and the bound cannot change. A walk left out
    # can still fail on the reference tree (the joint rule past the cap); the
    # engine's box must then contain the exact marginal. In the first graph,
    # variable 2 has a marker child (factor (1, 2) is already in the tree), and
    # its dead branch holds a non-frontier joint message through the ternary
    # factor (2, 3, 4, 5): 3 sends its unary table, 4 the frontier box of
    # factor (4, 5), and 5 a simplex, so the joint box has 2**27 corners.
    if cap is not None:
        monkeypatch.setattr(measure, "ENUMERATION_CAP", cap)
    tables = np.random.default_rng(1211)
    scopes = [(0, 1), (0, 2), (1, 2), (2, 3, 4, 5), (3,), (4, 5)]
    dead_branch = graph_from([(s, (3,) * len(s), tables.uniform(0.1, 2.0, 3 ** len(s))) for s in scopes])
    rng = np.random.default_rng(1210)
    rescued = 0
    for k in range(101):
        if k == 0:
            g = dead_branch
        else:
            g = random_connected_graph(rng, max_vars=8, max_domain=3, max_arity=4)
            unary = rng.choice(g.num_variables, int(rng.integers(1, 3)), replace=False)
            g = graph_from(
                [(f.scope, f.sizes, f.table) for f in g.factors]
                + [((int(v),), (g.sizes[v],), rng.uniform(0.1, 2.0, g.sizes[v])) for v in unary]
            )
        exact = exact_marginals(g, "brute")
        for root in range(g.num_variables):
            for budget in (1, 2, 5, 12, 60, 100_000):
                t = build_subtree(g, root, budget)
                ref = reference_build_subtree(g, root, budget)
                assert tree_fields(t) == tree_fields(without_dead_walks(ref, g.num_variables))
                for rule in (FACTORIZED, JOINT):
                    (got, box), (want, _) = propagated(g, t, rule), propagated(g, ref, rule)
                    if got != want:
                        assert want in (CapacityExceededError, ZeroMeasureError) and box
                        assert box_contains(box, exact[root].values, slack=1e-9)
                        rescued += 1
    assert rescued > 0


def test_early_stopping_subtree_builder_on_two_components():
    # ``node_count`` is what the join pass joins, the budget or the root's
    # component, whichever is smaller, and the walks are the reference's
    # without the dead ones, in either component.
    grid, triangle = grid_and_triangle_tables(np.random.default_rng(1301))
    g = graph_from(grid + triangle)
    # Each component's variables and its number of bipartite nodes.
    components = ((range(9), 9 + len(grid)), (range(9, 12), 3 + len(triangle)))
    cut = 0
    for variables, size in components:
        for root in variables:
            for budget in (1, 3, size // 2, size - 1, size, size + 1, 10_000):
                ref = reference_build_subtree(g, root, budget)
                assert ref.node_count == min(budget, size)
                pruned = without_dead_walks(ref, g.num_variables)
                assert tree_fields(build_subtree(g, root, budget)) == tree_fields(pruned)
                cut += len(pruned.end) < len(ref.end)
    assert cut > 0


def spent_sweep_graphs():
    """Seeded graphs with each one's largest full walk tree, or None for the grids.

    Random graphs of arity up to 4, random pairwise graphs, frontier test
    graphs with zero columns (pairs the frontier table leaves out), and the
    seed-42 5x5 binary and ternary grids, whose full trees are far too big.
    """
    rng = np.random.default_rng(2601)
    graphs = [random_connected_graph(rng, max_vars=6, max_domain=3, max_arity=4) for _ in range(8)]
    graphs += [random_pairwise_graph(rng, max_vars=6) for _ in range(8)]
    graphs += [frontier_test_graph(rng, zeros=True) for _ in range(4)]
    out = [(g, max(build_saw_tree(g, r, 10**6).node_count for r in range(g.num_variables)))
           for g in graphs]
    assert all(full < 10**6 for _, full in out)
    grids = (gen_ising_grid(GridSpec(5, 5, 2, 1.0, 42)), gen_ternary_grid(GridSpec(5, 5, 3, 1.0, 42)))
    return out + [(g, None) for g in grids]


def test_walk_trees_leave_spent_walks_unexpanded():
    # A walk reached after the budget is spent lists no markers: the engine's
    # tree is the reference's without them and with the same ``node_count``,
    # both rules give the same box bytes (or error type) over both trees, and
    # the node views are equal node for node.
    seen = Counter()
    for g, full in spent_sweep_graphs():
        n, reg = g.num_variables, propagation._registry(g)
        budgets = (1, 2, 3, 5, 12, 60, 500) + (() if full is None else (full, full + 1))
        for root in range(n):
            for budget in budgets:
                t = build_saw_tree(g, root, budget)
                ref = reference_build_saw_tree(g, root, budget)
                assert tree_fields(t) == tree_fields(without_spent_markers(ref))  # node_count too
                for rule in (JOINT, FACTORIZED):
                    assert propagated(g, t, rule)[0] == propagated(g, ref, rule)[0]
                assert view_kinds(t) == view_kinds(ref)
                for u, p, k in zip(t.end, t.prev, t.kind):
                    if k == propagation._SPENT:
                        seen["spent variable" if u < n else "spent factor"] += 1
                        seen["left out"] += u >= n and (u - n, p) not in reg.frontier
                seen["fewer walks"] += len(t.end) < len(ref.end)
    for case in ("spent variable", "spent factor", "left out", "fewer walks"):
        assert seen[case] > 0, case


# ------------------------------------------------------ SAW-tree propagation


def test_sawtree_triangle_box():
    g = triangle_graph()
    res = boxprop_sawtree(g, build_saw_tree(g, 0, 100_000))
    # Derived by running the update rules by hand along both walk branches.
    assert np.allclose(res.box.lower.values, [169 / 365] * 2, atol=1e-12)
    assert np.allclose(res.box.upper.values, [196 / 365] * 2, atol=1e-12)
    assert box_contains(res.box, [0.5, 0.5])
    # Tighter than (or equal to) the full-subtree bound, per state.
    sub = boxprop_subtree(g, build_subtree(g, 0, 100)).box
    assert np.all(res.box.lower.values >= sub.lower.values - 1e-12)
    assert np.all(res.box.upper.values <= sub.upper.values + 1e-12)


def test_sawtree_exact_on_trees():
    rng = np.random.default_rng(6)
    for _ in range(5):
        g = random_tree_graph(rng, int(rng.integers(5, 25)))
        exact = exact_marginals(g, "varelim")
        for v in range(g.num_variables):
            res = boxprop_sawtree(g, build_saw_tree(g, v, 100_000))
            assert gap(res.box) <= 1e-9
            assert np.abs(res.box.lower.values - exact[v].values).max() <= 1e-9


def test_pairwise_subtree_equals_restricted_sawtree():
    rng = np.random.default_rng(7)
    for _ in range(15):
        g = random_pairwise_graph(rng)
        for root in range(g.num_variables):
            for budget in (3, 7, 1000):
                t = build_subtree(g, root, budget)
                # Every factor is pairwise, so it has one child: both rules send the same bytes.
                a = boxprop_subtree(g, t).box
                b = boxprop_sawtree(g, t).box
                assert a.lower.values.tobytes() == b.lower.values.tobytes()
                assert a.upper.values.tobytes() == b.upper.values.tobytes()


def test_soundness_on_random_loopy_graphs():
    rng = np.random.default_rng(8)
    for _ in range(20):
        g = random_connected_graph(rng, max_vars=8)
        assert validate(g) == []
        exact = exact_marginals(g, "brute")
        for v in range(g.num_variables):
            sub = boxprop_subtree(g, build_subtree(g, v, 10_000))
            saw = boxprop_sawtree(g, build_saw_tree(g, v, 2000))
            assert box_contains(sub.box, exact[v].values, slack=1e-9)
            assert box_contains(saw.box, exact[v].values, slack=1e-9)


def test_monotone_truncation():
    rng = np.random.default_rng(9)
    for _ in range(8):
        g = random_connected_graph(rng, max_vars=7)
        for v in range(min(3, g.num_variables)):
            gaps = []
            for budget in (2, 5, 20, 100, 1000):
                res = boxprop_sawtree(g, build_saw_tree(g, v, budget))
                gaps.append(gap(res.box))
            for small, large in zip(gaps, gaps[1:]):
                assert large <= small + 1e-12


def test_scale_invariance_both_methods():
    g = triangle_graph()
    for fid in range(3):
        scaled = scale_factor(g, fid, 7.3)
        a = boxprop_subtree(g, build_subtree(g, 0, 100)).box
        b = boxprop_subtree(scaled, build_subtree(scaled, 0, 100)).box
        assert np.abs(a.lower.values - b.lower.values).max() <= 1e-12
        assert np.abs(a.upper.values - b.upper.values).max() <= 1e-12
        a = boxprop_sawtree(g, build_saw_tree(g, 0, 10_000)).box
        b = boxprop_sawtree(scaled, build_saw_tree(scaled, 0, 10_000)).box
        assert np.abs(a.lower.values - b.lower.values).max() <= 1e-12
        assert np.abs(a.upper.values - b.upper.values).max() <= 1e-12


def test_truncated_bound_is_vacuous_but_valid():
    g = triangle_graph()
    res = boxprop_sawtree(g, build_saw_tree(g, 0, 1))
    assert np.array_equal(res.box.lower.values, [0, 0])
    assert np.array_equal(res.box.upper.values, [1, 1])
    assert gap(res.box) == 1.0


def test_bound_result_fields():
    g = triangle_graph()
    res = boxprop_subtree(g, build_subtree(g, 0, 100))
    assert res.variable == 0
    assert res.method == "subtree"
    assert res.nodes_used == 6
    assert res.elapsed >= 0.0
    assert res.box.lower.values.sum() <= 1.0 + 1e-12 <= res.box.upper.values.sum() + 2e-12


# -------------------------------------------------------- message registry


def test_walk_kinds_on_the_seed_42_grid():
    g = gen_ising_grid(GridSpec(5, 5, 2, 1.0, 42))
    tree = build_saw_tree(g, 12, 5000)
    kinds = Counter(n.kind for n in saw_nodes(tree) if n is not tree.root_node)
    assert kinds == {"inner": 3560, "dead_end": 1111, "cycle": 328, "truncated": 1090}
    assert tree.node_count == 5000


def root_bytes(g, method, root, budget):
    box = run_method(g, method, root, budget).box
    return box.lower.values.tobytes() + box.upper.values.tobytes()


def all_root_bytes(g, clear=False):
    """Box bytes of every root, sawtree roots first, then subtree roots."""
    out = []
    for method, budget in (("sawtree", 400), ("subtree", 60)):
        for r in range(g.num_variables):
            if clear:
                propagation._REGISTRIES.clear()
            out.append(root_bytes(g, method, r, budget))
    return out


def box1(v, lower, upper):
    d = len(lower)
    return Box(Measure((v,), (d,), np.array(lower)), Measure((v,), (d,), np.array(upper)))


def fresh_copy(g):
    return graph_from([(f.scope, f.sizes, f.table) for f in g.factors])


def is_simplex(m):
    """Whether memo message ``m`` is the int standing for a variable's simplex."""
    return type(m) is int


def variable_keys(reg):
    """The memo's variable keys ``(v, *kids)``, which lead with an int."""
    return [key for key in reg.memo if type(key[0]) is int]


def factor_keys(reg):
    """The memo's factor keys ``(rule, fid, keep, *kids)``, which lead with a str."""
    return [key for key in reg.memo if type(key[0]) is str]


def test_memo_warm_equals_cold():
    rng = np.random.default_rng(21)
    for _ in range(12):
        g = random_connected_graph(rng, max_vars=8, max_domain=3, max_arity=3)
        warm = all_root_bytes(g)
        # A key names its children by the boxes the registry's memo sent.
        reg = propagation._REGISTRIES[g]
        sent = {id(box) for box in reg.memo.values()}
        fkeys = factor_keys(reg)
        kids = [key[1:] for key in variable_keys(reg)] + [key[3:] for key in fkeys]
        assert len(kids) == len(reg.memo)
        assert all(is_simplex(m) or id(m) in sent for ms in kids for m in ms)
        assert any(not is_simplex(m) for key in fkeys for m in key[3:])
        assert warm == all_root_bytes(fresh_copy(g), clear=True)


def test_memo_keys_on_the_factor_rule():
    rng = np.random.default_rng(22)
    tables = [
        ((0, 1, 2), (2, 3, 2), rng.uniform(0.1, 2.0, 12)),
        ((0, 3), (2, 2), rng.uniform(0.1, 2.0, 4)),
        ((1, 3), (3, 2), rng.uniform(0.1, 2.0, 6)),
        ((2, 3), (2, 2), rng.uniform(0.1, 2.0, 4)),
    ]

    def message(g, incoming, rule):
        reg = propagation._registry(g)
        box = propagation._factor_message(reg, rule, 0, 0, (incoming[1], incoming[2]))
        return box.lower.values.tobytes() + box.upper.values.tobytes()

    # The two rules send different boxes from the three-variable factor, and a
    # box differing only in its upper bound is a different key.
    g = graph_from(tables)
    narrow = {1: box1(1, [0.2, 0.3, 0.1], [0.5, 0.6, 0.9]), 2: box1(2, [0.1, 0.4], [0.7, 0.5])}
    wide = {1: narrow[1], 2: box1(2, [0.1, 0.4], [0.9, 0.5])}
    joint = message(g, narrow, JOINT)
    assert joint != message(g, narrow, FACTORIZED)
    assert message(g, wide, JOINT) == message(graph_from(tables), wide, JOINT) != joint
    assert {key[0] for key in factor_keys(propagation._registry(g))} == {JOINT, FACTORIZED}
    # Both methods on one graph object, sawtree first and subtree first, share
    # its one memo and match fresh copies.
    for methods in (("sawtree", "subtree"), ("subtree", "sawtree")):
        g = graph_from(tables)
        for method in methods:
            for budget in (3, 6, 12, 200):
                for r in range(g.num_variables):
                    fresh = graph_from(tables)
                    assert root_bytes(g, method, r, budget) == root_bytes(fresh, method, r, budget)
        assert {key[0] for key in factor_keys(propagation._registry(g))} == {JOINT, FACTORIZED}


def counting(monkeypatch, name):
    """Replace a kernel in ``propagation`` by a wrapper that counts its calls."""
    calls = [0]
    kernel = getattr(propagation, name)

    def wrapper(*args):
        calls[0] += 1
        return kernel(*args)

    monkeypatch.setattr(propagation, name, wrapper)
    return calls


def test_memo_misses_are_the_distinct_messages(monkeypatch):
    # On this grid the 25 walk trees ask for 86,903 factor messages, of which
    # 3,369 are distinct; only those are computed. The frontier table serves
    # the frontier messages (every child a simplex: one per factor and kept
    # variable on this grid), the kernel the rest. The walk trees' variables
    # send 3,264 distinct messages.
    calls = counting(monkeypatch, "bound_sum_product_joint")
    g = gen_ising_grid(GridSpec(5, 5, 2, 1.0, 42))
    for r in range(g.num_variables):
        boxprop_sawtree(g, build_saw_tree(g, r, 5000))
    reg = propagation._REGISTRIES[g]
    fkeys = factor_keys(reg)
    frontier = sum(all(map(is_simplex, key[3:])) for key in fkeys)
    assert frontier == sum(len(f.scope) for f in g.factors) == 105
    assert len(fkeys) == 3_369
    assert len(variable_keys(reg)) == 3_264
    assert len(reg.memo) == 3_369 + 3_264
    assert calls[0] + frontier == 3_369


def test_variable_memo_multiplies_each_distinct_product_once(monkeypatch):
    rng = np.random.default_rng(25)
    g = random_connected_graph(rng, max_vars=8, max_domain=3, max_arity=3)
    calls = counting(monkeypatch, "box_product_same_scope")
    n_roots = 2 * g.num_variables
    all_root_bytes(g)
    # One call per root (the final belief) plus one per variable-memo entry
    # that multiplies children; a second round is all hits.
    reg = propagation._registry(g)
    products = sum(1 for key in variable_keys(reg) if len(key) > 1)
    assert products > 0
    assert calls[0] == n_roots + products
    all_root_bytes(g)
    assert calls[0] == 2 * n_roots + products


def test_memo_dies_with_the_graph_and_respects_the_cap(monkeypatch):
    rng = np.random.default_rng(23)
    g = random_connected_graph(rng, max_vars=8, max_domain=3, max_arity=3)
    uncapped = all_root_bytes(fresh_copy(g))
    monkeypatch.setattr(propagation, "MESSAGE_MEMO_CAP", 1)
    bound = g.num_variables + g.num_factors
    gc.collect()
    before = len(propagation._REGISTRIES)
    # A root that starts on a registry past the bound clears its memo in
    # place: a marker entry put in it survives the root unless it was full.
    out, clears = [], 0
    marker = ("marker",)
    for method, budget in (("sawtree", 400), ("subtree", 60)):
        for r in range(g.num_variables):
            reg = propagation._REGISTRIES.get(g)
            full = False
            if reg is not None:
                reg.memo[marker] = None
                full = len(reg.memo) > bound
            out.append(root_bytes(g, method, r, budget))
            if reg is not None:
                assert propagation._REGISTRIES[g] is reg
                assert (marker in reg.memo) == (not full)
                reg.memo.pop(marker, None)
            clears += full
    assert out == uncapped
    assert clears > 0
    assert len(propagation._REGISTRIES) == before + 1
    ref = weakref.ref(propagation._registry(g))
    del g, reg
    gc.collect()
    assert ref() is None
    assert len(propagation._REGISTRIES) == before


def box_bytes(m):
    """A box as its scope and bytes; any other key part as it is."""
    if isinstance(m, Box):
        return m.scope, m.lower.values.tobytes(), m.upper.values.tobytes()
    return m


def memo_bytes(reg):
    """Every memo entry with its key's boxes and its box as bytes.

    A set: one element per distinct entry in bytes. The reference glue sends
    the frontier table's own box for a frontier message, as the engine and
    its spent walks do, so both memos key their children by the same objects.
    """
    return {(tuple(map(box_bytes, key)), box_bytes(box)) for key, box in reg.memo.items()}


def root_outcomes(g):
    """Each root's box bytes or error type: walk trees (joint rule), then subtrees."""
    out = []
    methods = ((build_saw_tree, boxprop_sawtree, 60), (build_subtree, boxprop_subtree, 25))
    for build, bound, budget in methods:
        for r in range(g.num_variables):
            try:
                box = bound(g, build(g, r, budget)).box
                out.append(box.lower.values.tobytes() + box.upper.values.tobytes())
            except (CapacityExceededError, ZeroMeasureError) as e:
                out.append(type(e))
    return out


def glue_outcomes(monkeypatch, g):
    """Root outcomes of the engine on ``g`` and of the reference glue on a copy.

    Both runs start on fresh registries, so equal outcomes and byte-equal memo
    entries under byte-equal keys show that the engine's message glue
    computes what the reference glue computes, miss for miss.
    """
    engine = root_outcomes(g)
    copy = fresh_copy(g)
    with monkeypatch.context() as m:
        m.setattr(propagation, "_variable_message", reference_variable_message)
        m.setattr(propagation, "_factor_message", reference_factor_message)
        reference = root_outcomes(copy)
    assert engine == reference
    reg, ref = propagation._REGISTRIES[g], propagation._REGISTRIES[copy]
    memo = memo_bytes(reg)
    assert memo == memo_bytes(ref)
    assert len(factor_keys(reg)) == len(factor_keys(ref))
    assert {key[0] for key, _ in memo} >= {JOINT, FACTORIZED}
    return engine


def test_message_glue_equals_the_reference(monkeypatch):
    # A cap of 2**12 corners keeps every corner matrix small; ternary 4-ary
    # factors exceed it on some roots, and a cap of 8 on many more.
    rng = np.random.default_rng(26)
    errors = Counter()
    for cap, count in ((1 << 12, 100), (8, 10)):
        monkeypatch.setattr(measure, "ENUMERATION_CAP", cap)
        graphs = 0
        while graphs < count:
            g = random_connected_graph(rng, max_vars=8, max_domain=3, max_arity=4)
            if all(len(f.scope) > 1 for f in g.factors):
                continue
            graphs += 1
            errors.update((cap, o) for o in glue_outcomes(monkeypatch, g) if isinstance(o, type))
    assert errors[1 << 12, CapacityExceededError] > 0
    assert errors[8, CapacityExceededError] > 0
    monkeypatch.undo()
    # A zero table leaves no normalizable image through its factor.
    g = graph_from([
        ((0, 1), (2, 3), rng.uniform(0.1, 2.0, 6)),
        ((1, 2, 3), (3, 2, 2), np.zeros(12)),
        ((0,), (2,), [0.5, 1.5]),
        ((2, 3), (2, 2), rng.uniform(0.1, 2.0, 4)),
    ])
    assert ZeroMeasureError in glue_outcomes(monkeypatch, g)


def frontier_test_graph(rng, zeros):
    """A random graph with domains 2-4, arity 1-4, a unary and a product-form factor.

    The product-form table is an outer product of positive vectors, so its
    summed-out matrices have proportional columns. With ``zeros``, one table
    is all zero and another has entries zeroed at random (zero columns in
    some summed-out matrices). Graphs with a ``(factor, keep)`` of 13 to 20
    other states are redrawn: the joint kernel on the [0,1] box would
    enumerate 2**13 to 2**20 corners at the default cap.
    """
    while True:
        g = random_connected_graph(rng, max_vars=7, max_domain=4, max_arity=4, max_extra=4)
        tables = [[f.scope, f.sizes, f.table.copy()] for f in g.factors]
        v = int(rng.integers(g.num_variables))
        tables.append([(v,), (g.sizes[v],), rng.uniform(0.1, 2.0, g.sizes[v])])
        scope = tuple(int(u) for u in rng.choice(g.num_variables, 2, replace=False))
        table = np.ones(1)
        for u in scope:
            table = np.multiply.outer(rng.uniform(0.1, 2.0, g.sizes[u]), table).ravel()
        tables.append([scope, tuple(g.sizes[u] for u in scope), table])
        if zeros:
            a, b = rng.choice(len(tables), 2, replace=False)
            tables[a][2][:] = 0.0
            tables[b][2][rng.random(tables[b][2].size) < 0.5] = 0.0
        if all(not 12 < prod(t[1]) // d <= 20 for t in tables for d in t[1]):
            return graph_from(tables)


def test_frontier_table_equals_the_per_message_kernels(monkeypatch):
    # Every frontier table entry must be byte-equal to ``bound_sum_product``
    # on simplex children, and every pair left out must be one whose call
    # raises or masks a zero column; the engine's message under either rule
    # must be that call's box or error. Wherever ``bound_sum_product_joint`` on
    # the [0,1] box succeeds, the entry lies inside its box with zero slack:
    # the joint rule's normalized corner images are convex combinations of
    # the normalized columns, and proportional columns put some entries
    # strictly inside, where rounding spreads the joint images.
    bounding = measure._bounding_box_of_normalized
    zero_columns = []

    def counted(images, scope, sizes):
        zero_columns.append(int(np.count_nonzero(np.add.reduce(images, axis=0) == 0.0)))
        return bounding(images, scope, sizes)

    rng = np.random.default_rng(1302)
    seen = Counter()
    default = measure.ENUMERATION_CAP
    for cap, count in ((default, 40), (8, 20)):
        monkeypatch.setattr(measure, "ENUMERATION_CAP", cap)
        for k in range(count):
            g = frontier_test_graph(rng, zeros=k % 3 == 0)
            reg = propagation._registry(g)
            table = reg.frontier
            for f in g.factors:
                for keep, d in zip(f.scope, f.sizes):
                    box = table.get((f.id, keep))
                    others = [(v, g.sizes[v]) for v in f.scope if v != keep]
                    zero_columns.clear()
                    with monkeypatch.context() as m:
                        m.setattr(measure, "_bounding_box_of_normalized", counted)
                        try:
                            want = measure.bound_sum_product(
                                f, keep, {v: Simplex(v, dv) for v, dv in others})
                        except (CapacityExceededError, ZeroMeasureError) as e:
                            want = type(e)
                    kids = tuple(sorted(v for v, _ in others))
                    for rule in (JOINT, FACTORIZED):
                        try:
                            got = propagation._factor_message(reg, rule, f.id, keep, kids)
                        except (CapacityExceededError, ZeroMeasureError) as e:
                            assert want is type(e)
                        else:
                            assert got.lower.values.tobytes() == want.lower.values.tobytes()
                            assert got.upper.values.tobytes() == want.upper.values.tobytes()
                    if box is None:
                        if isinstance(want, type):
                            seen[cap, want] += 1
                        else:
                            assert zero_columns[0] > 0
                            seen["masked"] += 1
                        continue
                    assert zero_columns == [0]
                    assert (box.scope, box.sizes) == (want.scope, want.sizes) == ((keep,), (d,))
                    assert box.lower.values.tobytes() == want.lower.values.tobytes()
                    assert box.upper.values.tobytes() == want.upper.values.tobytes()
                    seen["served"] += 1
                    try:
                        joint = measure.bound_sum_product_joint(
                            f, keep, box_product_disjoint_sbb([full_box(v, dv) for v, dv in others]))
                    except CapacityExceededError:
                        seen[cap, "joint past the cap"] += 1
                        continue
                    lo, hi = box.lower.values, box.upper.values
                    assert (joint.lower.values <= lo).all() and (hi <= joint.upper.values).all()
                    if (joint.lower.values < lo).any() or (hi < joint.upper.values).any():
                        seen["strictly inside"] += 1
    for case in ("served", "masked", "strictly inside", (8, CapacityExceededError),
                 (8, "joint past the cap"), (default, "joint past the cap")):
        assert seen[case] > 0, case
    assert seen[8, ZeroMeasureError] > 0 and seen[default, ZeroMeasureError] > 0


def test_frontier_messages_enumerate_no_corners():
    # The joint rule used to enumerate the 2**27 corners of the [0,1] box on
    # (1, 2, 3) and raise CapacityExceededError; both rules now read one
    # frontier table, so the methods give the same box over the same tree.
    g = parse_fg(WIDE_FACTOR_FG)
    saw, sub = run_method(g, "sawtree", 0, 3).box, run_method(g, "subtree", 0, 3).box
    assert saw.lower.values.tobytes() == sub.lower.values.tobytes()
    assert saw.upper.values.tobytes() == sub.upper.values.tobytes()
    assert box_contains(saw, exact_marginals(g, "brute")[0].values)
    assert (saw.lower.values < saw.upper.values).all()


TRACED_KERNELS = {
    "bound_sum_product_joint": 3,
    "bound_sum_product": 3,
    "box_product_disjoint_sbb": 1,
    "box_product_same_scope": 1,
    "normalized_corner_box": 1,
}


def test_engine_calls_each_traced_kernel_once_per_miss(monkeypatch):
    # The benchmark's tracer wraps these five names in ``propagation`` and
    # unpacks their positional arguments, so the engine must call each through
    # that namespace, positionally, once per miss or non-vacuous root. A
    # frontier miss (every child a simplex) is served from the frontier
    # table and calls none of them; on these positive tables under the default
    # cap the table holds every frontier message.
    calls = Counter()

    def counted(name, kernel, arity):
        def wrapper(*args):
            assert len(args) == arity
            calls[name] += 1
            return kernel(*args)

        return wrapper

    for name, arity in TRACED_KERNELS.items():
        monkeypatch.setattr(propagation, name, counted(name, getattr(propagation, name), arity))
    rng = np.random.default_rng(27)
    vacuous_seen = 0
    for _ in range(20):
        g = random_connected_graph(rng, max_vars=8, max_domain=3, max_arity=3)
        calls.clear()
        roots = 0
        for build, bound in ((build_saw_tree, boxprop_sawtree), (build_subtree, boxprop_subtree)):
            for budget in (3, 60):
                for r in range(g.num_variables):
                    box = bound(g, build(g, r, budget)).box
                    vacuous = not box.lower.values.any() and (box.upper.values == 1.0).all()
                    roots += not vacuous
                    vacuous_seen += vacuous
        reg = propagation._REGISTRIES[g]
        rules = Counter(key[0] for key in factor_keys(reg) if not all(map(is_simplex, key[3:])))
        products = sum(len(key) > 1 for key in variable_keys(reg))
        assert calls == Counter({
            "bound_sum_product_joint": rules[JOINT],
            "bound_sum_product": rules[FACTORIZED],
            "box_product_disjoint_sbb": rules[JOINT],
            "box_product_same_scope": products + roots,
            "normalized_corner_box": roots,
        })
    assert vacuous_seen > 0


# ------------------------------------------------------------------ BP


def test_bp_exact_on_trees():
    rng = np.random.default_rng(10)
    for _ in range(5):
        g = random_tree_graph(rng, int(rng.integers(5, 25)))
        exact = exact_marginals(g, "varelim")
        res = bp_marginals(g, tol=1e-12, max_iter=500)
        assert res.converged
        for v in range(g.num_variables):
            assert np.abs(res.beliefs[v].values - exact[v].values).max() <= 1e-9


def test_bp_belief_inside_boxes_on_triangle():
    g = triangle_graph()
    res = bp_marginals(g)
    assert res.converged
    sub = boxprop_subtree(g, build_subtree(g, 0, 100))
    saw = boxprop_sawtree(g, build_saw_tree(g, 0, 10_000))
    assert box_contains(sub.box, res.beliefs[0].values, slack=1e-9)
    assert box_contains(saw.box, res.beliefs[0].values, slack=1e-9)


def test_bp_flag_recorded_on_strong_grid():
    # Strong couplings; synchronous BP may well not converge here, and that is
    # a reported outcome, not an error. When it does converge, the beliefs
    # must respect the walk-tree boxes.
    g = gen_ising_grid(GridSpec(5, 5, 2, 10.0, 1))
    res = bp_marginals(g, tol=1e-9, max_iter=200)
    assert isinstance(res.converged, bool)
    if res.converged:
        for v in range(g.num_variables):
            saw = boxprop_sawtree(g, build_saw_tree(g, v, 2000))
            assert box_contains(saw.box, res.beliefs[v].values, slack=1e-9)


def test_bp_damping_reaches_same_fixed_point():
    rng = np.random.default_rng(12)
    g = random_connected_graph(rng, max_vars=6)
    plain = bp_marginals(g, tol=1e-11, max_iter=2000)
    damped = bp_marginals(g, tol=1e-11, max_iter=4000, damping=0.3)
    assert plain.converged and damped.converged
    for a, b in zip(plain.beliefs, damped.beliefs):
        assert np.abs(a.values - b.values).max() <= 1e-7


def test_bp_equals_the_per_edge_loop():
    # Byte equality with the per-edge loop the docstring promises. Arity up to
    # 4 puts later contractions on every axis, and a pairwise table's first
    # matrix is F-ordered for one of its two variables. About 40% of the runs
    # converge within 20 sweeps, so both outcomes are compared.
    rng = np.random.default_rng(2024)
    for _ in range(200):
        g = random_connected_graph(rng, max_vars=5, max_domain=3, max_arity=4, max_extra=4)
        for damping in (0.0, 0.3):
            got = bp_marginals(g, tol=1e-6, max_iter=20, damping=damping)
            want = reference_bp_marginals(g, tol=1e-6, max_iter=20, damping=damping)
            assert (got.iterations, got.converged, got.residual) == (
                want.iterations, want.converged, want.residual
            )
            assert [b.values.tobytes() for b in got.beliefs] == [
                b.values.tobytes() for b in want.beliefs
            ]


@pytest.mark.parametrize(
    "option",
    [
        {"max_iter": 0},
        {"max_iter": -3},
        {"tol": 0.0},
        {"tol": -1.0},
        {"tol": float("nan")},
        {"tol": float("inf")},
        {"damping": 1.0},
        {"damping": float("nan")},
    ],
)
def test_bp_refuses_bad_options(option):
    # max_iter 0 would return beliefs that were never computed, and a tol that
    # can never be met would run every sweep.
    with pytest.raises(ValueError):
        bp_marginals(triangle_graph(), **option)


@pytest.mark.parametrize(
    "d, var, units",
    [
        ((2, 2, 2), 0, ((1.0, 0.0), (0.0, 1.0))),
        ((2, 2, 2), 2, ((0.0, 3.0), (2.0, 0.0))),
        ((2, 3, 2), 1, ((1.0, 0.0, 0.0), (0.0, 1.0, 1.0))),
    ],
    ids=["first", "last", "ternary"],
)
def test_bp_names_the_variable_whose_messages_vanish(d, var, units, recwarn):
    # Each factor passes validation, but the unary factors on ``var`` have
    # disjoint supports, so every message product into ``var`` is zero.
    g = graph_from(
        [((0, 1), (d[0], d[1]), np.ones(d[0] * d[1])), ((1, 2), (d[1], d[2]), np.ones(d[1] * d[2]))]
        + [((var,), (d[var],), u) for u in units]
    )
    assert validate(g) == []
    with pytest.raises(
        ZeroMeasureError, match=rf"^the BP messages into variable {var} multiply to zero$"
    ):
        bp_marginals(g)
    assert not recwarn.list


def test_damped_bp_raises_where_undamped_bp_does(recwarn):
    # Damping keeps the vanishing messages into variable 0 a power of two above
    # zero; the last sweep's undamped messages still multiply to zero.
    g = graph_from([((0, 1), (2, 2), np.ones(4)), ((0,), (2,), (1, 0)), ((0,), (2,), (0, 1))])
    for damping in (0.0, 0.5):
        with pytest.raises(ZeroMeasureError, match="^the BP messages into variable 0 multiply to zero$"):
            bp_marginals(g, damping=damping)
    assert not recwarn.list


# ------------------------------------------------------------- exact oracles


@pytest.mark.parametrize("engine", ["brute", "varelim"])
def test_exact_marginals_name_a_zero_joint_measure(engine, recwarn):
    # Passes validation, but the unary factors on variable 0 have disjoint
    # supports, so every joint assignment has weight zero.
    g = graph_from([((0, 1), (2, 2), np.ones(4)), ((0,), (2,), (1, 0)), ((0,), (2,), (0, 1))])
    assert validate(g) == []
    with pytest.raises(
        ZeroMeasureError,
        match=r"^every joint assignment has weight zero, so the marginal of variable [01] has zero mass$",
    ):
        exact_marginals(g, engine)
    assert not recwarn.list


def test_exact_triangle_and_unary():
    assert np.allclose(exact_marginals(triangle_graph(), "brute")[0].values, [0.5, 0.5])
    g = graph_from([((0,), (2,), (3.0, 1.0))])
    assert np.allclose(exact_marginals(g, "brute")[0].values, [0.75, 0.25])


def test_varelim_matches_brute():
    rng = np.random.default_rng(13)
    for _ in range(20):
        g = random_connected_graph(rng, max_vars=8, max_domain=3)
        brute = exact_marginals(g, "brute")
        ve = exact_marginals(g, "varelim")
        for a, b in zip(brute, ve):
            assert np.abs(a.values - b.values).max() <= 1e-12


def test_brute_capacity_guard():
    rng = np.random.default_rng(14)
    g = random_tree_graph(rng, 30, max_domain=2)
    with pytest.raises(CapacityExceededError):
        exact_marginals(g, "brute")


def test_varelim_capacity_guard():
    n = 21
    g = graph_from([(tuple(range(n)), (2,) * n, np.ones(2**n))])
    with pytest.raises(CapacityExceededError):
        exact_marginals(g, "varelim")


def test_varelim_cliques_stay_within_the_cap(monkeypatch):
    # Every clique is checked once, before its product is built, and every
    # other table lies on a subset of a checked clique, so no table the engine
    # multiplies out is larger than the cap.
    largest = []
    real = propagation._multiply

    def multiply(a, b):
        out = real(a, b)
        largest.append(out.values.size)
        return out

    monkeypatch.setattr(propagation, "_multiply", multiply)
    rng = np.random.default_rng(61)
    graphs = [random_connected_graph(rng, max_vars=9, max_domain=4, max_extra=5) for _ in range(40)]
    successes = 0
    for cap in (8, 16, 36, 64, 256):
        monkeypatch.setattr(propagation, "VARELIM_BUCKET_CAP", cap)
        for g in graphs:
            largest.clear()
            try:
                exact_marginals(g, "varelim")
                successes += 1
            except CapacityExceededError:
                pass
            assert max(largest, default=0) <= cap
    assert 0 < successes < 5 * len(graphs)


def test_varelim_shares_bucket_eliminations(monkeypatch):
    calls = []
    real = propagation._marginalize_out
    monkeypatch.setattr(
        propagation, "_marginalize_out", lambda m, drop: calls.append(drop) or real(m, drop)
    )
    n = 100
    g = random_tree_graph(np.random.default_rng(55), n)
    exact_marginals(g, "varelim")
    # One whole elimination per query makes 9,900 calls here. The bucket tree
    # sums out once per bucket going up, then once per marginal and once per
    # message coming down: under 3 per variable.
    assert len(calls) <= 3 * n


def test_varelim_capacity_error_names_the_failing_clique(monkeypatch):
    # On this 5-cycle the order is [4, 0, 1, 2, 3]. The cliques of buckets 4
    # and 0 have 12 entries; bucket 1 joins factor (1, 2) with the message
    # on (1, 3) from bucket 0, an 18-entry clique, the largest of the tree.
    doms = (2, 3, 3, 2, 3)
    edges = [(i, (i + 1) % 5) for i in range(5)]
    g = graph_from([((a, b), (doms[a], doms[b]), np.ones(doms[a] * doms[b])) for a, b in edges])
    assert propagation._elimination_order(g) == [4, 0, 1, 2, 3]
    monkeypatch.setattr(propagation, "VARELIM_BUCKET_CAP", 17)
    with pytest.raises(
        CapacityExceededError, match=r"^eliminating variable 1 needs a 18-entry table \(cap 17\)$"
    ):
        exact_marginals(g, "varelim")
    monkeypatch.setattr(propagation, "VARELIM_BUCKET_CAP", 18)
    assert len(exact_marginals(g, "varelim")) == 5


@pytest.mark.parametrize(
    "tables",
    [
        # Two components: a triangle and a chain with a unary factor.
        [
            ((0, 1), (2, 3), np.arange(1.0, 7.0)),
            ((1, 2), (3, 2), np.arange(2.0, 8.0)),
            ((0, 2), (2, 2), (1.0, 3.0, 2.0, 0.5)),
            ((3, 4), (2, 2), (0.2, 1.0, 4.0, 1.5)),
            ((4, 5), (2, 3), np.arange(1.0, 7.0) ** 0.5),
            ((5,), (3,), (1.0, 2.0, 0.25)),
        ],
        # One variable with a single unary factor.
        [((0,), (3,), (3.0, 1.0, 0.5))],
        # Mixed domains with arity-3 factors.
        [
            ((0, 1, 2), (2, 3, 4), np.linspace(0.1, 2.0, 24)),
            ((2, 3, 4), (4, 2, 3), np.linspace(2.0, 0.3, 24)),
            ((0, 4), (2, 3), (1.0, 0.5, 2.0, 1.5, 0.7, 1.1)),
            ((1, 3), (3, 2), (0.9, 1.2, 0.4, 2.2, 1.0, 0.6)),
            ((3,), (2,), (0.3, 1.7)),
        ],
    ],
    ids=["two-components", "one-variable", "mixed-arity-3"],
)
def test_varelim_matches_brute_on_edge_cases(tables):
    g = graph_from(tables)
    brute = exact_marginals(g, "brute")
    ve = exact_marginals(g, "varelim")
    assert len(ve) == g.num_variables
    for a, b in zip(brute, ve):
        assert b.scope == a.scope
        assert np.abs(a.values - b.values).max() <= 1e-12


def test_varelim_survives_strong_couplings():
    # Unscaled, the messages of this grid overflow and every marginal is NaN.
    g = gen_ising_grid(GridSpec(10, 10, 2, 5.0, 42))
    exact = exact_marginals(g, "varelim")
    for v, m in enumerate(exact):
        assert np.isfinite(m.values).all()
        assert box_contains(boxprop_subtree(g, build_subtree(g, v, 50)).box, m.values, 1e-9)


@pytest.mark.parametrize("make, domain, var", [(gen_ternary_grid, 3, 12), (gen_ising_grid, 2, 7)])
def test_varelim_refuses_a_grid_past_the_floating_point_range(make, domain, var, recwarn):
    # At beta 150 the ternary grid's buckets overflow, and the binary grid's
    # marginal of variable 7 underflows to [0, 1] though every table is positive.
    g = make(GridSpec(5, 5, domain, 150.0, 42))
    assert validate(g) == []
    message = f"^variable elimination left the floating-point range at the bucket of variable {var}$"
    with pytest.raises(CapacityExceededError, match=message):
        exact_marginals(g, "varelim")
    result = compare(g, {"subtree": 50})
    assert result.exact is None and result.exact_error == message[1:-1]
    assert not recwarn.list


def test_brute_marginals_tell_overflow_from_zero_mass(recwarn):
    # The joint table overflows at factor 1's product; the joint of 1e308
    # entries does not, but the sum over variable 1 does.
    left = "^brute force left the floating-point range at "
    g = graph_from([((0, 1), (2, 2), np.full(4, 1e300)), ((0,), (2,), (1e300, 1e300))])
    with pytest.raises(CapacityExceededError, match=left + "factor 1$"):
        exact_marginals(g, "brute")
    g = graph_from([((0, 1), (2, 2), np.full(4, 1e308))])
    with pytest.raises(CapacityExceededError, match=left + "the marginal of variable 0$"):
        exact_marginals(g, "brute")
    assert not recwarn.list


@pytest.mark.parametrize("method", ["subtree", "sawtree"])
def test_an_overflowing_factor_fails_only_the_roots_that_reach_it(method, recwarn):
    # Factor 1's column sums are 2e308. Only a tree that sends a message
    # through it overflows; a marker on it sends a simplex and computes nothing.
    g = graph_from([((0, 1), (2, 2), (1.0, 2.0, 3.0, 4.0)), ((1, 2), (2, 2), np.full(4, 1e308))])
    assert run_method(g, method, 0, 3).box is not None
    for root, budget in ((0, 4), (1, 3), (2, 2)):
        message = f"^{method} propagation left the floating-point range at root {root}$"
        with pytest.raises(CapacityExceededError, match=message):
            run_method(g, method, root, budget)
    assert not recwarn.list


def test_exact_marginals_keep_a_legitimate_zero(recwarn):
    # A zero in a table, not underflow, makes variable 0's marginal [1, 0]:
    # elimination returns it instead of refusing it as underflow.
    g = graph_from([((0,), (2,), (1.0, 0.0)), ((0, 1), (2, 2), (1.0, 2.0, 3.0, 4.0))])
    for engine in ("brute", "varelim"):
        marginals = exact_marginals(g, engine)
        assert marginals[0].values.tolist() == [1.0, 0.0]
        assert marginals[1].values.tolist() == [0.25, 0.75]
    assert not recwarn.list


def test_elimination_order_matches_the_full_rescan():
    rng = np.random.default_rng(71)
    graphs = [random_connected_graph(rng, max_vars=12, max_domain=4, max_extra=6) for _ in range(40)]
    graphs += [random_pairwise_graph(rng, max_vars=12, max_extra=10) for _ in range(20)]
    graphs += [gen_ising_grid(GridSpec(k, k, 2, 0.2, 5)) for k in (5, 8, 10)]
    graphs.append(gen_ternary_grid(GridSpec(5, 5, 3, 1.0, 5)))
    for g in graphs:
        assert propagation._elimination_order(g) == reference_elimination_order(g)


def test_exact_marginals_equal_the_reference_products(monkeypatch):
    # The lean _multiply and _marginalize_out must give every table of both
    # engines the bytes of the aligned product and the ndarray sum they
    # replace: random scope orders (so the second operand is transposed),
    # arity up to 4, unary factors, tables exp(beta * N(0, 1)) up to beta 5.
    rng = np.random.default_rng(83)
    graphs = []
    for k in range(150):
        base = random_connected_graph(rng, max_vars=9, max_domain=3, max_arity=4, max_extra=4)
        beta = 5.0 * k / 149
        v = int(rng.integers(base.num_variables))
        scopes = [(f.scope, f.sizes) for f in base.factors] + [((v,), (base.sizes[v],))]
        graphs.append(
            graph_from([(s, z, np.exp(beta * rng.standard_normal(np.prod(z)))) for s, z in scopes])
        )

    def outputs():
        return [
            [(m.scope, m.values.tobytes()) for m in exact_marginals(g, engine)]
            for g in graphs
            for engine in ("varelim", "brute")
        ]

    lean = outputs()
    monkeypatch.setattr(propagation, "_multiply", reference_multiply)
    monkeypatch.setattr(propagation, "_marginalize_out", reference_marginalize_out)
    assert outputs() == lean


def test_unknown_engine():
    with pytest.raises(ValueError):
        exact_marginals(triangle_graph(), "magic")

import gc
import sys
import threading
import weakref
from collections import Counter

import numpy as np
import pytest

from boxprop import propagation
from boxprop.errors import CapacityExceededError
from boxprop.factorgraph import validate
from boxprop.measure import Box, Measure
from boxprop.propagation import (
    FAC,
    FACTORIZED,
    JOINT,
    VAR,
    bp_marginals,
    boxprop_sawtree,
    boxprop_subtree,
    build_saw_tree,
    build_subtree,
    exact_marginals,
)
from boxprop.bench import GridSpec, gap, gen_ising_grid, run_method
from helpers import (
    box_contains,
    graph_from,
    random_connected_graph,
    random_pairwise_graph,
    random_tree_graph,
    scale_factor,
    triangle_graph,
    triangle_graph_k_first,
)

EX1_LOW, EX1_HIGH = 1 / 5, 4 / 5
EX2_LOW, EX2_HIGH = 2 / 7, 5 / 7


# ----------------------------------------------------------- subtree build


def subtree_children(g, t):
    """Each subtree node's children, from the flat tree without its truncated markers."""
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
                t = build_subtree(g, root, budget)
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
    cycles = [n for n in saw_nodes(tree) if n.kind == "cycle"]
    assert len(cycles) == 2
    assert {c.endpoint for c in cycles} == {(VAR, 0)}


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


def test_builders_reject_a_root_outside_the_graph():
    # Bipartite ids above the variables name factors, so an out-of-range root
    # must fail rather than start a tree at a factor.
    g = triangle_graph()
    for build in (build_subtree, build_saw_tree):
        for root in (-1, 3, 4):
            with pytest.raises(ValueError, match="not a variable"):
                build(g, root, 10)


def check_flat_layout(g, tree):
    """Invariants of a flat walk tree, and the round trip through its node view."""
    n, end, prev, kind, first = g.num_variables, tree.end, tree.prev, tree.kind, tree.first
    kinds = [propagation._KINDS[k] for k in kind]
    assert len(prev) == len(kind) == len(end) == len(first) - 1
    assert (end[0], prev[0], kinds[0]) == (tree.root, -1, "root")
    assert first[0] == 1 and first[-1] == len(end)
    assert all(a <= b for a, b in zip(first, first[1:]))
    for i in range(len(end)):
        assert all(prev[j] == end[i] for j in range(first[i], first[i + 1]))
    assert tree.node_count == sum(1 for k in kinds if k != "truncated")
    view = tree.root_node
    assert tree.root_node is view
    nodes = [view]  # the view in breadth-first order
    for node in nodes:
        assert all(child.parent is node for child in node.children)
        nodes.extend(node.children)
    endpoints = [(VAR, u) if u < n else (FAC, u - n) for u in end]
    assert [(x.endpoint, x.kind) for x in nodes] == list(zip(endpoints, kinds))


def test_flat_layout_of_both_builders():
    rng = np.random.default_rng(31)
    for _ in range(12):
        g = random_connected_graph(rng, max_vars=8, max_domain=3, max_arity=3)
        for root in range(g.num_variables):
            for budget in (1, 4, 25, 100_000):
                check_flat_layout(g, build_saw_tree(g, root, budget))
                check_flat_layout(g, build_subtree(g, root, budget))


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
                a = boxprop_subtree(g, t).box
                b = boxprop_sawtree(g, t).box
                assert np.abs(a.lower.values - b.lower.values).max() <= 1e-12
                assert np.abs(a.upper.values - b.upper.values).max() <= 1e-12


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


def assert_interning_is_one_to_one(reg):
    """Every box id names one box, and its intern key is that box's bytes."""
    n = reg.num_variables
    assert sorted(reg.index.values()) == list(range(n, len(reg.sets)))
    for (scope, lower, upper), i in reg.index.items():
        box = reg.sets[i]
        assert (box.scope, box.lower.values.tobytes(), box.upper.values.tobytes()) == (
            scope, lower, upper,
        )


def test_memo_warm_equals_cold():
    rng = np.random.default_rng(21)
    for _ in range(12):
        g = random_connected_graph(rng, max_vars=8, max_domain=3, max_arity=3)
        warm = all_root_bytes(g)
        assert_interning_is_one_to_one(propagation._REGISTRIES[g])
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
        ids = tuple(reg.intern(incoming[v]) for v in (1, 2))
        box = reg.sets[propagation._factor_message(reg, rule, 0, 0, ids)]
        return box.lower.values.tobytes() + box.upper.values.tobytes()

    # The two rules send different boxes from the three-variable factor, and a
    # box differing only in its upper bound is a different key.
    g = graph_from(tables)
    narrow = {1: box1(1, [0.2, 0.3, 0.1], [0.5, 0.6, 0.9]), 2: box1(2, [0.1, 0.4], [0.7, 0.5])}
    wide = {1: narrow[1], 2: box1(2, [0.1, 0.4], [0.9, 0.5])}
    joint = message(g, narrow, JOINT)
    assert joint != message(g, narrow, FACTORIZED)
    assert message(g, wide, JOINT) == message(graph_from(tables), wide, JOINT) != joint
    assert {key[0] for key in propagation._registry(g).factor_memo} == {JOINT, FACTORIZED}
    # Sawtree and then subtree on one graph object match fresh copies.
    g = graph_from(tables)
    for method in ("sawtree", "subtree"):
        for budget in (3, 6, 12, 200):
            for r in range(g.num_variables):
                fresh = graph_from(tables)
                assert root_bytes(g, method, r, budget) == root_bytes(fresh, method, r, budget)


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
    # 3,369 are distinct; only those reach the kernel.
    calls = counting(monkeypatch, "bound_sum_product_joint")
    g = gen_ising_grid(GridSpec(5, 5, 2, 1.0, 42))
    for r in range(g.num_variables):
        boxprop_sawtree(g, build_saw_tree(g, r, 5000))
    assert calls[0] == 3_369


def test_variable_memo_multiplies_each_distinct_product_once(monkeypatch):
    rng = np.random.default_rng(25)
    g = random_connected_graph(rng, max_vars=8, max_domain=3, max_arity=3)
    calls = counting(monkeypatch, "box_product_same_scope")
    n_roots = 2 * g.num_variables
    all_root_bytes(g)
    # One call per root (the final belief) plus one per variable-memo entry
    # that multiplies children; a second round is all hits.
    reg = propagation._registry(g)
    products = sum(1 for key in reg.var_memo if len(key) > 1)
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
    # A root that starts on a registry past the bound swaps in a fresh one.
    out, swaps = [], 0
    for method, budget in (("sawtree", 400), ("subtree", 60)):
        for r in range(g.num_variables):
            reg = propagation._REGISTRIES.get(g)
            full = reg is not None and len(reg.var_memo) + len(reg.factor_memo) > bound
            out.append(root_bytes(g, method, r, budget))
            assert (propagation._REGISTRIES[g] is not reg) == (reg is None or full)
            swaps += full
    assert out == uncapped
    assert swaps > 0
    assert len(propagation._REGISTRIES) == before + 1
    ref = weakref.ref(propagation._registry(g))
    del g
    gc.collect()
    assert ref() is None
    assert len(propagation._REGISTRIES) == before


def test_memo_shared_by_concurrent_roots(monkeypatch):
    rng = np.random.default_rng(24)
    g = random_connected_graph(rng, max_vars=8, max_domain=3, max_arity=3)
    expected = all_root_bytes(fresh_copy(g))
    monkeypatch.setattr(propagation, "MESSAGE_MEMO_CAP", 3)
    results = [None] * 4

    def work(k):
        results[k] = all_root_bytes(g)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
            assert not t.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert results == [expected] * 4
    assert_interning_is_one_to_one(propagation._REGISTRIES[g])


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


# ------------------------------------------------------------- exact oracles


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


def test_varelim_shares_bucket_eliminations(monkeypatch):
    calls = []
    real = propagation.marginalize_out
    monkeypatch.setattr(
        propagation, "marginalize_out", lambda m, drop: calls.append(drop) or real(m, drop)
    )
    g = random_tree_graph(np.random.default_rng(55), 100)
    exact_marginals(g, "varelim")
    # One whole elimination per query makes 9,900 calls here; the memo 716.
    assert len(calls) <= 1000


def test_varelim_capacity_error_names_the_failing_query_bucket(monkeypatch):
    # On this 5-cycle only query 4, the last one, keeps its own variable in a
    # 27-entry bucket; every other bucket of every query has at most 18
    # entries. The earlier queries fill the memo, and the error is the one a
    # per-query elimination raised.
    doms = (2, 3, 3, 2, 3)
    edges = [(i, (i + 1) % 5) for i in range(5)]
    g = graph_from([((a, b), (doms[a], doms[b]), np.ones(doms[a] * doms[b])) for a, b in edges])
    monkeypatch.setattr(propagation, "VARELIM_BUCKET_CAP", 18)
    with pytest.raises(
        CapacityExceededError, match=r"^eliminating variable 1 needs a 27-entry table \(cap 18\)$"
    ):
        exact_marginals(g, "varelim")
    monkeypatch.setattr(propagation, "VARELIM_BUCKET_CAP", 27)
    assert len(exact_marginals(g, "varelim")) == 5


def test_unknown_engine():
    with pytest.raises(ValueError):
        exact_marginals(triangle_graph(), "magic")

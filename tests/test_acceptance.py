"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. Budgets (tolerances and wall-clock limits) are asserted as stated, so
this module doubles as the performance gate.
"""

import time
from contextlib import contextmanager
from statistics import median

import numpy as np
import pytest

from boxprop.bench import GridSpec, compare, gap, gen_ising_grid, gen_ternary_grid, median_gap
from boxprop.factorgraph import validate
from boxprop.propagation import (
    bp_marginals,
    boxprop_sawtree,
    boxprop_subtree,
    build_saw_tree,
    build_subtree,
    exact_marginals,
)
from helpers import (
    box_contains,
    random_connected_graph,
    random_pairwise_graph,
    random_tree_graph,
    scale_factor,
    triangle_graph,
)

EX1 = (1 / 5, 4 / 5)
EX2 = (2 / 7, 5 / 7)
BETAS = (0.01, 0.1, 1.0, 10.0)


@contextmanager
def criterion(num, desc):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num:02d} FAIL: {desc}")
        raise
    print(f"ACCEPTANCE {num:02d} PASS: {desc}")


def best_of(fn, repeats=10):
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


# ---------------------------------------------------------------- criteria 1-2


def test_criterion_01_example_one_golden():
    with criterion(1, "worked example, truncated subtree: box (1/5, 4/5), < 1 ms"):
        g = triangle_graph()
        t = build_subtree(g, 0, 5)
        res = boxprop_subtree(g, t)
        assert np.abs(res.box.lower.values - EX1[0]).max() <= 1e-12
        assert np.abs(res.box.upper.values - EX1[1]).max() <= 1e-12
        assert best_of(lambda: boxprop_subtree(g, t)) < 1e-3


def test_criterion_02_example_two_golden():
    with criterion(2, "worked example, full subtree: box (2/7, 5/7) contains exact, < 1 ms"):
        g = triangle_graph()
        t = build_subtree(g, 0, 100)
        res = boxprop_subtree(g, t)
        assert np.abs(res.box.lower.values - EX2[0]).max() <= 1e-12
        assert np.abs(res.box.upper.values - EX2[1]).max() <= 1e-12
        exact = exact_marginals(g, "brute")[0]
        assert box_contains(res.box, exact.values)
        assert best_of(lambda: boxprop_subtree(g, t)) < 1e-3


# ------------------------------------------------------------- criteria 3-4


@pytest.fixture(scope="module")
def soundness_sweep():
    """200 seeded random connected graphs with boxes and exact marginals.

    Kept as a fixture so the BP-containment criterion reuses the same graphs
    and boxes without recomputing them.
    """
    rng = np.random.default_rng(20260809)
    graphs = [
        random_connected_graph(rng, max_vars=10, max_domain=4, max_arity=3)
        for _ in range(200)
    ]
    t0 = time.perf_counter()
    entries = []
    for g in graphs:
        assert validate(g) == []
        exact = exact_marginals(g, "brute")
        boxes = {}
        for v in range(g.num_variables):
            boxes[("subtree", v)] = boxprop_subtree(g, build_subtree(g, v, 100_000)).box
            boxes[("sawtree", v)] = boxprop_sawtree(g, build_saw_tree(g, v, 2000)).box
        entries.append((g, exact, boxes))
    elapsed = time.perf_counter() - t0
    return entries, elapsed


def test_criterion_03_soundness_sweep(soundness_sweep):
    with criterion(3, "200 random graphs: exact marginal in both boxes (1e-9), < 2 min"):
        entries, elapsed = soundness_sweep
        assert len(entries) == 200
        for g, exact, boxes in entries:
            for v in range(g.num_variables):
                assert box_contains(boxes[("subtree", v)], exact[v].values, slack=1e-9)
                assert box_contains(boxes[("sawtree", v)], exact[v].values, slack=1e-9)
        assert elapsed < 120.0


def test_criterion_04_bp_containment(soundness_sweep):
    with criterion(4, "BP beliefs (when converged at 1e-9) inside both boxes (1e-9)"):
        entries, _ = soundness_sweep
        converged = 0
        for g, _, boxes in entries:
            res = bp_marginals(g, tol=1e-9, max_iter=500)
            if not res.converged:
                continue
            converged += 1
            for v in range(g.num_variables):
                assert box_contains(boxes[("subtree", v)], res.beliefs[v].values, slack=1e-9)
                assert box_contains(boxes[("sawtree", v)], res.beliefs[v].values, slack=1e-9)
        assert converged > 0  # the sweep must actually exercise the claim


# ----------------------------------------------------------------- criterion 5


def test_criterion_05_tree_exactness():
    with criterion(5, "50 random factor trees: degenerate boxes equal exact (1e-9), < 30 s"):
        rng = np.random.default_rng(55)
        t0 = time.perf_counter()
        for _ in range(50):
            n = int(rng.integers(5, 101))
            g = random_tree_graph(rng, n)
            exact = exact_marginals(g, "varelim")
            for v in range(g.num_variables):
                sub = boxprop_subtree(g, build_subtree(g, v, 10**9)).box
                saw = boxprop_sawtree(g, build_saw_tree(g, v, 10**9)).box
                for box in (sub, saw):
                    assert gap(box) <= 1e-9
                    assert np.abs(box.lower.values - exact[v].values).max() <= 1e-9
                    assert np.abs(box.upper.values - exact[v].values).max() <= 1e-9
        assert time.perf_counter() - t0 < 30.0


# ----------------------------------------------------------------- criterion 6


def test_criterion_06_pairwise_truncation_equivalence():
    with criterion(6, "50 pairwise graphs: subtree bound equals restricted walk-tree bound (1e-12)"):
        rng = np.random.default_rng(66)
        for _ in range(50):
            g = random_pairwise_graph(rng)
            root = int(rng.integers(0, g.num_variables))
            for budget in (4, 9, 10_000):
                t = build_subtree(g, root, budget)
                a = boxprop_subtree(g, t).box
                b = boxprop_sawtree(g, t).box
                assert np.abs(a.lower.values - b.lower.values).max() <= 1e-12
                assert np.abs(a.upper.values - b.upper.values).max() <= 1e-12


# --------------------------------------------------------------- criteria 7-8


def test_criterion_07_binary_grids():
    with criterion(7, "5x5 spin-glass grids over four strengths: containment, medians, < 5 min"):
        t0 = time.perf_counter()
        medians = {}
        for beta in BETAS:
            g = gen_ising_grid(GridSpec(5, 5, 2, beta, seed=42))
            result = compare(
                g, ["subtree", "sawtree"],
                {"subtree": 5000, "sawtree": 5000},
                exact_engine="varelim",
            )
            assert result.exact is not None
            assert not any(r.note for r in result.detail_records)
            for rec in result.detail_records:
                ex = result.exact[rec.variable].values
                assert np.all(ex >= np.array(rec.lower) - 1e-9)
                assert np.all(ex <= np.array(rec.upper) + 1e-9)
            medians[beta] = (
                median_gap(result.gap_records, "sawtree"),
                median_gap(result.gap_records, "subtree"),
            )
        for beta in (0.01, 0.1, 1.0):
            saw_med, sub_med = medians[beta]
            assert saw_med <= sub_med, f"beta={beta}: {saw_med} > {sub_med}"
        assert time.perf_counter() - t0 < 300.0


def test_criterion_08_ternary_grids():
    with criterion(8, "5x5 ternary grids over four strengths: containment, < 10 min"):
        t0 = time.perf_counter()
        for beta in BETAS:
            g = gen_ternary_grid(GridSpec(5, 5, 3, beta, seed=42))
            result = compare(
                g, ["subtree", "sawtree"],
                {"subtree": 5000, "sawtree": 5000},
                exact_engine="varelim",
            )
            assert result.exact is not None
            assert not any(r.note for r in result.detail_records)
            for rec in result.detail_records:
                ex = result.exact[rec.variable].values
                assert np.all(ex >= np.array(rec.lower) - 1e-9)
                assert np.all(ex <= np.array(rec.upper) + 1e-9)
        assert time.perf_counter() - t0 < 600.0


# ----------------------------------------------------------------- criterion 9


def test_criterion_09_scale_invariance():
    with criterion(9, "scaling any single factor by 7.3 moves neither box by more than 1e-12"):
        g = triangle_graph()
        base_sub = boxprop_subtree(g, build_subtree(g, 0, 100)).box
        base_saw = boxprop_sawtree(g, build_saw_tree(g, 0, 10_000)).box
        for fid in range(g.num_factors):
            scaled = scale_factor(g, fid, 7.3)
            sub = boxprop_subtree(scaled, build_subtree(scaled, 0, 100)).box
            saw = boxprop_sawtree(scaled, build_saw_tree(scaled, 0, 10_000)).box
            assert np.abs(sub.lower.values - base_sub.lower.values).max() <= 1e-12
            assert np.abs(sub.upper.values - base_sub.upper.values).max() <= 1e-12
            assert np.abs(saw.lower.values - base_saw.lower.values).max() <= 1e-12
            assert np.abs(saw.upper.values - base_saw.upper.values).max() <= 1e-12


# ---------------------------------------------------------------- criterion 10


def test_criterion_10_near_linear_scaling():
    with criterion(10, "walk-tree time at fixed truncation: 20x20 grid < 6x the 10x10 grid"):
        def total_sawtree_time(rows, cols):
            g = gen_ising_grid(GridSpec(rows, cols, 2, 1.0, seed=7))
            t0 = time.perf_counter()
            for v in range(g.num_variables):
                boxprop_sawtree(g, build_saw_tree(g, v, 1000))
            return time.perf_counter() - t0

        small = total_sawtree_time(10, 10)
        large = total_sawtree_time(20, 20)
        assert large < 6.0 * small, f"{large:.2f}s vs {small:.2f}s"


# ---------------------------------------------------------------- criterion 11


def test_criterion_11_oracle_cross_check():
    with criterion(11, "variable elimination equals brute force (1e-12) on 100 random graphs"):
        rng = np.random.default_rng(1111)
        for _ in range(100):
            g = random_connected_graph(rng, max_vars=12, max_domain=3)
            brute = exact_marginals(g, "brute")
            ve = exact_marginals(g, "varelim")
            for a, b in zip(brute, ve):
                assert np.abs(a.values - b.values).max() <= 1e-12

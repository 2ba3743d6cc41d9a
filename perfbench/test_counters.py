"""The benchmark's own counters on seed 42, against independently known figures.

Run from the repository root: ``python3 -m pytest perfbench/test_counters.py``.

Root 12 of the 5x5 binary grid at 5000 nodes has 3,560 inner, 1,111
dead-end, 328 cycle and 1,090 truncated walk nodes; over all 25 roots the
walk trees make 86,903 ``bound_sum_product_joint`` calls with only 3,369
distinct (factor, kept variable, input box) keys.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from boxprop import propagation  # noqa: E402
from perfbench.spans import Tracer, saw_node_kinds  # noqa: E402
from perfbench.workloads import GRID_NODES, grid_graphs  # noqa: E402


def binary_grid():
    (tag, g), _ = grid_graphs(42)
    assert tag == "binary"
    return g


def test_saw_node_kinds_root_12():
    tree = propagation.build_saw_tree(binary_grid(), 12, GRID_NODES)
    assert saw_node_kinds(tree) == {"inner": 3560, "dead_end": 1111, "cycle": 328, "truncated": 1090}
    assert tree.node_count == 5000


def test_factor_message_counts_all_roots():
    g = binary_grid()
    tracer = Tracer()
    with tracer.installed():
        for r in range(g.num_variables):
            tracer.begin_root()
            propagation.boxprop_sawtree(g, propagation.build_saw_tree(g, r, GRID_NODES))
    m = tracer.pass_metrics()
    assert m["measure.bound_sum_product_joint.calls"] == 86_903
    assert m["measure.factor_msg.calls"] == 86_903
    assert m["measure.factor_msg.distinct"] == 3_369
    assert m["propagation.build_saw_tree.calls"] == 25
    assert m["measure.normalized_corner_box.calls"] == 25
    # Every span of a root carries that root's id, and spans nest inside
    # their parents.
    assert len(set(tracer.root)) == 25
    n = len(tracer.name)
    for i in range(n):
        p = tracer.parent[i]
        if p >= 0:
            assert tracer.start[p] <= tracer.entry[i] <= tracer.exit[i] <= tracer.end[p]
            assert tracer.root[p] == tracer.root[i]
    assert m["propagation.boxprop_sawtree.self_s"] > 0.0


def test_tracer_restores_functions():
    before = propagation.bound_sum_product_joint
    with Tracer().installed():
        assert propagation.bound_sum_product_joint is not before
    assert propagation.bound_sum_product_joint is before

"""boxprop: rigorous per-variable bounds on factor-graph marginals.

Computes, for each variable of a discrete factor graph, a box (per-state lower
and upper bounds) guaranteed to contain the exact marginal as well as any
converged loopy belief propagation belief. Two propagation schemes are
provided: one over breadth-first subtrees of the factor graph, one over
(truncated) self-avoiding-walk trees.
"""

from .errors import CapacityExceededError, FgFormatError, ZeroMeasureError
from .factorgraph import (
    Factor,
    FactorGraph,
    Violation,
    parse_fg,
    validate,
    write_fg,
)
from .measure import (
    Box,
    Measure,
    MessageSet,
    Simplex,
    bound_sum_product,
    bound_sum_product_joint,
    box_product_disjoint_sbb,
    box_product_same_scope,
    marginalize_out,
    multiply,
    normalize,
)
from .propagation import (
    BoundResult,
    BpResult,
    SawNode,
    SawTree,
    bp_marginals,
    boxprop_sawtree,
    boxprop_subtree,
    build_saw_tree,
    build_subtree,
    exact_marginals,
)

__version__ = "0.1.0"

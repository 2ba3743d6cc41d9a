"""The re-pin corpus: a fixed set of roots whose boxes are checked in as text.

The corpus holds the roots ``test_golden_boxes.py`` digests, in its order
(both methods at several budgets on three seeded random graphs, and the
seed-42 3x3 binary grid), then every root of the seed-42 5x5 binary and
ternary grids at 1,000 nodes under both methods. ``box_lines`` gives one
line per box, ``<graph> <method> <budget> <root> | <lower> | <upper>``, each
bound in ``float.hex``. ``scripts/write_boxes.py`` writes those lines to
``BOXES_FILE`` (or any path), ``test_box_corpus.py`` checks that the engine
reproduces that file, and ``scripts/nesting.py`` compares two such files box
by box.
"""

from pathlib import Path

import numpy as np

from boxprop.bench import GridSpec, gen_ising_grid, gen_ternary_grid, run_method
from helpers import random_connected_graph

BOXES_FILE = Path(__file__).with_name("boxes.txt")


def corpus():
    """``(name, graph, runs)`` triples, ``runs`` a tuple of ``(method, budget)`` pairs."""
    rng = np.random.default_rng(38)
    golden_runs = (("sawtree", 60), ("sawtree", 500), ("subtree", 8), ("subtree", 500))
    cases = [
        (f"golden-random-{k}", random_connected_graph(rng, max_vars=8, max_domain=3, max_arity=3),
         golden_runs)
        for k in range(3)
    ]
    cases.append(("golden-ising-3x3", gen_ising_grid(GridSpec(3, 3, 2, 1.0, 42)),
                  (("sawtree", 500), ("subtree", 500))))
    both = (("sawtree", 1000), ("subtree", 1000))
    cases.append(("ising-5x5", gen_ising_grid(GridSpec(5, 5, 2, 1.0, 42)), both))
    cases.append(("ternary-5x5", gen_ternary_grid(GridSpec(5, 5, 3, 1.0, 42)), both))
    return cases


def box_lines() -> list[str]:
    """Every root's box of the corpus, one line each, in corpus order."""
    lines = []
    for name, g, runs in corpus():
        for method, budget in runs:
            for r in range(g.num_variables):
                box = run_method(g, method, r, budget).box
                lo, hi = (" ".join(map(float.hex, b.values.tolist())) for b in (box.lower, box.upper))
                lines.append(f"{name} {method} {budget} {r} | {lo} | {hi}")
    return lines

"""Bit-identity golden: a sha256 over every box of a fixed set of roots.

The digest covers the lower and upper bytes of every root's box, for both
methods at several budgets, on three seeded random graphs with factors of
arity up to 3 and domains up to 3, and on the seed-42 3x3 binary grid. Any
change to the propagation engine that moves a single byte of any box fails
this test; a change meant to move bytes must say so and update the digest.
"""

import hashlib

import numpy as np

from boxprop.bench import GridSpec, gen_ising_grid, run_method
from helpers import random_connected_graph

GOLDEN_SHA256 = "e474e38daf1bd26f1448847b3c0e32f7b9d83f559f59291db6a0d6e147284199"


def test_boxes_match_the_golden_digest():
    rng = np.random.default_rng(38)
    cases = [
        (
            random_connected_graph(rng, max_vars=8, max_domain=3, max_arity=3),
            (("sawtree", 60), ("sawtree", 500), ("subtree", 8), ("subtree", 500)),
        )
        for _ in range(3)
    ]
    cases.append((gen_ising_grid(GridSpec(3, 3, 2, 1.0, 42)), (("sawtree", 500), ("subtree", 500))))
    digest = hashlib.sha256()
    for g, runs in cases:
        for method, budget in runs:
            for r in range(g.num_variables):
                box = run_method(g, method, r, budget).box
                digest.update(box.lower.values.tobytes())
                digest.update(box.upper.values.tobytes())
    assert digest.hexdigest() == GOLDEN_SHA256

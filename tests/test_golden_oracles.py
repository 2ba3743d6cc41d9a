"""Bit-identity golden for the oracles: one sha256 over BP and varelim outputs.

The digest covers, for every graph below, the BP beliefs' bytes with their
``iterations``, ``converged`` and ``residual`` at damping 0 and 0.3, and the
bytes of every variable-elimination marginal. The graphs are three seeded
random graphs (seed 41, chosen so that each has a domain of 8 or 9 and three
factors have arity 3), a 30-variable random factor tree and the 8x8 binary
grid at beta 0.2, seed 101. Any change to either oracle that moves a single
byte fails this test; a change meant to move bytes must say so and update the
digest.
"""

import hashlib

import numpy as np

from boxprop.bench import GridSpec, gen_ising_grid
from boxprop.propagation import bp_marginals, exact_marginals
from helpers import random_connected_graph, random_tree_graph

GOLDEN_SHA256 = "e378a3a7ac29ef021b7eff38d13b107c4ca1b55f06f2e3129d0394d7d5809d5a"


def test_oracles_match_the_golden_digest():
    rng = np.random.default_rng(41)
    graphs = [random_connected_graph(rng, max_vars=6, max_domain=9, max_arity=3) for _ in range(3)]
    graphs.append(random_tree_graph(np.random.default_rng(7), 30))
    graphs.append(gen_ising_grid(GridSpec(8, 8, 2, 0.2, 101)))
    digest = hashlib.sha256()
    for g in graphs:
        for damping in (0.0, 0.3):
            res = bp_marginals(g, tol=1e-9, max_iter=500, damping=damping)
            digest.update(repr((res.iterations, res.converged, res.residual)).encode())
            for b in res.beliefs:
                digest.update(b.values.tobytes())
        for m in exact_marginals(g, "varelim"):
            digest.update(m.values.tobytes())
    assert digest.hexdigest() == GOLDEN_SHA256

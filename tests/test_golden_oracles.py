"""Bit-identity goldens for the oracles: one sha256 for BP, one for varelim.

The graphs are three seeded random graphs (seed 41, chosen so that each has a
domain of 8 or 9 and three factors have arity 3), a 30-variable random factor
tree and the 8x8 binary grid at beta 0.2, seed 101. The BP digest covers, for
every graph, the beliefs' bytes with their ``iterations``, ``converged`` and
``residual`` at damping 0 and 0.3; the varelim digest covers the bytes of
every variable-elimination marginal. Any change to an oracle that moves a
single byte fails its test; a change meant to move bytes must say so and
update that digest.
"""

import hashlib

import numpy as np
import pytest

from boxprop.bench import GridSpec, gen_ising_grid
from boxprop.propagation import bp_marginals, exact_marginals
from helpers import random_connected_graph, random_tree_graph

BP_SHA256 = "76ef5d9e3716b09612be62fd5091439ef33743d7c38bb87b4fa6773bc3f07a25"
VARELIM_SHA256 = "11017dbcc545ca8871ee86613a2c5bf4b9bc8be030b941fda812e199d3ab3181"


@pytest.fixture(scope="module")
def graphs():
    rng = np.random.default_rng(41)
    out = [random_connected_graph(rng, max_vars=6, max_domain=9, max_arity=3) for _ in range(3)]
    out.append(random_tree_graph(np.random.default_rng(7), 30))
    out.append(gen_ising_grid(GridSpec(8, 8, 2, 0.2, 101)))
    return out


def test_bp_matches_the_golden_digest(graphs):
    digest = hashlib.sha256()
    for g in graphs:
        for damping in (0.0, 0.3):
            res = bp_marginals(g, tol=1e-9, max_iter=500, damping=damping)
            digest.update(repr((res.iterations, res.converged, res.residual)).encode())
            for b in res.beliefs:
                digest.update(b.values.tobytes())
    assert digest.hexdigest() == BP_SHA256


def test_varelim_matches_the_golden_digest(graphs):
    digest = hashlib.sha256()
    for g in graphs:
        for m in exact_marginals(g, "varelim"):
            digest.update(m.values.tobytes())
    assert digest.hexdigest() == VARELIM_SHA256

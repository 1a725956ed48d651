"""Exact one-vertex laws at scale, through the light cone.

Every variate a round reads at a vertex (its score, its proposal, the
coins of its edges) is its own, a neighbour's or an incident edge's, and
its update reads its neighbours' previous spins. So after t rounds the
spin at u depends only on the start and the tape on u's t-ball. On
cycle(N), N > 2t + 1, that ball is a path of 2t + 1 vertices, and
cycle(2t + 1) is the same path around vertex 0 plus one edge between the
ball's two ends, which no update reaching vertex 0 by round t reads. The
law of X_t(u) on the large cycle is therefore the vertex-0 marginal of the
exact row x0 P^t on cycle(2t + 1), from the start that matches u's ball.

The large cycle starts from the period-2 configuration u % 2, so every
vertex of one parity (its phase) has the same ball start. A run's
per-phase spin frequencies are i.i.d. across runs; their mean is judged
against the exact marginal by a z-bound (standard error from the runs),
Bonferroni-corrected over every cell of its family, with a family-wise
false-alarm rate of ALPHA under a correct kernel. The colorings and Ising
form the first family; hardcore and Potts, added later, the second, with
a bound over its own cells. A cell whose exact probability is 0 or 1 must
match exactly. The seed and each family's bound were fixed before that
family's first run. The sampled job is one run_chunked call of at least 4
chunks on 2 threads, so it judges the shared plan, the bucket tables, the
per-mask table and the chunk split at scale.
"""

from statistics import NormalDist

import numpy as np
import pytest

from localgibbs.chains import local_metropolis, luby_glauber
from localgibbs.engine import run_chunked
from localgibbs.graphs import cycle
from localgibbs.models import coloring, hardcore, ising, potts
from localgibbs.oracle import (all_configs, exact_transition_matrix,
                               rank_of_config)
from localgibbs.randomness import RandomTape

N, RUNS, THREADS, SEED = 2048, 256, 2, 2026
MODELS = {"coloring-3": lambda g: coloring(g, 3),
          "ising-3": lambda g: ising(g, 3.0),
          "hardcore-2": lambda g: hardcore(g, 2.0),
          "potts-3": lambda g: potts(g, 3, 3.0)}
FAMILIES = (("coloring-3", "ising-3"), ("hardcore-2", "potts-3"))
CHAINS = {"luby": luby_glauber(), "metropolis": local_metropolis()}
ROUNDS = (1, 2)
ALPHA = 1e-4


def _z_max(family):
    """The Bonferroni z-bound over a family's cells: two phases times q
    spins, for every (model, chain, t)."""
    cells = sum(2 * MODELS[m](cycle(3)).q for m in family) * len(CHAINS) \
        * len(ROUNDS)
    return NormalDist().inv_cdf(1 - ALPHA / (2 * cells))


# 40 cells in each family: |z| < 4.71
Z_MAX = {m: _z_max(family) for family in FAMILIES for m in family}
# phase-0 marginals from an earlier exact computation, which the exact
# side must reproduce: the oracle input is set up as described above
PHASE_0 = {
    ("coloring-3", "luby", 1): [0.83333, 0, 0.16667],
    ("coloring-3", "metropolis", 1): [0.96296, 0, 0.03704],
    ("coloring-3", "luby", 2): [0.76667, 0.00556, 0.22778],
    ("coloring-3", "metropolis", 2): [0.93111, 0.00015, 0.06874],
    ("ising-3", "luby", 1): [0.7, 0.3],
    ("ising-3", "metropolis", 1): [0.94444, 0.05556],
    ("ising-3", "luby", 2): [0.58, 0.42],
    ("ising-3", "metropolis", 2): [0.89598, 0.10402],
    ("hardcore-2", "luby", 1): [1, 0],
    ("hardcore-2", "metropolis", 1): [1, 0],
    ("hardcore-2", "luby", 2): [0.99671, 0.00329],
    ("hardcore-2", "metropolis", 2): [0.9997, 0.0003],
    ("potts-3", "luby", 1): [0.69697, 0.27273, 0.0303],
    ("potts-3", "metropolis", 1): [0.97511, 0.02241, 0.00249],
    ("potts-3", "luby", 2): [0.55856, 0.37809, 0.06336],
    ("potts-3", "metropolis", 2): [0.95155, 0.04351, 0.00494],
}


def _exact(model, chain, t):
    """(2, q): the vertex-0 law after t rounds on cycle(2t + 1), from the
    ball start of each phase."""
    n = 2 * t + 1
    inst = MODELS[model](cycle(n))
    P = exact_transition_matrix(CHAINS[chain], inst).rows
    spin0 = all_configs(n, inst.q)[:, 0]
    out = []
    for phase in (0, 1):
        start = [(phase + min(j, n - j)) % 2 for j in range(n)]
        row = np.zeros(len(P))
        row[rank_of_config(start, inst.q)] = 1.0
        for _ in range(t):
            row = row @ P
        out.append([row[spin0 == s].sum() for s in range(inst.q)])
    return np.array(out)


def _sampled(model, chain, t):
    """(RUNS, 2, q): each run's spin frequencies over the vertices of each
    phase after t rounds on cycle(N), and the job's chunk count."""
    inst = MODELS[model](cycle(N))
    phase = np.arange(N) % 2

    def observe(runs, x):  # x is (N, rows)
        return np.stack([(x[phase == c, :, None] == np.arange(inst.q))
                         .mean(axis=0) for c in (0, 1)], axis=1)

    chunks = list(run_chunked(inst, CHAINS[chain], t, RUNS, RandomTape(SEED),
                              (phase,), observe, threads=THREADS))
    return np.concatenate([c[t] for c in chunks]), len(chunks)


@pytest.mark.parametrize("t", ROUNDS)
@pytest.mark.parametrize("chain", sorted(CHAINS))
@pytest.mark.parametrize("model", sorted(MODELS))
def test_one_vertex_law_matches_the_exact_light_cone(model, chain, t):
    exact = _exact(model, chain, t)
    np.testing.assert_allclose(exact[0], PHASE_0[model, chain, t], atol=5e-6)
    freq, chunks = _sampled(model, chain, t)
    assert chunks >= 4
    mean = freq.mean(axis=0)
    se = freq.std(axis=0, ddof=1) / np.sqrt(RUNS)
    certain = (exact == 0) | (exact == 1)
    np.testing.assert_array_equal(mean[certain], exact[certain])
    z = (mean[~certain] - exact[~certain]) / se[~certain]
    assert np.abs(z).max() < Z_MAX[model], (z, Z_MAX[model])

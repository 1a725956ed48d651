"""Pinned digests of sample_many final configurations.

Every chain and scheduler is run on three fixed instances and the sha256 of
the final (n_runs, n) int64 batch is compared against a recorded value.
A refactor of the round functions must keep these digests; a change that
moves one must say in CHANGES.md why the new output is correct.
"""

import hashlib

import numpy as np
import pytest

from localgibbs.chains import (SchedulerSpec, chromatic_classes,
                               local_metropolis, luby_glauber,
                               sequential_glauber)
from localgibbs.engine import sample_many
from localgibbs.graphs import Graph, random_regular
from localgibbs.models import coloring
from localgibbs.mrf import MrfInstance
from localgibbs.randomness import RandomTape


def _multigraph_instance() -> MrfInstance:
    # parallel edges (0,1) x2 and (4,6) x2; vertex 3 has no neighbors
    g = Graph(7, [(0, 1), (1, 0), (1, 2), (2, 4), (4, 5), (5, 6), (6, 0),
                  (2, 5), (4, 6), (6, 4)])
    q = 3
    i, j = np.indices((q, q))
    edge = [0.25 + ((i + j + 2 * e) % 5) * 0.35 for e in range(g.m)]
    vertex = [0.5 + ((3 * v + np.arange(q)) % 4) * 0.37 for v in range(g.n)]
    return MrfInstance(g, q, edge, vertex)


def _regular_coloring() -> MrfInstance:
    return coloring(random_regular(24, 3, seed=5), 8)


def _hub_and_tail_instance() -> MrfInstance:
    # skewed degrees: hub 1 has degree 8 (the edge (1,8) twice), the path
    # tail 8-12 hangs off it, and vertices 0 and 13 are isolated
    g = Graph(14, [(1, 2), (1, 3), (1, 4), (1, 5), (1, 6), (1, 7), (1, 8),
                   (8, 1), (2, 3), (8, 9), (9, 10), (10, 11), (11, 12)])
    q = 3
    i, j = np.indices((q, q))
    edge = [0.2 + ((i + j + e) % 4) * 0.45 for e in range(g.m)]
    vertex = [0.4 + ((2 * v + np.arange(q)) % 5) * 0.3 for v in range(g.n)]
    return MrfInstance(g, q, edge, vertex)


INSTANCES = {"multigraph": _multigraph_instance, "rr24-q8": _regular_coloring,
             "hub-tail": _hub_and_tail_instance}


def _chain(name, inst):
    if name == "luby":
        return luby_glauber(SchedulerSpec("luby"))
    if name == "chromatic":
        return luby_glauber(SchedulerSpec("chromatic",
                                          chromatic_classes(inst.graph)))
    if name == "single-site":
        return luby_glauber(SchedulerSpec("single-site"))
    if name == "sequential":
        return sequential_glauber()
    return local_metropolis()


PINS = {
    # recorded before the resampling round was restricted to scheduled pairs
    ("multigraph", "luby"):
        "38818d958138bcf1f1d4f8a37fc639c27fbe2c82065e19f92b53e2b3a62c7b36",
    ("multigraph", "chromatic"):
        "6061bd240d93e4680849f97b9251f434c9180964dd93a5378bdcd1dc973969bb",
    ("multigraph", "single-site"):
        "1c022de95e19ac1515fe81b7439e209331ad8bfa01b5ea5f01e67fb45fd440bb",
    ("multigraph", "sequential"):
        "1c022de95e19ac1515fe81b7439e209331ad8bfa01b5ea5f01e67fb45fd440bb",
    ("multigraph", "metropolis"):
        "7ab741a6da8c1b066678745eeb59b9abc814690e2111532706090fcfed2b3533",
    ("rr24-q8", "luby"):
        "fca907b37b7585127bd4cda33a2e7d517cfb3d4959ce2a74b8b69874a459c285",
    ("rr24-q8", "chromatic"):
        "a820db61efcb1e470b4a41c5602579cc8781bc332a51a8238ddb11bec8fd1fe2",
    ("rr24-q8", "single-site"):
        "d28c80e366b61ebf8e335316e8d07bd251d3f02d1c8caa6374c990f1887db6ee",
    ("rr24-q8", "sequential"):
        "d28c80e366b61ebf8e335316e8d07bd251d3f02d1c8caa6374c990f1887db6ee",
    ("rr24-q8", "metropolis"):
        "2056bc5733a1601822e5b42fdb394231762ebb272cdc569de6fa3a027ee8fcbe",
    # recorded before the neighbourhood reductions moved to the slot table
    ("hub-tail", "luby"):
        "cd1cd5b1e9047f7ed0b941e7ff7d8f9bb1b47aa1dc883bed3d154aec11dca1e0",
    ("hub-tail", "chromatic"):
        "54cc097c37a9dbbb1cf8c962af353480d25eda425b9748b95e2314c263459e45",
    ("hub-tail", "single-site"):
        "177b244413a8549d56d3593654729714456c1778665ec6dd78ee5547c30c96a4",
    ("hub-tail", "sequential"):
        "177b244413a8549d56d3593654729714456c1778665ec6dd78ee5547c30c96a4",
    ("hub-tail", "metropolis"):
        "89690670678ddb177de29056e8bf91c491515f92759e9e6216f83b4a8453492c",
}


@pytest.mark.parametrize("instance,chain", sorted(PINS))
def test_sample_many_digest_pinned(instance, chain):
    inst = INSTANCES[instance]()
    res = sample_many(inst, _chain(chain, inst), rounds=12, n_runs=96,
                      tape=RandomTape(1702))
    assert hashlib.sha256(res.final.tobytes()).hexdigest() == PINS[instance, chain]

"""Pinned digests of run_batch, mixing_scan and coupling_decay outputs.

Every chain and scheduler is run on three fixed instances and the sha256 of
the final (n_runs, n) int64 batch is compared against a recorded value; the
mixing curves (per-start TVs) and coupling curves (phi, stderr, rate) of
two chains are pinned the same way, and so are the float outputs of the
Metropolis filter probabilities and the single-site conditionals.
A refactor of the round functions must keep these digests; a change that
moves one must say in CHANGES.md why the new output is correct.
"""

import hashlib
import json

import numpy as np
import pytest

from localgibbs import cli
from localgibbs.chains import (SchedulerSpec, _filter_probs,
                               chromatic_classes, local_metropolis,
                               luby_glauber, sequential_glauber)
from localgibbs.diagnostics import coupling_decay, mixing_scan
from localgibbs.engine import PRESETS, initial_config, run_batch
from localgibbs.graphs import Graph, cycle, random_regular
from localgibbs.models import coloring, hardcore, list_coloring
from localgibbs.mrf import MrfInstance, marginal
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


def _regular_hardcore() -> MrfInstance:
    # fugacity away from 1, so that the Metropolis proposals are not uniform
    return hardcore(random_regular(24, 3, seed=5), 0.5)


def _regular_list_coloring() -> MrfInstance:
    # lists of 4 to 6 of the 8 colors: 0/1 vertex activities, so the
    # proposals are uniform over each vertex's own list
    lists = [[c for c in range(8) if (c + v) % (v % 3 + 2)]
             for v in range(24)]
    return list_coloring(random_regular(24, 3, seed=5), 8, lists)


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


def _hub_and_tail_wide(q: int) -> MrfInstance:
    # the hub-and-tail graph with q spins and symmetric activities spread
    # over four decades, so that a change in the order of a q-term sum
    # moves bits; at q = 9, 16 and 137 they guard the order of marginal's
    # numpy row sum (8 accumulators, then halves) and of _filter_probs's
    # three factors
    g = _hub_and_tail_instance().graph
    i, j = np.indices((q, q))
    edge = [(0.3 + ((i * j + 2 * (i + j) + e) % 7) * 0.45)
            * 10.0 ** ((i + j + e) % 4 - 2) for e in range(g.m)]
    c = np.arange(q)
    vertex = [(0.2 + ((5 * v + 3 * c) % 11) * 0.31)
              * 10.0 ** ((v + c) % 3 - 1) for v in range(g.n)]
    return MrfInstance(g, q, edge, vertex)


def _hub_and_tail_lists(q: int) -> MrfInstance:
    # list colorings on the hub-and-tail graph: 0/1 tables with parallel
    # edges and isolated vertices, and at q = 9 and 137 more than 8 spins.
    # The hub keeps every color, more than its 7 neighbors; every other
    # vertex drops about a quarter of them, so no conditional is empty
    lists = [[c for c in range(q) if v == 1 or (c + v) % 4]
             for v in range(14)]
    return list_coloring(_hub_and_tail_instance().graph, q, lists)


INSTANCES = {"multigraph": _multigraph_instance, "rr24-q8": _regular_coloring,
             "hardcore-rr24": _regular_hardcore,
             "list-rr24-q8": _regular_list_coloring,
             "hub-tail": _hub_and_tail_instance,
             **{f"hub-tail-q{q}": (lambda q=q: _hub_and_tail_wide(q))
                for q in (9, 16, 137)},
             **{f"list-hub-tail-q{q}": (lambda q=q: _hub_and_tail_lists(q))
                for q in (9, 137)}}


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
    # recorded before the resampling round moved to the spin-major layout
    ("hub-tail-q9", "chromatic"):
        "45a9f272fee71c1e4aa7ad34925f1a8a0bf6d1de1c79a1972ba3e6cf0adadd27",
    ("hub-tail-q9", "luby"):
        "e2b929b5d55ec9406f5ca1c5e9b053c310b47736284231c6dd99b455b7a17ade",
    ("hub-tail-q9", "single-site"):
        "68bda713c2ea10cea3334d4d98d51f86769d87f93b421458c6cf3c4d305b18d3",
    ("hub-tail-q16", "chromatic"):
        "1b078a6c90523e575ca495ced8a3ecc8dc29687318dcbd84956070c677026700",
    ("hub-tail-q16", "luby"):
        "623907ad0669b64401f5051fcbdd5902129bc31cd7e925490fbc573086d179d4",
    ("hub-tail-q16", "single-site"):
        "4e9a6ab4ed60f0fd425c63b5239a1ad453681dfe5aeb2b2140029ae5324091f1",
    ("hub-tail-q137", "chromatic"):
        "50d11fe88f8bd4f186f85ad81d4aa3c1133f3245a224b39bcd7e64695941735b",
    ("hub-tail-q137", "luby"):
        "b5482eb2423328d31d8eda459a94ef722cc673984fea2b1dc50c2167b41e45b1",
    ("hub-tail-q137", "single-site"):
        "700d7e6f675ff78cb1b9ec9ee1c108888483d8166b276251e28c73d301999d4c",
    # recorded before the Metropolis filter skipped the edge coins on
    # instances whose normalized activities are all 0 or 1
    ("hardcore-rr24", "metropolis"):
        "5e3406c9863a058853d6aee90fdce1be7f1ed5abbf8452792f8477c0a2e4ef8c",
    ("list-rr24-q8", "metropolis"):
        "092a3b2e537cf473ae68ff8c26a59032be0bff5735b9abc4078aafe6165405b7",
    # recorded before the resampling round ANDed packed 0/1 slot tables
    ("hardcore-rr24", "luby"):
        "91f2d86e78d7b7bb43f3243962f3a86da14092f1f4d2149799025f7dc35f99dd",
    ("hardcore-rr24", "chromatic"):
        "20ac2029dc9bc87d728d12df90b095a87d036873cd720159570adb18f1efd61e",
    ("hardcore-rr24", "single-site"):
        "cb512aad4633149dc613f54c38a5833a8a7b938c6af03f260ec6ace048c715e9",
    ("list-rr24-q8", "luby"):
        "42f673a95447baf55209d72175d8e56a7730eb86d7f7d9541696bacbcf6fe986",
    ("list-rr24-q8", "chromatic"):
        "c9e11f625c27e16223c6de0eaab532a2c40dc42f3fb7380cab511f39bbb6469d",
    ("list-rr24-q8", "single-site"):
        "a08686e36fdecd771da26f289218e8dfc718941b9d84cae3c7894af2f070eff6",
    ("list-hub-tail-q9", "luby"):
        "687d5146d6f8e30d7ceef2936a7454065f56a5b1c264544f2a1a24800dbcd988",
    ("list-hub-tail-q9", "chromatic"):
        "0ce5edc849a7a80bfe7f4e11200c4e02f258826330f7231c7adcaef340da7ae2",
    ("list-hub-tail-q9", "single-site"):
        "853e1aa80d968ce7400e48b12ee1bf03ac65ee3ac9b78bf291f946287f3127e1",
    ("list-hub-tail-q137", "luby"):
        "85fa4d5e50a7fe00ddd1a8f40f8a8f2d9b538b76b0a4b367c009ddf455636b53",
    ("list-hub-tail-q137", "chromatic"):
        "6e4b83096ebc5949a7ed2ac1952aa58f2ef93df7b0f34c830f28aa1d1dacd024",
    ("list-hub-tail-q137", "single-site"):
        "15d1eb28d4a247c12817f7b06c9aae04f76ab7bf9eef5802b31eb3aec90246a6",
}


@pytest.mark.parametrize("instance,chain", sorted(PINS))
def test_sample_many_digest_pinned(instance, chain):
    inst = INSTANCES[instance]()
    tape, runs = RandomTape(1702), np.arange(96)
    final, _ = run_batch(inst, _chain(chain, inst),
                         initial_config(inst, "random", tape, runs), 12, tape,
                         runs)
    assert hashlib.sha256(final.tobytes()).hexdigest() == PINS[instance, chain]


# The state pins above see a float kernel only where a changed last bit
# moves a draw, which takes a uniform between the two roundings. These pin
# the float outputs themselves: the Metropolis filter's per-edge pass
# probabilities and every single-site conditional, over 32 fixed states on
# the wide hub-and-tail instances. Recorded before a round computed its
# randomness once per run for all of the run's starts.
FLOAT_PINS = {
    (9, "filter"):
        "0be70f6bef85bffc8538c426f20d0d727c6587325e415c290431b8a1e4ebb7c9",
    (9, "marginal"):
        "695ddf76c74bbd4f11df8e0e04f6d346390faaa72696c176c1393d0ad03910d8",
    (16, "filter"):
        "e530051ef0867a937dbb8bbd8213fcfb59bb61fe99212257b0f565b7946c01e3",
    (16, "marginal"):
        "01abcb9e48147a8d00a1be310aa88ce14aa8fdd277774a6c5270dac7d1895336",
    (137, "filter"):
        "d6e2b69f5a04f58babd364092d57d2107d2a3a061dcec912fc28228a3246b6f7",
    (137, "marginal"):
        "13cbdd089f0931d778090ba9bbb31e611513a66a2983062d54ea9405bb4470a3",
}


@pytest.mark.parametrize("q,kernel", sorted(FLOAT_PINS))
def test_float_kernel_digest_pinned(q, kernel):
    inst = _hub_and_tail_wide(q)
    tape = RandomTape(1702)
    x = initial_config(inst, "random", tape, np.arange(32, 64))
    h = hashlib.sha256()
    if kernel == "filter":
        sigma = initial_config(inst, "random", tape, np.arange(32))
        h.update(_filter_probs(inst, sigma, x).tobytes())
    else:
        for row in x:
            for v in range(inst.n):
                h.update(marginal(inst, v, row).tobytes())
    assert h.hexdigest() == FLOAT_PINS[q, kernel]


def _c4_coloring() -> MrfInstance:
    return coloring(cycle(4), 3)


def _curve_digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part.tobytes() if isinstance(part, np.ndarray)
                 else json.dumps(part, sort_keys=True).encode())
    return h.hexdigest()


SCAN_INSTANCES = {"c4-q3": _c4_coloring, "multigraph": _multigraph_instance}

# recorded before mix-scan and coupling moved onto the chunked executor;
# hub-tail has 3**14 states, above the enumeration cap, so the mixing pins
# use the 7-vertex multigraph instead
MIXING_PINS = {
    ("c4-q3", "luby"):
        "cbdcc43bd833b5abfb21ef54f73d30e02e2e786de74db31682ee316cafa59005",
    ("c4-q3", "metropolis"):
        "4710ba481b66ed24384841a057784a66313a87de5103d8166acee51087eddb8c",
    ("multigraph", "luby"):
        "3567a45f55d745361943ea499b27d74ae64141593b34cd2cf93050455ec840a0",
    ("multigraph", "metropolis"):
        "9d06756d9ef2a982fba5c123dc699665488e921e8a2f2b9695842ea59e6b33b2",
}

COUPLING_PINS = {
    ("c4-q3", "luby"):
        "a226c69bf446644a816ee4b8105d304be5f889c9a63e1fdec41576c5c29a4224",
    ("c4-q3", "metropolis"):
        "31a8529445f90abfc574f86b88cb42ba4b68d981a33b3aa857028965d6dc1332",
    ("hub-tail", "luby"):
        "8d3b9064d53662fc03bdff51756f815252296258db8eea67ef8a5c38edfe4c46",
    ("hub-tail", "metropolis"):
        "e97dd2df3555f01fa52565f956606f80a8357382b4691b9192f120ab4c67cdfb",
}


@pytest.mark.parametrize("instance,chain", sorted(MIXING_PINS))
def test_mixing_scan_digest_pinned(instance, chain):
    inst = SCAN_INSTANCES[instance]()
    curve = mixing_scan(inst, _chain(chain, inst), [0, 1, 4, 9], 97,
                        RandomTape(1702))
    assert list(curve.per_initial) == list(PRESETS)
    assert _curve_digest(curve.per_initial, curve.tv, curve.tau_hat) \
        == MIXING_PINS[instance, chain]


@pytest.mark.parametrize("instance,chain", sorted(COUPLING_PINS))
def test_coupling_decay_digest_pinned(instance, chain):
    inst = {**SCAN_INSTANCES, **INSTANCES}[instance]()
    curve = coupling_decay(inst, _chain(chain, inst), ("zeros", "max"), 15,
                           101, RandomTape(1702))
    assert _curve_digest(curve.phi, curve.stderr, repr(curve.rate),
                         curve.fit_rounds) == COUPLING_PINS[instance, chain]


# Potts q=11 on a 12-cycle, 13 runs: two-digit spins and run ids. Recorded
# before samples.jsonl and marginals were encoded without json.dumps.
CLI_CONFIG = {
    "model": "potts", "model.q": "11", "model.beta": "0.4", "graph": "cycle",
    "graph.n": "12", "rounds": "6", "n_runs": "13", "seed": "7",
    "initial": "random",
}

CLI_PINS = {
    ("luby_glauber", "csv", "samples.jsonl"):
        "1d75026b3089e4c6d85d492775fddd4863f097e11ad43a38f2647a5bb3184817",
    ("luby_glauber", "csv", "marginals.csv"):
        "2b19ee5a5e7f7534174227423a612d91e56cb944b8ca8c13a93ba007fe15153a",
    ("luby_glauber", "json", "marginals.json"):
        "4f695652442ea3402576be0fe906b61a298fe5041126530bcd30dac7bf9d0597",
    ("local_metropolis", "csv", "samples.jsonl"):
        "011a001fca4ae54175ddb932856b3c3a4cf64dee01d7a4ad176e751f979b8975",
    ("local_metropolis", "csv", "marginals.csv"):
        "b5ce625abde3cc3a226c2b27c0461f1a662c39458d34b9dbb678b43cc2cde98a",
    ("local_metropolis", "json", "marginals.json"):
        "9b0be5620d60b0129cac5b08d9250df0598ca872d6501fc92584ac35f141e9b8",
}


@pytest.mark.parametrize("chain,fmt,name", sorted(CLI_PINS))
def test_sample_file_bytes_pinned(tmp_path, chain, fmt, name):
    cfg = tmp_path / "s.cfg"
    cfg.write_text("".join(f"{k} = {v}\n" for k, v in
                           dict(CLI_CONFIG, chain=chain, format=fmt).items()),
                   encoding="utf-8")
    out = tmp_path / "out"
    assert cli.main(["sample", "--config", str(cfg), "--output", str(out)]) == 0
    digest = hashlib.sha256((out / name).read_bytes()).hexdigest()
    assert digest == CLI_PINS[chain, fmt, name]


# 5000 rounds: more than one block of the selection scan. Recorded before
# the local-maximum rule moved to the vertex-major layout.
GAMMA_CONFIG = {"graph": "random_regular", "graph.n": "40", "graph.d": "3",
                "graph.seed": "2", "rounds": "5000", "seed": "6"}
GAMMA_PIN = "f19b3ec06d8f7851721ec3e06b100bfad6840e5bb9f809878240125e3e992811"


def test_gamma_file_bytes_pinned(tmp_path):
    cfg = tmp_path / "g.cfg"
    cfg.write_text("".join(f"{k} = {v}\n" for k, v in GAMMA_CONFIG.items()),
                   encoding="utf-8")
    out = tmp_path / "out"
    assert cli.main(["gamma", "--config", str(cfg), "--output", str(out)]) == 0
    digest = hashlib.sha256((out / "gamma.csv").read_bytes()).hexdigest()
    assert digest == GAMMA_PIN

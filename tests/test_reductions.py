"""The vectorised neighbourhood reductions against pure-loop references.

Luby selection, the Metropolis filter's per-vertex AND and the resampling
product all reduce over adjacency slots through the graph's rank-major slot
table. Each is compared with a loop in tests/_naive.py on graphs with
skewed degrees, parallel edges and isolated vertices at both ends of the
vertex range, and on graphs without edges.
"""

import numpy as np
import pytest
from _naive import (edge_pairs, naive_all_incident, naive_draw,
                    naive_local_max, naive_resample)
from test_chains import selection_rows
from test_digests import (_filter_probs, _hub_and_tail_instance,
                          _multigraph_instance)

from localgibbs.chains import (SchedulerSpec, local_max_select,
                               local_metropolis, local_metropolis_round_batch,
                               luby_glauber_round_batch, plan,
                               scheduled_set_batch)
from localgibbs.graphs import Graph
from localgibbs.mrf import MrfInstance
from localgibbs.randomness import KIND_NODE_PROPOSAL, RandomTape


def _edgeless(n):
    q = 3
    vertex = [0.5 + ((v + np.arange(q)) % 3) * 0.4 for v in range(n)]
    return MrfInstance(Graph(n, []), q, [], vertex)


INSTANCES = {
    "hub-tail": _hub_and_tail_instance,
    "single-vertex": lambda: _edgeless(1),
    "edgeless": lambda: _edgeless(5),
    "multigraph": _multigraph_instance,
}
RUNS = np.arange(3, 43, dtype=np.int64)


@pytest.fixture(params=sorted(INSTANCES))
def inst(request):
    return INSTANCES[request.param]()


def _random_states(inst, seed):
    rng = np.random.default_rng(seed)
    return rng.integers(0, inst.q, size=(len(RUNS), inst.n))


def test_rank_table_lists_every_slot_once(inst):
    g = inst.graph
    slots = []
    for k in range(len(g.rank_ptr) - 1):
        lo, hi = g.rank_ptr[k], g.rank_ptr[k + 1]
        owners = g.by_degree[:hi - lo]
        assert np.all(g.degrees[owners] > k)
        slot = g.nbr_ptr[owners] + k
        np.testing.assert_array_equal(g.rank_nbr[lo:hi], g.nbr_flat[slot])
        np.testing.assert_array_equal(g.rank_edge[lo:hi], g.nbr_edge[slot])
        slots += slot.tolist()
    assert sorted(slots) == list(range(2 * g.m))
    assert len(g.rank_ptr) - 1 == g.max_degree()


@pytest.mark.parametrize("spread", [None, 3])
def test_local_max_select_matches_loop(inst, spread):
    g = inst.graph
    rng = np.random.default_rng(11)
    if spread is None:
        keys = rng.integers(0, 2 ** 63, size=(len(RUNS), g.n), dtype=np.uint64)
    else:
        # scores from {0, 1, 2}: exact ties everywhere, including score 0
        # at vertices without neighbours
        keys = rng.integers(0, spread, size=(len(RUNS), g.n)).astype(np.uint64)
    sel, edges = local_max_select(g, keys), edge_pairs(g)
    for row in range(len(keys)):
        expect = naive_local_max(edges, g.n, [int(k) for k in keys[row]])
        assert sel[row].tolist() == expect


def test_filter_and_matches_loop(inst):
    g = inst.graph
    edges = edge_pairs(g)
    tape = RandomTape(5)
    x = _random_states(inst, 2)
    b_cdf = plan(local_metropolis(), inst).b_cdf
    for t in range(1, 6):
        u = tape.node_uniforms(KIND_NODE_PROPOSAL, np.arange(g.n), t,
                               RUNS[:, None])
        sigma = naive_draw(b_cdf, u)
        passed = (tape.edge_uniforms(g.eu, g.ev, g.emult, t, RUNS[:, None])
                  < _filter_probs(inst, sigma, x))
        assert passed.shape == (len(RUNS), g.m)
        new_x = local_metropolis_round_batch(inst, x.T, t, tape, RUNS)[0].T
        for row in range(len(RUNS)):
            accepted = naive_all_incident(edges, g.n, passed[row].tolist())
            expect = np.where(accepted, sigma[row], x[row])
            assert new_x[row].tolist() == expect.tolist()


@pytest.mark.parametrize("variant", ["luby", "single-site"])
def test_resampling_round_matches_loop(inst, variant):
    g = inst.graph
    sched = SchedulerSpec(variant)
    tape = RandomTape(8)
    edges, A, b = edge_pairs(g), inst.A.tolist(), inst.b.tolist()
    for t in range(1, 4):
        x = _random_states(inst, t)
        new_x = luby_glauber_round_batch(inst, x.T, sched, t, tape, RUNS)[0].T
        sel = selection_rows(g, scheduled_set_batch(g, sched, t, tape, RUNS))
        u = tape.node_uniforms(KIND_NODE_PROPOSAL, np.arange(g.n), t,
                               RUNS[:, None])
        for row in range(len(RUNS)):
            expect = naive_resample(edges, A, b, inst.q, x[row].tolist(),
                                    sel[row].tolist(), u[row].tolist())
            assert new_x[row].tolist() == expect

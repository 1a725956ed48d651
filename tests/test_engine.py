import json
import re

import numpy as np
import pytest
from _naive import naive_greedy
from hypothesis import given, settings
from hypothesis import strategies as st
from test_digests import _hub_and_tail_lists, _hub_and_tail_wide
from test_kernels import _BITS, _PROPERTY, _tiny_rounds

from localgibbs import cli, engine
from localgibbs.chains import local_metropolis, luby_glauber, sequential_glauber
from localgibbs.engine import (greedy_feasible, initial_config, run_batch,
                               run_chunked)
from localgibbs.graphs import Graph, complete, cycle, path
from localgibbs.models import coloring, hardcore, ising
from localgibbs.mrf import is_feasible
from localgibbs.randomness import RandomTape


def _finals(inst, chain, rounds, n_runs, tape, initial="random", threads=1):
    """Final configurations of n_runs runs, (n_runs, n), from the executor,
    whose observers see each chunk's (n, rows) batch."""
    chunks = run_chunked(inst, chain, rounds, n_runs, tape, (initial,),
                         lambda runs, x: x.copy(), threads=threads)
    return np.concatenate([c[rounds] for c in chunks], axis=1).T


def test_zero_rounds_returns_initial():
    inst = coloring(cycle(6), 3)
    x0 = np.array([0, 1, 2, 0, 1, 2])
    runs = np.arange(7)
    final, _ = run_batch(inst, luby_glauber(), x0, 0, RandomTape(1), runs)
    np.testing.assert_array_equal(final, np.broadcast_to(x0, (7, 6)))
    final = _finals(inst, local_metropolis(), 0, 5, RandomTape(1), "zeros")
    np.testing.assert_array_equal(final, np.zeros((5, 6)))


def test_negative_rounds_rejected():
    inst = ising(path(2), 1.0)
    with pytest.raises(ValueError):
        run_batch(inst, luby_glauber(), np.zeros(2, dtype=int), -1,
                  RandomTape(0), np.arange(1))


def test_initial_presets():
    inst = hardcore(path(4), 2.0)
    np.testing.assert_array_equal(initial_config(inst, "zeros"), 0)
    np.testing.assert_array_equal(initial_config(inst, "max"), 1)
    g = initial_config(inst, "greedy")
    assert is_feasible(inst, g)
    explicit = initial_config(inst, [1, 0, 1, 0])
    np.testing.assert_array_equal(explicit, [1, 0, 1, 0])
    with pytest.raises(ValueError):
        initial_config(inst, "warm")
    with pytest.raises(ValueError):
        initial_config(inst, [2, 0, 0, 0])  # spin out of range
    with pytest.raises(ValueError):
        initial_config(inst, [0, 0, 0])  # wrong length


@pytest.mark.parametrize("x0", [np.int64(0), np.zeros((1, 2, 4), np.int64)],
                         ids=["scalar", "3d"])
def test_starts_must_be_one_configuration_or_a_batch(x0):
    # a (1, 2, n) start is neither one configuration nor a batch of them
    inst = coloring(cycle(4), 3)
    shape = re.escape(f"shape {np.shape(x0)}")
    with pytest.raises(ValueError, match=shape):
        initial_config(inst, x0)
    with pytest.raises(ValueError, match=shape):
        run_batch(inst, luby_glauber(), x0, 1, RandomTape(0), np.arange(1))


def _check_greedy(inst):
    want = naive_greedy(inst.graph.edges, inst.A.tolist(), inst.b.tolist(),
                        inst.q)
    if isinstance(want, int):
        with pytest.raises(ValueError, match=f"dead-ends at vertex {want}$"):
            greedy_feasible(inst)
    else:
        assert greedy_feasible(inst).tolist() == want
    return want


# zeros in A and b, parallel edges, isolated vertices, fractional tables
# and 0/1 ones; nearly half of the examples dead-end
@settings(_PROPERTY, max_examples=100)
@given(st.one_of(_tiny_rounds(), _tiny_rounds(_BITS)))
def test_greedy_start_matches_loop_on_tiny_instances(case):
    _check_greedy(case[0])


@pytest.mark.parametrize("q", [9, 137])
def test_greedy_start_matches_loop_on_wide_spin_sets(q):
    # a spin set of q bits spans several bytes and starts mid-byte
    for inst in (_hub_and_tail_wide(q), _hub_and_tail_lists(q)):
        assert not isinstance(_check_greedy(inst), int)


def test_greedy_feasible_on_colorings():
    inst = coloring(cycle(5), 3)
    assert is_feasible(inst, greedy_feasible(inst))
    with pytest.raises(ValueError):
        greedy_feasible(coloring(complete(3), 2))


def test_random_initial_deterministic_and_per_run():
    inst = ising(path(5), 1.0)
    tape = RandomTape(3)
    runs = np.arange(40)
    a = initial_config(inst, "random", tape, runs)
    b = initial_config(inst, "random", tape, runs)
    np.testing.assert_array_equal(a, b)
    assert a.shape == (40, 5)
    assert len({tuple(row) for row in a.tolist()}) > 1
    with pytest.raises(ValueError):
        initial_config(inst, "random")  # tape and runs required


def test_snapshots_first_and_last():
    inst = coloring(cycle(6), 4)
    runs = np.arange(3)
    x0 = np.array([0, 1, 0, 1, 0, 1])
    final, snaps = run_batch(inst, luby_glauber(), x0, 8, RandomTape(5), runs,
                             snapshot_rounds=[0, 4, 8])
    assert set(snaps) == {0, 4, 8}
    np.testing.assert_array_equal(snaps[0], np.broadcast_to(x0, (3, 6)))
    np.testing.assert_array_equal(snaps[8], final)
    # snapshot arrays are copies, not views of the evolving batch
    assert not np.shares_memory(snaps[8], final)


@pytest.mark.parametrize("q,carried", [(3, np.uint8), (257, np.uint16)])
@pytest.mark.parametrize("chain", [luby_glauber(), local_metropolis()],
                         ids=["luby", "metropolis"])
def test_run_batch_hands_out_int64_batches(chain, q, carried):
    # by default the returned batch and every snapshot are (rows, n) int64;
    # a snapshot of the caller's own sees the carried (n, rows) batch in
    # uint8 or uint16, and the first return is its value on the final batch
    inst = coloring(cycle(6), q)
    x0, runs = np.array([0, 1, 0, 1, 0, 2]), np.arange(3)
    final, snaps = run_batch(inst, chain, x0, 4, RandomTape(5), runs,
                             [0, 2, 4])
    assert (final.dtype, final.shape) == (np.int64, (3, 6))
    assert all((snap.dtype, snap.shape) == (np.int64, (3, 6))
               for snap in snaps.values())
    np.testing.assert_array_equal(snaps[4], final)
    seen = []

    def snapshot(x):
        seen.append((x.dtype, x.shape))
        return x.copy()
    last, carried_snaps = run_batch(inst, chain, x0, 4, RandomTape(5), runs,
                                    [0, 2, 4], snapshot)
    # three requested rounds, then the final batch for the first return
    assert seen == [(carried, (6, 3))] * 4
    np.testing.assert_array_equal(last.T, final)
    for t, snap in snaps.items():
        np.testing.assert_array_equal(carried_snaps[t].T, snap)


@pytest.mark.parametrize("wanted", [[0], [1], []], ids=["start", "round",
                                                        "final"])
def test_an_observer_cannot_write_the_carried_batch(wanted):
    # observers share the live batch, so a write raises rather than
    # corrupting the later rounds
    inst = coloring(cycle(6), 3)

    def scribble(x):
        x[0, 0] = 1
    with pytest.raises(ValueError, match="read-only"):
        run_batch(inst, luby_glauber(), np.zeros(6, int), 2, RandomTape(5),
                  np.arange(3), wanted, scribble)
    with pytest.raises(ValueError, match="read-only"):
        list(run_chunked(inst, luby_glauber(), 2, 3, RandomTape(5), ("zeros",),
                         lambda runs, x: scribble(x), wanted))


@pytest.mark.parametrize("wanted", [None, [0, 2], [0, 2, 4], range(5)],
                         ids=["default", "without-last", "with-last", "all"])
def test_run_chunked_observes_each_round_once_unconverted(monkeypatch, wanted):
    # each chunk observes each requested round once and the last round
    # exactly once, requested or not, on its carried batch: no chunk
    # converts a batch to (rows, n) int64
    inst, rounds, tape = coloring(cycle(6), 3), 4, RandomTape(5)
    want = sorted({rounds, *(() if wanted is None else wanted)})
    x0 = np.tile([[0] * 6, initial_config(inst, "greedy")], (3, 1))
    _, direct = run_batch(inst, luby_glauber(), x0, rounds, tape,
                          np.arange(3), want, lambda x: x.copy())
    monkeypatch.setattr(engine, "CHUNK_BYTES", 1)  # one run per chunk
    converted = []
    monkeypatch.setattr(engine, "_by_row", converted.append)
    observed = []

    def observe(runs, x):
        observed.append(int(runs[0]))
        assert (x.dtype, x.shape, x.flags.writeable) == (np.uint8, (6, 2),
                                                         False)
        return x.copy()
    chunks = list(run_chunked(inst, luby_glauber(), rounds, 3, tape,
                              ("zeros", "greedy"), observe, wanted))
    assert converted == []
    assert observed == [r for r in range(3) for _ in want]
    assert [sorted(c) for c in chunks] == [want] * 3
    for t in want:
        np.testing.assert_array_equal(
            np.concatenate([c[t] for c in chunks], axis=1), direct[t])


def test_fixed_seed_reproducible():
    inst = coloring(cycle(8), 4)
    for chain in (luby_glauber(), local_metropolis(), sequential_glauber()):
        a = _finals(inst, chain, 12, 400, RandomTape(9), "greedy")
        b = _finals(inst, chain, 12, 400, RandomTape(9), "greedy")
        np.testing.assert_array_equal(a, b)
        c = _finals(inst, chain, 12, 400, RandomTape(10), "greedy")
        assert not np.array_equal(a, c)


def test_thread_count_does_not_change_output():
    inst = coloring(cycle(6), 3)
    # four threads split the 6000 runs into four chunks of 1500
    one = _finals(inst, local_metropolis(), 5, 6000, RandomTape(11), "zeros",
                  threads=1)
    four = _finals(inst, local_metropolis(), 5, 6000, RandomTape(11), "zeros",
                   threads=4)
    np.testing.assert_array_equal(one, four)


def test_marginals_shape_and_row_sums(tmp_path):
    cfg = tmp_path / "s.cfg"
    cfg.write_text("model = coloring\nmodel.q = 4\ngraph = cycle\n"
                   "graph.n = 6\nchain = luby_glauber\nrounds = 10\n"
                   "n_runs = 500\nseed = 15\nformat = json\n", encoding="utf-8")
    out = tmp_path / "out"
    assert cli.main(["sample", "--config", str(cfg), "--output", str(out)]) == 0
    m = np.array(json.loads((out / "marginals.json").read_text())["frequencies"])
    assert m.shape == (6, 4)
    np.testing.assert_allclose(m.sum(axis=1), 1.0)
    # the frequencies are the spin counts of samples.jsonl over n_runs
    lines = (out / "samples.jsonl").read_text().splitlines()
    final = np.array([json.loads(line)["spins"] for line in lines])
    counts = np.stack([(final == s).sum(axis=0) for s in range(4)], axis=1)
    assert m.tolist() == (counts / 500).tolist()


def test_far_edge_change_invisible_within_horizon():
    # add an edge between vertices 6 and 8; vertex 0 sits farther than the
    # round horizon away, so its samples cannot tell the graphs apart
    base = path(9)
    edges = base.edge_multiset() + [(6, 8)]
    patched = Graph(9, edges)
    rounds = 3
    for chain in (luby_glauber(), local_metropolis()):
        a = _finals(coloring(base, 4), chain, rounds, 300, RandomTape(25),
                    "greedy")
        b = _finals(coloring(patched, 4), chain, rounds, 300, RandomTape(25),
                    "greedy")
        np.testing.assert_array_equal(a[:, 0], b[:, 0])
        assert not np.array_equal(a[:, 7], b[:, 7])

import json

import numpy as np
import pytest

from localgibbs.chains import local_metropolis, luby_glauber, sequential_glauber
from localgibbs.engine import (SampleResult, greedy_feasible, initial_config,
                               run, run_batch, run_traced, sample_many,
                               write_trace_jsonl)
from localgibbs.graphs import Graph, complete, cycle, path
from localgibbs.models import coloring, hardcore, ising
from localgibbs.mrf import is_feasible
from localgibbs.oracle import StateSpaceTooLarge
from localgibbs.randomness import RandomTape


def test_zero_rounds_returns_initial():
    inst = coloring(cycle(6), 3)
    x0 = np.array([0, 1, 2, 0, 1, 2])
    runs = np.arange(7)
    final, _ = run_batch(inst, luby_glauber(), x0, 0, RandomTape(1), runs)
    np.testing.assert_array_equal(final, np.broadcast_to(x0, (7, 6)))
    res = sample_many(inst, local_metropolis(), 0, 5, RandomTape(1),
                      initial="zeros")
    np.testing.assert_array_equal(res.final, 0)


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


def test_fixed_seed_reproducible():
    inst = coloring(cycle(8), 4)
    for chain in (luby_glauber(), local_metropolis(), sequential_glauber()):
        a = sample_many(inst, chain, 12, 400, RandomTape(9), initial="greedy")
        b = sample_many(inst, chain, 12, 400, RandomTape(9), initial="greedy")
        np.testing.assert_array_equal(a.final, b.final)
        c = sample_many(inst, chain, 12, 400, RandomTape(10), initial="greedy")
        assert not np.array_equal(a.final, c.final)


def test_thread_count_does_not_change_output():
    inst = coloring(cycle(6), 3)
    # four threads split the 6000 runs into four chunks of 1500
    one = sample_many(inst, local_metropolis(), 5, 6000, RandomTape(11),
                      initial="zeros", threads=1)
    four = sample_many(inst, local_metropolis(), 5, 6000, RandomTape(11),
                       initial="zeros", threads=4)
    np.testing.assert_array_equal(one.final, four.final)


def test_single_run_point_mass():
    inst = ising(path(3), 0.5)
    res = sample_many(inst, luby_glauber(), 7, 1, RandomTape(13))
    dist = res.distribution(2)
    assert np.count_nonzero(dist.probs) == 1
    assert dist.probs.sum() == pytest.approx(1.0)


def test_distribution_cap_error():
    big = SampleResult(np.zeros((4, 30), dtype=np.int64), rounds=0, seed=0)
    with pytest.raises(StateSpaceTooLarge):
        big.distribution(2)
    res = SampleResult(np.zeros((4, 12), dtype=np.int64), rounds=0, seed=0)
    with pytest.raises(StateSpaceTooLarge):
        res.distribution(2, cap=1 << 10)
    ok = res.distribution(2)
    assert ok.probs[0] == pytest.approx(1.0)


def test_marginals_shape_and_row_sums():
    inst = coloring(cycle(6), 4)
    res = sample_many(inst, luby_glauber(), 10, 500, RandomTape(15),
                      initial="greedy")
    m = res.marginals(4)
    assert m.shape == (6, 4)
    np.testing.assert_allclose(m.sum(axis=1), 1.0)


def test_run_wrapper_matches_batch():
    inst = coloring(cycle(5), 3)
    state = run(inst, luby_glauber(), "greedy", 6, RandomTape(17), run_index=2)
    x0 = initial_config(inst, "greedy")
    batch, _ = run_batch(inst, luby_glauber(), x0, 6, RandomTape(17),
                         np.array([2]))
    np.testing.assert_array_equal(state.config, batch[0])
    assert state.round == 6


def test_traced_metropolis_replay():
    inst = coloring(cycle(6), 4)
    final, traces = run_traced(inst, local_metropolis(), "greedy", 10,
                               RandomTape(19))
    assert len(traces) == 10
    x = initial_config(inst, "greedy")
    for tr in traces:
        assert tr.luby_selected is None
        assert tr.edge_pass is not None
        # accepted vertices take their proposal, others keep their spin
        x = np.where(tr.accepted, tr.proposals, x)
    np.testing.assert_array_equal(x, final.config)


def test_traced_luby_replay():
    inst = coloring(cycle(6), 4)
    final, traces = run_traced(inst, luby_glauber(), "greedy", 10,
                               RandomTape(21))
    x = initial_config(inst, "greedy")
    for tr in traces:
        assert tr.edge_pass is None
        assert tr.luby_selected is not None
        np.testing.assert_array_equal(tr.accepted, tr.luby_selected)
        x = np.where(tr.accepted, tr.proposals, x)
    np.testing.assert_array_equal(x, final.config)


def test_trace_jsonl_round_trip(tmp_path):
    inst = coloring(cycle(4), 3)
    _, traces = run_traced(inst, local_metropolis(), "greedy", 5, RandomTape(23))
    out = tmp_path / "trace.jsonl"
    write_trace_jsonl(traces, str(out))
    lines = out.read_text(encoding="utf-8").splitlines()
    assert len(lines) == 5
    for i, line in enumerate(lines):
        rec = json.loads(line)
        assert rec["round"] == i + 1
        assert set(rec) == {"round", "proposals", "luby_selected",
                            "edge_pass", "accepted"}
        assert rec["luby_selected"] is None
        assert len(rec["proposals"]) == 4


def test_far_edge_change_invisible_within_horizon():
    # add an edge between vertices 6 and 8; vertex 0 sits farther than the
    # round horizon away, so its samples cannot tell the graphs apart
    base = path(9)
    edges = base.edge_multiset() + [(6, 8)]
    patched = Graph(9, edges)
    rounds = 3
    for chain in (luby_glauber(), local_metropolis()):
        a = sample_many(coloring(base, 4), chain, rounds, 300, RandomTape(25),
                        initial="greedy")
        b = sample_many(coloring(patched, 4), chain, rounds, 300, RandomTape(25),
                        initial="greedy")
        np.testing.assert_array_equal(a.final[:, 0], b.final[:, 0])
        assert not np.array_equal(a.final[:, 7], b.final[:, 7])

import numpy as np
import pytest
from _naive import all_sigmas

from localgibbs.chains import (ChainSpec, SchedulerSpec,
                               check_filter_positivity, chromatic_classes,
                               local_max_select, local_metropolis,
                               luby_glauber, luby_glauber_round_batch,
                               luby_select_batch, round_function,
                               scheduled_set_batch, sequential_glauber)
from localgibbs.engine import run_batch
from localgibbs.graphs import Graph, complete, cycle, path, random_regular
from localgibbs.models import coloring, hardcore, ising, potts
from localgibbs.mrf import MrfInstance, ZeroMarginal, feasible_batch, is_feasible
from localgibbs.oracle import (Distribution, enumerate_gibbs,
                               exact_transition_matrix, rank_of_config,
                               tv_distance)
from localgibbs.randomness import RandomTape


def _select(g, t, tape, run=0):
    """Vertices the local-maximum rule selects in one run, ascending."""
    return np.flatnonzero(luby_select_batch(g, t, tape, np.array([run]))[0])


def _step(chain, inst, x, t, tape, run=0):
    """One round of one run, as the one-row batch."""
    return round_function(chain)(inst, x[None], t, tape, np.array([run]))[0][0]


def test_spec_validation():
    with pytest.raises(ValueError):
        SchedulerSpec("round-robin")
    with pytest.raises(ValueError):
        SchedulerSpec("chromatic")  # classes required
    with pytest.raises(ValueError):
        SchedulerSpec("luby", color_classes=((0,),))
    with pytest.raises(ValueError):
        ChainSpec("gibbs")
    assert luby_glauber().scheduler.variant == "luby"
    assert local_metropolis().scheduler is None


def test_luby_select_isolated_always_chosen():
    g = Graph(2, [])
    tape = RandomTape(0)
    for t in range(1, 20):
        assert set(_select(g, t, tape)) == {0, 1}


def test_luby_select_single_edge_symmetry():
    g = path(2)
    tape = RandomTape(1)
    counts = np.zeros(2)
    for t in range(1, 10001):
        sel = _select(g, t, tape)
        assert len(sel) == 1  # exactly one endpoint each round
        counts[sel[0]] += 1
    freq = counts / 10000
    sigma3 = 3 * np.sqrt(0.25 / 10000)
    assert abs(freq[0] - 0.5) <= sigma3


def test_luby_select_triangle_one_per_round():
    g = complete(3)
    tape = RandomTape(2)
    counts = np.zeros(3)
    for t in range(1, 10001):
        sel = _select(g, t, tape)
        assert len(sel) == 1
        counts[sel[0]] += 1
    sigma3 = 3 * np.sqrt((1 / 3) * (2 / 3) / 10000)
    assert np.all(np.abs(counts / 10000 - 1 / 3) <= sigma3)


def test_luby_select_sets_always_independent():
    g = random_regular(30, 3, seed=4)
    pairs = g.edge_multiset()
    tape = RandomTape(3)
    for t in range(1, 500):
        chosen = np.zeros(g.n, dtype=bool)
        chosen[_select(g, t, tape)] = True
        assert not any(chosen[u] and chosen[v] for u, v in pairs)


def _trailing_isolated():
    # the last vertex has no neighbors, so its adjacency segment is empty
    # and sits at the end of the slot arrays
    return Graph(4, [(0, 2), (1, 2)])


def test_luby_rows_independent_with_trailing_isolated_vertex():
    g = _trailing_isolated()
    runs = np.arange(20000, dtype=np.int64)
    for t in (1, 2, 3):
        sel = luby_select_batch(g, t, RandomTape(5), runs)
        assert not np.any(sel[:, g.eu] & sel[:, g.ev])
        assert sel[:, 3].all()


@pytest.mark.parametrize("chain", [luby_glauber(), local_metropolis()],
                         ids=["luby_glauber", "local_metropolis"])
def test_one_round_law_with_trailing_isolated_vertex(chain):
    inst = coloring(_trailing_isolated(), 3)
    x0 = np.array([0, 1, 2, 0])
    n_runs = 40000
    final, _ = run_batch(inst, chain, x0, 1, RandomTape(8),
                         np.arange(n_runs, dtype=np.int64))
    assert feasible_batch(inst, final).all()
    counts = np.bincount(final @ 3 ** np.arange(4), minlength=3 ** 4)
    row = exact_transition_matrix(chain, inst).rows[rank_of_config(x0, 3)]
    k = np.count_nonzero(row)
    # mean TV of an empirical law on k outcomes is at most sqrt(k/N)/2;
    # McDiarmid adds the deviation term at failure probability 1e-6
    tol = 0.5 * np.sqrt(k / n_runs) + np.sqrt(np.log(1e6) / (2 * n_runs))
    assert 0.5 * np.abs(counts / n_runs - row).sum() <= tol


def test_tie_rule_larger_id_wins():
    g = path(3)
    # strict-inequality rule: equal scores mean the smaller id is NOT selected
    keys = np.array([[5, 5, 3]], dtype=np.uint64)
    sel = local_max_select(g, keys)
    assert sel.tolist() == [[False, True, False]]
    keys = np.array([[7, 7, 7]], dtype=np.uint64)
    sel = local_max_select(g, keys)
    assert sel.tolist() == [[False, False, True]]


def test_single_site_selects_exactly_one():
    g = cycle(6)
    chain = luby_glauber(SchedulerSpec("single-site"))
    tape = RandomTape(11)
    runs = np.arange(64)
    sel = scheduled_set_batch(g, chain.scheduler, 5, tape, runs)
    np.testing.assert_array_equal(sel.sum(axis=1), 1)


def test_chromatic_classes_partition_into_independent_sets():
    g = cycle(5)
    classes = chromatic_classes(g)
    seen = sorted(v for cls in classes for v in cls)
    assert seen == list(range(5))
    pairs = set(map(tuple, g.edge_multiset()))
    for cls in classes:
        for a in cls:
            for b in cls:
                assert (min(a, b), max(a, b)) not in pairs or a == b


def test_chromatic_sweep_touches_every_vertex_once():
    g = cycle(6)
    chain = luby_glauber(SchedulerSpec("chromatic", chromatic_classes(g)))
    tape = RandomTape(0)
    runs = np.arange(4)
    k = len(chain.scheduler.color_classes)
    touched = np.zeros((4, 6), dtype=int)
    for t in range(1, k + 1):
        touched += scheduled_set_batch(g, chain.scheduler, t, tape, runs)
    np.testing.assert_array_equal(touched, 1)


def test_glauber_round_respects_coloring_constraint():
    inst = coloring(cycle(4), 3)
    tape = RandomTape(7)
    x = np.array([0, 1, 0, 1])
    for t in range(1, 200):
        x_new = _step(luby_glauber(), inst, x, t, tape)
        assert is_feasible(inst, x_new)
        x = x_new


def test_glauber_round_changes_only_selected():
    inst = coloring(cycle(6), 4)
    tape = RandomTape(9)
    x = np.array([0, 1, 0, 1, 0, 1])
    for t in range(1, 50):
        sel = set(_select(inst.graph, t, tape).tolist())
        x_new = _step(luby_glauber(), inst, x, t, tape)
        changed = {v for v in range(6) if x_new[v] != x[v]}
        assert changed <= sel
        x = x_new


def test_glauber_zero_marginal_propagates():
    inst = coloring(path(3), 2)
    x = np.array([0, 0, 1])  # infeasible; center has both colors blocked
    raised = False
    for seed in range(30):
        tape = RandomTape(seed)
        try:
            _step(luby_glauber(), inst, x, 1, tape, run=7)
        except ZeroMarginal as exc:
            assert (exc.vertex, exc.run, exc.round) == (1, 7, 1)
            assert "vertex 1" in str(exc)
            assert "run 7, round 1" in str(exc)
            raised = True
            break
    assert raised


def test_zero_marginal_names_first_dead_pair_in_run_major_order():
    # hub 0 (degree 3) and path centre 5 (degree 2) are resampled together;
    # run 10 strands vertex 5, run 11 strands the hub. Taken vertex-major
    # by descending degree, the hub in run 11 would come first.
    g = Graph(7, [(0, 1), (0, 2), (0, 3), (4, 5), (5, 6)])
    inst = coloring(g, 2)
    sched = SchedulerSpec("chromatic", ((0, 5), (1, 2, 3, 4, 6)))
    x = np.array([[0, 1, 1, 1, 0, 0, 1],
                  [0, 0, 1, 0, 0, 1, 0]])
    with pytest.raises(ZeroMarginal) as info:
        luby_glauber_round_batch(inst, x, sched, 2, RandomTape(3),
                                 np.array([10, 11]))
    assert (info.value.vertex, info.value.run, info.value.round) == (5, 10, 2)


def test_metropolis_round_keeps_feasible_states_feasible():
    inst = coloring(cycle(8), 4)
    tape = RandomTape(13)
    x = np.array([0, 1, 2, 3] * 2)
    for t in range(1, 300):
        x = _step(local_metropolis(), inst, x, t, tape)
        assert is_feasible(inst, x)


def test_metropolis_constant_activity_gives_product_measure():
    # strictly positive constant edge activities: every edge passes, one
    # round lands exactly in the product of proposal distributions
    g = path(3)
    A = np.ones((2, 2, 2))
    b = np.array([[1.0, 3.0], [2.0, 2.0], [1.0, 1.0]])
    inst = MrfInstance(g, 2, A, b)
    P = exact_transition_matrix(local_metropolis(), inst)
    bprop = b / b.sum(axis=1, keepdims=True)
    expect = np.empty(8)
    for rank, s in enumerate(all_sigmas(3, 2)):
        expect[rank] = bprop[0][s[0]] * bprop[1][s[1]] * bprop[2][s[2]]
    for row in P.rows:
        np.testing.assert_allclose(row, expect, atol=1e-12)


def test_metropolis_coloring_check_is_deterministic():
    # for colorings the pass probability is 0 or 1, so given the proposal
    # the round is a deterministic function of the previous state
    inst = coloring(cycle(4), 3)
    x = np.array([0, 1, 0, 1])
    out = [_step(local_metropolis(), inst, x, 3, RandomTape(21))
           for _ in range(2)]
    np.testing.assert_array_equal(out[0], out[1])
    norm = inst.A_norm
    assert set(np.unique(norm)) <= {0.0, 1.0}


def test_sequential_single_vertex_exact():
    inst = hardcore(Graph(1, []), 2.0)
    mu, _ = enumerate_gibbs(inst)
    counts = np.zeros(2)
    tape = RandomTape(17)
    for seed_run in range(4000):
        x = _step(sequential_glauber(), inst, np.array([0]), 1, tape,
                  run=seed_run)
        counts[x[0]] += 1
    assert tv_distance(Distribution(counts / 4000), mu) < 0.03


def test_sequential_updates_at_most_one_coordinate():
    inst = coloring(cycle(6), 4)
    tape = RandomTape(19)
    x = np.array([0, 1, 0, 1, 0, 1])
    for t in range(1, 100):
        x_new = _step(sequential_glauber(), inst, x, t, tape)
        assert np.count_nonzero(x_new != x) <= 1
        x = x_new


def test_sequential_converges_on_k2_coloring():
    inst = coloring(path(2), 3)
    mu, _ = enumerate_gibbs(inst)
    from localgibbs.engine import run_batch
    n_runs = 100000
    runs = np.arange(n_runs)
    x0 = np.broadcast_to(np.array([0, 1]), (n_runs, 2)).copy()
    final, _ = run_batch(inst, sequential_glauber(), x0, 50, RandomTape(23),
                         runs)
    ranks = final @ np.array([1, 3])
    emp = np.bincount(ranks, minlength=9) / n_runs
    assert tv_distance(Distribution(emp), mu) <= 0.02


def test_feasibility_absorption_randomized():
    rng = np.random.default_rng(29)
    cases = [coloring(cycle(6), 4), hardcore(path(5), 1.5),
             ising(cycle(4), 2.0), potts(complete(4), 4, 0.5)]
    for inst in cases:
        mu, _ = enumerate_gibbs(inst)
        feas_ranks = np.flatnonzero(mu.probs > 0)
        for chain in (luby_glauber(), local_metropolis(),
                      sequential_glauber()):
            for trial in range(10):
                rank = int(rng.choice(feas_ranks))
                x = np.array([(rank // inst.q ** i) % inst.q
                              for i in range(inst.n)])
                tape = RandomTape(int(rng.integers(1 << 31)))
                for t in range(1, 15):
                    x = _step(chain, inst, x, t, tape)
                    assert is_feasible(inst, x)


def test_filter_positivity_validator():
    ok = check_filter_positivity(coloring(cycle(6), 4))
    assert ok.ok and ok.mode == "exhaustive"
    bad = check_filter_positivity(coloring(complete(3), 2))
    assert not bad.ok
    assert bad.witness is not None
    big = check_filter_positivity(coloring(cycle(30), 4), state_cap=1 << 10,
                                  samples=200)
    assert big.mode == "sampled"
    assert big.ok


def test_filter_positivity_colorings_threshold():
    # q >= max degree + 2 passes; q = 2 on an odd cycle fails
    assert check_filter_positivity(coloring(cycle(8), 4)).ok
    assert not check_filter_positivity(coloring(cycle(5), 2)).ok


ROUND_CHAINS = {
    "luby": luby_glauber(),
    "chromatic": luby_glauber(SchedulerSpec("chromatic", ((0, 2), (1, 3)))),
    "single-site": luby_glauber(SchedulerSpec("single-site")),
    "sequential": sequential_glauber(),
    "metropolis": local_metropolis(),
}


@pytest.mark.parametrize("name", sorted(ROUND_CHAINS))
def test_round_functions_do_not_mutate_input(name):
    # a single start reaches round 1 as a read-only broadcast view
    inst = coloring(cycle(4), 3)
    base = np.array([0, 1, 0, 1])
    x = np.broadcast_to(base, (5, 4))
    out, _ = round_function(ROUND_CHAINS[name])(inst, x, 1, RandomTape(31),
                                                np.arange(5))
    np.testing.assert_array_equal(base, [0, 1, 0, 1])
    assert out.shape == (5, 4)
    assert out.flags.writeable
    assert not np.shares_memory(out, base)

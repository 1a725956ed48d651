import copy
import math
import tracemalloc

import numpy as np
import pytest
from _naive import all_sigmas, naive_gibbs, naive_transition_matrix, naive_tv
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from test_digests import _hub_and_tail_lists, _hub_and_tail_wide
from test_kernels import _BITS, _PROPERTY, DEAD_CASE, _tiny_rounds

from localgibbs.chains import (SchedulerSpec, local_metropolis, luby_glauber,
                               sequential_glauber)
from localgibbs.diagnostics import check_filter_positivity
from localgibbs.graphs import Graph, complete, cycle, path, random_regular
from localgibbs.models import coloring, hardcore, ising, list_coloring, potts
from localgibbs.mrf import MrfInstance, ZeroMarginal, marginal
from localgibbs.oracle import (ENUM_CAP, Distribution, StateSpaceTooLarge,
                               TransitionMatrix, UnsupportedScheduler,
                               ZeroPartitionFunction,
                               ZeroProbabilityCondition, all_configs,
                               check_detailed_balance, config_of_rank,
                               elimination_conditional_marginal,
                               enumerate_gibbs, exact_conditional_marginal,
                               exact_transition_matrix,
                               luby_set_distribution, rank_of_config,
                               tv_distance)


def _edges(graph):
    return list(zip(graph.eu.tolist(), graph.ev.tolist()))


def _naive_dist(inst):
    probs, z = naive_gibbs(_edges(inst.graph),
                           [inst.A[i].tolist() for i in range(inst.graph.m)],
                           inst.b.tolist(), inst.graph.n, inst.q)
    return probs, z


def test_rank_round_trip():
    for rank in range(3 ** 4):
        cfg = config_of_rank(rank, 4, 3)
        assert rank_of_config(cfg, 3) == rank
    cfgs = all_configs(3, 3)
    assert cfgs.shape == (27, 3)
    np.testing.assert_array_equal(cfgs[5], config_of_rank(5, 3, 3))


def test_enumerate_c4_coloring():
    mu, z = enumerate_gibbs(coloring(cycle(4), 3))
    assert z == 18.0
    expect, _ = _naive_dist(coloring(cycle(4), 3))
    np.testing.assert_allclose(mu.probs, expect, atol=1e-12)
    support = mu.probs[mu.probs > 0]
    np.testing.assert_allclose(support, 1 / 18)
    assert len(support) == 18


def test_enumerate_hardcore_p3():
    mu, z = enumerate_gibbs(hardcore(path(3), 1.0))
    assert z == 5.0
    assert np.count_nonzero(mu.probs) == 5
    np.testing.assert_allclose(mu.probs[mu.probs > 0], 0.2)


def test_enumerate_forced_conflict():
    with pytest.raises(ZeroPartitionFunction):
        enumerate_gibbs(list_coloring(path(2), 2, [[0], [0]]))


def test_enumerate_cap():
    with pytest.raises(StateSpaceTooLarge):
        enumerate_gibbs(coloring(cycle(4), 3), cap=50)


def test_enumerate_invariant_under_rescaling():
    g = cycle(4)
    base = ising(g, 2.0)
    mu_a, _ = enumerate_gibbs(base)
    from localgibbs.mrf import MrfInstance
    scaled = MrfInstance(g, 2, base.A * 7.0, base.b * 0.3)
    mu_b, _ = enumerate_gibbs(scaled)
    np.testing.assert_allclose(mu_a.probs, mu_b.probs, atol=1e-12)


def test_distribution_validates():
    with pytest.raises(ValueError):
        Distribution(np.array([0.5, 0.4]))
    with pytest.raises(ValueError):
        Distribution(np.array([1.1, -0.1]))


@pytest.mark.parametrize("probs", [[np.nan, np.nan], [np.inf, 0.0],
                                   [0.5, 0.5, np.nan]])
def test_distribution_rejects_non_finite(probs):
    # NaN compares False with both the sign and the sum check
    with pytest.raises(ValueError, match="non-finite"):
        Distribution(np.array(probs))


def test_transition_matrix_rejects_non_finite_row():
    rows = np.eye(3)
    rows[1] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        TransitionMatrix(rows)


def test_tv_identity_and_disjoint():
    p = Distribution(np.array([0.5, 0.5, 0.0]))
    r = Distribution(np.array([0.0, 0.0, 1.0]))
    assert tv_distance(p, p) == 0.0
    assert tv_distance(p, r) == 1.0


def test_tv_half():
    p = Distribution(np.array([0.5, 0.5]))
    r = Distribution(np.array([1.0, 0.0]))
    assert tv_distance(p, r) == 0.5


def test_tv_dimension_mismatch():
    with pytest.raises(ValueError):
        tv_distance(Distribution(np.array([1.0])),
                    Distribution(np.array([0.5, 0.5])))


def test_tv_is_a_metric_on_random_triples():
    rng = np.random.default_rng(0)
    for _ in range(25):
        p, q, r = (Distribution(w / w.sum())
                   for w in rng.random((3, 6)))
        assert tv_distance(p, q) == pytest.approx(tv_distance(q, p))
        assert tv_distance(p, q) <= tv_distance(p, r) + tv_distance(r, q) + 1e-12
        assert tv_distance(p, p) == 0.0
        assert naive_tv(p.probs, q.probs) == pytest.approx(tv_distance(p, q))


def test_luby_set_distribution_single_edge():
    law = luby_set_distribution(path(2))
    # exactly one endpoint is the local maximum; never both, never neither
    assert law[frozenset([0])] == pytest.approx(0.5)
    assert law[frozenset([1])] == pytest.approx(0.5)
    assert law.get(frozenset(), 0.0) == 0.0
    assert law.get(frozenset([0, 1]), 0.0) == 0.0


def test_luby_set_distribution_triangle():
    law = luby_set_distribution(Graph(3, [(0, 1), (1, 2), (0, 2)]))
    for v in range(3):
        assert law[frozenset([v])] == pytest.approx(1 / 3)


def test_luby_set_distribution_path3():
    # 3! orderings: ends are maxima unless beaten by the middle
    law = luby_set_distribution(path(3))
    assert law[frozenset([1])] == pytest.approx(1 / 3)
    assert law[frozenset([0, 2])] == pytest.approx(1 / 3)
    # remaining mass: single ends {0}, {2}
    assert law[frozenset([0])] == pytest.approx(1 / 6)
    assert law[frozenset([2])] == pytest.approx(1 / 6)


def test_transition_rows_are_stochastic():
    for inst in (coloring(path(2), 3), hardcore(path(3), 1.0), ising(path(2), 2.0)):
        for chain in (luby_glauber(), local_metropolis(), sequential_glauber()):
            P = exact_transition_matrix(chain, inst)
            np.testing.assert_allclose(P.rows.sum(axis=1), 1.0, atol=1e-10)
            assert np.all(P.rows >= 0)


def test_metropolis_k2_coloring_block_structure():
    inst = coloring(path(2), 3)
    P = exact_transition_matrix(local_metropolis(), inst)
    feas = [rank_of_config(np.array(s), 3) for s in all_sigmas(2, 3)
            if s[0] != s[1]]
    block = P.rows[np.ix_(feas, feas)]
    np.testing.assert_allclose(block, block.T, atol=1e-12)
    np.testing.assert_allclose(block.sum(axis=1), 1.0, atol=1e-12)
    np.testing.assert_allclose(block.sum(axis=0), 1.0, atol=1e-12)


def test_single_vertex_one_step_reaches_gibbs():
    inst = hardcore(Graph(1, []), 2.0)
    mu, _ = enumerate_gibbs(inst)
    for chain in (luby_glauber(), sequential_glauber()):
        P = exact_transition_matrix(chain, inst)
        np.testing.assert_allclose(P.rows, np.tile(mu.probs, (2, 1)), atol=1e-12)


def test_metropolis_matrix_against_naive_enumeration():
    # independent hand-rolled sum over proposals and coin patterns
    inst = ising(path(2), 2.0)
    g = inst.graph
    q, n, m = 2, 2, 1
    bprop = inst.b / inst.b.sum(axis=1, keepdims=True)
    Anorm = inst.A[0] / inst.A[0].max()
    expect = np.zeros((q ** n, q ** n))
    for x0 in all_sigmas(n, q):
        r0 = rank_of_config(np.array(x0), q)
        for prop in all_sigmas(n, q):
            p_prop = bprop[0][prop[0]] * bprop[1][prop[1]]
            pe = (Anorm[prop[0], prop[1]] * Anorm[x0[0], prop[1]]
                  * Anorm[prop[0], x0[1]])
            for passed in (0, 1):
                p_coin = pe if passed else 1.0 - pe
                if p_coin == 0.0:
                    continue
                y = prop if passed else x0
                r1 = rank_of_config(np.array(y), q)
                expect[r0, r1] += p_prop * p_coin
    P = exact_transition_matrix(local_metropolis(), inst)
    np.testing.assert_allclose(P.rows, expect, atol=1e-12)


def test_luby_matrix_against_naive_enumeration():
    # set law times product of conditional updates, hand-rolled
    inst = coloring(path(2), 3)
    law = {frozenset([0]): 0.5, frozenset([1]): 0.5}
    expect = np.zeros((9, 9))
    for x0 in all_sigmas(2, 3):
        r0 = rank_of_config(np.array(x0), 3)
        for sel, p_sel in law.items():
            (v,) = tuple(sel)
            u = 1 - v
            cond = np.array([1.0 if c != x0[u] else 0.0 for c in range(3)])
            if cond.sum() == 0:
                continue
            cond = cond / cond.sum()
            for c in range(3):
                if cond[c] == 0:
                    continue
                y = list(x0)
                y[v] = c
                expect[r0, rank_of_config(np.array(y), 3)] += p_sel * cond[c]
    P = exact_transition_matrix(luby_glauber(), inst)
    np.testing.assert_allclose(P.rows, expect, atol=1e-12)


def test_chromatic_scheduler_matrix_unsupported():
    inst = coloring(path(2), 3)
    chain = luby_glauber(SchedulerSpec("chromatic", ((0,), (1,))))
    with pytest.raises(UnsupportedScheduler):
        exact_transition_matrix(chain, inst)


def test_transition_matrix_cap():
    with pytest.raises(StateSpaceTooLarge):
        exact_transition_matrix(local_metropolis(), coloring(cycle(8), 4),
                                cap=100)


def test_detailed_balance_identity_matrix():
    mu, _ = enumerate_gibbs(hardcore(path(2), 1.0))
    P = TransitionMatrix(np.eye(4))
    report = check_detailed_balance(P, mu)
    assert report.max_residual == 0.0
    assert report.ok


def test_detailed_balance_flags_violation():
    mu = Distribution(np.array([0.5, 0.5]))
    P = TransitionMatrix(np.array([[0.2, 0.8], [0.5, 0.5]]))
    report = check_detailed_balance(P, mu)
    assert report.max_residual == pytest.approx(0.15)
    assert not report.ok
    assert set(report.argmax_pair) == {0, 1}


def test_stationarity_all_chains_tiny_instances():
    instances = (coloring(path(2), 3), hardcore(path(3), 1.0), ising(path(2), 2.0))
    for inst in instances:
        mu, _ = enumerate_gibbs(inst)
        for chain in (luby_glauber(), local_metropolis(), sequential_glauber()):
            P = exact_transition_matrix(chain, inst)
            report = check_detailed_balance(P, mu)
            assert report.stationarity_gap <= 1e-10
            assert report.max_residual <= 1e-10


def test_matrix_never_leaves_feasible_for_infeasible():
    for inst in (coloring(path(2), 3), hardcore(path(3), 1.0),
                 coloring(cycle(4), 3)):
        mu, _ = enumerate_gibbs(inst)
        for chain in (luby_glauber(), local_metropolis(), sequential_glauber()):
            P = exact_transition_matrix(chain, inst)
            bad = (mu.probs[:, None] > 0) & (mu.probs[None, :] == 0) & (P.rows > 0)
            assert not bad.any()


# budget: about 2 s. Instances with n <= 4 and q <= 3, so at most 81
# states; the Metropolis matrix sums over 2**m coin patterns per state
@settings(_PROPERTY, max_examples=80)
@given(st.one_of(_tiny_rounds(max_n=4, max_q=3),
                 _tiny_rounds(_BITS, max_n=4, max_q=3)))
def test_exact_matrices_keep_gibbs_on_random_tiny_instances(case):
    inst = case[0]
    try:
        mu, _ = enumerate_gibbs(inst)
        mats = [exact_transition_matrix(chain, inst) for chain in
                (luby_glauber(), sequential_glauber(), local_metropolis())]
    except (ZeroMarginal, ZeroPartitionFunction):
        assume(False)
    feasible = mu.probs > 0
    mu_f = Distribution(mu.probs[feasible])
    for P in mats:
        rows = P.rows[feasible]
        assert np.abs(rows.sum(axis=1) - 1.0).max() <= 1e-12
        # no mass moves from a feasible state to an infeasible one
        assert not rows[:, ~feasible].any()
        report = check_detailed_balance(
            TransitionMatrix(rows[:, feasible]), mu_f)
        assert report.ok, report


# budget: about 3 s. n <= 3 and q <= 3 keep the loops at 27 states, and
# the Metropolis loop at 27 proposals per state
@settings(_PROPERTY, max_examples=120)
@given(st.one_of(_tiny_rounds(max_n=3, max_q=3),
                 _tiny_rounds(_BITS, max_n=3, max_q=3)))
@example(DEAD_CASE)
def test_exact_matrices_match_naive_loops_on_random_tiny_instances(case):
    inst = case[0]
    g, A, b = inst.graph, inst.A.tolist(), inst.b.tolist()
    for chain, kind in ((luby_glauber(), "luby"),
                        (sequential_glauber(), "single-site"),
                        (local_metropolis(), "metropolis")):
        want = naive_transition_matrix(g.edges, A, b, g.n, inst.q, kind)
        if want is None:
            with pytest.raises(ZeroMarginal):
                exact_transition_matrix(chain, inst)
        else:
            got = exact_transition_matrix(chain, inst).rows
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


def test_conditional_no_pinning_is_marginal():
    inst = ising(path(3), 2.0)
    probs, _ = _naive_dist(inst)
    marg = np.zeros(2)
    for rank, s in enumerate(all_sigmas(3, 2)):
        marg[s[1]] += probs[rank]
    got = exact_conditional_marginal(inst, 1, {})
    np.testing.assert_allclose(got.probs, marg, atol=1e-12)


def test_conditional_edge_pin():
    inst = coloring(path(2), 3)
    got = exact_conditional_marginal(inst, 1, {0: 0})
    np.testing.assert_allclose(got.probs, [0.0, 0.5, 0.5])


def test_conditional_zero_probability_pin():
    inst = list_coloring(path(2), 2, [[0, 1], [0]])
    with pytest.raises(ZeroProbabilityCondition):
        exact_conditional_marginal(inst, 1, {1: 1, 0: 0})


def test_conditional_two_methods_agree_on_path6():
    inst = coloring(path(6), 3)
    for pin_spin in range(3):
        a = exact_conditional_marginal(inst, 5, {0: pin_spin})
        b = elimination_conditional_marginal(inst, 5, {0: pin_spin})
        np.testing.assert_allclose(a.probs, b.probs, atol=1e-12)


def test_path_conditional_with_parallel_edges():
    g = Graph(3, [(0, 1), (0, 1), (1, 2)])
    inst = ising(g, 2.0)
    a = exact_conditional_marginal(inst, 2, {0: 0})
    b = elimination_conditional_marginal(inst, 2, {0: 0})
    np.testing.assert_allclose(a.probs, b.probs, atol=1e-12)


def _random_activities(rng, n, q, edges):
    """Symmetric edge matrices and vertex rows, both with zeros."""
    A = []
    for _ in edges:
        a = rng.random((q, q)) * (rng.random((q, q)) < 0.8)
        a = a + a.T
        a[0, 0] += not a.any()
        A.append(a)
    b = rng.random((n, q)) * (rng.random((n, q)) < 0.8)
    b[:, 0] += ~b.any(axis=1)
    return MrfInstance(Graph(n, edges), q, A if edges else [], b)


def _random_forest_instance(rng):
    """A random forest with parallel edges in both orientations, isolated
    vertices, several components and zero activities, on shuffled ids."""
    n = int(rng.integers(1, 8))
    q = int(rng.integers(2, 4)) if n <= 6 else 2
    relabel = rng.permutation(n)
    edges = []
    for child in range(1, n):
        if rng.random() < 0.75:  # else child starts a new component
            parent = int(rng.integers(child))
            for _ in range(1 + (rng.random() < 0.3)):
                pair = [int(relabel[parent]), int(relabel[child])]
                rng.shuffle(pair)
                edges.append(tuple(pair))
    return _random_activities(rng, n, q, edges)


def _random_cyclic_instance(rng):
    """A random multigraph with a cycle: a ring through 3 or more of its
    vertices, random chords, some edges doubled in reverse, any vertex on
    neither left isolated, and zero activities."""
    n = int(rng.integers(3, 9))
    q = int(rng.integers(2, 4)) if n <= 7 else 2
    ring = rng.permutation(n)[:int(rng.integers(3, n + 1))].tolist()
    edges = list(zip(ring, ring[1:] + ring[:1]))
    edges += [tuple(rng.choice(n, 2, replace=False).tolist())
              for _ in range(int(rng.integers(0, n + 1)))]
    edges += [(b, a) for a, b in edges if rng.random() < 0.2]
    return _random_activities(rng, n, q, edges)


def _compare_with_enumeration(rng, make, trials):
    """Conditionals of random instances at a random vertex under random
    pins, by elimination and by enumeration: agreement within 1e-12 or
    ZeroProbabilityCondition from both. Returns (compared, raised)."""
    compared = raised = 0
    for _ in range(trials):
        inst = make(rng)
        n, q = inst.n, inst.q
        v = int(rng.integers(n))
        pins = rng.permutation(n)[:int(rng.integers(0, n))]
        pinned = {int(p): int(rng.integers(q)) for p in pins}
        try:
            want = exact_conditional_marginal(inst, v, pinned)
        except ZeroProbabilityCondition:
            with pytest.raises(ZeroProbabilityCondition):
                elimination_conditional_marginal(inst, v, pinned)
            raised += 1
            continue
        got = elimination_conditional_marginal(inst, v, pinned)
        np.testing.assert_allclose(got.probs, want.probs, rtol=0, atol=1e-12)
        compared += 1
    return compared, raised


def test_forest_conditional_matches_enumeration_on_random_forests():
    compared, raised = _compare_with_enumeration(
        np.random.default_rng(1709), _random_forest_instance, 300)
    assert compared >= 150 and raised >= 30


def test_elimination_matches_enumeration_on_random_multigraphs_with_cycles():
    compared, raised = _compare_with_enumeration(
        np.random.default_rng(2203), _random_cyclic_instance, 400)
    assert compared >= 150 and raised >= 30


# a cycle alone, with a pendant vertex, and beside a tree
@pytest.mark.parametrize("graph", [
    cycle(4),
    Graph(4, [(0, 1), (1, 2), (2, 0), (2, 3)]),
    Graph(7, [(0, 1), (1, 2), (3, 4), (4, 5), (5, 6), (6, 3)]),
], ids=["cycle4", "triangle-pendant", "forest-plus-cycle"])
def test_elimination_conditional_on_cycles_matches_enumeration(graph):
    inst = coloring(graph, 3)
    for v in range(graph.n):
        for pinned in ({}, {(v + 1) % graph.n: 0}, {(v + 2) % graph.n: 1}):
            want = exact_conditional_marginal(inst, v, pinned)
            got = elimination_conditional_marginal(inst, v, pinned)
            np.testing.assert_allclose(got.probs, want.probs, rtol=0,
                                       atol=1e-12)


def test_elimination_refuses_an_oversized_table_before_allocating():
    # min degree 3 at the start, and the fill-in soon needs 8**8 entries
    inst = coloring(random_regular(64, 3, seed=0), 8)
    tracemalloc.start()
    try:
        with pytest.raises(StateSpaceTooLarge,
                           match=r"vertex \d+ needs a table of 8\*\*\d+ entries"):
            elimination_conditional_marginal(inst, 0, {})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_elimination_table_may_reach_the_cap_but_not_pass_it():
    # the first vertex of K_11 leaves with a table of 4**11 entries, as
    # enumeration takes 4**11 configurations; K_12 would need 4**12
    assert 4 ** 11 == ENUM_CAP
    got = elimination_conditional_marginal(potts(complete(11), 4, 0.5), 10, {})
    np.testing.assert_allclose(got.probs, 0.25, rtol=0, atol=1e-12)
    with pytest.raises(StateSpaceTooLarge,
                       match=r"vertex 0 needs a table of 4\*\*12 entries"):
        elimination_conditional_marginal(potts(complete(12), 4, 0.5), 11, {})


@pytest.mark.parametrize("v, pinned, match", [
    (-1, {}, "vertex -1 "), (3, {}, "vertex 3 "), (0, {-1: 0}, "vertex -1 "),
    (0, {-3: 0}, "vertex -3 "), (0, {3: 0}, "vertex 3 "),
    (0, {2: 5}, "spin 5 pinned at vertex 2"),
    (0, {2: -1}, "spin -1 pinned at vertex 2"),
])
@pytest.mark.parametrize("conditional", [exact_conditional_marginal,
                                         elimination_conditional_marginal])
def test_conditional_rejects_out_of_range_query(conditional, v, pinned, match):
    # at n = 3 a negative vertex would index from the end
    with pytest.raises(ValueError, match=match) as err:
        conditional(coloring(path(3), 3), v, pinned)
    assert not isinstance(err.value, ZeroProbabilityCondition)


# budget: about 1.5 s; n <= 5 and q <= 4 keep enumeration at 1024 states
@settings(_PROPERTY, max_examples=100)
@given(st.one_of(_tiny_rounds(), _tiny_rounds(_BITS)))
def test_elimination_matches_enumeration_on_random_tiny_instances(case):
    inst, x = case[0], case[1]
    for v in range(inst.n):
        # no pin, then the first row's spins below v
        for pinned in ({}, {u: int(x[0, u]) for u in range(v)}):
            try:
                want = exact_conditional_marginal(inst, v, pinned)
            except ZeroProbabilityCondition:
                with pytest.raises(ZeroProbabilityCondition):
                    elimination_conditional_marginal(inst, v, pinned)
                continue
            got = elimination_conditional_marginal(inst, v, pinned)
            np.testing.assert_allclose(got.probs, want.probs, rtol=0,
                                       atol=1e-12)


def test_forest_conditional_on_large_star_is_uniform():
    # messages scaled to sum 1 would multiply to 3**-2000 at the hub
    star = Graph(2001, [(0, leaf) for leaf in range(1, 2001)])
    got = elimination_conditional_marginal(coloring(star, 3), 0, {})
    np.testing.assert_allclose(got.probs, 1 / 3, rtol=0, atol=1e-12)


def test_forest_conditional_hardcore_star_hub_occupancy():
    star = Graph(301, [(0, leaf) for leaf in range(1, 301)])
    got = elimination_conditional_marginal(hardcore(star, 1.0), 0, {})
    assert got.probs[1] == pytest.approx(1 / (1 + 2.0 ** 300), rel=1e-12, abs=0)


def test_elimination_takes_leaves_before_their_hub():
    # min degree: the hub of a 300-leaf star leaves last but for v, where
    # leaving first would need a table of 2**301 entries; a leaf is
    # occupied half the time its hub is empty
    star = Graph(301, [(0, leaf) for leaf in range(1, 301)])
    got = elimination_conditional_marginal(hardcore(star, 1.0), 7, {})
    hub_empty = 2.0 ** 300 / (1 + 2.0 ** 300)
    assert got.probs[1] == pytest.approx(hub_empty / 2, rel=1e-12, abs=0)


@pytest.mark.parametrize("beta,pins", [
    (20.0, {leaf: leaf % 2 for leaf in range(1, 801)}),
    (20.0, {leaf: int(leaf % 2 and leaf != 799) for leaf in range(1, 801)}),
    (20.0, {leaf: int(leaf > 400) for leaf in range(1, 801)}),
    (20.0, {leaf: 0 for leaf in range(1, 301)}),
    (2.0, {leaf: 0 for leaf in range(1, 1101)}),
], ids=["alternate", "401-to-399", "blocks", "all-0-beta20", "all-0-beta2"])
def test_elimination_answers_stars_of_many_pinned_leaves(beta, pins):
    # the hub's bucket gets one table per leaf, [1, 1/beta] from a leaf
    # pinned 0 and [1/beta, 1] from one pinned 1; their product reaches
    # beta**-400 or less on some spin, far below float64's range, before
    # the later leaves (if any) bring it back. In log scale nothing is lost:
    # P(0) / P(1) = beta ** (zeros - ones)
    star = Graph(len(pins) + 1, [(0, leaf) for leaf in pins])
    zeros = sum(p == 0 for p in pins.values())
    got = elimination_conditional_marginal(ising(star, beta), 0, pins)
    log_ratio = (2 * zeros - len(pins)) * math.log(beta)
    p0 = 1 / (1 + math.exp(-log_ratio))
    np.testing.assert_allclose(got.probs, [p0, 1 - p0], rtol=0, atol=1e-12)


def test_elimination_keeps_a_column_far_below_the_maximum():
    # z and w share 400 neighbours pinned 0, and w has 400 leaves pinned 1.
    # The shared neighbours leave first and send z's bucket 400 tables
    # over (z, w), so its column w = 1 sits 20**400 below column w = 0;
    # w's leaves bring it back. Shifted by one maximum for the whole
    # table, that column would round to 0 and w would come out [1, 0]
    z, w = 0, 1
    shared, leaves = range(2, 402), range(402, 802)
    g = Graph(802, [(u, t) for u in shared for t in (z, w)]
              + [(w, leaf) for leaf in leaves])
    pins = {u: 0 for u in shared} | {leaf: 1 for leaf in leaves}
    got = elimination_conditional_marginal(ising(g, 20.0), w, pins)
    np.testing.assert_allclose(got.probs, [0.5, 0.5], rtol=0, atol=1e-12)


def test_elimination_zero_weight_names_the_bucket_vertex():
    # vertex 1 leaves first and its only spin of weight is not the pinned one
    inst = list_coloring(path(2), 2, [[0, 1], [0]])
    with pytest.raises(ZeroProbabilityCondition,
                       match=r"^the pinning leaves vertex 1's bucket") as err:
        elimination_conditional_marginal(inst, 0, {1: 1})
    assert "{" not in str(err.value)


def test_forest_conditional_long_path_is_finite_and_uniform():
    got = elimination_conditional_marginal(coloring(path(2000), 3), 1000, {0: 2})
    assert np.isfinite(got.probs).all()
    np.testing.assert_allclose(got.probs, 1 / 3, rtol=0, atol=1e-12)


def _marginal_bytes(inst, v, x):
    try:
        return marginal(inst, v, x).tobytes()
    except ZeroMarginal:
        return None


def _without_kernel_tables(inst):
    # the resampling round's tables, NaN where there is a float one
    blind = copy.copy(inst)
    if inst.slot_table is not None:
        blind.slot_table = np.full_like(inst.slot_table, np.nan)
    blind.slot_bits = blind.mask_cdf = blind.mask_dead = None
    return blind


# instance -> (an instance to read marginals and the filter check on, a
# tiny one for the exact matrix): fractional tables, then 0/1 ones
_ORACLE_INSTANCES = {
    "hub-tail-wide": (lambda: _hub_and_tail_wide(9),
                      lambda: potts(Graph(3, [(0, 1), (1, 2), (2, 1)]), 3,
                                    1.7)),
    "list-coloring": (lambda: _hub_and_tail_lists(9),
                      # each list outnumbers the vertex's neighbors, so
                      # no state strands the resampling matrix
                      lambda: list_coloring(path(3), 4,
                                            [[0, 1], [0, 1, 2], [1, 3]])),
}


@pytest.mark.parametrize("name", list(_ORACLE_INSTANCES))
def test_oracle_reads_no_kernel_table(name):
    # the oracle judges the kernel, so it must not share the kernel's
    # slot tables: a copy without them gives the same answers
    make, make_tiny = _ORACLE_INSTANCES[name]
    for inst in (make(), make_tiny()):
        blind = _without_kernel_tables(inst)
        for x in np.random.default_rng(4).integers(0, inst.q, (6, inst.n)):
            for v in range(inst.n):
                assert _marginal_bytes(blind, v, x) \
                    == _marginal_bytes(inst, v, x)
        assert repr(check_filter_positivity(blind)) \
            == repr(check_filter_positivity(inst))
    inst = make_tiny()
    np.testing.assert_array_equal(
        exact_transition_matrix(luby_glauber(),
                                _without_kernel_tables(inst)).rows,
        exact_transition_matrix(luby_glauber(), inst).rows)

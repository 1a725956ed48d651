import re
import tracemalloc

import numpy as np
import pytest
from _naive import edge_pairs, naive_marginal, naive_proposal_cdf, naive_weight

from localgibbs.chains import local_metropolis, luby_glauber, plan
from localgibbs.graphs import Graph, complete, cycle, path
from localgibbs.models import coloring, hardcore, ising, list_coloring, potts
from localgibbs.mrf import (DegenerateActivity, MrfInstance, ZeroMarginal,
                            feasible_batch, marginal, validate_configuration,
                            weight_batch)


def _random_instance(rng, graph, q):
    A = rng.random((graph.m, q, q))
    A = A + A.transpose(0, 2, 1)  # symmetric, positive
    b = rng.random((graph.n, q)) + 0.1
    return MrfInstance(graph, q, A, b)


def test_weight_hardcore_empty_set_is_one():
    inst = hardcore(cycle(5), 1.0)
    assert weight_batch(inst, [np.zeros(5, dtype=np.int64)])[0] == 1.0


def test_weight_monochromatic_edge_is_zero():
    inst = coloring(path(2), 3)
    assert weight_batch(inst, [[0, 0]])[0] == 0.0


def test_weight_hardcore_lambda2():
    inst = hardcore(path(3), 2.0)
    assert weight_batch(inst, [[1, 0, 1]])[0] == 4.0


def test_weight_matches_naive_on_random_instances():
    rng = np.random.default_rng(0)
    for graph in (path(4), cycle(5), complete(4), Graph(3, [(0, 1), (0, 1), (1, 2)])):
        q = 3
        inst = _random_instance(rng, graph, q)
        A_list = [inst.A[i].tolist() for i in range(graph.m)]
        b_list = inst.b.tolist()
        edges = edge_pairs(graph)
        for _ in range(20):
            sigma = rng.integers(0, q, graph.n)
            expect = naive_weight(edges, A_list, b_list, sigma.tolist())
            assert weight_batch(inst, [sigma])[0] == pytest.approx(expect, rel=1e-12)


def test_weight_batch_matches_scalar():
    rng = np.random.default_rng(1)
    inst = _random_instance(rng, cycle(4), 3)
    sigmas = rng.integers(0, 3, (50, 4))
    batch = weight_batch(inst, sigmas)
    for i in range(50):
        assert batch[i] == pytest.approx(weight_batch(inst, [sigmas[i]])[0], rel=1e-12)


def test_weight_dimension_mismatch():
    inst = coloring(path(3), 3)
    with pytest.raises(ValueError):
        weight_batch(inst, [[0, 1]])
    with pytest.raises(ValueError):
        weight_batch(inst, [[0, 1, 3]])


def test_feasible_triangle_proper():
    inst = coloring(complete(3), 3)
    assert feasible_batch(inst, [[0, 1, 2]])[0]


def test_feasible_hardcore_edge_conflict():
    inst = hardcore(path(2), 1.0)
    assert not feasible_batch(inst, [[1, 1]])[0]


def test_feasible_c4_alternating():
    inst = coloring(cycle(4), 3)
    assert feasible_batch(inst, [[0, 1, 0, 1]])[0]


def test_feasible_batch_matches_scalar():
    inst = coloring(cycle(4), 3)
    sigmas = np.array([[0, 1, 0, 1], [0, 0, 1, 2], [2, 1, 2, 1]])
    np.testing.assert_array_equal(feasible_batch(inst, sigmas),
                                  [True, False, True])


def test_marginal_forced_color():
    inst = coloring(path(3), 3)
    # center vertex, neighbors colored 1 and 2: only color 0 left
    np.testing.assert_allclose(marginal(inst, 1, [1, 0, 2]), [1, 0, 0])


def test_marginal_isolated_vertex_uniform():
    g = Graph(3, [(0, 1)])
    inst = coloring(g, 3)
    np.testing.assert_allclose(marginal(inst, 2, [0, 1, 0]),
                               [1 / 3, 1 / 3, 1 / 3])


def test_marginal_hardcore_free_neighbor():
    inst = hardcore(path(2), 1.0)
    np.testing.assert_allclose(marginal(inst, 0, [0, 0]), [0.5, 0.5])


def test_marginal_matches_naive():
    rng = np.random.default_rng(3)
    inst = _random_instance(rng, cycle(5), 3)
    edges = edge_pairs(inst.graph)
    A_list = [inst.A[i].tolist() for i in range(inst.graph.m)]
    for _ in range(20):
        x = rng.integers(0, 3, 5)
        v = int(rng.integers(0, 5))
        expect = naive_marginal(edges, A_list, inst.b.tolist(), 3, v, x.tolist())
        np.testing.assert_allclose(marginal(inst, v, x), expect, atol=1e-12)


def test_marginal_sums_to_one():
    rng = np.random.default_rng(4)
    inst = _random_instance(rng, complete(4), 4)
    for _ in range(10):
        x = rng.integers(0, 4, 4)
        assert marginal(inst, 0, x).sum() == pytest.approx(1.0, abs=1e-12)


def test_marginal_ignores_non_neighbors():
    inst = coloring(path(4), 3)
    a = marginal(inst, 0, [0, 2, 0, 0])
    b = marginal(inst, 0, [1, 2, 1, 2])  # same neighbor spin, rest scrambled
    np.testing.assert_array_equal(a, b)


def test_marginal_zero_denominator():
    inst = coloring(path(3), 2)
    # center's neighbors use both colors: no color remains
    with pytest.raises(ZeroMarginal):
        marginal(inst, 1, [0, 0, 1])


def _a_norm(inst):
    return plan(local_metropolis(), inst).A_norm


def test_normalized_coloring_unchanged():
    inst = coloring(path(2), 3)
    np.testing.assert_array_equal(_a_norm(inst), inst.A)


def test_normalized_ising_halves_off_diagonal():
    np.testing.assert_allclose(_a_norm(ising(path(2), 2.0))[0],
                               [[1.0, 0.5], [0.5, 1.0]])


def test_normalized_rejects_all_zero():
    with pytest.raises(DegenerateActivity):
        MrfInstance(path(2), 3, np.zeros((3, 3)), np.ones(3))


def test_normalized_idempotent_preserves_argmax():
    rng = np.random.default_rng(5)
    a = rng.random((4, 4))
    a = a + a.T
    norm = _a_norm(MrfInstance(path(2), 4, a, np.ones(4)))[0]
    again = _a_norm(MrfInstance(path(2), 4, norm, np.ones(4)))[0]
    np.testing.assert_array_equal(again, norm)
    assert np.argmax(norm) == np.argmax(a)
    assert norm.max() == 1.0


@pytest.mark.parametrize("q", [2, 3, 8, 9, 16])
def test_proposal_cdf_sums_in_spin_order(q):
    # numpy's row sum adds 8 or more entries pairwise, not in spin order;
    # the proposal CDFs must be the loop's bytes all the same
    b = np.random.default_rng(0).random((3, q)) + 0.05
    inst = MrfInstance(path(3), q, np.ones((q, q)), b)
    want = np.array([naive_proposal_cdf(row) for row in b.tolist()])
    assert plan(local_metropolis(), inst).b_cdf.tobytes() == want.tobytes()


def test_asymmetric_activity_rejected():
    g = path(2)
    A = np.array([[[1.0, 2.0], [2.0000001, 1.0]]])
    with pytest.raises(ValueError):
        MrfInstance(g, 2, A, np.ones((2, 2)))


def test_negative_entries_rejected():
    g = path(2)
    A = np.array([[[1.0, -1.0], [-1.0, 1.0]]])
    with pytest.raises(ValueError):
        MrfInstance(g, 2, A, np.ones((2, 2)))


def test_all_zero_vertex_activity_rejected():
    g = path(2)
    A = np.ones((1, 2, 2))
    b = np.array([[1.0, 1.0], [0.0, 0.0]])
    with pytest.raises(ValueError):
        MrfInstance(g, 2, A, b)


def _negative(a):
    a.flat[0] = -1.0


def _asymmetric(a):
    a[0, 1] = 2.0


def _all_zero(a):
    a[...] = 0.0


@pytest.mark.parametrize("what, fault, exc, message", [
    ("edge", _negative, ValueError, "edge 2 must be non-negative"),
    ("edge", _asymmetric, ValueError, "edge 2 must be symmetric"),
    ("edge", _all_zero, DegenerateActivity, "edge 2 is all zero"),
    ("vertex", _negative, ValueError, "vertex 3 must be non-negative"),
    ("vertex", _all_zero, DegenerateActivity, "vertex 3 is all zero"),
])
def test_activity_error_names_the_offending_edge_or_vertex(what, fault, exc,
                                                           message):
    # one faulty middle item in per-edge and per-vertex lists on a 6-path
    g, q = path(6), 3
    A = [np.ones((q, q)) for _ in range(g.m)]
    b = [np.ones(q) for _ in range(g.n)]
    fault(A[2] if what == "edge" else b[3])
    with pytest.raises(ValueError) as err:
        MrfInstance(g, q, A, b)
    assert type(err.value) is exc
    assert str(err.value) == f"{what} activity of {message}"


def test_validate_configuration_bounds():
    inst = coloring(path(3), 3)
    with pytest.raises(ValueError):
        validate_configuration(inst, [0, 1, 3])
    with pytest.raises(ValueError):
        validate_configuration(inst, [0, -1, 0])


@pytest.mark.parametrize("sigma", [0, np.zeros((1, 2, 3), np.int64),
                                   np.zeros((0, 3, 3), np.int64)],
                         ids=["scalar", "3d", "3d-empty"])
def test_validate_configuration_rejects_other_shapes(sigma):
    # only (n,) and (rows, n): a check of the last axis alone would pass
    # a (1, 2, n) array on as a batch
    inst = coloring(path(3), 3)
    with pytest.raises(ValueError, match=re.escape(f"shape {np.shape(sigma)}")):
        validate_configuration(inst, sigma)


def test_validate_configuration_rejects_fractional_spins():
    inst = coloring(path(3), 3)
    for sigma in ([0.5, 1.9, 2.7], [0.0, 1.0, np.nan], [[0, 1, 2], [0, 1, 1.5]]):
        with pytest.raises(ValueError, match="whole numbers"):
            validate_configuration(inst, sigma)
    with pytest.raises(ValueError, match="whole numbers"):
        feasible_batch(inst, [[0.2, 1.9, 0.4]])
    # whole-valued floats still pass, as int64
    got = validate_configuration(inst, np.array([0.0, 1.0, 2.0]))
    assert got.dtype == np.int64
    assert got.tolist() == [0, 1, 2]


def _hub_tail_with_zeros():
    # the hub-and-tail multigraph (hub 1 of degree 8 with a parallel edge,
    # isolated vertices 0 and 13), with zero entries in some edge matrices
    # and some vertex activities
    g = Graph(14, [(1, 2), (1, 3), (1, 4), (1, 5), (1, 6), (1, 7), (1, 8),
                   (8, 1), (2, 3), (8, 9), (9, 10), (10, 11), (11, 12)])
    q = 3
    i, j = np.indices((q, q))
    edge = [np.where((e % 3 == 0) & ((i + j + e) % 5 == 0), 0.0,
                     0.3 + 0.2 * ((i * j + e) % 3)) for e in range(g.m)]
    vertex = [np.where((v % 5 == 0) & (np.arange(q) == v % 3), 0.0,
                       0.5 + 0.1 * np.arange(q)) for v in range(g.n)]
    return MrfInstance(g, q, edge, vertex)


@pytest.mark.parametrize("inst", [
    _hub_tail_with_zeros(),
    MrfInstance(Graph(4, []), 3, [], [[0.0, 1.0, 2.0]] * 4),
], ids=["hub-tail", "edgeless"])
def test_weight_and_feasible_batch_match_naive(inst):
    g = inst.graph
    edges = edge_pairs(g)
    A_list, b_list = inst.A.tolist(), inst.b.tolist()
    rng = np.random.default_rng(11)
    sigmas = rng.integers(0, inst.q, (400, inst.n))
    want = np.array([naive_weight(edges, A_list, b_list, s)
                     for s in sigmas.tolist()])
    assert 0 < np.count_nonzero(want) < len(want)
    np.testing.assert_allclose(weight_batch(inst, sigmas), want, rtol=1e-13)
    np.testing.assert_array_equal(weight_batch(inst, sigmas) > 0, want > 0)
    np.testing.assert_array_equal(feasible_batch(inst, sigmas), want > 0)


def test_integer_batches_keep_their_dtype_and_their_results():
    # an integer batch is checked, not widened: weight_batch and
    # feasible_batch read a narrow batch as it is and agree with its int64
    # copy. Bool and whole-number float input still becomes int64, since a
    # bool spin would index as a mask
    inst = _hub_tail_with_zeros()
    sigmas = np.random.default_rng(5).integers(0, inst.q, (300, inst.n))
    want_w, want_f = weight_batch(inst, sigmas), feasible_batch(inst, sigmas)
    assert 0 < np.count_nonzero(want_f) < len(want_f)
    for dtype in (np.uint8, np.uint16, np.int64):
        batch = sigmas.astype(dtype)
        assert validate_configuration(inst, batch).dtype == dtype
        assert validate_configuration(inst, batch[0]).dtype == dtype
        np.testing.assert_array_equal(weight_batch(inst, batch), want_w)
        np.testing.assert_array_equal(feasible_batch(inst, batch), want_f)
    for batch in (sigmas.astype(np.float64), sigmas.astype(np.float32),
                  sigmas.tolist(), sigmas > 0):
        got = validate_configuration(inst, batch)
        assert got.dtype == np.int64
        np.testing.assert_array_equal(got, np.asarray(batch))


def _power_of_two_tables(g, q):
    # per-edge tables of 0.5, 1 and 2 that differ from edge to edge, so
    # that a wrapped edge offset would read another edge's table; every
    # third edge forbids (q - 1, q - 1). Products of these factors are
    # exact in any order
    i, j = np.indices((q, q))
    edge = [np.where((e % 3 == 0) & (i == q - 1) & (j == q - 1), 0.0,
                     2.0 ** ((i + j + e) % 3 - 1)) for e in range(g.m)]
    vertex = [2.0 ** ((v + np.arange(q)) % 3 - 1) for v in range(g.n)]
    return MrfInstance(g, q, edge, vertex)


# m * q * q - 1 on each side of 255 and 65535, where the flat factor
# positions switch dtype
@pytest.mark.parametrize("n, dtype", [(16, np.uint8), (17, np.uint16),
                                      (4096, np.uint16), (4097, np.uint32)])
def test_weight_and_feasible_batch_match_a_loop_across_index_dtypes(n, dtype):
    q = 4
    inst = _power_of_two_tables(cycle(n), q)
    g = inst.graph
    assert np.min_scalar_type(g.m * q * q - 1) == dtype
    A, b = inst.A.tolist(), inst.b.tolist()
    edges = edge_pairs(g)
    rng = np.random.default_rng(n)
    # rows without spin q - 1 are feasible, most of the others are not
    sigmas = np.concatenate([rng.integers(0, q - 1, (6, n)),
                             rng.integers(0, q, (20, n))])
    want = []
    for s in sigmas.tolist():
        w = 1.0
        for v in range(n):
            w *= b[v][s[v]]
        for e, (u, v) in enumerate(edges):
            w *= A[e][s[u]][s[v]]
        want.append(w)
    want = np.array(want)
    assert 0 < np.count_nonzero(want) < len(want)
    np.testing.assert_array_equal(weight_batch(inst, sigmas), want)
    np.testing.assert_array_equal(feasible_batch(inst, sigmas), want > 0)


@pytest.mark.parametrize("inst", [
    coloring(Graph(4, [(0, 1), (1, 2), (0, 1)]), 3), ising(Graph(2, []), 0.5),
    hardcore(cycle(5), 0.5), list_coloring(cycle(4), 3, [[0, 1], [1, 2]] * 2),
    potts(cycle(4), 3, 1.7), coloring(cycle(5), 9)],
    ids=["multigraph", "edgeless", "hardcore", "list-coloring", "potts",
         "coloring-q9"])
def test_array_tables_are_read_only(inst):
    for owner in (inst, inst.graph):
        tables = {k: v for k, v in vars(owner).items()
                  if isinstance(v, np.ndarray)}
        assert tables
        for name, arr in tables.items():
            assert not arr.flags.writeable, f"{type(owner).__name__}.{name}"


_STAR = Graph(251, [(0, leaf) for leaf in range(1, 251)])
_STAR_LISTS = [[c for c in range(137) if c != v % 137] for v in range(251)]


@pytest.mark.parametrize("make", [lambda: coloring(_STAR, 137),
                                  lambda: list_coloring(_STAR, 137,
                                                        _STAR_LISTS)],
                         ids=["coloring", "list-coloring"])
def test_zero_one_instance_holds_about_one_copy_of_a(make):
    # a 0/1 instance and both chains' plans keep A and the bit tables and
    # no other float copy of A: A_norm is A, and a float slot table alone
    # would be 2 x A.nbytes
    was_tracing = tracemalloc.is_tracing()
    if not was_tracing:
        tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        inst = make()
        plans = [plan(chain, inst) for chain in (luby_glauber(),
                                                 local_metropolis())]
        held, peak = (b - before for b in tracemalloc.get_traced_memory())
    finally:
        if not was_tracing:
            tracemalloc.stop()
    held, peak = held / inst.A.nbytes, peak / inst.A.nbytes
    assert held <= 1.5, f"holds {held:.2f} x A.nbytes"
    assert peak <= 2, f"peaks at {peak:.2f} x A.nbytes"

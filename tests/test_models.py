import numpy as np
import pytest
from _naive import (all_sigmas, edge_pairs, independent_sets,
                    is_proper_coloring, naive_gibbs)

from localgibbs.graphs import Graph, complete, cycle, path
from localgibbs.models import (EmptyList, coloring, hardcore, ising,
                               list_coloring, potts)
from localgibbs.mrf import feasible_batch, weight_batch


def _count_feasible(inst):
    return int(feasible_batch(inst, list(all_sigmas(inst.graph.n, inst.q)))
               .sum())


def test_coloring_triangle_has_six_proper():
    assert _count_feasible(coloring(complete(3), 3)) == 6


def test_coloring_edge_two_colors():
    assert _count_feasible(coloring(path(2), 2)) == 2


def test_coloring_c4_eighteen_proper():
    inst = coloring(cycle(4), 3)
    assert _count_feasible(inst) == 18
    # independent recount straight from the proper-coloring predicate
    edges = edge_pairs(inst.graph)
    brute = sum(1 for s in all_sigmas(4, 3) if is_proper_coloring(edges, s))
    assert brute == 18


def test_coloring_weights_are_indicator():
    inst = coloring(cycle(4), 3)
    edges = edge_pairs(inst.graph)
    for s in all_sigmas(4, 3):
        w = weight_batch(inst, [list(s)])[0]
        assert w == (1.0 if is_proper_coloring(edges, s) else 0.0)


def test_list_coloring_full_lists_equals_coloring():
    g = path(3)
    a = list_coloring(g, 3, [[0, 1, 2]] * 3)
    b = coloring(g, 3)
    np.testing.assert_array_equal(a.A, b.A)
    np.testing.assert_array_equal(a.b, b.b)


def test_list_coloring_forced_conflict_infeasible_everywhere():
    inst = list_coloring(path(2), 2, [[0], [0]])
    assert _count_feasible(inst) == 0


def test_list_coloring_single_choice():
    inst = list_coloring(path(2), 2, [[0, 1], [0]])
    assert _count_feasible(inst) == 1
    assert feasible_batch(inst, [[1, 0]])[0]


def test_list_coloring_empty_list_rejected():
    with pytest.raises(EmptyList):
        list_coloring(path(2), 2, [[0], []])


@pytest.mark.parametrize("count", [3, 5])
def test_list_coloring_needs_one_list_per_vertex(count):
    # checked before any list is read: too few lists would surface as a
    # DegenerateActivity on the last vertex, too many as an IndexError
    with pytest.raises(ValueError) as err:
        list_coloring(cycle(4), 3, [[0, 1]] * count)
    assert type(err.value) is ValueError
    assert str(err.value) == f"{count} color lists for 4 vertices"


def test_hardcore_p3_five_independent_sets():
    inst = hardcore(path(3), 1.0)
    sets = independent_sets(edge_pairs(inst.graph), 3)
    assert len(sets) == 5
    for s in sets:
        assert weight_batch(inst, [list(s)])[0] == 1.0
    assert _count_feasible(inst) == 5


def test_hardcore_single_vertex_z():
    inst = hardcore(Graph(1, []), 1.0)
    z = sum(weight_batch(inst, [[s]])[0] for s in range(2))
    assert z == 2.0


def test_hardcore_edge_z_lambda2():
    inst = hardcore(path(2), 2.0)
    z = sum(weight_batch(inst, [list(s)])[0] for s in all_sigmas(2, 2))
    assert z == 5.0


def test_hardcore_weight_is_lambda_power():
    lam = 1.7
    inst = hardcore(cycle(5), lam)
    edges = edge_pairs(inst.graph)
    for s in independent_sets(edges, 5):
        assert weight_batch(inst, [list(s)])[0] == pytest.approx(lam ** sum(s), rel=1e-12)


def test_potts_beta_one_is_uniform():
    inst = potts(cycle(4), 3, 1.0)
    for s in all_sigmas(4, 3):
        assert weight_batch(inst, [list(s)])[0] == 1.0


def test_ising_edge_z_beta2():
    inst = ising(path(2), 2.0)
    z = sum(weight_batch(inst, [list(s)])[0] for s in all_sigmas(2, 2))
    assert z == 6.0


def test_potts_large_beta_concentrates():
    beta = 1e6
    inst = potts(path(2), 3, beta)
    probs, z = naive_gibbs(edge_pairs(inst.graph),
                           [inst.A[0].tolist()], inst.b.tolist(), 2, 3)
    mono = sum(probs[r] for r, s in enumerate(all_sigmas(2, 3)) if s[0] == s[1])
    assert mono > 0.999


def test_potts_matrix_shape():
    inst = potts(path(2), 4, 2.5)
    np.testing.assert_allclose(inst.A[0], np.ones((4, 4)) + 1.5 * np.eye(4))
    np.testing.assert_allclose(inst.b, np.ones((2, 4)))


def test_hardcore_activity_layout():
    inst = hardcore(path(2), 3.0)
    np.testing.assert_allclose(inst.A[0], [[1.0, 1.0], [1.0, 0.0]])
    np.testing.assert_allclose(inst.b, [[1.0, 3.0], [1.0, 3.0]])


def test_coloring_rejects_tiny_q():
    with pytest.raises(ValueError):
        coloring(path(2), 1)

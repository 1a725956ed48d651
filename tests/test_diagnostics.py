import math
import tracemalloc

import numpy as np
import pytest

from localgibbs import engine
from localgibbs.chains import local_metropolis, luby_glauber
from localgibbs.diagnostics import (DecayCurve, coupling_decay, crossing_round,
                                    correlation_length, dobrushin_alpha_coloring,
                                    influence_matrix_numeric, luby_gamma_estimate,
                                    mixing_scan)
from localgibbs.graphs import Graph, complete, cycle, path, random_regular
from localgibbs.models import coloring, hardcore, ising, list_coloring
from localgibbs.randomness import RandomTape


def test_alpha_closed_form_three_regular():
    assert dobrushin_alpha_coloring(complete(4), 7) == pytest.approx(3 / 4)
    assert dobrushin_alpha_coloring(random_regular(8, 3, seed=1), 7) \
        == pytest.approx(3 / 4)


def test_alpha_closed_form_threshold_and_edge_cases():
    g = path(3)  # degrees 1, 2, 1
    # q_v = 2 d_v + 1 per vertex puts every ratio at d/(d+1)
    q_lists = 2 * g.degrees + 1
    assert dobrushin_alpha_coloring(g, q_lists) == pytest.approx(2 / 3)
    assert dobrushin_alpha_coloring(Graph(3, []), 2) == 0.0
    assert dobrushin_alpha_coloring(path(2), 1) == math.inf
    assert dobrushin_alpha_coloring(complete(4), 3) == math.inf


def test_influence_single_edge_matches_closed_form():
    for q in (3, 4, 6):
        inf = influence_matrix_numeric(coloring(path(2), q))
        assert inf.rho[0, 1] == pytest.approx(1 / (q - 1), abs=1e-12)
        assert inf.rho[1, 0] == pytest.approx(1 / (q - 1), abs=1e-12)
        assert inf.alpha == pytest.approx(1 / (q - 1), abs=1e-12)


def test_influence_zero_between_non_neighbors():
    inf = influence_matrix_numeric(coloring(path(3), 4))
    assert inf.rho[0, 2] == 0.0
    assert inf.rho[2, 0] == 0.0
    assert inf.rho[0, 0] == 0.0


def test_influence_alpha_is_max_row_sum():
    inf = influence_matrix_numeric(coloring(cycle(4), 4))
    assert inf.alpha == pytest.approx(float(inf.rho.sum(axis=1).max()))


def test_cycle_influence_meets_closed_form():
    g = cycle(5)
    numeric = influence_matrix_numeric(coloring(g, 7)).alpha
    closed = dobrushin_alpha_coloring(g, 7)
    assert closed == pytest.approx(2 / 5)
    assert abs(numeric - closed) < 1e-9


def test_closed_form_upper_bounds_numeric():
    for inst, q in ((coloring(path(4), 5), 5), (coloring(cycle(4), 6), 6)):
        numeric = influence_matrix_numeric(inst).alpha
        assert numeric <= dobrushin_alpha_coloring(inst.graph, q) + 1e-12


def test_frozen_vertex_warns_and_zeroes_column():
    # center vertex admits exactly one color, so no feasible pair differs there
    inst = list_coloring(path(3), 3, [[0, 1, 2], [0], [1, 2]])
    with pytest.warns(UserWarning, match="frozen"):
        inf = influence_matrix_numeric(inst)
    np.testing.assert_array_equal(inf.rho[:, 1], 0.0)


def test_mixing_point_mass_start_round_zero():
    inst = hardcore(path(3), 1.0)  # five independent sets, all weight one
    curve = mixing_scan(inst, luby_glauber(), [0], 50, RandomTape(1),
                        initials=("zeros",))
    assert curve.per_initial["zeros"][0] == pytest.approx(1 - 1 / 5)
    assert curve.tau_hat is None  # 0.8 > epsilon on the only grid point


def test_mixing_scan_reaches_epsilon():
    inst = coloring(cycle(4), 5)
    for chain in (luby_glauber(), local_metropolis()):
        curve = mixing_scan(inst, chain, [0, 30], 60000, RandomTape(2),
                            initials=("zeros", "max"))
        assert curve.rounds == [0, 30]
        assert curve.tv[0] > 0.5  # monochromatic starts are far from random
        assert curve.tv[1] < 0.05
        assert curve.tau_hat == 30
        assert set(curve.per_initial) == {"zeros", "max"}


def test_mixing_scan_keeps_every_explicit_start():
    inst = coloring(cycle(4), 3)
    a, b = np.array([0, 1, 0, 1]), np.array([0, 1, 2, 1])
    grid = [0, 1, 2, 4]

    def scan(*starts):
        return mixing_scan(inst, luby_glauber(), grid, 200, RandomTape(3),
                           initials=starts)

    both = scan(b, a)
    assert list(both.per_initial) == ["explicit-0", "explicit-1"]
    assert both.per_initial["explicit-0"] == scan(b).tv
    assert both.per_initial["explicit-1"] == scan(a).tv
    # b starts further from the Gibbs law than a after round 1
    assert both.tv == list(np.maximum(scan(a).tv, scan(b).tv))
    assert both.tv[1] > scan(a).tv[1]


def test_mixing_estimate_stable_across_seeds():
    inst = coloring(cycle(4), 5)
    vals = [mixing_scan(inst, luby_glauber(), [30], 60000, RandomTape(s),
                        initials=("greedy",)).tv[0] for s in (3, 4)]
    assert abs(vals[0] - vals[1]) < 0.02


def test_coupling_identical_starts_stay_together():
    inst = coloring(cycle(6), 4)
    curve = coupling_decay(inst, luby_glauber(), ("zeros", "zeros"), 10, 50,
                           RandomTape(5))
    np.testing.assert_array_equal(curve.phi, 0.0)
    assert math.isnan(curve.rate)
    assert curve.fit_rounds is None
    assert crossing_round(curve, 1.0) == 0.0


@pytest.mark.parametrize("starts", [("greedy",), ("zeros", "max", "greedy")])
def test_coupling_decay_needs_exactly_two_starts(starts):
    # one start would compare the rows of different runs
    with pytest.raises(ValueError, match="two starts"):
        coupling_decay(coloring(cycle(4), 3), luby_glauber(), starts, 3, 10,
                       RandomTape(1))


def test_mixing_scan_needs_a_start():
    with pytest.raises(ValueError, match="at least one start"):
        mixing_scan(coloring(cycle(4), 3), luby_glauber(), [1], 10,
                    RandomTape(1), initials=())


def test_coupling_decay_contracts():
    inst = coloring(cycle(8), 6)
    curve = coupling_decay(inst, local_metropolis(), ("zeros", "max"), 40,
                           1000, RandomTape(6))
    assert curve.phi[0] == pytest.approx(16.0)  # all 8 vertices differ, degree 2
    assert curve.rate > 0
    a, b = curve.fit_rounds
    assert 0 == a and b <= 40
    assert curve.phi[-1] < curve.phi[0] / 10
    assert len(curve.stderr) == 41


def test_crossing_round_interpolation():
    curve = DecayCurve(np.arange(4), np.array([32.0, 8.0, 2.0, 0.5]),
                       np.zeros(4), 1, 0, 1.0, (0, 3))
    assert crossing_round(curve, 4.0) == pytest.approx(1.5)
    assert crossing_round(curve, 8.0) == pytest.approx(1.0)
    assert crossing_round(curve, 40.0) == 0.0
    assert crossing_round(curve, 0.1) == math.inf
    # the log of phi = 0 is undefined: the crossing is the round itself
    onto_zero = DecayCurve(np.arange(3), np.array([3.0, 2.0, 0.0]),
                           np.zeros(3), 1, 0, 1.0, (0, 1))
    assert crossing_round(onto_zero, 1.0) == 2.0


def test_correlation_positive_at_distance_one():
    inst = ising(path(6), 0.8)
    assert correlation_length(inst, 0, 1) > 0.1


def test_correlation_methods_agree_on_paths():
    inst = ising(path(8), 0.7)
    for d in (1, 3, 5):
        a = correlation_length(inst, 0, d, method="enumerate")
        b = correlation_length(inst, 0, d, method="transfer")
        assert a == pytest.approx(b, abs=1e-12)


def test_correlation_decays_with_distance():
    inst = ising(path(8), 0.7)
    vals = [correlation_length(inst, 0, d) for d in (1, 3, 5)]
    assert vals[0] > vals[1] > vals[2]


def test_correlation_tiny_with_many_colors():
    inst = coloring(path(5), 50)
    assert correlation_length(inst, 0, 2, pinnings=[0, 1]) <= 0.05


def test_correlation_pinning_mass_filter():
    # lambda so small that the occupied spin misses the delta cut, leaving
    # a single candidate pin and hence a zero worst-case shift
    inst = hardcore(path(3), 0.01)
    assert correlation_length(inst, 0, 2, delta=0.5) == 0.0
    assert correlation_length(inst, 0, 2, pinnings=[0, 1]) > 0.0


@pytest.mark.parametrize("method", ["enumerate", "transfer"])
@pytest.mark.parametrize("u, v, pinnings, match", [
    (-1, 2, None, "vertex -1 "), (0, 3, None, "vertex 3 "),
    (0, -2, None, "vertex -2 "), (-1, 2, [], "vertex -1 "),
    (0, 2, [0, 5], "spin 5 pinned at vertex 0"),
])
def test_correlation_rejects_out_of_range_input(method, u, v, pinnings, match):
    # at n = 3 a negative vertex would index from the end
    inst = coloring(path(3), 3)
    with pytest.raises(ValueError, match=match):
        correlation_length(inst, u, v, pinnings=pinnings, method=method)


def test_correlation_rejects_an_unknown_method():
    with pytest.raises(ValueError, match="unknown method 'auto'"):
        correlation_length(coloring(path(3), 3), 0, 2, method="auto")


def test_gamma_isolated_vertices_always_selected():
    rep = luby_gamma_estimate(Graph(3, []), 50, RandomTape(8))
    np.testing.assert_array_equal(rep.per_vertex, 1.0)
    assert rep.min == 1.0


def test_gamma_matches_inclusion_probability():
    rep = luby_gamma_estimate(path(3), 20000, RandomTape(9))
    sig = 3 * math.sqrt(0.25 / 20000)
    assert abs(rep.per_vertex[0] - 1 / 2) <= sig
    assert abs(rep.per_vertex[2] - 1 / 2) <= sig
    assert abs(rep.per_vertex[1] - 1 / 3) <= 3 * math.sqrt((1 / 3) * (2 / 3) / 20000)
    assert rep.min == rep.per_vertex[1]
    assert rep.rounds == 20000


def test_gamma_needs_a_round():
    with pytest.raises(ValueError, match="rounds"):
        luby_gamma_estimate(path(3), 0, RandomTape(9))


def test_gamma_respects_degree_floor():
    g = random_regular(12, 3, seed=10)
    rep = luby_gamma_estimate(g, 8000, RandomTape(11))
    floor = 1 / 4
    assert np.all(rep.per_vertex >= floor - 3 * math.sqrt(floor / 8000))


def test_gamma_memory_flat_in_n():
    # each block of rounds holds at most CHUNK_SITES score words and their
    # selection arrays; a fixed block of 4096 rounds peaked near 375 MB here
    g = cycle(4000)
    tracemalloc.start()
    try:
        luby_gamma_estimate(g, 4096, RandomTape(3))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 << 20


@pytest.mark.parametrize("sites", [1, 5 * 12 + 7])
def test_gamma_does_not_depend_on_the_block(monkeypatch, sites):
    g = random_regular(12, 3, seed=10)
    want = luby_gamma_estimate(g, 300, RandomTape(11)).per_vertex
    monkeypatch.setattr(engine, "CHUNK_SITES", sites)
    got = luby_gamma_estimate(g, 300, RandomTape(11)).per_vertex
    assert got.tobytes() == want.tobytes()

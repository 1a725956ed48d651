import numpy as np
import pytest
from _naive import edge_pairs, naive_distances, naive_graph_arrays
from hypothesis import example, given, settings
from hypothesis import strategies as st

from localgibbs.graphs import (EndpointOutOfRange, GenerationFailed, Graph,
                               ParseError, complete, cycle, grid,
                               load_edge_list, path, random_regular)


def test_path_three():
    g = path(3)
    assert g.n == 3
    assert sorted(edge_pairs(g)) == [(0, 1), (1, 2)]
    assert g.max_degree() == 2


def test_cycle_four_is_two_regular():
    g = cycle(4)
    assert g.m == 4
    assert np.all(g.degrees == 2)


def test_grid_two_by_two_matches_cycle_four():
    g = grid(2, 2)
    assert g.n == 4 and g.m == 4
    assert np.all(g.degrees == 2)
    # row-major indexing: 0-1 horizontal, 0-2 vertical
    assert (0, 1) in edge_pairs(g) and (0, 2) in edge_pairs(g)


def test_complete_graph_counts():
    g = complete(5)
    assert g.m == 10
    assert np.all(g.degrees == 4)


def test_size_bounds_rejected():
    with pytest.raises(ValueError):
        path(0)
    with pytest.raises(ValueError):
        cycle(2)
    with pytest.raises(ValueError):
        grid(0, 3)


def test_parallel_edges_multiply_adjacency():
    g = Graph(2, [(0, 1), (1, 0)])
    assert g.max_degree() == 2
    assert g.nbr_flat[g.nbr_ptr[0]:g.nbr_ptr[1]].tolist() == [1, 1]
    assert sorted(edge_pairs(g)) == [(0, 1), (0, 1)]


def test_self_loop_rejected():
    with pytest.raises(ValueError):
        Graph(3, [(1, 1)])


@st.composite
def _multigraphs(draw):
    """(n, edges): parallel edges in both orientations, isolated vertices."""
    n = draw(st.integers(1, 7))
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
        lambda e: e[0] != e[1])
    return n, draw(st.lists(pair, max_size=14) if n > 1 else st.just([]))


def _assert_arrays_match_loops(g, n, edges):
    for name, want in naive_graph_arrays(n, edges).items():
        got = getattr(g, name)
        assert got.dtype == np.int64 and not got.flags.writeable, name
        assert got.tolist() == want, name


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_multigraphs())
@example((1, []))
@example((3, []))
@example((4, [(2, 0), (0, 2), (0, 2), (3, 0), (2, 0)]))
def test_index_arrays_match_loop_construction(case):
    n, edges = case
    _assert_arrays_match_loops(Graph(n, edges), n, edges)
    as_array = Graph(n, np.array(edges, dtype=np.int64).reshape(-1, 2))
    _assert_arrays_match_loops(as_array, n, edges)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(_multigraphs(), st.integers(0, 6))
def test_distances_match_plain_bfs(case, source):
    n, edges = case
    source %= n
    assert Graph(n, edges).distances(source).tolist() \
        == naive_distances(n, edges, source)


def test_random_regular_arrays_match_loop_construction():
    g = random_regular(2 ** 12, 3, seed=1702)
    _assert_arrays_match_loops(g, g.n, edge_pairs(g))


def test_first_bad_edge_in_edge_order_is_named():
    # a self-loop at edge 2 ahead of an out-of-range endpoint at edge 4
    with pytest.raises(ValueError) as err:
        Graph(5, [(0, 1), (1, 2), (3, 3), (2, 4), (0, 7)])
    assert type(err.value) is ValueError
    assert str(err.value) == "self-loop at vertex 3"
    with pytest.raises(EndpointOutOfRange) as err:
        Graph(5, [(0, 1), (1, 2), (0, 7), (2, 4), (3, 3)])
    assert str(err.value) == "edge (0, 7) outside [0, 5)"
    # on one edge, the range check comes first
    with pytest.raises(EndpointOutOfRange) as err:
        Graph(5, [(0, 1), (-2, -2)])
    assert str(err.value) == "edge (-2, -2) outside [0, 5)"


def test_edges_must_be_pairs():
    for edges in ([(0, 1, 2)], [0, 1], np.zeros((2, 2, 2), dtype=np.int64)):
        with pytest.raises(ValueError, match=r"edges must be \(u, v\) pairs"):
            Graph(3, edges)


def test_endpoint_out_of_range():
    with pytest.raises(EndpointOutOfRange):
        Graph(3, [(0, 3)])
    with pytest.raises(EndpointOutOfRange):
        Graph(3, [(-1, 0)])


def test_random_regular_four_three_is_complete():
    g = random_regular(4, 3, seed=0)
    assert sorted(edge_pairs(g)) == sorted(edge_pairs(complete(4)))


def test_random_regular_is_regular_and_simple():
    g = random_regular(10, 3, seed=7)
    assert np.all(g.degrees == 3)
    pairs = sorted(edge_pairs(g))
    assert len(set(pairs)) == len(pairs)
    assert all(u != v for u, v in pairs)


def test_random_regular_odd_product_rejected():
    with pytest.raises(ValueError):
        random_regular(5, 3, seed=0)
    with pytest.raises(ValueError):
        random_regular(4, 4, seed=0)


def test_random_regular_deterministic_per_seed():
    a = random_regular(20, 3, seed=11)
    b = random_regular(20, 3, seed=11)
    assert sorted(edge_pairs(a)) == sorted(edge_pairs(b))
    c = random_regular(20, 3, seed=12)
    assert sorted(edge_pairs(c)) != sorted(edge_pairs(a))


def test_random_regular_many_seeds_always_valid():
    for seed in range(30):
        g = random_regular(12, 3, seed=seed)
        assert np.all(g.degrees == 3)
        pairs = sorted(edge_pairs(g))
        assert len(set(pairs)) == len(pairs)


def test_degree_bound_rejected():
    with pytest.raises(ValueError):
        random_regular(2, 2, seed=0)
    assert GenerationFailed is not None  # exported for callers to catch


def test_edge_list_round_trip(tmp_path):
    target = tmp_path / "g.txt"
    c = cycle(4)
    target.write_text(f"{c.n} {c.m}\n" + "".join(
        f"{u} {v}\n" for u, v in edge_pairs(c)), encoding="utf-8")
    g = load_edge_list(str(target))
    assert g.n == 4
    assert edge_pairs(g) == edge_pairs(c)


def test_edge_list_known_file(tmp_path):
    target = tmp_path / "p3.txt"
    target.write_text("3 2\n0 1\n1 2\n", encoding="utf-8")
    g = load_edge_list(str(target))
    assert sorted(edge_pairs(g)) == sorted(edge_pairs(path(3)))


def test_edge_list_comments_and_blanks(tmp_path):
    target = tmp_path / "c.txt"
    target.write_text("# a triangle\n3 3\n0 1\n\n1 2\n# middle\n0 2\n",
                      encoding="utf-8")
    assert load_edge_list(str(target)).m == 3


def test_edge_list_self_loop_is_parse_error(tmp_path):
    target = tmp_path / "bad.txt"
    target.write_text("2 1\n0 0\n", encoding="utf-8")
    with pytest.raises(ParseError) as err:
        load_edge_list(str(target))
    assert err.value.line_no == 2


def test_edge_list_wrong_edge_count(tmp_path):
    target = tmp_path / "bad.txt"
    target.write_text("3 2\n0 1\n", encoding="utf-8")
    with pytest.raises(ParseError):
        load_edge_list(str(target))


def test_edge_list_endpoint_out_of_range(tmp_path):
    target = tmp_path / "bad.txt"
    target.write_text("2 1\n0 5\n", encoding="utf-8")
    with pytest.raises(ParseError) as err:
        load_edge_list(str(target))
    assert err.value.line_no == 2


def test_bfs_distances():
    g = path(5)
    np.testing.assert_array_equal(g.distances(0), [0, 1, 2, 3, 4])
    c = cycle(6)
    np.testing.assert_array_equal(c.distances(0), [0, 1, 2, 3, 2, 1])
    assert c.distances(3)[0] == 3


def test_disconnected_distance_is_unreachable():
    g = Graph(3, [(0, 1)])
    d = g.distances(0)
    assert d[2] == -1

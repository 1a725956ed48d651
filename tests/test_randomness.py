import numpy as np
import pytest

from localgibbs.randomness import (KIND_NODE_BETA, KIND_NODE_PROPOSAL,
                                   RandomTape, hash_words, uniform_from_bits)


def test_same_address_same_value():
    a = RandomTape(123).node_uniforms(KIND_NODE_BETA, [0, 1, 2], 7, [0, 5])
    b = RandomTape(123).node_uniforms(KIND_NODE_BETA, [0, 1, 2], 7, [0, 5])
    np.testing.assert_array_equal(a, b)


def test_query_order_is_irrelevant():
    tape = RandomTape(9)
    first = tape.node_uniforms(KIND_NODE_PROPOSAL, [3], 2, [0])[0, 0]
    tape.node_uniforms(KIND_NODE_BETA, np.arange(50), 1, np.arange(10))
    tape.edge_uniforms([0], [1], [0], 4, [2])
    again = tape.node_uniforms(KIND_NODE_PROPOSAL, [3], 2, [0])[0, 0]
    assert first == again


def test_addresses_separate_streams():
    tape = RandomTape(1)
    base = tape.node_uniforms(KIND_NODE_BETA, [4], 10, [2])[0, 0]
    assert tape.node_uniforms(KIND_NODE_BETA, [5], 10, [2])[0, 0] != base
    assert tape.node_uniforms(KIND_NODE_BETA, [4], 11, [2])[0, 0] != base
    assert tape.node_uniforms(KIND_NODE_BETA, [4], 10, [3])[0, 0] != base
    assert tape.node_uniforms(KIND_NODE_PROPOSAL, [4], 10, [2])[0, 0] != base
    assert RandomTape(2).node_uniforms(KIND_NODE_BETA, [4], 10, [2])[0, 0] != base


def test_uniforms_live_in_unit_interval():
    u = RandomTape(5).node_uniforms(KIND_NODE_BETA, np.arange(100), 1,
                                    np.arange(100))
    assert u.shape == (100, 100)
    assert np.all(u >= 0) and np.all(u < 1)


def test_uniform_moments_sane():
    u = RandomTape(17).node_uniforms(KIND_NODE_PROPOSAL, np.arange(200), 1,
                                     np.arange(500))
    # mean 1/2, var 1/12; 100k draws put 5 sigma well under these slacks
    assert abs(u.mean() - 0.5) < 0.005
    assert abs(u.var() - 1.0 / 12) < 0.005


def test_consecutive_rounds_uncorrelated():
    tape = RandomTape(23)
    a = tape.node_uniforms(KIND_NODE_BETA, np.arange(1000), 1, [0])[0]
    b = tape.node_uniforms(KIND_NODE_BETA, np.arange(1000), 2, [0])[0]
    corr = np.corrcoef(a, b)[0, 1]
    assert abs(corr) < 0.1


def test_edge_coin_identity_is_canonical():
    tape = RandomTape(3)
    c1 = tape.edge_uniforms([2], [5], [0], 9, [1])
    c2 = tape.edge_uniforms([2], [5], [0], 9, [1])
    np.testing.assert_array_equal(c1, c2)
    # parallel edge gets its own coin via the multiplicity index
    c3 = tape.edge_uniforms([2], [5], [1], 9, [1])
    assert c3[0, 0] != c1[0, 0]


def test_node_salt_touches_only_that_vertex():
    tape = RandomTape(77)
    salted = tape.with_node_salt(2, 9, 6)
    ents = np.arange(6)
    for kind in (KIND_NODE_BETA, KIND_NODE_PROPOSAL):
        a = tape.node_uniforms(kind, ents, 4, [0, 1])
        b = salted.node_uniforms(kind, ents, 4, [0, 1])
        assert np.all(a[:, 2] != b[:, 2])
        keep = [v for v in range(6) if v != 2]
        np.testing.assert_array_equal(a[:, keep], b[:, keep])
    # edge coins are keyed by endpoints, not by node salt
    ec_a = tape.edge_uniforms([1, 2], [2, 3], [0, 0], 4, [0])
    ec_b = salted.edge_uniforms([1, 2], [2, 3], [0, 0], 4, [0])
    np.testing.assert_array_equal(ec_a, ec_b)


def test_pair_uniforms_match_node_uniforms():
    tape = RandomTape(77)
    runs = np.array([0, 3, 5])
    # (entities, rows of runs): every id; ids that skip vertex 0 and the
    # highest id 5, as the per-entity prefix covers ids up to the largest
    # listed; and no pairs at all
    cases = [([0, 2, 5, 2, 1, 4], [0, 1, 2, 2, 0, 1]),
             ([3, 1, 2, 3, 4], [2, 0, 1, 0, 1]),
             ([], [])]
    for t in (tape, tape.with_node_salt(2, 9, 6)):
        for kind in (KIND_NODE_BETA, KIND_NODE_PROPOSAL):
            grid = t.node_uniforms(kind, np.arange(6), 4, runs)
            for ents, rows in cases:
                ents, rows = np.array(ents, int), np.array(rows, int)
                got = t.node_uniforms_at(kind, ents, 4, runs[rows])
                assert got.dtype == np.float64 and got.shape == ents.shape
                np.testing.assert_array_equal(got, grid[rows, ents])


def test_words_over_rounds_matches_per_round_queries():
    tape = RandomTape(31)
    ents = np.arange(8)
    block = tape.node_words_over_rounds(KIND_NODE_BETA, ents, [1, 2, 3])
    for i, t in enumerate([1, 2, 3]):
        np.testing.assert_array_equal(
            block[i], tape.node_words(KIND_NODE_BETA, ents, t, [0])[:, 0])


def test_hash_words_deterministic_and_spread():
    a = hash_words(1, 2, 3)
    b = hash_words(1, 2, 3)
    assert a == b
    assert hash_words(1, 2, 4) != a
    u = uniform_from_bits(np.asarray([a], dtype=np.uint64))
    assert 0 <= u[0] < 1


def test_master_seed_recorded():
    assert RandomTape(41).master_seed == 41


def test_salt_vertex_out_of_range():
    tape = RandomTape(7).with_node_salt(0, 5, 3)
    assert tape.master_seed == 7
    with pytest.raises(ValueError):
        tape.with_node_salt(10, 1, 3)


def test_node_words_are_entity_major():
    # the selection reads one row per vertex; the uniforms one row per run
    tape = RandomTape(13).with_node_salt(2, 5, 6)
    ents, runs = np.array([4, 0, 2]), np.array([9, 1])
    words = tape.node_words(KIND_NODE_BETA, ents, 3, runs)
    assert words.shape == (3, 2)
    np.testing.assert_array_equal(
        uniform_from_bits(words).T,
        tape.node_uniforms(KIND_NODE_BETA, ents, 3, runs))

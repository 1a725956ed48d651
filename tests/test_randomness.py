import sys
import threading

import numpy as np
import pytest

from localgibbs.randomness import (KIND_EDGE_COIN, KIND_NODE_BETA,
                                   KIND_NODE_PROPOSAL, U64, RandomTape, fold,
                                   hash_words, uniform_from_bits)


def test_same_address_same_value():
    a = RandomTape(123).node_uniforms(KIND_NODE_BETA, [0, 1, 2], 7, [[0], [5]])
    b = RandomTape(123).node_uniforms(KIND_NODE_BETA, [0, 1, 2], 7, [[0], [5]])
    np.testing.assert_array_equal(a, b)


def test_query_order_is_irrelevant():
    tape = RandomTape(9)
    first = tape.node_uniforms(KIND_NODE_PROPOSAL, 3, 2, 0)
    tape.node_uniforms(KIND_NODE_BETA, np.arange(50), 1, np.arange(10)[:, None])
    tape.edge_uniforms(0, 1, 0, 4, 2)
    again = tape.node_uniforms(KIND_NODE_PROPOSAL, 3, 2, 0)
    assert first == again


def test_addresses_separate_streams():
    tape = RandomTape(1)
    base = tape.node_uniforms(KIND_NODE_BETA, 4, 10, 2)
    assert tape.node_uniforms(KIND_NODE_BETA, 5, 10, 2) != base
    assert tape.node_uniforms(KIND_NODE_BETA, 4, 11, 2) != base
    assert tape.node_uniforms(KIND_NODE_BETA, 4, 10, 3) != base
    assert tape.node_uniforms(KIND_NODE_PROPOSAL, 4, 10, 2) != base
    assert RandomTape(2).node_uniforms(KIND_NODE_BETA, 4, 10, 2) != base


def test_uniforms_live_in_unit_interval():
    u = RandomTape(5).node_uniforms(KIND_NODE_BETA, np.arange(100), 1,
                                    np.arange(100)[:, None])
    assert u.shape == (100, 100)
    assert np.all(u >= 0) and np.all(u < 1)


def test_uniform_moments_sane():
    u = RandomTape(17).node_uniforms(KIND_NODE_PROPOSAL, np.arange(200), 1,
                                     np.arange(500)[:, None])
    # mean 1/2, var 1/12; 100k draws put 5 sigma well under these slacks
    assert abs(u.mean() - 0.5) < 0.005
    assert abs(u.var() - 1.0 / 12) < 0.005


def test_consecutive_rounds_uncorrelated():
    tape = RandomTape(23)
    a = tape.node_uniforms(KIND_NODE_BETA, np.arange(1000), 1, 0)
    b = tape.node_uniforms(KIND_NODE_BETA, np.arange(1000), 2, 0)
    corr = np.corrcoef(a, b)[0, 1]
    assert abs(corr) < 0.1


def test_edge_coin_identity_is_canonical():
    tape = RandomTape(3)
    c1 = tape.edge_uniforms(2, 5, 0, 9, 1)
    c2 = tape.edge_uniforms(2, 5, 0, 9, 1)
    np.testing.assert_array_equal(c1, c2)
    # parallel edge gets its own coin via the multiplicity index
    c3 = tape.edge_uniforms(2, 5, 1, 9, 1)
    assert c3 != c1


def test_node_salt_touches_only_that_vertex():
    tape = RandomTape(77)
    salted = tape.with_node_salt(2, 9, 6)
    ents = np.arange(6)
    for kind in (KIND_NODE_BETA, KIND_NODE_PROPOSAL):
        a = tape.node_uniforms(kind, ents, 4, [[0], [1]])
        b = salted.node_uniforms(kind, ents, 4, [[0], [1]])
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
            grid = t.node_uniforms(kind, np.arange(6), 4, runs[:, None])
            for ents, rows in cases:
                ents, rows = np.array(ents, int), np.array(rows, int)
                got = t.node_uniforms(kind, ents, 4, runs[rows])
                assert got.dtype == np.float64 and got.shape == ents.shape
                np.testing.assert_array_equal(got, grid[rows, ents])


def test_words_over_rounds_matches_per_round_queries():
    tape = RandomTape(31)
    ents = np.arange(8)
    block = tape.node_words_over_rounds(KIND_NODE_BETA, ents, [1, 2, 3])
    for i, t in enumerate([1, 2, 3]):
        np.testing.assert_array_equal(
            block[i], tape.node_words(KIND_NODE_BETA, ents, t, 0))


def test_hash_words_deterministic_and_spread():
    a = hash_words(1, 2, 3)
    b = hash_words(1, 2, 3)
    assert a == b
    assert hash_words(1, 2, 4) != a
    u = uniform_from_bits(np.asarray([a], dtype=np.uint64))
    assert 0 <= u[0] < 1


def test_fold_mixes_0d_operands_like_arrays():
    # numpy's xor of two 0-d operands is a scalar, not an array; a finalizer
    # run in place on it would mix a copy and return the state unmixed
    for a, b in ((0, 0), (0, 1), (2 ** 64 - 1, 7), (2 ** 63, 12345)):
        got = fold(U64(a), U64(b))
        assert got.dtype == U64 and got.shape == ()
        assert got == fold(np.array([a], U64), np.array([b], U64))[0]


def test_master_seed_recorded():
    assert RandomTape(41).master_seed == 41


def test_salt_vertex_out_of_range():
    tape = RandomTape(7).with_node_salt(0, 5, 3)
    assert tape.master_seed == 7
    with pytest.raises(ValueError):
        tape.with_node_salt(10, 1, 3)


def test_node_words_are_entity_major():
    # the selection reads one row per vertex, entities[:, None]; the
    # uniforms one row per run, runs[:, None]
    tape = RandomTape(13).with_node_salt(2, 5, 6)
    ents, runs = np.array([4, 0, 2]), np.array([9, 1])
    words = tape.node_words(KIND_NODE_BETA, ents[:, None], 3, runs)
    assert words.shape == (3, 2)
    np.testing.assert_array_equal(
        uniform_from_bits(words).T,
        tape.node_uniforms(KIND_NODE_BETA, ents, 3, runs[:, None]))


def _hashed(*words):
    """One address hashed word by word from the seed, with no kept prefix."""
    return int(hash_words(*(np.uint64(w) for w in words)))


def test_every_accessor_broadcasts_to_the_uncached_hash():
    # each tape keeps its round-free node prefixes; querying more entities
    # than the table holds, fewer or in another order, in any broadcast
    # layout, must not change a bit, and a re-salted copy keeps its own
    # table
    seed, runs = 58, np.array([0, 7, 3])
    tape = RandomTape(seed)
    tape.node_words(KIND_NODE_BETA, np.arange(4), 1, 0)
    salted = tape.with_node_salt(5, 99, 9)
    for t, salts in ((tape, [0] * 9), (salted, [0] * 5 + [99] + [0] * 3)):
        for kind, ents, round_ in ((KIND_NODE_BETA, [8, 0, 5, 2], 3),
                                   (KIND_NODE_PROPOSAL, [5, 1], 4),
                                   (KIND_NODE_BETA, [1, 3], 2)):
            ents = np.array(ents)
            want = np.array([[_hashed(seed, kind, v, salts[v], round_, r)
                              for r in runs] for v in ents], dtype=np.uint64)
            # (E, 1) x (R,), with a scalar and a 0-d array round
            for r in (round_, np.array(round_, np.int64)):
                np.testing.assert_array_equal(
                    t.node_words(kind, ents[:, None], r, runs), want)
            # (E,) x (R, 1), one row per run
            np.testing.assert_array_equal(
                t.node_uniforms(kind, ents, round_, runs[:, None]),
                uniform_from_bits(want).T)
            # 1-D pairs, in any order, with entities and runs repeated
            e = np.arange(len(ents))
            for idx, rows in ((e, e % len(runs)),
                              (np.repeat(e[::-1], 2), np.tile([2, 0], len(e)))):
                got = t.node_uniforms(kind, ents[idx], round_, runs[rows])
                assert got.dtype == np.float64 and got.shape == idx.shape
                np.testing.assert_array_equal(
                    got, uniform_from_bits(want[idx, rows]))
            # a rounds column (T, 1) x (E,), one run
            over = [[_hashed(seed, kind, v, salts[v], r, 7) for v in ents]
                    for r in (round_, 9)]
            np.testing.assert_array_equal(t.node_words(
                kind, ents, np.array([[round_], [9]]), 7), over)
            np.testing.assert_array_equal(
                t.node_words_over_rounds(kind, ents, [round_, 9], 7), over)
        # no pairs at all
        assert t.node_uniforms(KIND_NODE_BETA, [], 2, []).shape == (0,)
    # edge coins, (m, 1) x (R,); node salts do not enter
    eu, ev, mult = np.array([0, 2, 2]), np.array([4, 5, 5]), np.array([0, 0, 1])
    want = [[_hashed(seed, KIND_EDGE_COIN, a, b, c, 6, r) for r in runs]
            for a, b, c in zip(eu, ev, mult)]
    for t in (tape, salted):
        np.testing.assert_array_equal(
            t.edge_uniforms(eu[:, None], ev[:, None], mult[:, None], 6, runs),
            uniform_from_bits(np.array(want, dtype=np.uint64)))


def test_threads_sharing_a_tape_read_the_uncached_words():
    # threads that share a fresh tape build and grow its prefix table at
    # the same time, each asking for another size; every read must still
    # equal the uncached hash, whichever thread's table it finds
    runs = np.array([1, 4])
    nodes = [np.array([[_hashed(5, KIND_NODE_BETA, v, 0, 3, r) for r in runs]
                       for v in range(n)], dtype=np.uint64)
             for n in (3, 17, 40)]
    tapes = [RandomTape(5) for _ in range(40)]
    barrier, wrong = threading.Barrier(8, timeout=60), []

    def worker(i):
        try:
            for tape in tapes:
                barrier.wait()
                want = nodes[i % 3]
                if not np.array_equal(tape.node_words(
                        KIND_NODE_BETA, np.arange(len(want))[:, None], 3,
                        runs), want):
                    wrong.append(len(want))
        except Exception as exc:  # reported by the assert below
            wrong.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(i,))
                   for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert wrong == []

"""The round contract: an (n, rows) batch, vertex-major, with k = rows //
len(runs) columns per run, run-major.

Column i * k + s of a batch is run runs[i] from its s-th start, and all k
columns of a run read the tape at runs[i]. A round computes the tape's
variates once per run, so a k-start batch must equal k one-start batches
column for column, must hash exactly what one start hashes, and must name
the same ZeroMarginal failure. A Metropolis round hashes its edge coins
only where the filter has a fractional factor, and a resampling round
multiplies float edge factors only where some edge activity is not 0 or 1,
and reads its CDFs from the per-mask table only where it applies.
"""

import copy

import numpy as np
import pytest
from test_digests import _hub_and_tail_instance, _hub_and_tail_lists

from localgibbs.chains import (SchedulerSpec, chromatic_classes,
                               local_metropolis, local_metropolis_round_batch,
                               luby_glauber, plan, round_function)
from localgibbs.engine import initial_config, run_batch, run_chunked
from localgibbs.graphs import path, random_regular
from localgibbs.models import (coloring, hardcore, ising, list_coloring,
                               potts)
from localgibbs.mrf import MrfInstance, ZeroMarginal
from localgibbs.randomness import RandomTape

STARTS = (1, 2, 4)
RUNS = np.arange(5, 45, 3, dtype=np.int64)


def _chain(name, graph):
    if name == "metropolis":
        return local_metropolis()
    return luby_glauber(SchedulerSpec(
        name, chromatic_classes(graph) if name == "chromatic" else None))


CHAINS = ("luby", "chromatic", "single-site", "metropolis")


def _batch(inst, k, seed):
    """k random starts per run of RUNS, run-major, vertex-major: (n,
    len(RUNS) * k)."""
    starts = [initial_config(inst, "random", RandomTape(seed + s), RUNS)
              for s in range(k)]
    return np.stack(starts, axis=1).reshape(-1, inst.n).T.copy()


class _CountingTape(RandomTape):
    """Counts the variates each tape accessor hashes."""

    def __init__(self, seed):
        super().__init__(seed)
        self.words = dict.fromkeys(("node_words", "node_uniforms",
                                    "edge_uniforms"), 0)

    def node_words(self, *args, **kwargs):
        out = super().node_words(*args, **kwargs)
        self.words["node_words"] += out.size
        return out

    def node_uniforms(self, *args):
        out = super().node_uniforms(*args)
        self.words["node_uniforms"] += out.size
        return out

    def edge_uniforms(self, *args):
        out = super().edge_uniforms(*args)
        self.words["edge_uniforms"] += out.size
        return out


@pytest.mark.parametrize("k", STARTS)
@pytest.mark.parametrize("name", CHAINS)
def test_k_starts_equal_k_one_start_batches(name, k):
    inst = _hub_and_tail_instance()
    fn = round_function(_chain(name, inst.graph))
    tape = RandomTape(11)
    for t in range(1, 5):
        x = _batch(inst, k, 10 * t)
        got, _ = fn(inst, x, t, tape, RUNS)
        assert got.shape == x.shape
        for s in range(k):
            want, _ = fn(inst, x[:, s::k], t, tape, RUNS)
            np.testing.assert_array_equal(got[:, s::k], want)


def _per_edge_rr40(zero_one: bool) -> MrfInstance:
    # tables that differ from edge to edge on 2m * q = 480 > 255 slot
    # entries, so that a slot offset wrapped in a spin's uint8 would read
    # another edge's table; 0/1 tables with one activity vector take the
    # per-mask CDF table, and spin 0 keeps every conditional alive
    g, q = random_regular(40, 3, seed=2), 4
    i, j = np.indices((q, q))
    if zero_one:
        edge = [((i + j + e) % 3 > 0) | (i * j == 0) for e in range(g.m)]
        return MrfInstance(g, q, edge, np.ones(q))
    edge = [0.2 + ((i + j + e) % 4) * 0.45 for e in range(g.m)]
    return MrfInstance(g, q, edge, [0.5 + (v + np.arange(q)) % 3
                                    for v in range(g.n)])


# the round paths: float slot products (on a multigraph with isolated
# vertices, and past 255 slot entries), the per-mask CDF table, packed
# bits over two byte rows with per-vertex activities, and q = 257, whose
# spins need uint16
_NARROW = {
    "hub-tail": _hub_and_tail_instance,
    "float-rr40": lambda: _per_edge_rr40(False),
    "mask-table-rr40": lambda: _per_edge_rr40(True),
    "lists-q9": lambda: _hub_and_tail_lists(9),
    "coloring-q257": lambda: coloring(path(6), 257),
}


@pytest.mark.parametrize("k", (1, 4))
@pytest.mark.parametrize("model", list(_NARROW))
@pytest.mark.parametrize("name", CHAINS)
def test_narrow_batch_rounds_equal_int64_rounds(name, model, k):
    inst = _NARROW[model]()
    narrow = np.min_scalar_type(inst.q - 1)
    assert narrow == (np.uint16 if inst.q == 257 else np.uint8)
    chain = _chain(name, inst.graph)
    # one bound function for the narrow rounds, so its buffers are reused
    fn, tape = round_function(chain), RandomTape(11)
    x = _batch(inst, k, 7)
    y = x.astype(narrow)
    for t in range(1, 4):
        want, _ = round_function(chain)(inst, x, t, tape, RUNS)
        got, _ = fn(inst, y, t, tape, RUNS)
        assert (want.dtype, got.dtype) == (np.int64, narrow)
        np.testing.assert_array_equal(got, want)
        x, y = want, got


@pytest.mark.parametrize("k", STARTS)
@pytest.mark.parametrize("name", CHAINS)
def test_tape_is_hashed_per_run_not_per_row(name, k):
    inst = _hub_and_tail_instance()
    g = inst.graph
    fn = round_function(_chain(name, g))
    for t in range(1, 4):
        one, many = _CountingTape(3), _CountingTape(3)
        fn(inst, _batch(inst, 1, t), t, one, RUNS)
        fn(inst, _batch(inst, k, t), t, many, RUNS)
        assert many.words == one.words
        # one start hashes at most one variate per (entity, run)
        per_run = {"node_words": g.n, "node_uniforms": g.n,
                   "edge_uniforms": g.m}
        for accessor, count in one.words.items():
            assert count <= per_run[accessor] * len(RUNS)
        assert sum(one.words.values()) > 0


@pytest.mark.parametrize("name", CHAINS)
def test_run_chunked_hashes_per_run_whatever_the_starts(name):
    inst = _hub_and_tail_instance()
    chain = _chain(name, inst.graph)
    words = []
    for starts in (["zeros"], ["zeros", "max", "greedy", "random"]):
        tape = _CountingTape(3)
        list(run_chunked(inst, chain, 5, 40, tape, starts,
                         lambda runs, x: x.shape[1]))
        words.append(tape.words)
    # the random start's initial draw is the one variate per (vertex, run)
    # that the four starts add
    words[1]["node_uniforms"] -= inst.n * 40
    assert words[0] == words[1]


_RR = random_regular(12, 3, seed=2)
# instance -> whether every normalized edge activity is 0 or 1
_FILTERS = {
    "coloring": (lambda: coloring(_RR, 4), True),
    "list-coloring": (lambda: list_coloring(
        _RR, 4, [[c for c in range(4) if c != v % 4] for v in range(12)]),
        True),
    "hardcore": (lambda: hardcore(_RR, 0.5), True),
    "potts": (lambda: potts(_RR, 3, 1.7), False),
    "ising": (lambda: ising(_RR, 0.4), False),
    "hub-tail": (_hub_and_tail_instance, False),
}


@pytest.mark.parametrize("joint", [pytest.param(True, id="joint"),
                                   pytest.param(False, id="factors")])
@pytest.mark.parametrize("k", STARTS[:2])
@pytest.mark.parametrize("name", sorted(_FILTERS))
def test_metropolis_hashes_coins_only_for_fractional_filters(name, k, joint):
    # a fractional filter sent down the coin-free path would change the law,
    # whether the round reads the joint table or the three factors
    make, zero_one = _FILTERS[name]
    inst = make()
    tables = plan(local_metropolis(), inst)
    assert (tables.A_pass is not None) == zero_one
    if zero_one:
        assert not tables.A_pass.flags.writeable
    # hub-tail alone has a table per edge
    assert (tables.joint is not None) == (name != "hub-tail")
    if not joint:
        tables = tables._replace(joint=None)
    for t in range(1, 4):
        tape = _CountingTape(3)
        local_metropolis_round_batch(inst, _batch(inst, k, t), t, tape, RUNS,
                                     tables)
        assert tape.words["edge_uniforms"] \
            == (0 if zero_one else inst.graph.m * len(RUNS))
        # the proposals are drawn from their words through the bucket table
        assert tables.b_table is not None
        assert (tape.words["node_words"], tape.words["node_uniforms"]) \
            == (inst.n * len(RUNS), 0)


def _outcome(fn, inst, x, t):
    try:
        return fn(inst, x, t, RandomTape(3), RUNS)[0].tolist()
    except ZeroMarginal as exc:
        return exc.run, exc.vertex, exc.round


# instance -> whether every edge activity is 0 or 1. That matches the
# filter flags above: the scaled coloring's entries are 0 or 2, so it sets
# neither 0/1 table, though its normalized activities are 0 or 1
_TABLES = {**_FILTERS, "scaled-coloring": (lambda: MrfInstance(
    _RR, 4, 2 * (1 - np.eye(4)), np.ones(4)), False)}


@pytest.mark.parametrize("k", STARTS[:2])
@pytest.mark.parametrize("name", sorted(_TABLES))
def test_resampling_packs_only_zero_one_tables(name, k):
    # a fractional table sent down the packed path would change the law
    make, zero_one = _TABLES[name]
    inst = make()
    g, q = inst.graph, inst.q
    chain = _chain("luby", g)
    tables = plan(chain, inst)
    filters = plan(local_metropolis(), inst)
    assert (filters.A_pass is not None) == zero_one
    assert (tables.slot_bits is not None) == zero_one
    assert (tables.slot_table is None) == zero_one
    if not zero_one:
        return
    assert filters.A_norm is inst.A
    assert not tables.slot_bits.flags.writeable
    support = (inst.A[g.rank_edge] > 0).reshape(-1, q).T
    np.testing.assert_array_equal(
        np.unpackbits(tables.slot_bits, axis=0, count=q, bitorder="little"),
        support)
    # the packed round against the float rows it replaces, on a plan that
    # keeps only those rows
    floats = tables._replace(
        slot_table=np.ascontiguousarray(inst.A[g.rank_edge].reshape(-1, q).T),
        slot_bits=None, mask_table=None, mask_dead=None)
    for t in range(1, 4):
        x = _batch(inst, k, t)
        assert _outcome(round_function(chain, floats), inst, x, t) \
            == _outcome(round_function(chain, tables), inst, x, t)


# instance -> whether the resampling round draws from the per-mask CDF
# table: one byte of slot bits (q <= 8) and one vertex activity vector
_MASK_TABLES = {
    "coloring": (lambda: coloring(_RR, 4), True),
    # strands vertices, so the table's ZeroMarginal is checked too
    "coloring-3": (lambda: coloring(_RR, 3), True),
    "coloring-8": (lambda: coloring(_RR, 8), True),
    "coloring-9": (lambda: coloring(_RR, 9), False),
    "hardcore": (lambda: hardcore(_RR, 0.5), True),
    "list-coloring": (_FILTERS["list-coloring"][0], False),
    "potts": (_FILTERS["potts"][0], False),
    "hub-tail": (_hub_and_tail_instance, False),
}


@pytest.mark.parametrize("k", STARTS[:2])
@pytest.mark.parametrize("name", sorted(_MASK_TABLES))
def test_resampling_draws_from_mask_table_only_when_it_applies(name, k):
    make, table = _MASK_TABLES[name]
    inst = make()
    chain = _chain("luby", inst.graph)
    tables = plan(chain, inst)
    assert (tables.mask_table is not None) == table
    assert (tables.mask_dead is not None) == table
    if not table:
        return
    assert tables.mask_table.cdf.shape == (inst.q, 256)
    # a round that built the conditionals would read the NaNs
    blind = copy.copy(inst)
    blind.b = np.full_like(inst.b, np.nan)
    fn = round_function(chain, tables)
    outcomes = [_outcome(fn, inst, _batch(inst, k, t), t) for t in range(1, 9)]
    for t, want in enumerate(outcomes, 1):
        assert _outcome(fn, blind, _batch(inst, k, t), t) == want
    assert any(isinstance(o, tuple) for o in outcomes) == (name == "coloring-3")


def _failure(fn, inst, x, t, tape):
    try:
        fn(inst, x, t, tape, RUNS)
    except ZeroMarginal as exc:
        return exc.run, exc.vertex, exc.round
    return None


@pytest.mark.parametrize("k", STARTS[1:])
@pytest.mark.parametrize("name", CHAINS[:3])
def test_zero_marginal_names_the_same_pair_with_extra_starts(name, k):
    # 3-colorings of a 3-regular graph from random starts: many scheduled
    # vertices see all three colors around them. A proper coloring never
    # strands a vertex, since its own color stays available.
    g = random_regular(12, 3, seed=2)
    inst = coloring(g, 3)
    proper = np.broadcast_to(initial_config(inst, "greedy")[:, None],
                             (inst.n, len(RUNS)))
    fn = round_function(_chain(name, g))
    tape = RandomTape(4)
    raised = 0
    for t in range(1, 9):
        x = _batch(inst, k, 100 + t)
        first = _failure(fn, inst, x[:, ::k], t, tape)
        raised += first is not None
        # extra starts that never fail leave the named failure as it was
        padded = np.stack([x[:, ::k]] + [proper] * (k - 1), axis=2)
        assert _failure(fn, inst, padded.reshape(x.shape), t, tape) == first
        # extra starts that fail too: the smallest (run, vertex) of all
        alone = [f for f in (_failure(fn, inst, x[:, s::k], t, tape)
                             for s in range(k)) if f is not None]
        assert _failure(fn, inst, x, t, tape) \
            == (min(alone) if alone else None)
    assert raised > 0


@pytest.mark.parametrize("chain", [luby_glauber(), local_metropolis()],
                         ids=["luby_glauber", "local_metropolis"])
@pytest.mark.parametrize("rows,runs", [(4, 3), (5, 2), (0, 2), (0, 0)])
def test_run_batch_rejects_rows_not_a_multiple_of_runs(chain, rows, runs):
    # four rows and three runs would leave row 3 never updated
    inst = coloring(path(3), 3)
    with pytest.raises(ValueError, match="not a positive multiple"):
        run_batch(inst, chain, np.zeros((rows, inst.n), int), 1,
                  RandomTape(0), np.arange(runs))

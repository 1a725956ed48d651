"""Exact vectorised kernels against their direct forms.

The inverse-CDF draw, the Metropolis filter's flat-index lookups and the
samples.jsonl encoder must agree bit for bit (byte for byte) with the
expressions they replace, and the batched rounds with their pure-loop
references, down to draws that land exactly on a CDF entry.
"""

import json
import math

import numpy as np
import pytest
from _naive import (naive_conditional_cdf, naive_draw, naive_local_max,
                    naive_marginal, naive_metropolis, naive_pass_probability,
                    naive_proposal_cdf, naive_resample)
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from test_chains import selection_rows
from test_digests import _hub_and_tail_wide, _multigraph_instance

from localgibbs.chains import (SCHEDULER_VARIANTS, SchedulerSpec,
                               _bucket_table, _draw_tabulated, _filter_probs,
                               _sample_from_cdf, chromatic_classes,
                               local_metropolis, local_metropolis_round_batch,
                               luby_glauber, luby_glauber_round_batch, plan,
                               scheduled_set_batch)
from localgibbs.cli import _marginals_csv, _samples_jsonl, _write_csv
from localgibbs.graphs import Graph, cycle, path
from localgibbs.models import coloring, list_coloring, potts
from localgibbs.mrf import MrfInstance, ZeroMarginal
from localgibbs.randomness import (KIND_NODE_BETA, KIND_NODE_PROPOSAL,
                                   RandomTape, uniform_from_bits)


def _check_draw(cdf, u):
    # the kernel reads the cdf spin-major and counts in the narrowest
    # unsigned dtype that holds q - 1
    got = _sample_from_cdf(np.moveaxis(cdf, -1, 0), u)
    want = naive_draw(cdf, u)
    assert got.dtype == np.min_scalar_type(cdf.shape[-1] - 1)
    np.testing.assert_array_equal(got, want)
    return got


def test_draw_skips_zero_probability_spins():
    # spins 1 and 3 have zero mass: flat steps in the cdf
    cdf = np.array([[0.25, 0.25, 0.75, 0.75, 1.0]] * 6)
    u = np.array([0.0, 0.1, 0.25, 0.5, 0.75, 0.999])
    assert _check_draw(cdf, u).tolist() == [0, 0, 2, 2, 4, 4]


def test_draw_on_step_boundaries_and_zero():
    probs = np.array([0.125, 0.375, 0.25, 0.25])
    cdf = np.cumsum(probs)
    cdf[-1] = 1.0
    u = np.concatenate([[0.0], cdf[:-1]])
    # u exactly on a boundary moves on to the next spin
    assert _check_draw(np.broadcast_to(cdf, (4, 4)), u).tolist() == [0, 1, 2, 3]


def test_draw_when_cumsum_overshoots_before_last_entry():
    # rounding can carry the running sum past 1.0 before the last entry,
    # which is then forced back to exactly 1.0: the row is not monotone
    cdf = np.array([0.3, 0.7, 1.0000000000000002, 1.0])
    u = np.array([0.0, 0.3, 0.7, 0.9, np.nextafter(1.0, 0.0)])
    got = _check_draw(np.broadcast_to(cdf, (len(u), 4)), u)
    assert got.tolist() == [0, 1, 2, 2, 2]


@pytest.mark.parametrize("seed", range(3))
def test_draw_matches_reduction_on_random_rows(seed):
    rng = np.random.default_rng(seed)
    # 256, 257 and 300 straddle the draw's uint8 -> uint16 counter switch
    for q in (2, 3, 8, 137, 256, 257, 300):
        probs = rng.random((50, q)) * (rng.random((50, q)) < 0.7)
        probs[:, 0] += 1e-3
        cdf = np.cumsum(probs / probs.sum(axis=1, keepdims=True), axis=1)
        cdf[:, -1] = 1.0
        # draws on the boundaries themselves as well as in between
        u = np.where(rng.random(50) < 0.3,
                     cdf[np.arange(50), rng.integers(0, q, 50)],
                     rng.random(50))
        u = np.minimum(u, np.nextafter(1.0, 0.0))
        _check_draw(cdf, u)
        # the Metropolis proposal broadcasts one cdf per vertex over runs
        _check_draw(cdf[:7], rng.random((11, 7)))


def _check_table_draws(table):
    # per column: the first and last word of every bucket, and for each CDF
    # entry c the words k << 11 and (k - 1) << 11, k = ceil(c * 2**53),
    # where they are words (entries of 1.0 or above have no k below 2**53)
    shift = np.uint64(table.shift)
    first = np.arange(1 << (64 - table.shift), dtype=np.uint64) << shift
    ends = np.concatenate([first, first | ((np.uint64(1) << shift) - 1)])
    for r in range(table.cdf.shape[1]):
        cdf = table.cdf[:, r]
        k = np.ceil(cdf[:-1] * 2.0 ** 53)
        k = np.concatenate([k, k - 1])
        k = k[(k >= 0) & (k < 2.0 ** 53)].astype(np.uint64)
        words = np.concatenate([ends, k << np.uint64(11)])
        got = _draw_tabulated(table, np.full(len(words), r, np.intp), words)
        want = _sample_from_cdf(cdf[:, None], uniform_from_bits(words))
        assert got.dtype == np.uint8
        np.testing.assert_array_equal(got, want)


def _activity_rows(q, rows):
    # rows with zeros, trailing zeros among them (which put entries of
    # exactly 1.0 before the last), and a spin of mass below 2**-40, whose
    # entries share a bucket with their neighbours'
    b = np.random.default_rng(q).random((rows, q)) + 0.05
    b[1::3, q // 2:] = 0.0
    b[2::3, 1::2] = 0.0
    b[3::4, q // 2] = 2.0 ** -42
    return b


# (instance, bucket bits): every mask at q = 3 and q = 8, activity rows at
# q = 2, 8 and 256, a q = 256 row whose spin 255 holds most of the mass
# (its buckets share the split marker, 255), and 256 distinct rows
_TABLES = {
    "masks-q3": (lambda: coloring(cycle(5), 3), 8),
    "masks-q8": (lambda: coloring(cycle(5), 8), 8),
    "rows-q2": (lambda: MrfInstance(path(6), 2, np.ones((2, 2)),
                                    _activity_rows(2, 6)), 14),
    "rows-q8": (lambda: MrfInstance(path(12), 8, np.ones((8, 8)),
                                    _activity_rows(8, 12)), 12),
    "rows-q256": (lambda: MrfInstance(path(5), 256, np.ones((256, 256)),
                                      _activity_rows(256, 5)), 13),
    "last-spin-q256": (lambda: MrfInstance(
        path(2), 256, np.ones((256, 256)), np.r_[np.ones(255), 1e4]), 16),
    "rows-256": (lambda: MrfInstance(Graph(256, []), 4, np.ones((4, 4)),
                                     _activity_rows(4, 256)), 8),
}


@pytest.mark.parametrize("name", list(_TABLES))
def test_table_draws_match_the_comparison(name):
    make, bits = _TABLES[name]
    inst = make()
    masks = name.startswith("masks")
    tables = plan(luby_glauber() if masks else local_metropolis(), inst)
    table = tables.mask_table if masks else tables.b_table
    assert 64 - table.shift == bits
    # within the byte budget, and no larger than it needs to be
    assert table.spins.shape == (table.cdf.shape[1] << bits,)
    assert table.spins.nbytes <= 1 << 16 < 2 * table.spins.nbytes
    if not masks:
        np.testing.assert_array_equal(table.cdf[:, tables.b_row],
                                      tables.b_cdf.T)
    if name == "rows-q8":
        # entries of exactly 1.0 before the last, and distinct entries in
        # one bucket
        entries = table.cdf[:-1]
        assert (entries == 1.0).any()
        assert ((np.diff(entries, axis=0) > 0)
                & (np.diff(entries * 2.0 ** bits // 1, axis=0) == 0)).any()
    _check_table_draws(table)


def test_table_draws_match_the_comparison_on_hand_made_cdfs():
    # a running sum carried past 1.0 before the last entry and a NaN
    # entry, which the comparison never counts; an entry less than 2**-53
    # past a bucket's first uniform, which that first word does not reach,
    # and one on a word's uniform
    _check_table_draws(_bucket_table(np.array(
        [[0.3, 0.2, 0.25 + 2.0 ** -54], [0.7, np.nan, 0.5],
         [1.0000000000000002, 0.9, 0.5 + 2.0 ** -53], [1.0, 1.0, 1.0]])))


def test_more_than_256_distinct_rows_build_no_table():
    tables = plan(local_metropolis(), MrfInstance(
        Graph(257, []), 4, np.ones((4, 4)), _activity_rows(4, 257)))
    assert tables.b_table is None and tables.b_row is None
    # q > 256 builds none either
    assert plan(local_metropolis(), MrfInstance(
        path(2), 257, np.ones((257, 257)), np.ones(257))).b_table is None


class _BoundaryTape(RandomTape):
    """Proposal uniforms that sit exactly on an entry of each scheduled
    pair's reference CDF, computed by naive_conditional_cdf from the pair's
    row of x, or one ulp below it. A draw then moves when the kernel's
    entry is one ulp above the reference (on the entry) or below it (one
    ulp under); the entry and the side are chosen per (vertex, run, round)
    among the entries below 1, as a uniform is, and the entry is 0.0 when
    there are none (only spin 0 has mass).

    Proposal words, which the tabulated draw reads, sit on the same entry
    at word level: k << 11 with k = ceil(entry * 2**53), the first word
    whose uniform reaches the entry, or (k << 11) - 1, the last word below
    it. calls counts the proposal queries of each accessor."""

    def __init__(self, inst, x, runs):
        super().__init__(3)
        self.inst, self.x = inst, dict(zip(runs.tolist(), x.tolist()))
        self.A, self.b = inst.A.tolist(), inst.b.tolist()
        self.calls = {"node_words": 0, "node_uniforms": 0}

    def _entries(self, entities, runs, round_):
        """(entry, on it) per (vertex, run) pair."""
        for v, r in zip(np.asarray(entities).tolist(),
                        np.asarray(runs).tolist()):
            cdf = naive_conditional_cdf(self.inst.graph.edges, self.A,
                                        self.b, self.inst.q, v, self.x[r])
            below = [c for c in cdf if c < 1.0] or [0.0]
            i = (v + r + round_) % (2 * len(below))
            yield below[i // 2], i % 2 == 1

    def node_uniforms(self, kind, entities, round_, runs):
        self.calls["node_uniforms"] += 1
        return np.array([c if on else np.nextafter(c, 0.0)
                         for c, on in self._entries(entities, runs, round_)])

    def node_words(self, kind, entities, round_, runs):
        if kind != KIND_NODE_PROPOSAL:
            return super().node_words(kind, entities, round_, runs)
        self.calls["node_words"] += 1
        words = [max((math.ceil(c * 2.0 ** 53) << 11) - (not on), 0)
                 for c, on in self._entries(entities, runs, round_)]
        return np.array(words, dtype=np.uint64)


def _hub_and_tail_zero_one(q: int) -> MrfInstance:
    # 0/1 edge tables (so the round ANDs packed bits) with the wide
    # instance's vertex activities, spread over decades. Spin 0's row is
    # all ones, so no conditional is empty.
    wide = _hub_and_tail_wide(q)
    i, j = np.indices((q, q))
    edge = [((i + j + e) % 3 > 0) | (i * j == 0) for e in range(wide.graph.m)]
    return MrfInstance(wide.graph, q, edge, wide.b)


def _hub_and_tail_mask_table(q: int) -> MrfInstance:
    # the same edge tables with one vertex activity vector, spread over
    # decades: at q <= 8 the round draws from the per-mask CDF table
    inst = _hub_and_tail_zero_one(q)
    return MrfInstance(inst.graph, q, inst.A, inst.b[0])


@pytest.mark.parametrize("make, q", [
    *(pytest.param(_hub_and_tail_wide, q, id=f"{q}")
      for q in (3, 8, 9, 16, 137)),
    *(pytest.param(_hub_and_tail_zero_one, q, id=f"zero-one-{q}")
      for q in (3, 9, 137)),
    *(pytest.param(_hub_and_tail_mask_table, q, id=f"zero-one-{q}")
      for q in (2, 8))])
@pytest.mark.parametrize("variant, alone", [("luby", False),
                                            ("single-site", False),
                                            ("single-site", True)])
def test_resampling_draws_on_cdf_boundaries_match_loop(make, q, variant,
                                                       alone):
    inst = make(q)
    table = plan(luby_glauber(), inst).mask_table is not None
    assert table == (make is _hub_and_tail_mask_table)
    g, sched = inst.graph, SchedulerSpec(variant)
    A, b = inst.A.tolist(), inst.b.tolist()
    runs = np.arange(24, dtype=np.int64) + 5
    x = np.random.default_rng(q).integers(0, q, (len(runs), g.n))
    tape = _BoundaryTape(inst, x, runs)
    # the tabulated draw reads words, the comparison uniforms
    read = "node_words" if table else "node_uniforms"
    for t in (1, 2):
        tape.calls = dict.fromkeys(tape.calls, 0)
        if alone:
            # one single-site run per round: a single pair, whose
            # conditional is one (q, 1) column
            new_x = np.concatenate([
                luby_glauber_round_batch(inst, x[i:i + 1].T, sched, t, tape,
                                         runs[i:i + 1])[0].T
                for i in range(len(runs))])
        else:
            new_x = luby_glauber_round_batch(inst, x.T, sched, t, tape,
                                             runs)[0].T
        # the boundary cases reached the draw
        assert tape.calls == {**dict.fromkeys(tape.calls, 0),
                              read: len(runs) if alone else 1}
        sel = selection_rows(g, scheduled_set_batch(g, sched, t, tape, runs))
        for i, r in enumerate(runs):
            # naive_resample reads u only at the selected vertices
            vs = np.flatnonzero(sel[i])
            u = np.zeros(g.n)
            at = (KIND_NODE_PROPOSAL, vs, t, np.full(len(vs), r))
            u[vs] = uniform_from_bits(tape.node_words(*at)) if table \
                else tape.node_uniforms(*at)
            assert new_x[i].tolist() == naive_resample(
                g.edges, A, b, q, x[i].tolist(), sel[i].tolist(), u.tolist())


_LEVELS = st.sampled_from([0.0, 0.5, 1.0, 2.5])
# every edge activity 0 or 1: the Metropolis filter decides its edges
# without coins and the resampling round ANDs packed bits
_BITS = st.sampled_from([0.0, 1.0])


@st.composite
def _tiny_rounds(draw, edge_levels=_LEVELS, max_n=5, max_q=4,
                 shared_vertex=False):
    """A random tiny instance, batch and round: a multigraph on 1-max_n
    vertices (parallel edges and isolated vertices allowed), q in 2..max_q,
    symmetric edge activities from edge_levels and vertex activities, both
    with zeros, any scheduler, and 1-3 starts per run (k rows per run,
    run-major). With shared_vertex, most examples give every vertex one
    activity vector. Three examples in four have an anchor spin, positive
    in every vertex activity row and against every spin in every edge
    table, so that no conditional is empty."""
    # n >= 2 save about one example in eight: an n = 1 instance has no
    # edge, so it checks little beyond the activity rows
    n = 1 if draw(st.integers(0, 7)) == 3 else draw(st.integers(2, max_n))
    q = draw(st.integers(2, max_q))
    anchor = draw(st.integers(0, q - 1)) if draw(st.integers(0, 3)) else None
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
    # n > 1 draws an edge, so that the product and the filter are tested,
    # save about one example in eight, which keeps m = 0 with n > 1
    min_edges = int(n > 1 and draw(st.integers(0, 7)) < 7)
    edges = draw(st.lists(st.sampled_from(pairs), min_size=min_edges,
                          max_size=6)) if pairs else []
    edge = []
    for _ in edges:
        upper = iter(draw(st.lists(edge_levels, min_size=q * (q + 1) // 2,
                                   max_size=q * (q + 1) // 2).filter(any)))
        a = np.zeros((q, q))
        for i in range(q):
            for j in range(i, q):
                a[i, j] = a[j, i] = next(upper)
        if anchor is not None:
            zero = a[anchor] == 0
            a[anchor, zero] = a[zero, anchor] = 1.0
        edge.append(a)
    shared = shared_vertex and draw(st.integers(0, 3)) > 0
    vertex = [draw(st.lists(_LEVELS, min_size=q, max_size=q).filter(any))
              for _ in range(1 if shared else n)]
    if anchor is not None:
        for row in vertex:
            row[anchor] = row[anchor] or 1.0
    if shared:
        vertex = vertex[0]
    inst = MrfInstance(Graph(n, edges), q, edge, vertex)
    runs = np.array(draw(st.lists(st.integers(0, 999), min_size=1,
                                  max_size=4, unique=True)))
    rows = len(runs) * draw(st.integers(1, 3))
    x = np.array(draw(st.lists(st.lists(st.integers(0, q - 1), min_size=n,
                                        max_size=n),
                               min_size=rows, max_size=rows)))
    variant = draw(st.sampled_from(SCHEDULER_VARIANTS))
    sched = SchedulerSpec(variant, chromatic_classes(inst.graph)
                          if variant == "chromatic" else None)
    return inst, x, sched, draw(st.integers(1, 50)), runs


# A case with an empty conditional, which _tiny_rounds draws in few
# examples: under a proper coloring, vertex 0 of path(2) may take only spin
# 0, which its neighbour holds, and round 2 of the chromatic scheduler
# resamples it
_PATH2 = list_coloring(path(2), 2, [[0], [0, 1]])
DEAD_CASE = (_PATH2, np.zeros((1, 2), dtype=np.int64),
             SchedulerSpec("chromatic", chromatic_classes(_PATH2.graph)), 2,
             np.array([5]))

# budget: the two property tests below run 150 and 200 examples in about
# 4 s together, inside 5 s
_PROPERTY = settings(max_examples=200, deadline=None, derandomize=True,
                     database=None,
                     suppress_health_check=[HealthCheck.too_slow])


# every product path: the float rows, the packed 0/1 bits and, with one
# vertex activity vector, the per-mask CDF table
@settings(_PROPERTY, max_examples=150)
@given(st.one_of(_tiny_rounds(_BITS, shared_vertex=True), _tiny_rounds()))
@example(DEAD_CASE)
def test_resampling_round_matches_loop_on_tiny_instances(case):
    inst, x, sched, t, runs = case
    g, tape = inst.graph, RandomTape(17)
    k = len(x) // len(runs)
    sel = selection_rows(g, scheduled_set_batch(g, sched, t, tape, runs))
    if sched.variant == "luby":
        keys = tape.node_words(KIND_NODE_BETA, np.arange(g.n)[:, None], t,
                               runs)
        for i in range(len(runs)):
            assert sel[i].tolist() == naive_local_max(
                g.edges, g.n, [int(w) for w in keys[:, i]])
    A, b = inst.A.tolist(), inst.b.tolist()
    # scheduled pairs whose conditional has no mass, in any start
    dead = [(int(runs[row // k]), int(v)) for row in range(len(x))
            for v in np.flatnonzero(sel[row // k])
            if naive_marginal(g.edges, A, b, inst.q, v, x[row].tolist()) is None]
    if dead:
        with pytest.raises(ZeroMarginal) as err:
            luby_glauber_round_batch(inst, x.T, sched, t, tape, runs)
        assert (err.value.run, err.value.vertex, err.value.round) \
            == (*min(dead), t)
        return
    new_x = luby_glauber_round_batch(inst, x.T, sched, t, tape, runs)[0].T
    u = tape.node_uniforms(KIND_NODE_PROPOSAL, np.arange(g.n), t,
                           runs[:, None])
    for row in range(len(x)):
        assert new_x[row].tolist() == naive_resample(
            g.edges, A, b, inst.q, x[row].tolist(), sel[row // k].tolist(),
            u[row // k].tolist())


@_PROPERTY
@given(st.one_of(_tiny_rounds(), _tiny_rounds(_BITS)))
def test_metropolis_round_matches_loop_on_tiny_instances(case):
    # both filter paths: naive_metropolis reads the coins either way
    inst, x, _, t0, runs = case
    g, tape = inst.graph, RandomTape(17)
    k = len(x) // len(runs)
    A, b = inst.A.tolist(), inst.b.tolist()
    # a filter factor decides a vertex only when its coin falls between
    # the right and a wrong product, so each example runs four rounds
    for t in range(t0, t0 + 4):
        new_x = local_metropolis_round_batch(inst, x.T, t, tape, runs)[0].T
        u = tape.node_uniforms(KIND_NODE_PROPOSAL, np.arange(g.n), t,
                               runs[:, None])
        coins = tape.edge_uniforms(g.eu, g.ev, g.emult, t, runs[:, None])
        for row in range(len(x)):
            assert new_x[row].tolist() == naive_metropolis(
                g.edges, A, b, inst.q, x[row].tolist(), u[row // k].tolist(),
                coins[row // k].tolist())


# (graph, q, flat filter index dtype, spin dtype): m * q * q - 1 on each
# side of 255 and 65535, q on each side of 256, and no edges at all
_DTYPE_EDGES = {
    "c16-q4": (cycle(16), 4, np.uint8, np.uint8),
    "c17-q4": (cycle(17), 4, np.uint16, np.uint8),
    "c256-q16": (cycle(256), 16, np.uint16, np.uint8),
    "c257-q16": (cycle(257), 16, np.uint32, np.uint8),
    "p3-q256": (path(3), 256, np.uint32, np.uint8),
    "p3-q257": (path(3), 257, np.uint32, np.uint16),
    "edgeless-q3": (Graph(3, []), 3, np.uint8, np.uint8),
    "edgeless-q257": (Graph(3, []), 257, np.uint16, np.uint16),
}


def _per_edge(g, q, level):
    # symmetric tables that differ from edge to edge, so that a flat index
    # whose edge offset wrapped would read another edge's table
    i, j = np.indices((q, q))
    return MrfInstance(g, q, [level(i + j + e, i * j) for e in range(g.m)],
                       np.ones(q))


def _shared(g, q):
    # one table for every edge, with many distinct non-dyadic entries: the
    # three-factor product's last bit depends on the order of its factors
    i, j = np.indices((q, q))
    edge = 0.13 + 0.71 * np.sin(i + j + 1) ** 2 / (1 + i * j)
    return MrfInstance(g, q, edge, np.ones(q))


_FILTER_MODELS = {
    "coloring": lambda g, q: coloring(g, q),
    "potts": lambda g, q: potts(g, q, 1.7),
    "zero-one-per-edge": lambda g, q: _per_edge(
        g, q, lambda s, p: (s % 3 > 0) | (p == 0)),
    "fractional-per-edge": lambda g, q: _per_edge(
        g, q, lambda s, p: 0.5 + (s % 5) * 0.35),
    "fractional-shared": _shared,
}


class _BoundaryCoins(RandomTape):
    """Edge coins that sit exactly on the pass probability that
    naive_pass_probability gives on the first row of each run's k rows
    (rows, the batch row by row, set before each round), or one ulp below
    it. The coin then decides the edge by the last bit of the kernel's
    product: on it, a product one ulp above the reference passes where the
    reference fails; below it, one ulp under fails where it passes. The
    side is chosen per (edge, run, round); a probability of 1 takes the
    largest uniform, below 1, on either side."""

    def __init__(self, inst, runs, k):
        super().__init__(23)
        self.inst, self.runs, self.k = inst, runs.tolist(), k
        self.A, self.b = inst.A.tolist(), inst.b.tolist()
        self.edge = {(u, v, c): e for e, (u, v, c) in enumerate(zip(
            inst.graph.eu.tolist(), inst.graph.ev.tolist(),
            inst.graph.emult.tolist()))}

    def _sigma(self, round_, run):
        """The run's proposals, as naive_metropolis draws them."""
        u = self.node_uniforms(KIND_NODE_PROPOSAL, np.arange(self.inst.n),
                               round_, run).tolist()
        return [sum(c <= u[v] for c in naive_proposal_cdf(b))
                for v, b in enumerate(self.b)]

    def edge_uniforms(self, eu, ev, emult, round_, runs):
        g = self.inst.graph
        sigma = {r: self._sigma(round_, r) for r in self.runs}
        out = []
        for u, v, c, r in np.broadcast(eu, ev, emult, runs):
            e, run = self.edge[int(u), int(v), int(c)], int(r)
            x = self.rows[self.runs.index(run) * self.k]
            p = naive_pass_probability(*g.edges[e], self.A[e], x, sigma[run])
            on = (e + run + round_) % 2
            out.append(min(p, np.nextafter(1.0, 0.0)) if on
                       else np.nextafter(p, 0.0))
        return np.reshape(out, np.broadcast(eu, ev, emult, runs).shape)


@pytest.mark.parametrize("k", [1, 3])
@pytest.mark.parametrize("model", list(_FILTER_MODELS))
@pytest.mark.parametrize("name", list(_DTYPE_EDGES))
def test_metropolis_round_matches_loop_across_index_dtypes(name, model, k):
    g, q, index_dtype, spin_dtype = _DTYPE_EDGES[name]
    # the instance sits where it is meant to, on either side of a switch
    assert np.min_scalar_type(max(g.m * q * q - 1, q)) == index_dtype
    assert np.min_scalar_type(q - 1) == spin_dtype
    inst = _FILTER_MODELS[model](g, q)
    # the fractional tables take the coin path wherever there is an edge
    assert (plan(local_metropolis(), inst).A_pass is None) \
        == (model.startswith(("potts", "fractional")) and g.m > 0)
    A, b = inst.A.tolist(), inst.b.tolist()
    runs = np.array([4, 9])
    tape = _BoundaryCoins(inst, runs, k)
    x = np.random.default_rng(q).integers(0, q, (len(runs) * k, g.n))
    x[:, 0] = q - 1  # the widest spin is present
    for t in (1, 2, 3):
        tape.rows = x.tolist()
        new_x = local_metropolis_round_batch(inst, x.T, t, tape, runs)[0].T
        u = tape.node_uniforms(KIND_NODE_PROPOSAL, np.arange(g.n), t,
                               runs[:, None])
        coins = tape.edge_uniforms(g.eu, g.ev, g.emult, t, runs[:, None])
        for row in range(len(x)):
            assert new_x[row].tolist() == naive_metropolis(
                g.edges, A, b, q, x[row].tolist(), u[row // k].tolist(),
                coins[row // k].tolist())
        x = new_x


def test_filter_probs_match_fancy_lookups():
    inst = _multigraph_instance()
    g, A = inst.graph, plan(local_metropolis(), inst).A_norm
    rng = np.random.default_rng(5)
    sigma = rng.integers(0, inst.q, (64, inst.n))
    x = rng.integers(0, inst.q, (64, inst.n))
    e = np.arange(g.m)
    su, sv, xu, xv = sigma[:, g.eu], sigma[:, g.ev], x[:, g.eu], x[:, g.ev]
    want = A[e, su, sv] * A[e, xu, sv] * A[e, su, xv]
    assert _filter_probs(inst, sigma, x).tobytes() == want.tobytes()


def _json_reference(runs, x):
    return "".join(json.dumps({"run": r, "spins": col.tolist()},
                              sort_keys=True, separators=(",", ":")) + "\n"
                   for r, col in zip(runs.tolist(), x.T)).encode("utf-8")


@pytest.mark.parametrize("q", [2, 10, 11, 100, 101, 137, 257])
@pytest.mark.parametrize("shape", [(9, 23), (9, 1), (1, 12), (1, 1)])
@pytest.mark.parametrize("first_run", [0, 95, 9990])
def test_samples_jsonl_matches_json_dumps(q, shape, first_run):
    # the carried (n, rows) batch in its narrow dtype, uint16 for q = 257
    rng = np.random.default_rng(q)
    x = rng.integers(0, q, shape).astype(np.min_scalar_type(q - 1))
    x[0, 0] = q - 1  # the widest token is present
    # a chunk's global run ids, not its row numbers; 23 rows from 95 or
    # 9990 cross a digit boundary (95..117, 9990..10012)
    runs = np.arange(shape[1]) + first_run
    assert _samples_jsonl(runs, x, q) == _json_reference(runs, x)


@pytest.mark.parametrize("n_runs", [1, 7, 512])
@pytest.mark.parametrize("shape", [(9, 3), (1, 2), (4, 137)])
def test_marginals_csv_matches_write_csv(tmp_path, shape, n_runs):
    counts = np.random.default_rng(n_runs).integers(0, n_runs + 1, shape)
    counts[0, 0] = n_runs  # a frequency of exactly 1.0 is present
    rows = [(v, s, c / n_runs) for v, row in enumerate(counts.tolist())
            for s, c in enumerate(row)]
    _write_csv(tmp_path / "want.csv", ("vertex", "spin", "frequency"), rows)
    want = (tmp_path / "want.csv").read_text(encoding="utf-8")
    assert _marginals_csv(counts, n_runs) == want

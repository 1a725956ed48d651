"""Round functions for the parallel samplers and the sequential baseline.

Two chain kinds share one state representation (a batch of configurations,
vertex-major: shape (n, rows), with k = rows // len(runs) columns per run,
run-major) and one randomness contract (every variate addressed by (kind,
entity, round, run) through the tape, so a run's k rows share it and a
round computes it once per run):

* independent-set resampling: a scheduler picks a non-adjacent vertex set
  each round and the selected vertices redraw their spins from their
  single-site conditionals, simultaneously; the sequential baseline is
  this chain with the single-site scheduler (one uniformly random vertex
  per round);
* parallel Metropolis: every vertex proposes from its activity vector,
  every edge tosses one shared coin against a three-factor acceptance
  probability on normalized activities, and a vertex commits its proposal
  only when all incident edges passed.

The instance is the model alone (A and b); the tables a round reads are
its chain's plan (plan()), built once per job and shared read-only by
every chunk and thread. On 0/1 edge tables a Metropolis coin cannot
change its edge's outcome and is not hashed, and a resampling
conditional is the vertex activity times a byte mask of slot bits,
bitwise a product of 1.0 and 0.0 factors.

Every neighbourhood reduction (the local-maximum test, the product of a
selected vertex's slot matrices, the AND of a vertex's edge passes) walks
the graph's rank-major slot table: one gather and one elementwise step per
adjacency rank, each over a prefix of the vertices sorted by degree. Rank
r's slot of the vertex at by_degree position i is rank_ptr[r] + i, in the
graph's rank tables and in the plan's slot tables alike.

Each round states the layout of its tape variates in the shapes of the
addresses it passes (RandomTape broadcasts them like randomness.fold):
by_degree[:, None] against the runs for the vertex-major score words, the
1-D (vertex, run) pair arrays for the resampling proposals, and edge
columns against the runs for the edge-major Metropolis coins.

Every layout is chosen so that each step is a contiguous row operation:

* the batch: row v holds vertex v's spins, so an endpoint or neighbour
  gather moves whole rows and a (vertex, row) pair is flat position
  vertex * rows + row;
* vertex-major selection: score words, selections and scheduled sets are
  (n, len(runs)), row i for vertex by_degree[i], so a rank's step is a
  prefix of whole rows, and its flat indices, split by len(runs), are the
  (position, run) pairs in the by_degree order the conditional product
  needs; each pair then expands to its run's k rows;
* spin-major conditionals: the per-pair conditionals are (q, pairs), one
  contiguous row per spin; the denominator and running sum add whole rows
  in spin order (mrf.spin_major_cdf, which also sums the Metropolis
  proposal CDFs), and the draw compares whole rows;
* edge-major filter: the Metropolis filter is (m, rows). Where every edge
  shares one table, each (proposal, spin) pair of the batch is first one
  (n, rows) code, and an edge's decision is one lookup in the plan's joint
  table at its endpoints' codes.

CDFs known before the round (the Metropolis proposals, and the per-mask
conditionals where the plan has them) are drawn through bucket tables
(CdfTable); every other draw counts, spin by spin, the CDF entries at or
below the proposal uniform.

All round functions are pure maps from the previous round's snapshot to the
next; a vertex's update reads its own streams, its neighbors' previous
spins, and the shared coins of its incident edges, nothing else.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .graphs import Graph
from .mrf import MrfInstance, ZeroMarginal, _sample_from_cdf, spin_major_cdf
from .randomness import (KIND_NODE_BETA, KIND_NODE_PROPOSAL, RandomTape,
                         uniform_from_bits)

SCHEDULER_VARIANTS = ("luby", "chromatic", "single-site")
_CHAIN_KINDS = ("luby_glauber", "local_metropolis")


@dataclass(frozen=True)
class SchedulerSpec:
    """Which independent set gets resampled each round.

    luby: local-maximum rule on per-round i.i.d. scores, expected set size
        about n/(max degree + 1).
    chromatic: fixed color classes taken round-robin; round t updates class
        t mod k, so one sweep of k rounds touches every vertex exactly once.
    single-site: one uniformly random vertex per round.
    """

    variant: str
    color_classes: tuple[tuple[int, ...], ...] | None = None

    def __post_init__(self):
        if self.variant not in SCHEDULER_VARIANTS:
            raise ValueError(f"unknown scheduler variant {self.variant!r}")
        if (self.variant == "chromatic") != (self.color_classes is not None):
            raise ValueError("color_classes required for chromatic, forbidden otherwise")


@dataclass(frozen=True)
class ChainSpec:
    kind: str
    scheduler: SchedulerSpec | None = None

    def __post_init__(self):
        if self.kind not in _CHAIN_KINDS:
            raise ValueError(f"unknown chain kind {self.kind!r}")
        if self.kind == "luby_glauber":
            if self.scheduler is None:
                object.__setattr__(self, "scheduler", SchedulerSpec("luby"))
        elif self.scheduler is not None:
            raise ValueError(f"{self.kind} takes no scheduler")


def luby_glauber(scheduler: SchedulerSpec | None = None) -> ChainSpec:
    return ChainSpec("luby_glauber", scheduler)


def local_metropolis() -> ChainSpec:
    return ChainSpec("local_metropolis")


def sequential_glauber() -> ChainSpec:
    return luby_glauber(SchedulerSpec("single-site"))


def chromatic_classes(graph: Graph) -> tuple[tuple[int, ...], ...]:
    """Greedy proper-coloring classes in vertex order, for the chromatic scheduler."""
    ptr, nbr = graph.nbr_ptr.tolist(), graph.nbr_flat.tolist()
    color = [-1] * graph.n
    classes: list[list[int]] = []
    for v in range(graph.n):
        used = {color[u] for u in nbr[ptr[v]:ptr[v + 1]]}
        c = 0
        while c in used:
            c += 1
        color[v] = c
        if c == len(classes):
            classes.append([])
        classes[c].append(v)
    return tuple(map(tuple, classes))


class CdfTable(NamedTuple):
    """Spin-major CDFs with a bucket table ("indexed search", Chen and
    Asau 1974) that draws from them by the top bits of a raw tape word.

    cdf is (q, R), one CDF per column, last row 1.0. A word w's bucket is
    w >> shift, its top 64 - shift bits, and spins[(r << (64 - shift)) +
    bucket] is the spin that _sample_from_cdf(cdf[:, r],
    uniform_from_bits(w)) gives for every word in that bucket, or SPLIT
    when the bucket's first and last words give different spins. The count
    is monotone in the word, so the two ends decide the bucket. SPLIT is
    also spin 255, which only q = 256 can take: such buckets are drawn
    through the comparison as well, so every uint8 spin stays exact.
    """

    cdf: np.ndarray
    spins: np.ndarray
    shift: int


SPLIT = 0xFF
# bytes of one bucket table: R rows of 2**bits buckets each
_TABLE_BYTES = 1 << 16


def _bucket_table(cdf: np.ndarray) -> CdfTable | None:
    """The CdfTable of the (q, R) spin-major cdf, with the largest power of
    two buckets per row that keeps it within _TABLE_BYTES; None when that
    is fewer than 2**8 (more than 256 rows) or q > 256.

    uniform_from_bits(w) is (w >> 11) * 2**-53, so cdf[c] <= it exactly
    when k = ceil(cdf[c] * 2**53) <= w >> 11: the scaling is exact, and an
    entry of 1.0 or above, or NaN, never counts. A bucket covers w >> 11
    from j * D to (j + 1) * D - 1, D = 2**(53 - bits), so entry c counts
    on all of bucket j from j = ceil(k / D) on, and on part of bucket
    k // D when D does not divide k: that bucket is split.
    """
    rows = cdf.shape[1]
    bits = (_TABLE_BYTES // rows).bit_length() - 1
    if bits < 8 or len(cdf) > 256:
        return None
    k = np.fmin(np.ceil(cdf[:-1] * 2.0 ** 53), 2.0 ** 53).astype(np.int64)
    head, part = np.divmod(k, 1 << (53 - bits))
    # each entry counted from bucket k // D on, which is then marked SPLIT
    # where the entry splits it
    starts = np.zeros((rows, (1 << bits) + 1), np.uint8)
    np.add.at(starts, (np.arange(rows), head), 1)
    spins = np.cumsum(starts[:, :-1], axis=1, dtype=np.uint8)
    split = part > 0
    spins[np.nonzero(split)[1], head[split]] = SPLIT
    return CdfTable(cdf, spins.reshape(-1), 64 - bits)


class LubyPlan(NamedTuple):
    """The tables a resampling round reads, under any scheduler.

    slot_table: (q, F * q), the edge matrices at the F adjacency slots in
        rank-major order (graph.rank_edge), spin-major: entry
        [c, slot * q + j] is A_e(c, j) for the slot's edge e. None on 0/1
        tables.
    slot_bits: on 0/1 tables, A > 0 in that layout packed along the spins,
        (ceil(q / 8), F * q) uint8 with spin c at bit c % 8 of byte row
        c // 8; else None.
    mask_table: when slot_bits is one byte row (q <= 8) and every row of b
        is equal, the CdfTable whose column m is the CDF of b[0] times the
        bits of AND mask m, bits q and up ignored; else None.
    mask_dead: with mask_table, the (256,) masks whose conditional has no
        mass; else None.
    """

    slot_table: np.ndarray | None
    slot_bits: np.ndarray | None
    mask_table: CdfTable | None
    mask_dead: np.ndarray | None


class MetropolisPlan(NamedTuple):
    """The tables a parallel Metropolis round reads.

    A_norm: A scaled to maximum entry 1 per edge (A itself where every
        edge peaks at 1), the filter's pass probabilities.
    A_pass: A > 0 on 0/1 tables, where an edge passes exactly when its
        factors are all 1; else None.
    b_cdf: (n, q), the proposal CDFs of the rows of b (spin_major_cdf).
    b_table: the CdfTable of the distinct rows of b_cdf; None past 256 of
        them or q > 256.
    b_row: with b_table, each vertex's column in it, (n,) intp; else None.
    joint: when every edge has the same table f (A_pass, else A_norm) and
        q**4 entries of it fit _TABLE_BYTES, the (q**4,) table of whole
        edge decisions over the endpoint codes c = sigma * q + x (proposal,
        current spin): entry c_u * q**2 + c_v is (f[su, sv] * f[xu, sv]) *
        f[su, xv], the AND of the three passes on A_pass; else None.
    """

    A_norm: np.ndarray
    A_pass: np.ndarray | None
    b_cdf: np.ndarray
    b_table: CdfTable | None
    b_row: np.ndarray | None
    joint: np.ndarray | None


def _read_only(tables):
    """tables, after marking every array in them read-only."""
    for field in tables:
        for a in field if isinstance(field, CdfTable) else (field,):
            if isinstance(a, np.ndarray):
                a.setflags(write=False)
    return tables


def plan(chain: ChainSpec, inst: MrfInstance) -> LubyPlan | MetropolisPlan:
    """The read-only tables chain's round reads on inst, and no others.
    engine.run_chunked builds one per job; every chunk and thread shares
    it."""
    q, A, b = inst.q, inst.A, inst.b
    # exact: any fractional entry keeps the float slots and the coins
    zero_one = np.all((A == 0) | (A == 1))
    if chain.kind == "local_metropolis":
        top = A.max(axis=(1, 2), keepdims=True)
        # x / 1.0 == x: no copy where every edge already peaks at 1
        a_norm = A if np.all(top == 1) else A / top
        cdf = b.T.copy()  # no column is dead: no b row is all zero
        spin_major_cdf(cdf)
        b_cdf = cdf.T.copy()
        # one table row per distinct CDF: each column's arithmetic is its own
        rows, col = np.unique(b_cdf, axis=0, return_inverse=True)
        b_table = _bucket_table(np.ascontiguousarray(rows.T))
        a_pass = A > 0 if zero_one else None
        f = a_norm if a_pass is None else a_pass
        joint = None
        if len(f) and q ** 4 * f.itemsize <= _TABLE_BYTES \
                and np.all(f == f[0]):
            # axes (su, xu, sv, xv), multiplied in _filter_factors's order
            e = f[0]
            joint = ((e[:, None, :, None] * e[None, :, :, None])
                     * e[:, None, None, :]).reshape(-1)
        return _read_only(MetropolisPlan(
            a_norm, a_pass, b_cdf, b_table,
            None if b_table is None else col.reshape(-1), joint))
    # the matrices are symmetric, so the rows of A[rank_edge] stacked into
    # columns are the matrices themselves
    slots = (A > 0 if zero_one else A)[inst.graph.rank_edge].reshape(-1, q).T
    if not zero_one:
        return _read_only(LubyPlan(np.ascontiguousarray(slots), None, None,
                                   None))
    # one byte of bits and one activity vector: a conditional depends on
    # its mask alone, so all 256 are tabulated once
    mask_table = mask_dead = None
    if q <= 8 and np.all(b == b[0]):
        cdf = b[0][:, None] * ((np.arange(256) >> np.arange(q)[:, None]) & 1)
        mask_dead = spin_major_cdf(cdf)
        mask_table = _bucket_table(cdf)
    bits = np.packbits(slots, axis=0, bitorder="little")
    return _read_only(LubyPlan(None, bits, mask_table, mask_dead))


def _draw_tabulated(table: CdfTable, cols: np.ndarray,
                    words: np.ndarray) -> np.ndarray:
    """_sample_from_cdf(table.cdf[:, cols], uniform_from_bits(words)),
    read from the bucket table: uint8 spins of words' shape.

    cols (intp, broadcast against words) names each word's CDF column; a
    one-column table ignores it. The bucket index is below 2**16, so the
    shifted words are read as intp in place. Only the words whose bucket
    is SPLIT go through the comparison.
    """
    idx = np.right_shift(words, table.shift).view(np.intp)
    if table.cdf.shape[1] > 1:
        idx += np.left_shift(cols, 64 - table.shift)
    spins = np.take(table.spins, idx)
    fix = np.flatnonzero(spins == SPLIT)
    if len(fix):
        at = np.unravel_index(fix, words.shape)
        spins.reshape(-1)[fix] = _sample_from_cdf(
            np.take(table.cdf, np.broadcast_to(cols, words.shape)[at], 1),
            uniform_from_bits(words[at]))
    return spins


def _local_max_rows(graph: Graph, keys: np.ndarray) -> np.ndarray:
    """The local-maximum rule in the vertex-major layout.

    keys is (n, R): row i holds the score words of vertex by_degree[i]. The
    result is the (n, R) indicator array in the same layout. Rank k's
    neighbors are gathered as whole rows (rank 0 straight into the running
    maximum) and folded into the prefix of rows of the vertices with a
    k-th slot; rows past rank 0's prefix, isolated vertices, stay 0. Rank
    0's gather reads internal, in-range positions in np.take's "clip"
    mode, since the checked mode copies out before writing it.
    """
    g = graph
    ptr = g.rank_ptr.tolist()
    spans = list(zip(ptr[:-1], ptr[1:]))
    nbr_pos = np.take(g.degree_pos, g.rank_nbr)
    nbr_max = np.empty_like(keys)
    nbr_max[ptr[1] if spans else 0:] = 0
    for rank, (lo, hi) in enumerate(spans):
        head = nbr_max[:hi - lo]
        if rank:
            np.maximum(head, np.take(keys, nbr_pos[lo:hi], 0), out=head)
        else:
            np.take(keys, nbr_pos[lo:hi], 0, head, "clip")
    sel = keys > nbr_max
    ties = keys == nbr_max
    if ties.any():
        # the largest id among the neighbors that reach the maximum
        top_id = np.full(keys.shape, -1, dtype=np.int64)
        for lo, hi in spans:
            head = top_id[:hi - lo]
            tied = np.take(keys, nbr_pos[lo:hi], 0) == nbr_max[:hi - lo]
            np.maximum(head, np.where(tied, g.rank_nbr[lo:hi, None], -1),
                       out=head)
        sel |= ties & (g.by_degree[:, None] > top_id)
    return sel


def local_max_select(graph: Graph, keys: np.ndarray) -> np.ndarray:
    """Rows of score words -> rows of local-maximum indicators.

    keys and the result are (rows, n) in vertex order. v is selected when
    its 64-bit score word beats every neighbor's, comparing (score, vertex
    id) lexicographically so exact ties resolve against the smaller id. Each
    row is an independent set by construction; an isolated vertex is always
    selected.
    """
    g = graph
    sel = _local_max_rows(g, np.take(keys, g.by_degree, 1).T.copy())
    return np.take(sel, g.degree_pos, 0).T


def _score_words(graph: Graph, round_: int, tape: RandomTape,
                 runs: np.ndarray) -> np.ndarray:
    """The round's (n, len(runs)) score words, vertex-major."""
    return tape.node_words(KIND_NODE_BETA, graph.by_degree[:, None], round_,
                           runs)


def luby_select_batch(graph: Graph, round_: int, tape: RandomTape,
                      runs: np.ndarray) -> np.ndarray:
    """Local-maximum selection for one round, vertex-major: shape
    (n, len(runs)) boolean, row i for vertex by_degree[i]."""
    return _local_max_rows(graph, _score_words(graph, round_, tape, runs))


def single_site_select_batch(graph: Graph, round_: int, tape: RandomTape,
                             runs: np.ndarray) -> np.ndarray:
    """One uniformly random vertex per run, as a vertex-major one-hot
    (n, len(runs)) boolean array, row i for vertex by_degree[i].

    Uses the global maximum of the same score words the local rule compares:
    with i.i.d. scores the argmax is uniform, and reusing the stream keeps
    the scheduler family on one randomness footprint.
    """
    keys = _score_words(graph, round_, tape, runs)
    is_top = keys == keys.max(axis=0)
    # highest vertex id among maxima, consistent with the local tie rule
    pick = np.where(is_top, graph.by_degree[:, None], -1).argmax(axis=0)
    sel = np.zeros(keys.shape, dtype=bool)
    sel[pick, np.arange(sel.shape[1])] = True
    return sel


def scheduled_set_batch(graph: Graph, scheduler: SchedulerSpec, round_: int,
                        tape: RandomTape, runs: np.ndarray) -> np.ndarray:
    """The round's independent sets, vertex-major: (n, len(runs)) boolean,
    row i for vertex by_degree[i], column j for run runs[j]."""
    if scheduler.variant == "luby":
        return luby_select_batch(graph, round_, tape, runs)
    if scheduler.variant == "single-site":
        return single_site_select_batch(graph, round_, tape, runs)
    classes = scheduler.color_classes
    members = np.zeros(graph.n, dtype=bool)
    members[graph.degree_pos[list(classes[round_ % len(classes)])]] = True
    return np.broadcast_to(members[:, None], (graph.n, len(runs))).copy()


def luby_glauber_round_batch(inst: MrfInstance, x: np.ndarray,
                             scheduler: SchedulerSpec, round_: int,
                             tape: RandomTape, runs: np.ndarray,
                             tables: LubyPlan | None = None):
    """One independent-set resampling round: x and tables as for
    round_function's bound function (tables built here when None). The
    selection and the proposal words read only the tape, so they are
    computed once per run, the words for the scheduled (vertex, run) pairs
    alone, and each pair is then expanded to the run's k rows.

    The pairs come from the selection's flat indices, in by_degree order,
    so the pairs whose vertex has a given adjacency rank form a prefix;
    per rank, the slot product is one flat gather from each row of
    tables.slot_table (slot_bits on 0/1 tables, ANDed) and one multiply.
    A pair at by_degree position i reads rank r's slot rank_ptr[r] + i, at
    offset slot * q plus the spin of its neighbour graph.rank_nbr[slot],
    flat position nbr * rows + row of x. Each pair's arithmetic is that of
    a loop over its spins, whatever the number of pairs in the round.

    When tables.mask_table is set, the pair's byte mask is the key:
    tables.mask_dead[key] marks the empty conditionals and the draw reads
    the mask's column of the bucket table, whose columns are the arithmetic
    above on each mask, so no numerator, denominator or CDF is built.

    Raises:
        ZeroMarginal: a scheduled vertex has a zero-mass conditional; the
            smallest such (run, vertex) pair is named.
    """
    g, q = inst.graph, inst.q
    rows = x.shape[1]
    n_runs = len(runs)
    k = rows // n_runs
    if tables is None:
        tables = plan(luby_glauber(scheduler), inst)
    flat = np.flatnonzero(scheduled_set_batch(g, scheduler, round_, tape, runs))
    # pairs whose vertex has degree > rank: those at a by_degree position
    # below that rank's vertex count c, i.e. at a flat index below
    # c * len(runs); k rows each
    heads = (np.searchsorted(flat, np.diff(g.rank_ptr) * n_runs) * k).tolist()
    pos, ru = np.divmod(flat, n_runs)
    vu = np.take(g.by_degree, pos)
    ri, vi, pi = ru, vu, pos
    if k > 1:
        # each pair's k rows, in the vertex-major order np.nonzero would
        # give on a selection with every run repeated k times
        ri = (ru[:, None] * k + np.arange(k)).ravel()
        vi = np.repeat(vu, k)
        pi = np.repeat(pos, k)
    xf = np.ravel(x)
    # 0/1 tables: AND one byte row per 8 spins instead of multiplying q rows
    packed = tables.slot_bits is not None
    table = tables.slot_bits if packed else tables.slot_table
    fold = np.bitwise_and if packed else np.multiply
    prod = np.empty((len(table), len(vi)), table.dtype)
    # isolated vertices' pairs, past every rank's prefix: the empty product
    prod[:, heads[0] if heads else 0:] = 0xFF if packed else 1.0
    for rank, p in enumerate(heads):
        # rank r's slot of the vertex at by_degree position i
        slot = pi[:p] + g.rank_ptr[rank]
        at = np.take(g.rank_nbr, slot)
        at *= rows
        at += ri[:p]
        col = slot * q
        col += np.take(xf, at)
        # one flat gather per table row runs faster than one along axis 1
        for c, row in enumerate(table):
            if rank:
                fold(prod[c, :p], np.take(row, col), out=prod[c, :p])
            else:
                np.take(row, col, out=prod[c, :p])
    if tables.mask_table is not None:
        # one byte row and one activity vector: the mask keys the tables
        key = prod[0].astype(np.intp)
        dead = np.take(tables.mask_dead, key)
    else:
        if packed:
            # spin c's factor is bit c % 8 of byte row c // 8, as 0 or 1
            prod = np.unpackbits(prod, axis=0, count=q, bitorder="little")
        # prod becomes the numerator, then, in place, the CDF
        num = np.take(inst.b.T, vi, 1)
        prod = np.multiply(num, prod, out=num)
        dead = spin_major_cdf(prod)
    if dead.any():
        run = runs[ri // k]
        i = np.flatnonzero(dead)[np.lexsort((vi[dead], run[dead]))[0]]
        raise ZeroMarginal(int(vi[i]), run=int(run[i]), round=round_)
    # hashed last, so that the words are not held through the product
    if tables.mask_table is None:
        u = tape.node_uniforms(KIND_NODE_PROPOSAL, vu, round_, runs[ru])
        draw = _sample_from_cdf(prod, u if k == 1 else np.repeat(u, k))
    else:
        words = tape.node_words(KIND_NODE_PROPOSAL, vu, round_, runs[ru])
        draw = _draw_tabulated(tables.mask_table, key,
                               words if k == 1 else np.repeat(words, k))
    new_x = x.copy()
    vi *= rows
    vi += ri
    new_x.reshape(-1)[vi] = draw
    return new_x, None


def sequential_glauber_round_batch(inst: MrfInstance, x: np.ndarray,
                                   round_: int, tape: RandomTape,
                                   runs: np.ndarray):
    """The single-site resampling round. round_function runs this round
    through luby_glauber_round_batch directly, so a traced round is one
    span; this name stays because bench/spans.py lists it in ROUND_SPANS."""
    return luby_glauber_round_batch(inst, x, SchedulerSpec("single-site"),
                                    round_, tape, runs)


def _joint_factors(inst: MrfInstance, joint: np.ndarray, sigma: np.ndarray,
                   x: np.ndarray) -> np.ndarray:
    """_filter_factors read from a plan's joint table: one code per vertex,
    sigma * q + x in the narrowest unsigned dtype that holds q**4 - 1, then
    per edge one gather per endpoint and one lookup at c_u * q**2 + c_v."""
    g, q = inst.graph, inst.q
    code = sigma.astype(np.min_scalar_type(q ** 4 - 1))
    code *= q
    code += x
    cu = np.take(code, g.eu, 0)
    cu *= q * q
    cu += np.take(code, g.ev, 0)
    return np.take(joint, cu)


def _filter_factors(inst: MrfInstance, table: np.ndarray, sigma: np.ndarray,
                    x: np.ndarray) -> np.ndarray:
    """Per-edge product of the Metropolis filter's three factors, edge-major:
    (m, rows) from the (n, rows) spins sigma (proposals) and x (current).
    A round reads it where its plan has no joint table: per-edge tables, an
    edgeless graph, or q too large for the joint table.

    The factors, gathered from table (A_norm or A_pass, flattened), are
    both proposals, then each proposal against the other endpoint's
    current spin; each edge's endpoints are whole-row gathers. Entry
    (e, a, c) is read at flat position e*q*q + a*q + c, which np.take
    serves several times faster than table[arange(m), a, c]; the positions
    are built in the narrowest unsigned dtype that holds every one of them
    and q itself. On the boolean A_pass the product is the AND of the
    three passes.
    """
    g, q = inst.graph, inst.q
    # q too, so that an edgeless graph with q > 255 can still scale by q
    idx = np.min_scalar_type(max(g.m * q * q - 1, q))
    e_off = (np.arange(g.m) * (q * q)).astype(idx)[:, None]
    su = np.take(sigma, g.eu, 0).astype(idx)
    su *= q
    su += e_off
    xu = np.take(x, g.eu, 0).astype(idx)
    xu *= q
    xu += e_off
    sv, xv = np.take(sigma, g.ev, 0), np.take(x, g.ev, 0)
    pe = np.take(table, su + sv)
    xu += sv
    pe *= np.take(table, xu)
    su += xv
    pe *= np.take(table, su)
    return pe


def local_metropolis_round_batch(inst: MrfInstance, x: np.ndarray,
                                 round_: int, tape: RandomTape,
                                 runs: np.ndarray,
                                 tables: MetropolisPlan | None = None):
    """One parallel Metropolis round: x and tables as for
    round_function's bound function (tables built here when None).

    Every endpoint gather and the acceptance AND move whole rows of spins
    in the narrowest unsigned dtype for q (x is cast to it when wider).
    The proposals and the edge coins read only the tape, so they are drawn
    once per run: the (n, runs) proposal words through tables.b_table where
    there is one (else by the comparison on their uniforms), each run's
    column repeated over its k rows, and the (m, runs) coins against the
    (m, runs, k) filter probabilities: one lookup per edge in tables.joint
    where there is one (_joint_factors), else three (_filter_factors).
    Where tables.A_pass is set, the edge passes exactly when its three
    factors are 1 and no coin is hashed.
    """
    g = inst.graph
    n_runs = len(runs)
    k = x.shape[1] // n_runs
    if tables is None:
        tables = plan(local_metropolis(), inst)
    words = tape.node_words(KIND_NODE_PROPOSAL, np.arange(inst.n)[:, None],
                            round_, runs)
    if tables.b_table is None:
        # u is a temporary: not held through the filter
        sigma = _sample_from_cdf(tables.b_cdf.T[:, :, None],
                                 uniform_from_bits(words))
    else:
        sigma = _draw_tabulated(tables.b_table, tables.b_row[:, None], words)
    if k > 1:
        sigma = np.repeat(sigma, k, 1)
    xs = x.astype(sigma.dtype, copy=False)
    if tables.joint is not None:
        pe = _joint_factors(inst, tables.joint, sigma, xs)
    else:
        table = tables.A_norm if tables.A_pass is None else tables.A_pass
        pe = _filter_factors(inst, table.reshape(-1), sigma, xs)
    if tables.A_pass is not None:
        passed = pe
    else:
        coins = tape.edge_uniforms(g.eu[:, None], g.ev[:, None],
                                   g.emult[:, None], round_, runs)
        passed = (coins[:, :, None] < pe.reshape(g.m, n_runs, k)
                  ).reshape(g.m, x.shape[1])
    # a vertex accepts when every incident edge passed: rank r ANDs its
    # slots' passes into the prefix of the rows in by_degree order
    acc = np.ones(sigma.shape, dtype=bool)
    ptr = g.rank_ptr.tolist()
    for lo, hi in zip(ptr[:-1], ptr[1:]):
        head = acc[:hi - lo]
        head &= np.take(passed, g.rank_edge[lo:hi], 0)
    # x ^ ((x ^ sigma) * acc) is np.where(acc, sigma, x), which runs
    # about twenty times slower on narrow integers
    new_x = np.bitwise_xor(xs, sigma)
    new_x *= np.take(acc, g.degree_pos, 0).view(np.uint8)
    new_x ^= xs
    return new_x.astype(x.dtype, copy=False), None


def round_function(chain: ChainSpec,
                   tables: LubyPlan | MetropolisPlan | None = None):
    """Bind a chain spec and its plan to a round function for one batch.

    The bound function maps (inst, x, round, tape, runs) to (round-t batch,
    None). x is the round-(t-1) batch, vertex-major: (n, rows) with k =
    rows // len(runs) columns per run, run-major, so column i * k + s is
    run runs[i] from its s-th start and reads the tape at runs[i]. x may
    be of any integer dtype and is only read, so it may be a read-only
    view; the result is a fresh (n, rows) array in x's dtype.

    The bound function keeps no state: every round allocates its arrays
    afresh, so one function may serve any number of batches and threads.
    tables is plan(chain, inst), read-only, so every batch of a job may
    share it; without it, each round builds its own.
    """
    # every round function returns a pair: bench/spans.py reads out[0]; the
    # module-level round functions are looked up at each call, so a traced
    # round is one span
    if chain.kind == "local_metropolis":
        def fn(inst, x, round_, tape, runs):
            return local_metropolis_round_batch(inst, x, round_, tape, runs,
                                                tables=tables)
        return fn
    sched = chain.scheduler

    def fn(inst, x, round_, tape, runs):
        return luby_glauber_round_batch(inst, x, sched, round_, tape, runs,
                                        tables=tables)
    return fn


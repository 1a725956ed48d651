"""Round functions for the parallel samplers and the sequential baseline.

Two chain kinds share one state representation (a batch of configurations,
shape (rows, n), with k = rows // len(runs) rows per run, run-major) and one
randomness contract (every variate addressed by (kind, entity, round, run)
through the tape, so a run's k rows share it and a round computes it once
per run):

* independent-set resampling: a scheduler picks a non-adjacent vertex set
  each round and the selected vertices redraw their spins from their
  single-site conditionals, simultaneously; conditionals are built for the
  scheduled (run, vertex) pairs only; the sequential baseline is this chain
  with the single-site scheduler (one uniformly random vertex per round);
* parallel Metropolis: every vertex proposes from its activity vector's
  CDF (MrfInstance.b_cdf, summed in spin order by mrf.spin_major_cdf like
  the resampling conditionals), every edge tosses one shared coin against
  a three-factor acceptance probability on normalized activities, and a
  vertex commits its proposal only when all incident edges passed. Where
  every edge activity is 0 or 1 (MrfInstance.A_pass), the probability is 0
  or 1 and a coin in [0, 1) passes exactly when it is 1: the coin's outcome
  is implied, so it is not hashed, and the outputs are bitwise those of the
  coin-reading filter.

Every neighbourhood reduction (the local-maximum test, the product of a
selected vertex's slot matrices, the AND of a vertex's edge passes) walks
the graph's rank-major slot table: one gather and one elementwise step per
adjacency rank, each over a prefix of the vertices sorted by degree.

The resampling round works in two layouts besides the (rows, n) batch,
chosen so that every step is a contiguous row operation:

* vertex-major selection: score words, selections and scheduled sets are
  (n, len(runs)), row i for vertex by_degree[i], so a rank's step is a
  prefix of whole rows, and its flat indices, split by len(runs), are the
  (position, run) pairs in the by_degree order the conditional product
  needs; each pair then expands to its run's k rows;
* spin-major conditionals: the per-pair conditionals are (q, pairs), one
  contiguous row per spin, gathered from MrfInstance.slot_table; the
  denominator and running sum add whole rows in spin order, and the draw
  compares whole rows. On 0/1 edge tables (A_pass set, slot_table None)
  the slot product is a byte mask ANDed from MrfInstance.slot_bits, one
  byte row per 8 spins, and b * bit is bitwise b times a product of 1.0
  and 0.0 factors. When that mask is a single byte (q <= 8) and every
  vertex has the same activity vector (colorings, hardcore), a pair's CDF
  depends on its mask alone: the round reads it from MrfInstance.mask_cdf,
  (q - 1, 256) with one column per mask, tabulated once by the same
  arithmetic, and builds no conditionals.

The Metropolis round is vertex-major too: its spins are (n, rows) in the
narrowest unsigned dtype for q and its filter is edge-major, (m, rows), so
every endpoint gather and the acceptance AND move whole rows.

Every round function takes its batch in any integer dtype and returns the
new batch in the same one: engine.run_batch carries it in the narrowest
unsigned dtype for q (uint8 up to q = 256). The function that
round_function binds keeps its per-round arrays of fixed shape (score
words, local-maximum scratch, proposal words) in buffers for the batch.

All round functions are pure maps from the previous round's snapshot to the
next; a vertex's update reads its own streams, its neighbors' previous
spins, and the shared coins of its incident edges, nothing else.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graphs import Graph
from .mrf import MrfInstance, ZeroMarginal, spin_major_cdf
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
    color = np.full(graph.n, -1, dtype=np.int64)
    for v in range(graph.n):
        used = {color[u] for u in graph.adjacency[v] if color[u] >= 0}
        c = 0
        while c in used:
            c += 1
        color[v] = c
    return tuple(tuple(np.flatnonzero(color == c).tolist())
                 for c in range(int(color.max()) + 1))


def _sample_from_cdf(cdf: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Inverse-CDF draw from a spin-major cdf: smallest spin whose
    cumulative strictly exceeds u.

    cdf[c] holds spin c's cumulative, broadcast against u; the last entry is
    exactly 1.0 and u < 1, so it never counts and is skipped. Counting
    boundary entries with <= means a zero-probability spin (a flat cdf step)
    can never be hit, even when u lands exactly on the boundary. The
    spins come back in the counter: the narrowest unsigned dtype that holds
    len(cdf) - 1 (uint8 up to q = 256).
    """
    count = np.zeros(np.broadcast_shapes(cdf.shape[1:], u.shape),
                     np.min_scalar_type(len(cdf) - 1))
    for c in range(len(cdf) - 1):
        count += cdf[c] <= u
    return count


def _buffer(work: dict, name: str, shape: tuple, dtype) -> np.ndarray:
    """work[name] when it is an array of that shape and dtype, else a new
    uninitialised one, kept there for the next round."""
    buf = work.get(name)
    if buf is None or buf.shape != shape or buf.dtype != dtype:
        buf = work[name] = np.empty(shape, dtype)
    return buf


def _local_max_rows(graph: Graph, keys: np.ndarray, work: dict) -> np.ndarray:
    """The local-maximum rule in the vertex-major layout.

    keys is (n, R): row i holds the score words of vertex by_degree[i]. The
    result is the (n, R) indicator array in the same layout. Rank k's
    neighbors are gathered as whole rows (rank 0 straight into the
    running maximum, later ranks into a scratch block, both kept in work)
    and folded into the prefix of rows of the vertices with a k-th slot;
    rows past rank 0's prefix, isolated vertices, stay 0. The gathers read
    internal, in-range positions in np.take's "clip" mode, since the
    checked mode copies out before writing it.
    """
    g = graph
    ptr = g.rank_ptr.tolist()
    spans = list(zip(ptr[:-1], ptr[1:]))
    nbr_pos = np.take(g.degree_pos, g.rank_nbr)
    nbr_max = _buffer(work, "nbr_max", keys.shape, keys.dtype)
    rows = _buffer(work, "nbr_rows", keys.shape, keys.dtype)
    nbr_max[ptr[1] if spans else 0:] = 0
    for rank, (lo, hi) in enumerate(spans):
        head = nbr_max[:hi - lo]
        if rank:
            np.maximum(head, np.take(keys, nbr_pos[lo:hi], 0, rows[:hi - lo],
                                     "clip"), out=head)
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
    sel = _local_max_rows(g, np.take(keys, g.by_degree, 1).T.copy(), {})
    return np.take(sel, g.degree_pos, 0).T


def _score_words(graph: Graph, round_: int, tape: RandomTape,
                 runs: np.ndarray, work: dict) -> np.ndarray:
    """The round's (n, len(runs)) score words, vertex-major, hashed into
    work's key buffer."""
    return tape.node_words(KIND_NODE_BETA, graph.by_degree, round_, runs,
                           out=_buffer(work, "keys", (graph.n, len(runs)),
                                       np.uint64))


def luby_select_batch(graph: Graph, round_: int, tape: RandomTape,
                      runs: np.ndarray, work: dict | None = None) -> np.ndarray:
    """Local-maximum selection for one round, vertex-major: shape
    (n, len(runs)) boolean, row i for vertex by_degree[i]. work holds the
    score words and scratch between rounds (see round_function)."""
    work = {} if work is None else work
    keys = _score_words(graph, round_, tape, runs, work)
    return _local_max_rows(graph, keys, work)


def single_site_select_batch(graph: Graph, round_: int, tape: RandomTape,
                             runs: np.ndarray,
                             work: dict | None = None) -> np.ndarray:
    """One uniformly random vertex per run, as a vertex-major one-hot
    (n, len(runs)) boolean array, row i for vertex by_degree[i].

    Uses the global maximum of the same score words the local rule compares:
    with i.i.d. scores the argmax is uniform, and reusing the stream keeps
    the scheduler family on one randomness footprint.
    """
    keys = _score_words(graph, round_, tape, runs, {} if work is None else work)
    is_top = keys == keys.max(axis=0)
    # highest vertex id among maxima, consistent with the local tie rule
    pick = np.where(is_top, graph.by_degree[:, None], -1).argmax(axis=0)
    sel = np.zeros(keys.shape, dtype=bool)
    sel[pick, np.arange(sel.shape[1])] = True
    return sel


def scheduled_set_batch(graph: Graph, scheduler: SchedulerSpec, round_: int,
                        tape: RandomTape, runs: np.ndarray,
                        work: dict | None = None) -> np.ndarray:
    """The round's independent sets, vertex-major: (n, len(runs)) boolean,
    row i for vertex by_degree[i], column j for run runs[j]. work is passed
    to the score-word schedulers."""
    if scheduler.variant == "luby":
        return luby_select_batch(graph, round_, tape, runs, work=work)
    if scheduler.variant == "single-site":
        return single_site_select_batch(graph, round_, tape, runs, work=work)
    classes = scheduler.color_classes
    members = np.zeros(graph.n, dtype=bool)
    members[graph.degree_pos[list(classes[round_ % len(classes)])]] = True
    return np.broadcast_to(members[:, None], (graph.n, len(runs))).copy()


def luby_glauber_round_batch(inst: MrfInstance, x: np.ndarray,
                             scheduler: SchedulerSpec, round_: int,
                             tape: RandomTape, runs: np.ndarray,
                             work: dict | None = None):
    """One independent-set resampling round.

    x holds k = len(x) // len(runs) rows per run, run-major, in any integer
    dtype, and the new batch comes back in x's dtype; work holds the
    selection's buffers between rounds (see round_function). The selection
    and the proposal uniforms read only the tape, so they are computed once
    per run and each selected (vertex, run) pair is then expanded to the
    run's k rows.

    Conditionals are built for the scheduled (row, vertex) pairs only,
    spin-major: a (q, pairs) array whose rows are contiguous. The pairs are
    taken vertex-major over the vertices in by_degree order, so the pairs
    whose vertex has a given adjacency slot form a prefix; the product over
    slots is then, per rank and in slot order, one flat gather from each
    row of inst.slot_table and one multiply (rank 0 gathers straight into
    the product), at the slot's offset slot * q plus the neighbour's spin,
    added into one wide index array. On 0/1 tables inst.slot_table is
    None: the rows are the byte rows of inst.slot_bits and the step is an
    AND; the numerator is then each pair's vertex activities times the
    mask's bits. The pairs
    come from the selection's flat indices, in np.nonzero's order. The
    denominator and CDF add whole rows in spin order (mrf.spin_major_cdf),
    so each pair's arithmetic is that of a loop over its spins, whatever
    the number of pairs in the round; the draws are committed with one
    flat assignment. Proposal uniforms are hashed for the scheduled pairs
    alone.

    When inst.mask_cdf is set (one byte row of slot bits, q <= 8, and one
    activity vector shared by every vertex), the pair's byte mask is the
    key, cast to intp once for all its gathers: inst.mask_dead[key] marks
    the empty conditionals and the draw counts the table rows
    inst.mask_cdf[c][key] <= u. Each column of the table is the arithmetic
    above on that mask, so the draws are bitwise the same; no numerator,
    denominator or CDF is built.

    Raises:
        ZeroMarginal: a scheduled vertex has a zero-mass conditional; the
            smallest such (run, vertex) pair is named.
    """
    g, q = inst.graph, inst.q
    n_runs = len(runs)
    k = len(x) // n_runs
    work = {} if work is None else work
    flat = np.flatnonzero(scheduled_set_batch(g, scheduler, round_, tape, runs,
                                              work=work))
    # pairs whose vertex has degree > rank: those at a by_degree position
    # below that rank's vertex count c, i.e. at a flat index below
    # c * len(runs); k rows each
    heads = (np.searchsorted(flat, np.diff(g.rank_ptr) * n_runs) * k).tolist()
    pos = flat // n_runs
    vu = np.take(g.by_degree, pos)
    pos *= n_runs
    ru = np.subtract(flat, pos, out=flat)  # in place: no third array
    ri, vi = ru, vu
    if k > 1:
        # each pair's k rows, in the vertex-major order np.nonzero would
        # give on a selection with every run repeated k times
        ri = (ru[:, None] * k + np.arange(k)).ravel()
        vi = np.repeat(vu, k)
    row_base = ri * g.n
    base = np.take(g.nbr_ptr, vi)
    xf = np.ravel(x)
    # 0/1 tables: AND one byte row per 8 spins instead of multiplying q rows
    packed = inst.slot_bits is not None
    table = inst.slot_bits if packed else inst.slot_table
    fold = np.bitwise_and if packed else np.multiply
    prod = np.empty((len(table), len(vi)), table.dtype)
    # isolated vertices' pairs, past every rank's prefix: the empty product
    prod[:, heads[0] if heads else 0:] = 0xFF if packed else 1.0
    for rank, p in enumerate(heads):
        slot = base[:p] + rank
        col = slot * q
        col += np.take(xf, row_base[:p] + np.take(g.nbr_flat, slot))
        # one flat gather per table row runs faster than one along axis 1
        for c, row in enumerate(table):
            if rank:
                fold(prod[c, :p], np.take(row, col), out=prod[c, :p])
            else:
                np.take(row, col, out=prod[c, :p])
    if inst.mask_cdf is not None:
        # one byte row and one activity vector: the mask keys the tables
        key = prod[0].astype(np.intp)
        dead = np.take(inst.mask_dead, key)
    elif packed:
        # prod becomes the numerator, then, in place, the CDF; spin c's
        # factor is bit c % 8 of byte row c // 8, as 0 or 1
        mask, prod = prod, np.take(inst.b.T, vi, 1)
        for c in range(q):
            prod[c] *= (mask[c >> 3] >> (c & 7)) & 1
        del mask  # freed before the draw: holding it raised peak RSS on C4
        dead = spin_major_cdf(prod)
    else:
        prod *= np.take(inst.b.T, vi, 1)
        dead = spin_major_cdf(prod)
    if dead.any():
        run = runs[ri // k]
        i = np.flatnonzero(dead)[np.lexsort((vi[dead], run[dead]))[0]]
        raise ZeroMarginal(int(vi[i]), run=int(run[i]), round=round_)
    # hashed last, so that u is not held in memory through the product
    u = tape.node_uniforms_at(KIND_NODE_PROPOSAL, vu, round_, runs[ru])
    if k > 1:
        u = np.repeat(u, k)
    if inst.mask_cdf is None:
        draw = _sample_from_cdf(prod, u)
    else:
        # _sample_from_cdf's count, one table row gathered at a time
        draw = np.zeros(len(key), np.uint8)
        for row in inst.mask_cdf:
            draw += np.take(row, key) <= u
    new_x = x.copy()
    new_x.reshape(-1)[row_base + vi] = draw
    return new_x, None


def sequential_glauber_round_batch(inst: MrfInstance, x: np.ndarray,
                                   round_: int, tape: RandomTape,
                                   runs: np.ndarray):
    """The single-site resampling round. round_function runs this round
    through luby_glauber_round_batch directly, so a traced round is one
    span; this name stays because bench/spans.py lists it in ROUND_SPANS."""
    return luby_glauber_round_batch(inst, x, SchedulerSpec("single-site"),
                                    round_, tape, runs)


def _spins_by_vertex(inst: MrfInstance, x: np.ndarray) -> np.ndarray:
    """A (rows, n) batch as a fresh (n, rows) array in the narrowest
    unsigned dtype that holds q - 1 (uint8 up to q = 256)."""
    return np.ascontiguousarray(x.T, dtype=np.min_scalar_type(inst.q - 1))


def _filter_factors(inst: MrfInstance, table: np.ndarray, sigma: np.ndarray,
                    x: np.ndarray) -> np.ndarray:
    """Per-edge product of the Metropolis filter's three factors, edge-major:
    (m, rows) from the (n, rows) spins sigma (proposals) and x (current).

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


def _filter_probs(inst: MrfInstance, sigma: np.ndarray,
                  x: np.ndarray) -> np.ndarray:
    """Per-edge pass probability of the Metropolis filter, (rows, m), from
    (rows, n) proposals and current spins: a transposed view of the
    edge-major factors the round compares its coins against, each entry
    (f1 * f2) * f3."""
    return _filter_factors(inst, inst.A_norm.reshape(-1),
                           _spins_by_vertex(inst, sigma),
                           _spins_by_vertex(inst, x)).T


def local_metropolis_round_batch(inst: MrfInstance, x: np.ndarray,
                                 round_: int, tape: RandomTape,
                                 runs: np.ndarray, work: dict | None = None):
    """One parallel Metropolis round on k = len(x) // len(runs) rows per
    run, run-major, in any integer dtype; the new batch comes back in x's
    dtype, and work holds the proposal words between rounds (see
    round_function).

    The round works vertex-major: x is transposed once into an (n, rows)
    array of spins in the narrowest unsigned dtype for q, so every endpoint
    gather and the acceptance AND move whole rows. The proposals and the
    edge coins read only the tape, so they are drawn once per run: the
    proposal uniforms are hashed as (n, runs) words, the draw keeps its
    narrow counter and each run's column is repeated over its k rows, and
    the (runs, m) coins are compared against the (m, runs, k) filter
    probabilities through a transposed view.

    When every A entry is 0 or 1 (inst.A_pass is set), each pass
    probability is 0 or 1 and every coin lies in [0, 1), so coin < pe is
    implied by pe alone: the edge passes exactly when its three factors
    are 1. The coins are then not hashed and the edges are decided from
    the boolean table, with the same outcome bit for bit.
    """
    g = inst.graph
    n_runs = len(runs)
    k = len(x) // n_runs
    xt = _spins_by_vertex(inst, x)
    words = _buffer({} if work is None else work, "words", (inst.n, n_runs),
                    np.uint64)
    # u is a temporary: not held through the filter
    sigma = _sample_from_cdf(inst.b_cdf.T[:, :, None], uniform_from_bits(
        tape.node_words(KIND_NODE_PROPOSAL, np.arange(inst.n), round_, runs,
                        out=words)))
    if k > 1:
        sigma = np.repeat(sigma, k, 1)
    if inst.A_pass is not None:
        passed = _filter_factors(inst, inst.A_pass.reshape(-1), sigma, xt)
    else:
        pe = _filter_factors(inst, inst.A_norm.reshape(-1), sigma, xt)
        coins = tape.edge_uniforms(g.eu, g.ev, g.emult, round_, runs)
        passed = (coins.T[:, :, None] < pe.reshape(g.m, n_runs, k)
                  ).reshape(g.m, len(x))
    # a vertex accepts when every incident edge passed: rank r ANDs its
    # slots' passes into the prefix of the rows in by_degree order
    acc = np.ones(sigma.shape, dtype=bool)
    ptr = g.rank_ptr.tolist()
    for lo, hi in zip(ptr[:-1], ptr[1:]):
        head = acc[:hi - lo]
        head &= np.take(passed, g.rank_edge[lo:hi], 0)
    new_x = np.where(np.take(acc, g.degree_pos, 0), sigma, xt)
    # a fresh C-ordered (rows, n) batch: an F-ordered one would make every
    # later ravel copy
    return np.ascontiguousarray(new_x.T, dtype=x.dtype), None


def round_function(chain: ChainSpec):
    """Bind a chain spec to its batched round function, for one batch.

    The bound function maps (inst, x, round, tape, runs) to (round-t batch,
    None). x is the round-(t-1) batch of k = len(x) // len(runs) rows per
    run, run-major: row i * k + s is run runs[i] from its s-th start, and
    every row of a run reads the tape at runs[i]. The tape's variates are
    computed once per run and shared by its k rows, so they are hashed
    per run, not per row. x may be of any integer dtype (run_batch passes
    the narrowest unsigned one for q) and is only read, so it may be a
    read-only view; the result is a fresh array in x's dtype.

    The bound function owns a work dict of buffers that keep their size
    from round to round: the score words and local-maximum scratch of the
    selection, and the Metropolis proposal words. Call round_function once
    per batch and the function from one thread at a time; each chunk of
    run_chunked binds its own.
    """
    work: dict = {}
    # every round function returns a pair: bench/spans.py reads out[0]; the
    # module-level round functions are looked up at each call, so a traced
    # round is one span
    if chain.kind == "local_metropolis":
        def fn(inst, x, round_, tape, runs):
            return local_metropolis_round_batch(inst, x, round_, tape, runs,
                                                work=work)
        return fn
    sched = chain.scheduler

    def fn(inst, x, round_, tape, runs):
        return luby_glauber_round_batch(inst, x, sched, round_, tape, runs,
                                        work=work)
    return fn


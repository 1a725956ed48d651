"""Round functions for the parallel samplers and the sequential baseline.

Three chain kinds share one state representation (a batch of configurations,
shape (n_runs, n)) and one randomness contract (every variate addressed by
(kind, entity, round, run) through the tape):

* independent-set resampling: a scheduler picks a non-adjacent vertex set
  each round and the selected vertices redraw their spins from their
  single-site conditionals, simultaneously; conditionals are built for the
  scheduled (run, vertex) pairs only;
* parallel Metropolis: every vertex proposes from its activity vector, every
  edge tosses one shared coin against a three-factor acceptance probability
  on normalized activities, and a vertex commits its proposal only when all
  incident edges passed;
* the sequential baseline: one uniformly random vertex resampled per round.

Every neighbourhood reduction (the local-maximum test, the product of a
selected vertex's slot matrices, the AND of a vertex's edge passes) walks
the graph's rank-major slot table: one gather and one elementwise step per
adjacency rank, each over a prefix of the vertices sorted by degree.

All round functions are pure maps from the previous round's snapshot to the
next; a vertex's update reads its own streams, its neighbors' previous
spins, and the shared coins of its incident edges, nothing else.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graphs import Graph
from .mrf import MrfInstance, ZeroMarginal
from .randomness import KIND_NODE_BETA, KIND_NODE_PROPOSAL, RandomTape

_SCHEDULER_VARIANTS = ("luby", "chromatic", "single-site")
_CHAIN_KINDS = ("luby_glauber", "local_metropolis", "sequential_glauber")


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
        if self.variant not in _SCHEDULER_VARIANTS:
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
    return ChainSpec("sequential_glauber")


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


def _rank_reduce(graph: Graph, op, identity, operand, n_rows: int,
                 dtype) -> np.ndarray:
    """Per-vertex ufunc reduction over adjacency slots, shape (n_rows, n).

    operand(lo, hi) returns the (n_rows, hi - lo) values of the rank-major
    slot entries lo:hi; rank k's entries belong to the vertex prefix
    by_degree[:hi - lo], so each rank is one elementwise step into a prefix
    of the accumulator. Vertices without slots keep the identity.
    """
    acc = np.full((n_rows, graph.n), identity, dtype=dtype)
    ptr = graph.rank_ptr
    for lo, hi in zip(ptr[:-1].tolist(), ptr[1:].tolist()):
        head = acc[:, :hi - lo]
        op(head, operand(lo, hi), out=head)
    # np.take is several times faster than acc[:, idx] on wide batches
    return np.take(acc, graph.degree_pos, 1)


def _sample_from_cdf(cdf: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Inverse-CDF draw: smallest spin whose cumulative strictly exceeds u.

    Counting boundary entries with <= means a zero-probability spin (a flat
    cdf step) can never be hit, even when u lands exactly on the boundary.
    The count runs one spin column at a time: a reduction along the short
    q-axis of (cdf <= u[..., None]) costs several times more.
    """
    count = np.zeros(np.broadcast_shapes(cdf.shape[:-1], u.shape), np.int64)
    for k in range(cdf.shape[-1]):
        count += cdf[..., k] <= u
    return count


def _cumsum_columns(a: np.ndarray) -> np.ndarray:
    """np.cumsum(a, axis=-1) in place, one column at a time.

    The additions are the same and in the same order, so the result is
    bitwise equal; along a short last axis this runs several times faster.
    """
    for k in range(1, a.shape[-1]):
        a[..., k] += a[..., k - 1]
    return a


def local_max_select(graph: Graph, keys: np.ndarray) -> np.ndarray:
    """Rows of score words -> rows of local-maximum indicators.

    v is selected when its 64-bit score word beats every neighbor's,
    comparing (score, vertex id) lexicographically so exact ties resolve
    against the smaller id. Each row is an independent set by construction;
    an isolated vertex is always selected.
    """
    g, rows = graph, len(keys)
    nbr_max = _rank_reduce(g, np.maximum, 0,
                           lambda lo, hi: np.take(keys, g.rank_nbr[lo:hi], 1),
                           rows, np.uint64)
    sel = keys > nbr_max
    ties = keys == nbr_max
    if ties.any():
        def tied_ids(lo, hi):
            nbr = g.rank_nbr[lo:hi]
            owner_max = np.take(nbr_max, g.by_degree[:hi - lo], 1)
            return np.where(np.take(keys, nbr, 1) == owner_max, nbr, -1)

        top_id = _rank_reduce(g, np.maximum, -1, tied_ids, rows, np.int64)
        sel |= ties & (np.arange(g.n)[None, :] > top_id)
    return sel


def luby_select_batch(graph: Graph, round_: int, tape: RandomTape,
                      runs: np.ndarray) -> np.ndarray:
    """Local-maximum selection for one round, shape (len(runs), n) boolean."""
    keys = tape.node_words(KIND_NODE_BETA, np.arange(graph.n), round_, runs)
    return local_max_select(graph, keys)


def single_site_select_batch(graph: Graph, round_: int, tape: RandomTape,
                             runs: np.ndarray) -> np.ndarray:
    """One uniformly random vertex per run, as a one-hot boolean matrix.

    Uses the global maximum of the same score words the local rule compares:
    with i.i.d. scores the argmax is uniform, and reusing the stream keeps
    the scheduler family on one randomness footprint.
    """
    keys = tape.node_words(KIND_NODE_BETA, np.arange(graph.n), round_, runs)
    top = keys.max(axis=1, keepdims=True)
    is_top = keys == top
    # highest vertex id among maxima, consistent with the local tie rule
    pick = graph.n - 1 - np.argmax(is_top[:, ::-1], axis=1)
    sel = np.zeros(keys.shape, dtype=bool)
    sel[np.arange(len(sel)), pick] = True
    return sel


def scheduled_set_batch(graph: Graph, scheduler: SchedulerSpec, round_: int,
                        tape: RandomTape, runs: np.ndarray) -> np.ndarray:
    if scheduler.variant == "luby":
        return luby_select_batch(graph, round_, tape, runs)
    if scheduler.variant == "single-site":
        return single_site_select_batch(graph, round_, tape, runs)
    classes = scheduler.color_classes
    members = np.zeros(graph.n, dtype=bool)
    members[list(classes[round_ % len(classes)])] = True
    return np.broadcast_to(members, (len(np.atleast_1d(runs)), graph.n)).copy()


def luby_glauber_round_batch(inst: MrfInstance, x: np.ndarray,
                             scheduler: SchedulerSpec, round_: int,
                             tape: RandomTape, runs: np.ndarray):
    """One independent-set resampling round.

    Conditionals are built for the scheduled (run, vertex) pairs only. The
    pairs are taken vertex-major over the vertices in by_degree order, so
    the pairs whose vertex has a k-th adjacency slot form a prefix; the
    product over slots is then one gather and one multiply per rank, in
    slot order. Proposal uniforms are hashed for these pairs alone.

    Raises:
        ZeroMarginal: a scheduled vertex has a zero-mass conditional; the
            first such (run, vertex) pair in run-major order is named.
    """
    g = inst.graph
    sel = scheduled_set_batch(g, scheduler, round_, tape, runs)
    pos, ri = np.nonzero(sel[:, g.by_degree].T)
    vi = g.by_degree[pos]
    base = g.nbr_ptr[vi]
    # pairs whose vertex has degree > k: those at a by_degree position
    # below that rank's vertex count
    heads = np.searchsorted(pos, np.diff(g.rank_ptr)).tolist()
    prod = np.ones((len(vi), inst.q))
    for k, p in enumerate(heads):
        slot = base[:p] + k
        prod[:p] *= inst.slot_A[slot, x[ri[:p], g.nbr_flat[slot]]]
    # in place from here: prod becomes the numerator, then the CDF
    prod *= np.take(inst.b, vi, 0)
    denom = prod.sum(axis=-1)
    dead = denom <= 0
    if dead.any():
        k = np.flatnonzero(dead)[np.lexsort((vi[dead], ri[dead]))[0]]
        raise ZeroMarginal(int(vi[k]), run=int(runs[ri[k]]), round=round_)
    # denom stays a row sum: numpy sums rows pairwise from q = 8 on, so a
    # column loop like the CDF's would change bits
    prod /= denom[:, None]
    cdf = _cumsum_columns(prod)
    cdf[:, -1] = 1.0
    u = tape.node_uniforms_at(KIND_NODE_PROPOSAL, vi, round_, runs[ri])
    new_x = x.copy()
    new_x[ri, vi] = _sample_from_cdf(cdf, u)
    return new_x, None


def sequential_glauber_round_batch(inst: MrfInstance, x: np.ndarray,
                                   round_: int, tape: RandomTape,
                                   runs: np.ndarray):
    """The single-site resampling round. round_function runs this round
    through luby_glauber_round_batch directly, so a traced round is one
    span; this name stays because bench/spans.py lists it in ROUND_SPANS."""
    return luby_glauber_round_batch(inst, x, SchedulerSpec("single-site"),
                                    round_, tape, runs)


def _filter_probs(inst: MrfInstance, sigma: np.ndarray,
                  x: np.ndarray) -> np.ndarray:
    """Per-edge pass probability of the Metropolis filter, (n_runs, m).

    Three factors of normalized activity: both proposals, then each
    proposal against the other endpoint's current spin. Entry (e, a, c) is
    read at flat position e*q*q + a*q + c, which np.take serves several
    times faster than A_norm[arange(m), a, c].
    """
    g, q = inst.graph, inst.q
    e_off = np.arange(g.m) * (q * q)
    su = np.take(sigma, g.eu, 1) * q + e_off
    xu = np.take(x, g.eu, 1) * q + e_off
    sv, xv = np.take(sigma, g.ev, 1), np.take(x, g.ev, 1)
    a_norm = inst.A_norm.reshape(-1)
    pe = np.take(a_norm, su + sv) * np.take(a_norm, xu + sv)
    pe *= np.take(a_norm, su + xv)
    return pe


def local_metropolis_round_batch(inst: MrfInstance, x: np.ndarray,
                                 round_: int, tape: RandomTape,
                                 runs: np.ndarray):
    g = inst.graph
    u = tape.node_uniforms(KIND_NODE_PROPOSAL, np.arange(inst.n), round_, runs)
    sigma = _sample_from_cdf(inst.b_cdf, u)
    pe = _filter_probs(inst, sigma, x)
    passed = tape.edge_uniforms(g.eu, g.ev, g.emult, round_, runs) < pe
    acc = _rank_reduce(g, np.logical_and, True,
                       lambda lo, hi: np.take(passed, g.rank_edge[lo:hi], 1),
                       len(sigma), bool)
    return np.where(acc, sigma, x), None


def round_function(chain: ChainSpec):
    """Bind a chain spec to its batched round function.

    The bound function maps (inst, x, round, tape, runs), with x the
    (len(runs), n) round-(t-1) batch, to (round-t batch, None); x is only
    read, so it may be a read-only view, and the result is a fresh array.
    """
    # every round function returns a pair: bench/spans.py reads out[0]
    if chain.kind == "local_metropolis":
        return local_metropolis_round_batch
    sched = chain.scheduler or SchedulerSpec("single-site")

    def fn(inst, x, round_, tape, runs):
        return luby_glauber_round_batch(inst, x, sched, round_, tape, runs)
    return fn


@dataclass(frozen=True)
class SupportReport:
    ok: bool
    mode: str
    checked: int
    witness: tuple[np.ndarray, int] | None


def check_filter_positivity(inst: MrfInstance, state_cap: int = 1 << 12,
                            samples: int = 500, seed: int = 0) -> SupportReport:
    """Certify the parallel filter cannot strand a vertex.

    For every configuration x and vertex v the quantity

        sum_i b_v(i) * prod_{u in N(v)} [ A(i, x_u) * sum_j b_u(j) A(x_v, j) A(i, j) ]

    must be positive: some proposal at v passes its own checks jointly with
    some neighbor proposals, whatever the current state. Exhaustive below
    state_cap configurations, spot-sampled above it.
    """
    from .oracle import all_configs  # deferred: oracle imports this module

    n, q, g = inst.n, inst.q, inst.graph
    exhaustive = q ** n <= state_cap
    if exhaustive:
        X = all_configs(n, q)
        mode = "exhaustive"
    else:
        words = RandomTape(seed).node_uniforms(
            KIND_NODE_BETA, np.arange(n), 0, np.arange(samples, dtype=np.int64))
        X = np.minimum((words * q).astype(np.int64), q - 1)
        mode = "sampled"
    # S[i, xv] = sum_j b_u(j) A(i, j) A(xv, j), one matrix per adjacency slot
    for v in range(n):
        vals = np.broadcast_to(inst.b[v][:, None], (q, len(X))).copy()
        for slot in range(g.nbr_ptr[v], g.nbr_ptr[v + 1]):
            u = g.nbr_flat[slot]
            A = inst.slot_A[slot]
            S = A @ (inst.b[u][:, None] * A)
            vals *= A[:, X[:, u]] * S[:, X[:, v]]
        total = vals.sum(axis=0)
        if np.any(total <= 0):
            bad = int(np.argmax(total <= 0))
            return SupportReport(False, mode, len(X), (X[bad].copy(), v))
    return SupportReport(True, mode, len(X), None)

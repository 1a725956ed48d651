"""Exact ground truth: brute force on small instances, elimination past them.

Almost everything here trades exponential cost for exactness: the full
Gibbs distribution by enumerating all q^n configurations, exact one-round
transition matrices for each chain by integrating out their randomness,
detailed-balance and stationarity residuals, and exact conditional
marginals by enumeration. The exception, bucket elimination of a
conditional marginal, is exponential only in its order's width: it reaches
every instance enumeration reaches, and long paths, cycles and ladders
far past them. The simulator is validated against these outputs.

Configurations are ranked little-endian mixed radix: rank(sigma) =
sum_v sigma_v * q**v, so vertex 0 is the fastest-moving digit.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .chains import ChainSpec, SchedulerSpec
from .mrf import MrfInstance, marginal, weight_batch

ENUM_CAP = 1 << 22
MATRIX_CAP = 1 << 12
LUBY_PERMUTATION_CAP = 8


class StateSpaceTooLarge(ValueError):
    pass


class ZeroPartitionFunction(ValueError):
    """No configuration has positive weight; the model is empty."""


class ZeroProbabilityCondition(ValueError):
    """Conditioning event has zero probability mass."""


class UnsupportedScheduler(ValueError):
    """The requested scheduler has no single round-independent transition matrix."""


@dataclass(frozen=True)
class Distribution:
    """Explicit probability vector over a finite outcome space."""

    probs: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.probs, dtype=np.float64)
        if p.ndim != 1:
            raise ValueError("probability vector must be one-dimensional")
        if not np.isfinite(p).all():
            raise ValueError("non-finite probability entry")
        if p.size and p.min() < 0:
            raise ValueError("negative probability entry")
        if abs(p.sum() - 1.0) > 1e-9:
            raise ValueError(f"probabilities sum to {p.sum()!r}, not 1")
        p = p.copy()
        p.setflags(write=False)
        object.__setattr__(self, "probs", p)


@dataclass(frozen=True)
class TransitionMatrix:
    """Row-stochastic matrix indexed by configuration rank."""

    rows: np.ndarray

    def __post_init__(self):
        P = np.asarray(self.rows, dtype=np.float64)
        if P.ndim != 2 or P.shape[0] != P.shape[1]:
            raise ValueError("transition matrix must be square")
        if not np.isfinite(P).all():
            raise ValueError("non-finite transition probability")
        if P.size and P.min() < 0:
            raise ValueError("negative transition probability")
        if np.abs(P.sum(axis=1) - 1.0).max(initial=0.0) > 1e-9:
            raise ValueError("rows must sum to 1")
        P = P.copy()
        P.setflags(write=False)
        object.__setattr__(self, "rows", P)

    @property
    def dim(self) -> int:
        return self.rows.shape[0]


def rank_of_config(sigma, q: int) -> int:
    sigma = np.asarray(sigma, dtype=np.int64)
    return int((sigma * q ** np.arange(len(sigma), dtype=np.int64)).sum())


def config_of_rank(rank: int, n: int, q: int) -> np.ndarray:
    return (rank // q ** np.arange(n, dtype=np.int64)) % q


def all_configs(n: int, q: int) -> np.ndarray:
    """All q**n configurations in rank order, shape (q**n, n), row r = config of rank r."""
    return config_of_rank(np.arange(q ** n, dtype=np.int64)[:, None], n, q)


def _check_cap(n: int, q: int, cap: int) -> int:
    states = q ** n
    if states > cap:
        raise StateSpaceTooLarge(f"{q}**{n} = {states} configurations exceeds cap {cap}")
    return states


def enumerate_gibbs(inst: MrfInstance, cap: int = ENUM_CAP) -> tuple[Distribution, float]:
    """Full Gibbs distribution and normalizing constant by exhaustive enumeration.

    Raises:
        StateSpaceTooLarge: q**n exceeds cap.
        ZeroPartitionFunction: every configuration has zero weight.
    """
    _check_cap(inst.n, inst.q, cap)
    w = weight_batch(inst, all_configs(inst.n, inst.q))
    Z = float(w.sum())
    if Z <= 0:
        raise ZeroPartitionFunction("no feasible configuration")
    return Distribution(w / Z), Z


def tv_distance(p, r) -> float:
    """Total variation distance, half the L1 difference."""
    pv = p.probs if isinstance(p, Distribution) else np.asarray(p, dtype=np.float64)
    rv = r.probs if isinstance(r, Distribution) else np.asarray(r, dtype=np.float64)
    if pv.shape != rv.shape:
        raise ValueError(f"dimension mismatch: {pv.shape} vs {rv.shape}")
    return 0.5 * float(np.abs(pv - rv).sum())


def luby_set_distribution(graph) -> dict[frozenset, float]:
    """Exact selection-set law of the local-maximum rule.

    With i.i.d. continuous scores, every relative ordering of the n scores is
    equally likely and determines the selected set (ties have probability
    zero), so the law is the average over all n! orderings. Capped at n = 8.
    """
    n = graph.n
    if n > LUBY_PERMUTATION_CAP:
        raise StateSpaceTooLarge(f"permutation enumeration capped at n = {LUBY_PERMUTATION_CAP}")
    counts: dict[frozenset, int] = {}
    for perm in itertools.permutations(range(n)):
        pos = [0] * n
        for p, v in enumerate(perm):
            pos[v] = p  # perm lists vertices by descending score
        sel = frozenset(v for v in range(n)
                        if all(pos[v] < pos[u] for u in graph.adjacency[v]))
        counts[sel] = counts.get(sel, 0) + 1
    total = math.factorial(n)
    return {s: c / total for s, c in counts.items()}


def _scheduler_set_distribution(graph, scheduler: SchedulerSpec) -> dict[frozenset, float]:
    if scheduler.variant == "luby":
        return luby_set_distribution(graph)
    if scheduler.variant == "single-site":
        return {frozenset([v]): 1.0 / graph.n for v in range(graph.n)}
    raise UnsupportedScheduler(
        f"{scheduler.variant!r} scheduler is round-dependent; no single transition matrix exists")


def _glauber_matrix(inst: MrfInstance, scheduler: SchedulerSpec) -> np.ndarray:
    n, q = inst.n, inst.q
    K = q ** n
    pows = q ** np.arange(n, dtype=np.int64)
    sets = _scheduler_set_distribution(inst.graph, scheduler)
    P = np.zeros((K, K))
    for x_rank in range(K):
        x = config_of_rank(x_rank, n, q)
        for sel, pr_sel in sets.items():
            vs = sorted(sel)
            # selected vertices resample independently from their conditionals
            margs = [marginal(inst, v, x) for v in vs]
            vals = all_configs(len(vs), q)
            pr = np.ones(len(vals))
            for k, v in enumerate(vs):
                pr *= margs[k][vals[:, k]]
            y_ranks = x_rank + ((vals - x[vs]) * pows[vs]).sum(axis=1)
            np.add.at(P[x_rank], y_ranks, pr_sel * pr)
    return P


def _metropolis_matrix(inst: MrfInstance) -> np.ndarray:
    n, q, g = inst.n, inst.q, inst.graph
    m = g.m
    K = q ** n
    pows = q ** np.arange(n, dtype=np.int64)
    props = all_configs(n, q)
    b_prop = inst.b / inst.b.sum(axis=1, keepdims=True)
    prop_prob = np.prod(b_prop[np.arange(n), props], axis=1)
    norm = inst.A / inst.A.max(axis=(1, 2), keepdims=True)  # from A alone
    P = np.zeros((K, K))
    for x_rank in range(K):
        x = config_of_rank(x_rank, n, q)
        if m == 0:
            np.add.at(P[x_rank], props @ pows, prop_prob)
            continue
        # per-edge pass probability for every proposal vector at once
        e_idx = np.arange(m)
        pe = (norm[e_idx, props[:, g.eu], props[:, g.ev]]
              * norm[e_idx, x[g.eu][None, :], props[:, g.ev]]
              * norm[e_idx, props[:, g.eu], x[g.ev][None, :]])
        for coin_bits in range(1 << m):
            bits = (coin_bits >> np.arange(m)) & 1
            pr_coins = np.prod(np.where(bits, pe, 1.0 - pe), axis=1)
            accepted = np.ones(n, dtype=bool)
            for e in range(m):
                if not bits[e]:
                    accepted[g.eu[e]] = accepted[g.ev[e]] = False
            y = np.where(accepted[None, :], props, x[None, :])
            np.add.at(P[x_rank], y @ pows, prop_prob * pr_coins)
    return P


def exact_transition_matrix(chain: ChainSpec, inst: MrfInstance,
                            cap: int = MATRIX_CAP) -> TransitionMatrix:
    """One-round transition matrix with all chain randomness integrated out.

    The parallel-Metropolis matrix sums over every proposal vector and every
    edge-coin pattern; the independent-set resampling matrix sums over the
    exact scheduler set law times products of conditional marginals.

    Raises:
        StateSpaceTooLarge, UnsupportedScheduler, ZeroMarginal (the chain is
        ill-defined at some state of the enumeration).
    """
    _check_cap(inst.n, inst.q, cap)
    if chain.kind == "local_metropolis":
        return TransitionMatrix(_metropolis_matrix(inst))
    return TransitionMatrix(_glauber_matrix(inst, chain.scheduler))


@dataclass(frozen=True)
class BalanceReport:
    max_residual: float
    argmax_pair: tuple[int, int]
    stationarity_gap: float
    tol: float

    @property
    def ok(self) -> bool:
        return self.max_residual <= self.tol and self.stationarity_gap <= self.tol


def check_detailed_balance(P: TransitionMatrix, mu: Distribution,
                           tol: float = 1e-10) -> BalanceReport:
    """Largest flow asymmetry mu(X)P(X,Y) - mu(Y)P(Y,X) and stationarity gap."""
    F = mu.probs[:, None] * P.rows
    R = np.abs(F - F.T)
    pair = np.unravel_index(np.argmax(R), R.shape)
    gap = float(np.abs(mu.probs @ P.rows - mu.probs).max())
    return BalanceReport(float(R[pair]), (int(pair[0]), int(pair[1])), gap, tol)


def _check_query(inst: MrfInstance, v: int, pinned: dict[int, int]) -> None:
    """Refuse a vertex outside [0, n) or a pinned spin outside [0, q); a
    negative vertex would otherwise index from the end."""
    for u in (v, *pinned):
        if not 0 <= u < inst.n:
            raise ValueError(f"vertex {u} out of range for n={inst.n}")
    for u, s in pinned.items():
        if not 0 <= s < inst.q:
            raise ValueError(f"spin {s} pinned at vertex {u} out of range for q={inst.q}")


def exact_conditional_marginal(inst: MrfInstance, v: int,
                               pinned: dict[int, int]) -> Distribution:
    """Exact single-vertex marginal given pinned spins, by full enumeration.

    Raises:
        ValueError: v, a pinned vertex or a pinned spin is out of range.
        StateSpaceTooLarge: q**n exceeds ENUM_CAP.
        ZeroProbabilityCondition: the pinning has zero total weight.
    """
    _check_query(inst, v, pinned)
    _check_cap(inst.n, inst.q, ENUM_CAP)
    configs = all_configs(inst.n, inst.q)
    w = weight_batch(inst, configs)
    mask = np.ones(len(w), dtype=bool)
    for p, s in pinned.items():
        mask &= configs[:, p] == s
    out = np.zeros(inst.q)
    for c in range(inst.q):
        out[c] = w[mask & (configs[:, v] == c)].sum()
    total = out.sum()
    if total <= 0:
        raise ZeroProbabilityCondition(f"pinning {pinned} carries no weight")
    return Distribution(out / total)


def elimination_conditional_marginal(inst: MrfInstance, v: int,
                                     pinned: dict[int, int]) -> Distribution:
    """Same quantity as exact_conditional_marginal, by bucket elimination.

    Vertices leave in min-degree order (ties by smaller id, v last), making
    their remaining neighbours adjacent. A vertex's bucket holds its activity
    row (zero off a pinned spin), its edge matrices to later vertices and the
    tables sent to it. Every table is kept in log scale, so a product of
    many factors whose maxima sit on different spins neither underflows nor
    loses an entry that later factors bring back: a bucket's factors are
    added, the sum is log-sum-exp'd over the vertex, shifted to maximum 0
    and sent to the next neighbour to leave.

    Raises:
        ValueError: v, a pinned vertex or a pinned spin is out of range.
        StateSpaceTooLarge: some table would exceed ENUM_CAP entries.
        ZeroProbabilityCondition: the pinning has zero total weight; the
            vertex whose bucket has no weight is named.
    """
    _check_query(inst, v, pinned)
    n, q, edges = inst.n, inst.q, inst.graph.edges
    nbrs = [set(a) for a in inst.graph.adjacency]
    heap = sorted((len(s), u) for u, s in enumerate(nbrs) if u != v)  # sorted, so a heap
    pos: dict[int, int] = {}  # vertex -> step at which it leaves
    while heap:
        d, x = heapq.heappop(heap)
        if x in pos or d != len(nbrs[x]):
            continue  # stale entry
        if q ** (d + 1) > ENUM_CAP:
            raise StateSpaceTooLarge(f"vertex {x} needs a table of {q}**{d + 1} entries")
        pos[x] = len(pos)
        for w in nbrs[x]:
            nbrs[w] = (nbrs[w] | nbrs[x]) - {w, x}
            if w != v:
                heapq.heappush(heap, (len(nbrs[w]), w))
    pos[v] = n - 1
    # a factor is (log table, scope), its axes in the order its scope leaves;
    # a zero weight is log 0 = -inf, and no sum below meets +inf, so none
    # is nan
    with np.errstate(divide="ignore"):
        log_b, log_a = np.log(inst.b), np.log(inst.A)
        bucket = [[(np.log(inst.b[u] * (np.arange(q) == pinned[u]))
                    if u in pinned else log_b[u], [u])] for u in range(n)]
        for e, ab in enumerate(edges):  # symmetric: no transpose needed
            bucket[min(ab, key=pos.get)].append((log_a[e],
                                                 sorted(ab, key=pos.get)))
        for x in pos:
            scope = [x, *sorted(nbrs[x], key=pos.get)]
            table = np.zeros((q,) * len(scope))
            for f, fs in bucket[x]:
                table += f.reshape([q if w in fs else 1 for w in scope])
            if table.max() == -np.inf:
                raise ZeroProbabilityCondition(
                    f"the pinning leaves vertex {x}'s bucket no weight")
            if len(scope) > 1:
                # log-sum-exp over x, each column shifted by its own
                # maximum (0 where the column has no weight, whose sum
                # stays -inf)
                top = table.max(axis=0)
                top[top == -np.inf] = 0
                sent = top + np.log(np.exp(table - top).sum(axis=0))
                bucket[scope[1]].append((sent - sent.max(), scope[1:]))
    probs = np.exp(table - table.max())
    return Distribution(probs / probs.sum())

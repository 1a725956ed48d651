"""Quantitative instruments over the chains and the oracle.

Regime checks (the closed-form Dobrushin influence of colorings and the
positivity of the parallel Metropolis filter), the numeric Dobrushin-style
influence matrix, empirical mixing curves against exact ground truth,
identical-tape coupling decay with the degree-weighted disagreement
distance, conditional-correlation decay (by bucket elimination wherever
its tables fit the enumeration cap, with enumeration as its judge), and
selection-rate scans for the local-maximum scheduler.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import engine
from .chains import ChainSpec, local_max_select
from .engine import PRESETS, run_chunked
from .graphs import Graph
from .mrf import MrfInstance, marginal
from .oracle import (Distribution, _check_query, all_configs, config_of_rank,
                     elimination_conditional_marginal, enumerate_gibbs,
                     exact_conditional_marginal, tv_distance)
from .randomness import KIND_NODE_BETA, RandomTape


@dataclass(frozen=True)
class InfluenceMatrix:
    """Worst-case conditional-marginal shifts: rho[i, j] is the largest total
    variation move of i's single-site conditional caused by changing j alone
    (over feasible pairs); alpha is the largest row sum."""

    rho: np.ndarray
    alpha: float


@dataclass(frozen=True)
class MixingCurve:
    rounds: list[int]
    tv: list[float]
    n_runs: int
    seed: int
    epsilon: float
    tau_hat: int | None
    per_initial: dict[str, list[float]] = field(default_factory=dict)


@dataclass(frozen=True)
class DecayCurve:
    """Mean degree-weighted disagreement per round of a paired run."""

    rounds: np.ndarray
    phi: np.ndarray
    stderr: np.ndarray
    n_runs: int
    seed: int
    rate: float
    fit_rounds: tuple[int, int] | None


@dataclass(frozen=True)
class GammaReport:
    per_vertex: np.ndarray
    rounds: int

    @property
    def min(self) -> float:
        return float(self.per_vertex.min())


def dobrushin_alpha_coloring(graph: Graph, q_lists) -> float:
    """Closed-form total influence for (list-)colorings: max_v d_v/(q_v - d_v).

    q_lists is one list size for every vertex or a per-vertex array. When
    some vertex has q_v <= d_v the bound degenerates; returns math.inf.
    """
    d = graph.degrees.astype(np.float64)
    q = np.broadcast_to(np.asarray(q_lists, dtype=np.float64), (graph.n,))
    if np.any(q <= d):
        return math.inf
    return float((d / (q - d)).max())


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
    n, q, g = inst.n, inst.q, inst.graph
    exhaustive = q ** n <= state_cap
    if exhaustive:
        X = all_configs(n, q)
        mode = "exhaustive"
    else:
        words = RandomTape(seed).node_uniforms(
            KIND_NODE_BETA, np.arange(n), 0,
            np.arange(samples, dtype=np.int64)[:, None])
        X = np.minimum((words * q).astype(np.int64), q - 1)
        mode = "sampled"
    # S[i, xv] = sum_j b_u(j) A(i, j) A(xv, j), one matrix per adjacency slot
    for v in range(n):
        vals = np.broadcast_to(inst.b[v][:, None], (q, len(X))).copy()
        for slot in range(g.nbr_ptr[v], g.nbr_ptr[v + 1]):
            u, A = g.nbr_flat[slot], inst.A[g.nbr_edge[slot]]
            S = A @ (inst.b[u][:, None] * A)
            vals *= A[:, X[:, u]] * S[:, X[:, v]]
        total = vals.sum(axis=0)
        if np.any(total <= 0):
            bad = int(np.argmax(total <= 0))
            return SupportReport(False, mode, len(X), (X[bad].copy(), v))
    return SupportReport(True, mode, len(X), None)


def influence_matrix_numeric(inst: MrfInstance) -> InfluenceMatrix:
    """Influence matrix by enumeration of feasible single-vertex-differing pairs.

    For each vertex j, every pair of feasible configurations differing only
    at j is examined and the conditionals of the neighbors of j are compared.
    Vertices outside the neighborhood keep conditionals that read identical
    inputs, so their influence entries are exactly zero. A frozen j (no
    feasible pair differs only there) leaves column j zero with a warning.
    """
    n, q, g = inst.n, inst.q, inst.graph
    mu, _ = enumerate_gibbs(inst)  # raises on oversize/empty models
    feas = np.flatnonzero(mu.probs > 0)
    configs = config_of_rank(feas[:, None], n, q)
    pows = q ** np.arange(n, dtype=np.int64)
    rho = np.zeros((n, n))

    marg_cache: dict[tuple[int, bytes], np.ndarray] = {}

    def cond(i: int, x: np.ndarray) -> np.ndarray:
        key = (i, x[g.nbr_flat[g.nbr_ptr[i]:g.nbr_ptr[i + 1]]].tobytes())
        if key not in marg_cache:
            marg_cache[key] = marginal(inst, i, x)
        return marg_cache[key]

    for j in range(n):
        base = configs @ pows - configs[:, j] * pows[j]
        order = np.argsort(base, kind="stable")
        grouped = configs[order]
        bounds = np.flatnonzero(np.diff(base[order])) + 1
        groups = np.split(grouped, bounds)
        nbrs = np.unique(g.nbr_flat[g.nbr_ptr[j]:g.nbr_ptr[j + 1]]).tolist()
        any_pair = False
        for grp in groups:
            if len(grp) < 2:
                continue
            any_pair = True
            conds = [[cond(i, x) for x in grp] for i in nbrs]
            for a in range(len(grp)):
                for b in range(a + 1, len(grp)):
                    for k, i in enumerate(nbrs):
                        t = 0.5 * np.abs(conds[k][a] - conds[k][b]).sum()
                        if t > rho[i, j]:
                            rho[i, j] = t
        if not any_pair:
            warnings.warn(f"vertex {j} is frozen (no feasible pair differs only "
                          f"there); influence column left zero")
    return InfluenceMatrix(rho, float(rho.sum(axis=1).max()))


def mixing_scan(inst: MrfInstance, chain: ChainSpec, rounds_grid, n_runs: int,
                tape: RandomTape, initials=PRESETS,
                epsilon: float = 0.05, threads: int = 1) -> MixingCurve:
    """Empirical distance to the exact Gibbs distribution along a round grid.

    For each initial configuration in the panel, n_runs trajectories are
    histogrammed at every grid round (each chunk keeps only its counts) and
    the histogram's total variation distance to the enumerated distribution
    recorded under the preset's name, or "explicit-<s>" for an array at
    position s. The curve keeps the worst panel member per round; tau_hat is
    the first grid round at which that worst distance is <= epsilon (None if
    never).
    """
    mu, _ = enumerate_gibbs(inst)
    grid = sorted(set(int(t) for t in rounds_grid))
    if not grid:
        raise ValueError("rounds grid is empty")
    pows = inst.q ** np.arange(inst.n, dtype=np.int64)

    # sparse (ranks, counts) per start: a chunk keeps at most min(rows,
    # q**n) entries per grid round, however large the state space. x is
    # the carried (n, rows) batch; each rank is an exact integer sum.
    def histogram(runs, x):
        ranks = (pows @ x).reshape(-1, len(initials))  # column s: start s
        return [np.unique(r, return_counts=True) for r in ranks.T]

    chunks = list(run_chunked(inst, chain, grid[-1], n_runs, tape, initials,
                              histogram, grid, threads))
    per_initial: dict[str, list[float]] = {}
    for s, init in enumerate(initials):
        tvs = []
        for t in grid:
            counts = np.zeros(len(mu.probs), dtype=np.int64)
            for c in chunks:
                np.add.at(counts, *c[t][s])
            tvs.append(tv_distance(Distribution(counts / counts.sum()), mu))
        per_initial[init if isinstance(init, str) else f"explicit-{s}"] = tvs
    worst = [max(col) for col in zip(*per_initial.values())]
    tau = next((t for t, tv in zip(grid, worst) if tv <= epsilon), None)
    return MixingCurve(grid, worst, n_runs, tape.master_seed, epsilon, tau,
                       per_initial)


def coupling_decay(inst: MrfInstance, chain: ChainSpec, initial_pair,
                   rounds: int, n_runs: int, tape: RandomTape,
                   threads: int = 1) -> DecayCurve:
    """Paired evolution under shared randomness; tracks expected disagreement.

    Both runs read the same tape, so proposals, scores, and edge coins are
    identical; only the states differ. Disagreement is weighted by degree:
    phi(X, Y) = sum of deg(v) over vertices where the two states differ.
    The decay rate is a least-squares slope of log phi over the rounds where
    the mean stays above the counting-noise floor 10/n_runs.

    Raises:
        ValueError: initial_pair does not hold exactly two starts.
    """
    if len(initial_pair) != 2:
        raise ValueError(f"need two starts, got {len(initial_pair)}")
    deg = inst.graph.degrees.astype(np.float64)

    # x is the carried (n, rows) batch, the two starts of a run in
    # adjacent columns; phi sums integer degrees, so it is exact
    def disagreement(runs, x):
        return deg @ (x[:, 0::2] != x[:, 1::2])

    chunks = list(run_chunked(inst, chain, rounds, n_runs, tape,
                              tuple(initial_pair), disagreement,
                              range(rounds + 1), threads))
    phi = np.array([np.concatenate([c[t] for c in chunks])
                    for t in range(rounds + 1)])
    mean = phi.mean(axis=1)
    stderr = phi.std(axis=1, ddof=1) / math.sqrt(n_runs) if n_runs > 1 \
        else np.zeros(rounds + 1)
    floor = 10.0 / n_runs
    window = np.flatnonzero(mean >= floor)
    # fit only the contiguous prefix above the floor; stray late counts are noise
    if len(window):
        gaps = np.flatnonzero(np.diff(window) > 1)
        if len(gaps):
            window = window[:gaps[0] + 1]
    if len(window) >= 2 and np.all(mean[window] > 0):
        slope = np.polyfit(window.astype(float), np.log(mean[window]), 1)[0]
        rate = float(-slope)
        fit_rounds = (int(window[0]), int(window[-1]))
    else:
        rate = math.nan
        fit_rounds = None
    return DecayCurve(np.arange(rounds + 1), mean, stderr, n_runs,
                      tape.master_seed, rate, fit_rounds)


def crossing_round(curve: DecayCurve, level: float) -> float:
    """First (log-linearly interpolated) round where the mean disagreement
    drops to the given level; inf if it never does."""
    phi = curve.phi
    if phi[0] <= level:
        return 0.0
    below = np.flatnonzero(phi <= level)
    if len(below) == 0:
        return math.inf
    t = int(below[0])
    a, b = phi[t - 1], phi[t]
    if b <= 0 or a <= b:
        return float(t)
    return (t - 1) + (math.log(a) - math.log(level)) / (math.log(a) - math.log(b))


def correlation_length(inst: MrfInstance, u: int, v: int, pinnings=None,
                       delta: float = 0.1, method: str = "transfer") -> float:
    """Worst conditional shift at v between two pinned spins at u.

    Candidate pins are the spins of u whose exact marginal mass reaches
    delta (or an explicit iterable of spins); the result is the maximum
    total variation distance between the conditionals at v over pin pairs.
    method "transfer" computes each conditional by the bucket elimination
    of elimination_conditional_marginal, on any graph whose tables fit
    ENUM_CAP; "enumerate" by full enumeration of at most ENUM_CAP
    configurations, the independent judge of the elimination.

    Raises:
        ValueError: u or v is out of range, or method is unknown.
    """
    if method not in ("enumerate", "transfer"):
        raise ValueError(f"unknown method {method!r}")
    for w in (u, v):
        _check_query(inst, w, {})
    cond = (exact_conditional_marginal if method == "enumerate"
            else elimination_conditional_marginal)
    if pinnings is None:
        mass = cond(inst, u, {}).probs
        pinnings = [s for s in range(inst.q) if mass[s] >= delta]
    conds = [cond(inst, v, {u: s}) for s in pinnings]
    return max((tv_distance(a, b) for a, b in itertools.combinations(conds, 2)),
               default=0.0)


def luby_gamma_estimate(graph: Graph, rounds: int, tape: RandomTape) -> GammaReport:
    """Per-vertex selection frequency of the local-maximum rule.

    Evaluates the exact selection sets run 0 would see in rounds 1..rounds
    and reports the frequency vector (min over vertices is the empirical
    scheduler floor). Rounds are scanned in blocks of at most
    engine.CHUNK_SITES words, so memory stays flat in n; the counts are
    integers, so the blocking does not change the result.

    Raises:
        ValueError: rounds < 1, which leaves no frequency to report.
    """
    if rounds < 1:
        raise ValueError(f"need rounds >= 1, got {rounds}")
    freq = np.zeros(graph.n)
    block = max(1, engine.CHUNK_SITES // graph.n)
    for lo in range(1, rounds + 1, block):
        rs = np.arange(lo, min(lo + block, rounds + 1), dtype=np.int64)
        keys = tape.node_words_over_rounds(KIND_NODE_BETA, np.arange(graph.n), rs)
        freq += local_max_select(graph, keys).sum(axis=0)
    return GammaReport(freq / rounds, rounds)

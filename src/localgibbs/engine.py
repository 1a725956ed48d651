"""Round-synchronous execution: barriers, batched runs, empirical sampling.

The engine advances a batch of independent runs through T rounds of a
chain's round function. Rounds are hard barriers: the round function maps
the complete round-(t-1) snapshot to the round-t state, so no update can
observe a neighbor's same-round value. Because every variate is addressed
by (kind, entity, round, run), a run's trajectory is a pure function of
the master seed, its run index and its start; batch composition, chunking
(run_chunked, which every run-many job goes through), and thread count
cannot change any result. A single run is the one-row batch; rounds are
observed only through run_batch's snapshot callable (run_chunked's observe).
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .chains import ChainSpec, round_function
from .mrf import MrfInstance, validate_configuration
from .randomness import KIND_INIT_CONFIG, RandomTape


def greedy_feasible(inst: MrfInstance) -> np.ndarray:
    """Deterministic feasible configuration: scan vertices, take the smallest
    non-conflicting spin given the already-assigned neighbors.

    Raises:
        ValueError: the greedy scan dead-ends (no spin has positive weight
        against the assigned neighborhood).
    """
    g = inst.graph
    x = np.full(inst.n, -1, dtype=np.int64)
    for v in range(inst.n):
        ok = inst.b[v] > 0
        for slot in range(g.nbr_ptr[v], g.nbr_ptr[v + 1]):
            u = g.nbr_flat[slot]
            if x[u] >= 0:
                ok &= inst.slot_A[slot][:, x[u]] > 0
        if not ok.any():
            raise ValueError(f"greedy feasible start dead-ends at vertex {v}")
        x[v] = int(np.argmax(ok))
    return x


def initial_config(inst: MrfInstance, initial, tape: RandomTape | None = None,
                   runs: np.ndarray | None = None) -> np.ndarray:
    """Resolve an initial-configuration preset or explicit array.

    "zeros" and "max" are the two monochromatic extremes, "greedy" the
    deterministic feasible scan, "random" per-run uniform spins drawn from
    the tape's init stream (requires tape and runs). An explicit array
    passes through validation unchanged.
    """
    if isinstance(initial, str):
        if initial == "zeros":
            return np.zeros(inst.n, dtype=np.int64)
        if initial == "max":
            return np.full(inst.n, inst.q - 1, dtype=np.int64)
        if initial == "greedy":
            return greedy_feasible(inst)
        if initial == "random":
            if tape is None or runs is None:
                raise ValueError("random initial needs a tape and run indices")
            u = tape.node_uniforms(KIND_INIT_CONFIG, np.arange(inst.n), 0, runs)
            return np.minimum((u * inst.q).astype(np.int64), inst.q - 1)
        raise ValueError(f"unknown initial preset {initial!r}")
    return validate_configuration(inst, np.asarray(initial))


def run_batch(inst: MrfInstance, chain: ChainSpec, x0: np.ndarray, rounds: int,
              tape: RandomTape, runs: np.ndarray, snapshot_rounds=None,
              snapshot=np.copy) -> tuple[np.ndarray, dict]:
    """Advance a (n_runs, n) batch T rounds; optionally snapshot named rounds.

    Returns the final batch and {t: snapshot(batch after round t)} for each
    requested t (0 means the initial batch); the default snapshot is a copy.
    """
    if rounds < 0:
        raise ValueError("round count must be >= 0")
    runs = np.asarray(runs, dtype=np.int64)
    x = validate_configuration(inst, x0)
    if x.ndim == 1:
        x = np.broadcast_to(x, (len(runs), inst.n)).copy()
    fn = round_function(chain)
    wanted = set() if snapshot_rounds is None else set(int(t) for t in snapshot_rounds)
    snaps: dict[int, np.ndarray] = {}
    if 0 in wanted:
        snaps[0] = snapshot(x)
    for t in range(1, rounds + 1):
        x, _ = fn(inst, x, t, tape, runs)
        if t in wanted:
            snaps[t] = snapshot(x)
    return x, snaps


@dataclass(frozen=True)
class SampleResult:
    """Final configurations of independent runs, (n_runs, n)."""

    final: np.ndarray
    rounds: int
    seed: int

    @property
    def n_runs(self) -> int:
        return len(self.final)

    def ranks(self, q: int) -> np.ndarray:
        n = self.final.shape[1]
        return self.final @ (q ** np.arange(n, dtype=np.int64))

    def distribution(self, q: int, cap: int = 1 << 22):
        """Empirical distribution over configuration ranks."""
        from .oracle import Distribution, StateSpaceTooLarge
        n = self.final.shape[1]
        if q ** n > cap:
            raise StateSpaceTooLarge(
                f"{q}**{n} outcomes exceed the histogram cap; use marginals()")
        counts = np.bincount(self.ranks(q), minlength=q ** n)
        return Distribution(counts / counts.sum())

    def marginals(self, q: int) -> np.ndarray:
        """Per-vertex empirical spin frequencies, (n, q)."""
        n = self.final.shape[1]
        counts = np.bincount((self.final + q * np.arange(n)).ravel(),
                             minlength=n * q)
        return counts.reshape(n, q) / self.n_runs


# Per-thread byte budget of one chunk: a round holds about (n + 2m) * q
# float64 values per row (per-pair conditionals and slot products, per-edge
# filter factors). Sites per chunk are capped as well: past about 2**17
# sites a chunk's (rows, n) arrays fall out of cache and time per site
# grows. The counter-based tape makes outputs independent of the split, so
# both bounds move only memory and speed.
CHUNK_BYTES = 64 << 20
CHUNK_SITES = 1 << 17


def chunk_runs(inst: MrfInstance, n_runs: int, n_starts: int = 1,
               threads: int = 1) -> int:
    """Runs per chunk: their rows fit CHUNK_BYTES and CHUNK_SITES, no thread
    gets more than an even share of n_runs, and there is at least one."""
    row_bytes = (inst.n + 2 * inst.graph.m) * inst.q * 8 * n_starts
    return max(1, min(CHUNK_BYTES // row_bytes,
                      CHUNK_SITES // (inst.n * n_starts), -(-n_runs // threads)))


def _usable_cores() -> int:
    """CPU cores this process may run on (all of them where the platform
    has no affinity mask)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def run_chunked(inst: MrfInstance, chain: ChainSpec, rounds: int, n_runs: int,
                tape: RandomTape, starts, observe, snapshot_rounds=None,
                threads: int = 1) -> list[dict]:
    """n_runs runs of T rounds from each start, in memory-budgeted chunks.

    A chunk is one batch of (run, start) rows, run-major: row i * len(starts)
    + s is run runs[i] from starts[s] and reads the tape at runs[i], so the
    starts of a run share its randomness (starts=(x, y) is an identical-tape
    coupling). After each snapshot round t (default: the last) the worker
    keeps only observe(runs, batch). Returns one {t: observe result} dict per
    chunk, in run order. Chunks run concurrently on min(threads, chunks,
    usable cores) worker threads when that is more than one.
    """
    if n_runs < 1:
        raise ValueError("need n_runs >= 1")
    k = len(starts)
    # a preset other than "random" is the same for every run: resolve once
    starts = [s if isinstance(s, str) and s == "random"
              else initial_config(inst, s) for s in starts]
    # more workers than usable cores only adds threads, each holding a chunk
    threads = min(threads, _usable_cores())
    size = chunk_runs(inst, n_runs, k, threads)
    spans = [(lo, min(lo + size, n_runs)) for lo in range(0, n_runs, size)]
    wanted = [rounds] if snapshot_rounds is None else snapshot_rounds

    def work(span):
        runs = np.arange(*span, dtype=np.int64)
        # a single start stays a read-only view; several are interleaved
        x0 = [np.broadcast_to(initial_config(inst, s, tape, runs),
                              (len(runs), inst.n)) for s in starts]
        x0 = x0[0] if k == 1 else np.stack(x0, axis=1).reshape(-1, inst.n)
        _, snaps = run_batch(inst, chain, x0, rounds, tape, np.repeat(runs, k),
                             wanted, lambda x: observe(runs, x))
        return snaps

    threads = min(threads, len(spans))
    if threads <= 1:
        return [work(span) for span in spans]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(work, spans))


def sample_many(inst: MrfInstance, chain: ChainSpec, rounds: int, n_runs: int,
                tape: RandomTape, initial="random", threads: int = 1) -> SampleResult:
    """n_runs independent executions of T rounds; returns final configurations.

    Runs are numbered 0..n_runs-1 and processed in chunks by run_chunked;
    with threads > 1 chunks execute concurrently. Output is bitwise
    identical for any thread count.
    """
    final = np.empty((n_runs, inst.n), dtype=np.int64)

    def keep(runs, x):
        final[runs] = x

    run_chunked(inst, chain, rounds, n_runs, tape, (initial,), keep,
                threads=threads)
    return SampleResult(final, rounds, tape.master_seed)

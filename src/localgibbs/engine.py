"""Round-synchronous execution: barriers, batched runs, chunked run-many jobs.

The engine advances a batch of independent runs through T rounds of a
chain's round function. Rounds are hard barriers: the round function maps
the complete round-(t-1) snapshot to the round-t state, so no update can
observe a neighbor's same-round value. Because every variate is addressed
by (kind, entity, round, run), a run's trajectory is a pure function of
the master seed, its run index and its start; batch composition, chunking
(run_chunked, which every run-many job goes through), and thread count
cannot change any result. A single run is the one-row batch; rounds are
observed only through run_batch's snapshot callable (run_chunked's observe),
so a run-many job holds its per-chunk reductions, never the runs' states.
"""

from __future__ import annotations

import os
from collections import deque
from collections.abc import Iterator
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .chains import ChainSpec, round_function
from .mrf import MrfInstance, ZeroMarginal, validate_configuration
from .randomness import KIND_INIT_CONFIG, RandomTape


def _bit_rows(ok: np.ndarray):
    """Flat row i of a (..., q) boolean array as a Python int, entry c at
    bit c. The whole array is packed once, as one bit string; a call cuts
    one row out of it."""
    q = ok.shape[-1]
    buf, full = np.packbits(ok, None, "little").tobytes(), (1 << q) - 1

    def row(i):
        lo = i * q
        return int.from_bytes(buf[lo >> 3:(lo + q + 7) >> 3],
                              "little") >> (lo & 7) & full
    return row


def greedy_feasible(inst: MrfInstance) -> np.ndarray:
    """Deterministic feasible configuration: scan vertices, take the smallest
    non-conflicting spin given the already-assigned neighbors.

    The scan is plain Python on spin sets held as int bit masks: a vertex's
    spins of positive activity, ANDed with, for each assigned neighbor, the
    spins that the slot's edge allows against the neighbor's spin.

    Raises:
        ValueError: the greedy scan dead-ends (no spin has positive weight
        against the assigned neighborhood).
    """
    g, q = inst.graph, inst.q
    free = _bit_rows(inst.b > 0)
    # row e * q + s: the spins edge e allows against spin s (A is symmetric)
    allowed = _bit_rows(inst.A > 0)
    ptr, nbr = g.nbr_ptr.tolist(), g.nbr_flat.tolist()
    edge = g.nbr_edge.tolist()
    x = [-1] * inst.n
    for v in range(inst.n):
        ok = free(v)
        for slot in range(ptr[v], ptr[v + 1]):
            s = x[nbr[slot]]
            if s >= 0:
                ok &= allowed(edge[slot] * q + s)
        if not ok:
            raise ValueError(f"greedy feasible start dead-ends at vertex {v}")
        x[v] = (ok & -ok).bit_length() - 1
    return np.array(x, dtype=np.int64)


PRESETS = ("zeros", "max", "greedy", "random")


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
              snapshot=lambda x: x) -> tuple[np.ndarray, dict]:
    """Advance a batch T rounds; optionally snapshot named rounds.

    x0 is one (n,) configuration shared by every run, or a (rows, n) batch
    of k = rows // len(runs) rows per run, run-major: row i * k + s is run
    runs[i] from its s-th start. The k rows of a run read the same tape
    variates, which each round computes once per run. Between rounds the
    batch is carried in the narrowest unsigned dtype that holds q - 1
    (uint8 up to q = 256), and one round function, bound here, keeps its
    buffers for the whole batch. Returns the final batch and {t:
    snapshot(batch after round t)} for each requested t (0 means the
    initial batch): the returned batch and every batch snapshot sees are
    fresh (rows, n) int64 arrays, so the default snapshot keeps it as is.

    Raises:
        ValueError: rounds < 0, or the row count is not a positive multiple
            of len(runs).
    """
    if rounds < 0:
        raise ValueError("round count must be >= 0")
    runs = np.asarray(runs, dtype=np.int64)
    x = validate_configuration(inst, x0)
    if x.ndim == 1:
        x = np.broadcast_to(x, (len(runs), inst.n))
    if len(runs) == 0 or len(x) == 0 or len(x) % len(runs):
        raise ValueError(f"{len(x)} rows is not a positive multiple of "
                         f"{len(runs)} runs")
    x = x.astype(np.min_scalar_type(inst.q - 1))
    fn = round_function(chain)
    wanted = set() if snapshot_rounds is None else set(int(t) for t in snapshot_rounds)
    snaps: dict[int, np.ndarray] = {}
    if 0 in wanted:
        snaps[0] = snapshot(x.astype(np.int64))
    for t in range(1, rounds + 1):
        x, _ = fn(inst, x, t, tape, runs)
        if t in wanted:
            snaps[t] = snapshot(x.astype(np.int64))
    return x.astype(np.int64), snaps


# Byte budget of one chunk. The row size below counts
# (n + 2m) * q float64 values per row: the resampling round's per-pair
# conditionals and slot products, and per-edge filter factors. The
# Metropolis round holds less than that: narrow flat indices per edge, and
# one boolean pass per edge on 0/1 tables (float64 factors only on the
# coin path). Sites per chunk are capped as well: past about 2**17
# sites a chunk's (rows, n) arrays fall out of cache and time per site
# grows. Below about half that cap a chunk's rounds are too short to pay
# for sharing the GIL with a second worker. On a 2-core machine, two
# threads ran Luby and Metropolis jobs on a 4-cycle and a 3-regular
# 256-vertex graph at 0.44-0.87x the speed of one thread at 8k-16k sites
# per chunk, 0.80-1.14x at 32k and 1.18-1.98x at 64k. So a job is split
# across threads only into chunks of at least CHUNK_SITES // 2 sites. The
# counter-based tape makes outputs independent of the split, so these
# bounds move only memory and speed.
CHUNK_BYTES = 64 << 20
CHUNK_SITES = 1 << 17


def chunk_runs(inst: MrfInstance, n_runs: int, n_starts: int = 1,
               threads: int = 1) -> int:
    """Runs per chunk: their rows fit CHUNK_BYTES and CHUNK_SITES, and there
    is at least one. Within those bounds a chunk takes an even share of
    n_runs per thread, but no fewer runs than fill half of CHUNK_SITES (or
    all n_runs), so a job of at most half the sites budget is one chunk and
    runs without a pool."""
    row_bytes = (inst.n + 2 * inst.graph.m) * inst.q * 8 * n_starts
    sites_cap = CHUNK_SITES // (inst.n * n_starts)
    share = max(-(-n_runs // threads), min(n_runs, sites_cap // 2))
    return max(1, min(CHUNK_BYTES // row_bytes, sites_cap, share))


def _usable_cores() -> int:
    """CPU cores this process may run on (all of them where the platform
    has no affinity mask)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def run_chunked(inst: MrfInstance, chain: ChainSpec, rounds: int, n_runs: int,
                tape: RandomTape, starts, observe, snapshot_rounds=None,
                threads: int = 1) -> Iterator[dict]:
    """n_runs runs of T rounds from each start, in chunks of chunk_runs runs.

    A chunk is one batch of (run, start) rows, run-major: row i * len(starts)
    + s is run runs[i] from starts[s] and reads the tape at runs[i], so the
    starts of a run share its randomness (starts=(x, y) is an identical-tape
    coupling). The chunk's run ids go to run_batch once each, not once per
    start, so a round hashes and selects once per run for all its starts.
    After each snapshot round t (default: the last) the worker keeps only
    observe(runs, batch). Yields one {t: observe result} dict per chunk, in
    run order. Chunks run concurrently on min(threads, chunks,
    usable cores) worker threads when that is more than one; a job of at
    most half the sites budget is one chunk, so it runs on the calling
    thread whatever threads is. At most twice the worker count of chunks
    are in flight ahead of the consumer, so a slow consumer holds a bounded
    number of results. n_runs and the start count are
    checked and every start except "random" resolved before the iterator is
    returned, so a bad start fails at the call.

    Raises:
        ZeroMarginal: some run hit a zero-mass conditional. Once a chunk
            fails, no further chunk is yielded; the remaining chunks still
            run, and the failure with the smallest (round, run, vertex) is
            raised, so the one named does not depend on the split.
    """
    if n_runs < 1:
        raise ValueError("need n_runs >= 1")
    k = len(starts)
    if k == 0:
        raise ValueError("need at least one start")
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
        try:
            return run_batch(inst, chain, x0, rounds, tape, runs, wanted,
                             lambda x: observe(runs, x))[1]
        except ZeroMarginal as exc:
            return exc

    threads = min(threads, len(spans))
    results = map(work, spans) if threads <= 1 \
        else _in_order(work, spans, threads)
    return _until_failure(results)


def _until_failure(results) -> Iterator[dict]:
    """Chunk results up to the first ZeroMarginal; after it, drain the rest
    and raise the smallest failure by (round, run, vertex)."""
    failures = []
    for res in results:
        if isinstance(res, ZeroMarginal):
            failures.append(res)
        elif not failures:
            yield res
    if failures:
        raise min(failures, key=lambda e: (e.round, e.run, e.vertex))


def _in_order(work, spans, threads: int) -> Iterator[dict]:
    """work(span) for each span on a pool of threads, yielded in span order
    with at most 2 * threads submitted and not yet yielded (pool.map would
    submit every span at once, piling finished chunks up behind the consumer).
    """
    with ThreadPoolExecutor(max_workers=threads) as pool:
        pending = deque()
        for span in spans:
            if len(pending) == 2 * threads:
                yield pending.popleft().result()
            pending.append(pool.submit(work, span))
        while pending:
            yield pending.popleft().result()

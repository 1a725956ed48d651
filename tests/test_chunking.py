"""The chunked executor: chunk sizing and chunk-invariant outputs.

Chunks are sized from engine.CHUNK_BYTES and engine.CHUNK_SITES (the
instance here is too small to reach the sites cap). Patching the byte
budget forces chunks of one run, a few runs or all runs; with threads 1 to
3 every run-many job must return the same bytes as one unsplit batch.
"""

import json
import tempfile
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from test_digests import _multigraph_instance

from localgibbs import cli, engine
from localgibbs.chains import local_metropolis, luby_glauber
from localgibbs.diagnostics import coupling_decay, mixing_scan
from localgibbs.engine import chunk_runs, initial_config, run_batch, run_chunked
from localgibbs.graphs import cycle, random_regular
from localgibbs.models import coloring
from localgibbs.mrf import ZeroMarginal
from localgibbs.randomness import RandomTape

# the model, graph and chain keys only make the config valid: the test's
# instance and chain replace what they would build
_SAMPLE_CONFIG = ("model = coloring\nmodel.q = 3\ngraph = cycle\n"
                  "graph.n = 7\nchain = luby_glauber\nrounds = 6\n"
                  "seed = 31\ninitial = random\n")


def _sample(inst, chain, n_runs, threads):
    """samples.jsonl and marginals.csv of localgibbs sample, run on inst."""
    experiment = (inst.graph, inst, chain, RandomTape(31))
    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.object(cli, "_experiment", lambda cfg: experiment):
        cfg, out = Path(tmp, "s.cfg"), Path(tmp, "out")
        cfg.write_text(_SAMPLE_CONFIG + f"n_runs = {n_runs}\n")
        assert cli.main(["sample", "--config", str(cfg), "--output", str(out),
                         "--threads", str(threads)]) == 0
        return (out / "samples.jsonl").read_bytes() \
            + (out / "marginals.csv").read_bytes()


def _mixing(inst, chain, n_runs, threads):
    curve = mixing_scan(inst, chain, [0, 2, 5], n_runs, RandomTape(31),
                        threads=threads)
    return json.dumps([curve.per_initial, curve.tv, curve.tau_hat])


def _coupling(inst, chain, n_runs, threads):
    curve = coupling_decay(inst, chain, ("zeros", "max"), 5, n_runs,
                           RandomTape(31), threads=threads)
    return curve.phi.tobytes() + curve.stderr.tobytes() + repr(curve.rate).encode()


# job -> (its function, starts per run)
JOBS = {"sample": (_sample, 1), "mixing": (_mixing, 4), "coupling": (_coupling, 2)}


@pytest.mark.parametrize("job", sorted(JOBS))
@pytest.mark.parametrize("chain", [luby_glauber(), local_metropolis()],
                         ids=["luby", "metropolis"])
@pytest.mark.parametrize("n_runs", [1, 7])
def test_outputs_do_not_depend_on_chunk_size_or_threads(monkeypatch, job,
                                                        chain, n_runs):
    inst = _multigraph_instance()
    fn, starts = JOBS[job]
    reference = fn(inst, chain, n_runs, 1)  # default budget: one chunk
    run_bytes = (inst.n + 2 * inst.graph.m) * inst.q * 8 * starts
    for per_chunk in sorted({1, 3, n_runs}):
        monkeypatch.setattr(engine, "CHUNK_BYTES", per_chunk * run_bytes)
        assert chunk_runs(inst, n_runs, starts) == min(per_chunk, n_runs)
        for threads in (1, 2, 3):
            assert fn(inst, chain, n_runs, threads) == reference, \
                (per_chunk, threads)


def _failure(fn):
    with pytest.raises(ZeroMarginal) as info:
        fn()
    return info.value.round, info.value.run, info.value.vertex


@pytest.mark.parametrize("chunk_bytes", [1, engine.CHUNK_BYTES])
@pytest.mark.parametrize("threads", [1, 2, 3])
def test_reported_zero_marginal_does_not_depend_on_the_split(
        monkeypatch, chunk_bytes, threads):
    # odd cycle, q = 2, random starts: runs strand vertices in different
    # rounds; the smallest (round, run, vertex) over all runs is named
    inst, tape = coloring(cycle(5), 2), RandomTape(8)

    def one_run(r):
        runs = np.array([r])
        x0 = initial_config(inst, "random", tape, runs)
        return lambda: run_batch(inst, luby_glauber(), x0, 30, tape, runs)

    first = min(_failure(one_run(r)) for r in range(40))
    monkeypatch.setattr(engine, "CHUNK_BYTES", chunk_bytes)
    assert _failure(lambda: list(run_chunked(
        inst, luby_glauber(), 30, 40, tape, ("random",), lambda runs, x: None,
        threads=threads))) == first


def test_chunk_rows_stay_within_budget():
    inst = coloring(random_regular(1024, 3, seed=7), 8)
    row_bytes = (inst.n + 2 * inst.graph.m) * inst.q * 8
    for n_runs in (1, 7, 64, 100, 1000, 100000):
        for threads in (1, 2, 3, 4):
            for starts in (1, 2, 4):
                size = chunk_runs(inst, n_runs, starts, threads)
                assert 1 <= size <= n_runs
                assert size * starts * row_bytes <= engine.CHUNK_BYTES
                assert size * starts * inst.n <= engine.CHUNK_SITES
                cap = min(engine.CHUNK_BYTES // (starts * row_bytes),
                          engine.CHUNK_SITES // (starts * inst.n))
                half = engine.CHUNK_SITES // (2 * starts * inst.n)
                share = -(-n_runs // threads)
                # a chunk falls below an even share per thread only at a
                # budget, and grows past one only up to half the sites
                # budget, so a job within that half is one chunk
                assert size >= min(share, cap)
                assert size <= max(share, min(n_runs, half))
                if n_runs <= half:
                    assert size == n_runs


# (instance, runs, starts, threads) -> (chunks, runs per chunk): the three
# benchmark workloads, and rr256 luby on two threads
_RR256 = coloring(random_regular(256, 3, seed=1702), 8)
_C4 = coloring(cycle(4), 3)


@pytest.mark.parametrize("inst,n_runs,starts,threads,plan", [
    (_RR256, 512, 1, 1, (1, 512)),      # sample-rr256-luby
    (_RR256, 8192, 1, 2, (16, 512)),    # sample-rr256-metropolis
    (_C4, 4096, 4, 2, (1, 4096)),       # mixscan-c4-luby
    (_RR256, 512, 1, 2, (2, 256)),
], ids=["rr256-luby", "rr256-metropolis", "mixscan-c4", "rr256-luby-2t"])
def test_chunk_plans(inst, n_runs, starts, threads, plan):
    size = chunk_runs(inst, n_runs, starts, threads)
    assert (-(-n_runs // size), size) == plan


def test_one_run_per_chunk_when_a_run_exceeds_a_bound(monkeypatch):
    inst = coloring(random_regular(1024, 3, seed=7), 8)
    monkeypatch.setattr(engine, "CHUNK_BYTES", 1)
    assert chunk_runs(inst, 50, 4, 2) == 1
    monkeypatch.setattr(engine, "CHUNK_BYTES", 64 << 20)
    monkeypatch.setattr(engine, "CHUNK_SITES", 1)
    assert chunk_runs(inst, 50, 4, 2) == 1



def test_sample_memory_does_not_grow_with_runs(tmp_path, monkeypatch):
    # 16-run chunks: anything held per run shows up 16 times larger at 16N
    monkeypatch.setattr(engine, "CHUNK_SITES", 16 * 8)
    cfg = tmp_path / "s.cfg"

    def traced_peak(n_runs):
        cfg.write_text("model = coloring\nmodel.q = 3\ngraph = cycle\n"
                       "graph.n = 8\nchain = local_metropolis\nrounds = 3\n"
                       f"seed = 5\nn_runs = {n_runs}\n")
        tracemalloc.start()
        try:
            assert cli.main(["sample", "--config", str(cfg), "--output",
                             str(tmp_path / "out")]) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    small, large = traced_peak(256), traced_peak(16 * 256)
    assert max(small, large) <= 1.5 * min(small, large), (small, large)

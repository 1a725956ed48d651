"""The chains' plans: each chain builds its own tables, once per job.

chains.plan(chain, inst) builds the read-only tables that one chain's
round reads, and no table of the other chain. engine.run_chunked builds
one plan per job and every chunk, on every thread, binds that one object;
run_batch and the round functions build a plan only when given none.
"""

import threading

import numpy as np
import pytest
from test_kernels import _per_edge

from localgibbs import chains, engine
from localgibbs.chains import (CdfTable, LubyPlan, MetropolisPlan,
                               SchedulerSpec, chromatic_classes,
                               local_metropolis, local_metropolis_round_batch,
                               luby_glauber, plan, sequential_glauber)
from localgibbs.engine import initial_config, run_batch, run_chunked
from localgibbs.graphs import Graph, random_regular
from localgibbs.models import coloring, hardcore, ising, list_coloring, potts
from localgibbs.randomness import RandomTape

_RR = random_regular(12, 3, seed=2)
# instance -> (its bucket tables' CDF shapes in a Luby plan, in a
# Metropolis plan): the per-mask table where the mask is one byte and
# every vertex has the same activities, one proposal column per distinct
# activity vector
_INSTANCES = {
    "coloring": (lambda: coloring(_RR, 4), [(4, 256)], [(4, 1)]),
    "coloring-9": (lambda: coloring(_RR, 9), [], [(9, 1)]),
    "hardcore": (lambda: hardcore(_RR, 0.5), [(2, 256)], [(2, 1)]),
    "list-coloring": (lambda: list_coloring(
        _RR, 4, [[c for c in range(4) if c != v % 4] for v in range(12)]),
        [], [(4, 4)]),
    "potts": (lambda: potts(_RR, 3, 1.7), [], [(3, 1)]),
    "ising": (lambda: ising(_RR, 0.4), [], [(2, 1)]),
}
_CHAINS = {
    "luby": luby_glauber(),
    "single-site": sequential_glauber(),
    "chromatic": luby_glauber(SchedulerSpec("chromatic",
                                            chromatic_classes(_RR))),
    "metropolis": local_metropolis(),
}


def _arrays(tables):
    for field in tables:
        for a in field if isinstance(field, CdfTable) else (field,):
            if isinstance(a, np.ndarray):
                yield a


@pytest.fixture
def builds(monkeypatch):
    """Every chains.plan call (the plan's type) and every bucket table
    built (its CDF's shape), in call order."""
    log = {"plans": [], "tables": []}
    real_plan, real_table = chains.plan, chains._bucket_table

    def counted_plan(chain, inst):
        out = real_plan(chain, inst)
        log["plans"].append(type(out))
        return out

    def counted_table(cdf):
        log["tables"].append(cdf.shape)
        return real_table(cdf)

    monkeypatch.setattr(chains, "plan", counted_plan)
    monkeypatch.setattr(chains, "_bucket_table", counted_table)
    return log


@pytest.mark.parametrize("name", sorted(_INSTANCES))
@pytest.mark.parametrize("chain", sorted(_CHAINS))
def test_a_plan_holds_only_its_chains_tables(builds, name, chain):
    make, luby_tables, metropolis_tables = _INSTANCES[name]
    inst = make()
    tables = plan(_CHAINS[chain], inst)
    metropolis = chain == "metropolis"
    assert type(tables) is (MetropolisPlan if metropolis else LubyPlan)
    assert builds["tables"] == (metropolis_tables if metropolis
                                else luby_tables)
    arrays = list(_arrays(tables))
    assert arrays
    for a in arrays:
        assert not a.flags.writeable


@pytest.mark.parametrize("name", ["coloring", "potts"])
@pytest.mark.parametrize("chain", sorted(_CHAINS))
def test_a_chunked_job_on_two_threads_builds_one_plan(monkeypatch, builds,
                                                      name, chain):
    # one-run chunks on a two-worker pool: the job's one plan is the
    # object every chunk binds, and no round builds another
    make, luby_tables, metropolis_tables = _INSTANCES[name]
    inst = make()
    monkeypatch.setattr(engine, "CHUNK_BYTES", 1)
    monkeypatch.setattr(engine, "_usable_cores", lambda: 2)
    bound = []
    real_bind = chains.round_function

    def binding(chain_, tables=None):
        bound.append(tables)
        return real_bind(chain_, tables)

    monkeypatch.setattr(chains, "round_function", binding)
    workers = set()

    def observe(runs, x):
        workers.add(threading.get_ident())
        return x.copy()

    chunks = list(run_chunked(inst, _CHAINS[chain], 3, 6, RandomTape(7),
                              ("greedy",), observe, threads=2))
    assert len(chunks) == len(bound) == 6
    metropolis = chain == "metropolis"
    assert builds["plans"] == [MetropolisPlan if metropolis else LubyPlan]
    assert builds["tables"] == (metropolis_tables if metropolis
                                else luby_tables)
    assert all(tables is bound[0] for tables in bound)
    assert isinstance(bound[0], builds["plans"][0])
    # the chunks ran on the pool, off the calling thread
    assert workers and threading.get_ident() not in workers


@pytest.mark.parametrize("chain", sorted(_CHAINS))
def test_run_batch_builds_a_plan_only_when_given_none(builds, chain):
    inst = coloring(_RR, 4)
    spec, runs = _CHAINS[chain], np.arange(5)
    x0 = np.arange(inst.n) % inst.q
    built, _ = run_batch(inst, spec, x0, 3, RandomTape(7), runs)
    assert len(builds["plans"]) == 1
    given, _ = run_batch(inst, spec, x0, 3, RandomTape(7), runs,
                         plan=chains.plan(spec, inst))
    assert len(builds["plans"]) == 2
    np.testing.assert_array_equal(given, built)


_RR256 = random_regular(256, 3, seed=1702)
# instance -> whether its Metropolis plan has a joint table: every edge
# shares one table, and its q**4 entries fit _TABLE_BYTES (bool up to
# q = 16, float64 up to q = 9)
_JOINT = {
    "coloring-16": (lambda: coloring(_RR, 16), True),
    "coloring-17": (lambda: coloring(_RR, 17), False),
    "potts-9": (lambda: potts(_RR, 9, 1.7), True),
    "potts-10": (lambda: potts(_RR, 10, 1.7), False),
    "zero-one-per-edge": (lambda: _per_edge(
        _RR, 4, lambda s, p: (s % 3 > 0) | (p == 0)), False),
    "fractional-per-edge": (lambda: _per_edge(
        _RR, 4, lambda s, p: 0.5 + (s % 5) * 0.35), False),
    "edgeless": (lambda: coloring(Graph(5, []), 4), False),
}


@pytest.mark.parametrize("name", sorted(_JOINT))
def test_a_joint_table_exactly_where_edges_share_a_table_that_fits(name):
    make, built = _JOINT[name]
    inst = make()
    tables = plan(local_metropolis(), inst)
    assert (tables.joint is not None) == built
    if built:
        q = inst.q
        table = tables.A_norm if tables.A_pass is None else tables.A_pass
        assert tables.joint.shape == (q ** 4,)
        assert tables.joint.dtype == table.dtype
        assert tables.joint.nbytes <= chains._TABLE_BYTES
        assert not tables.joint.flags.writeable
    # a Metropolis table: no resampling plan holds one
    assert not hasattr(plan(luby_glauber(), inst), "joint")


@pytest.mark.parametrize("k", [1, 3])
@pytest.mark.parametrize("make", [
    pytest.param(lambda: coloring(_RR256, 8), id="coloring"),
    pytest.param(lambda: potts(_RR256, 8, 1.7), id="potts")])
def test_a_round_reads_the_same_bytes_with_or_without_the_joint_table(make,
                                                                      k):
    inst = make()
    tables = plan(local_metropolis(), inst)
    assert tables.joint is not None
    runs = np.arange(64, dtype=np.int64)
    x = np.stack([initial_config(inst, "random", RandomTape(s), runs)
                  for s in range(k)], axis=1).reshape(-1, inst.n).T.copy()
    tape = RandomTape(11)
    for t in range(1, 4):
        joint = local_metropolis_round_batch(inst, x, t, tape, runs, tables)[0]
        factors = local_metropolis_round_batch(
            inst, x, t, tape, runs, tables._replace(joint=None))[0]
        assert joint.dtype == factors.dtype == x.dtype
        assert joint.tobytes() == factors.tobytes()
        x = joint

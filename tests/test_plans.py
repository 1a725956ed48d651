"""The chains' plans: each chain builds its own tables, once per job.

chains.plan(chain, inst) builds the read-only tables that one chain's
round reads, and no table of the other chain. engine.run_chunked builds
one plan per job and every chunk, on every thread, binds that one object;
run_batch and the round functions build a plan only when given none.
"""

import threading

import numpy as np
import pytest

from localgibbs import chains, engine
from localgibbs.chains import (CdfTable, LubyPlan, MetropolisPlan,
                               SchedulerSpec, chromatic_classes,
                               local_metropolis, luby_glauber, plan,
                               sequential_glauber)
from localgibbs.engine import run_batch, run_chunked
from localgibbs.graphs import random_regular
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

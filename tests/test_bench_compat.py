"""The names bench/spans.py wraps by string must stay round and selection
functions of localgibbs.chains, and its Tracer must still patch the package.

`round_peak_alloc` getattrs every ROUND_SPANS name under `bench/run.py
--trace 1`, and `_count_changed` reads the changed sites from out[0] of a
round call, on batches of one row per run (sample) and of several starts
per run (mix-scan). `Tracer.install` rebinds the package's public functions
and the engine's ThreadPoolExecutor. A rename, a bare-array return or a
binding the tracer can no longer find breaks the traced benchmark without
failing any other test.
"""

import importlib
import importlib.util
import inspect
import itertools
from pathlib import Path

import numpy as np
import pytest

from localgibbs import chains, cli, engine
from localgibbs.graphs import cycle, random_regular
from localgibbs.models import coloring
from localgibbs.randomness import KIND_NODE_PROPOSAL, RandomTape

SPANS_PATH = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def _spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS_PATH)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


SPANS = _spans()


def _attr(span):
    layer, attr = span.split(".", 1)
    assert layer == "chains"
    return attr


@pytest.mark.parametrize("span", sorted(SPANS.ROUND_SPANS | SPANS.SELECT_SPANS))
def test_span_names_resolve_to_chain_functions(span):
    assert inspect.isfunction(getattr(chains, _attr(span), None))


@pytest.mark.parametrize("span", sorted(SPANS.ROUND_SPANS))
def test_round_spans_return_the_batch_first(span):
    fn = getattr(chains, _attr(span))
    inst = coloring(cycle(4), 3)
    sched = ((chains.SchedulerSpec("luby"),)
             if "scheduler" in inspect.signature(fn).parameters else ())
    # three runs with one row each, then with four starts each
    for starts in (1, 4):
        x = np.array([[0, 1, 0, 1], [2, 1, 2, 0]] * (2 * starts))[:3 * starts].T
        out = fn(inst, x, *sched, 1, RandomTape(3), np.arange(3))
        assert isinstance(out, tuple)
        assert out[0].shape == x.shape


class _PairCountingTape(RandomTape):
    """Counts the (vertex, run) pairs a round hashes proposal variates for:
    one per resampled (vertex, run) pair, shared by the run's starts. The
    tabulated draw reads proposal words, the comparison uniforms; calls
    counts the proposal queries of each."""

    pairs = 0

    def __init__(self, seed):
        super().__init__(seed)
        self.calls = {"node_words": 0, "node_uniforms": 0}

    def node_uniforms(self, kind, entities, round_, runs):
        self.pairs += len(entities)
        self.calls["node_uniforms"] += 1
        return super().node_uniforms(kind, entities, round_, runs)

    def node_words(self, kind, entities, round_, runs):
        if kind == KIND_NODE_PROPOSAL:
            self.pairs += len(entities)
            self.calls["node_words"] += 1
        return super().node_words(kind, entities, round_, runs)


@pytest.mark.parametrize("variant", chains.SCHEDULER_VARIANTS)
def test_selected_frac_counts_the_resampled_pairs(variant):
    # _count_selected reads out.sum() / out.size of scheduled_set_batch,
    # which has one column per run however many starts each run has
    g = random_regular(12, 3, seed=1)
    inst = coloring(g, 5)
    sched = chains.SchedulerSpec(
        variant, chains.chromatic_classes(g) if variant == "chromatic" else None)
    runs = np.arange(7, 16)
    for t, starts in itertools.product(range(1, 4), (1, 4)):
        x = np.tile(np.arange(g.n) % inst.q, (len(runs) * starts, 1))
        tape = _PairCountingTape(3)
        out = chains.scheduled_set_batch(g, sched, t, tape, runs)
        chains.luby_glauber_round_batch(inst, x.T, sched, t, tape, runs)
        # the 5-coloring draws its proposals through the mask table
        assert chains.plan(chains.luby_glauber(sched), inst).mask_table \
            is not None
        assert tape.calls == {"node_words": 1, "node_uniforms": 0}
        assert out.dtype == bool
        assert out.size == g.n * len(runs)
        assert int(out.sum()) == tape.pairs


@pytest.mark.parametrize("chain", ["luby_glauber", "local_metropolis"])
def test_traced_words_count_each_hashed_variate_once(tmp_path, chain):
    # one round from a fixed start: n score words (luby) or n proposal
    # words (metropolis) per run, and one proposal word per selected pair;
    # the 0/1 coloring filter hashes no coins. A tape accessor left out of
    # TAPE_ACCESSORS would go uncounted; one public accessor calling
    # another would be counted twice
    n, n_runs = 4, 4
    cfg = tmp_path / "sample.cfg"
    cfg.write_text(f"model = coloring\nmodel.q = 3\ngraph = cycle\n"
                   f"graph.n = {n}\nchain = {chain}\nrounds = 1\n"
                   f"n_runs = {n_runs}\nseed = 1\ninitial = greedy\n",
                   encoding="utf-8")
    tracer = SPANS.Tracer()
    tracer.install()
    try:
        assert cli.main(["sample", "--config", str(cfg), "--output",
                         str(tmp_path / "out"), "--threads", "1"]) == 0
    finally:
        tracer.uninstall()
    counts = tracer.counts
    proposals = counts["chains.selected"] if chain == "luby_glauber" else 0
    if chain == "luby_glauber":
        assert proposals > 0
    assert counts["randomness.words"] == n * n_runs + proposals


def _bindings():
    """Every module attribute, module-level dict entry and class attribute
    of the package, the places Tracer.install rebinds."""
    mods = [importlib.import_module(SPANS.PACKAGE)] + [
        importlib.import_module(f"{SPANS.PACKAGE}.{layer}")
        for layer in SPANS.LAYERS]
    out = {}
    for mod in mods:
        for attr, obj in vars(mod).items():
            out[mod.__name__, attr] = obj
            inner = obj if isinstance(obj, dict) else \
                vars(obj) if inspect.isclass(obj) else {}
            for key, value in inner.items():
                out[mod.__name__, attr, key] = value
    return out


def test_tracer_patches_a_sample_call_and_restores_every_binding(tmp_path):
    cfg = tmp_path / "sample.cfg"
    cfg.write_text("model = coloring\nmodel.q = 3\ngraph = cycle\n"
                   "graph.n = 4\nchain = luby_glauber\nrounds = 3\n"
                   "n_runs = 4\nseed = 1\n", encoding="utf-8")
    before = _bindings()
    tracer = SPANS.Tracer()
    tracer.install()
    try:
        assert engine.ThreadPoolExecutor is not before[engine.__name__,
                                                       "ThreadPoolExecutor"]
        assert chains.luby_glauber_round_batch is not before[
            chains.__name__, "luby_glauber_round_batch"]
        # looked up after install: the CLI module's main is now wrapped
        assert cli.main(["sample", "--config", str(cfg), "--output",
                         str(tmp_path / "out"), "--threads", "1"]) == 0
    finally:
        tracer.uninstall()
    after = _bindings()
    moved = [key for key, obj in before.items()
             if key not in after or after[key] is not obj]
    assert moved == []
    names = {span[3] for span in tracer.spans}
    assert {"cli.main", "chains.luby_glauber_round_batch"} <= names
    # summarize reads these spans by name for engine.busy_frac,
    # mrf.feasible_s and config.load_s; a sample call that stopped making
    # one would leave its metric at 0
    assert {"engine.run_batch", "mrf.feasible_batch",
            "config.load_config"} <= names

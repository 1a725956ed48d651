"""The names bench/spans.py wraps by string must stay round and selection
functions of localgibbs.chains.

`round_peak_alloc` getattrs every ROUND_SPANS name under `bench/run.py
--trace 1`, and `_count_changed` reads the changed sites from out[0] of a
round call, on batches of one row per run (sample) and of several starts
per run (mix-scan). A rename or a bare-array return breaks the traced
benchmark without failing any other test.
"""

import importlib.util
import inspect
import itertools
from pathlib import Path

import numpy as np
import pytest

from localgibbs import chains
from localgibbs.graphs import cycle, random_regular
from localgibbs.models import coloring
from localgibbs.randomness import RandomTape

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
        x = np.array([[0, 1, 0, 1], [2, 1, 2, 0]] * (2 * starts))[:3 * starts]
        out = fn(inst, x, *sched, 1, RandomTape(3), np.arange(3))
        assert isinstance(out, tuple)
        assert out[0].shape == x.shape


class _PairCountingTape(RandomTape):
    """Counts the (vertex, run) pairs a round hashes proposal uniforms for:
    one per resampled (vertex, run) pair, shared by the run's starts."""

    pairs = 0

    def node_uniforms_at(self, kind, entities, round_, runs):
        self.pairs += len(entities)
        return super().node_uniforms_at(kind, entities, round_, runs)


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
        chains.luby_glauber_round_batch(inst, x, sched, t, tape, runs)
        assert out.dtype == bool
        assert out.size == g.n * len(runs)
        assert int(out.sum()) == tape.pairs

"""The names bench/spans.py wraps by string must stay round and selection
functions of localgibbs.chains.

`round_peak_alloc` getattrs every ROUND_SPANS name under `bench/run.py
--trace 1`, and `_count_changed` reads the changed sites from out[0] of a
round call. A rename or a bare-array return breaks the traced benchmark
without failing any other test.
"""

import importlib.util
import inspect
from pathlib import Path

import numpy as np
import pytest

from localgibbs import chains
from localgibbs.graphs import cycle
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
    x = np.array([[0, 1, 0, 1]] * 3)
    sched = ((chains.SchedulerSpec("luby"),)
             if "scheduler" in inspect.signature(fn).parameters else ())
    out = fn(inst, x, *sched, 1, RandomTape(3), np.arange(3))
    assert isinstance(out, tuple)
    assert out[0].shape == x.shape

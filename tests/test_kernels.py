"""Exact vectorised kernels against their direct forms.

The inverse-CDF draw, the CDF's running sum, the Metropolis filter's
flat-index lookups and the samples.jsonl encoder must agree bit for bit
(byte for byte) with the expressions they replace.
"""

import json

import numpy as np
import pytest
from _naive import naive_draw
from test_digests import _multigraph_instance

from localgibbs.chains import _cumsum_columns, _filter_probs, _sample_from_cdf
from localgibbs.cli import _samples_jsonl


def _check_draw(cdf, u):
    got = _sample_from_cdf(cdf, u)
    want = naive_draw(cdf, u)
    assert got.dtype == np.int64
    np.testing.assert_array_equal(got, want)
    return got


def test_draw_skips_zero_probability_spins():
    # spins 1 and 3 have zero mass: flat steps in the cdf
    cdf = np.array([[0.25, 0.25, 0.75, 0.75, 1.0]] * 6)
    u = np.array([0.0, 0.1, 0.25, 0.5, 0.75, 0.999])
    assert _check_draw(cdf, u).tolist() == [0, 0, 2, 2, 4, 4]


def test_draw_on_step_boundaries_and_zero():
    probs = np.array([0.125, 0.375, 0.25, 0.25])
    cdf = np.cumsum(probs)
    cdf[-1] = 1.0
    u = np.concatenate([[0.0], cdf[:-1]])
    # u exactly on a boundary moves on to the next spin
    assert _check_draw(np.broadcast_to(cdf, (4, 4)), u).tolist() == [0, 1, 2, 3]


def test_draw_when_cumsum_overshoots_before_last_entry():
    # rounding can carry the running sum past 1.0 before the last entry,
    # which is then forced back to exactly 1.0: the row is not monotone
    cdf = np.array([0.3, 0.7, 1.0000000000000002, 1.0])
    u = np.array([0.0, 0.3, 0.7, 0.9, np.nextafter(1.0, 0.0)])
    got = _check_draw(np.broadcast_to(cdf, (len(u), 4)), u)
    assert got.tolist() == [0, 1, 2, 2, 2]


@pytest.mark.parametrize("seed", range(3))
def test_draw_matches_reduction_on_random_rows(seed):
    rng = np.random.default_rng(seed)
    for q in (2, 3, 8, 137):
        probs = rng.random((50, q)) * (rng.random((50, q)) < 0.7)
        probs[:, 0] += 1e-3
        cdf = np.cumsum(probs / probs.sum(axis=1, keepdims=True), axis=1)
        cdf[:, -1] = 1.0
        # draws on the boundaries themselves as well as in between
        u = np.where(rng.random(50) < 0.3,
                     cdf[np.arange(50), rng.integers(0, q, 50)],
                     rng.random(50))
        u = np.minimum(u, np.nextafter(1.0, 0.0))
        _check_draw(cdf, u)
        # the Metropolis proposal broadcasts one cdf per vertex over runs
        _check_draw(cdf[:7], rng.random((11, 7)))


@pytest.mark.parametrize("q", [2, 3, 8, 137])
def test_column_cumsum_is_bitwise_cumsum(q):
    rng = np.random.default_rng(q)
    a = rng.random((257, q)) * rng.choice([1e-300, 1.0, 1e300], (257, q))
    want = np.cumsum(a, axis=-1)
    got = _cumsum_columns(a.copy())
    assert got.tobytes() == want.tobytes()


def test_filter_probs_match_fancy_lookups():
    inst = _multigraph_instance()
    g, A = inst.graph, inst.A_norm
    rng = np.random.default_rng(5)
    sigma = rng.integers(0, inst.q, (64, inst.n))
    x = rng.integers(0, inst.q, (64, inst.n))
    e = np.arange(g.m)
    su, sv, xu, xv = sigma[:, g.eu], sigma[:, g.ev], x[:, g.eu], x[:, g.ev]
    want = A[e, su, sv] * A[e, xu, sv] * A[e, su, xv]
    assert _filter_probs(inst, sigma, x).tobytes() == want.tobytes()


def _json_reference(runs, final):
    return "".join(json.dumps({"run": r, "spins": row.tolist()},
                              sort_keys=True, separators=(",", ":")) + "\n"
                   for r, row in zip(runs.tolist(), final)).encode("utf-8")


@pytest.mark.parametrize("q", [2, 10, 11, 137])
@pytest.mark.parametrize("shape", [(23, 9), (1, 9), (12, 1), (1, 1)])
def test_samples_jsonl_matches_json_dumps(q, shape):
    rng = np.random.default_rng(q)
    final = rng.integers(0, q, shape)
    final[0, 0] = q - 1  # the widest token is present
    # a chunk's global run ids, not its row numbers
    runs = np.arange(len(final)) + 995
    assert _samples_jsonl(runs, final, q) == _json_reference(runs, final)

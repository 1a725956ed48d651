"""End-to-end checks of the shipped guarantees, one test per criterion.

Each test prints a single pass/fail line with its headline metric before
asserting, so `pytest -v -s tests/test_acceptance.py` reads as a checklist.
Tolerances and instance sizes are part of the contract; do not retune them
to make a failing build pass.
"""

import json
import math
import os
import subprocess
import sys
import time

import numpy as np

import localgibbs
from localgibbs.chains import (SchedulerSpec, local_max_select,
                               local_metropolis, luby_glauber,
                               sequential_glauber)
from localgibbs.diagnostics import (coupling_decay, crossing_round,
                                    correlation_length,
                                    dobrushin_alpha_coloring,
                                    influence_matrix_numeric,
                                    mixing_scan)
from localgibbs.engine import initial_config, run_batch
from localgibbs.graphs import cycle, path, random_regular
from localgibbs.models import coloring, hardcore, ising, list_coloring, potts
from localgibbs.mrf import feasible_batch
from localgibbs.oracle import (check_detailed_balance, enumerate_gibbs,
                               exact_transition_matrix)
from localgibbs.randomness import KIND_NODE_BETA, RandomTape


def _line(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num:02d}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num:02d} failed: {detail}"


def _stationarity(num, inst, chain, tol):
    start = time.monotonic()
    tv = mixing_scan(inst, chain, [200], 100000, RandomTape(num),
                     initials=("greedy",), threads=1).tv[0]
    elapsed = time.monotonic() - start
    _line(num, tv <= tol and elapsed <= 60.0,
          f"TV={tv:.4f} <= {tol}, {elapsed:.1f}s <= 60s")


def test_criterion_01_resampling_chain_stationarity():
    _stationarity(1, coloring(cycle(4), 3), luby_glauber(), 0.02)


def test_criterion_02_parallel_filter_chain_stationarity():
    _stationarity(2, coloring(cycle(4), 4), local_metropolis(), 0.02)


def test_criterion_03_exact_detailed_balance():
    worst = 0.0
    for inst in (coloring(path(2), 3), hardcore(path(3), 1.0),
                 ising(path(2), 2.0)):
        mu, _ = enumerate_gibbs(inst)
        for chain in (luby_glauber(), local_metropolis()):
            report = check_detailed_balance(
                exact_transition_matrix(chain, inst), mu, tol=1e-10)
            worst = max(worst, report.max_residual, report.stationarity_gap)
    _line(3, worst <= 1e-10, f"max residual/gap {worst:.2e} <= 1e-10")


def test_criterion_04_one_round_law():
    inst = coloring(path(2), 3)
    starts = [np.array([0, 1]), np.array([1, 0]), np.array([2, 0])]
    n_trials = 10 ** 6
    runs = np.arange(n_trials, dtype=np.int64)
    worst = 0.0
    chains = (luby_glauber(), local_metropolis(), sequential_glauber())
    for c_idx, chain in enumerate(chains):
        P = exact_transition_matrix(chain, inst)
        for s_idx, x0 in enumerate(starts):
            tape = RandomTape(100 + 10 * c_idx + s_idx)
            final, _ = run_batch(inst, chain, x0, 1, tape, runs)
            counts = np.bincount(final @ np.array([1, 3]), minlength=9)
            row = P.rows[int(x0[0] + 3 * x0[1])]
            worst = max(worst, 0.5 * np.abs(counts / n_trials - row).sum())
    _line(4, worst <= 0.005,
          f"worst one-round TV {worst:.4f} <= 0.005 over "
          f"{len(chains)} chains x {len(starts)} starts")


def test_criterion_05_feasibility_absorption():
    lists = [[(v + k) % 4 for k in range(3)] for v in range(6)]
    instances = [coloring(cycle(8), 4), list_coloring(cycle(6), 4, lists),
                 hardcore(path(6), 1.5), ising(cycle(6), 1.0),
                 potts(cycle(5), 3, 0.7)]
    chains = (luby_glauber(), local_metropolis())
    rounds, per_cell = 10, 1000
    violations = 0
    total_runs = 0
    for i_idx, inst in enumerate(instances):
        for c_idx, chain in enumerate(chains):
            tape = RandomTape(500 + 10 * i_idx + c_idx)
            runs = np.arange(per_cell, dtype=np.int64)
            x0 = initial_config(inst, "random", tape, runs)
            _, snaps = run_batch(inst, chain, x0, rounds, tape, runs,
                                 snapshot_rounds=range(rounds + 1))
            feas = np.stack([feasible_batch(inst, snaps[t])
                             for t in range(rounds + 1)])
            violations += int(np.sum(feas[:-1] & ~feas[1:]))
            total_runs += per_cell
    assert total_runs == 10 ** 4

    # parallel filter chain escapes an infeasible monochromatic start
    inst = coloring(cycle(8), 4)
    tape = RandomTape(777)
    runs = np.arange(2000, dtype=np.int64)
    final, _ = run_batch(inst, local_metropolis(),
                         np.zeros(8, dtype=np.int64), 100, tape, runs)
    reached = float(feasible_batch(inst, final).mean())
    _line(5, violations == 0 and reached >= 0.99,
          f"{violations} feasible->infeasible transitions in {total_runs} "
          f"runs; {reached:.3f} of infeasible starts feasible by round 100")


def test_criterion_06_selection_rule_floor():
    g = random_regular(50, 3, seed=0)
    n_rounds = 10 ** 4
    tape = RandomTape(6)
    dependent = 0
    hits = np.zeros(g.n)
    block = 2000
    for lo in range(1, n_rounds + 1, block):
        rs = np.arange(lo, min(lo + block, n_rounds + 1), dtype=np.int64)
        keys = tape.node_words_over_rounds(KIND_NODE_BETA, np.arange(g.n), rs)
        sel = local_max_select(g, keys)
        dependent += int(np.sum(sel[:, g.eu] & sel[:, g.ev]))
        hits += sel.sum(axis=0)
    freq_min = float(hits.min()) / n_rounds
    floor = 0.25 - 3 * math.sqrt(0.25 * 0.75 / n_rounds)
    _line(6, dependent == 0 and freq_min >= floor,
          f"{dependent} dependent pairs in {n_rounds} rounds; "
          f"min frequency {freq_min:.4f} >= {floor:.4f}")


def test_criterion_07_influence_bound():
    closed_ok = True
    for g, q, expect in ((random_regular(8, 3, seed=2), 7, 3 / 4),
                         (cycle(5), 7, 2 / 5), (path(2), 3, 1 / 2)):
        d = g.degrees.astype(float)
        direct = float((d / (q - d)).max())
        closed_ok &= dobrushin_alpha_coloring(g, q) == direct == expect
    worst = 0.0
    for q in (3, 5, 9):
        alpha = influence_matrix_numeric(coloring(path(2), q)).alpha
        worst = max(worst, abs(alpha - 1 / (q - 1)))
    _line(7, closed_ok and worst <= 1e-9,
          f"closed form exact; numeric pair-influence within {worst:.1e}")


def test_criterion_08_contraction_trend():
    # part one: the filter chain's fitted contraction rate is n-independent
    rates = {}
    for n in (16, 32, 64):
        curve = coupling_decay(coloring(cycle(n), 6), local_metropolis(),
                               ("zeros", "max"), 60, 2000, RandomTape(5))
        rates[n] = curve.rate
    spread = max(rates.values()) / min(rates.values())

    # part two: one-vertex-per-round scheduling pays a large round penalty
    inst = coloring(cycle(16), 6)
    fast = coupling_decay(inst, luby_glauber(), ("zeros", "max"), 60, 8000,
                          RandomTape(43))
    slow = coupling_decay(inst, luby_glauber(SchedulerSpec("single-site")),
                          ("zeros", "max"), 150, 8000, RandomTape(43))
    level = 0.25 * fast.phi[0]
    t_fast = crossing_round(fast, level)
    t_slow = crossing_round(slow, level)
    ratio = t_slow / t_fast
    _line(8, spread < 2.0 and ratio >= 5.0,
          f"rate spread x{spread:.3f} < 2 across n=16..64; "
          f"single-site/parallel round ratio {ratio:.2f} >= 5")


def test_criterion_09_correlation_decay():
    inst = coloring(path(12), 3)
    dist = range(3, 10)
    enum = [correlation_length(inst, 0, d, method="enumerate") for d in dist]
    transfer = [correlation_length(inst, 0, d, method="transfer") for d in dist]
    agree = max(abs(a - b) for a, b in zip(enum, transfer))
    decreasing = all(b < a for a, b in zip(enum, enum[1:]))
    ratio = max(b / a for a, b in zip(enum, enum[1:]))
    _line(9, agree <= 1e-12 and decreasing and ratio <= 0.9,
          f"methods agree within {agree:.1e}; strictly decreasing with "
          f"consecutive ratio <= {ratio:.3f}")


def test_criterion_10_locality_radius():
    inst = coloring(cycle(40), 4)
    u, rounds = 0, 5
    dist = inst.graph.distances(u)
    far = dist > rounds
    runs = np.array([0], dtype=np.int64)
    x0 = initial_config(inst, "greedy")
    violations = 0
    near_changed = 0
    for chain in (luby_glauber(), local_metropolis()):
        for seed in range(100):
            base = RandomTape(seed)
            salted = base.with_node_salt(u, 0xD1CE + seed, inst.n)
            a, _ = run_batch(inst, chain, x0, rounds, base, runs)
            b, _ = run_batch(inst, chain, x0, rounds, salted, runs)
            diff = a[0] != b[0]
            violations += int(np.sum(diff & far))
            near_changed += int(np.any(diff & ~far))
    _line(10, violations == 0 and near_changed > 0,
          f"0 changes beyond distance {rounds} across 200 seed pairs; "
          f"perturbation visible nearby in {near_changed} of them")


def test_criterion_11_thread_count_reproducibility(tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(
        "model = coloring\nmodel.q = 3\ngraph = cycle\ngraph.n = 6\n"
        "chain = luby_glauber\nrounds = 5\nn_runs = 6000\nseed = 9\n",
        encoding="utf-8")
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("LOCALGIBBS_")}
    # the CLI subprocess imports the same package this process tested
    src = os.path.dirname(os.path.dirname(localgibbs.__file__))
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    outs = []
    for threads in ("1", "8"):
        out = tmp_path / f"t{threads}"
        proc = subprocess.run(
            [sys.executable, "-m", "localgibbs.cli", "sample",
             "--config", str(cfg), "--output", str(out),
             "--threads", threads],
            capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        outs.append(out)
    a, b = outs
    same_samples = (a / "samples.jsonl").read_bytes() == (b / "samples.jsonl").read_bytes()
    same_marginals = (a / "marginals.csv").read_bytes() == (b / "marginals.csv").read_bytes()
    ma = json.loads((a / "manifest.json").read_text(encoding="utf-8"))
    mb = json.loads((b / "manifest.json").read_text(encoding="utf-8"))
    ma.pop("created_utc")
    mb.pop("created_utc")
    _line(11, same_samples and same_marginals and ma == mb,
          "1-thread and 8-thread runs byte-identical except the manifest "
          "timestamp")

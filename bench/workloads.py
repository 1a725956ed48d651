"""Workload definitions and output checks for the localgibbs benchmark.

Each workload is one `localgibbs` CLI call on a flat config. The benchmark
seed becomes the config's `seed`; `graph.seed` is pinned, so every seed runs
the same instance and does the same amount of work. Sizes keep one call
near two seconds on a 2-core machine, so a run holds several calls.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

DEFAULT_SEED = 1
MIXSCAN_STARTS = ("zeros", "max", "greedy", "random")

# Proper 8-colorings of one random 3-regular graph on 256 vertices.
_RR256 = """\
model = coloring
model.q = 8
graph = random_regular
graph.n = 256
graph.d = 3
graph.seed = 1702
initial = greedy
"""

# Criterion-01 instance: proper 3-colorings of a 4-cycle.
_C4 = """\
model = coloring
model.q = 3
graph = cycle
graph.n = 4
"""

_MIX_GRID = (0, 5, 10, 15, 20, 30, 40, 50, 60)


@dataclass(frozen=True)
class Workload:
    name: str
    command: str          # CLI subcommand
    config: str           # flat config without the seed line
    threads: int          # requested --threads, capped at nproc
    output: str           # result file whose sha256 is checked
    n: int                # vertices
    q: int
    runs: int             # runs per call (n_runs x starts)
    site_rounds: int      # site updates per call
    pinned_sha256: str    # digest of `output` at DEFAULT_SEED

    def config_text(self, seed: int) -> str:
        return f"{self.config}seed = {seed}\n"


WORKLOADS = {w.name: w for w in (
    Workload(
        name="sample-rr256-luby", command="sample",
        config=_RR256 + "chain = luby_glauber\nrounds = 16\nn_runs = 512\n",
        threads=1, output="samples.jsonl", n=256, q=8, runs=512,
        site_rounds=512 * 16 * 256,
        pinned_sha256=(
            "11054e089b6319af10fdc6459062426e09cb836d21481ade8fb180c46145522f")),
    Workload(
        name="sample-rr256-metropolis", command="sample",
        config=_RR256 + "chain = local_metropolis\nrounds = 4\n"
                        "n_runs = 8192\n",
        threads=2, output="samples.jsonl", n=256, q=8, runs=8192,
        site_rounds=8192 * 4 * 256,
        pinned_sha256=(
            "71ddab34d66ae1791473a68e3f61dc2893d9ed57114703dde20d73e11241d763")),
    Workload(
        name="mixscan-c4-luby", command="mix-scan",
        config=_C4 + "chain = luby_glauber\nrounds_grid = "
                     + ",".join(map(str, _MIX_GRID))
                     + "\nn_runs = 4096\nformat = json\n",
        threads=2, output="mixing.json", n=4, q=3,
        runs=4096 * len(MIXSCAN_STARTS),
        site_rounds=4096 * _MIX_GRID[-1] * 4 * len(MIXSCAN_STARTS),
        pinned_sha256=(
            "1bfb829fada896e482c0601242a1b37b5d4f90795ffe2635018ac851e0b9e2d4")),
)}


def sha256_of(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


@dataclass
class CallCheck:
    """Outcome of checking one call's output files."""

    digest: str
    failed_runs: int      # runs counted as failed by this call
    problems: list[str]
    info: dict


def check_samples(path: Path, wl: Workload, eu: np.ndarray,
                  ev: np.ndarray) -> CallCheck:
    """Every run present in order, spins in range, and (greedy start) every
    final configuration a proper coloring; the edge test is the benchmark's
    own, not the package's feasibility code."""
    problems = []
    final = np.full((wl.runs, wl.n), -1, dtype=np.int64)
    seen = 0
    with open(path, "rb") as fh:
        for i, line in enumerate(fh):
            rec = json.loads(line)
            if i >= wl.runs or rec["run"] != i or len(rec["spins"]) != wl.n:
                problems.append(f"{path.name}: bad record {i}")
                break
            final[i] = rec["spins"]
            seen += 1
    if seen != wl.runs:
        problems.append(f"{path.name}: {seen} runs, expected {wl.runs}")
    ok = ((final >= 0) & (final < wl.q)).all(axis=1)
    ok &= (final[:, eu] != final[:, ev]).all(axis=1)
    infeasible = int((~ok).sum())
    if infeasible:
        problems.append(f"{infeasible} final configurations infeasible")
    failed = wl.runs if seen != wl.runs else infeasible
    return CallCheck(sha256_of(path), failed, problems,
                     {"feasible_frac": float(ok.mean())})


def proper_coloring_count(n_cycle: int, q: int) -> int:
    """Proper q-colorings of an n-cycle, by brute force."""
    return sum(all(x[i] != x[(i + 1) % n_cycle] for i in range(n_cycle))
               for x in itertools.product(range(q), repeat=n_cycle))


def tv_tolerance(support: int, n_runs: int, starts: int,
                 delta: float = 1e-6) -> float:
    """Bound on the worst-start TV of n_runs exact samples from a law on
    `support` states, exceeded with probability below delta.

    E[TV] <= sqrt(support / n_runs) / 2 (Cauchy-Schwarz), and one sample
    moves the TV by at most 1/n_runs, so McDiarmid adds
    sqrt(ln(starts / delta) / (2 n_runs)) over a union of `starts` curves.
    Mixing bias at the last grid round is taken as negligible.
    """
    return (0.5 * math.sqrt(support / n_runs)
            + math.sqrt(math.log(starts / delta) / (2 * n_runs)))


def check_mixing(path: Path, wl: Workload) -> CallCheck:
    """Grid and start panel as configured, worst-start curve consistent,
    final-round TV to the exact law within tv_tolerance, tau_hat present."""
    doc = json.loads(path.read_text(encoding="utf-8"))
    problems = []
    n_runs = wl.runs // len(MIXSCAN_STARTS)
    if doc["rounds"] != list(_MIX_GRID):
        problems.append(f"grid {doc['rounds']} != {list(_MIX_GRID)}")
    if sorted(doc["per_initial"]) != sorted(MIXSCAN_STARTS):
        problems.append(f"starts {sorted(doc['per_initial'])}")
    else:
        worst = [max(col) for col in zip(*doc["per_initial"].values())]
        if worst != doc["tv"]:
            problems.append("tv is not the worst start per round")
    tol = tv_tolerance(proper_coloring_count(wl.n, wl.q), n_runs,
                       len(MIXSCAN_STARTS))
    final_tv = doc["tv"][-1]
    if not final_tv <= tol:
        problems.append(f"final TV {final_tv:.4f} > tolerance {tol:.4f}")
    if "tau_hat" not in doc:
        problems.append("tau_hat missing")
    failed = wl.runs if problems else 0
    return CallCheck(sha256_of(path), failed, problems,
                     {"final_tv": final_tv, "tv_tolerance": tol,
                      "tau_hat": doc.get("tau_hat")})

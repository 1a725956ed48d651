"""Benchmark of the localgibbs command line, end to end and per layer.

Usage (from the repository root):

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all [--trace 0|1]

One run executes one workload (see workloads.py) in this process through
`localgibbs.cli.main`, with the package imported from `src/`. It first makes
one untimed call at the default seed, whose output digest must equal the
pinned one, then repeats the call on `--seed` for `--seconds` seconds.

--trace 0 reports the end-to-end metrics with tracing off:
  site_rounds_per_s  site updates per call / call wall time, median of calls
  peak_rss_mb        peak resident set of this process (one workload only)
  setup_s            median over fresh interpreters of the import plus
                     load_config, build_graph, build_instance, build_chain
--trace 1 alternates untraced and traced calls (spans.py) and reports the
per-layer metrics, their coverage and the tracing overhead, then makes one
more call at 1 thread under tracemalloc for `chains.round_peak_alloc_mb`;
that call's digest must equal the digest at the workload's thread count.

Every call is checked (workloads.py); runs of a failed call, and infeasible
final configurations, count as failed. The last stdout line is one JSON
object with the keys correct, attempted, failed and metrics. Environment
details, checks and the spans of the last traced call go to `.bench_work/`.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

# A BLAS or OpenMP pool would add threads beyond the workload's --threads
# (and beyond nproc) in calls that reach linear algebra. The pins must be in
# the environment before numpy loads, hence before the imports below.
THREAD_PINS = {key: "1" for key in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}
os.environ.update(THREAD_PINS)

import numpy  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402
SETUP_REPEATS = 9

END_TO_END = (("site_rounds_per_s", "1/s"), ("peak_rss_mb", "MB"),
              ("setup_s", "s"))
PER_LAYER = (
    ("chains.self_s", "s"), ("chains.round_self_s", "s"),
    ("chains.round_ms_p50", "ms"), ("chains.round_ms_p90", "ms"),
    ("chains.round_samples", "count"), ("chains.round_peak_alloc_mb", "MB"),
    ("chains.select_self_s", "s"), ("chains.selected_frac", "frac"),
    ("chains.changed_frac", "frac"),
    ("randomness.self_s", "s"), ("randomness.words", "count"),
    ("randomness.ns_per_word", "ns"),
    ("engine.self_s", "s"), ("engine.busy_frac", "frac"),
    ("diagnostics.self_s", "s"), ("oracle.self_s", "s"),
    ("cli.self_s", "s"), ("cli.output_bytes", "bytes"),
    ("mrf.feasible_s", "s"),
    ("config.load_s", "s"), ("graphs.build_s", "s"), ("models.build_s", "s"),
    ("trace.coverage_frac", "frac"), ("trace.overhead_s", "s"),
    ("trace.overhead_frac", "frac"), ("trace.calls", "count"),
)


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def git_commit() -> str:
    """HEAD of a git checkout, read without running git; 'unknown' outside one."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "localgibbs").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


class Run:
    """One workload at one seed: calls the CLI, checks and tallies outputs."""

    def __init__(self, wl, seed: int, threads: int):
        from localgibbs import cli
        from localgibbs.config import build_graph, load_config
        self.wl, self.seed, self.threads, self.cli = wl, seed, threads, cli
        self.dir = WORK / wl.name
        self.out = self.dir / "out"
        self.dir.mkdir(parents=True, exist_ok=True)
        self.cfg = self.write_config(seed)
        self.attempted = self.failed = 0
        self.problems: list[str] = []
        self.info: dict = {}
        self.verified: set[str] = set()  # digests of outputs that passed
        graph = build_graph(load_config(str(self.cfg), wl.command))
        self.edges = (graph.eu, graph.ev)

    def write_config(self, seed: int) -> Path:
        path = self.dir / f"seed{seed}.cfg"
        path.write_text(self.wl.config_text(seed), encoding="utf-8")
        return path

    def call(self, cfg: Path, threads: int, expect: str | None = None,
             label: str = ""):
        """One CLI call; returns (start, end, digest). expect, when given, is
        the digest the output must have."""
        shutil.rmtree(self.out, ignore_errors=True)
        argv = [self.wl.command, "--config", str(cfg), "--output",
                str(self.out), "--threads", str(threads)]
        gc.collect()
        with contextlib.redirect_stdout(io.StringIO()):
            start = time.perf_counter()
            code = self.cli.main(argv)
            end = time.perf_counter()
        result = self.out / self.wl.output
        try:
            if code != 0:
                raise RuntimeError(f"exit code {code}")
            digest = workloads.sha256_of(result)
            if digest in self.verified:
                # same bytes as an output that passed: same verdict
                check = workloads.CallCheck(digest, 0, [], {})
            elif self.wl.command == "sample":
                check = workloads.check_samples(result, self.wl, *self.edges)
            else:
                check = workloads.check_mixing(result, self.wl)
        except (OSError, ValueError, KeyError, RuntimeError) as exc:
            check = workloads.CallCheck("", self.wl.runs,
                                        [f"{type(exc).__name__}: {exc}"], {})
        if not check.problems:
            self.verified.add(check.digest)
        if expect is not None and check.digest != expect:
            check.problems.append(f"{label} digest {check.digest[:12]} != "
                                  f"{expect[:12]}")
            check.failed_runs = self.wl.runs
        self.attempted += self.wl.runs
        self.failed += check.failed_runs
        self.problems += [f"{label}: {p}" for p in check.problems]
        self.info.update(check.info)
        return start, end, check.digest

    def output_bytes(self) -> int:
        return sum(p.stat().st_size for p in self.out.iterdir())

    def pinned_call(self) -> None:
        """Untimed warm-up at the default seed, checked against the pin."""
        self.call(self.write_config(workloads.DEFAULT_SEED), self.threads,
                  expect=self.wl.pinned_sha256, label="pinned seed")

    def setup_seconds(self) -> list[float]:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        times = []
        for _ in range(SETUP_REPEATS):
            done = subprocess.run(
                [sys.executable, str(BENCH / "setup_probe.py"), str(self.cfg),
                 self.wl.command], env=env, cwd=ROOT, capture_output=True,
                text=True, timeout=60, check=True)
            times.append(float(done.stdout.strip().splitlines()[-1]))
        return times


def timed_loop(seconds: float, step) -> None:
    """Call step() until the next call would end past `seconds`; at least once."""
    begin = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        step()
        last = time.perf_counter() - t0
        if time.perf_counter() - begin + last > seconds:
            return


def end_to_end(run: Run, seconds: float) -> dict:
    setup = run.setup_seconds()
    run.pinned_call()
    durations = []
    digests = []

    def step():
        start, end, digest = run.call(
            run.cfg, run.threads, expect=digests[0] if digests else None,
            label="seed repeat")
        digests.append(digest)
        durations.append(end - start)

    timed_loop(seconds, step)
    rates = [run.wl.site_rounds / d for d in durations]
    run.info.update(calls=len(durations), call_s=durations, setup_s=setup)
    return {
        "site_rounds_per_s": statistics.median(rates),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024,
        "setup_s": statistics.median(setup),
    }


def per_layer(run: Run, seconds: float) -> dict:
    run.pinned_call()
    untraced, summaries, digests = [], [], []
    last_spans: list = []

    def step():
        nonlocal last_spans
        start, end, digest = run.call(run.cfg, run.threads,
                                      expect=digests[0] if digests else None,
                                      label="untraced")
        digests.append(digest)
        untraced.append(end - start)
        tracer = spans.Tracer()
        tracer.install()
        try:
            start, end, _ = run.call(run.cfg, run.threads, expect=digests[0],
                                     label="traced")
        finally:
            tracer.uninstall()
        summary = spans.summarize(tracer.spans, tracer.counts, start, end,
                                  run.threads)
        summary["wall_s"] = end - start
        summary["cli.output_bytes"] = run.output_bytes()
        summaries.append(summary)
        if summary["trace.orphan_spans"]:
            run.problems.append(f"{summary['trace.orphan_spans']} spans "
                                "without a parent")
        last_spans = tracer.spans

    timed_loop(seconds, step)
    # thread invariance: the 1-thread output must equal the one above
    _, peak = spans.round_peak_alloc(
        lambda: run.call(run.cfg, 1, expect=digests[0], label="1 thread"))
    write_spans(run, last_spans)

    def med(key):
        return statistics.median(s[key] for s in summaries)

    round_ms = [ms for s in summaries for ms in s["chains.round_ms"]]
    p50, p90 = ((statistics.quantiles(round_ms, n=10)[4:9:4])
                if len(round_ms) > 1 else (round_ms or [0.0]) * 2)
    traced_wall = med("wall_s")
    base_wall = statistics.median(untraced)
    metrics = {name: med(name) for name, _ in PER_LAYER
               if name in summaries[0]}
    metrics.update({
        "chains.round_ms_p50": p50,
        "chains.round_ms_p90": p90,
        "chains.round_samples": len(round_ms),
        "chains.round_peak_alloc_mb": peak / 2 ** 20,
        "trace.overhead_s": traced_wall - base_wall,
        "trace.overhead_frac": (traced_wall - base_wall) / base_wall,
        "trace.calls": len(summaries),
    })
    return metrics


def write_spans(run: Run, recorded) -> None:
    path = WORK / "traces" / f"{run.wl.name}-seed{run.seed}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({"workload": run.wl.name, "seed": run.seed,
                                "spans": [dict(zip(("id", "parent", "layer",
                                                    "name", "start", "end"),
                                                   s)) for s in recorded]}))


def run_workload(name: str, seed: int, seconds: float, trace: int) -> int:
    if not (SRC / "localgibbs" / "__init__.py").is_file():
        print(f"error: no package at {SRC / 'localgibbs'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    wl = workloads.WORKLOADS[name]
    threads = min(wl.threads, nproc())
    run = Run(wl, seed, threads)
    metrics = (per_layer if trace else end_to_end)(run, seconds)
    units = dict(PER_LAYER if trace else END_TO_END)
    env = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "threads": threads, "nproc": nproc(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "git_commit": git_commit(), "src_sha256": src_digest(),
        "thread_pins": THREAD_PINS, "machine": platform.machine(),
    }
    record = {"env": env, "metrics": metrics, "info": run.info,
              "attempted": run.attempted, "failed": run.failed,
              "problems": run.problems}
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{name}-seed{seed}-trace{trace}.json").write_text(
        json.dumps(record, indent=1, default=str))

    print("env", json.dumps(env, sort_keys=True))
    for key in ("tau_hat", "final_tv", "tv_tolerance", "feasible_frac"):
        if key in run.info:
            print(f"info {key} {run.info[key]}")
    for problem in run.problems:
        print(f"check FAILED {problem}")
    print(f"check runs_failed_frac {run.failed / run.attempted} "
          f"({run.failed} of {run.attempted} runs)")
    for key, value in metrics.items():
        print(f"metric {key} {value} {units[key]}")
    correct = not run.problems and run.failed == 0
    print(json.dumps({
        "correct": correct, "attempted": run.attempted, "failed": run.failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()}}))
    return 0


def run_all(seed: int, seconds: float, trace: int) -> int:
    """Each workload in its own process, so peak RSS is that workload's."""
    ok = True
    for name in workloads.WORKLOADS:
        done = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds), "--trace",
             str(trace)], cwd=ROOT, capture_output=True, text=True,
            timeout=600)
        sys.stderr.write(done.stderr)
        lines = done.stdout.strip().splitlines()
        print(f"== {name}")
        for line in lines[:-1]:
            print("  " + line)
        result = json.loads(lines[-1]) if done.returncode == 0 and lines \
            else {"correct": False}
        ok &= result["correct"]
        print(f"  correct: {result['correct']}")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)
    return run_workload(args.workload, args.seed, args.seconds, args.trace)


if __name__ == "__main__":
    sys.exit(main())

"""Experiment runner.

Usage: ``localgibbs <subcommand> --config FILE [--output DIR] [--threads N]``

Subcommands: sample, mix-scan, balance-check, coupling, correlation, gamma.
Each reads one flat key=value config, runs its experiment, and writes a
manifest plus result files into the output directory. All randomness flows
from the config's ``seed``; nothing reads system entropy, so a rerun with
the same config reproduces every result file byte for byte. The manifest's
creation timestamp is the single exception.

The output directory comes from --output, else LOCALGIBBS_OUTPUT, else the
config's ``output`` key; the worker count from --threads, else
LOCALGIBBS_THREADS, else 1. Thread count never changes results.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from datetime import datetime, timezone

import numpy as np

from . import __version__
from .config import (COMMAND_NAMES, ConfigError, ExperimentConfig,
                     build_chain, build_graph, build_instance, load_config)
from .diagnostics import (correlation_length, coupling_decay,
                          luby_gamma_estimate, mixing_scan)
from .engine import run_chunked
from .mrf import _vertex_index, feasible_batch
from .oracle import (check_detailed_balance, enumerate_gibbs,
                     exact_transition_matrix)
from .randomness import RandomTape

ENV_OUTPUT = "LOCALGIBBS_OUTPUT"
ENV_THREADS = "LOCALGIBBS_THREADS"


def _utc_now() -> str:
    return datetime.now(timezone.utc).isoformat()


def _write_json(path: str, obj) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(obj, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _write_text(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def _write_csv(path: str, header, rows) -> None:
    """Header and rows as comma-joined lines of str() cells, None empty.
    Cells are numbers and fixed names, so none needs csv quoting."""
    text = "".join([",".join(["" if v is None else str(v) for v in row]) + "\n"
                    for row in (header, *rows)])
    _write_text(path, text)


def _write_result(out_dir: str, stem: str, fmt: str, header, rows,
                  json_obj) -> str:
    """One result structure, as a CSV table or a JSON document."""
    if fmt == "csv":
        target = os.path.join(out_dir, stem + ".csv")
        _write_csv(target, header, rows)
    else:
        target = os.path.join(out_dir, stem + ".json")
        _write_json(target, json_obj)
    return target


def _write_manifest(out_dir: str, cfg: ExperimentConfig) -> None:
    _write_json(os.path.join(out_dir, "manifest.json"), {
        "tool": "localgibbs",
        "version": __version__,
        "command": cfg.command,
        "config": cfg.resolved(),
        "created_utc": _utc_now(),
    })


def _experiment(cfg: ExperimentConfig):
    """Graph, instance, chain and tape of a config; the instance and chain
    are None for a command that takes no model or chain keys."""
    graph = build_graph(cfg)
    inst = build_instance(cfg, graph) if "model" in cfg.values else None
    chain = build_chain(cfg, graph) if "chain" in cfg.values else None
    return graph, inst, chain, RandomTape(cfg["seed"])


def _samples_jsonl(runs: np.ndarray, x: np.ndarray, q: int) -> bytes:
    """One b'{"run":r,"spins":[...]}\\n' line per column of a vertex-major
    (n, rows) batch x, r the column's entry of runs: the bytes of
    json.dumps({"run": r, "spins": column}, sort_keys=True,
    separators=(",", ":")).

    Every line is laid out at one length in a (rows, L) byte array: the run
    id right-justified to the width of the largest, then each spin's
    b"%d," token right-justified to the width of the widest, gathered from
    x in its own layout. Such a line holds no space but that padding, so
    one bytes.replace removes it from all lines at once.
    """
    n, rows = x.shape
    digits, width = len(b"%d" % runs.max()), len(b"%d," % (q - 1))
    tokens = np.frombuffer(b"".join([(b"%d," % s).rjust(width)
                                     for s in range(q)]),
                           np.dtype((np.void, width)))
    key = b'{"run":'
    head = key + b" " * digits + b',"spins":['
    out = np.empty((rows, len(head) + n * width + 2), np.uint8)
    out[:, :len(head)] = np.frombuffer(head, np.uint8)
    # the run id's slot: each place's digit, or a space above the id's
    # highest place
    place = 10 ** np.arange(digits - 1, -1, -1)
    lead = runs[:, None] // place
    out[:, len(key):len(key) + digits] = np.where(
        (lead > 0) | (place == 1), ord("0") + lead % 10, ord(" "))
    out[:, len(head):-2].view(tokens.dtype).T[...] = np.take(tokens, x)
    # over the last token's comma
    out[:, -3:] = np.frombuffer(b"]}\n", np.uint8)
    return out.tobytes().replace(b" ", b"")


def _marginals_csv(counts: np.ndarray, n_runs: int) -> str:
    """marginals.csv from (n, q) spin counts: what _write_csv writes for
    the rows (vertex, spin, count / n_runs), with str() called once per
    distinct frequency rather than once per cell."""
    distinct, pos = np.unique(counts, return_inverse=True)
    cells = [str(f) for f in (distinct / n_runs).tolist()]
    spins = [f",{s}," for s in range(counts.shape[1])]
    return "vertex,spin,frequency\n" + "".join(
        [f"{v}{spins[s]}{cells[p]}\n"
         for v, row in enumerate(pos.reshape(counts.shape).tolist())
         for s, p in enumerate(row)])


def cmd_sample(cfg: ExperimentConfig, out_dir: str, threads: int) -> int:
    _, inst, chain, tape = _experiment(cfg)
    n, q, rounds, n_runs = inst.n, inst.q, cfg["rounds"], cfg["n_runs"]

    # each worker encodes its chunk's lines and counts its spins and
    # feasible rows, all read from the carried (n, rows) batch in its own
    # layout; only these reductions reach the writer. One vertex index
    # serves both the counts and the feasibility test.
    def reduce(runs, x):
        vi = _vertex_index(inst, x)
        return (_samples_jsonl(runs, x, q),
                np.bincount(vi.ravel(), minlength=n * q),
                int(feasible_batch(inst, x.T, vi).sum()))

    chunks = run_chunked(inst, chain, rounds, n_runs, tape, (cfg["initial"],),
                         reduce, threads=threads)
    counts, feasible = np.zeros(n * q, dtype=np.int64), 0
    with open(os.path.join(out_dir, "samples.jsonl"), "wb") as fh:
        for chunk in chunks:
            lines, chunk_counts, chunk_feasible = chunk[rounds]
            fh.write(lines)
            counts += chunk_counts
            feasible += chunk_feasible

    if cfg["format"] == "csv":
        _write_text(os.path.join(out_dir, "marginals.csv"),
                    _marginals_csv(counts.reshape(n, q), n_runs))
    else:
        _write_json(os.path.join(out_dir, "marginals.json"), {
            "frequencies": (counts.reshape(n, q) / n_runs).tolist(),
            "n_runs": n_runs, "rounds": rounds, "seed": cfg["seed"]})

    print(f"sample: {n_runs} runs of {rounds} rounds; "
          f"feasible fraction {feasible / n_runs:.4f}")
    return 0


def cmd_mix_scan(cfg: ExperimentConfig, out_dir: str, threads: int) -> int:
    _, inst, chain, tape = _experiment(cfg)
    curve = mixing_scan(inst, chain, cfg["rounds_grid"], cfg["n_runs"], tape,
                        epsilon=cfg["epsilon"], threads=threads)

    rows = [(int(t), float(tv), None)
            for t, tv in zip(curve.rounds, curve.tv)]
    _write_result(out_dir, "mixing", cfg["format"],
                  ("round", "value", "stderr"), rows,
                  {"rounds": [int(t) for t in curve.rounds],
                   "tv": [float(x) for x in curve.tv],
                   "per_initial": {k: [float(x) for x in v]
                                   for k, v in curve.per_initial.items()},
                   "epsilon": curve.epsilon,
                   "tau_hat": curve.tau_hat,
                   "n_runs": curve.n_runs, "seed": cfg["seed"]})

    tau = "never" if curve.tau_hat is None else str(curve.tau_hat)
    print(f"mix-scan: worst-start TV {float(curve.tv[-1]):.4f} at round "
          f"{int(curve.rounds[-1])}; tau_hat({curve.epsilon:g}) = {tau}")
    return 0


def cmd_balance_check(cfg: ExperimentConfig, out_dir: str, threads: int) -> int:
    _, inst, chain, _ = _experiment(cfg)
    mu, _ = enumerate_gibbs(inst)
    P = exact_transition_matrix(chain, inst)
    report = check_detailed_balance(P, mu)

    rows = [("max_residual", float(report.max_residual), None),
            ("stationarity_gap", float(report.stationarity_gap), None)]
    _write_result(out_dir, "balance", cfg["format"],
                  ("quantity", "value", "stderr"), rows,
                  {"max_residual": float(report.max_residual),
                   "argmax_pair": list(report.argmax_pair),
                   "stationarity_gap": float(report.stationarity_gap),
                   "tol": report.tol, "ok": report.ok,
                   "dim": P.dim, "seed": cfg["seed"]})

    print(f"detailed-balance max residual: {report.max_residual:.3e}; "
          f"stationarity gap: {report.stationarity_gap:.3e}")
    return 0 if report.ok else 1


def cmd_coupling(cfg: ExperimentConfig, out_dir: str, threads: int) -> int:
    _, inst, chain, tape = _experiment(cfg)
    curve = coupling_decay(inst, chain, cfg["initial_pair"], cfg["rounds"],
                           cfg["n_runs"], tape, threads=threads)

    fitted = curve.fit_rounds is not None and not math.isnan(curve.rate)
    rows = [(int(t), float(phi), float(se))
            for t, phi, se in zip(curve.rounds, curve.phi, curve.stderr)]
    _write_result(out_dir, "coupling", cfg["format"],
                  ("round", "value", "stderr"), rows,
                  {"rounds": [int(t) for t in curve.rounds],
                   "phi": [float(x) for x in curve.phi],
                   "stderr": [float(x) for x in curve.stderr],
                   "rate": curve.rate if fitted else None,
                   "fit_rounds": list(curve.fit_rounds) if fitted else None,
                   "n_runs": curve.n_runs, "seed": cfg["seed"]})

    if fitted:
        a, b = curve.fit_rounds
        print(f"coupling: fitted contraction rate {curve.rate:.4f} per round "
              f"over rounds {a}..{b}")
    else:
        print("coupling: disagreement stayed below the noise floor; no rate fit")
    return 0


def cmd_correlation(cfg: ExperimentConfig, out_dir: str, threads: int) -> int:
    graph, inst, _, _ = _experiment(cfg)
    u = cfg["u"]
    if u >= graph.n:
        raise ConfigError("u", f"vertex {u} out of range for n={graph.n}")
    dist = graph.distances(u)
    pairs = []
    for d in cfg["distances"]:
        at_d = np.flatnonzero(dist == d)
        if len(at_d) == 0:
            raise ConfigError("distances",
                              f"no vertex at distance {d} from vertex {u}")
        pairs.append((d, int(at_d[0])))

    values = [(d, v, correlation_length(inst, u, v, delta=cfg["delta"]))
              for d, v in pairs]
    rows = [(d, float(c), None) for d, _, c in values]
    _write_result(out_dir, "correlation", cfg["format"],
                  ("distance", "value", "stderr"), rows,
                  {"u": u, "pairs": [[d, v] for d, v, _ in values],
                   "correlation": [float(c) for _, _, c in values],
                   "delta": cfg["delta"], "seed": cfg["seed"]})

    corrs = [c for _, _, c in values]
    decreasing = all(b < a for a, b in zip(corrs, corrs[1:]))
    print(f"correlation: {len(corrs)} distances, max {max(corrs):.6g}, "
          f"min {min(corrs):.6g}, strictly decreasing: "
          f"{'yes' if decreasing else 'no'}")
    return 0


def cmd_gamma(cfg: ExperimentConfig, out_dir: str, threads: int) -> int:
    graph, _, _, tape = _experiment(cfg)
    if cfg["rounds"] < 1:
        raise ConfigError("rounds", "gamma needs at least one round")
    report = luby_gamma_estimate(graph, cfg["rounds"], tape)

    rows = [(v, float(f), None) for v, f in enumerate(report.per_vertex)]
    _write_result(out_dir, "gamma", cfg["format"],
                  ("vertex", "value", "stderr"), rows,
                  {"per_vertex": [float(f) for f in report.per_vertex],
                   "rounds": report.rounds, "seed": cfg["seed"]})

    floor = 1.0 / (graph.max_degree() + 1)
    print(f"gamma: min selection frequency {report.min:.4f} over "
          f"{graph.n} vertices in {report.rounds} rounds "
          f"(local-maximum floor {floor:.4f})")
    return 0


_HANDLERS = {
    "sample": cmd_sample,
    "mix-scan": cmd_mix_scan,
    "balance-check": cmd_balance_check,
    "coupling": cmd_coupling,
    "correlation": cmd_correlation,
    "gamma": cmd_gamma,
}

assert set(_HANDLERS) == set(COMMAND_NAMES)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="localgibbs",
        description="Round-synchronous Gibbs sampler experiments.")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True,
                                metavar="subcommand")
    help_lines = {
        "sample": "run many independent chains, write final configurations",
        "mix-scan": "total variation to the exact distribution on a round grid",
        "balance-check": "exact transition matrix detailed-balance residuals",
        "coupling": "paired-run disagreement decay under shared randomness",
        "correlation": "exact point-to-point conditional correlations",
        "gamma": "per-vertex selection frequency of the local-maximum rule",
    }
    for name in COMMAND_NAMES:
        p = sub.add_parser(name, aliases=[name.replace("-", "_")],
                           help=help_lines[name])
        p.set_defaults(command=name)
        p.add_argument("--config", required=True,
                       help="path to a flat key=value config file")
        p.add_argument("--output", default=None,
                       help=f"output directory (overrides ${ENV_OUTPUT} "
                            "and the config's output key)")
        p.add_argument("--threads", type=int, default=None,
                       help=f"worker threads (overrides ${ENV_THREADS}; "
                            "never changes results)")
    return parser


def _resolve_output(cfg: ExperimentConfig, flag: str | None) -> str:
    if flag is not None:
        return flag
    env = os.environ.get(ENV_OUTPUT)
    if env:
        return env
    return cfg["output"]


def _resolve_threads(flag: int | None) -> int:
    source = "--threads"
    if flag is None:
        env = os.environ.get(ENV_THREADS)
        if env is None:
            return 1
        source = ENV_THREADS
        try:
            flag = int(env)
        except ValueError:
            raise ConfigError(source, f"expected an integer, got {env!r}")
    if flag < 1:
        raise ConfigError(source, f"must be at least 1, got {flag}")
    return flag


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config, args.command)
        threads = _resolve_threads(args.threads)
        out_dir = _resolve_output(cfg, args.output)
        os.makedirs(out_dir, exist_ok=True)
        _write_manifest(out_dir, cfg)
        return _HANDLERS[args.command](cfg, out_dir, threads)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

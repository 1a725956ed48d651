"""Flat key=value experiment configs with a strict schema.

A config file is plain text: one ``key = value`` per line, ``#`` comments,
blank lines ignored. Keys are flat but dotted (``model.q``), every key is
typed, and anything the schema or the chosen command does not know is
rejected outright so a typo cannot silently drop a parameter.

Resolution order for the output directory is command line flag, then the
LOCALGIBBS_OUTPUT environment variable, then the ``output`` key; thread
count follows the same order with LOCALGIBBS_THREADS. Neither can change
computed results, only where files land and how fast they appear.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .chains import (ChainSpec, SchedulerSpec, chromatic_classes,
                     local_metropolis, luby_glauber, sequential_glauber)
from .engine import PRESETS
from .graphs import (Graph, complete, cycle, grid, load_edge_list, path,
                     random_regular)
from .models import coloring, hardcore, ising, potts
from .mrf import MrfInstance


class ConfigError(ValueError):
    """Invalid config contents; `field` names the offending key or line."""

    def __init__(self, field_path: str, message: str):
        self.field = field_path
        super().__init__(f"{field_path}: {message}" if field_path else message)


def _as_int(text: str) -> int:
    try:
        return int(text, 10)
    except ValueError:
        raise ValueError(f"expected an integer, got {text!r}")


def _as_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise ValueError(f"expected a number, got {text!r}")
    if value != value or value in (float("inf"), float("-inf")):
        raise ValueError("must be finite")
    return value


def _int_atleast(lo: int):
    def parse(text: str) -> int:
        value = _as_int(text)
        if value < lo:
            raise ValueError(f"must be at least {lo}, got {value}")
        return value
    return parse


def _float_in(lo: float, hi: float):
    def parse(text: str) -> float:
        value = _as_float(text)
        if not (lo < value < hi):
            raise ValueError(f"must lie strictly between {lo} and {hi}")
        return value
    return parse


def _float_positive(text: str) -> float:
    value = _as_float(text)
    if value <= 0:
        raise ValueError(f"must be positive, got {value}")
    return value


def _choice(*options: str):
    def parse(text: str) -> str:
        if text not in options:
            raise ValueError(f"expected one of {', '.join(options)}, got {text!r}")
        return text
    return parse


def _int_list_increasing(lo: int):
    def parse(text: str) -> list[int]:
        parts = [p.strip() for p in text.split(",") if p.strip()]
        if not parts:
            raise ValueError("expected a comma-separated list of integers")
        values = [_as_int(p) for p in parts]
        for v in values:
            if v < lo:
                raise ValueError(f"entries must be at least {lo}, got {v}")
        if any(b <= a for a, b in zip(values, values[1:])):
            raise ValueError("entries must be strictly increasing")
        return values
    return parse


def _preset_pair(text: str) -> list[str]:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != 2 or not all(parts):
        raise ValueError("expected two presets separated by a comma")
    for p in parts:
        if p not in PRESETS:
            raise ValueError(f"expected presets from {', '.join(PRESETS)}, got {p!r}")
    return parts


# key -> (parser, default or None). Defaults apply only when the command
# allows the key; required keys have no default by definition.
_SCHEMA: dict[str, tuple] = {
    "model": (_choice("coloring", "hardcore", "ising", "potts"), None),
    "model.q": (_int_atleast(2), None),
    "model.lambda": (_float_positive, None),
    "model.beta": (_float_positive, None),
    "graph": (_choice("path", "cycle", "complete", "grid", "random_regular",
                      "file"), None),
    "graph.n": (_int_atleast(1), None),
    "graph.rows": (_int_atleast(1), None),
    "graph.cols": (_int_atleast(1), None),
    "graph.d": (_int_atleast(0), None),
    "graph.seed": (_int_atleast(0), None),
    "graph.file": (str, None),
    "chain": (_choice("luby_glauber", "local_metropolis",
                      "sequential_glauber"), None),
    "chain.scheduler": (_choice("luby", "chromatic", "single-site"), None),
    "rounds": (_int_atleast(0), None),
    "rounds_grid": (_int_list_increasing(0), None),
    "n_runs": (_int_atleast(1), None),
    "seed": (_int_atleast(0), None),
    "initial": (_choice(*PRESETS), "greedy"),
    "initial_pair": (_preset_pair, ["zeros", "max"]),
    "output": (str, "localgibbs-out"),
    "format": (_choice("json", "csv"), "csv"),
    "epsilon": (_float_in(0.0, 1.0), 0.05),
    "delta": (_float_in(0.0, 1.0), 0.1),
    "u": (_int_atleast(0), 0),
    "distances": (_int_list_increasing(1), None),
}

_MODEL_KEYS = ("model", "model.q", "model.lambda", "model.beta")
_GRAPH_KEYS = ("graph", "graph.n", "graph.rows", "graph.cols", "graph.d",
               "graph.seed", "graph.file")
_CHAIN_KEYS = ("chain", "chain.scheduler")
_BASE_KEYS = ("seed", "output", "format")

# command -> (required top-level keys, all allowed keys). Dependent
# requirements (model.q for coloring, graph.rows for grid, ...) are checked
# after the per-key parse.
_COMMANDS: dict[str, tuple[tuple[str, ...], tuple[str, ...]]] = {
    "sample": (
        ("model", "graph", "chain", "rounds", "n_runs", "seed"),
        _BASE_KEYS + _MODEL_KEYS + _GRAPH_KEYS + _CHAIN_KEYS
        + ("rounds", "n_runs", "initial"),
    ),
    "mix-scan": (
        ("model", "graph", "chain", "rounds_grid", "n_runs", "seed"),
        _BASE_KEYS + _MODEL_KEYS + _GRAPH_KEYS + _CHAIN_KEYS
        + ("rounds_grid", "n_runs", "epsilon"),
    ),
    "balance-check": (
        ("model", "graph", "chain", "seed"),
        _BASE_KEYS + _MODEL_KEYS + _GRAPH_KEYS + _CHAIN_KEYS,
    ),
    "coupling": (
        ("model", "graph", "chain", "rounds", "n_runs", "seed"),
        _BASE_KEYS + _MODEL_KEYS + _GRAPH_KEYS + _CHAIN_KEYS
        + ("rounds", "n_runs", "initial_pair"),
    ),
    "correlation": (
        ("model", "graph", "seed", "distances"),
        _BASE_KEYS + _MODEL_KEYS + _GRAPH_KEYS + ("u", "distances", "delta"),
    ),
    "gamma": (
        ("graph", "rounds", "seed"),
        _BASE_KEYS + _GRAPH_KEYS + ("rounds",),
    ),
}

COMMAND_NAMES = tuple(_COMMANDS)

# value of a discriminator key -> (required dependents, forbidden dependents)
_MODEL_DEPS = {
    "coloring": (("model.q",), ("model.lambda", "model.beta")),
    "hardcore": (("model.lambda",), ("model.q", "model.beta")),
    "ising": (("model.beta",), ("model.q", "model.lambda")),
    "potts": (("model.q", "model.beta"), ("model.lambda",)),
}
_GRAPH_DEPS = {
    "path": (("graph.n",), ("graph.rows", "graph.cols", "graph.d",
                            "graph.seed", "graph.file")),
    "cycle": (("graph.n",), ("graph.rows", "graph.cols", "graph.d",
                             "graph.seed", "graph.file")),
    "complete": (("graph.n",), ("graph.rows", "graph.cols", "graph.d",
                                "graph.seed", "graph.file")),
    "grid": (("graph.rows", "graph.cols"), ("graph.n", "graph.d",
                                            "graph.seed", "graph.file")),
    "random_regular": (("graph.n", "graph.d"), ("graph.rows", "graph.cols",
                                                "graph.file")),
    "file": (("graph.file",), ("graph.n", "graph.rows", "graph.cols",
                               "graph.d", "graph.seed")),
}


@dataclass(frozen=True)
class ExperimentConfig:
    """One validated experiment: a command plus its typed key values."""

    command: str
    values: dict = field(default_factory=dict)

    def __getitem__(self, key: str):
        return self.values[key]

    def get(self, key: str, default=None):
        return self.values.get(key, default)

    def resolved(self) -> dict:
        """JSON-ready copy of every key in effect, defaults included."""
        return {k: self.values[k] for k in sorted(self.values)}


def parse_config_text(text: str) -> dict[str, str]:
    """key = value lines to a raw string mapping; duplicates are errors."""
    raw: dict[str, str] = {}
    for line_no, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {line_no}", "expected key = value")
        key, _, value = stripped.partition("=")
        key = key.strip()
        value = value.split("#", 1)[0].strip() if "#" in value else value.strip()
        if not key:
            raise ConfigError(f"line {line_no}", "empty key")
        if key in raw:
            raise ConfigError(f"line {line_no}", f"duplicate key {key!r}")
        raw[key] = value
    return raw


def validate_config(raw: dict[str, str], command: str) -> ExperimentConfig:
    if command not in _COMMANDS:
        raise ConfigError("command", f"unknown command {command!r}")
    required, allowed = _COMMANDS[command]
    allowed_set = set(allowed)

    for key in raw:
        if key not in _SCHEMA:
            raise ConfigError(key, "unknown key")
        if key not in allowed_set:
            raise ConfigError(key, f"not a parameter of the {command} command")

    values: dict = {}
    for key, text in raw.items():
        parse, _ = _SCHEMA[key]
        try:
            values[key] = parse(text)
        except ValueError as exc:
            raise ConfigError(key, str(exc))

    for key in required:
        if key not in values:
            raise ConfigError(key, "required but missing")

    for discriminator, deps in (("model", _MODEL_DEPS), ("graph", _GRAPH_DEPS)):
        if discriminator in values:
            need, forbid = deps[values[discriminator]]
            for key in need:
                if key not in values:
                    raise ConfigError(
                        key, f"required for {discriminator} "
                             f"{values[discriminator]!r} but missing")
            for key in forbid:
                if key in values:
                    raise ConfigError(
                        key, f"not a parameter of {discriminator} "
                             f"{values[discriminator]!r}")

    if "chain.scheduler" in values:
        if values.get("chain") != "luby_glauber":
            raise ConfigError("chain.scheduler",
                              "only the luby_glauber chain takes a scheduler")

    # hardcore fixes q=2; a q key would be contradictory and is already
    # forbidden above, so only the coloring/potts q reaches the model builder.
    for key in allowed_set:
        _, default = _SCHEMA[key]
        if key not in values and default is not None:
            values[key] = default

    return ExperimentConfig(command, values)


def load_config(path: str, command: str) -> ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError("config", f"cannot read {path!r}: {exc}")
    return validate_config(parse_config_text(text), command)


def build_graph(cfg: ExperimentConfig) -> Graph:
    kind = cfg["graph"]
    if kind == "path":
        return path(cfg["graph.n"])
    if kind == "cycle":
        return cycle(cfg["graph.n"])
    if kind == "complete":
        return complete(cfg["graph.n"])
    if kind == "grid":
        return grid(cfg["graph.rows"], cfg["graph.cols"])
    if kind == "random_regular":
        return random_regular(cfg["graph.n"], cfg["graph.d"],
                              cfg.get("graph.seed", cfg["seed"]))
    return load_edge_list(cfg["graph.file"])


def build_instance(cfg: ExperimentConfig, graph: Graph) -> MrfInstance:
    name = cfg["model"]
    if name == "coloring":
        return coloring(graph, cfg["model.q"])
    if name == "hardcore":
        return hardcore(graph, cfg["model.lambda"])
    if name == "ising":
        return ising(graph, cfg["model.beta"])
    return potts(graph, cfg["model.q"], cfg["model.beta"])


def build_chain(cfg: ExperimentConfig, graph: Graph) -> ChainSpec:
    kind = cfg["chain"]
    if kind == "local_metropolis":
        return local_metropolis()
    if kind == "sequential_glauber":
        return sequential_glauber()
    variant = cfg.get("chain.scheduler", "luby")
    if variant == "chromatic":
        return luby_glauber(SchedulerSpec("chromatic", chromatic_classes(graph)))
    return luby_glauber(SchedulerSpec(variant))

"""Flat key=value experiment configs with a strict schema.

A config file is plain text: one ``key = value`` per line, ``#`` comments,
blank lines ignored. Keys are flat but dotted (``model.q``), every key is
typed, and anything the schema or the chosen command does not know is
rejected outright so a typo cannot silently drop a parameter.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .chains import (SCHEDULER_VARIANTS, ChainSpec, SchedulerSpec,
                     chromatic_classes, local_metropolis, luby_glauber,
                     sequential_glauber)
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


def _luby_glauber(cfg, graph: Graph) -> ChainSpec:
    variant = cfg.get("chain.scheduler", "luby")
    classes = chromatic_classes(graph) if variant == "chromatic" else None
    return luby_glauber(SchedulerSpec(variant, classes))


# kind -> (required keys, optional keys, builder). A group is the kind key
# plus its dotted keys in _SCHEMA; the rest of the group is forbidden.
_MODELS = {
    "coloring": (("model.q",), (), lambda c, g: coloring(g, c["model.q"])),
    "hardcore": (("model.lambda",), (),
                 lambda c, g: hardcore(g, c["model.lambda"])),
    "ising": (("model.beta",), (), lambda c, g: ising(g, c["model.beta"])),
    "potts": (("model.q", "model.beta"), (),
              lambda c, g: potts(g, c["model.q"], c["model.beta"])),
}
_GRAPHS = {
    "path": (("graph.n",), (), lambda c: path(c["graph.n"])),
    "cycle": (("graph.n",), (), lambda c: cycle(c["graph.n"])),
    "complete": (("graph.n",), (), lambda c: complete(c["graph.n"])),
    "grid": (("graph.rows", "graph.cols"), (),
             lambda c: grid(c["graph.rows"], c["graph.cols"])),
    # graph.seed defaults to the run seed
    "random_regular": (("graph.n", "graph.d"), ("graph.seed",),
                       lambda c: random_regular(c["graph.n"], c["graph.d"],
                                                c.get("graph.seed", c["seed"]))),
    "file": (("graph.file",), (), lambda c: load_edge_list(c["graph.file"])),
}
_CHAINS = {
    "luby_glauber": ((), ("chain.scheduler",), _luby_glauber),
    "local_metropolis": ((), (), lambda c, g: local_metropolis()),
    "sequential_glauber": ((), (), lambda c, g: sequential_glauber()),
}
# checked in this order, so the first group at fault is the one named
_GROUPS = {"model": _MODELS, "graph": _GRAPHS, "chain": _CHAINS}

# key -> (parser, default or None). Defaults apply only when the command
# allows the key; required keys have no default by definition.
_SCHEMA: dict[str, tuple] = {
    "model": (_choice(*_MODELS), None),
    "model.q": (_int_atleast(2), None),
    "model.lambda": (_float_positive, None),
    "model.beta": (_float_positive, None),
    "graph": (_choice(*_GRAPHS), None),
    "graph.n": (_int_atleast(1), None),
    "graph.rows": (_int_atleast(1), None),
    "graph.cols": (_int_atleast(1), None),
    "graph.d": (_int_atleast(0), None),
    "graph.seed": (_int_atleast(0), None),
    "graph.file": (str, None),
    "chain": (_choice(*_CHAINS), None),
    "chain.scheduler": (_choice(*SCHEDULER_VARIANTS), None),
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

# command -> (required keys, optional keys); naming a group allows its
# dotted keys, which its kind then requires or forbids.
_COMMANDS: dict[str, tuple[tuple[str, ...], tuple[str, ...]]] = {
    "sample": (("model", "graph", "chain", "rounds", "n_runs", "seed"),
               ("initial", "output", "format")),
    "mix-scan": (("model", "graph", "chain", "rounds_grid", "n_runs", "seed"),
                 ("epsilon", "output", "format")),
    "balance-check": (("model", "graph", "chain", "seed"),
                      ("output", "format")),
    "coupling": (("model", "graph", "chain", "rounds", "n_runs", "seed"),
                 ("initial_pair", "output", "format")),
    "correlation": (("model", "graph", "seed", "distances"),
                    ("u", "delta", "output", "format")),
    "gamma": (("graph", "rounds", "seed"), ("output", "format")),
}

COMMAND_NAMES = tuple(_COMMANDS)


def _group_keys(group: str) -> list[str]:
    return [k for k in _SCHEMA if k.startswith(group + ".")]


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
    required, optional = _COMMANDS[command]
    allowed_set = set(required + optional)
    for group in _GROUPS:
        if group in allowed_set:
            allowed_set.update(_group_keys(group))

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

    for group, kinds in _GROUPS.items():
        if group in values:
            kind = values[group]
            need, may, _ = kinds[kind]
            for key in need:
                if key not in values:
                    raise ConfigError(
                        key, f"required for {group} {kind!r} but missing")
            for key in _group_keys(group):
                if key in values and key not in need + may:
                    raise ConfigError(
                        key, f"not a parameter of {group} {kind!r}")

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
    return _GRAPHS[cfg["graph"]][2](cfg)


def build_instance(cfg: ExperimentConfig, graph: Graph) -> MrfInstance:
    return _MODELS[cfg["model"]][2](cfg, graph)


def build_chain(cfg: ExperimentConfig, graph: Graph) -> ChainSpec:
    return _CHAINS[cfg["chain"]][2](cfg, graph)

import hashlib
import itertools
import json

import pytest
from _naive import edge_pairs

from localgibbs.config import (ConfigError, build_chain, build_graph,
                               build_instance, load_config, parse_config_text,
                               validate_config)

SAMPLE_MIN = {
    "model": "coloring", "model.q": "4", "graph": "cycle", "graph.n": "6",
    "chain": "luby_glauber", "rounds": "10", "n_runs": "5", "seed": "0",
}


def test_parse_basic_lines():
    raw = parse_config_text(
        "# experiment\n"
        "\n"
        "model = coloring\n"
        "model.q = 4   # colors\n"
        "  graph=cycle\n")
    assert raw == {"model": "coloring", "model.q": "4", "graph": "cycle"}


def test_parse_duplicate_key_reports_line():
    with pytest.raises(ConfigError) as exc:
        parse_config_text("seed = 1\nseed = 2\n")
    assert exc.value.field == "line 2"
    assert "duplicate" in str(exc.value)


def test_parse_missing_equals():
    with pytest.raises(ConfigError) as exc:
        parse_config_text("model coloring\n")
    assert exc.value.field == "line 1"


def test_parse_empty_key():
    with pytest.raises(ConfigError):
        parse_config_text("= 3\n")


def test_validate_fills_defaults():
    cfg = validate_config(dict(SAMPLE_MIN), "sample")
    assert cfg.command == "sample"
    assert cfg["initial"] == "greedy"
    assert cfg["output"] == "localgibbs-out"
    assert cfg["format"] == "csv"
    assert cfg["model.q"] == 4
    assert cfg["rounds"] == 10


def test_resolved_is_sorted_and_complete():
    cfg = validate_config(dict(SAMPLE_MIN), "sample")
    res = cfg.resolved()
    assert list(res) == sorted(res)
    assert res["initial"] == "greedy"


def test_bad_value_names_the_key():
    raw = dict(SAMPLE_MIN, **{"model.q": "1"})
    with pytest.raises(ConfigError) as exc:
        validate_config(raw, "sample")
    assert exc.value.field == "model.q"
    raw = dict(SAMPLE_MIN, rounds="-1")
    with pytest.raises(ConfigError) as exc:
        validate_config(raw, "sample")
    assert exc.value.field == "rounds"
    raw = dict(SAMPLE_MIN, seed="eight")
    with pytest.raises(ConfigError) as exc:
        validate_config(raw, "sample")
    assert exc.value.field == "seed"


def test_unknown_key_rejected():
    raw = dict(SAMPLE_MIN, temperature="2.0")
    with pytest.raises(ConfigError) as exc:
        validate_config(raw, "sample")
    assert exc.value.field == "temperature"
    assert "unknown key" in str(exc.value)


def test_key_not_valid_for_command():
    raw = dict(SAMPLE_MIN, epsilon="0.1")  # mix-scan only
    with pytest.raises(ConfigError) as exc:
        validate_config(raw, "sample")
    assert "not a parameter of the sample command" in str(exc.value)


def test_missing_required_key():
    raw = dict(SAMPLE_MIN)
    del raw["rounds"]
    with pytest.raises(ConfigError) as exc:
        validate_config(raw, "sample")
    assert exc.value.field == "rounds"
    assert "required" in str(exc.value)


def test_unknown_command():
    with pytest.raises(ConfigError):
        validate_config(dict(SAMPLE_MIN), "simulate")


def test_model_dependent_keys():
    raw = dict(SAMPLE_MIN, model="hardcore")
    del raw["model.q"]
    with pytest.raises(ConfigError) as exc:
        validate_config(raw, "sample")  # lambda missing
    assert exc.value.field == "model.lambda"
    raw["model.lambda"] = "2.0"
    cfg = validate_config(raw, "sample")
    assert cfg["model.lambda"] == 2.0
    raw["model.q"] = "3"  # hardcore forbids q
    with pytest.raises(ConfigError) as exc:
        validate_config(raw, "sample")
    assert exc.value.field == "model.q"
    potts = dict(SAMPLE_MIN, model="potts")
    with pytest.raises(ConfigError) as exc:
        validate_config(potts, "sample")  # beta missing
    assert exc.value.field == "model.beta"
    potts["model.beta"] = "0.5"
    assert validate_config(potts, "sample")["model.beta"] == 0.5


def test_graph_dependent_keys():
    raw = dict(SAMPLE_MIN, graph="grid")
    with pytest.raises(ConfigError) as exc:
        validate_config(raw, "sample")
    assert exc.value.field == "graph.rows"
    del raw["graph.n"]
    raw["graph.rows"] = "3"
    raw["graph.cols"] = "4"
    cfg = validate_config(raw, "sample")
    assert cfg["graph.rows"] == 3
    raw["graph.n"] = "12"  # grid forbids n
    with pytest.raises(ConfigError) as exc:
        validate_config(raw, "sample")
    assert exc.value.field == "graph.n"


def test_scheduler_only_for_resampling_chain():
    raw = dict(SAMPLE_MIN, chain="local_metropolis")
    raw["chain.scheduler"] = "luby"
    with pytest.raises(ConfigError) as exc:
        validate_config(raw, "sample")
    assert exc.value.field == "chain.scheduler"
    assert "not a parameter of chain 'local_metropolis'" in str(exc.value)
    raw["chain"] = "luby_glauber"
    assert validate_config(raw, "sample")["chain.scheduler"] == "luby"


def test_rounds_grid_strictly_increasing():
    raw = {k: v for k, v in SAMPLE_MIN.items() if k != "rounds"}
    raw["rounds_grid"] = "0, 10, 50"
    cfg = validate_config(raw, "mix-scan")
    assert cfg["rounds_grid"] == [0, 10, 50]
    raw["rounds_grid"] = "0, 10, 10"
    with pytest.raises(ConfigError) as exc:
        validate_config(raw, "mix-scan")
    assert "strictly increasing" in str(exc.value)


def test_initial_pair_parsing():
    raw = dict(SAMPLE_MIN, initial_pair="zeros, max")
    cfg = validate_config(raw, "coupling")
    assert cfg["initial_pair"] == ["zeros", "max"]
    raw["initial_pair"] = "zeros"
    with pytest.raises(ConfigError):
        validate_config(raw, "coupling")
    raw["initial_pair"] = "zeros, warm"
    with pytest.raises(ConfigError):
        validate_config(raw, "coupling")


def test_epsilon_bounds():
    raw = {k: v for k, v in SAMPLE_MIN.items() if k != "rounds"}
    raw["rounds_grid"] = "0, 5"
    raw["epsilon"] = "0"
    with pytest.raises(ConfigError) as exc:
        validate_config(raw, "mix-scan")
    assert exc.value.field == "epsilon"
    raw["epsilon"] = "0.25"
    assert validate_config(raw, "mix-scan")["epsilon"] == 0.25


def test_correlation_command_keys():
    raw = {"model": "ising", "model.beta": "0.7", "graph": "path",
           "graph.n": "10", "seed": "1", "distances": "1, 2, 4", "u": "0"}
    cfg = validate_config(raw, "correlation")
    assert cfg["distances"] == [1, 2, 4]
    assert cfg["delta"] == 0.1
    bad = dict(raw, chain="luby_glauber")
    with pytest.raises(ConfigError) as exc:
        validate_config(bad, "correlation")
    assert "not a parameter of the correlation command" in str(exc.value)


def test_gamma_command_needs_no_model():
    raw = {"graph": "cycle", "graph.n": "8", "rounds": "100", "seed": "3"}
    cfg = validate_config(raw, "gamma")
    assert cfg["rounds"] == 100
    with pytest.raises(ConfigError):
        validate_config(dict(raw, model="coloring"), "gamma")


def test_load_config_round_trip(tmp_path):
    p = tmp_path / "exp.cfg"
    p.write_text("\n".join(f"{k} = {v}" for k, v in SAMPLE_MIN.items()) + "\n",
                 encoding="utf-8")
    cfg = load_config(str(p), "sample")
    assert cfg["graph.n"] == 6
    with pytest.raises(ConfigError) as exc:
        load_config(str(tmp_path / "missing.cfg"), "sample")
    assert exc.value.field == "config"


def test_build_graph_all_kinds(tmp_path):
    base = {"model": "coloring", "model.q": "5", "chain": "luby_glauber",
            "rounds": "1", "n_runs": "1", "seed": "7"}
    cases = [
        ({"graph": "path", "graph.n": "4"}, 4, 3),
        ({"graph": "cycle", "graph.n": "5"}, 5, 5),
        ({"graph": "complete", "graph.n": "4"}, 4, 6),
        ({"graph": "grid", "graph.rows": "2", "graph.cols": "3"}, 6, 7),
        ({"graph": "random_regular", "graph.n": "6", "graph.d": "2",
          "graph.seed": "5"}, 6, 6),
    ]
    for extra, n, m in cases:
        cfg = validate_config({**base, **extra}, "sample")
        g = build_graph(cfg)
        assert (g.n, g.m) == (n, m)
    edge_file = tmp_path / "g.edges"
    edge_file.write_text("3 2\n0 1\n1 2\n", encoding="utf-8")
    cfg = validate_config({**base, "graph": "file",
                           "graph.file": str(edge_file)}, "sample")
    g = build_graph(cfg)
    assert (g.n, g.m) == (3, 2)


def test_random_regular_falls_back_to_run_seed():
    base = {"model": "coloring", "model.q": "5", "chain": "luby_glauber",
            "rounds": "1", "n_runs": "1", "seed": "7",
            "graph": "random_regular", "graph.n": "8", "graph.d": "3"}
    g1 = build_graph(validate_config(dict(base), "sample"))
    g2 = build_graph(validate_config(dict(base, **{"graph.seed": "7"}),
                                     "sample"))
    assert edge_pairs(g1) == edge_pairs(g2)


def test_build_instance_all_models():
    shells = {
        "coloring": {"model": "coloring", "model.q": "3"},
        "hardcore": {"model": "hardcore", "model.lambda": "1.5"},
        "ising": {"model": "ising", "model.beta": "0.4"},
        "potts": {"model": "potts", "model.q": "4", "model.beta": "0.6"},
    }
    base = {"graph": "cycle", "graph.n": "4", "chain": "luby_glauber",
            "rounds": "1", "n_runs": "1", "seed": "0"}
    expect_q = {"coloring": 3, "hardcore": 2, "ising": 2, "potts": 4}
    for name, extra in shells.items():
        cfg = validate_config({**base, **extra}, "sample")
        g = build_graph(cfg)
        inst = build_instance(cfg, g)
        assert inst.q == expect_q[name]
        assert inst.n == 4


def test_build_chain_variants():
    base = dict(SAMPLE_MIN)
    cfg = validate_config(base, "sample")
    g = build_graph(cfg)
    assert build_chain(cfg, g).kind == "luby_glauber"
    assert build_chain(cfg, g).scheduler.variant == "luby"
    cfg = validate_config(dict(base, **{"chain.scheduler": "chromatic"}),
                          "sample")
    chain = build_chain(cfg, g)
    assert chain.scheduler.variant == "chromatic"
    classes = chain.scheduler.color_classes
    assert sorted(v for cls in classes for v in cls) == list(range(6))
    cfg = validate_config(dict(base, **{"chain.scheduler": "single-site"}),
                          "sample")
    assert build_chain(cfg, g).scheduler.variant == "single-site"
    cfg = validate_config(dict(base, chain="sequential_glauber"), "sample")
    assert build_chain(cfg, g).scheduler.variant == "single-site"
    cfg = validate_config(dict(base, chain="local_metropolis"), "sample")
    assert build_chain(cfg, g).scheduler is None


# One valid value per key; "temperature" is not a key at all.
_SWEEP_VALUES = {
    "model.q": "3", "model.lambda": "1.5", "model.beta": "0.5",
    "graph.n": "4", "graph.rows": "2", "graph.cols": "3", "graph.d": "2",
    "graph.seed": "5", "graph.file": "g.edges", "chain.scheduler": "chromatic",
    "rounds": "3", "rounds_grid": "0, 2", "n_runs": "2", "seed": "1",
    "initial": "random", "initial_pair": "max, zeros", "output": "out",
    "format": "json", "epsilon": "0.2", "delta": "0.3", "u": "1",
    "distances": "1, 2", "temperature": "2",
}
_SWEEP_GROUP_KEYS = [k for k in _SWEEP_VALUES if "." in k]
# group -> kind (None: the group is absent) -> the keys the kind needs
_SWEEP_KINDS = {
    "model": {None: (), "coloring": ("model.q",), "hardcore": ("model.lambda",),
              "ising": ("model.beta",), "potts": ("model.q", "model.beta")},
    "graph": {None: (), "path": ("graph.n",), "cycle": ("graph.n",),
              "complete": ("graph.n",), "grid": ("graph.rows", "graph.cols"),
              "random_regular": ("graph.n", "graph.d"),
              "file": ("graph.file",)},
    "chain": {None: (), "luby_glauber": (), "local_metropolis": (),
              "sequential_glauber": ()},
}
_SWEEP_COMMAND_NEEDS = {
    "sample": ("rounds", "n_runs", "seed"),
    "mix-scan": ("rounds_grid", "n_runs", "seed"),
    "balance-check": ("seed",),
    "coupling": ("rounds", "n_runs", "seed"),
    "correlation": ("seed", "distances"),
    "gamma": ("rounds", "seed"),
}


def _validation_sweep():
    """One JSON line per (command, raw config): the resolved values when
    the config is accepted, else the ConfigError field.

    For every command and every (model, graph, chain) kind combination,
    absent groups included, the base config holds the kinds and the keys
    they and the command need. The sweep validates the base, the base less
    each key, the base plus each single key, and the base plus each pair of
    group keys (so two forbidden keys meet)."""
    for command, needs in _SWEEP_COMMAND_NEEDS.items():
        for kinds in itertools.product(*(k.items() for k in _SWEEP_KINDS.values())):
            base = {}
            for group, (kind, kind_needs) in zip(_SWEEP_KINDS, kinds):
                if kind is not None:
                    base[group] = kind
                    base.update((k, _SWEEP_VALUES[k]) for k in kind_needs)
            base.update((k, _SWEEP_VALUES[k]) for k in needs)
            cases = [base]
            cases += [{k: v for k, v in base.items() if k != drop}
                      for drop in base]
            cases += [dict(base, **{k: v}) for k, v in _SWEEP_VALUES.items()]
            cases += [dict(base, **{a: _SWEEP_VALUES[a], b: _SWEEP_VALUES[b]})
                      for a, b in itertools.combinations(_SWEEP_GROUP_KEYS, 2)]
            for raw in cases:
                try:
                    outcome = ["ok", validate_config(raw, command).resolved()]
                except ConfigError as exc:
                    outcome = ["error", exc.field]
                yield json.dumps([command, list(raw.items()), outcome])


def test_validation_sweep_pinned():
    """What validate_config accepts, with the resolved values, and what it
    rejects, with the field it names, over 63,742 configs."""
    digest = hashlib.sha256()
    for line in _validation_sweep():
        digest.update(line.encode() + b"\n")
    assert digest.hexdigest() == (
        "82312377cd17de675492f0cda701d7f3c4093833612018329fc6767b55f7db70")

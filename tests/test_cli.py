import json
import re

import pytest

from localgibbs import cli, engine


def write_cfg(tmp_path, name, mapping):
    p = tmp_path / name
    p.write_text("".join(f"{k} = {v}\n" for k, v in mapping.items()),
                 encoding="utf-8")
    return str(p)


HARDCORE_SAMPLE = {
    "model": "hardcore", "model.lambda": "1.5", "graph": "path",
    "graph.n": "5", "chain": "luby_glauber", "rounds": "50",
    "n_runs": "10", "seed": "3",
}


@pytest.fixture(autouse=True)
def clean_env(monkeypatch):
    monkeypatch.delenv(cli.ENV_OUTPUT, raising=False)
    monkeypatch.delenv(cli.ENV_THREADS, raising=False)


def test_sample_writes_valid_configurations(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "s.cfg", HARDCORE_SAMPLE)
    out = tmp_path / "out"
    assert cli.main(["sample", "--config", cfg, "--output", str(out)]) == 0
    lines = (out / "samples.jsonl").read_text(encoding="utf-8").splitlines()
    assert len(lines) == 10
    path_edges = [(i, i + 1) for i in range(4)]
    for i, line in enumerate(lines):
        rec = json.loads(line)
        assert rec["run"] == i
        spins = rec["spins"]
        assert len(spins) == 5 and set(spins) <= {0, 1}
        assert not any(spins[a] and spins[b] for a, b in path_edges)
    header = (out / "marginals.csv").read_text(encoding="utf-8").splitlines()[0]
    assert header == "vertex,spin,frequency"
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["tool"] == "localgibbs"
    assert manifest["command"] == "sample"
    assert manifest["config"]["model.lambda"] == 1.5
    assert "feasible fraction 1.0000" in capsys.readouterr().out


def test_rerun_is_byte_identical_except_timestamp(tmp_path):
    cfg = write_cfg(tmp_path, "s.cfg", HARDCORE_SAMPLE)
    a, b = tmp_path / "a", tmp_path / "b"
    assert cli.main(["sample", "--config", cfg, "--output", str(a)]) == 0
    assert cli.main(["sample", "--config", cfg, "--output", str(b)]) == 0
    for name in ("samples.jsonl", "marginals.csv"):
        assert (a / name).read_bytes() == (b / name).read_bytes()
    ma = json.loads((a / "manifest.json").read_text(encoding="utf-8"))
    mb = json.loads((b / "manifest.json").read_text(encoding="utf-8"))
    ma.pop("created_utc")
    mb.pop("created_utc")
    assert ma == mb


def test_invalid_config_exits_2(tmp_path, capsys):
    bad = dict(HARDCORE_SAMPLE, model="coloring")
    bad["model.q"] = "1"
    del bad["model.lambda"]
    cfg = write_cfg(tmp_path, "bad.cfg", bad)
    assert cli.main(["sample", "--config", cfg,
                     "--output", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "model.q" in err


def test_missing_config_file_exits_2(tmp_path, capsys):
    assert cli.main(["sample", "--config", str(tmp_path / "nope.cfg"),
                     "--output", str(tmp_path / "o")]) == 2
    assert "config error" in capsys.readouterr().err


def test_balance_check_small_instance(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "b.cfg", {
        "model": "coloring", "model.q": "3", "graph": "path", "graph.n": "2",
        "chain": "local_metropolis", "seed": "0"})
    out = tmp_path / "out"
    assert cli.main(["balance-check", "--config", cfg,
                     "--output", str(out)]) == 0
    lines = (out / "balance.csv").read_text(encoding="utf-8").splitlines()
    assert lines[0] == "quantity,value,stderr"
    residual = float(lines[1].split(",")[1])
    assert residual <= 1e-10
    assert "max residual" in capsys.readouterr().out


def test_balance_check_unsupported_scheduler_exits_1(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "b.cfg", {
        "model": "coloring", "model.q": "4", "graph": "cycle", "graph.n": "4",
        "chain": "luby_glauber", "chain.scheduler": "chromatic", "seed": "0"})
    assert cli.main(["balance-check", "--config", cfg,
                     "--output", str(tmp_path / "o")]) == 1
    assert "error: UnsupportedScheduler" in capsys.readouterr().err


def test_oversized_state_space_exits_1(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "b.cfg", {
        "model": "coloring", "model.q": "3", "graph": "cycle", "graph.n": "20",
        "chain": "luby_glauber", "seed": "0"})
    assert cli.main(["balance-check", "--config", cfg,
                     "--output", str(tmp_path / "o")]) == 1
    assert "StateSpaceTooLarge" in capsys.readouterr().err


def test_mix_scan_curve(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "m.cfg", {
        "model": "coloring", "model.q": "3", "graph": "cycle", "graph.n": "4",
        "chain": "luby_glauber", "rounds_grid": "0, 10, 50",
        "n_runs": "3000", "seed": "1"})
    out = tmp_path / "out"
    assert cli.main(["mix-scan", "--config", cfg, "--output", str(out)]) == 0
    lines = (out / "mixing.csv").read_text(encoding="utf-8").splitlines()
    assert lines[0] == "round,value,stderr"
    vals = [float(line.split(",")[1]) for line in lines[1:]]
    assert len(vals) == 3
    assert vals[0] > vals[-1]
    assert vals[-1] <= 0.05
    assert all(line.endswith(",") for line in lines[1:])  # stderr left empty
    assert "tau_hat" in capsys.readouterr().out


def test_mix_scan_alias(tmp_path):
    cfg = write_cfg(tmp_path, "m.cfg", {
        "model": "coloring", "model.q": "4", "graph": "cycle", "graph.n": "4",
        "chain": "local_metropolis", "rounds_grid": "0, 5",
        "n_runs": "200", "seed": "2"})
    out = tmp_path / "out"
    assert cli.main(["mix_scan", "--config", cfg, "--output", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["command"] == "mix-scan"


def test_coupling_cli(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "c.cfg", {
        "model": "coloring", "model.q": "4", "graph": "cycle", "graph.n": "6",
        "chain": "local_metropolis", "rounds": "30", "n_runs": "500",
        "seed": "4", "initial_pair": "zeros, max"})
    out = tmp_path / "out"
    assert cli.main(["coupling", "--config", cfg, "--output", str(out)]) == 0
    lines = (out / "coupling.csv").read_text(encoding="utf-8").splitlines()
    assert lines[0] == "round,value,stderr"
    assert len(lines) == 32
    first = lines[1].split(",")
    assert float(first[1]) == 12.0  # six disagreeing vertices of degree two
    assert "contraction rate" in capsys.readouterr().out


def test_correlation_cli(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "r.cfg", {
        "model": "ising", "model.beta": "0.6", "graph": "path",
        "graph.n": "12", "seed": "0", "u": "0", "distances": "1, 2, 4"})
    out = tmp_path / "out"
    assert cli.main(["correlation", "--config", cfg, "--output", str(out)]) == 0
    lines = (out / "correlation.csv").read_text(encoding="utf-8").splitlines()
    assert lines[0] == "distance,value,stderr"
    vals = [float(line.split(",")[1]) for line in lines[1:]]
    assert vals[0] > vals[1] > vals[2] > 0
    assert "strictly decreasing: yes" in capsys.readouterr().out


def test_correlation_cli_past_the_enumeration_cap_on_a_path(tmp_path):
    # 3**1200 states: "auto" takes message passing; a proper 3-coloring of a
    # path forgets half its pin per hop
    cfg = write_cfg(tmp_path, "r.cfg", {
        "model": "coloring", "model.q": "3", "graph": "path",
        "graph.n": "1200", "seed": "0", "u": "0", "distances": "1, 2, 4"})
    out = tmp_path / "out"
    assert cli.main(["correlation", "--config", cfg, "--output", str(out)]) == 0
    lines = (out / "correlation.csv").read_text(encoding="utf-8").splitlines()
    vals = [float(line.split(",")[1]) for line in lines[1:]]
    assert vals == pytest.approx([0.5, 0.25, 0.0625], rel=0, abs=1e-12)


def test_correlation_cli_past_the_enumeration_cap_on_a_tree(tmp_path):
    # 4**12 states exceed the cap; on a tree each hop keeps a third of the pin
    edges = [(0, 1), (0, 2), (0, 3), (1, 4), (1, 5), (2, 6), (4, 7), (4, 8),
             (7, 9), (7, 10), (3, 11)]
    tree = tmp_path / "tree.edges"
    tree.write_text("12 11\n" + "".join(f"{a} {b}\n" for a, b in edges),
                    encoding="utf-8")
    cfg = write_cfg(tmp_path, "r.cfg", {
        "model": "coloring", "model.q": "4", "graph": "file",
        "graph.file": str(tree), "seed": "0", "u": "0",
        "distances": "1, 2, 3"})
    out = tmp_path / "out"
    assert cli.main(["correlation", "--config", cfg, "--output", str(out)]) == 0
    lines = (out / "correlation.csv").read_text(encoding="utf-8").splitlines()
    vals = [float(line.split(",")[1]) for line in lines[1:]]
    assert vals == pytest.approx([1 / 3, 1 / 9, 1 / 27], rel=0, abs=1e-12)


def test_correlation_unreachable_distance(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "r.cfg", {
        "model": "ising", "model.beta": "0.5", "graph": "path", "graph.n": "3",
        "seed": "0", "distances": "5"})
    assert cli.main(["correlation", "--config", cfg,
                     "--output", str(tmp_path / "o")]) == 2
    assert "distances" in capsys.readouterr().err


def test_gamma_cli(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "g.cfg", {
        "graph": "cycle", "graph.n": "8", "rounds": "2000", "seed": "6"})
    out = tmp_path / "out"
    assert cli.main(["gamma", "--config", cfg, "--output", str(out)]) == 0
    lines = (out / "gamma.csv").read_text(encoding="utf-8").splitlines()
    assert lines[0] == "vertex,value,stderr"
    assert len(lines) == 9
    vals = [float(line.split(",")[1]) for line in lines[1:]]
    assert all(0.25 <= v <= 0.45 for v in vals)  # inclusion probability 1/3
    assert "floor 0.3333" in capsys.readouterr().out


def test_gamma_zero_rounds_exits_2(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "g.cfg", {
        "graph": "cycle", "graph.n": "8", "rounds": "0", "seed": "6"})
    assert cli.main(["gamma", "--config", cfg,
                     "--output", str(tmp_path / "o")]) == 2
    assert "rounds" in capsys.readouterr().err


def test_output_env_override(tmp_path, monkeypatch):
    cfg = write_cfg(tmp_path, "s.cfg", HARDCORE_SAMPLE)
    env_dir = tmp_path / "from-env"
    monkeypatch.setenv(cli.ENV_OUTPUT, str(env_dir))
    assert cli.main(["sample", "--config", cfg]) == 0
    assert (env_dir / "samples.jsonl").exists()
    flag_dir = tmp_path / "from-flag"
    assert cli.main(["sample", "--config", cfg, "--output", str(flag_dir)]) == 0
    assert (flag_dir / "samples.jsonl").exists()
    assert not (env_dir / "marginals.json").exists()


def test_output_key_is_fallback(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfg = write_cfg(tmp_path, "s.cfg",
                    dict(HARDCORE_SAMPLE, output="keyed-out"))
    assert cli.main(["sample", "--config", cfg]) == 0
    assert (tmp_path / "keyed-out" / "samples.jsonl").exists()
    # the manifest records the config key, not where --output landed files
    out2 = tmp_path / "elsewhere"
    assert cli.main(["sample", "--config", cfg, "--output", str(out2)]) == 0
    manifest = json.loads((out2 / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["config"]["output"] == "keyed-out"


def test_json_format(tmp_path):
    cfg = write_cfg(tmp_path, "s.cfg", dict(HARDCORE_SAMPLE, format="json"))
    out = tmp_path / "out"
    assert cli.main(["sample", "--config", cfg, "--output", str(out)]) == 0
    assert not (out / "marginals.csv").exists()
    data = json.loads((out / "marginals.json").read_text(encoding="utf-8"))
    assert data["n_runs"] == 10
    assert len(data["frequencies"]) == 5
    for row in data["frequencies"]:
        assert sum(row) == pytest.approx(1.0)


def test_bad_thread_settings_exit_2(tmp_path, monkeypatch, capsys):
    cfg = write_cfg(tmp_path, "s.cfg", HARDCORE_SAMPLE)
    out = str(tmp_path / "o")
    assert cli.main(["sample", "--config", cfg, "--output", out,
                     "--threads", "0"]) == 2
    monkeypatch.setenv(cli.ENV_THREADS, "many")
    assert cli.main(["sample", "--config", cfg, "--output", out]) == 2
    err = capsys.readouterr().err
    assert "threads" in err.lower()


_HARDCORE_RUNS = dict(HARDCORE_SAMPLE, n_runs="200")
del _HARDCORE_RUNS["rounds"]


@pytest.mark.parametrize("command,keys,files", [
    ("sample", {"rounds": "50"}, ("samples.jsonl", "marginals.csv")),
    ("mix-scan", {"rounds_grid": "0, 5, 20"}, ("mixing.csv",)),
    ("coupling", {"rounds": "20", "initial_pair": "zeros, max"},
     ("coupling.csv",)),
], ids=["sample", "mix-scan", "coupling"])
def test_threads_flag_does_not_change_files(tmp_path, monkeypatch, command,
                                            keys, files):
    workers = []

    class CountingPool(engine.ThreadPoolExecutor):
        def __init__(self, max_workers):
            workers.append(max_workers)
            super().__init__(max_workers)

    monkeypatch.setattr(engine, "ThreadPoolExecutor", CountingPool)
    # the pool is capped at the usable cores; pretend there are enough
    monkeypatch.setattr(engine, "_usable_cores", lambda: 8)
    cfg = write_cfg(tmp_path, "s.cfg", dict(_HARDCORE_RUNS, **keys))
    a, b = tmp_path / "a", tmp_path / "b"
    assert cli.main([command, "--config", cfg, "--output", str(a),
                     "--threads", "1"]) == 0
    assert workers == []
    assert cli.main([command, "--config", cfg, "--output", str(b),
                     "--threads", "4"]) == 0
    assert workers == [4]
    for name in files:
        assert (a / name).read_bytes() == (b / name).read_bytes()


class _Done:
    """A finished future that records when its result is taken."""

    def __init__(self, value, taken):
        self.value, self.taken = value, taken

    def result(self):
        self.taken.append(self.value)
        return self.value


@pytest.fixture
def serial_pool(monkeypatch):
    """Replace the engine's pool with one that runs each chunk in the
    calling thread when it is submitted, so a huge --threads never starts a
    real thread. Records the requested widths, the submitted chunks, and,
    at each submission, how many chunks are submitted and not yet taken."""
    log = {"pools": [], "chunks": [], "ahead": []}
    taken = []

    class SerialPool:
        def __init__(self, max_workers):
            log["pools"].append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, span):
            log["chunks"].append(span)
            done = _Done(fn(span), taken)
            log["ahead"].append(len(log["chunks"]) - len(taken))
            return done

    monkeypatch.setattr(engine, "ThreadPoolExecutor", SerialPool)
    return log


def test_thread_count_is_capped_at_chunks_and_cores(tmp_path, monkeypatch,
                                                    serial_pool):
    pools, chunks = serial_pool["pools"], serial_pool["chunks"]
    monkeypatch.setattr(engine, "_usable_cores", lambda: 3)
    cfg = write_cfg(tmp_path, "s.cfg", dict(_HARDCORE_RUNS, rounds="5"))
    a, b = tmp_path / "a", tmp_path / "b"
    assert cli.main(["sample", "--config", cfg, "--output", str(a),
                     "--threads", "100000"]) == 0
    # chunks are sized for the 3 usable cores, not for 100000 threads
    assert pools == [3]
    assert chunks == [(0, 67), (67, 134), (134, 200)]
    assert cli.main(["sample", "--config", cfg, "--output", str(b),
                     "--threads", "1"]) == 0
    for name in ("samples.jsonl", "marginals.csv"):
        assert (a / name).read_bytes() == (b / name).read_bytes()

    # fewer chunks than cores: one worker per chunk
    monkeypatch.setattr(engine, "_usable_cores", lambda: 64)
    pools.clear()
    cfg = write_cfg(tmp_path, "t.cfg", dict(_HARDCORE_RUNS, rounds="5",
                                            n_runs="5"))
    assert cli.main(["sample", "--config", cfg, "--output", str(a),
                     "--threads", "100000"]) == 0
    assert pools == [5]


def test_chunks_in_flight_are_bounded(tmp_path, monkeypatch, serial_pool):
    # one run per chunk: 200 chunks on 3 workers
    monkeypatch.setattr(engine, "CHUNK_BYTES", 1)
    monkeypatch.setattr(engine, "_usable_cores", lambda: 3)
    cfg = write_cfg(tmp_path, "s.cfg", dict(_HARDCORE_RUNS, rounds="5"))
    a, b = tmp_path / "a", tmp_path / "b"
    assert cli.main(["sample", "--config", cfg, "--output", str(a),
                     "--threads", "3"]) == 0
    assert serial_pool["pools"] == [3]
    assert len(serial_pool["chunks"]) == 200
    # never more than 2 x workers chunks ahead of the writer, and the pool
    # is kept that full
    assert max(serial_pool["ahead"]) == 2 * 3
    assert cli.main(["sample", "--config", cfg, "--output", str(b),
                     "--threads", "1"]) == 0
    for name in ("samples.jsonl", "marginals.csv"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


_ODD_CYCLE_Q2 = {
    "model": "coloring", "model.q": "2", "graph": "cycle", "graph.n": "5",
    "chain": "luby_glauber", "rounds": "5", "n_runs": "50", "seed": "8",
}


def test_greedy_dead_end_fails_before_samples_are_opened(tmp_path, capsys):
    # an odd cycle has no proper 2-coloring: the greedy scan dead-ends
    cfg = write_cfg(tmp_path, "s.cfg", dict(_ODD_CYCLE_Q2, initial="greedy"))
    out = tmp_path / "out"
    assert cli.main(["sample", "--config", cfg, "--output", str(out)]) == 1
    assert "dead-ends at vertex 4" in capsys.readouterr().err
    assert not (out / "samples.jsonl").exists()


@pytest.mark.parametrize("threads", ["1", "2"])
def test_zero_marginal_during_sampling_exits_1(tmp_path, capsys, threads):
    # a random start puts differing spins around some vertex, which then
    # has no admissible color
    cfg = write_cfg(tmp_path, "s.cfg", dict(_ODD_CYCLE_Q2, initial="random"))
    assert cli.main(["sample", "--config", cfg, "--output",
                     str(tmp_path / "out"), "--threads", threads]) == 1
    err = capsys.readouterr().err
    assert re.search(r"error: ZeroMarginal: conditional marginal at vertex "
                     r"\d+ has zero mass in run \d+, round \d+", err), err

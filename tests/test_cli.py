import csv
import functools
import hashlib
import json
import math
import multiprocessing
import os
import re
import subprocess
import sys
from concurrent import futures
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from spinopt import evaluation
from spinopt.channel import ScenarioConfig, generate_instance, instance_from_json
from spinopt.cli import _write_json, load_config, main
from spinopt.evaluation import ALGORITHMS, ExperimentConfig
from spinopt.optimizer import EXHAUSTIVE_CAP

REPO = Path(__file__).resolve().parent.parent
CONFIG_DIR = REPO / "configs"


def write_config(tmp_path, **sections):
    data = {"schema": "spinopt.config/1", **sections}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(data))
    return str(path)


def tiny_eval_config(tmp_path, **experiment_overrides):
    experiment = {
        "algorithms": ["exhaustive", "mst_dp", "random"],
        "num_drops": 2,
        "frames_per_drop": 2,
        "master_seed": 11,
    }
    experiment.update(experiment_overrides)
    return write_config(
        tmp_path,
        scenario={"num_links": 3, "seed": 11},
        experiment=experiment,
    )


def data_files(out: Path) -> dict[str, bytes]:
    return {
        p.name: p.read_bytes()
        for p in sorted(out.iterdir())
        if p.name != "run_meta.json"
    }


def test_generate_writes_instance_and_topology(tmp_path, capsys):
    cfg = write_config(tmp_path, scenario={"num_links": 4, "seed": 9})
    out = tmp_path / "out"
    assert main(["generate", "--config", cfg, "--out", str(out)]) == 0
    inst = instance_from_json(json.loads((out / "instance.json").read_text()))
    assert inst.num_links == 4
    topo = json.loads((out / "topology.json").read_text())
    assert topo["graph"]["num_vertices"] == 4
    assert (out / "graph_edges.txt").exists()
    meta = json.loads((out / "run_meta.json").read_text())
    assert meta["command"] == "generate"
    assert "generated instance" in capsys.readouterr().out


def test_generate_is_byte_deterministic(tmp_path):
    cfg = write_config(tmp_path, scenario={"num_links": 5, "seed": 3})
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["generate", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["generate", "--config", cfg, "--out", str(out2)]) == 0
    assert data_files(out1) == data_files(out2)


def test_optimize_bundled_three_link_example(tmp_path, capsys):
    out = tmp_path / "out"
    code = main(
        ["optimize", "--config", str(CONFIG_DIR / "three_links.json"), "--out", str(out)]
    )
    assert code == 0
    result = json.loads((out / "result.json").read_text())
    exh = result["results"]["exhaustive"]["objective_exact"]
    dp = result["results"]["mst_dp"]["objective_exact"]
    rnd = result["results"]["random"]["objective_exact"]
    assert exh >= dp
    assert exh >= rnd
    assert result["results"]["mst_dp"]["objective_approx"] is not None
    assert {name: entry["algorithm"] for name, entry in result["results"].items()} == {
        name: name for name in ALGORITHMS
    }
    captured = capsys.readouterr().out
    assert "exhaustive" in captured and "mst_dp" in captured


# SHA-256 of the data files of generate, optimize, and optimize --instance on
# the generated instance.json, for configs/three_links.json
THREE_LINKS_DIGESTS = {
    "generate/graph_edges.txt": "09b0dae445667207009a93e47812fbffe185d29425ca106dd41093ef5682a3f8",
    "generate/instance.json": "952ced8c527f7f5cb473b1249f8b524976a89b8c8d332d491e4234f93802cd9f",
    "generate/topology.json": "7e58244156d1839f4acc1720f295d95ef9f7256db5c93ebe4e8db87d5767bdce",
    "optimize/result.json": "dabfa834d5685c9df0f2db720d959dfb6aa6be40381a1963ac72745d46c7ccd2",
    "optimize-instance/result.json": (
        "dabfa834d5685c9df0f2db720d959dfb6aa6be40381a1963ac72745d46c7ccd2"
    ),
}


def test_generate_and_optimize_data_files_match_golden_digests(tmp_path):
    cfg = str(CONFIG_DIR / "three_links.json")
    instance = str(tmp_path / "generate" / "instance.json")
    runs = {
        "generate": ["generate"],
        "optimize": ["optimize"],
        "optimize-instance": ["optimize", "--instance", instance],
    }
    digests = {}
    for name, command in runs.items():
        out = tmp_path / name
        assert main([*command, "--config", cfg, "--out", str(out)]) == 0
        for file_name, data in data_files(out).items():
            digests[f"{name}/{file_name}"] = hashlib.sha256(data).hexdigest()
        # optimize times each algorithm of the config, generate the whole command
        timing = json.loads((out / "run_meta.json").read_text())["timing"]
        assert set(timing) == set(ALGORITHMS if command[0] == "optimize" else ["elapsed_s"])
    assert digests == THREE_LINKS_DIGESTS


# SHA-256 of the data files of evaluate on configs/three_links.json and on
# the zero-baseline config below (null gains, empty plot cells), and of sweep
# on configs/sweep_links_asymmetric.json, all on one worker
EVALUATE_SWEEP_DIGESTS = {
    "evaluate/plot_data.csv": "b8df926661ad894fe0a68abccfda34aa296f676833e6f59887c594ed9132568f",
    "evaluate/samples.csv": "0af90bf8852f50a06ed2f404709b4e5830ee30b2756d74e6da91ada62ef9278a",
    "evaluate/summary.json": "4499b33cd002dc0575e160dedaffa90a060010eddd0dc028683bf19cd37e079c",
    "evaluate-zero-baseline/plot_data.csv": (
        "5429f347d09248931b67ab41b8bd368077dda5ca3ce398ae799c603081d0888f"
    ),
    "evaluate-zero-baseline/samples.csv": (
        "98dbc6e586fd304db53499501fb481367b521dcc214c1c7b1ad7b4682f991a6a"
    ),
    "evaluate-zero-baseline/summary.json": (
        "a676b682e1315a000746d6c9fe7a25199035627e4f411a2cf9e2c8bc198c24ad"
    ),
    "sweep/plot_data.csv": "2704fdc592d1afc8f82c15417ec604e6649be05079884fb00f6a3cf63767af8d",
    "sweep/summary.json": "543d7237f9e70762415d5bc7f8e95da7ce51e39c4b1fe991ccb816ae467d2965",
}


def test_evaluate_and_sweep_data_files_match_golden_digests(tmp_path):
    runs = {
        "evaluate": ["evaluate", "--config", str(CONFIG_DIR / "three_links.json")],
        "evaluate-zero-baseline": [
            "evaluate", "--config", write_config(tmp_path, **ZERO_BASELINE)
        ],
        "sweep": ["sweep", "--config", str(CONFIG_DIR / "sweep_links_asymmetric.json")],
    }
    digests = {}
    for name, command in runs.items():
        out = tmp_path / name
        assert main([*command, "--out", str(out), "--threads", "1", "--format", "both"]) == 0
        for file_name, data in data_files(out).items():
            digests[f"{name}/{file_name}"] = hashlib.sha256(data).hexdigest()
    assert digests == EVALUATE_SWEEP_DIGESTS


def test_large_m_evaluate_matches_bench_reference(tmp_path):
    # the benchmark's M = 200 workload at its reference seed, on one worker;
    # bench/reference.json is only read here
    reference = json.loads((REPO / "bench" / "reference.json").read_text())["opt_m200"]
    out = tmp_path / "out"
    args = [
        "evaluate", "--config", str(REPO / "bench" / "configs" / "opt_m200.json"),
        "--out", str(out), "--seed", str(reference["seed"]),
        "--threads", "1", "--format", "both",
    ]
    assert main(args) == 0
    digests = {name: hashlib.sha256(data).hexdigest() for name, data in data_files(out).items()}
    assert digests == reference["sha256"]


# A sparse drop (drop 0) whose spanning forest has six roots: three isolated
# links and trees of 2, 2 and 5 links; two graph edges are chords
FOREST = {
    "scenario": {
        "num_links": 12, "area_side": 1000.0, "link_mix": 0.5,
        "inr_edge_threshold": 1.0, "seed": 3,
    },
}

# SHA-256 of optimize's result.json on FOREST under each utility
FOREST_DIGESTS = {
    "proportional_fairness": "0b3a0314c3c0b8ffcf66e16b58b24560c6f6283de9af3ec890a2addf231f43e3",
    "two_way_sum_rate": "de75d6adebc97c50b909d30b914a64ecf49bd28da64cf09d5eb0eceda2221f83",
}


@pytest.mark.parametrize("utility", sorted(FOREST_DIGESTS))
def test_optimize_on_a_forest_matches_golden_digest(tmp_path, utility):
    cfg = write_config(tmp_path, **FOREST, experiment={"utility": utility})
    out = tmp_path / "out"
    assert main(["optimize", "--config", cfg, "--out", str(out)]) == 0
    data = (out / "result.json").read_bytes()
    assert len(json.loads(data)["tree"]["roots"]) == 6
    assert hashlib.sha256(data).hexdigest() == FOREST_DIGESTS[utility]


def test_one_worker_commands_do_not_import_multiprocessing(tmp_path):
    # the process pool's module imports multiprocessing; only a pool needs it
    script = (
        "import sys\n"
        "from spinopt.cli import main\n"
        f"code = main(['evaluate', '--config', {tiny_eval_config(tmp_path)!r},"
        f" '--out', {str(tmp_path / 'out')!r}, '--threads', '1'])\n"
        "print(code, 'multiprocessing' in sys.modules)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
    )
    assert proc.stdout.splitlines()[-1] == "0 False"


def test_importing_the_cli_leaves_numpy_random_unimported():
    # numpy.random costs 13-22 ms to import; the fading streams' seed adapter
    # is built on first use, so only a run that draws imports it
    script = "import sys\nimport spinopt.cli\nprint('numpy.random' in sys.modules)\n"
    env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
    )
    assert proc.stdout.splitlines()[-1] == "False"


def test_only_samples_csv_imports_orjson(tmp_path):
    # orjson formats samples.csv; a cold import costs ~14 ms, so the CLI's
    # import, sweep and a JSON-only evaluate must not load it
    cfg = write_config(
        tmp_path,
        scenario={"num_links": 2, "seed": 3},
        experiment={"num_drops": 1, "frames_per_drop": 2},
        sweep={"parameter": "num_links", "values": [2, 3]},
    )
    runs = [("sweep", "both"), ("evaluate", "json"), ("evaluate", "csv")]
    commands = [
        [command, "--config", cfg, "--out", str(tmp_path / f"out{i}"), "--format", fmt]
        + ["--threads", "1"]
        for i, (command, fmt) in enumerate(runs)
    ]
    script = (
        "import sys\n"
        "from spinopt.cli import main\n"
        "print('loaded:', 'orjson' in sys.modules)\n"
        f"for command in {commands!r}:\n"
        "    print('loaded:', main(command), 'orjson' in sys.modules)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
    )
    loaded = [line for line in proc.stdout.splitlines() if line.startswith("loaded:")]
    assert loaded == ["loaded: False", "loaded: 0 False", "loaded: 0 False", "loaded: 0 True"]


def test_optimize_accepts_saved_instance(tmp_path):
    cfg = write_config(tmp_path, scenario={"num_links": 3, "seed": 4})
    gen_out = tmp_path / "gen"
    assert main(["generate", "--config", cfg, "--out", str(gen_out)]) == 0
    opt_out = tmp_path / "opt"
    code = main(
        [
            "optimize",
            "--config",
            cfg,
            "--instance",
            str(gen_out / "instance.json"),
            "--out",
            str(opt_out),
            "--algorithms",
            "mst_dp,random",
        ]
    )
    assert code == 0
    result = json.loads((opt_out / "result.json").read_text())
    assert set(result["results"]) == {"mst_dp", "random"}


def test_evaluate_outputs_and_determinism(tmp_path):
    cfg = tiny_eval_config(tmp_path)
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    for out in (out1, out2):
        code = main(
            ["evaluate", "--config", cfg, "--out", str(out), "--threads", "1"]
        )
        assert code == 0
        assert (out / "summary.json").exists()
        assert (out / "samples.csv").exists()
        assert (out / "plot_data.csv").exists()
    assert data_files(out1) == data_files(out2)


def test_evaluate_deterministic_across_thread_counts(tmp_path):
    cfg = tiny_eval_config(tmp_path)
    out1, out2 = tmp_path / "t1", tmp_path / "t2"
    assert main(["evaluate", "--config", cfg, "--out", str(out1), "--threads", "1"]) == 0
    assert main(["evaluate", "--config", cfg, "--out", str(out2), "--threads", "2"]) == 0
    assert data_files(out1) == data_files(out2)


def test_evaluate_format_selects_outputs(tmp_path):
    cfg = tiny_eval_config(tmp_path)
    out = tmp_path / "jsononly"
    assert main(
        ["evaluate", "--config", cfg, "--out", str(out), "--threads", "1", "--format", "json"]
    ) == 0
    assert (out / "summary.json").exists()
    assert not (out / "samples.csv").exists()


def test_evaluate_seed_override_changes_data(tmp_path):
    cfg = tiny_eval_config(tmp_path)
    out1, out2 = tmp_path / "s1", tmp_path / "s2"
    assert main(["evaluate", "--config", cfg, "--out", str(out1), "--threads", "1"]) == 0
    assert (
        main(
            ["evaluate", "--config", cfg, "--out", str(out2), "--threads", "1", "--seed", "99"]
        )
        == 0
    )
    assert data_files(out1) != data_files(out2)
    summary = json.loads((out2 / "summary.json").read_text())
    assert summary["experiment"]["master_seed"] == 99
    assert summary["scenario"]["seed"] == 99


def test_sweep_writes_one_plot_row_per_point_and_algorithm(tmp_path):
    cfg = write_config(
        tmp_path,
        scenario={"num_links": 2, "seed": 5},
        experiment={
            "algorithms": ["mst_dp", "random"],
            "num_drops": 1,
            "frames_per_drop": 2,
            "master_seed": 5,
        },
        sweep={"parameter": "num_links", "values": [2, 3]},
    )
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", cfg, "--out", str(out), "--threads", "1"]) == 0
    rows = (out / "plot_data.csv").read_text().strip().splitlines()
    assert len(rows) == 1 + 2 * 2
    summary = json.loads((out / "summary.json").read_text())
    assert summary["parameter"] == "num_links"
    assert [p["scenario"]["num_links"] for p in summary["points"]] == [2, 3]


@pytest.mark.parametrize("command", ["evaluate", "sweep"])
@pytest.mark.parametrize("threads", ["0", "-3"])
def test_threads_below_one_is_an_error(tmp_path, capsys, command, threads):
    cfg = write_config(
        tmp_path,
        scenario={"num_links": 2, "seed": 5},
        experiment={"num_drops": 1, "frames_per_drop": 1},
        sweep={"parameter": "num_links", "values": [2]},
    )
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--out", str(out), "--threads", threads]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and f"workers must be >= 1, got {threads}" in err
    assert not out.exists()


def test_non_finite_bandwidth_is_rejected(tmp_path, capsys):
    # json.dumps writes NaN as a bare token, which json.load reads back
    cfg = tiny_eval_config(tmp_path, bandwidth_hz=float("nan"))
    out = tmp_path / "out"
    assert main(["evaluate", "--config", cfg, "--out", str(out), "--threads", "1"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "bandwidth_hz" in err
    assert not (out / "summary.json").exists()


def test_data_files_refuse_non_finite_floats(tmp_path):
    with pytest.raises(ValueError):
        _write_json(tmp_path / "summary.json", {"mean_objective": float("-inf")})
    assert not (tmp_path / "summary.json").exists()


def test_rejects_unknown_scenario_key(tmp_path, capsys):
    cfg = write_config(tmp_path, scenario={"num_links": 3, "wrong_key": 1})
    assert main(["generate", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    assert "wrong_key" in capsys.readouterr().err


def test_rejects_unknown_experiment_key(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        scenario={"num_links": 3},
        experiment={"num_drops": 1, "oops": True},
    )
    assert main(["evaluate", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    assert "oops" in capsys.readouterr().err


EXHAUSTIVE_LINKS = EXHAUSTIVE_CAP + 1
EXHAUSTIVE_ONLY = {"experiment": {"algorithms": ["exhaustive"]}}


@pytest.mark.parametrize("command", ["generate", "optimize", "evaluate", "sweep"])
@pytest.mark.parametrize(
    "sections, bad_key",
    [
        ({"experiment": {"num_dropz": 1}}, "num_dropz"),
        ({"sweep": {"valuez": [2]}}, "valuez"),
        ({"sweep": {"parameter": "area"}}, "area"),
        ({"experiment": ["num_drops"]}, "experiment"),
        # wrong types: each once crashed with a traceback or ran silently
        ({"scenario": {"num_links": "10"}}, "num_links"),
        ({"scenario": {"num_links": 10.5}}, "num_links"),
        ({"scenario": {"num_links": True}}, "num_links"),
        ({"scenario": {"area_side": None}}, "area_side"),
        ({"scenario": {"area_side": math.inf}}, "area_side"),
        ({"scenario": {"pathloss_exp": True}}, "pathloss_exp"),
        ({"scenario": {"shadow_sigma_db": math.nan}}, "shadow_sigma_db"),
        ({"experiment": {"num_drops": "2"}}, "num_drops"),
        ({"experiment": {"frames_per_drop": 2.5}}, "frames_per_drop"),
        ({"experiment": {"percentile_q": "0.05"}}, "percentile_q"),
        ({"experiment": {"bandwidth_hz": True}}, "bandwidth_hz"),
        ({"experiment": {"master_seed": -1}}, "master_seed"),
        ({"experiment": {"algorithms": "mst_dp"}}, "algorithms"),
        ({"sweep": {"values": [2, "x"]}}, "values"),
        # an integral float is not an int
        ({"scenario": {"num_links": 4.0}}, "num_links"),
        ({"scenario": {"seed": 1.0}}, "seed"),
        ({"experiment": {"num_drops": 1.0}}, "num_drops"),
        ({"experiment": {"master_seed": 2.0}}, "master_seed"),
        # the cap is a constant, not a config key
        ({"experiment": {"exhaustive_cap": "20"}}, "exhaustive_cap"),
        ({"experiment": {"exhaustive_cap": 20}}, "exhaustive_cap"),
        # every command refuses an infeasible exhaustive search
        ({"scenario": {"num_links": EXHAUSTIVE_LINKS}, **EXHAUSTIVE_ONLY}, "infeasible"),
        ({"sweep": {"values": [2, EXHAUSTIVE_LINKS]}, **EXHAUSTIVE_ONLY}, "values"),
        # every command refuses a run beyond the memory budget
        ({"scenario": {"num_links": 100000}}, "num_links"),
        ({"experiment": {"num_drops": 10**6, "frames_per_drop": 10**6}}, "frames_per_drop"),
        ({"sweep": {"values": [2, 100000]}}, "values"),
        # finite in dB, beyond the float range as a linear ratio
        ({"scenario": {"snr_sym_db": 4000}}, "snr_sym_db"),
        ({"scenario": {"snr_asym_rl_db": 4000}}, "snr_asym_rl_db"),
        # a bandwidth at which the pooled rates could overflow
        ({"experiment": {"bandwidth_hz": 1e308}}, "bandwidth_hz"),
        ({"experiment": {"bandwidth_hz": 1e303, "num_drops": 100}}, "bandwidth_hz"),
        # a top-level key outside the sections
        ({"sweeps": {}}, "unknown top-level key(s) ['sweeps']"),
    ],
)
def test_every_command_enforces_one_config_contract(tmp_path, capsys, command, sections, bad_key):
    config = {
        "scenario": {"num_links": 2, "seed": 1},
        "experiment": {"num_drops": 1, "frames_per_drop": 1},
        "sweep": {"parameter": "num_links", "values": [2]},
    }
    for name, section in sections.items():
        both_objects = isinstance(section, dict) and isinstance(config.get(name), dict)
        config[name] = {**config[name], **section} if both_objects else section
    cfg = write_config(tmp_path, **config)
    out = tmp_path / "o"
    argv = [command, "--config", cfg, "--out", str(out)]
    if command in ("evaluate", "sweep"):
        argv += ["--threads", "1"]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1 and bad_key in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["generate", "optimize", "evaluate", "sweep"])
@pytest.mark.parametrize("scenario", [{"d_sym": 1e300}, {"shadow_sigma_db": 5000}])
def test_overflowing_gains_name_the_keys_that_scale_them(tmp_path, capsys, command, scenario):
    # a valid config whose drop's gains overflow: one error line naming the
    # drop seed and every key that scales the gains, no numpy warning and no
    # output directory
    cfg = write_config(
        tmp_path,
        scenario={"num_links": 3, "seed": 1, "link_mix": 1.0, **scenario},
        experiment={"num_drops": 1, "frames_per_drop": 1},
        sweep={"parameter": "num_links", "values": [3]},
    )
    argv = [command, "--config", cfg, "--out", str(tmp_path / "o")]
    if command in ("evaluate", "sweep"):
        argv += ["--threads", "1"]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: drop seed ") and err.count("\n") == 1
    keys = ("shadow_sigma_db", "pathloss_exp", "d_sym", "d_asym", "area_side", "snr_sym_db")
    assert all(key in err for key in keys)
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", ["evaluate", "sweep"])
def test_a_faded_snr_that_overflows_names_the_keys_that_scale_it(tmp_path, capsys, command):
    # valid long-term gains whose fading lifts the SNR of 1e308 past the
    # float range: one error line naming the drop seed and the keys that
    # scale the SNR, no numpy warning (pytest turns one into an error) and
    # no output directory
    cfg = write_config(
        tmp_path,
        scenario={
            "num_links": 1, "link_mix": 1.0, "snr_sym_db": 3080, "shadow_sigma_db": 0, "seed": 3
        },
        experiment={
            "algorithms": ["mst_dp", "random"], "num_drops": 5, "frames_per_drop": 20,
            "master_seed": 1,
        },
        sweep={"parameter": "num_links", "values": [1]},
    )
    argv = [command, "--config", cfg, "--out", str(tmp_path / "o"), "--threads", "1"]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: drop seed ") and err.count("\n") == 1
    keys = ("shadow_sigma_db", "snr_sym_db", "snr_asym_lr_db", "snr_asym_rl_db")
    assert "faded SNR" in err and all(key in err for key in keys)
    assert not (tmp_path / "o").exists()


def test_an_overflowing_inr_off_the_graph_leaves_the_rates_finite(tmp_path):
    # INRs near 1e304 with an edge threshold of 1e308: the graph has no edge,
    # so fading that lifts a long-term INR past the float range selects
    # nothing; the run writes finite rates, and with no edge every spin
    # assignment gives mst_dp the rates of the random baseline
    cfg = write_config(
        tmp_path,
        scenario={
            "num_links": 3, "link_mix": 1.0, "snr_sym_db": 3040, "shadow_sigma_db": 0,
            "inr_edge_threshold": 1e308, "seed": 3,
        },
        experiment={
            "algorithms": ["mst_dp", "random"], "num_drops": 50, "frames_per_drop": 100,
            "master_seed": 1,
        },
    )
    out = tmp_path / "o"
    assert main(["evaluate", "--config", cfg, "--out", str(out), "--threads", "1"]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["mean_graph_edges"] == 0
    rates = {}
    with open(out / "samples.csv", newline="") as fh:
        for row in csv.DictReader(fh):
            rates.setdefault(row["algorithm"], []).append(row["rate_bps"])
    assert len(rates["mst_dp"]) == 50 * 100 * 3
    assert rates["mst_dp"] == rates["random"]
    assert all(math.isfinite(float(rate)) for rate in rates["mst_dp"])


@pytest.mark.parametrize("command", ["generate", "optimize", "evaluate", "sweep"])
def test_coincident_nodes_name_the_keys_that_place_them(tmp_path, capsys, command):
    # nodes of two links 1e-300 m apart are at distance 0: one error line
    # naming the drop seed and the keys that place the nodes
    cfg = write_config(
        tmp_path,
        scenario={"num_links": 2, "seed": 1, "area_side": 1e-300},
        experiment={"num_drops": 1, "frames_per_drop": 1},
        sweep={"parameter": "num_links", "values": [2]},
    )
    argv = [command, "--config", cfg, "--out", str(tmp_path / "o")]
    if command in ("evaluate", "sweep"):
        argv += ["--threads", "1"]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: drop seed ") and err.count("\n") == 1
    assert all(key in err for key in ("nodes coincide", "area_side", "d_sym", "d_asym"))
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", ["evaluate", "sweep"])
@pytest.mark.parametrize(
    "scenario",
    # some drops' gains overflow; at 1e-161 m every drop fails, some with
    # coincident nodes and some with gains that overflow
    [{"shadow_sigma_db": 2000}, {"area_side": 1e-161}],
    ids=["overflow", "coincide-or-overflow"],
)
def test_a_block_names_its_first_failing_drop(tmp_path, capsys, command, scenario):
    # 12 drops run in blocks of 6, each block generated in one pass: the one
    # error line is the one the first failing drop raises alone
    scenario = {"num_links": 3, "seed": 1, **scenario}
    config = ExperimentConfig(ScenarioConfig(**scenario), num_drops=12, frames_per_drop=1)
    assert evaluation._block_drops(config, 1) == 6
    cfg = write_config(
        tmp_path,
        scenario=scenario,
        experiment={"num_drops": 12, "frames_per_drop": 1, "master_seed": 9},
        sweep={"parameter": "num_links", "values": [3]},
    )
    master_seed = 9
    if command == "sweep":  # the master seed sweep() derives for point 0
        entropy = (master_seed, 0, evaluation._SWEEP_TAG)
        master_seed = int(np.random.SeedSequence(entropy).generate_state(1, np.uint64)[0])
    seeds = np.random.SeedSequence(master_seed).generate_state(24, np.uint64)[0::2].tolist()
    errors = []
    for drop_seed in seeds:
        try:
            generate_instance(ScenarioConfig(**scenario), drop_seed)
            errors.append(None)
        except ValueError as exc:
            errors.append(str(exc))
    failed = [error is not None for error in errors]
    first = failed.index(True)
    if "shadow_sigma_db" in scenario:
        # the first failing drop is inside its block, and a later one of the block fails too
        assert first % 6 and any(failed[first + 1 : first // 6 * 6 + 6])
    else:
        assert all(failed) and len({"coincide" in error for error in errors}) == 2
    argv = [command, "--config", cfg, "--out", str(tmp_path / "o"), "--threads", "1"]
    assert main(argv) == 1
    assert capsys.readouterr().err == f"error: {errors[first]}\n"
    assert errors[first].startswith(f"drop seed {seeds[first]}: ")
    assert not (tmp_path / "o").exists()


def test_rejects_wrong_schema_tag(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"schema": "v0", "scenario": {}}))
    assert main(["generate", "--config", str(path), "--out", str(tmp_path / "o")]) == 1
    assert "schema" in capsys.readouterr().err


def test_rejects_a_config_that_is_not_an_object(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text("[]")
    assert main(["generate", "--config", str(path), "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err == "error: config must be a JSON object\n"


def test_sweep_needs_a_sweep_section(tmp_path, capsys):
    cfg = tiny_eval_config(tmp_path)
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    assert "sweep command needs a 'sweep' section" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_rejects_invalid_json(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text("{not json")
    assert main(["generate", "--config", str(path), "--out", str(tmp_path / "o")]) == 1
    assert "not valid JSON" in capsys.readouterr().err


def test_refuses_infeasible_exhaustive(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        scenario={"num_links": 25, "seed": 1},
        experiment={"algorithms": ["exhaustive"], "num_drops": 1, "frames_per_drop": 1},
    )
    assert main(["evaluate", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    assert "infeasible" in capsys.readouterr().err


def test_missing_config_file(tmp_path, capsys):
    assert main(["generate", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path / "o")]) == 1
    assert "error:" in capsys.readouterr().err


def test_optimize_rejects_unknown_algorithm_in_config(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        scenario={"num_links": 3, "seed": 1},
        experiment={"algorithms": ["bogus"]},
    )
    assert main(["optimize", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    assert "bogus" in capsys.readouterr().err


def test_unknown_algorithm_flag(tmp_path, capsys):
    cfg = tiny_eval_config(tmp_path)
    code = main(
        [
            "evaluate",
            "--config",
            cfg,
            "--out",
            str(tmp_path / "o"),
            "--algorithms",
            "exhaustive,magic",
        ]
    )
    assert code == 1
    assert "magic" in capsys.readouterr().err


def test_optimize_rejects_unknown_experiment_key(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        scenario={"num_links": 3, "seed": 1},
        experiment={"bogus": 1},
    )
    assert main(["optimize", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    assert "bogus" in capsys.readouterr().err


def test_optimize_honours_exhaustive_cap(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        scenario={"num_links": EXHAUSTIVE_LINKS, "seed": 1},
        experiment={"algorithms": ["exhaustive"]},
    )
    assert main(["optimize", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    assert f"cap {EXHAUSTIVE_CAP}" in capsys.readouterr().err


def test_percentile_label_is_exact(tmp_path, capsys):
    cfg = tiny_eval_config(tmp_path, percentile_q=0.29)
    assert main(["evaluate", "--config", cfg, "--out", str(tmp_path / "e"), "--threads", "1"]) == 0
    out = capsys.readouterr().out
    assert "p29=" in out and "gain_p29=" in out and "p28" not in out

    sweep_cfg = write_config(
        tmp_path,
        scenario={"num_links": 2, "seed": 5},
        experiment={"num_drops": 1, "frames_per_drop": 1, "percentile_q": 0.29},
        sweep={"parameter": "num_links", "values": [2]},
    )
    assert main(["sweep", "--config", sweep_cfg, "--out", str(tmp_path / "s"), "--threads", "1"]) == 0
    out = capsys.readouterr().out
    assert "p29=" in out and "p28" not in out


@pytest.mark.parametrize("command", ["evaluate", "sweep"])
def test_evaluate_and_sweep_print_each_algorithms_statistics_alike(tmp_path, capsys, command):
    experiment = {"num_drops": 2, "frames_per_drop": 2, "algorithms": list(ALGORITHMS)}
    sweep = {"parameter": "num_links", "values": [3, 4]}
    scenario = {"num_links": 3, "seed": 11}
    cfg = write_config(tmp_path, scenario=scenario, experiment=experiment, sweep=sweep)
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--out", str(out), "--threads", "1"]) == 0
    summary = json.loads((out / "summary.json").read_text())
    points = summary["points"] if command == "sweep" else [summary]
    wheres = [f"num_links={m} " for m in sweep["values"]] if command == "sweep" else [""]
    expected = [
        f"  {where}{name:<12} mean={st['mean_rate_bps'] / 1e6:.3f} Mbps  "
        f"p5={st['percentile_rate_bps'] / 1e6:.3f} Mbps  "
        f"gain_p5={st['gain_percentile_vs_random']:.3f}"
        for where, point in zip(wheres, points)
        for name, st in point["algorithms"].items()
    ]
    assert len(expected) == 3 * len(points)
    assert capsys.readouterr().out.splitlines()[1:] == expected


# a shadowing deviation of 800 dB leaves most links an SNR near 0 or an INR
# near 1e157, so more than 5% of the random baseline's rates are exactly 0
ZERO_BASELINE = {
    "scenario": {"num_links": 4, "shadow_sigma_db": 800, "seed": 1},
    "experiment": {"num_drops": 3, "frames_per_drop": 2, "utility": "two_way_sum_rate"},
}


@pytest.mark.parametrize("command", ["evaluate", "sweep"])
def test_gain_against_a_zero_baseline_is_null(tmp_path, capsys, command):
    cfg = write_config(tmp_path, **ZERO_BASELINE, sweep={"parameter": "num_links", "values": [4]})
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--out", str(out), "--threads", "1"]) == 0
    summary = json.loads((out / "summary.json").read_text())
    points = summary["points"] if command == "sweep" else [summary]
    for point in points:
        random = point["algorithms"]["random"]
        assert random["percentile_rate_bps"] == 0.0
        for stats in point["algorithms"].values():
            assert stats["gain_percentile_vs_random"] is None
            assert math.isfinite(stats["gain_mean_vs_random"])
    rows = (out / "plot_data.csv").read_text().splitlines()
    assert rows[0].endswith(",gain_percentile_vs_random")
    assert all(row.endswith(",") for row in rows[1:])
    assert "gain" not in capsys.readouterr().out


# proportional fairness on the same drops: every assignment leaves a link at
# rate 0, so every objective is -inf and both optimizers warn on every drop
MINUS_INF_OBJECTIVE = {
    "scenario": ZERO_BASELINE["scenario"],
    "experiment": {"num_drops": 3, "frames_per_drop": 2, "algorithms": list(ALGORITHMS)},
}


@pytest.mark.parametrize("command", ["evaluate", "sweep"])
def test_minus_inf_objective_is_null_and_warnings_are_counted(tmp_path, capsys, command):
    sweep = {"parameter": "num_links", "values": [4, 4]}
    cfg = write_config(tmp_path, **MINUS_INF_OBJECTIVE, sweep=sweep)
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--out", str(out), "--threads", "1"]) == 0
    summary = json.loads((out / "summary.json").read_text())
    meta = json.loads((out / "run_meta.json").read_text())
    points, runs = (summary["points"], meta["points"]) if command == "sweep" else ([summary], [meta])
    assert len(points) == len(runs) == (2 if command == "sweep" else 1)
    expected = []
    for point, run in zip(points, runs):
        for stats in point["algorithms"].values():
            assert stats["mean_objective"] is None
        counts = run["optimizer_warnings"]
        # the random baseline never warns; both optimizers warn on the same drops
        assert counts["random"] == 0 and counts["exhaustive"] == counts["mst_dp"] >= 1
        for name in ("exhaustive", "mst_dp"):
            expected.append(f"{name} optimizer warned on {counts[name]} of 3 drops")
    if command == "evaluate":
        assert runs[0]["optimizer_warnings"]["mst_dp"] == 3
    err = capsys.readouterr().err
    assert "error" not in err
    warned = [line for line in err.splitlines() if line.startswith("warning:")]
    assert len(warned) == len(expected)
    assert all(want in line for want, line in zip(expected, warned))


def test_optimize_writes_a_minus_inf_objective_as_null(tmp_path, capsys):
    # under the default proportional fairness every assignment has utility -inf
    cfg = write_config(tmp_path, scenario=MINUS_INF_OBJECTIVE["scenario"])
    out = tmp_path / "out"
    assert main(["optimize", "--config", cfg, "--out", str(out)]) == 0
    results = json.loads((out / "result.json").read_text())["results"]
    assert set(results) == set(ALGORITHMS)
    for result in results.values():
        assert result["objective_exact"] is None
    assert results["mst_dp"]["objective_approx"] is None
    warning = "all assignments have -inf utility; returning the all-zero spins"
    assert results["exhaustive"]["warning"] == results["mst_dp"]["warning"] == warning
    assert results["random"]["warning"] is None
    assert "-inf" in capsys.readouterr().out


def test_optimize_reports_optimizer_warnings_on_stderr(tmp_path, capsys):
    # one warning line per warning algorithm, as evaluate and sweep print;
    # the exit code stays 0
    cfg = write_config(tmp_path, scenario=MINUS_INF_OBJECTIVE["scenario"])
    assert main(["optimize", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
    err = capsys.readouterr().err
    warning = "all assignments have -inf utility; returning the all-zero spins"
    assert err.splitlines() == [
        f"warning: {name} optimizer warned: {warning}; it is in result.json"
        for name in ("exhaustive", "mst_dp")
    ]


@pytest.mark.parametrize("command", ["evaluate", "sweep"])
def test_run_meta_records_the_dispatch(tmp_path, monkeypatch, command):
    monkeypatch.setattr(evaluation, "_cpu_count", lambda: 2)  # 2 workers on any machine
    sweep = {"parameter": "num_links", "values": [2, 3]}
    cfg = write_config(
        tmp_path,
        scenario={"num_links": 3, "seed": 2},
        experiment={"num_drops": 17, "frames_per_drop": 1, "algorithms": ["mst_dp"]},
        sweep=sweep,
    )
    dispatch = {}
    for threads in (1, 2):
        out = tmp_path / f"out{threads}"
        assert main([command, "--config", cfg, "--out", str(out), "--threads", str(threads)]) == 0
        meta = json.loads((out / "run_meta.json").read_text())
        runs = meta["points"] if command == "sweep" else [meta]
        dispatch[threads] = [(run["workers"], run["block_drops"]) for run in runs]
        assert all(set(run["optimizer_warnings"]) == {"mst_dp"} for run in runs)
        assert all(set(run["timing"]) == {"elapsed_s", "optimize_time_s"} for run in runs)
        assert all(set(run["timing"]["optimize_time_s"]) == {"mst_dp"} for run in runs)
    points = 2 if command == "sweep" else 1
    # in-process and on the pool alike, a block holds 17 // (2 * workers) drops
    assert dispatch == {1: [(1, 8)] * points, 2: [(2, 4)] * points}


def test_a_spawned_pool_writes_the_bytes_of_one_worker(tmp_path, monkeypatch):
    # under spawn, the default start method on macOS and Windows (and
    # forkserver, Linux's from Python 3.14), each worker imports spinopt
    # afresh and inherits nothing from the parent process
    spawn = multiprocessing.get_context("spawn")
    pool = functools.partial(futures.ProcessPoolExecutor, mp_context=spawn)
    monkeypatch.setattr(evaluation.futures, "ProcessPoolExecutor", pool)
    monkeypatch.setattr(evaluation, "_cpu_count", lambda: 2)
    cfg = tiny_eval_config(tmp_path, num_drops=4)
    outputs = {}
    for threads in (1, 2):
        out = tmp_path / f"out{threads}"
        assert main(["evaluate", "--config", cfg, "--out", str(out), "--threads", str(threads)]) == 0
        assert json.loads((out / "run_meta.json").read_text())["workers"] == threads
        outputs[threads] = data_files(out)
    assert set(outputs[1]) == {"plot_data.csv", "samples.csv", "summary.json"}
    assert outputs[2] == outputs[1]


def test_only_a_pooled_sweep_refuses_points_whose_pair_exceeds_the_budget(
    tmp_path, monkeypatch, capsys
):
    # each point fits the budget on its own and the pair does not: a sweep on
    # a pool holds one point's samples next to the next point's block
    # results, an in-process sweep one point at a time
    monkeypatch.setattr(evaluation, "_cpu_count", lambda: 2)
    experiment = {"num_drops": 4, "frames_per_drop": 2, "algorithms": ["mst_dp", "random"]}
    sweep = {"parameter": "num_links", "values": [2, 3]}
    scenario = {"num_links": 2, "seed": 3}
    cfg = write_config(tmp_path, scenario=scenario, experiment=experiment, sweep=sweep)
    points = load_config(json.loads(Path(cfg).read_text()))[1]
    alone, pair = max(p.peak_bytes() for p in points), points[0].peak_bytes(points[1])
    monkeypatch.setattr(evaluation, "RUN_MEMORY_BUDGET", (alone + pair) // 2)
    assert alone <= evaluation.RUN_MEMORY_BUDGET < pair
    out = tmp_path / "out1"
    assert main(["sweep", "--config", cfg, "--out", str(out), "--threads", "1"]) == 0
    assert set(data_files(out)) == {"plot_data.csv", "summary.json"}
    capsys.readouterr()
    out = tmp_path / "out2"
    assert main(["sweep", "--config", cfg, "--out", str(out), "--threads", "2"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: sweep points 0, 1 (num_links 2, 3) need ~")
    assert err.rstrip().endswith("or run it on one worker")
    assert not out.exists()


def test_a_sweep_counts_the_cpus_once(tmp_path, monkeypatch):
    # a point planned its blocks twice, reading the usable CPUs each time:
    # when they fell from 2 to 1 between its two plans, its run met blocks
    # twice the size it had planned and failed
    sweep = {"parameter": "num_links", "values": [2, 3]}
    experiment = {"num_drops": 8, "frames_per_drop": 2, "algorithms": ["mst_dp", "random"]}
    cfg = write_config(tmp_path, scenario={"seed": 5}, experiment=experiment, sweep=sweep)
    cpus, plan, outputs = [2], evaluation._plan, {}

    def falling_plan(*args):
        planned = plan(*args)
        cpus[0] = 1  # as if the process's CPU affinity shrank
        return planned

    monkeypatch.setattr(evaluation, "_cpu_count", lambda: cpus[0])
    for run in ("steady", "falling"):
        if run == "falling":
            monkeypatch.setattr(evaluation, "_plan", falling_plan)
        out = tmp_path / run
        assert main(["sweep", "--config", cfg, "--out", str(out), "--threads", "2"]) == 0
        meta = json.loads((out / "run_meta.json").read_text())
        assert [point["workers"] for point in meta["points"]] == [2, 2]
        outputs[run] = data_files(out)
    assert cpus == [1]
    assert outputs["falling"] == outputs["steady"]


def test_each_run_and_sweep_point_is_planned_once(tmp_path, monkeypatch):
    # a sweep point was planned twice, by the sweep's stream and by its own
    # run, and the two plans had to agree on its blocks
    monkeypatch.setattr(evaluation, "_cpu_count", lambda: 2)
    planned, plan = [], evaluation._plan

    def counting_plan(config, workers):
        planned.append(config.scenario.num_links)
        return plan(config, workers)

    monkeypatch.setattr(evaluation, "_plan", counting_plan)
    runs = {
        "evaluate": (CONFIG_DIR / "three_links.json", [3]),
        "sweep": (CONFIG_DIR / "sweep_links_asymmetric.json", [10, 20, 40]),
    }
    # (workers, block_drops) of each run, as the parent of this test wrote them
    dispatch = {
        ("evaluate", 1): [(1, 50)],
        ("evaluate", 2): [(2, 25)],
        ("sweep", 1): [(1, 25), (1, 17), (1, 5)],
        ("sweep", 2): [(2, 12), (2, 12), (2, 5)],
    }
    for threads in (1, 2):
        for command, (config, links) in runs.items():
            planned.clear()
            out = tmp_path / f"{command}{threads}"
            args = ["--out", str(out), "--threads", str(threads), "--format", "both"]
            assert main([command, "--config", str(config), *args]) == 0
            assert planned == links
            meta = json.loads((out / "run_meta.json").read_text())
            points = meta["points"] if command == "sweep" else [meta]
            assert [(p["workers"], p["block_drops"]) for p in points] == dispatch[command, threads]
            for file_name, data in data_files(out).items():
                digest = hashlib.sha256(data).hexdigest()
                assert digest == EVALUATE_SWEEP_DIGESTS[f"{command}/{file_name}"]


@pytest.mark.parametrize(
    "change, key",
    [
        ({"kinds": 5}, "kinds"),
        ({"kinds": ["symmetric", "foo", "symmetric"]}, "foo"),
        ({"seed_key": [1]}, "seed_key"),
        ({"seed_key": [-1, 2]}, "seed_key"),
        ({"seed_key": [1.5, 2]}, "seed_key"),
        ({"num_links": 3.7}, "num_links"),
        ({"num_links": "3"}, "num_links"),
        ({"positions": "x"}, "positions"),
        ({"snr": {}}, "snr"),
        ({"seed_key": [True, False]}, "seed_key"),
        ({"num_links": 0}, "num_links must be >= 1"),
        ({"snr": [[1.0, 1.0]]}, "snr must have shape (3, 2), got (1, 2)"),
        ({"snr": [[1.0, -1.0]] * 3}, "SNR/INR values must be non-negative"),
    ],
)
def test_optimize_checks_the_instance_json(tmp_path, capsys, change, key):
    cfg = write_config(tmp_path, scenario={"num_links": 3, "seed": 4})
    assert main(["generate", "--config", cfg, "--out", str(tmp_path / "gen")]) == 0
    path = tmp_path / "gen" / "instance.json"
    path.write_text(json.dumps({**json.loads(path.read_text()), **change}))
    capsys.readouterr()
    out = tmp_path / "opt"
    assert main(["optimize", "--config", cfg, "--instance", str(path), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and key in err
    assert not out.exists()


def test_optimize_refuses_an_instance_gain_beyond_the_float_range(tmp_path, capsys):
    # a JSON integer too large for a float made numpy raise OverflowError,
    # which escaped main as a traceback
    cfg = write_config(tmp_path, scenario={"num_links": 3, "seed": 4})
    assert main(["generate", "--config", cfg, "--out", str(tmp_path / "gen")]) == 0
    path = tmp_path / "gen" / "instance.json"
    data = json.loads(path.read_text())
    data["inr"][0][1][0][0] = 10**400
    path.write_text(json.dumps(data))
    capsys.readouterr()
    out = tmp_path / "opt"
    assert main(["optimize", "--config", cfg, "--instance", str(path), "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error: inr must be an array of numbers")
    assert not out.exists()


def test_optimize_names_an_instance_file_that_is_not_json(tmp_path, capsys):
    cfg = write_config(tmp_path, scenario={"num_links": 3, "seed": 4})
    path = tmp_path / "bad.json"
    path.write_text("not json")
    out = tmp_path / "opt"
    assert main(["optimize", "--config", cfg, "--instance", str(path), "--out", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: instance {path} is not valid JSON")
    assert not out.exists()


@pytest.mark.parametrize(
    "content",
    [b"[" * 100_000, "{}".encode("utf-16"), b"[" + b"1" * 5000 + b"]"],
    ids=["nested", "utf16", "long_int"],
)
@pytest.mark.parametrize("flag", ["--config", "--instance"])
def test_a_json_file_python_cannot_parse_fails_naming_its_path(tmp_path, capsys, flag, content):
    cfg = write_config(tmp_path, scenario={"num_links": 3, "seed": 4})
    path = tmp_path / "bad.json"
    path.write_bytes(content)
    out = tmp_path / "o"
    if flag == "--config":
        argv = ["evaluate", "--config", str(path)]
    else:
        argv = ["optimize", "--config", cfg, "--instance", str(path)]
    assert main([*argv, "--out", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {flag[2:]} {path} is not valid JSON: ")
    assert not out.exists()


def test_readme_config_schema_matches_the_dataclasses():
    readme = (REPO / "README.md").read_text(encoding="utf-8")
    block = re.search(r"### Config schema\n\n```jsonc\n(.*?)```", readme, re.S).group(1)
    schema = json.loads(re.sub(r"//.*", "", block))
    for section, cls in (("scenario", ScenarioConfig), ("experiment", ExperimentConfig)):
        defaults = {f.name: f.default for f in fields(cls) if f.name != "scenario"}
        documented = schema[section]
        assert set(documented) == set(defaults)
        for name, default in defaults.items():
            default = getattr(default, "value", default)
            assert documented[name] == (list(default) if isinstance(default, tuple) else default)

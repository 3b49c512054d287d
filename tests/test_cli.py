import json
from pathlib import Path

import pytest

from spinopt.channel import load_instance
from spinopt.cli import _write_json, main

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


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
    inst = load_instance(out / "instance.json")
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
    captured = capsys.readouterr().out
    assert "exhaustive" in captured and "mst_dp" in captured


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


@pytest.mark.parametrize("command", ["generate", "optimize", "evaluate", "sweep"])
@pytest.mark.parametrize(
    "sections, bad_key",
    [
        ({"experiment": {"num_dropz": 1}}, "num_dropz"),
        ({"sweep": {"parameter": "num_links", "valuez": [2]}}, "valuez"),
        ({"sweep": {"parameter": "area", "values": [2]}}, "area"),
        ({"experiment": ["num_drops"]}, "experiment"),
    ],
)
def test_every_command_enforces_one_config_contract(tmp_path, capsys, command, sections, bad_key):
    good = {
        "experiment": {"num_drops": 1, "frames_per_drop": 1},
        "sweep": {"parameter": "num_links", "values": [2]},
    }
    cfg = write_config(tmp_path, scenario={"num_links": 2, "seed": 1}, **{**good, **sections})
    argv = [command, "--config", cfg, "--out", str(tmp_path / "o")]
    if command in ("evaluate", "sweep"):
        argv += ["--threads", "1"]
    assert main(argv) == 1
    assert bad_key in capsys.readouterr().err


def test_rejects_wrong_schema_tag(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"schema": "v0", "scenario": {}}))
    assert main(["generate", "--config", str(path), "--out", str(tmp_path / "o")]) == 1
    assert "schema" in capsys.readouterr().err


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
        scenario={"num_links": 4, "seed": 1},
        experiment={"algorithms": ["exhaustive"], "exhaustive_cap": 3},
    )
    assert main(["optimize", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    assert "cap 3" in capsys.readouterr().err


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

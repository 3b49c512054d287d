"""Command-line front end: generate / optimize / evaluate / sweep.

All randomness flows from the seeds echoed in every output. Data files are
byte-stable across identical invocations; wall-clock information is kept in
a separate ``run_meta.json`` so golden comparisons can ignore it.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import fields, replace
from pathlib import Path

from . import channel, evaluation, optimizer, topology
from .sinr import UtilityKind

CONFIG_SCHEMA = "spinopt.config/1"
_SECTION_KEYS = {
    "scenario": {f.name for f in fields(channel.ScenarioConfig)},
    "experiment": {
        "algorithms",
        "num_drops",
        "frames_per_drop",
        "utility",
        "bandwidth_hz",
        "percentile_q",
        "master_seed",
        "fading",
        "exhaustive_cap",
    },
    "sweep": {"parameter", "values"},
}
_SWEEP_PARAMETERS = ("num_links", "link_mix")


def _load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ValueError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ValueError(f"config {path} must be a JSON object")
    if data.get("schema") != CONFIG_SCHEMA:
        raise ValueError(
            f"config {path}: expected \"schema\": \"{CONFIG_SCHEMA}\", got {data.get('schema')!r}"
        )
    unknown = set(data) - {"schema", *_SECTION_KEYS}
    if unknown:
        raise ValueError(f"config {path}: unknown top-level key(s) {sorted(unknown)}")
    # the one config contract of every command
    for name, keys in _SECTION_KEYS.items():
        section = data.get(name, {})
        if not isinstance(section, dict):
            raise ValueError(f"config {path}: section {name!r} must be a JSON object")
        if set(section) - keys:
            raise ValueError(f"unknown {name} key(s) {sorted(set(section) - keys)}")
    if "sweep" in data:
        parameter, values = data["sweep"].get("parameter"), data["sweep"].get("values")
        if parameter not in _SWEEP_PARAMETERS:
            raise ValueError(
                f"sweep key 'parameter' must be one of {_SWEEP_PARAMETERS}, got {parameter!r}"
            )
        if not isinstance(values, list) or not values:
            raise ValueError("sweep key 'values' must be a non-empty list")
    return data


def _scenario_from(data: dict, seed_override: int | None) -> channel.ScenarioConfig:
    scenario = channel.scenario_from_json(data.get("scenario", {}))
    if seed_override is not None:
        scenario = replace(scenario, seed=seed_override)
    return scenario


def _experiment_from(
    data: dict,
    scenario: channel.ScenarioConfig,
    seed_override: int | None,
    algorithms_override: tuple[str, ...] | None,
) -> evaluation.ExperimentConfig:
    section = dict(data.get("experiment", {}))
    if "utility" in section:
        try:
            section["utility"] = UtilityKind(section["utility"])
        except ValueError:
            raise ValueError(
                f"experiment key 'utility' must be one of "
                f"{[k.value for k in UtilityKind]}, got {section['utility']!r}"
            ) from None
    if "algorithms" in section:
        section["algorithms"] = tuple(section["algorithms"])
    if seed_override is not None:
        section["master_seed"] = seed_override
    if algorithms_override is not None:
        section["algorithms"] = algorithms_override
    return evaluation.ExperimentConfig(scenario=scenario, **section)


def _parse_algorithms(arg: str | None) -> tuple[str, ...] | None:
    if arg is None:
        return None
    names = tuple(name.strip() for name in arg.split(",") if name.strip())
    unknown = [n for n in names if n not in evaluation.ALGORITHMS]
    if unknown:
        raise ValueError(f"unknown algorithm(s) {unknown}; choose from {evaluation.ALGORITHMS}")
    return names


def _write_json(path: Path, obj) -> None:
    text = json.dumps(obj, indent=2, sort_keys=True, allow_nan=False)
    path.write_text(text + "\n", encoding="utf-8")


def _write_meta(out: Path, command: str, timing: dict) -> None:
    meta = {
        "command": command,
        "finished_unix_time": time.time(),
        "timing": timing,
    }
    _write_json(out / "run_meta.json", meta)


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _cmd_generate(args) -> int:
    data = _load_config(args.config)
    scenario = _scenario_from(data, args.seed)
    out = _out_dir(args)
    t0 = time.perf_counter()
    instance = channel.generate_instance(scenario, args.drop)
    graph = topology.build_graph(instance, scenario.inr_edge_threshold)
    tree = topology.maximum_spanning_tree(graph)
    _write_json(out / "instance.json", channel.instance_to_json(instance))
    _write_json(
        out / "topology.json",
        {"graph": topology.graph_to_json(graph), "tree": topology.tree_to_json(tree)},
    )
    (out / "graph_edges.txt").write_text(
        topology.graph_to_edge_list(graph), encoding="utf-8"
    )
    _write_meta(out, "generate", {"elapsed_s": time.perf_counter() - t0})
    print(
        f"generated instance: links={instance.num_links} edges={len(graph.edges)} "
        f"seed={scenario.seed} drop={args.drop} -> {out}"
    )
    return 0


def _cmd_optimize(args) -> int:
    data = _load_config(args.config)
    section = data.get("experiment", {})
    scenario = _scenario_from(data, args.seed)
    algorithms = _parse_algorithms(args.algorithms)
    if algorithms is None and "algorithms" not in section:
        algorithms = evaluation.ALGORITHMS
    config = _experiment_from(data, scenario, args.seed, algorithms)
    if args.seed is None and "master_seed" not in section:
        config = replace(config, master_seed=scenario.seed)

    if args.instance is not None:
        instance = channel.load_instance(args.instance)
    else:
        instance = channel.generate_instance(scenario, args.drop)
    graph = topology.build_graph(instance, scenario.inr_edge_threshold)
    tree = topology.maximum_spanning_tree(graph)
    results = {
        name: evaluation.optimize(config, name, instance, graph, tree, config.master_seed)
        for name in config.algorithms
    }

    out = _out_dir(args)
    _write_json(
        out / "result.json",
        {
            "schema": optimizer.RESULT_SCHEMA,
            "utility": config.utility.value,
            "master_seed": config.master_seed,
            "num_links": instance.num_links,
            "graph": topology.graph_to_json(graph),
            "tree": topology.tree_to_json(tree),
            "results": {name: res.to_json(graph) for name, res in results.items()},
        },
    )
    _write_meta(
        out, "optimize", {name: res.elapsed_s for name, res in results.items()}
    )

    print(
        f"links={instance.num_links} edges={len(graph.edges)} "
        f"tree_edges={len(tree.tree_edges)} max_children={tree.max_children} "
        f"utility={config.utility.value} master_seed={config.master_seed}"
    )
    print(f"{'algorithm':<16}{'objective_exact':>18}{'objective_approx':>18}")
    for name, res in results.items():
        approx = "-" if res.objective_approx is None else f"{res.objective_approx:.6f}"
        print(f"{name:<16}{res.objective_exact:>18.6f}{approx:>18}")
    return 0


def _cmd_evaluate(args) -> int:
    data = _load_config(args.config)
    scenario = _scenario_from(data, args.seed)
    config = _experiment_from(data, scenario, args.seed, _parse_algorithms(args.algorithms))
    report = evaluation.run_experiment(config, workers=args.threads)
    out = _out_dir(args)
    if args.format in ("json", "both"):
        _write_json(out / "summary.json", report.summary_json())
    if args.format in ("csv", "both"):
        evaluation.write_samples_csv(report, out / "samples.csv")
        evaluation.write_plot_csv([report], out / "plot_data.csv")
    _write_meta(out, "evaluate", report.timing_json())
    print(
        f"evaluated {config.num_drops} drops x {config.frames_per_drop} frames, "
        f"master_seed={config.master_seed}"
    )
    q_label = evaluation.percentile_label(config.percentile_q)
    for name in config.algorithms:
        st = report.stats[name]
        gain = (
            ""
            if st.gain_percentile_vs_random is None
            else f"  gain_{q_label}={st.gain_percentile_vs_random:.3f}"
        )
        print(
            f"  {name:<12} mean={st.mean_bps / 1e6:.3f} Mbps  "
            f"{q_label}={st.percentile_bps / 1e6:.3f} Mbps{gain}"
        )
    return 0


def _cmd_sweep(args) -> int:
    data = _load_config(args.config)
    if "sweep" not in data:
        raise ValueError("sweep command needs a 'sweep' section in the config")
    parameter, values = data["sweep"]["parameter"], data["sweep"]["values"]

    scenario = _scenario_from(data, args.seed)
    base = _experiment_from(data, scenario, args.seed, _parse_algorithms(args.algorithms))
    configs = [
        replace(base, scenario=replace(scenario, **{parameter: value})) for value in values
    ]
    reports = evaluation.sweep(configs, workers=args.threads)

    out = _out_dir(args)
    if args.format in ("json", "both"):
        _write_json(
            out / "summary.json",
            {
                "schema": evaluation.SWEEP_SCHEMA,
                "parameter": parameter,
                "values": values,
                "points": [r.summary_json() for r in reports],
            },
        )
    if args.format in ("csv", "both"):
        evaluation.write_plot_csv(reports, out / "plot_data.csv")
    _write_meta(
        out,
        "sweep",
        {"points": [r.timing_json() for r in reports]},
    )
    print(f"swept {parameter} over {values}")
    for value, report in zip(values, reports):
        q_label = evaluation.percentile_label(report.config.percentile_q)
        for name in report.config.algorithms:
            st = report.stats[name]
            gain = (
                ""
                if st.gain_percentile_vs_random is None
                else f"  gain={st.gain_percentile_vs_random:.3f}"
            )
            print(
                f"  {parameter}={value} {name:<12} "
                f"{q_label}={st.percentile_bps / 1e6:.3f} Mbps{gain}"
            )
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spinopt",
        description="Transmission-direction scheduling for interfering two-way TDD links",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, needs_out: bool = True) -> None:
        p.add_argument("--config", required=True, help="JSON config file")
        if needs_out:
            p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--seed", type=int, default=None, help="override scenario/master seed")

    p_gen = sub.add_parser("generate", help="write one network drop as JSON")
    common(p_gen)
    p_gen.add_argument("--drop", type=int, default=0, help="drop index (default 0)")
    p_gen.set_defaults(func=_cmd_generate)

    p_opt = sub.add_parser("optimize", help="optimize spins for one drop")
    common(p_opt)
    p_opt.add_argument("--instance", default=None, help="optimize a saved instance JSON")
    p_opt.add_argument("--drop", type=int, default=0, help="drop index when generating")
    p_opt.add_argument("--algorithms", default=None, help="comma list: exhaustive,mst_dp,random")
    p_opt.set_defaults(func=_cmd_optimize)

    p_eval = sub.add_parser("evaluate", help="run the Monte-Carlo experiment")
    common(p_eval)
    p_eval.add_argument("--algorithms", default=None, help="comma list: exhaustive,mst_dp,random")
    p_eval.add_argument("--threads", type=int, default=os.cpu_count() or 1)
    p_eval.add_argument("--format", choices=("csv", "json", "both"), default="both")
    p_eval.set_defaults(func=_cmd_evaluate)

    p_sweep = sub.add_parser("sweep", help="run experiments over a parameter range")
    common(p_sweep)
    p_sweep.add_argument("--algorithms", default=None, help="comma list: exhaustive,mst_dp,random")
    p_sweep.add_argument("--threads", type=int, default=os.cpu_count() or 1)
    p_sweep.add_argument("--format", choices=("csv", "json", "both"), default="both")
    p_sweep.set_defaults(func=_cmd_sweep)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

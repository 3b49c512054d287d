"""Command-line front end: generate / optimize / evaluate / sweep.

All randomness flows from the seeds echoed in every output. Data files are
byte-stable across identical invocations; wall-clock information is kept in
a separate ``run_meta.json`` so golden comparisons can ignore it.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import fields, replace
from pathlib import Path

from . import channel, evaluation, optimizer, topology

CONFIG_SCHEMA = "spinopt.config/1"
# the config schema is the dataclasses: a section's keys are their fields
_SECTION_KEYS = {
    "scenario": {f.name for f in fields(channel.ScenarioConfig)},
    "experiment": {f.name for f in fields(evaluation.ExperimentConfig)} - {"scenario"},
    "sweep": {"parameter", "values"},
}
_SWEEP_PARAMETERS = ("num_links", "link_mix")


def _read_json(path: str, what: str):
    """The parsed JSON file ``path``; an invalid one fails naming ``what`` and the path.

    A file that is not UTF-8, nests deeper than the parser recurses or holds
    an integer beyond Python's digit limit is invalid.
    """
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        # JSONDecodeError and UnicodeDecodeError are ValueErrors
        except (ValueError, RecursionError) as exc:
            raise ValueError(f"{what} {path} is not valid JSON: {exc}") from exc


def load_config(data, seed=None, algorithms=None, optimize=False):
    """The one config contract of every command.

    Checks a parsed config's sections and keys, lets the dataclasses check
    every value, and returns the experiment and the experiments of its sweep
    points (None without a ``sweep`` section). ``seed`` and ``algorithms``
    (a comma list) are the CLI's overrides. With ``optimize``, a config
    without ``algorithms`` runs all of them and one without ``master_seed``
    seeds the random baseline with the scenario seed.
    """
    if not isinstance(data, dict):
        raise ValueError("config must be a JSON object")
    schema = data.get("schema")
    if schema != CONFIG_SCHEMA:
        raise ValueError(f'config: expected "schema": "{CONFIG_SCHEMA}", got {schema!r}')
    unknown = set(data) - {"schema", *_SECTION_KEYS}
    if unknown:
        raise ValueError(f"config: unknown top-level key(s) {sorted(unknown)}")
    sections = {}
    for name, keys in _SECTION_KEYS.items():
        sections[name] = section = data.get(name, {})
        if not isinstance(section, dict):
            raise ValueError(f"config section {name!r} must be a JSON object")
        if set(section) - keys:
            raise ValueError(f"unknown {name} key(s) {sorted(set(section) - keys)}")

    scenario = channel.ScenarioConfig(**sections["scenario"])
    experiment = dict(sections["experiment"])
    if seed is not None:
        scenario = replace(scenario, seed=seed)
        experiment["master_seed"] = seed
    if algorithms is not None:
        experiment["algorithms"] = [name.strip() for name in algorithms.split(",") if name.strip()]
    if optimize:
        experiment.setdefault("algorithms", evaluation.ALGORITHMS)
        experiment.setdefault("master_seed", scenario.seed)
    config = evaluation.ExperimentConfig(scenario=scenario, **experiment)
    if "sweep" not in data:
        return config, None

    parameter, values = sections["sweep"].get("parameter"), sections["sweep"].get("values")
    if parameter not in _SWEEP_PARAMETERS:
        raise ValueError(
            f"sweep key 'parameter' must be one of {_SWEEP_PARAMETERS}, got {parameter!r}"
        )
    if not isinstance(values, list) or not values:
        raise ValueError("sweep key 'values' must be a non-empty list")
    try:
        points = [replace(scenario, **{parameter: value}) for value in values]
        points = [replace(config, scenario=point) for point in points]
    except ValueError as exc:
        raise ValueError(f"sweep key 'values' (parameter {parameter!r}): {exc}") from None
    return config, points


def _write_json(path: Path, obj) -> None:
    text = json.dumps(obj, indent=2, sort_keys=True, allow_nan=False)
    path.write_text(text + "\n", encoding="utf-8")


def _write_meta(out: Path, command: str, **facts) -> None:
    meta = {"command": command, "finished_unix_time": time.time(), **facts}
    _write_json(out / "run_meta.json", meta)


def _print_stats(report, where: str = "") -> None:
    """A run's report: one stdout line of rates per algorithm, then one stderr
    line per algorithm whose optimizer warned on some drop; each line names
    ``where`` (a sweep point) before the algorithm."""
    q_label = evaluation.percentile_label(report.config.percentile_q)
    for name, st in report.stats.items():
        gain = st.gain_percentile_vs_random
        print(
            f"  {where}{name:<12} mean={st.mean_bps / 1e6:.3f} Mbps  "
            f"{q_label}={st.percentile_bps / 1e6:.3f} Mbps"
            + ("" if gain is None else f"  gain_{q_label}={gain:.3f}")
        )
    for name, st in report.stats.items():
        if st.warned_drops:
            print(
                f"warning: {where}{name} optimizer warned on {st.warned_drops} of "
                f"{report.config.num_drops} drops; counts are in run_meta.json",
                file=sys.stderr,
            )


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _cmd_generate(args) -> int:
    scenario = load_config(_read_json(args.config, "config"), args.seed)[0].scenario
    t0 = time.perf_counter()
    instance = channel.generate_instance(scenario, args.drop)
    graph = topology.build_graph(instance, scenario.inr_edge_threshold)
    tree = topology.maximum_spanning_tree(graph)
    out = _out_dir(args)
    _write_json(out / "instance.json", channel.instance_to_json(instance))
    _write_json(
        out / "topology.json",
        {"graph": topology.graph_to_json(graph), "tree": topology.tree_to_json(graph, tree)},
    )
    (out / "graph_edges.txt").write_text(
        topology.graph_to_edge_list(graph), encoding="utf-8"
    )
    _write_meta(out, "generate", timing={"elapsed_s": time.perf_counter() - t0})
    print(
        f"generated instance: links={instance.num_links} edges={len(graph.edges)} "
        f"seed={scenario.seed} drop={args.drop} -> {out}"
    )
    return 0


def _cmd_optimize(args) -> int:
    data = _read_json(args.config, "config")
    config, _ = load_config(data, args.seed, args.algorithms, optimize=True)
    if args.instance is not None:
        instance = channel.instance_from_json(_read_json(args.instance, "instance"))
    else:
        instance = channel.generate_instance(config.scenario, args.drop)
    solved = evaluation.solve_drop(config, [instance], [config.master_seed])
    (graph,), (tree,), _, results, seconds = solved

    out = _out_dir(args)
    _write_json(
        out / "result.json",
        {
            "schema": optimizer.RESULT_SCHEMA,
            "utility": config.utility.value,
            "master_seed": config.master_seed,
            "num_links": instance.num_links,
            "graph": topology.graph_to_json(graph),
            "tree": topology.tree_to_json(graph, tree),
            "results": {
                name: {"algorithm": name, **res.to_json(graph)} for name, (res,) in results.items()
            },
        },
    )
    _write_meta(out, "optimize", timing=seconds)

    print(
        f"links={instance.num_links} edges={len(graph.edges)} "
        f"tree_edges={len(tree.parent) - len(tree.roots)} max_children={tree.max_children} "
        f"utility={config.utility.value} master_seed={config.master_seed}"
    )
    print(f"{'algorithm':<16}{'objective_exact':>18}{'objective_approx':>18}")
    for name, (res,) in results.items():
        approx = "-" if res.objective_approx is None else f"{res.objective_approx:.6f}"
        print(f"{name:<16}{res.objective_exact:>18.6f}{approx:>18}")
    for name, (res,) in results.items():
        if res.warning is not None:
            warning = f"{name} optimizer warned: {res.warning}; it is in result.json"
            print(f"warning: {warning}", file=sys.stderr)
    return 0


def _cmd_evaluate(args) -> int:
    config, _ = load_config(_read_json(args.config, "config"), args.seed, args.algorithms)
    report = evaluation.run_experiment(config, workers=args.threads)
    out = _out_dir(args)
    if args.format in ("json", "both"):
        _write_json(out / "summary.json", report.summary_json())
    if args.format in ("csv", "both"):
        evaluation.write_samples_csv(report, out / "samples.csv")
        evaluation.write_plot_csv([report], out / "plot_data.csv")
    _write_meta(out, "evaluate", **report.run_json())
    print(
        f"evaluated {config.num_drops} drops x {config.frames_per_drop} frames, "
        f"master_seed={config.master_seed}"
    )
    _print_stats(report)
    return 0


def _cmd_sweep(args) -> int:
    data = _read_json(args.config, "config")
    _, configs = load_config(data, args.seed, args.algorithms)
    if configs is None:
        raise ValueError("sweep command needs a 'sweep' section in the config")
    parameter, values = data["sweep"]["parameter"], data["sweep"]["values"]
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
    _write_meta(out, "sweep", points=[r.run_json() for r in reports])
    print(f"swept {parameter} over {values}")
    for value, report in zip(values, reports):
        _print_stats(report, f"{parameter}={value} ")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spinopt",
        description="Transmission-direction scheduling for interfering two-way TDD links",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, help, drop=False, algorithms=True) -> argparse.ArgumentParser:
        """A command with the flags of its kind, one drop or a Monte-Carlo experiment."""
        p = sub.add_parser(name, help=help)
        p.set_defaults(func=func)
        p.add_argument("--config", required=True, help="JSON config file")
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--seed", type=int, default=None, help="override scenario/master seed")
        if drop:
            p.add_argument("--drop", type=int, default=0, help="drop index to generate (default 0)")
        else:
            p.add_argument("--threads", type=int, default=evaluation._cpu_count())
            p.add_argument("--format", choices=("csv", "json", "both"), default="both")
        if algorithms:
            names = ",".join(evaluation.ALGORITHMS)
            p.add_argument("--algorithms", default=None, help=f"comma list: {names}")
        return p

    command(
        "generate", _cmd_generate, "write one network drop as JSON", drop=True, algorithms=False
    )
    p_opt = command("optimize", _cmd_optimize, "optimize spins for one drop", drop=True)
    p_opt.add_argument("--instance", default=None, help="optimize a saved instance JSON")
    command("evaluate", _cmd_evaluate, "run the Monte-Carlo experiment")
    command("sweep", _cmd_sweep, "run experiments over a parameter range")
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

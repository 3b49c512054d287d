"""Run one spinopt CLI command in this interpreter and record where its time went.

Usage::

    python3 bench/probe.py <record.json> <trace 0|1> <spinopt CLI arguments...>

The command runs through ``spinopt.cli.main``, the shipped entry point, with
no change to the package. The probe wraps module attributes from outside:

* always ``evaluation.run_experiment``, to find the experiment phase: the
  monotonic time of the first call (the end of set-up) and the seconds spent
  inside all calls (a sweep makes one call per point);
* with trace 1 also every layer boundary in ``LAYERS``, recording per layer
  the self time (its duration minus the time of layer calls nested in it),
  the call count, and work counts computed from arguments and results.

Spans are aggregated in memory and written to ``record.json`` when the
command ends. Layer calls made inside pool worker processes are not seen,
so traced runs use one worker.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time


def _fading_bytes(counts, args, result):
    # computed from array sizes, not measured memory traffic
    counts["channel.draw_fading.bytes"] += result.snr.nbytes + result.inr.nbytes


def _graph_edges(counts, args, result):
    counts["topology.edges"] += len(result.edges)


def _tree_children(counts, args, result):
    counts["topology.max_children"] = max(counts["topology.max_children"], result.max_children)


def _exhaustive_assignments(counts, args, result):
    graph = args[1]
    # one vertex per connected component is pinned to spin 0
    counts["optimizer.exhaustive_search.assignments"] += 2 ** (
        graph.num_vertices - len(graph.components())
    )


def _dp_combinations(counts, args, result):
    tree = args[2]
    # every child-edge spin combination, once per parent-edge spin (roots: once)
    counts["optimizer.mst_dp.combinations"] += sum(
        2 ** len(kids) * (1 if parent < 0 else 2)
        for kids, parent in zip(tree.children, tree.parent)
    )


def _csv_bytes(counts, args, result):
    counts["evaluation.samples_csv.bytes"] += os.path.getsize(args[1])


# layer name -> (module name in spinopt, attribute, count hook or None)
LAYERS = {
    "channel.generate_instance": ("evaluation", "generate_instance", None),
    "channel.draw_fading": ("evaluation", "draw_fading", _fading_bytes),
    "topology.build_graph": ("evaluation", "build_graph", _graph_edges),
    "topology.maximum_spanning_tree": ("evaluation", "maximum_spanning_tree", _tree_children),
    "sinr.spin_selectors": ("evaluation", "spin_selectors", None),
    "sinr.two_way_rates": ("evaluation", "two_way_rates", None),
    "sinr.network_utility": ("optimizer", "network_utility", None),
    "optimizer.exhaustive_search": ("evaluation", "exhaustive_search", _exhaustive_assignments),
    "optimizer.mst_dp": ("evaluation", "mst_dp", _dp_combinations),
    "optimizer.random_spins": ("evaluation", "random_spins", None),
    "evaluation.run_experiment": ("evaluation", "run_experiment", None),
    "evaluation.write_samples_csv": ("evaluation", "write_samples_csv", _csv_bytes),
    "evaluation.write_plot_csv": ("evaluation", "write_plot_csv", None),
}

COUNTS = (
    "channel.draw_fading.bytes",
    "topology.edges",
    "topology.max_children",
    "optimizer.exhaustive_search.assignments",
    "optimizer.mst_dp.combinations",
    "evaluation.samples_csv.bytes",
)


class Tracer:
    """Self time and call count per layer, from nested wrapper calls."""

    def __init__(self):
        self.layers: dict[str, list] = {}  # name -> [self seconds, calls]
        self.counts = dict.fromkeys(COUNTS, 0)
        self._children: list[float] = []  # per open span: seconds of nested spans

    def wrap(self, name, fn, hook=None):
        entry = self.layers.setdefault(name, [0.0, 0])
        children = self._children
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            children.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                entry[0] += elapsed - children.pop()
                entry[1] += 1
            if hook is not None:
                hook(self.counts, args, result)
                # the hook's own time is tracing overhead, not the caller's self time
                elapsed = clock() - start
            if children:
                children[-1] += elapsed
            return result

        return traced


def main(argv: list[str]) -> int:
    record_path, trace, cli_args = argv[0], argv[1] == "1", argv[2:]
    from spinopt import cli, evaluation, optimizer

    modules = {"evaluation": evaluation, "optimizer": optimizer}
    record = {"experiments": []}
    experiments = record["experiments"]
    run_experiment = evaluation.run_experiment

    @functools.wraps(run_experiment)
    def timed_run_experiment(*args, **kwargs):
        start = time.monotonic()
        try:
            return run_experiment(*args, **kwargs)
        finally:
            experiments.append([start, time.monotonic()])

    evaluation.run_experiment = timed_run_experiment
    entry = cli.main
    tracer = None
    if trace:
        tracer = Tracer()
        for name, (module, attr, hook) in LAYERS.items():
            target = modules[module]
            setattr(target, attr, tracer.wrap(name, getattr(target, attr), hook))
        entry = tracer.wrap("cli", cli.main)
    try:
        code = entry(cli_args)
    finally:
        if tracer is not None:
            record["layers"] = {
                name: {"s": s, "calls": calls} for name, (s, calls) in tracer.layers.items()
            }
            record["counts"] = tracer.counts
        with open(record_path, "w", encoding="utf-8") as fh:
            json.dump(record, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

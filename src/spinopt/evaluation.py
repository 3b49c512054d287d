"""Monte-Carlo evaluation harness.

Each drop generates a fresh network, builds the topology graph and spanning
forest from the long-term gains, and optimizes spins once per algorithm;
the spins then stay fixed while per-frame fading draws produce instantaneous
two-way sum rates. Rates are pooled across links, frames, and drops before
computing the mean and the lower-percentile statistics and the gain ratios
against the random-spin baseline.

Drops are independent work units with derived seeds, so results are
bit-identical regardless of worker count. They run in blocks of
``max(1, min(num_drops // (2 * workers), _BLOCK_BUDGET // held bytes))``,
each block one stage at a time, so that each stage's code and data stay in
cache across the block's drops, and one task per block, read from one
``_stream``, which plans each run as it reaches it, in-process or on a
process pool. A sweep's points share one stream, which queues each
point's blocks before the previous point's last block is read, so the
workers do not idle at a point's end.
Instance generation, topology graphs, spanning forests, spin planes and
each optimizer run as one pass over the block's stacked arrays; a block of
one calls the per-drop ``generate_instance``, ``build_graph``,
``maximum_spanning_tree`` and optimizers.
"""

from __future__ import annotations

import collections
import csv
import itertools
import math
import os
import time
from collections.abc import Iterable
from concurrent import futures
from contextlib import closing, nullcontext
from dataclasses import dataclass, replace

import numpy as np

from .channel import (
    ScenarioConfig,
    _check_seed,
    _check_type,
    _fading_states,
    _is_int,
    check_fields,
    config_to_json,
    draw_fading,
    generate_instance,
    generate_instances,
    _unchecked,
)
from .optimizer import DP_STEP_BUDGET, EXHAUSTIVE_CAP, exhaustive_search, mst_dp, random_spins
from .optimizer import exhaustive_search_block, mst_dp_block, random_spins_block
from .sinr import UtilityKind, spin_planes, spin_selectors, two_way_rates
from .topology import build_graph, build_graphs, maximum_spanning_forests, maximum_spanning_tree

ALGORITHMS = ("exhaustive", "mst_dp", "random")
FADING_MODES = ("rayleigh", "none")

SUMMARY_SCHEMA = "spinopt.summary/1"
SWEEP_SCHEMA = "spinopt.sweep/1"

_SWEEP_TAG = 0x3

# Bytes per chunk of frames whose rates are evaluated at once: the stacked
# snr + inr gains plus _FRAME_STATE_BYTES of fading seed state per frame;
# 148 frames (3.5 kB each) at M = 10, 2,520 at M = 1, 1 at M = 200. A
# chunk's tracemalloc peak is its gains and seed state: 0.57 MB at M = 10,
# 0.39 MB at M = 1, 1.29 MB for the 1.28 MB frame at M = 200. The one rate
# call per chunk adds the (A, F, M, M) selected INRs of one direction at a
# time, 8 B per algorithm, link pair and frame: 0.36 MB for 3 algorithms at
# M = 10, 0.65 MB for 2 at M = 200. They stay out of the divisor: counting
# them split a drop of mc_m10 (M = 10, 100 frames) into two chunks and made
# its run_experiment ~7 % slower. Without the cap, the 10 frames of an
# M = 200 drop (12.8 MB of gains, plus temporaries of that size) raised an
# evaluate run's peak RSS from 49 to 69 MB; without the seed state, a
# chunk of 10 922 frames at M = 1 peaked at 1.6 MB.
FRAME_CHUNK_BUDGET = 512 << 10
# A frame's seed words: 156 B at the peak of hashing 1,024 frames, 32 B held.
# _run_block hashes each window of _STATE_BLOCK // chunk whole chunks (at most
# 3,276 frames), which may span drops, in one _fading_states call: 5 for mc_m10 at 1 worker, 4 at 2.
_FRAME_STATE_BYTES = 160
_STATE_BLOCK = FRAME_CHUNK_BUDGET // _FRAME_STATE_BYTES

# Bytes a block of drops may hold between its stages (instances, graphs,
# forests, spin planes, optimizer results, spin selectors): per drop
# _BLOCK_PAIR_BYTES per link pair plus _BLOCK_DROP_BYTES. Measured per drop
# under tracemalloc: 107.8 B per pair at M = 200, 108.2 at M = 100, 15.0 kB in
# all at M = 10 (3 algorithms), 2.8 kB at M = 1. So a block holds at most 38
# drops at M = 10 and 5 at M = 40, and a drop at M = 200 (4.3 MB) runs alone.
_BLOCK_BUDGET = 1 << 20
_BLOCK_PAIR_BYTES = 108
_BLOCK_DROP_BYTES = 16 << 10

# Memory budget of one run, checked by ExperimentConfig against
# ``peak_bytes()``. Its terms, from tracemalloc peaks of run_experiment:
# - per link pair (M**2): solve_drop, which holds a drop's instance (its
#   (2M, 2M) shadowing and (M, M, 2, 2) INR), spin planes and graph while
#   the DP adds its chords: 134 B at M = 150, above generation, which holds
#   each node-pair array once (100 B at M = 200), and the rate stage, whose
#   drops keep no shadowing and whose frame of gains and rate terms adds
#   32 + 8 B per algorithm (93 B at M = 150); 132.5 B measured from M = 60
#   to 150, 192 B here. A block generates its B drops in one pass, which
#   peaks at 140 B per link pair of its drops at M = 10 (B = 38) and 112 B
#   at M = 40 (B = 5), within this term per drop; blocks of two or more
#   drops exist only within _BLOCK_BUDGET at _BLOCK_PAIR_BYTES per pair, so
#   their pass peaks below _PAIR_BYTES / _BLOCK_PAIR_BYTES MiB (1.8 MiB),
#   one of the phases of the fixed term;
# - per held rate sample: the run's rates and one algorithm's sorted copy;
#   14.4 B measured (one algorithm, 40 to 120 drops at M = 10, in blocks of
#   20 and 38; 15.3 B in blocks of 10 and 30), 20 B here. In a sweep on a
#   pool the parent also holds the next point's block results as they
#   arrive, which peak_bytes(following) counts at the same 20 B a sample;
# - fixed: a chunk of fading frames and its rate terms (~1 MB at M <= 40,
#   ~2 MB for the one frame of a chunk at M = 200), a window of seed states
#   (<= 0.5 MB), a block of samples.csv rows (~1 MB), a block's generation
#   pass (< 1.8 MiB) or the exhaustive screen, which never overlap,
#   whichever is larger (the rest of the peak measured 10.7 MB at
#   M = 20 with exhaustive search, 9.4 MB at M = 18, <= 0.4 MB without
#   it; the screen holds one batch and its re-rank however many
#   assignments tie: 11.2 MB for one M = 20 drop whose every SNR is
#   1e-40), 16 MiB here; the DP step's own budget; and what a block of drops
#   holds between its stages, _BLOCK_BUDGET.
RUN_MEMORY_BUDGET = 2 << 30
_PAIR_BYTES = 192
_SAMPLE_BYTES = 20
_FIXED_BYTES = (16 << 20) + DP_STEP_BUDGET + _BLOCK_BUDGET

# Bound on a two-way rate in bit/s/Hz: each of its two log2(1 + SINR) terms
# is at most log2 of the largest float, below 1024.
_MAX_RATE_PER_HZ = 2048

# Rows of samples.csv formatted before one write: with their "frame,link,"
# tails and one bytes object per cell, a tracemalloc peak of ~1 MB, whatever
# the size of a drop. A drop of mc_m10 (M = 10, 100 frames) is one block.
_CSV_BLOCK_ROWS = 1 << 11


@dataclass(frozen=True)
class ExperimentConfig:
    """One Monte-Carlo experiment: scenario, algorithms, sample sizes.

    With ``ScenarioConfig``, the config schema: the CLI's keys are its fields.
    """

    scenario: ScenarioConfig
    algorithms: tuple[str, ...] = ("mst_dp", "random")
    num_drops: int = 100
    frames_per_drop: int = 100
    utility: UtilityKind = UtilityKind.PROPORTIONAL_FAIRNESS
    bandwidth_hz: float = 1e7
    percentile_q: float = 0.05
    master_seed: int = 0
    fading: str = "rayleigh"

    def __post_init__(self) -> None:
        check_fields(self)
        if not self.algorithms:
            raise ValueError("algorithms must not be empty")
        unknown = [a for a in self.algorithms if a not in ALGORITHMS]
        if unknown:
            raise ValueError(f"unknown algorithms {unknown}; choose from {ALGORITHMS}")
        if len(set(self.algorithms)) != len(self.algorithms):
            raise ValueError(f"algorithms must not repeat a name, got {list(self.algorithms)}")
        if self.num_drops < 1:
            raise ValueError(f"num_drops must be >= 1, got {self.num_drops}")
        if self.frames_per_drop < 1:
            raise ValueError(f"frames_per_drop must be >= 1, got {self.frames_per_drop}")
        if self.bandwidth_hz <= 0:
            raise ValueError(f"bandwidth_hz must be > 0, got {self.bandwidth_hz}")
        if not 0.0 < self.percentile_q < 1.0:
            raise ValueError(f"percentile_q must be in (0, 1), got {self.percentile_q}")
        _check_seed(self.master_seed, "master_seed")
        if self.fading not in FADING_MODES:
            raise ValueError(f"fading must be one of {FADING_MODES}, got {self.fading!r}")
        if "exhaustive" in self.algorithms and self.scenario.num_links > EXHAUSTIVE_CAP:
            raise ValueError(
                f"exhaustive search infeasible for num_links={self.scenario.num_links} "
                f"(cap {EXHAUSTIVE_CAP}); drop it from algorithms"
            )
        if self.peak_bytes() > RUN_MEMORY_BUDGET:
            raise ValueError(
                f"run needs ~{self.peak_bytes() / 2**30:.3g} GiB, above the budget of "
                f"{RUN_MEMORY_BUDGET / 2**30:g} GiB: lower num_links (the cost grows as its "
                "square) or num_drops * frames_per_drop * num_links * len(algorithms)"
            )
        # the mean sums an algorithm's pooled rates, each below _MAX_RATE_PER_HZ
        pooled = float(self.num_drops * self.frames_per_drop * self.scenario.num_links)
        if not math.isfinite(_MAX_RATE_PER_HZ * float(self.bandwidth_hz) * pooled):
            raise ValueError(
                f"bandwidth_hz {self.bandwidth_hz!r} lets the pooled rates overflow: "
                f"{_MAX_RATE_PER_HZ} * bandwidth_hz * num_drops * frames_per_drop * num_links "
                "must be a finite float"
            )

    def peak_bytes(self, following: ExperimentConfig | None = None) -> int:
        """Upper bound on the memory one process holds while running this experiment.

        With a process pool, each worker holds a block of drops (the
        per-pair and fixed terms) and the parent holds the samples. In a
        sweep, the parent also holds the block results of ``following``,
        the next point, whose blocks are queued behind this one's.
        """
        points = (self,) if following is None else (self, following)
        m = max(point.scenario.num_links for point in points)
        samples = sum(
            p.num_drops * p.frames_per_drop * p.scenario.num_links * len(p.algorithms)
            for p in points
        )
        return _PAIR_BYTES * m * m + _SAMPLE_BYTES * samples + _FIXED_BYTES


@dataclass
class AlgorithmStats:
    """Pooled per-algorithm rate statistics for one experiment."""

    rates_bps: np.ndarray | None  # (num_drops, frames_per_drop, num_links); None in a sweep
    mean_bps: float
    percentile_bps: float
    mean_objective: float
    optimize_time_s: float
    sample_count: int
    gain_mean_vs_random: float | None = None
    gain_percentile_vs_random: float | None = None
    warned_drops: int = 0  # drops whose optimizer result carries a warning


@dataclass
class EvalReport:
    """Results of one experiment, deterministic given the config."""

    config: ExperimentConfig
    stats: dict[str, AlgorithmStats]
    d_max: int
    d_mean: float
    mean_edges: float
    elapsed_s: float
    workers: int = 1  # processes the drops ran on
    block_drops: int | None = None  # drops per block, one task each; None if not run

    def summary_json(self) -> dict:
        """Data-only summary (no timing), stable across identical runs."""
        per_alg = {}
        for name, st in self.stats.items():
            # plot_rows reads the first four entries, plot_data.csv's statistics
            per_alg[name] = {
                "mean_rate_bps": st.mean_bps,
                "percentile_rate_bps": st.percentile_bps,
                "gain_mean_vs_random": st.gain_mean_vs_random,
                "gain_percentile_vs_random": st.gain_percentile_vs_random,
                # -inf when every assignment of a drop leaves a link at rate 0
                "mean_objective": st.mean_objective if math.isfinite(st.mean_objective) else None,
                "sample_count": st.sample_count,
            }
        experiment = config_to_json(self.config)
        scenario = experiment.pop("scenario")
        experiment["pooling"] = "per-link per-frame rates pooled over links, frames, drops"
        experiment["edge_threshold_note"] = (
            f"topology edges require a cross INR above {scenario['inr_edge_threshold']} (linear)"
        )
        return {
            "schema": SUMMARY_SCHEMA,
            "scenario": scenario,
            "experiment": experiment,
            "algorithms": per_alg,
            "tree_children_max": self.d_max,
            "tree_children_mean_of_max": self.d_mean,
            "mean_graph_edges": self.mean_edges,
        }

    def run_json(self) -> dict:
        """Wall-clock times, dispatch and optimizer warnings: not byte-stable."""
        return {
            "timing": {
                "elapsed_s": self.elapsed_s,
                "optimize_time_s": {name: st.optimize_time_s for name, st in self.stats.items()},
            },
            "workers": self.workers,
            "block_drops": self.block_drops,
            "optimizer_warnings": {name: st.warned_drops for name, st in self.stats.items()},
        }


def percentile_label(q: float) -> str:
    """Report label of a lower quantile, e.g. "p5" for 0.05 and "p29" for 0.29."""
    return f"p{q * 100:g}"


def _rank(size: int, q: float) -> int:
    """Index of the lower empirical q-quantile in an ascending sample of ``size``."""
    if size == 0:
        raise ValueError("percentile of an empty sample")
    if not 0.0 < q < 1.0:
        raise ValueError(f"q must be in (0, 1), got {q}")
    qn = q * size
    # guard against binary-float excess (e.g. 0.07 * 100 is 7.000000000000001)
    return max(0, math.ceil(qn - abs(qn) * 1e-12) - 1)


def solve_drop(config: ExperimentConfig, instances: list, baseline_seeds: list[int]):
    """(graphs, trees, planes, results, seconds) of a block of drops, one entry per drop.

    The single algorithm dispatch of the package: builds the block's
    topology graphs, maximum spanning forests (one Borůvka) and spin planes in
    one pass each, then runs each algorithm's block optimizer once over the
    block with the experiment's utility. A block of one takes the per-drop
    ``build_graph``, ``maximum_spanning_tree`` and optimizers, which the
    benchmark probe wraps by name. ``results`` maps each algorithm, in
    config order, to its block optimizer's list of one ``OptimizationResult``
    per drop; ``seconds`` maps each algorithm to its time over the block. A
    drop's ``baseline_seeds`` entry seeds its random baseline.
    """
    threshold, utility = config.scenario.inr_edge_threshold, config.utility
    inr = [instance.inr for instance in instances]
    if len(instances) == 1:
        graphs = [build_graph(instances[0], threshold)]
        trees = [maximum_spanning_tree(graphs[0])]
        args = (instances[0], graphs[0])
        solvers = {
            "exhaustive": lambda planes: [exhaustive_search(*args, utility, planes[0])],
            "mst_dp": lambda planes: [mst_dp(*args, trees[0], utility, planes[0])],
            "random": lambda planes: [random_spins(*args, utility, baseline_seeds[0], planes[0])],
        }
    else:
        graphs = build_graphs(np.stack(inr), threshold)
        trees = maximum_spanning_forests(np.stack([graph.weight for graph in graphs]))
        snr, roots = np.stack([instance.snr for instance in instances]), [t.roots for t in trees]
        solvers = {
            "exhaustive": lambda planes: exhaustive_search_block(snr, planes, roots, utility),
            "mst_dp": lambda planes: mst_dp_block(snr, planes, trees, utility),
            "random": lambda planes: random_spins_block(snr, planes, baseline_seeds, utility),
        }
    planes = spin_planes(inr, np.stack([graph.adjacency for graph in graphs]))
    results, seconds = {}, {}  # per algorithm: its block's results; its seconds
    for name in config.algorithms:
        start = time.perf_counter()
        results[name] = solvers[name](planes)
        seconds[name] = time.perf_counter() - start
    return graphs, trees, planes, results, seconds


def _check_workers(workers) -> int:
    """``workers`` as an int, refused by name unless it passes the int rule and is >= 1."""
    if not _is_int(workers):
        raise ValueError(f"workers must be an integer, got {workers!r}")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    return int(workers)


def _cpu_count() -> int:
    """CPUs this process may run on: its affinity mask where the platform has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _block_drops(config: ExperimentConfig, workers: int) -> int:
    """Drops per block: at most half of each worker's share, and at most as
    many as ``_BLOCK_BUDGET`` holds; at least one. Half shares suffice since
    a sweep's blocks are one stream, so workers balance over the whole sweep."""
    held = _BLOCK_PAIR_BYTES * config.scenario.num_links**2 + _BLOCK_DROP_BYTES
    return max(1, min(config.num_drops // (2 * workers), _BLOCK_BUDGET // held))


def _plan(config: ExperimentConfig, workers: int) -> list:
    """The tasks of a run on ``workers``, a count its caller has already
    bounded: one per block of (drop seed, baseline seed) pairs derived from
    the master seed."""
    drop_seeds = np.random.SeedSequence(config.master_seed).generate_state(
        2 * config.num_drops, dtype=np.uint64
    ).tolist()
    jobs = list(zip(drop_seeds[0::2], drop_seeds[1::2]))
    block = _block_drops(config, workers)
    # a task pickles its block's shared config once
    return [(config, jobs[start : start + block]) for start in range(0, len(jobs), block)]


def _run_block(task) -> tuple:
    """A block of B drops, one stage at a time over all of them: generate the
    instances in one pass (a block of one through ``generate_instance``),
    solve every drop, build every selector, then evaluate every drop's
    frames, hashing the fading seed states once per window of frames and
    refusing, by drop seed, a faded SNR beyond the float range (a non-finite rate).
    Returns the (A, B, F, M) rates in bit/s, (A, B) objectives and warning
    flags, B tree child maxima and edge counts, and solve_drop's seconds."""
    config, jobs = task
    scenario = config.scenario
    drop_seeds = [drop_seed for drop_seed, _ in jobs]
    if len(jobs) == 1:
        instances = [generate_instance(scenario, drop_seeds[0])]
    else:
        instances = generate_instances(scenario, drop_seeds)
    graphs, trees, planes, results, seconds = solve_drop(
        config, instances, [baseline_seed for _, baseline_seed in jobs]
    )
    # each drop with its planes as INR: the rates' long-term gains, which its
    # fading scales. Only these fields are read from here on, so the block's
    # (B, 2M, 2M) shadowing and its positions are freed before its frames
    instances = [
        _unchecked(type(i), num_links=i.num_links, snr=i.snr, inr=p, seed_key=i.seed_key)
        for i, p in zip(instances, planes)
    ]
    # (B, A, M) spins, one row per algorithm: a chunk's rates come from one call for all of them
    selectors = spin_selectors([[res.spins for res in drop] for drop in zip(*results.values())])
    shape = (len(config.algorithms), len(jobs), config.frames_per_drop, scenario.num_links)
    rates = np.empty(shape)
    if config.fading == "none":
        # every frame of a drop sees the long-term gains
        for drop, (instance, selector) in enumerate(zip(instances, selectors)):
            rates[:, drop] = two_way_rates(instance, selector)[:, None]
    else:
        frame_bytes = instances[0].snr.nbytes + instances[0].inr.nbytes + _FRAME_STATE_BYTES
        chunk, frames_per_drop = max(1, FRAME_CHUNK_BUDGET // frame_bytes), config.frames_per_drop
        chunks = (
            (drop, range(start, min(start + chunk, frames_per_drop)))
            for drop in range(len(jobs))
            for start in range(0, frames_per_drop, chunk)
        )
        # a window: the next chunks within _STATE_BLOCK frames (at least one), a lane each
        per_window = max(1, _STATE_BLOCK // min(chunk, frames_per_drop))
        while window := list(itertools.islice(chunks, per_window)):
            states = _fading_states([(instances[drop].seed_key, frames) for drop, frames in window])
            for (drop, frames), chunk_states in zip(window, states):
                draw = draw_fading(instances[drop], frames, chunk_states)
                if not np.isfinite(draw.snr).all():
                    raise ValueError(
                        f"drop seed {drop_seeds[drop]}: a faded SNR is not finite; its scale is "
                        "set by shadow_sigma_db and the SNRs (snr_sym_db, snr_asym_lr_db, "
                        "snr_asym_rl_db)"
                    )
                rates[:, drop, frames.start : frames.stop] = two_way_rates(draw, selectors[drop])
    rates *= config.bandwidth_hz
    objectives = [[res.objective_exact for res in drops] for drops in results.values()]
    warned = [[res.warning is not None for res in drops] for drops in results.values()]
    max_children = [tree.max_children for tree in trees]
    num_edges = [int(graph.adjacency.sum()) // 2 for graph in graphs]
    return rates, objectives, warned, max_children, num_edges, seconds


def _stream(workers: int, configs):
    """The block results of each run of ``configs`` in turn, in order; each
    run is planned by ``_plan`` for ``workers`` as the stream reaches it.

    With one worker, each block runs in-process as it is read. Otherwise the
    first read opens a process pool of ``workers``, which the stream shuts
    down as it ends or closes: a run's blocks are already submitted when
    its first result is asked for, and that request submits the next run's
    blocks behind them, so the workers go on to them while the parent reads
    this run's tail. Closing the stream cancels every queued block but the
    up to ``workers + 1`` in the pool's call queue, which ``Future.cancel``
    cannot stop, and waits for those.
    """
    plans = (_plan(config, workers) for config in configs)
    if workers == 1:
        for tasks in plans:
            yield from map(_run_block, tasks)
        return
    queued, reading = collections.deque(), 0  # futures not yet read; blocks of the run being read
    with futures.ProcessPoolExecutor(max_workers=workers) as pool:
        try:
            # a last, empty plan submits nothing and reads the last run's blocks
            for tasks in itertools.chain(plans, [()]):
                queued.extend(pool.submit(_run_block, task) for task in tasks)
                for _ in range(reading):
                    # each future is dropped as it is read, and its block's arrays with it
                    yield queued.popleft().result()
                reading = len(tasks)
        finally:
            for future in queued:
                future.cancel()


def run_experiment(config: ExperimentConfig, workers: int = 1, blocks=None) -> EvalReport:
    """Run the full Monte-Carlo experiment.

    Drops run in blocks of ``_block_drops(config, workers)``, one task per
    block, read from ``blocks``, a sweep's ``_stream`` that holds this run's
    blocks next, or else from a ``_stream`` of this run's own, which closes
    with it: in-process or, with ``workers > 1``, on a process pool of at
    most ``num_drops`` and ``_cpu_count()`` workers. Per-drop seeds are
    derived up front from the master seed, and each block is written at the
    next drops, as many as it holds, so the report depends on neither the
    worker count nor the block size.
    """
    _check_type(config, ExperimentConfig, "config")
    workers = _check_workers(workers)
    t_start = time.perf_counter()
    # a sweep counted the CPUs once for all its points
    workers = min(workers, config.num_drops, _cpu_count() if blocks is None else workers)
    algorithms, drops = config.algorithms, config.num_drops
    rates = np.empty((len(algorithms), drops, config.frames_per_drop, config.scenario.num_links))
    objectives = np.empty((len(algorithms), drops))
    warned = np.empty((len(algorithms), drops), dtype=bool)
    max_children, num_edges = np.empty(drops, dtype=np.int64), np.empty(drops, dtype=np.int64)
    optimize_time = collections.Counter()
    with closing(_stream(workers, [config])) if blocks is None else nullcontext(blocks) as blocks:
        start = 0
        # exactly this run's blocks, from a sweep's stream too
        while start < drops:
            block_rates, objective, warning, children, edges, seconds = next(blocks)
            drop = slice(start, start + len(children))
            rates[:, drop], objectives[:, drop] = block_rates, objective
            warned[:, drop], max_children[drop], num_edges[drop] = warning, children, edges
            optimize_time.update(seconds)
            start = drop.stop

    stats: dict[str, AlgorithmStats] = {}
    for a, name in enumerate(algorithms):
        pooled = np.sort(rates[a].ravel())
        stats[name] = AlgorithmStats(
            rates_bps=rates[a],
            mean_bps=float(pooled.mean()),
            percentile_bps=float(pooled[_rank(pooled.size, config.percentile_q)]),
            mean_objective=float(objectives[a].mean()),
            optimize_time_s=optimize_time[name],
            sample_count=pooled.size,
            warned_drops=int(warned[a].sum()),
        )
        del pooled  # so that the next sort does not hold two pools
    if "random" in stats:
        ref = stats["random"]
        # a gain against a zero baseline statistic is None: null in the data files
        for st in stats.values():
            st.gain_mean_vs_random = st.mean_bps / ref.mean_bps if ref.mean_bps else None
            st.gain_percentile_vs_random = (
                st.percentile_bps / ref.percentile_bps if ref.percentile_bps else None
            )

    return EvalReport(
        config=config,
        stats=stats,
        d_max=int(max_children.max()),
        d_mean=float(max_children.mean()),
        mean_edges=float(num_edges.mean()),
        elapsed_s=time.perf_counter() - t_start,
        workers=workers,
        block_drops=_block_drops(config, workers),
    )


def sweep(configs: list[ExperimentConfig], workers: int = 1) -> list[EvalReport]:
    """Run one experiment per config with per-point derived seeds.

    Point ``i`` runs with a master seed derived from (its own master seed,
    i), so points never share random streams even when their configs match.
    Every point's run reads its blocks from one ``_stream``, in-process or,
    with ``workers > 1``, on one pool of at most the largest ``num_drops`` and
    ``_cpu_count()`` workers, which the first point's run opens: a point's
    blocks are queued at the previous point's first read, and an error in
    any point cancels the queued blocks. The CPUs are counted once, here, and
    the stream plans every point's blocks for the workers this count allows.
    Each point's samples are released as its run returns, so in-process a
    sweep holds one point's samples at a time, and on a pool at most one
    point's samples and the next point's block results, within
    ``peak_bytes(following)`` of each point: on a pool, a sweep with a pair of
    points above the budget is refused before any process starts. Its reports
    carry statistics but no ``rates_bps``.
    """
    workers = _check_workers(workers)
    _check_type(configs, Iterable, "configs")
    points = []
    for i, config in enumerate(configs):
        _check_type(config, ExperimentConfig, f"configs[{i}]")
        derived = int(
            np.random.SeedSequence(
                entropy=(config.master_seed, i, _SWEEP_TAG)
            ).generate_state(1, dtype=np.uint64)[0]
        )
        points.append(replace(config, master_seed=derived))
    workers = min(workers, max((point.num_drops for point in points), default=1), _cpu_count())
    for i, (point, following) in enumerate(itertools.pairwise(points)):
        # in-process, a point's run holds only its own samples
        if workers > 1 and point.peak_bytes(following) > RUN_MEMORY_BUDGET:
            raise ValueError(
                f"sweep points {i}, {i + 1} (num_links {point.scenario.num_links}, "
                f"{following.scenario.num_links}) need ~{point.peak_bytes(following) / 2**30:.3g} "
                f"GiB together, above the budget of {RUN_MEMORY_BUDGET / 2**30:g} GiB: a sweep on "
                "a pool holds one point's samples and the next point's block results; lower "
                "num_drops * frames_per_drop or the points' num_links, or run it on one worker"
            )
    reports = []
    with closing(_stream(workers, points)) as blocks:
        for point in points:
            # through the module global, so that wrappers of run_experiment see every point
            report = run_experiment(point, workers, blocks)
            for st in report.stats.values():
                st.rates_bps = None  # nothing reads a sweep's samples
            reports.append(report)
    return reports


def _csv_cells(values: np.ndarray) -> list[bytes]:
    """``repr(float(x)).encode()`` of each value of a non-empty 1-D
    C-contiguous float64 array.

    One ``orjson.dumps`` call spells the values: its shortest round-trip
    digits equal ``repr``'s wherever ``repr`` writes them positionally, at
    1e-4 <= |x| < 1e16 and 0. The other values, where ``repr`` uses an
    exponent form or writes a non-finite value, take ``repr`` itself.
    """
    import orjson  # ~14 ms cold: only samples.csv needs it

    cells = orjson.dumps(values, option=orjson.OPT_SERIALIZE_NUMPY)[1:-1].split(b",")
    magnitude = np.abs(values)
    exponent_form = ~((magnitude >= 1e-4) & (magnitude < 1e16)) & (values != 0)
    for i in np.flatnonzero(exponent_form):
        cells[i] = repr(float(values[i])).encode()
    return cells


def write_samples_csv(report: EvalReport, path) -> None:
    """Per-sample CSV: algorithm, num_links, drop, frame, link, rate_bps.

    The bytes of ``csv.writer``'s default dialect (no field needs quoting,
    rows end in CRLF, a rate is its ``repr``), written one join per block
    of a drop's frames, so the rows held at once stay near
    ``_CSV_BLOCK_ROWS``.
    """
    if any(st.rates_bps is None for st in report.stats.values()):
        raise ValueError("the report holds no samples: a sweep() report keeps no rates_bps")
    m = report.config.scenario.num_links
    frames = report.config.frames_per_drop
    step = max(1, _CSV_BLOCK_ROWS // m)

    def tails(start: int) -> list[bytes]:
        stop = min(start + step, frames)
        return [f"{f},{l},".encode() for f in range(start, stop) for l in range(m)]

    # the first block's tails serve every drop; a drop of one block needs no other
    first = tails(0)
    with open(path, "wb") as fh:
        fh.write(b"algorithm,num_links,drop,frame,link,rate_bps\r\n")
        for name in report.config.algorithms:
            rates = report.stats[name].rates_bps
            for d in range(rates.shape[0]):
                head = f"{name},{m},{d},".encode()
                for start in range(0, frames, step):
                    rows = first if start == 0 else tails(start)
                    # row r is parts[4r : 4r + 4]: head, tail, cell, CRLF
                    parts = [head, b"", b"", b"\r\n"] * len(rows)
                    parts[1::4] = rows
                    parts[2::4] = _csv_cells(rates[d, start : start + step].ravel())
                    fh.write(b"".join(parts))


def plot_rows(reports: list[EvalReport]) -> list[dict]:
    """One row per (experiment point, algorithm) for rate/gain curves: the
    point's ``num_links`` and ``link_mix``, the algorithm, then the first four
    entries of its ``summary_json`` record, its mean and percentile rates and
    their gains against the random baseline."""
    rows = []
    for report in reports:
        summary = report.summary_json()
        point = {key: summary["scenario"][key] for key in ("num_links", "link_mix")}
        for name, record in summary["algorithms"].items():
            rows.append({**point, "algorithm": name, **dict(itertools.islice(record.items(), 4))})
    return rows


def write_plot_csv(reports: list[EvalReport], path) -> None:
    """``plot_rows`` as CSV; ``csv.writer`` writes a float as its repr and None
    as an empty cell."""
    if not reports:
        raise ValueError("reports must hold at least one report, got none")
    rows = plot_rows(reports)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(rows[0].keys())
        writer.writerows(row.values() for row in rows)

"""Monte-Carlo evaluation harness.

Each drop generates a fresh network, builds the topology graph and spanning
forest from the long-term gains, and optimizes spins once per algorithm;
the spins then stay fixed while per-frame fading draws produce instantaneous
two-way sum rates. Rates are pooled across links, frames, and drops before
computing the mean and the lower-percentile statistics and the gain ratios
against the random-spin baseline.

Drops are independent work units with derived seeds, so results are
bit-identical regardless of worker count.
"""

from __future__ import annotations

import csv
import math
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .channel import ScenarioConfig, draw_fading, generate_instance, scenario_to_json
from .optimizer import (
    EXHAUSTIVE_CAP_DEFAULT,
    exhaustive_search,
    mst_dp,
    random_spins,
)
from .sinr import UtilityKind, spin_selectors, two_way_rates
from .topology import build_graph, maximum_spanning_tree

ALGORITHMS = ("exhaustive", "mst_dp", "random")
FADING_MODES = ("rayleigh", "none")

SUMMARY_SCHEMA = "spinopt.summary/1"
SWEEP_SCHEMA = "spinopt.sweep/1"

_SWEEP_TAG = 0x3

# Bytes of stacked snr + inr gains per chunk of frames whose rates are
# evaluated at once: 100 frames (3.3 kB each) at M = 10, 1 frame at M = 200.
# Without the cap, the 10 frames of an M = 200 drop (12.8 MB of gains, plus
# temporaries of that size) raised an evaluate run's peak RSS from 49 to 69 MB.
FRAME_CHUNK_BUDGET = 512 << 10


@dataclass(frozen=True)
class ExperimentConfig:
    """One Monte-Carlo experiment: scenario, algorithms, sample sizes."""

    scenario: ScenarioConfig
    algorithms: tuple[str, ...] = ("mst_dp", "random")
    num_drops: int = 100
    frames_per_drop: int = 100
    utility: UtilityKind = UtilityKind.PROPORTIONAL_FAIRNESS
    bandwidth_hz: float = 1e7
    percentile_q: float = 0.05
    master_seed: int = 0
    fading: str = "rayleigh"
    exhaustive_cap: int = EXHAUSTIVE_CAP_DEFAULT

    def __post_init__(self) -> None:
        object.__setattr__(self, "algorithms", tuple(self.algorithms))
        if not self.algorithms:
            raise ValueError("algorithms must not be empty")
        unknown = [a for a in self.algorithms if a not in ALGORITHMS]
        if unknown:
            raise ValueError(f"unknown algorithm(s) {unknown}; choose from {ALGORITHMS}")
        if len(set(self.algorithms)) != len(self.algorithms):
            raise ValueError("duplicate algorithm names")
        if self.num_drops < 1:
            raise ValueError(f"num_drops must be >= 1, got {self.num_drops}")
        if self.frames_per_drop < 1:
            raise ValueError(f"frames_per_drop must be >= 1, got {self.frames_per_drop}")
        if not isinstance(self.utility, UtilityKind):
            raise ValueError(f"utility must be a UtilityKind, got {self.utility!r}")
        if not (math.isfinite(self.bandwidth_hz) and self.bandwidth_hz > 0):
            raise ValueError(f"bandwidth_hz must be finite and > 0, got {self.bandwidth_hz}")
        if not 0.0 < self.percentile_q < 1.0:
            raise ValueError(f"percentile_q must be in (0, 1), got {self.percentile_q}")
        if self.fading not in FADING_MODES:
            raise ValueError(f"fading must be one of {FADING_MODES}, got {self.fading!r}")
        if "exhaustive" in self.algorithms and self.scenario.num_links > self.exhaustive_cap:
            raise ValueError(
                f"exhaustive search infeasible for {self.scenario.num_links} links "
                f"(cap {self.exhaustive_cap}); drop it from algorithms or raise the cap"
            )


@dataclass
class AlgorithmStats:
    """Pooled per-algorithm rate statistics for one experiment."""

    algorithm: str
    rates_bps: np.ndarray  # (num_drops, frames_per_drop, num_links)
    mean_bps: float
    percentile_bps: float
    mean_objective: float
    optimize_time_s: float
    gain_mean_vs_random: float | None = None
    gain_percentile_vs_random: float | None = None

    @property
    def sample_count(self) -> int:
        return int(self.rates_bps.size)


@dataclass
class EvalReport:
    """Results of one experiment, deterministic given the config."""

    config: ExperimentConfig
    stats: dict[str, AlgorithmStats]
    d_max: int
    d_mean: float
    mean_edges: float
    elapsed_s: float

    def summary_json(self) -> dict:
        """Data-only summary (no timing), stable across identical runs."""
        per_alg = {}
        for name, st in self.stats.items():
            per_alg[name] = {
                "mean_rate_bps": st.mean_bps,
                "percentile_rate_bps": st.percentile_bps,
                "gain_mean_vs_random": st.gain_mean_vs_random,
                "gain_percentile_vs_random": st.gain_percentile_vs_random,
                "mean_objective": st.mean_objective,
                "sample_count": st.sample_count,
            }
        return {
            "schema": SUMMARY_SCHEMA,
            "scenario": scenario_to_json(self.config.scenario),
            "experiment": {
                "algorithms": list(self.config.algorithms),
                "num_drops": self.config.num_drops,
                "frames_per_drop": self.config.frames_per_drop,
                "utility": self.config.utility.value,
                "bandwidth_hz": self.config.bandwidth_hz,
                "percentile_q": self.config.percentile_q,
                "master_seed": self.config.master_seed,
                "fading": self.config.fading,
                "pooling": "per-link per-frame rates pooled over links, frames, drops",
                "edge_threshold_note": (
                    "topology edges require a cross INR above "
                    f"{self.config.scenario.inr_edge_threshold} (linear)"
                ),
            },
            "algorithms": per_alg,
            "tree_children_max": self.d_max,
            "tree_children_mean_of_max": self.d_mean,
            "mean_graph_edges": self.mean_edges,
        }

    def timing_json(self) -> dict:
        timing = {name: st.optimize_time_s for name, st in self.stats.items()}
        return {"elapsed_s": self.elapsed_s, "optimize_time_s": timing}


def percentile_label(q: float) -> str:
    """Report label of a lower quantile, e.g. "p5" for 0.05 and "p29" for 0.29."""
    return f"p{q * 100:g}"


def percentile(sample: np.ndarray, q: float) -> float:
    """Lower empirical quantile: ascending order statistic ceil(q*n) - 1.

    No interpolation, so the value is always an observed sample and the
    result is byte-stable for golden comparisons.
    """
    sample = np.asarray(sample, dtype=float).ravel()
    if sample.size == 0:
        raise ValueError("percentile of an empty sample")
    if not 0.0 < q < 1.0:
        raise ValueError(f"q must be in (0, 1), got {q}")
    qn = q * sample.size
    # guard against binary-float excess (e.g. 0.05 * 100 slightly above 5)
    index = max(0, math.ceil(qn - abs(qn) * 1e-12) - 1)
    return float(np.sort(sample)[index])


def optimize(config: ExperimentConfig, algorithm, instance, graph, tree, baseline_seed):
    """Run one of ``ALGORITHMS`` with the experiment's utility and caps.

    The single algorithm dispatch of the package; ``baseline_seed`` seeds
    the random baseline.
    """
    if algorithm == "exhaustive":
        return exhaustive_search(instance, graph, config.utility, cap=config.exhaustive_cap)
    if algorithm == "mst_dp":
        return mst_dp(instance, graph, tree, config.utility)
    if algorithm == "random":
        return random_spins(instance, graph, config.utility, baseline_seed)
    raise ValueError(f"unknown algorithm {algorithm!r}")


def _run_drop(args) -> dict:
    """One drop: optimize once per algorithm, then evaluate every frame."""
    config, drop_seed, baseline_seed = args
    scenario = config.scenario
    instance = generate_instance(scenario, drop_seed)
    graph = build_graph(instance, scenario.inr_edge_threshold)
    tree = maximum_spanning_tree(graph)

    results = {}
    selectors = {}
    for name in config.algorithms:
        res = optimize(config, name, instance, graph, tree, baseline_seed)
        results[name] = res
        selectors[name] = spin_selectors(graph, res.spins)

    rates = {
        name: np.empty((config.frames_per_drop, scenario.num_links))
        for name in config.algorithms
    }
    if config.fading == "none":
        # every frame of the drop sees the long-term gains
        for name in config.algorithms:
            rates[name][:] = two_way_rates(instance, selectors[name])
    else:
        chunk = max(1, FRAME_CHUNK_BUDGET // (instance.snr.nbytes + instance.inr.nbytes))
        for start in range(0, config.frames_per_drop, chunk):
            frames = range(start, min(start + chunk, config.frames_per_drop))
            draw = draw_fading(instance, frames)
            for name in config.algorithms:
                rates[name][start : frames.stop] = two_way_rates(draw, selectors[name])

    return {
        "rates": {name: config.bandwidth_hz * r for name, r in rates.items()},
        "objective": {name: results[name].objective_exact for name in config.algorithms},
        "optimize_time": {name: results[name].elapsed_s for name in config.algorithms},
        "max_children": tree.max_children,
        "num_edges": int(graph.adjacency.sum()) // 2,
    }


def run_experiment(config: ExperimentConfig, workers: int = 1) -> EvalReport:
    """Run the full Monte-Carlo experiment.

    ``workers > 1`` dispatches drops to a process pool of at most
    ``num_drops`` workers; per-drop seeds are derived up front from the
    master seed and drop payloads are reduced in drop order, so the report
    does not depend on the worker count.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    workers = min(workers, config.num_drops)
    t_start = time.perf_counter()
    drop_seeds = np.random.SeedSequence(config.master_seed).generate_state(
        2 * config.num_drops, dtype=np.uint64
    )
    jobs = [
        (config, int(drop_seeds[2 * d]), int(drop_seeds[2 * d + 1]))
        for d in range(config.num_drops)
    ]
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            payloads = list(pool.map(_run_drop, jobs))
    else:
        payloads = [_run_drop(job) for job in jobs]

    stats: dict[str, AlgorithmStats] = {}
    for name in config.algorithms:
        rates = np.stack([p["rates"][name] for p in payloads])
        pooled = np.sort(rates.ravel())
        stats[name] = AlgorithmStats(
            algorithm=name,
            rates_bps=rates,
            mean_bps=float(pooled.mean()),
            percentile_bps=percentile(pooled, config.percentile_q),
            mean_objective=float(np.mean([p["objective"][name] for p in payloads])),
            optimize_time_s=float(sum(p["optimize_time"][name] for p in payloads)),
        )
    if "random" in stats:
        ref = stats["random"]
        for st in stats.values():
            st.gain_mean_vs_random = st.mean_bps / ref.mean_bps
            st.gain_percentile_vs_random = st.percentile_bps / ref.percentile_bps

    children_max = [p["max_children"] for p in payloads]
    return EvalReport(
        config=config,
        stats=stats,
        d_max=int(max(children_max)),
        d_mean=float(np.mean(children_max)),
        mean_edges=float(np.mean([p["num_edges"] for p in payloads])),
        elapsed_s=time.perf_counter() - t_start,
    )


def sweep(configs: list[ExperimentConfig], workers: int = 1) -> list[EvalReport]:
    """Run one experiment per config with per-point derived seeds.

    Point ``i`` runs with a master seed derived from (its own master seed,
    i), so points never share random streams even when their configs match.
    """
    reports = []
    for i, config in enumerate(configs):
        derived = int(
            np.random.SeedSequence(
                entropy=(config.master_seed, i, _SWEEP_TAG)
            ).generate_state(1, dtype=np.uint64)[0]
        )
        reports.append(run_experiment(replace(config, master_seed=derived), workers=workers))
    return reports


def write_samples_csv(report: EvalReport, path) -> None:
    """Per-sample CSV: algorithm, num_links, drop, frame, link, rate_bps.

    The bytes of ``csv.writer``'s default dialect (no field needs quoting,
    rows end in CRLF), written one string per (algorithm, drop).
    """
    m = report.config.scenario.num_links
    frames = report.config.frames_per_drop
    tails = [f"{f},{l}," for f in range(frames) for l in range(m)]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write("algorithm,num_links,drop,frame,link,rate_bps\r\n")
        for name in report.config.algorithms:
            rates = report.stats[name].rates_bps
            for d in range(rates.shape[0]):
                head = f"{name},{m},{d},"
                rows = zip(tails, rates[d].ravel().tolist())
                fh.write("".join([f"{head}{tail}{r!r}\r\n" for tail, r in rows]))


def plot_rows(reports: list[EvalReport]) -> list[dict]:
    """One row per (experiment point, algorithm) for rate/gain curves."""
    rows = []
    for report in reports:
        scenario = report.config.scenario
        for name in report.config.algorithms:
            st = report.stats[name]
            rows.append(
                {
                    "num_links": scenario.num_links,
                    "link_mix": scenario.link_mix,
                    "algorithm": name,
                    "mean_rate_bps": st.mean_bps,
                    "percentile_rate_bps": st.percentile_bps,
                    "gain_mean_vs_random": st.gain_mean_vs_random,
                    "gain_percentile_vs_random": st.gain_percentile_vs_random,
                }
            )
    return rows


def write_plot_csv(reports: list[EvalReport], path) -> None:
    rows = plot_rows(reports)
    columns = [
        "num_links",
        "link_mix",
        "algorithm",
        "mean_rate_bps",
        "percentile_rate_bps",
        "gain_mean_vs_random",
        "gain_percentile_vs_random",
    ]
    def cell(value):
        if value is None:
            return ""
        return repr(value) if isinstance(value, float) else value

    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        for row in rows:
            writer.writerow([cell(row[c]) for c in columns])

import math

import numpy as np
import pytest

from helpers import per_frame_rates, write_samples_csv_rows
from spinopt import evaluation
from spinopt.channel import ScenarioConfig, generate_instance
from spinopt.evaluation import (
    FADING_MODES,
    AlgorithmStats,
    EvalReport,
    ExperimentConfig,
    percentile,
    plot_rows,
    run_experiment,
    sweep,
    write_plot_csv,
    write_samples_csv,
)
from spinopt.sinr import UtilityKind

SUM_RATE = UtilityKind.TWO_WAY_SUM_RATE
PF = UtilityKind.PROPORTIONAL_FAIRNESS


def small_config(**overrides):
    scenario_kwargs = overrides.pop("scenario_kwargs", {})
    scenario = ScenarioConfig(num_links=3, seed=1, **scenario_kwargs)
    defaults = dict(
        scenario=scenario,
        algorithms=("exhaustive", "mst_dp", "random"),
        num_drops=2,
        frames_per_drop=3,
        utility=PF,
        master_seed=7,
    )
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


def test_percentile_order_statistic():
    sample = np.arange(1, 101)
    assert percentile(sample, 0.05) == 5.0
    assert percentile(sample, 0.5) == 50.0
    assert percentile(sample, 0.999) == 100.0
    assert percentile(np.array([42.0]), 0.3) == 42.0
    assert percentile(np.full(10, 3.3), 0.05) == 3.3


def test_percentile_monotone_in_q():
    rng = np.random.default_rng(3)
    sample = rng.exponential(1.0, size=257)
    values = [percentile(sample, q) for q in np.linspace(0.01, 0.99, 33)]
    assert all(a <= b for a, b in zip(values, values[1:]))


def test_percentile_rejects_bad_input():
    with pytest.raises(ValueError):
        percentile(np.array([]), 0.05)
    with pytest.raises(ValueError):
        percentile(np.array([1.0]), 0.0)
    with pytest.raises(ValueError):
        percentile(np.array([1.0]), 1.0)


def test_config_validation():
    scenario = ScenarioConfig(num_links=3, seed=0)
    with pytest.raises(ValueError, match="algorithm"):
        ExperimentConfig(scenario=scenario, algorithms=("nope",))
    with pytest.raises(ValueError, match="num_drops"):
        ExperimentConfig(scenario=scenario, num_drops=0)
    with pytest.raises(ValueError, match="percentile_q"):
        ExperimentConfig(scenario=scenario, percentile_q=1.5)
    with pytest.raises(ValueError, match="fading"):
        ExperimentConfig(scenario=scenario, fading="rician")
    for bandwidth in (0.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="bandwidth_hz"):
            ExperimentConfig(scenario=scenario, bandwidth_hz=bandwidth)
    with pytest.raises(ValueError, match="infeasible"):
        ExperimentConfig(
            scenario=ScenarioConfig(num_links=30, seed=0),
            algorithms=("exhaustive",),
        )


def test_single_link_single_frame_identity_fading():
    config = small_config(
        scenario_kwargs={},
        scenario=ScenarioConfig(num_links=1, seed=3),
        algorithms=("exhaustive",),
        num_drops=1,
        frames_per_drop=1,
        utility=SUM_RATE,
        fading="none",
    )
    report = run_experiment(config)
    st = report.stats["exhaustive"]
    assert st.sample_count == 1

    drop_seed = int(np.random.SeedSequence(config.master_seed).generate_state(2, dtype=np.uint64)[0])
    inst = generate_instance(config.scenario, drop_seed)
    expected = config.bandwidth_hz * (
        math.log2(1 + inst.snr[0, 0]) + math.log2(1 + inst.snr[0, 1])
    )
    assert st.mean_bps == pytest.approx(expected, rel=1e-12)
    assert st.percentile_bps == pytest.approx(expected, rel=1e-12)


def test_identity_fading_mean_matches_objective():
    config = small_config(
        algorithms=("exhaustive",),
        num_drops=1,
        frames_per_drop=2,
        utility=SUM_RATE,
        fading="none",
    )
    report = run_experiment(config)
    st = report.stats["exhaustive"]
    m = config.scenario.num_links
    assert st.mean_bps * m / config.bandwidth_hz == pytest.approx(
        st.mean_objective, rel=1e-12
    )


def test_report_is_reproducible():
    config = small_config()
    a = run_experiment(config)
    b = run_experiment(config)
    for name in config.algorithms:
        np.testing.assert_array_equal(a.stats[name].rates_bps, b.stats[name].rates_bps)
        assert a.stats[name].mean_bps == b.stats[name].mean_bps
        assert a.stats[name].percentile_bps == b.stats[name].percentile_bps
    assert a.summary_json() == b.summary_json()


def test_sample_count_invariant():
    config = small_config(num_drops=3, frames_per_drop=4)
    report = run_experiment(config)
    for st in report.stats.values():
        assert st.sample_count == 3 * 4 * config.scenario.num_links
        assert st.rates_bps.shape == (3, 4, 3)


def test_zero_interference_makes_algorithms_identical():
    config = small_config(
        scenario=ScenarioConfig(num_links=3, seed=5, inr_edge_threshold=1e12),
    )
    report = run_experiment(config)
    exh = report.stats["exhaustive"].rates_bps
    for name in ("mst_dp", "random"):
        np.testing.assert_array_equal(report.stats[name].rates_bps, exh)
    assert report.mean_edges == 0.0


def test_gains_are_relative_to_random():
    config = small_config()
    report = run_experiment(config)
    rnd = report.stats["random"]
    assert rnd.gain_mean_vs_random == 1.0
    assert rnd.gain_percentile_vs_random == 1.0
    for name in ("exhaustive", "mst_dp"):
        st = report.stats[name]
        assert st.gain_percentile_vs_random == pytest.approx(
            st.percentile_bps / rnd.percentile_bps, rel=1e-15
        )
        assert st.gain_percentile_vs_random > 0


def test_gains_absent_without_random_baseline():
    config = small_config(algorithms=("mst_dp",))
    report = run_experiment(config)
    assert report.stats["mst_dp"].gain_mean_vs_random is None


def test_worker_pool_does_not_change_results():
    config = small_config(num_drops=4, frames_per_drop=2)
    serial = run_experiment(config, workers=1)
    parallel = run_experiment(config, workers=3)
    for name in config.algorithms:
        np.testing.assert_array_equal(
            serial.stats[name].rates_bps, parallel.stats[name].rates_bps
        )


def test_pool_gets_at_most_one_worker_per_drop(monkeypatch):
    pools = []

    class RecordingPool:
        """Stands in for the process pool: records its size, maps in-process."""

        def __init__(self, max_workers):
            pools.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs):
            return map(fn, jobs)

    monkeypatch.setattr(evaluation, "ProcessPoolExecutor", RecordingPool)
    config = small_config(num_drops=3, frames_per_drop=2)
    serial = run_experiment(config, workers=1)
    assert pools == []
    for workers in (2, 3, 64):
        assert run_experiment(config, workers=workers).summary_json() == serial.summary_json()
    assert pools == [2, 3, 3]
    run_experiment(small_config(num_drops=1, frames_per_drop=2), workers=8)
    assert pools == [2, 3, 3]
    for workers in (0, -3):
        with pytest.raises(ValueError, match="workers"):
            run_experiment(config, workers=workers)
    assert pools == [2, 3, 3]


def test_sweep_derives_distinct_seeds():
    config = small_config(algorithms=("mst_dp", "random"), num_drops=2, frames_per_drop=2)
    reports = sweep([config, config])
    assert len(reports) == 2
    a, b = reports
    assert a.config.master_seed != b.config.master_seed
    assert not np.array_equal(
        a.stats["mst_dp"].rates_bps, b.stats["mst_dp"].rates_bps
    )


def test_sweep_over_link_counts():
    base = small_config(algorithms=("mst_dp", "random"), num_drops=2, frames_per_drop=2)
    from dataclasses import replace

    configs = [
        replace(base, scenario=replace(base.scenario, num_links=m)) for m in (2, 4)
    ]
    reports = sweep(configs)
    rows = plot_rows(reports)
    assert [r["num_links"] for r in rows] == [2, 2, 4, 4]
    assert {r["algorithm"] for r in rows} == {"mst_dp", "random"}


def test_csv_writers(tmp_path):
    config = small_config(num_drops=1, frames_per_drop=2)
    report = run_experiment(config)
    samples = tmp_path / "samples.csv"
    write_samples_csv(report, samples)
    lines = samples.read_text().strip().splitlines()
    assert lines[0] == "algorithm,num_links,drop,frame,link,rate_bps"
    assert len(lines) == 1 + 3 * 1 * 2 * 3  # header + algs*drops*frames*links

    plot = tmp_path / "plot.csv"
    write_plot_csv([report], plot)
    plot_lines = plot.read_text().strip().splitlines()
    assert len(plot_lines) == 1 + 3
    assert plot_lines[0].startswith("num_links,link_mix,algorithm")


def test_samples_csv_bytes_match_csv_writer(tmp_path):
    config = small_config(algorithms=("mst_dp", "random"), num_drops=2, frames_per_drop=2)
    values = np.array(
        [0.0, 1e-05, 1.5e16, 5e-324, 1.0 / 3.0, 2.5e-7, 123456789.0, 1e22, 0.1, 7.0, 1e-300, 9.5e6]
    )
    stats = {
        name: AlgorithmStats(
            algorithm=name,
            rates_bps=rates.reshape(2, 2, 3),
            mean_bps=0.0,
            percentile_bps=0.0,
            mean_objective=0.0,
            optimize_time_s=0.0,
        )
        for name, rates in zip(config.algorithms, (values, values[::-1]))
    }
    report = EvalReport(config, stats, d_max=0, d_mean=0.0, mean_edges=0.0, elapsed_s=0.0)
    write_samples_csv(report, tmp_path / "fast.csv")
    write_samples_csv_rows(report, tmp_path / "rows.csv")
    written = (tmp_path / "fast.csv").read_bytes()
    assert written == (tmp_path / "rows.csv").read_bytes()
    assert written.count(b"\r\n") == 1 + 2 * 12
    assert b"mst_dp,3,0,1,0,5e-324\r\n" in written


@pytest.mark.parametrize("fading", FADING_MODES)
@pytest.mark.parametrize("frames_per_chunk", [1, 3, 7])
def test_frame_chunks_match_per_frame_loop(monkeypatch, fading, frames_per_chunk):
    # ten links: numpy would sum the ten interferers pairwise, not in
    # ascending order, if the k axis became the innermost one
    config = small_config(
        scenario=ScenarioConfig(num_links=10, link_mix=0.5, seed=1),
        num_drops=2,
        frames_per_drop=7,
        fading=fading,
    )
    m = config.scenario.num_links
    frame_bytes = 8 * (m * 2 + m * m * 2 * 2)  # float64 snr + inr of one frame
    monkeypatch.setattr(evaluation, "FRAME_CHUNK_BUDGET", frames_per_chunk * frame_bytes)
    chunks, draws = [], []
    two_way_rates, draw_fading = evaluation.two_way_rates, evaluation.draw_fading

    def recording(values, selectors):
        rates = two_way_rates(values, selectors)
        chunks.append(rates.shape[:-1])
        return rates

    def recording_draws(instance, frames):
        draws.append(frames)
        return draw_fading(instance, frames)

    monkeypatch.setattr(evaluation, "two_way_rates", recording)
    monkeypatch.setattr(evaluation, "draw_fading", recording_draws)
    report = run_experiment(config)
    sizes = {1: [1] * 7, 3: [3, 3, 1], 7: [7]}[frames_per_chunk]
    if fading == "none":
        # every frame has the long-term gains: one unstacked call per algorithm per drop
        per_drop, drawn = [()] * len(config.algorithms), []
    else:
        per_drop = [(size,) for size in sizes for _ in config.algorithms]
        starts = np.cumsum([0] + sizes).tolist()
        drawn = [range(a, b) for a, b in zip(starts, starts[1:])]
    assert chunks == per_drop * config.num_drops
    assert draws == drawn * config.num_drops
    oracle = per_frame_rates(config)
    for name in config.algorithms:
        assert np.array_equal(report.stats[name].rates_bps, oracle[name])


def test_summary_json_contains_stats_and_d():
    config = small_config()
    report = run_experiment(config)
    data = report.summary_json()
    assert data["schema"] == "spinopt.summary/1"
    assert set(data["algorithms"]) == set(config.algorithms)
    assert data["tree_children_max"] >= 0
    assert data["experiment"]["master_seed"] == 7
    assert "elapsed" not in str(data)

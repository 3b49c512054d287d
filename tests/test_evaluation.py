import json
import math
import re
import time
from concurrent import futures
import tracemalloc
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from helpers import (
    percentile,
    per_frame_rates,
    sweep_with_rates,
    write_plot_csv_cells,
    write_samples_csv_rows,
)
from spinopt import channel, cli, evaluation
from spinopt.channel import ScenarioConfig, generate_instance, generate_instances
from spinopt.cli import load_config, main
from spinopt.evaluation import (
    ALGORITHMS,
    FADING_MODES,
    AlgorithmStats,
    EvalReport,
    ExperimentConfig,
    plot_rows,
    run_experiment,
    sweep,
    write_plot_csv,
    write_samples_csv,
)
from spinopt.optimizer import exhaustive_search, mst_dp, random_spins
from spinopt.sinr import UtilityKind, spin_planes
from spinopt.topology import build_graph, maximum_spanning_tree

REPO = Path(__file__).resolve().parent.parent
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
    with pytest.raises(ValueError, match="algorithms must not be empty"):
        ExperimentConfig(scenario=scenario, algorithms=())
    with pytest.raises(ValueError, match="algorithms must not repeat a name"):
        ExperimentConfig(scenario=scenario, algorithms=("random", "mst_dp", "random"))
    with pytest.raises(ValueError, match="frames_per_drop must be >= 1, got 0"):
        ExperimentConfig(scenario=scenario, frames_per_drop=0)
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


def test_bandwidth_bound_holds_for_the_pooled_sum():
    # 2048 * bandwidth_hz * pooled samples is finite here, so the run is
    # accepted; one more drop doubles the pooled count past the float range
    scenario = ScenarioConfig(num_links=2, seed=1)
    bound = np.finfo(float).max / (2048 * 2)
    ExperimentConfig(scenario=scenario, num_drops=1, frames_per_drop=1, bandwidth_hz=bound)
    with pytest.raises(ValueError, match="bandwidth_hz"):
        ExperimentConfig(scenario=scenario, num_drops=2, frames_per_drop=1, bandwidth_hz=bound)


@pytest.mark.parametrize(
    "section, key, value",
    [
        # an integral float is not an int, and a bool is not a number
        ("scenario", "num_links", 10.0),
        ("scenario", "num_links", True),
        ("scenario", "seed", np.float64(1)),
        ("scenario", "area_side", False),
        ("scenario", "area_side", "100"),
        ("scenario", "link_mix", math.nan),
        ("scenario", "link_mix", np.float32("nan")),
        ("scenario", "d_sym", -math.inf),
        ("scenario", "snr_sym_db", 10**400),
        ("experiment", "num_drops", 2.0),
        ("experiment", "master_seed", 2.0),
        ("experiment", "master_seed", -1),
        ("experiment", "percentile_q", True),
        ("experiment", "algorithms", "mst_dp"),
        ("experiment", "algorithms", ["mst_dp", 1]),
        ("experiment", "utility", "max_min"),
        ("experiment", "utility", 1),
        ("experiment", "fading", None),
    ],
)
def test_config_fields_are_typed(section, key, value):
    sections = {"scenario": {"num_links": 3, "seed": 1}, "experiment": {}}
    sections[section][key] = value
    with pytest.raises(ValueError, match=key):
        ExperimentConfig(scenario=ScenarioConfig(**sections["scenario"]), **sections["experiment"])


def traced_run(num_links, num_drops, frames_per_drop, algorithms):
    """(config, tracemalloc peak of run_experiment) of a 1-worker run, traced
    after one untraced run, so that one-off caches do not count."""
    config = ExperimentConfig(
        scenario=ScenarioConfig(num_links=num_links, link_mix=0.5, seed=1),
        algorithms=algorithms,
        num_drops=num_drops,
        frames_per_drop=frames_per_drop,
    )
    run_experiment(config)
    tracemalloc.start()
    try:
        run_experiment(config)
        return config, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize(
    "run",
    [
        (150, 1, 1, ("mst_dp", "random")),
        (10, 40, 100, ("random",)),
        # at M = 1 one chunk of fading frames holds the most frames
        (1, 1, evaluation.FRAME_CHUNK_BUDGET // 48, ("mst_dp",)),
    ],
    ids=["pairs", "samples", "frame-chunk"],
)
def test_peak_bytes_bounds_the_traced_peak(run):
    config, peak = traced_run(*run)
    assert peak <= config.peak_bytes()


@pytest.mark.parametrize(
    "small, large, unit_bytes",
    [
        ((60, 1, 1, ("mst_dp", "random")), (150, 1, 1, ("mst_dp", "random")), "_PAIR_BYTES"),
        ((10, 40, 100, ("random",)), (10, 120, 100, ("random",)), "_SAMPLE_BYTES"),
    ],
    ids=["per-pair", "per-sample"],
)
def test_peak_bytes_terms_match_the_traced_growth(small, large, unit_bytes):
    # between two runs that differ in one term, the peak grows by at most
    # that term's bytes per unit, and by more than half of them
    (config_a, peak_a), (config_b, peak_b) = traced_run(*small), traced_run(*large)
    per_unit = getattr(evaluation, unit_bytes)
    units = (config_b.peak_bytes() - config_a.peak_bytes()) / per_unit
    assert per_unit / 2 < (peak_b - peak_a) / units <= per_unit


def test_the_run_budget_keeps_every_frame_index_below_2_to_the_32():
    # draw_fading takes frame indices below 2**32; a run's frames_per_drop is
    # largest at M = 1 with one drop and one algorithm
    largest = (
        evaluation.RUN_MEMORY_BUDGET - evaluation._FIXED_BYTES - evaluation._PAIR_BYTES
    ) // evaluation._SAMPLE_BYTES
    assert largest < 2**32
    config = ExperimentConfig(ScenarioConfig(num_links=1), ("random",), 1, largest)
    with pytest.raises(ValueError, match="above the budget"):
        replace(config, frames_per_drop=largest + 1)


def test_held_samples_grow_the_peak_by_at_most_18_bytes_each():
    # the run's one rate array and one sorted copy of it, 8 B each
    (config_a, peak_a), (config_b, peak_b) = (
        traced_run(10, 40, 100, ("random",)),
        traced_run(10, 120, 100, ("random",)),
    )
    samples = (config_b.num_drops - config_a.num_drops) * 100 * 10
    assert (peak_b - peak_a) / samples <= 18


def test_each_sorted_pool_is_released_before_the_next_sort(monkeypatch):
    # three algorithms' rates, 8 B a sample, and one algorithm's sorted pool
    # at a time, 8 / 3 B a sample: 10.7 B; holding the previous pool through
    # the next sort would cost 8 + 2 * 8 / 3 = 13.3 B. Blocks of one drop,
    # as blocks of num_drops // 2 drops would grow the peak with the runs
    monkeypatch.setattr(evaluation, "_BLOCK_BUDGET", 0)
    (config_a, peak_a), (config_b, peak_b) = (
        traced_run(10, drops, 100, ALGORITHMS) for drops in (40, 120)
    )
    samples = (config_b.num_drops - config_a.num_drops) * 100 * 10 * len(ALGORITHMS)
    assert (peak_b - peak_a) / samples <= 11.5


@pytest.mark.parametrize("frames", [1024, evaluation._STATE_BLOCK])
def test_fading_states_peak_within_their_bytes_per_frame(frames):
    # hashing a window of frames' seed words peaks at _FRAME_STATE_BYTES per
    # frame at most, and above half of it
    lanes = [((1, 2**63 + 5), range(frames))]
    channel._fading_states(lanes)
    tracemalloc.start()
    try:
        states = channel._fading_states(lanes)[0]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert states.shape == (frames, 4)
    assert evaluation._FRAME_STATE_BYTES / 2 < peak / frames <= evaluation._FRAME_STATE_BYTES


def largest_chunk_peak(monkeypatch, num_links, frames_per_drop, algorithms=None):
    """Tracemalloc peak of the largest fading chunk a 1-drop run draws,
    traced after one untraced draw. With ``algorithms``, the run optimizes
    them and the traced chunk includes its one ``two_way_rates`` call."""
    config = ExperimentConfig(
        scenario=ScenarioConfig(num_links=num_links, link_mix=0.5, seed=1),
        algorithms=algorithms or ("mst_dp",),
        num_drops=1,
        frames_per_drop=frames_per_drop,
    )
    draws, selectors = [], []
    draw_fading, two_way_rates = evaluation.draw_fading, evaluation.two_way_rates

    def recording(instance, frames, states=None):
        draws.append((instance, frames))
        return draw_fading(instance, frames, states)

    def recording_rates(values, spin_selectors):
        selectors.append(spin_selectors)
        return two_way_rates(values, spin_selectors)

    monkeypatch.setattr(evaluation, "draw_fading", recording)
    monkeypatch.setattr(evaluation, "two_way_rates", recording_rates)
    run_experiment(config)
    instance, frames = max(draws, key=lambda draw: len(draw[1]))

    def chunk():
        draw = draw_fading(instance, frames)
        if algorithms:
            two_way_rates(draw, selectors[0])

    chunk()
    tracemalloc.start()
    try:
        chunk()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_a_chunk_of_fading_frames_stays_within_twice_its_budget(monkeypatch):
    # at M = 1 a frame holds 48 B of gains and several times that in seed state
    peak = largest_chunk_peak(monkeypatch, 1, evaluation.FRAME_CHUNK_BUDGET // 48)
    assert peak <= 2 * evaluation.FRAME_CHUNK_BUDGET


@pytest.mark.parametrize("num_links", [1, 10, 20, 200])
def test_a_chunk_of_fading_frames_peaks_near_its_cap(monkeypatch, num_links):
    # the chunk's gains are drawn and scaled where they stay, so its peak is
    # the cap (or the one frame a chunk holds at least) plus the seed state
    frame_gains = 8 * (2 * num_links + 4 * num_links**2)
    frames = evaluation.FRAME_CHUNK_BUDGET // frame_gains + 1
    peak = largest_chunk_peak(monkeypatch, num_links, frames)
    assert peak <= 1.25 * max(evaluation.FRAME_CHUNK_BUDGET, frame_gains)


@pytest.mark.parametrize(
    "num_links, algorithms",
    [(10, ("exhaustive", "mst_dp", "random")), (200, ("mst_dp", "random"))],
)
def test_a_chunk_and_its_rate_call_peak_near_their_terms(monkeypatch, num_links, algorithms):
    # FRAME_CHUNK_BUDGET counts a chunk's gains and seed state; its one rate
    # call adds one direction's (A, F, M, M) selected INRs, 8 B each, on top:
    # measured 1.06 (M = 10) and 1.005 (M = 200) times their sum
    frame_bytes = 8 * (2 * num_links + 4 * num_links**2) + evaluation._FRAME_STATE_BYTES
    frames = max(1, evaluation.FRAME_CHUNK_BUDGET // frame_bytes)
    peak = largest_chunk_peak(monkeypatch, num_links, frames + 1, algorithms)
    terms = 8 * len(algorithms) * num_links**2 * frames
    assert peak <= 1.1 * (frames * frame_bytes + terms)


def block_held_bytes(num_links, algorithms, num_drops) -> int:
    """Bytes a block of ``num_drops`` drops holds once every stage before the
    frames has run (instances, graphs, forests, results, spin selectors)."""
    config = ExperimentConfig(
        scenario=ScenarioConfig(num_links=num_links, link_mix=0.5, seed=1),
        algorithms=algorithms,
        num_drops=num_drops,
        frames_per_drop=1,
    )
    tracemalloc.start()
    try:
        instances = [generate_instance(config.scenario, 100 + d) for d in range(num_drops)]
        graphs, _, planes, results, _ = evaluation.solve_drop(
            config, instances, list(range(num_drops))
        )
        spins = [[r.spins for r in drop] for drop in zip(*results.values())]
        selectors = evaluation.spin_selectors(spins)
        assert len(selectors) == len(planes) == len(graphs) == num_drops
        return tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize(
    "num_links, algorithms", [(10, ALGORITHMS), (100, ("mst_dp", "random"))]
)
def test_a_block_holds_at_most_its_bytes_per_drop(num_links, algorithms):
    # what one more drop adds to a block between its stages, after a warm-up
    # block; at M = 100 the per-pair term is most of it
    block_held_bytes(num_links, algorithms, 2)
    four, eight = (block_held_bytes(num_links, algorithms, n) for n in (4, 8))
    per_drop = (eight - four) / 4
    model = evaluation._BLOCK_PAIR_BYTES * num_links**2 + evaluation._BLOCK_DROP_BYTES
    assert per_drop <= model
    if num_links == 100:
        assert per_drop > 0.9 * model


@pytest.mark.parametrize(
    "config, workers, blocks",
    [
        # 100 // 2 drops, capped by the budget: blocks of 38, 38 and 24
        ("configs/evaluate_m10_symmetric.json", 1, [38]),
        ("bench/configs/opt_m200.json", 1, [1]),
        # every point of the sweep, on the benchmark's two workers: 50 // 4
        # drops, and the budget's 5 at M = 40
        ("configs/sweep_links_asymmetric.json", 2, [12, 12, 5]),
    ],
)
def test_block_size_of_the_benchmark_configs(config, workers, blocks):
    experiment, points = load_config(json.loads((REPO / config).read_text()))
    assert [evaluation._block_drops(c, workers) for c in points or [experiment]] == blocks


def test_the_mc_m10_config_builds_its_spin_selectors_once_per_block(monkeypatch):
    # blocks of 38, 38 and 24 drops, one call each on its (B, A, M) spins
    experiment, _ = load_config(
        json.loads((REPO / "configs/evaluate_m10_symmetric.json").read_text())
    )
    calls, spin_selectors = [], evaluation.spin_selectors

    def counting(spins):
        calls.append(np.shape(spins))
        return spin_selectors(spins)

    monkeypatch.setattr(evaluation, "spin_selectors", counting)
    run_experiment(experiment, workers=1)
    m, algorithms = experiment.scenario.num_links, len(experiment.algorithms)
    assert calls == [(drops, algorithms, m) for drops in (38, 38, 24)]


@pytest.mark.parametrize("drops", [1, 2, 3])
def test_block_size_follows_the_budget(monkeypatch, drops):
    config = small_config(scenario=ScenarioConfig(num_links=10, seed=1), num_drops=40)
    held = evaluation._BLOCK_PAIR_BYTES * 10**2 + evaluation._BLOCK_DROP_BYTES
    monkeypatch.setattr(evaluation, "_BLOCK_BUDGET", drops * held + held - 1)
    assert evaluation._block_drops(config, 1) == drops
    # half of each worker's share caps it too: 40 // (2 * 8) = 2
    assert evaluation._block_drops(config, 8) == min(drops, 2)
    # and a block holds one drop at least
    monkeypatch.setattr(evaluation, "_BLOCK_BUDGET", 0)
    assert evaluation._block_drops(config, 1) == 1


@pytest.mark.parametrize("num_links", [10, 40, 200])
def test_a_block_peaks_within_its_budget_and_one_chunk_phase(monkeypatch, num_links):
    # from the block's spin_selectors call on, the block holds its
    # drops (at most the budget, or the one drop a block holds at least)
    # and its rates while each chunk is drawn and rated; before it, the
    # block's generation pass peaks within the per-pair term of peak_bytes()
    # for each of its drops (test_a_blocks_generation_pass_peaks_...)
    algorithms = ALGORITHMS if num_links <= 20 else ("mst_dp", "random")
    frame_bytes = 8 * (2 * num_links + 4 * num_links**2) + evaluation._FRAME_STATE_BYTES
    frames = max(1, evaluation.FRAME_CHUNK_BUDGET // frame_bytes)  # one whole chunk a drop
    held = evaluation._BLOCK_PAIR_BYTES * num_links**2 + evaluation._BLOCK_DROP_BYTES
    config = ExperimentConfig(
        scenario=ScenarioConfig(num_links=num_links, link_mix=0.5, seed=1),
        algorithms=algorithms,
        num_drops=4 * max(1, evaluation._BLOCK_BUDGET // held),
        frames_per_drop=frames,
    )
    block = evaluation._block_drops(config, 1)
    assert block == {10: 38, 40: 5, 200: 1}[num_links]
    jobs = [(100 + d, d) for d in range(block)]
    selected, spin_selectors = [], evaluation.spin_selectors

    def selecting(spins):
        selected.append(len(spins))
        if tracemalloc.is_tracing():
            tracemalloc.reset_peak()
        return spin_selectors(spins)

    monkeypatch.setattr(evaluation, "spin_selectors", selecting)
    evaluation._run_block((config, jobs))
    tracemalloc.start()
    try:
        evaluation._run_block((config, jobs))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert selected == [block, block]  # one call per block, on all of its drops
    chunk_phase = frames * frame_bytes + 8 * len(algorithms) * num_links**2 * frames
    samples = 8 * block * len(algorithms) * frames * num_links
    # measured 0.82, 0.92 and 0.79 times the first term at M = 10, 40 and 200
    assert peak <= 1.1 * (max(evaluation._BLOCK_BUDGET, held) + chunk_phase) + samples


@pytest.mark.parametrize("num_links", [10, 40])
def test_a_blocks_generation_pass_peaks_within_the_per_pair_term_of_its_drops(num_links):
    # the largest block the budget allows generates its drops in one pass:
    # it peaks at more than half and at most all of peak_bytes()'s per-pair
    # term for each of its drops, and as blocks of two or more drops hold at
    # most _BLOCK_BUDGET at _BLOCK_PAIR_BYTES per pair, that stays within
    # the fixed term's phases
    held = evaluation._BLOCK_PAIR_BYTES * num_links**2 + evaluation._BLOCK_DROP_BYTES
    config = ExperimentConfig(
        scenario=ScenarioConfig(num_links=num_links, link_mix=0.5, seed=1),
        num_drops=4 * (evaluation._BLOCK_BUDGET // held),
    )
    block = evaluation._block_drops(config, 1)
    assert block == {10: 38, 40: 5}[num_links]
    drop_seeds = list(range(100, 100 + block))
    generate_instances(config.scenario, drop_seeds)
    tracemalloc.start()
    try:
        instances = generate_instances(config.scenario, drop_seeds)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(instances) == block
    model = evaluation._PAIR_BYTES * block * num_links**2
    assert model / 2 < peak <= model
    phases = evaluation._FIXED_BYTES - evaluation.DP_STEP_BUDGET - evaluation._BLOCK_BUDGET
    most = evaluation._PAIR_BYTES / evaluation._BLOCK_PAIR_BYTES * evaluation._BLOCK_BUDGET
    assert model <= most < phases


@pytest.mark.parametrize(
    "scenario, experiment",
    [
        ({"num_links": 100000}, {}),
        ({"num_links": 10}, {"num_drops": 10**6, "frames_per_drop": 10**6}),
    ],
    ids=["num_links", "samples"],
)
def test_oversized_runs_are_refused_before_allocating(scenario, experiment):
    tracemalloc.start()
    start = time.perf_counter()
    try:
        with pytest.raises(ValueError, match="num_links.*num_drops \\* frames_per_drop"):
            ExperimentConfig(scenario=ScenarioConfig(**scenario), **experiment)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert time.perf_counter() - start < 1.0
    assert peak < 1 << 20


def test_shipped_configs_fit_the_memory_budget():
    shipped = sorted((REPO / "configs").glob("*.json"))
    assert shipped
    for path in [*shipped, REPO / "bench/configs/opt_m200.json"]:
        config, points = load_config(json.loads(path.read_text()))
        for point in [config, *(points or [])]:
            assert point.peak_bytes() <= evaluation.RUN_MEMORY_BUDGET


def test_config_fields_keep_numbers_as_given():
    scenario = ScenarioConfig(num_links=np.int64(3), area_side=100, seed=np.uint64(2))
    assert type(scenario.area_side) is int  # echoed as 100, not 100.0
    config = ExperimentConfig(
        scenario=scenario, algorithms=["mst_dp", "random"], utility="two_way_sum_rate"
    )
    assert config.algorithms == ("mst_dp", "random")
    assert config.utility is SUM_RATE
    with pytest.raises(ValueError, match="scenario"):
        ExperimentConfig(scenario={"num_links": 3})


def test_numpy_scalars_in_a_config_are_stored_as_python_numbers():
    # a numpy scalar was stored as given, so json.dumps of the summary failed
    # with "Object of type int64 is not JSON serializable" (float32, uint64)
    scenario = ScenarioConfig(num_links=3, area_side=np.float32(100), seed=np.uint64(3))
    config = small_config(
        scenario=scenario, num_drops=np.int64(2), frames_per_drop=2, master_seed=np.uint64(4)
    )
    assert type(scenario.area_side) is float and scenario.area_side == 100.0
    assert type(scenario.seed) is int and type(config.master_seed) is int
    assert type(config.num_drops) is int
    summary = json.loads(json.dumps(run_experiment(config).summary_json()))
    scenario = ScenarioConfig(num_links=3, area_side=100.0, seed=3)
    plain = small_config(scenario=scenario, num_drops=2, frames_per_drop=2, master_seed=4)
    assert summary == run_experiment(plain).summary_json()


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


@pytest.fixture
def pool_log(monkeypatch):
    """Swaps the process pool for an in-process stub; logs pool sizes, the
    futures of every submitted task and, in order, each submission and each
    read of a result as (event, the block's num_links, its drops). A block
    runs when its result is first read, so a cancelled block never runs. The
    process may use 64 CPUs, so that pool sizes do not depend on the machine."""
    log = {"pools": [], "futures": [], "events": []}

    def event(kind, task):
        config, jobs = task
        log["events"].append((kind, config.scenario.num_links, len(jobs)))

    class LazyFuture(futures.Future):
        """A block's future that runs the block in-process when first read."""

        def __init__(self, fn, task):
            super().__init__()
            self.fn, self.task = fn, task

        def result(self, timeout=None):
            event("read", self.task)
            if not self.done():
                try:
                    self.set_result(self.fn(self.task))
                except Exception as exc:
                    self.set_exception(exc)
            return super().result(timeout)

    class RecordingPool:
        """Stands in for the process pool: records its size and submissions."""

        def __init__(self, max_workers):
            log["pools"].append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, task):
            event("submit", task)
            log["futures"].append(LazyFuture(fn, task))
            return log["futures"][-1]

    monkeypatch.setattr(evaluation.futures, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(evaluation, "_cpu_count", lambda: 64)
    return log


def test_pool_gets_at_most_one_worker_per_drop(pool_log):
    pools = pool_log["pools"]
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


def test_sweep_sends_every_point_through_one_pool(monkeypatch, pool_log):
    points = []
    unwrapped = evaluation.run_experiment

    def recording_run_experiment(config, *args, **kwargs):
        points.append(config.scenario.num_links)
        return unwrapped(config, *args, **kwargs)

    # a wrapper of the module attribute must see one call per point
    monkeypatch.setattr(evaluation, "run_experiment", recording_run_experiment)
    base = small_config(algorithms=("mst_dp", "random"), num_drops=17, frames_per_drop=1)
    configs = [replace(base, scenario=replace(base.scenario, num_links=m)) for m in (2, 3, 4)]

    serial = sweep(configs, workers=1)
    assert pool_log == {"pools": [], "futures": [], "events": []}
    assert [(r.workers, r.block_drops) for r in serial] == [(1, 17 // 2)] * 3
    assert points == [2, 3, 4]
    for workers, block in ((2, 17 // 4), (64, 1)):
        reports = sweep(configs, workers=workers)
        assert [r.summary_json() for r in reports] == [r.summary_json() for r in serial]
        assert [(r.workers, r.block_drops) for r in reports] == [(min(workers, 17), block)] * 3
    # one task per block, the last one short, in point order; each read once, in order
    on_two, on_seventeen = [4] * 4 + [1], [1] * 17
    blocks = [(m, b) for run in (on_two, on_seventeen) for m in (2, 3, 4) for b in run]
    assert pool_log["pools"] == [2, 17]
    for kind in ("submit", "read"):
        assert [(m, b) for event, m, b in pool_log["events"] if event == kind] == blocks
    assert points == [2, 3, 4] * 3
    with pytest.raises(ValueError, match="workers"):
        sweep(configs, workers=0)
    assert len(pool_log["pools"]) == 2


@pytest.mark.parametrize("workers", [True, 1.5, "2", 2.5])
def test_run_experiment_and_sweep_refuse_workers_that_are_no_integer(
    monkeypatch, pool_log, workers
):
    # a bool ran as 1 worker and was written as "workers": true; a float or a
    # string died inside _plan with an error that named no argument
    monkeypatch.setattr(evaluation, "_cpu_count", lambda: 4)
    config = small_config(num_drops=3, frames_per_drop=2)
    message = f"workers must be an integer, got {workers!r}"
    with pytest.raises(ValueError, match=re.escape(message)):
        run_experiment(config, workers)
    with pytest.raises(ValueError, match=re.escape(message)):
        sweep([config, config], workers)
    assert pool_log["pools"] == []


def test_run_experiment_and_sweep_refuse_a_config_of_another_type(pool_log):
    # a dict died in AttributeError: 'dict' object has no attribute 'num_drops'
    refusal = "must be of type ExperimentConfig, got dict"
    with pytest.raises(TypeError, match=f"^config {refusal}$"):
        run_experiment({"num_drops": 1})
    config = small_config(num_drops=1, frames_per_drop=1)
    with pytest.raises(TypeError, match=rf"^configs\[1\] {refusal}$"):
        sweep([config, {"num_drops": 1}], workers=2)
    assert pool_log["pools"] == []


def test_a_numpy_integer_worker_count_is_stored_as_an_int(pool_log):
    config = small_config(num_drops=3, frames_per_drop=2)
    report = run_experiment(config, np.int64(2))
    assert type(report.workers) is int and type(report.block_drops) is int
    assert json.loads(json.dumps(report.run_json()))["workers"] == 2
    (point,) = sweep([config], np.int64(2))
    assert json.loads(json.dumps(point.run_json()))["workers"] == 2
    assert pool_log["pools"] == [2, 2]


def test_a_sweep_queues_the_next_point_before_its_last_read(pool_log):
    # one point of lookahead: each point's blocks are submitted before the
    # previous point's last result is read, but not before the point ahead
    # of it has read any
    base = small_config(algorithms=("mst_dp", "random"), num_drops=9, frames_per_drop=1)
    configs = [replace(base, scenario=replace(base.scenario, num_links=m)) for m in (2, 3, 4)]
    sweep(configs, workers=2)
    events = pool_log["events"]

    def at(kind, m):
        return [i for i, (event, links, _) in enumerate(events) if (event, links) == (kind, m)]

    # blocks of 9 // 4 drops, the last one short
    assert len(at("submit", 2)) == len(at("read", 2)) == 5
    for current, following in ((2, 3), (3, 4)):
        assert max(at("submit", following)) < max(at("read", current))
    assert min(at("submit", 4)) > max(at("read", 2))


def test_a_failing_point_cancels_the_queued_blocks(pool_log):
    # every drop of the first point fails: its first block's error stops the
    # sweep, and every other submitted block, its own and the next point's,
    # is cancelled before it runs; the point after next is never submitted
    scenario = ScenarioConfig(num_links=3, area_side=1e-161, seed=1)
    failing = small_config(scenario=scenario, num_drops=8, frames_per_drop=1)
    fine = replace(failing, scenario=replace(scenario, area_side=100.0, num_links=4))
    with pytest.raises(ValueError, match="^drop seed "):
        sweep([failing, fine, fine], workers=2)
    first, *rest = pool_log["futures"]
    assert isinstance(first.exception(), ValueError)
    assert len(rest) == 3 + 4 and all(future.cancelled() for future in rest)
    assert [event for event in pool_log["events"] if event[0] == "read"] == [("read", 3, 2)]
    assert {m for _, m, _ in pool_log["events"]} == {3, 4}


def test_an_error_after_a_points_reads_cancels_the_next_points_blocks(monkeypatch, pool_log):
    # the first point reads all its blocks, then its statistics fail: the
    # sweep stops, and the next point's queued blocks are cancelled, not run
    def failing_rank(size, q):
        raise MemoryError

    monkeypatch.setattr(evaluation, "_rank", failing_rank)
    base = small_config(num_drops=8, frames_per_drop=1)
    configs = [replace(base, scenario=replace(base.scenario, num_links=m)) for m in (3, 4)]
    with pytest.raises(MemoryError):
        sweep(configs, workers=2)
    assert [m for event, m, _ in pool_log["events"] if event == "read"] == [3] * 4
    following = [f for f in pool_log["futures"] if f.task[0].scenario.num_links == 4]
    assert len(following) == 4 and all(future.cancelled() for future in following)


def test_every_block_is_submitted_and_run_inside_a_run_experiment_call(monkeypatch, pool_log):
    # the benchmark times a command's experiment phase by its calls of
    # evaluation.run_experiment, so a pool's construction and start-up (at
    # its first submit) and every block's work must fall inside one
    depth, outside, ran = [0], [], []
    unwrapped = evaluation.run_experiment

    def counting_run_experiment(*args, **kwargs):
        depth[0] += 1
        try:
            return unwrapped(*args, **kwargs)
        finally:
            depth[0] -= 1

    def checked(name, fn):
        def call(*args, **kwargs):
            (ran if depth[0] else outside).append(name)
            return fn(*args, **kwargs)

        return call

    pool = evaluation.futures.ProcessPoolExecutor
    monkeypatch.setattr(evaluation, "run_experiment", counting_run_experiment)
    monkeypatch.setattr(evaluation, "_run_block", checked("block", evaluation._run_block))
    monkeypatch.setattr(pool, "__init__", checked("pool", pool.__init__))
    monkeypatch.setattr(pool, "submit", checked("submit", pool.submit))
    base = small_config(num_drops=5, frames_per_drop=1)
    configs = [replace(base, scenario=replace(base.scenario, num_links=m)) for m in (2, 3, 4)]
    sweep(configs, workers=1)
    assert (outside, ran) == ([], ["block"] * 9)  # blocks of 2, 2 and 1 drops
    sweep(configs, workers=2)
    assert outside == [] and ran.count("submit") == ran.count("block") - 9 == 3 * 5
    # the pool too is built inside a run_experiment call: the first point's
    assert ran.count("pool") == 1 and pool_log["pools"] == [2]


def test_workers_never_exceed_the_usable_cpus(tmp_path, monkeypatch, pool_log):
    # a pool starts all its processes at once: --threads 100000 must not
    # ask for 100,000 forks
    monkeypatch.setattr(evaluation, "_cpu_count", lambda: 2)
    config = small_config(num_drops=5, frames_per_drop=1)
    assert run_experiment(config, workers=100_000).workers == 2
    assert [r.workers for r in sweep([config, config], workers=100_000)] == [2, 2]
    assert pool_log["pools"] == [2, 2]
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"schema": "spinopt.config/1", "experiment": {"num_drops": 5}}))
    out = tmp_path / "out"
    assert main(["evaluate", "--config", str(path), "--out", str(out), "--threads", "100000"]) == 0
    assert json.loads((out / "run_meta.json").read_text())["workers"] == 2
    assert pool_log["pools"] == [2, 2, 2]
    monkeypatch.setattr(evaluation, "_cpu_count", lambda: 1)
    assert run_experiment(config, workers=8).workers == 1
    assert pool_log["pools"] == [2, 2, 2]
    # --threads defaults to the same count
    monkeypatch.setattr(evaluation, "_cpu_count", lambda: 3)
    for command in ("evaluate", "sweep"):
        args = cli._build_parser().parse_args([command, "--config", "c", "--out", "o"])
        assert args.threads == 3


def test_a_sweep_holds_one_point_at_a_time():
    # a point's rates are released when its run returns: what four points
    # hold after the sweep, and their peak, stay near those of one
    base = ExperimentConfig(
        scenario=ScenarioConfig(num_links=10, link_mix=0.5, seed=1),
        algorithms=("mst_dp", "random"),
        num_drops=60,
        frames_per_drop=100,
    )
    sweep([base])
    held, peaks = {}, {}
    for points in (1, 4):
        tracemalloc.start()
        try:
            reports = sweep([base] * points)
            held[points], peaks[points] = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        del reports
    samples = base.num_drops * base.frames_per_drop * base.scenario.num_links * 2
    assert held[4] - held[1] <= 3 * samples  # 1 B per sample of the earlier points
    assert peaks[4] <= 1.25 * peaks[1]


def test_sweep_runs_points_that_each_fit_the_budget(monkeypatch, pool_log):
    # two equal points at the largest num_drops one run may hold: in-process a
    # sweep holds one point at a time and runs them; on a pool it holds one
    # point's samples and the next point's block results, so it refuses the
    # pair before it starts a process
    def stub_run_experiment(config, *args):
        return EvalReport(config, {}, d_max=0, d_mean=0.0, mean_edges=0.0, elapsed_s=0.0)

    monkeypatch.setattr(evaluation, "run_experiment", stub_run_experiment)
    scenario = ScenarioConfig(num_links=10, seed=1)
    room = evaluation.RUN_MEMORY_BUDGET - evaluation._PAIR_BYTES * 100 - evaluation._FIXED_BYTES
    drops = room // (evaluation._SAMPLE_BYTES * 100 * 10 * 2)
    point = ExperimentConfig(scenario, ("mst_dp", "random"), drops, frames_per_drop=100)
    with pytest.raises(ValueError, match="above the budget"):
        replace(point, num_drops=drops + 1)
    small = replace(point, num_drops=1, frames_per_drop=1)
    assert small.peak_bytes(point) <= evaluation.RUN_MEMORY_BUDGET < point.peak_bytes(point)
    assert [r.config.num_drops for r in sweep([point, point], workers=1)] == [drops] * 2
    with pytest.raises(ValueError, match=r"sweep points 1, 2 \(num_links 10, 10\) need"):
        sweep([small, point, point], workers=2)
    assert pool_log["pools"] == []


def test_only_a_pooled_sweep_refuses_consecutive_points_above_the_budget(monkeypatch, pool_log):
    # each point fits on its own, but a sweep on a pool holds one point's
    # samples and the next point's block results: the M = 10 point at the
    # largest num_drops one run may hold leaves no room for the M = 2 point's.
    # In-process a sweep holds one point at a time, so load_config, which
    # serves every command and worker count, accepts the pair
    def stub_run_experiment(config, *args):
        return EvalReport(config, {}, d_max=0, d_mean=0.0, mean_edges=0.0, elapsed_s=0.0)

    monkeypatch.setattr(evaluation, "run_experiment", stub_run_experiment)
    room = evaluation.RUN_MEMORY_BUDGET - evaluation._PAIR_BYTES * 100 - evaluation._FIXED_BYTES
    drops = room // (evaluation._SAMPLE_BYTES * 100 * 10 * 2)

    def config(values):
        return {
            "schema": cli.CONFIG_SCHEMA,
            "scenario": {"num_links": 10, "seed": 1},
            "experiment": {"num_drops": drops, "frames_per_drop": 100},
            "sweep": {"parameter": "num_links", "values": values},
        }

    for value in (2, 10):
        assert [p.scenario.num_links for p in load_config(config([value]))[1]] == [value]
    assert len(load_config(config([2, 2, 2]))[1]) == 3
    for values, i in (([2, 10], 0), ([10, 2], 0), ([2, 2, 10], 1)):
        points = load_config(config(values))[1]
        assert [p.scenario.num_links for p in points] == values
        pair = rf"points {i}, {i + 1} \(num_links {values[i]}, {values[i + 1]}\)"
        with pytest.raises(ValueError, match=f"^sweep {pair} need .* or run it on one worker$"):
            sweep(points, workers=2)
        assert pool_log["pools"] == []
        assert len(sweep(points, workers=1)) == len(values)


def test_sweep_derives_distinct_seeds():
    config = small_config(algorithms=("mst_dp", "random"), num_drops=2, frames_per_drop=2)
    reports, rates = sweep_with_rates([config, config])
    assert len(reports) == 2
    a, b = reports
    assert a.config.master_seed != b.config.master_seed
    assert not np.array_equal(rates[0]["mst_dp"], rates[1]["mst_dp"])


def test_sweep_over_link_counts():
    base = small_config(algorithms=("mst_dp", "random"), num_drops=2, frames_per_drop=2)
    configs = [
        replace(base, scenario=replace(base.scenario, num_links=m)) for m in (2, 4)
    ]
    reports = sweep(configs)
    rows = plot_rows(reports)
    assert [r["num_links"] for r in rows] == [2, 2, 4, 4]
    assert {r["algorithm"] for r in rows} == {"mst_dp", "random"}


def test_samples_csv_refuses_a_sweep_report(tmp_path):
    # a sweep's reports keep no rates: no file, not a header and a traceback
    (report,) = sweep([small_config(num_drops=1, frames_per_drop=2)])
    path = tmp_path / "samples.csv"
    with pytest.raises(ValueError, match="no samples"):
        write_samples_csv(report, path)
    assert not path.exists()


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
    config = small_config(algorithms=("mst_dp", "random"), num_drops=2, frames_per_drop=3)
    # with the edges of repr's positional range, [1e-4, 1e16)
    values = np.array(
        [0.0, 1e-05, 1.5e16, 5e-324, 1.0 / 3.0, 2.5e-7, 123456789.0, 1e22, 0.1, 7.0, 1e-300, 9.5e6]
        + [1e-4, np.nextafter(1e-4, 0), 1e16, np.nextafter(1e16, 0), 2e-4, 12345.678]
    )
    stats = {
        name: AlgorithmStats(
            rates_bps=rates.reshape(2, 3, 3),
            mean_bps=0.0,
            percentile_bps=0.0,
            mean_objective=0.0,
            optimize_time_s=0.0,
            sample_count=rates.size,
        )
        for name, rates in zip(config.algorithms, (values, values[::-1]))
    }
    report = EvalReport(config, stats, d_max=0, d_mean=0.0, mean_edges=0.0, elapsed_s=0.0)
    write_samples_csv(report, tmp_path / "fast.csv")
    write_samples_csv_rows(report, tmp_path / "rows.csv")
    written = (tmp_path / "fast.csv").read_bytes()
    assert written == (tmp_path / "rows.csv").read_bytes()
    assert written.count(b"\r\n") == 1 + 2 * 18
    assert b"mst_dp,3,0,1,0,5e-324\r\n" in written
    assert b"mst_dp,3,1,1,0,0.0001\r\nmst_dp,3,1,1,1,9.999999999999999e-05\r\n" in written
    assert b"mst_dp,3,1,1,2,1e+16\r\nmst_dp,3,1,2,0,9999999999999998.0\r\n" in written


def test_samples_csv_writer_holds_a_bounded_block_of_rows(tmp_path):
    # one drop of 100,000 samples: the writer's rows must not scale with the
    # drop, since peak_bytes() counts only 20 B per held sample
    config = small_config(
        scenario=ScenarioConfig(num_links=50, seed=1),
        algorithms=("mst_dp",),
        num_drops=1,
        frames_per_drop=2000,
    )
    rates = np.random.default_rng(3).uniform(0.0, 1e8, size=(1, 2000, 50))
    stats = {"mst_dp": AlgorithmStats(rates, 0.0, 0.0, 0.0, 0.0, sample_count=rates.size)}
    report = EvalReport(config, stats, d_max=0, d_mean=0.0, mean_edges=0.0, elapsed_s=0.0)
    tracemalloc.start()
    try:
        write_samples_csv(report, tmp_path / "fast.csv")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 << 20
    write_samples_csv_rows(report, tmp_path / "rows.csv")
    assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()


@pytest.mark.parametrize("block_rows", [1, 7, 4096])
def test_samples_csv_blocks_match_csv_writer(tmp_path, monkeypatch, block_rows):
    # blocks of one frame, of two frames with a short last one, and whole drops
    monkeypatch.setattr(evaluation, "_CSV_BLOCK_ROWS", block_rows)
    config = small_config(algorithms=("mst_dp", "random"), num_drops=2, frames_per_drop=5)
    rng = np.random.default_rng(7)
    stats = {
        name: AlgorithmStats(
            rng.uniform(0.0, 1e8, size=(2, 5, 3)), 0.0, 0.0, 0.0, 0.0, sample_count=30
        )
        for name in config.algorithms
    }
    report = EvalReport(config, stats, d_max=0, d_mean=0.0, mean_edges=0.0, elapsed_s=0.0)
    write_samples_csv(report, tmp_path / "fast.csv")
    write_samples_csv_rows(report, tmp_path / "rows.csv")
    assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()


def count_fading_states(monkeypatch) -> list[list[tuple[int, range]]]:
    """Record the lanes of every ``_fading_states`` call, direct or through
    ``draw_fading``, as (drop index, frames) in the run's drop order."""
    calls, fading_states = [], channel._fading_states

    def counting(lanes):
        calls.append([(drop_index(seed_key), frames) for seed_key, frames in lanes])
        return fading_states(lanes)

    monkeypatch.setattr(channel, "_fading_states", counting)
    monkeypatch.setattr(evaluation, "_fading_states", counting)
    return calls


@pytest.mark.parametrize(
    "fading, block",
    [(fading, block) for block in (6, 1) for fading in FADING_MODES],
    ids=[*FADING_MODES, *(f"{fading}-blocks-of-one" for fading in FADING_MODES)],
)
def test_every_layer_is_called_once_per_drop_or_chunk(tmp_path, monkeypatch, fading, block):
    # the counts bench/probe.py traces through evaluation's module globals:
    # an evaluate of 12 drops runs 2 blocks of 6, or with no block budget 12
    # blocks of one, each drop of 7 frames in chunks of 3. A block of 6
    # generates its instances, graphs and forests, runs each optimizer and
    # builds its spin selectors in one call each; a block of one calls the
    # per-drop functions, the ones the probe wraps
    m = 4
    frame_bytes = 8 * (2 * m + 4 * m**2) + evaluation._FRAME_STATE_BYTES
    monkeypatch.setattr(evaluation, "FRAME_CHUNK_BUDGET", 3 * frame_bytes)
    if block == 1:
        monkeypatch.setattr(evaluation, "_BLOCK_BUDGET", 0)
    per_drop_stages = (
        "generate_instance",
        "build_graph",
        "maximum_spanning_tree",
        "exhaustive_search",
        "mst_dp",
        "random_spins",
    )
    block_stages = (
        "generate_instances",
        "build_graphs",
        "maximum_spanning_forests",
        "exhaustive_search_block",
        "mst_dp_block",
        "random_spins_block",
    )
    layers = (
        *per_drop_stages,
        *block_stages,
        "spin_selectors",
        "draw_fading",
        "two_way_rates",
    )
    calls = dict.fromkeys(layers, 0)
    blocks = []

    def counting(name, fn):
        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return counted

    for name in layers:
        monkeypatch.setattr(evaluation, name, counting(name, getattr(evaluation, name)))
    run_block = evaluation._run_block

    def recording_block(task):
        blocks.append(len(task[1]))
        return run_block(task)

    monkeypatch.setattr(evaluation, "_run_block", recording_block)
    config = tmp_path / "config.json"
    config.write_text(
        json.dumps(
            {
                "schema": "spinopt.config/1",
                "scenario": {"num_links": m, "seed": 3},
                "experiment": {
                    "algorithms": list(ALGORITHMS),
                    "num_drops": 12,
                    "frames_per_drop": 7,
                    "fading": fading,
                },
            }
        )
    )
    args = ["evaluate", "--config", str(config), "--out", str(tmp_path / "out"), "--threads", "1"]
    assert main(args) == 0
    drops, chunks = 12, 12 * 3 if fading == "rayleigh" else 0
    assert blocks == [block] * (drops // block)
    expected = dict.fromkeys(layers, drops)
    expected.update(draw_fading=chunks, two_way_rates=chunks or drops)
    expected.update(spin_selectors=drops // block)
    if block == 1:
        expected.update(dict.fromkeys(block_stages, 0))
    else:
        expected.update(dict.fromkeys(block_stages, drops // block))
        expected.update(dict.fromkeys(per_drop_stages, 0))
    assert calls == expected


def drop_index(seed_key) -> int:
    """Index of the drop whose instance has ``seed_key``, among the drops a
    run with ``master_seed`` 7 derives (``small_config``'s master seed)."""
    seeds = np.random.SeedSequence(7).generate_state(2 * 64, dtype=np.uint64)
    return seeds[0::2].tolist().index(seed_key[1])


def test_fading_states_are_hashed_once_per_drop(monkeypatch):
    # at M = 200 a block is one drop and a fading chunk one frame, but the
    # drop's seeds hash at once, one lane per chunk
    calls = count_fading_states(monkeypatch)
    config = small_config(
        scenario=ScenarioConfig(num_links=200, link_mix=0.0, seed=5),
        algorithms=("mst_dp", "random"),
        num_drops=8,
        frames_per_drop=4,
    )
    assert run_experiment(config).block_drops == 1
    assert calls == [[(d, range(f, f + 1)) for f in range(4)] for d in range(config.num_drops)]


@pytest.mark.parametrize(
    "state_block, blocks",
    [
        # two chunks (7 // 3) a window, which spans drops
        (7, [[(0, 0, 3), (0, 3, 6)], [(0, 6, 7), (1, 0, 3)], [(1, 3, 6), (1, 6, 7)]]),
        # a window holds at least one chunk
        (2, [[(d, a, b)] for d in (0, 1) for a, b in ((0, 3), (3, 6), (6, 7))]),
        # three chunks (10 // 3) a window: one drop each
        (10, [[(d, 0, 3), (d, 3, 6), (d, 6, 7)] for d in (0, 1)]),
    ],
)
def test_fading_state_blocks_hold_whole_chunks(monkeypatch, state_block, blocks):
    # blocks of two drops (4 // 2) and chunks of 3 frames: one _fading_states
    # call per window of _STATE_BLOCK // 3 chunks (at least one), one lane
    # per chunk; the same windows in every block
    calls = count_fading_states(monkeypatch)
    config = small_config(
        scenario=ScenarioConfig(num_links=10, link_mix=0.5, seed=1),
        num_drops=4,
        frames_per_drop=7,
    )
    frame_bytes = 8 * (10 * 2 + 10 * 10 * 2 * 2) + evaluation._FRAME_STATE_BYTES
    monkeypatch.setattr(evaluation, "FRAME_CHUNK_BUDGET", 3 * frame_bytes)
    monkeypatch.setattr(evaluation, "_STATE_BLOCK", state_block)
    report = run_experiment(config)
    assert report.block_drops == 2
    assert calls == [
        [(first + d, range(a, b)) for d, a, b in window]
        for first in range(0, config.num_drops, 2)
        for window in blocks
    ]
    oracle = per_frame_rates(config)
    for name in config.algorithms:
        assert np.array_equal(report.stats[name].rates_bps, oracle[name])


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
    # float64 snr + inr of one frame, plus its fading seed state
    frame_bytes = 8 * (m * 2 + m * m * 2 * 2) + evaluation._FRAME_STATE_BYTES
    monkeypatch.setattr(evaluation, "FRAME_CHUNK_BUDGET", frames_per_chunk * frame_bytes)
    chunks, draws = [], []
    two_way_rates, draw_fading = evaluation.two_way_rates, evaluation.draw_fading

    def recording(values, selectors):
        rates = two_way_rates(values, selectors)
        chunks.append(rates.shape[:-1])
        return rates

    def recording_draws(instance, frames, states):
        draws.append(frames)
        return draw_fading(instance, frames, states)

    monkeypatch.setattr(evaluation, "two_way_rates", recording)
    monkeypatch.setattr(evaluation, "draw_fading", recording_draws)
    report = run_experiment(config)
    sizes = {1: [1] * 7, 3: [3, 3, 1], 7: [7]}[frames_per_chunk]
    algorithms = len(config.algorithms)
    if fading == "none":
        # every frame has the long-term gains: one unstacked call per drop
        per_drop, drawn = [(algorithms,)], []
    else:
        # one call per chunk, for every algorithm at once
        per_drop = [(algorithms, size) for size in sizes]
        starts = np.cumsum([0] + sizes).tolist()
        drawn = [range(a, b) for a, b in zip(starts, starts[1:])]
    assert chunks == per_drop * config.num_drops
    assert draws == drawn * config.num_drops
    oracle = per_frame_rates(config)
    for name in config.algorithms:
        assert np.array_equal(report.stats[name].rates_bps, oracle[name])


@pytest.mark.parametrize("algorithms", [ALGORITHMS, ("random", "mst_dp")])
@pytest.mark.parametrize("utility", list(UtilityKind))
def test_solve_drop_equals_direct_optimizer_calls(algorithms, utility):
    # a block of three drops: one entry per drop, each as if solved alone
    config = small_config(algorithms=algorithms, utility=utility)
    instances = [generate_instance(config.scenario, seed) for seed in (5, 6, 7)]
    graphs, trees, planes, results, seconds = evaluation.solve_drop(config, instances, [9, 10, 11])
    assert len(graphs) == len(trees) == len(planes) == 3
    # one list of the block's results and one time per algorithm, in config order
    assert list(results) == list(seconds) == list(algorithms)
    assert all(len(block_results) == 3 for block_results in results.values())
    assert all(s >= 0.0 for s in seconds.values())
    for drop, instance in enumerate(instances):
        graph, tree, baseline_seed = graphs[drop], trees[drop], 9 + drop
        direct_graph = build_graph(instance, config.scenario.inr_edge_threshold)
        assert np.array_equal(graph.adjacency, direct_graph.adjacency)
        assert tree == maximum_spanning_tree(direct_graph)
        direct_planes = spin_planes(instance.inr, direct_graph.adjacency)
        assert planes[drop].tobytes() == direct_planes.tobytes()
        direct = {
            "exhaustive": exhaustive_search(instance, graph, utility),
            "mst_dp": mst_dp(instance, graph, tree, utility),
            "random": random_spins(instance, graph, utility, baseline_seed),
        }
        for name, block_results in results.items():
            result = block_results[drop]
            assert np.array_equal(result.spins, direct[name].spins)
            assert result.objective_exact == direct[name].objective_exact
            assert result.objective_approx == direct[name].objective_approx


def test_summary_json_contains_stats_and_d():
    config = small_config()
    report = run_experiment(config)
    data = report.summary_json()
    assert data["schema"] == "spinopt.summary/1"
    assert set(data["algorithms"]) == set(config.algorithms)
    assert data["tree_children_max"] >= 0
    assert data["experiment"]["master_seed"] == 7
    assert "elapsed" not in str(data)


def test_summary_json_echoes_every_config_field():
    config = small_config(
        scenario=ScenarioConfig(num_links=3, area_side=50, inr_edge_threshold=0.5, seed=2),
        utility=SUM_RATE,
    )
    data = run_experiment(config).summary_json()
    scenario = {f.name: getattr(config.scenario, f.name) for f in fields(ScenarioConfig)}
    assert data["scenario"] == scenario
    assert type(data["scenario"]["area_side"]) is int  # numbers as given
    experiment = {f.name: getattr(config, f.name) for f in fields(ExperimentConfig)}
    del experiment["scenario"]
    experiment.update(algorithms=list(config.algorithms), utility="two_way_sum_rate")
    notes = {"pooling", "edge_threshold_note"}
    assert set(data["experiment"]) == set(experiment) | notes
    assert {k: v for k, v in data["experiment"].items() if k not in notes} == experiment
    assert "above 0.5 (linear)" in data["experiment"]["edge_threshold_note"]


def test_plot_csv_bytes_match_cell_by_cell_writer(tmp_path):
    config = small_config(algorithms=("mst_dp", "random"))
    values = iter([5e-324, 1e16, 0.1 + 0.2, 1e-05, 7.0, 123456789.0])

    def report(link_mix, gains):
        stats = {}
        for name in config.algorithms:
            stats[name] = AlgorithmStats(
                rates_bps=np.zeros((1, 1, 3)),
                mean_bps=next(values),
                percentile_bps=next(values) if gains else 0.0,
                mean_objective=0.0,
                optimize_time_s=0.0,
                sample_count=3,
                gain_mean_vs_random=1.5 if gains else None,
                gain_percentile_vs_random=None,
            )
        point = replace(config, scenario=replace(config.scenario, link_mix=link_mix))
        return EvalReport(point, stats, d_max=0, d_mean=0.0, mean_edges=0.0, elapsed_s=0.0)

    # an integer link_mix is echoed as given, "1", not "1.0"
    reports = [report(1, gains=True), report(0.25, gains=False)]
    write_plot_csv(reports, tmp_path / "plot.csv")
    write_plot_csv_cells(reports, tmp_path / "cells.csv")
    written = (tmp_path / "plot.csv").read_bytes()
    assert written == (tmp_path / "cells.csv").read_bytes()
    assert b"3,1,mst_dp,5e-324,1e+16,1.5,\r\n" in written
    assert b"3,1,random,0.30000000000000004,1e-05,1.5,\r\n" in written
    assert b"3,0.25,random,123456789.0,0.0,,\r\n" in written

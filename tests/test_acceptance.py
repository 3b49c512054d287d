"""Acceptance suite: one test per release criterion.

Run ``pytest tests/test_acceptance.py -v -s`` to get one PASS line per
criterion with the measured numbers. Criteria with stated time budgets
assert them.
"""

import json
import time

import numpy as np

from helpers import (
    approx_sinr,
    cycle_parity,
    enumerate_cycles,
    spanning_tree_weights,
    total_weight,
    tree_brute_force,
    utility_of,
)
from spinopt.channel import ScenarioConfig, generate_instance
from spinopt.cli import main
from spinopt.evaluation import ExperimentConfig, run_experiment
from spinopt.optimizer import exhaustive_search, mst_dp, random_spins
from spinopt.sinr import UtilityKind, network_utility
from spinopt.topology import (
    build_graph,
    maximum_spanning_tree,
    relative_from_spins,
)

PF = UtilityKind.PROPORTIONAL_FAIRNESS
SUM_RATE = UtilityKind.TWO_WAY_SUM_RATE


def rel_diff(a: float, b: float) -> float:
    if a == b:
        return 0.0
    return abs(a - b) / max(1.0, abs(a), abs(b))


def prepare(num_links, link_mix, seed):
    cfg = ScenarioConfig(num_links=num_links, link_mix=link_mix, seed=seed)
    inst = generate_instance(cfg, drop_seed=seed)
    graph = build_graph(inst, cfg.inr_edge_threshold)
    tree = maximum_spanning_tree(graph)
    return inst, graph, tree


def test_acceptance_1_dp_equals_tree_oracle():
    rng = np.random.default_rng(1001)
    t0 = time.perf_counter()
    worst = 0.0
    for trial in range(200):
        m = int(rng.integers(3, 11))
        mix = float(rng.choice([0.0, 0.25, 0.5, 0.75, 1.0]))
        inst, graph, tree = prepare(m, mix, seed=trial)
        dp = mst_dp(inst, graph, tree, PF)
        oracle = tree_brute_force(inst, graph, tree, PF)
        worst = max(worst, rel_diff(dp.objective_approx, oracle.objective_approx))
        assert rel_diff(dp.objective_approx, oracle.objective_approx) <= 1e-9

        achieved = utility_of(
            PF, [approx_sinr(inst, graph, tree, l, dp.spins) for l in range(m)]
        )
        assert rel_diff(achieved, dp.objective_approx) <= 1e-9
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    print(
        f"\nACCEPTANCE 1 (DP equals tree oracle, 200 instances): PASS "
        f"— worst rel diff {worst:.2e}, {elapsed:.1f}s"
    )


def test_acceptance_2_exhaustive_dominance():
    rng = np.random.default_rng(1002)
    t0 = time.perf_counter()
    dp_at_least_random = 0
    trials = 100
    for trial in range(trials):
        m = int(rng.integers(2, 13))
        mix = float(rng.choice([0.0, 0.5, 1.0]))
        inst, graph, tree = prepare(m, mix, seed=5000 + trial)
        exh = exhaustive_search(inst, graph, PF)
        dp = mst_dp(inst, graph, tree, PF)
        rnd = random_spins(inst, graph, PF, seed=trial)
        assert exh.objective_exact >= dp.objective_exact
        assert exh.objective_exact >= rnd.objective_exact
        if dp.objective_exact >= rnd.objective_exact:
            dp_at_least_random += 1
    elapsed = time.perf_counter() - t0
    assert dp_at_least_random >= int(0.8 * trials)
    assert elapsed < 60.0
    print(
        f"\nACCEPTANCE 2 (exhaustive >= MST-DP per instance; MST-DP >= random in "
        f"{dp_at_least_random}/{trials}): PASS — {elapsed:.1f}s"
    )


def test_acceptance_3_constraint_suite():
    rng = np.random.default_rng(1003)
    checked = 0
    for trial in range(12):
        m = int(rng.integers(2, 9))
        inst, graph, tree = prepare(m, float(rng.choice([0.0, 0.5, 1.0])), seed=7000 + trial)
        cycles = enumerate_cycles(graph)
        results = (
            exhaustive_search(inst, graph, PF),
            mst_dp(inst, graph, tree, PF),
            random_spins(inst, graph, PF, seed=trial),
            tree_brute_force(inst, graph, tree, PF),
        )
        for res in results:
            relative = relative_from_spins(graph, res.spins)
            for cycle in cycles:
                assert cycle_parity(relative, cycle) == 0

            flipped = 1 - res.spins
            assert network_utility(inst, graph, PF, flipped) == res.objective_exact

            # tree edges determine the spins up to a global flip
            assert relative_from_spins(graph, flipped) == relative
            for v, p in enumerate(tree.parent):
                if p >= 0:
                    assert res.spins[v] == res.spins[p] ^ relative[min(v, p), max(v, p)]
            checked += 1
    print(
        f"\nACCEPTANCE 3 (cycle parity, exact flip invariance, tree round trip on "
        f"{checked} optimizer outputs): PASS"
    )


def test_acceptance_4_spin_indifferent_instances():
    import dataclasses

    worst = 0.0
    for seed in (1, 2, 3):
        cfg = ScenarioConfig(num_links=6, link_mix=0.5, seed=seed)
        inst = generate_instance(cfg, drop_seed=seed)
        edited = inst.inr.copy()
        edited[:, :, 1, 1] = edited[:, :, 0, 1]  # opposite-slot equals same-slot at R
        edited[:, :, 0, 0] = edited[:, :, 1, 0]  # and at L
        flat = dataclasses.replace(inst, inr=edited)
        graph = build_graph(flat, cfg.inr_edge_threshold)

        m = cfg.num_links
        values = []
        for code in range(2 ** (m - 1)):  # first spin fixed: global flip symmetry
            s = np.array([0] + [(code >> j) & 1 for j in range(m - 1)])
            values.append(network_utility(flat, graph, SUM_RATE, s))
        spread = rel_diff(max(values), min(values))
        worst = max(worst, spread)
        assert spread <= 1e-12
    print(
        f"\nACCEPTANCE 4 (spin-indifferent instances give constant utility over all "
        f"2**(M-1) assignments): PASS — worst rel spread {worst:.2e}"
    )


def test_acceptance_5_percentile_gains_m10():
    t0 = time.perf_counter()
    config = ExperimentConfig(
        scenario=ScenarioConfig(num_links=10, link_mix=1.0, seed=42),
        algorithms=("exhaustive", "mst_dp", "random"),
        num_drops=100,
        frames_per_drop=100,
        utility=PF,
        master_seed=42,
    )
    report = run_experiment(config)
    elapsed = time.perf_counter() - t0
    exh_gain = report.stats["exhaustive"].gain_percentile_vs_random
    dp_gain = report.stats["mst_dp"].gain_percentile_vs_random
    assert exh_gain >= 1.5
    assert dp_gain >= 1.2
    assert elapsed < 600.0
    print(
        f"\nACCEPTANCE 5 (M=10 symmetric, 100x100: 5%-ile gain vs random): PASS "
        f"— exhaustive {exh_gain:.2f}x, MST-DP {dp_gain:.2f}x, {elapsed:.1f}s"
    )


def test_acceptance_6_asymmetric_links_gain_more():
    lines = []
    for m in (20, 40):
        gains = {}
        for mix, label in ((1.0, "symmetric"), (0.0, "asymmetric")):
            config = ExperimentConfig(
                scenario=ScenarioConfig(num_links=m, link_mix=mix, seed=100 + m),
                algorithms=("mst_dp", "random"),
                num_drops=50,
                frames_per_drop=20,
                utility=PF,
                master_seed=100 + m,
            )
            report = run_experiment(config)
            gains[label] = report.stats["mst_dp"].gain_percentile_vs_random
        assert gains["asymmetric"] > gains["symmetric"]
        lines.append(
            f"M={m}: asymmetric {gains['asymmetric']:.2f}x > symmetric {gains['symmetric']:.2f}x"
        )
    print(f"\nACCEPTANCE 6 (MST-DP 5%-ile gain larger for asymmetric links): PASS — "
          + "; ".join(lines))


def test_acceptance_7_children_statistic_and_speed_m100():
    cfg = ScenarioConfig(num_links=100, link_mix=1.0, seed=7)
    children_max = []
    slowest = 0.0
    for drop in range(20):
        inst = generate_instance(cfg, drop_seed=drop)
        graph = build_graph(inst, cfg.inr_edge_threshold)
        tree = maximum_spanning_tree(graph)
        children_max.append(tree.max_children)
        t0 = time.perf_counter()
        mst_dp(inst, graph, tree, PF)
        slowest = max(slowest, time.perf_counter() - t0)
        assert time.perf_counter() - t0 < 1.0
    mean_d = float(np.mean(children_max))
    assert mean_d < 12.0
    print(
        f"\nACCEPTANCE 7 (M=100, 20 drops): PASS — mean max-children {mean_d:.2f} "
        f"(max {max(children_max)}; value depends on the edge threshold, here "
        f"{cfg.inr_edge_threshold} linear), slowest MST-DP {slowest * 1e3:.0f} ms"
    )


def test_acceptance_8_spanning_tree_weight_optimal():
    rng = np.random.default_rng(1008)
    checked = 0
    seed = 0
    t0 = time.perf_counter()
    while checked < 50:
        seed += 1
        m = int(rng.integers(3, 8))
        cfg = ScenarioConfig(num_links=m, link_mix=float(rng.choice([0.0, 1.0])), seed=9000 + seed)
        inst = generate_instance(cfg, drop_seed=seed)
        graph = build_graph(inst, threshold=1e-9)
        if len(graph.components()) != 1:
            continue
        tree = maximum_spanning_tree(graph)
        best = max(spanning_tree_weights(graph))
        assert total_weight(graph, tree) == best  # fsum on both sides: order-independent
        checked += 1
    elapsed = time.perf_counter() - t0
    print(
        f"\nACCEPTANCE 8 (max spanning tree weight matches enumeration on "
        f"{checked} connected graphs, exact): PASS — {elapsed:.1f}s"
    )


def test_acceptance_9_cli_byte_determinism(tmp_path):
    config = {
        "schema": "spinopt.config/1",
        "scenario": {"num_links": 4, "seed": 13},
        "experiment": {
            "algorithms": ["exhaustive", "mst_dp", "random"],
            "num_drops": 3,
            "frames_per_drop": 4,
            "master_seed": 13,
        },
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))

    def run_all(tag):
        outs = {}
        for command in ("generate", "optimize", "evaluate"):
            out = tmp_path / f"{command}-{tag}"
            argv = [command, "--config", str(cfg_path), "--out", str(out)]
            if command == "evaluate":
                argv += ["--threads", "2"]
            assert main(argv) == 0
            outs[command] = {
                p.name: p.read_bytes()
                for p in sorted(out.iterdir())
                if p.name != "run_meta.json"
            }
        return outs

    first = run_all("a")
    second = run_all("b")
    assert first == second
    n_files = sum(len(files) for files in first.values())
    print(
        f"\nACCEPTANCE 9 (CLI outputs byte-identical across runs, {n_files} data "
        f"files over generate/optimize/evaluate): PASS"
    )

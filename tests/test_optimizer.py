import math
import tracemalloc

import numpy as np
import pytest

from helpers import (
    approx_sinr,
    build_instance,
    cycle_parity,
    cyclic_instance,
    edge_keys,
    enumerate_cycles,
    graph_from,
    random_instance,
    tree_brute_force,
    utility_of,
)
from spinopt.optimizer import (
    CHILD_CAP,
    DP_STEP_BUDGET,
    exhaustive_search,
    mst_dp,
    random_spins,
)
from spinopt.sinr import UtilityKind, network_utility
from spinopt.topology import (
    build_graph,
    maximum_spanning_tree,
    relative_from_spins,
)

SUM_RATE = UtilityKind.TWO_WAY_SUM_RATE
PF = UtilityKind.PROPORTIONAL_FAIRNESS


def prepared(num_links, seed, threshold=0.01, **overrides):
    _, inst = random_instance(num_links, seed=seed, **overrides)
    graph = build_graph(inst, threshold=threshold)
    tree = maximum_spanning_tree(graph)
    return inst, graph, tree


def all_assignment_utilities(inst, graph, kind):
    """Independent oracle: evaluate every absolute spin vector."""
    m = graph.num_vertices
    values = []
    for code in range(2 ** m):
        s = np.array([(code >> (m - 1 - j)) & 1 for j in range(m)])
        values.append(network_utility(inst, graph, kind, s))
    return values


def test_exhaustive_single_link():
    inst = build_instance(np.zeros((1, 1, 2, 2)))
    graph = graph_from(1, ())
    res = exhaustive_search(inst, graph, SUM_RATE)
    np.testing.assert_array_equal(res.spins, [0])
    assert res.objective_exact == pytest.approx(2 * math.log2(101), rel=1e-15)


def test_exhaustive_zero_interference_ties_break_to_zero():
    inst = build_instance(np.zeros((3, 3, 2, 2)))
    graph = graph_from(3, ())
    res = exhaustive_search(inst, graph, SUM_RATE)
    np.testing.assert_array_equal(res.spins, [0, 0, 0])
    assert res.objective_exact == pytest.approx(6 * math.log2(101), rel=1e-15)


@pytest.mark.parametrize("kind", [SUM_RATE, PF])
def test_exhaustive_matches_full_enumeration(kind):
    for seed in range(6):
        inst, graph, _ = prepared(4, seed=seed)
        res = exhaustive_search(inst, graph, kind)
        oracle = max(all_assignment_utilities(inst, graph, kind))
        assert res.objective_exact == pytest.approx(oracle, rel=1e-12)


def test_exhaustive_maximizes_the_objective_it_reports():
    # the batched screen ranks [0, 0, 1] first, but its exact
    # utility is one ulp below the tied [0, 1, 0] and [0, 1, 1]
    shifts = [
        np.zeros((2, 2)),
        [[0.13464823523303174, 29.384536217762108], [1.7625932885228994, 30.861139369028344]],
        [[0.10711830265116751, 1.2449114841648306], [0.17214329497778144, 9.074939303745667]],
    ]
    inst = cyclic_instance(shifts, snr=15.297580473558767)
    graph = build_graph(inst, threshold=0.01)
    best = max(all_assignment_utilities(inst, graph, SUM_RATE))
    res = exhaustive_search(inst, graph, SUM_RATE)
    np.testing.assert_array_equal(res.spins, [0, 1, 0])
    assert res.objective_exact == best == 11.54401887028603
    dp = mst_dp(inst, graph, maximum_spanning_tree(graph), SUM_RATE)
    assert res.objective_exact >= dp.objective_exact


def test_exhaustive_result_is_self_consistent():
    inst, graph, _ = prepared(6, seed=3)
    res = exhaustive_search(inst, graph, PF)
    relative = res.to_json(graph)["relative_spins"]
    assert relative == {f"{k}-{l}": b for (k, l), b in relative_from_spins(graph, res.spins).items()}
    assert res.objective_exact == network_utility(inst, graph, PF, res.spins)
    assert res.objective_approx is None
    assert res.spins[0] == 0  # component representative fixed


def test_tree_based_results_are_self_consistent():
    for seed in range(5):
        inst, graph, tree = prepared(7, seed=seed)
        for res in (mst_dp(inst, graph, tree, PF), tree_brute_force(inst, graph, tree, PF)):
            assert res.spins.shape == (7,) and set(res.spins) <= {0, 1}
            assert res.objective_exact == network_utility(inst, graph, PF, res.spins)
            assert res.objective_approx is not None


def test_exhaustive_refuses_above_cap():
    inst, graph, _ = prepared(5, seed=0)
    with pytest.raises(ValueError, match="cap"):
        exhaustive_search(inst, graph, SUM_RATE, cap=4)


def test_flip_invariance_of_returned_assignments():
    for seed in range(4):
        inst, graph, tree = prepared(6, seed=seed)
        for res in (
            exhaustive_search(inst, graph, PF),
            mst_dp(inst, graph, tree, PF),
            random_spins(inst, graph, PF, seed),
        ):
            assert network_utility(inst, graph, PF, 1 - res.spins) == res.objective_exact


def test_dp_matches_tree_brute_force():
    rng = np.random.default_rng(2024)
    for trial in range(40):
        m = int(rng.integers(2, 9))
        inst, graph, tree = prepared(m, seed=trial, link_mix=float(rng.random()))
        for kind in (SUM_RATE, PF):
            dp = mst_dp(inst, graph, tree, kind)
            bf = tree_brute_force(inst, graph, tree, kind)
            assert dp.objective_approx == pytest.approx(bf.objective_approx, rel=1e-9)


def test_dp_single_edge_picks_better_spin():
    inst, graph, tree = prepared(2, seed=1, threshold=1e-6)
    assert edge_keys(graph) == ((0, 1),)
    u = [network_utility(inst, graph, PF, np.array([0, b])) for b in (0, 1)]
    res = mst_dp(inst, graph, tree, PF)
    assert res.objective_exact == pytest.approx(max(u), rel=1e-12)
    assert res.objective_approx == pytest.approx(max(u), rel=1e-12)


def test_dp_exact_when_graph_is_tree():
    # prune every chord from a random instance so the graph equals its tree
    for seed in range(6):
        inst, graph, tree = prepared(7, seed=seed)
        keep = {(k, l) for k, l, _ in tree.tree_edges}
        pruned_inr = inst.inr.copy()
        for k, l in edge_keys(graph):
            if (k, l) not in keep:
                pruned_inr[k, l] = 0.0
                pruned_inr[l, k] = 0.0
        pruned = build_instance(pruned_inr, snr=inst.snr.copy(), kinds=inst.kinds.copy())
        graph2 = build_graph(pruned, threshold=0.01)
        assert set(edge_keys(graph2)) <= keep
        tree2 = maximum_spanning_tree(graph2)
        dp = mst_dp(pruned, graph2, tree2, PF)
        exh = exhaustive_search(pruned, graph2, PF)
        assert dp.objective_exact == pytest.approx(exh.objective_exact, rel=1e-12)


def test_dp_spin_indifferent_star():
    # hub 0 with three leaves; both ends of every interferer hit equally hard
    inr = np.zeros((4, 4, 2, 2))
    for leaf in (1, 2, 3):
        inr[leaf, 0] = 2.0  # all four end-pairs equal -> spins do not matter
        inr[0, leaf] = 1.0
    inst = build_instance(inr)
    graph = build_graph(inst, threshold=0.01)
    tree = maximum_spanning_tree(graph)
    dp = mst_dp(inst, graph, tree, SUM_RATE)
    exh = exhaustive_search(inst, graph, SUM_RATE)
    assert dp.objective_exact == exh.objective_exact
    assert dp.objective_approx == pytest.approx(dp.objective_exact, rel=1e-12)


def test_dp_refuses_wide_vertices():
    # the cap refuses one child more than its memory budget admits
    star = graph_from(CHILD_CAP + 2, [(0, leaf, 1.0) for leaf in range(1, CHILD_CAP + 2)])
    tree = maximum_spanning_tree(star)
    assert tree.max_children == CHILD_CAP + 1
    inst = build_instance(np.zeros((star.num_vertices,) * 2 + (2, 2)))
    with pytest.raises(ValueError, match="children"):
        mst_dp(inst, star, tree, SUM_RATE)


def test_dp_step_at_cap_fits_memory_budget():
    # vertex 1 hangs below root 0 and has CHILD_CAP leaves, so its step
    # enumerates the widest admitted rows once per parent-edge spin
    m = CHILD_CAP + 2
    broom = graph_from(m, [(0, 1, 2.0)] + [(1, leaf, 1.0) for leaf in range(2, m)])
    tree = maximum_spanning_tree(broom)
    assert tree.max_children == CHILD_CAP
    inst = build_instance(np.full((m, m, 2, 2), 0.5))
    tracemalloc.start()
    try:
        mst_dp(inst, broom, tree, PF)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= DP_STEP_BUDGET


def test_dp_value_is_exact_under_extreme_inr_asymmetry():
    # close-range interferer: one end hits at ~1e8, the other near 1; a
    # base-plus-difference denominator would lose ~8 digits here
    inr = np.zeros((2, 2, 2, 2))
    inr[1, 0, 0, 1] = 1.2345678912345e8
    inr[1, 0, 1, 1] = 0.7
    inr[1, 0, 1, 0] = 3.3e7
    inr[1, 0, 0, 0] = 1.1
    inst = build_instance(inr)
    graph = graph_from(2, ((0, 1, 1e8),))
    tree = maximum_spanning_tree(graph)
    for kind in (SUM_RATE, PF):
        dp = mst_dp(inst, graph, tree, kind)
        bf = tree_brute_force(inst, graph, tree, kind)
        assert dp.objective_approx == pytest.approx(bf.objective_approx, rel=1e-12)


def test_batch_utilities_are_exact_under_extreme_inr_asymmetry():
    from spinopt.optimizer import _spin_batch_utilities

    inr = np.zeros((3, 3, 2, 2))
    inr[1, 0, 0, 1] = 9.87654321987e7
    inr[1, 0, 1, 1] = 0.3
    inr[2, 0, 1, 0] = 4.5e6
    inr[2, 0, 0, 0] = 1.7
    inst = build_instance(inr)
    graph = graph_from(3, ((0, 1, 1e7), (0, 2, 1e6)))
    batch = np.array(
        [[(code >> (2 - j)) & 1 for j in range(3)] for code in range(8)], dtype=np.int8
    )
    fast = _spin_batch_utilities(inst, graph, PF, batch)
    slow = [network_utility(inst, graph, PF, s) for s in batch]
    np.testing.assert_allclose(fast, slow, rtol=1e-12)


def test_dp_objective_dominates_random_often():
    wins = 0
    trials = 20
    for seed in range(trials):
        inst, graph, tree = prepared(8, seed=seed)
        dp = mst_dp(inst, graph, tree, PF)
        rnd = random_spins(inst, graph, PF, seed)
        if dp.objective_exact >= rnd.objective_exact:
            wins += 1
    assert wins >= int(0.8 * trials)


def test_exhaustive_dominates_dp():
    for seed in range(10):
        inst, graph, tree = prepared(7, seed=seed)
        exh = exhaustive_search(inst, graph, PF)
        dp = mst_dp(inst, graph, tree, PF)
        assert exh.objective_exact >= dp.objective_exact


def test_random_spins_deterministic_and_fair():
    inst, graph, _ = prepared(6, seed=0)
    a = random_spins(inst, graph, PF, seed=5)
    b = random_spins(inst, graph, PF, seed=5)
    np.testing.assert_array_equal(a.spins, b.spins)
    assert a.objective_exact == b.objective_exact

    draws = np.concatenate(
        [random_spins(inst, graph, PF, seed=s).spins for s in range(1700)]
    )
    assert draws.size == 10200
    assert abs(draws.mean() - 0.5) < 0.015  # ~3 standard errors


def test_random_spins_zero_interference_matches_exhaustive():
    inst = build_instance(np.zeros((4, 4, 2, 2)))
    graph = graph_from(4, ())
    rnd = random_spins(inst, graph, SUM_RATE, seed=3)
    exh = exhaustive_search(inst, graph, SUM_RATE)
    assert rnd.objective_exact == exh.objective_exact


def test_tree_brute_force_single_edge_and_caps():
    inst, graph, tree = prepared(2, seed=4, threshold=1e-6)
    bf = tree_brute_force(inst, graph, tree, PF)
    dp = mst_dp(inst, graph, tree, PF)
    assert bf.objective_approx == dp.objective_approx
    with pytest.raises(ValueError, match="cap"):
        tree_brute_force(inst, graph, tree, PF, cap=0)


def test_tree_brute_force_flat_objective_when_spin_indifferent():
    inr = np.zeros((3, 3, 2, 2))
    inr[1, 0] = 3.0
    inr[2, 0] = 2.0
    inst = build_instance(inr)
    graph = build_graph(inst, threshold=0.01)
    tree = maximum_spanning_tree(graph)
    values = set()
    for code in range(4):
        spins = np.array([0, code >> 1, code & 1])
        values.add(
            utility_of(SUM_RATE, [approx_sinr(inst, graph, tree, l, spins) for l in range(3)])
        )
    assert len(values) == 1
    assert tree_brute_force(inst, graph, tree, SUM_RATE).objective_approx in values


def test_all_optimizer_outputs_satisfy_cycle_parity():
    for seed in range(8):
        inst, graph, tree = prepared(6, seed=seed, threshold=0.005)
        cycles = enumerate_cycles(graph)
        for res in (
            exhaustive_search(inst, graph, PF),
            mst_dp(inst, graph, tree, PF),
            random_spins(inst, graph, PF, seed),
            tree_brute_force(inst, graph, tree, PF),
        ):
            relative = relative_from_spins(graph, res.spins)
            for cycle in cycles:
                assert cycle_parity(relative, cycle) == 0


def test_result_json_shape():
    inst, graph, tree = prepared(3, seed=1)
    res = mst_dp(inst, graph, tree, PF)
    data = res.to_json(graph)
    assert data["algorithm"] == "mst_dp"
    assert data["relative_spins"] == {
        f"{k}-{l}": int(res.spins[k] ^ res.spins[l]) for k, l in edge_keys(graph)
    }
    assert "elapsed_s" not in data


def test_pf_with_dead_link_returns_zero_assignment_with_warning():
    inr = np.zeros((2, 2, 2, 2))
    inst = build_instance(inr, snr=np.array([[0.0, 0.0], [100.0, 100.0]]))
    graph = graph_from(2, ((0, 1, 1.0),))
    tree = maximum_spanning_tree(graph)
    for res in (
        exhaustive_search(inst, graph, PF),
        mst_dp(inst, graph, tree, PF),
    ):
        assert res.objective_exact == -math.inf
        assert res.warning is not None
        np.testing.assert_array_equal(res.spins, [0, 0])

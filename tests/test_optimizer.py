import builtins
import inspect
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
    exhaustive_rerank,
    graph_from,
    mst_dp_per_vertex,
    random_instance,
    tree_brute_force,
    utility_of,
)
import spinopt
from spinopt import optimizer
from spinopt.optimizer import (
    CHILD_CAP,
    DP_STEP_BUDGET,
    EXHAUSTIVE_CAP,
    exhaustive_search,
    exhaustive_search_block,
    mst_dp,
    mst_dp_block,
    random_spins,
)
from spinopt.sinr import UtilityKind, network_utility, spin_planes, spin_selectors
from spinopt.topology import (
    RootedTree,
    build_graph,
    maximum_spanning_tree,
    relative_from_spins,
    tree_edges,
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


@pytest.mark.parametrize(
    "shifts, snr, screened_first, best",
    [
        # four links: the screen puts [0, 0, 1, 1] an ulp above [0, 1, 1, 0],
        # whose exact utility is an ulp above that of [0, 0, 1, 1]
        (
            [np.zeros((2, 2)), [[57, 60], [58, 48]], [[61, 39], [76, 47]], [[61, 37], [60, 53]]],
            14,
            [0, 0, 1, 1],
            [0, 1, 1, 0],
        ),
        # three links, every pair alike: one link against the other two is one
        # assignment up to relabelling, so [0, 0, 1] and [0, 1, 0] tie exactly
        # and the lower wins, but the screen puts [0, 0, 1] an ulp below
        ([np.zeros((2, 2)), [[5, 56], [56, 5]], [[5, 56], [56, 5]]], 5, [0, 1, 0], [0, 0, 1]),
    ],
    ids=["inverted", "tied"],
)
def test_exhaustive_re_ranks_what_the_screen_puts_below_its_best(
    shifts, snr, screened_first, best
):
    # drops found by a Hypothesis search over symmetric drops of at most 6
    # links: the screen, under numpy's AVX-512 log2, orders two assignments
    # unlike the exact objective. Only the rows within _SCREEN_MARGIN of the
    # screened best are re-ranked, so without the margin the search returns
    # screened_first. numpy's baseline log2 rounds as libm's does, and the
    # screen then ordered no such drop differently, so the screen's order is
    # not asserted here
    inst = cyclic_instance(np.array(shifts, dtype=float), snr=snr)
    graph = build_graph(inst, threshold=0.01)
    exact = [network_utility(inst, graph, SUM_RATE, spins) for spins in (screened_first, best)]
    assert exact[0] <= exact[1]
    res = exhaustive_search(inst, graph, SUM_RATE)
    np.testing.assert_array_equal(res.spins, best)
    assert res.objective_exact == max(all_assignment_utilities(inst, graph, SUM_RATE))


def spin_indifferent(num_links, seed):
    """A drop whose same-end and opposite-end INRs are equal: every assignment ties."""
    _, inst = random_instance(num_links, seed=seed)
    inr = inst.inr.copy()
    inr[:, :, 1, 1] = inr[:, :, 0, 1]
    inr[:, :, 0, 0] = inr[:, :, 1, 0]
    return build_instance(inr, snr=inst.snr.copy())


@pytest.mark.parametrize("batch", [1 << 3, optimizer._BATCH])
@pytest.mark.parametrize("rerank_batch", [5, optimizer._RERANK_BATCH])
@pytest.mark.parametrize("kind", [SUM_RATE, PF])
def test_exhaustive_equals_per_candidate_rerank_on_ties(monkeypatch, kind, rerank_batch, batch):
    # with batches of 8 assignments, the ties of the larger drops straddle batches
    monkeypatch.setattr(optimizer, "_BATCH", batch)
    monkeypatch.setattr(optimizer, "_RERANK_BATCH", rerank_batch)
    rng = np.random.default_rng(11)
    instances = [spin_indifferent(m, seed) for m, seed in ((5, 1), (8, 2), (9, 3))]
    instances += [
        cyclic_instance(10.0 ** rng.uniform(-1.0, 2.0, size=(m, 2, 2)), snr=rng.uniform(1, 100))
        for m in (3, 4, 6, 8)
    ]
    instances.append(build_instance(np.zeros((4, 4, 2, 2))))  # no edges: one assignment
    for inst in instances:
        graph = build_graph(inst, threshold=0.01)
        res = exhaustive_search(inst, graph, kind)
        spins, objective = exhaustive_rerank(inst, graph, kind)
        np.testing.assert_array_equal(res.spins, spins)
        assert res.objective_exact == objective


def all_tie_drops(m, count):
    """``count`` connected drops at SNRs of 1e-40: every assignment is within the
    screen's margin of the best, so all 2**(M-1) of a drop are near-best rows.
    Returns the block's SNR and spin-plane stacks and its drops' roots."""
    drops = [random_instance(m, seed=seed)[1] for seed in range(count)]
    drops = [build_instance(inst.inr.copy(), snr=np.full((m, 2), 1e-40)) for inst in drops]
    graphs = [build_graph(inst, threshold=0.0) for inst in drops]
    snr = np.stack([inst.snr for inst in drops])
    planes = np.stack([spin_planes(i.inr, g.adjacency) for i, g in zip(drops, graphs)])
    roots = [maximum_spanning_tree(graph).roots for graph in graphs]
    assert roots == [(0,)] * count
    return snr, planes, roots


def exhaustive_peak(snr, planes, roots) -> int:
    tracemalloc.start()
    try:
        exhaustive_search_block(snr, planes, roots, SUM_RATE)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_exhaustive_blocks_hold_near_best_rows_of_one_drop(monkeypatch):
    # drops with equal roots share every batch of the enumeration, each
    # batch's near-best rows are re-ranked before the next is built, and a
    # result holds a copy of its best row, not a view of the batch's rows, so
    # a block of six holds one batch at a time
    monkeypatch.setattr(optimizer, "_BATCH", 1 << 6)
    monkeypatch.setattr(optimizer, "_RERANK_BATCH", 1 << 4)
    snr, planes, roots = all_tie_drops(12, 6)
    assert exhaustive_peak(snr, planes, roots) <= 1.5 * exhaustive_peak(*all_tie_drops(12, 1))


def test_exhaustive_memory_does_not_grow_with_ties(monkeypatch):
    # with every assignment tied, a search that held its near-best rows until
    # the enumeration ends would grow as 2**(M-1); one batch at a time grows
    # only with a row's M**2 terms
    monkeypatch.setattr(optimizer, "_BATCH", 1 << 6)
    monkeypatch.setattr(optimizer, "_RERANK_BATCH", 1 << 4)
    small, large = (exhaustive_peak(*all_tie_drops(m, 1)) for m in (10, 14))
    assert large <= (14 / 10) ** 2 * small


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
    # refused before any enumeration, so the instance above the cap is cheap
    inst, graph, _ = prepared(EXHAUSTIVE_CAP + 1, seed=0)
    with pytest.raises(ValueError, match=f"cap of {EXHAUSTIVE_CAP}"):
        exhaustive_search(inst, graph, SUM_RATE)


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
        keep = {(k, l) for k, l, _ in tree_edges(graph, tree)}
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


def zero_snr_path():
    # path 0 - 1 - 2 whose leaf 2 has no signal: a -inf utility under PF
    inr = np.zeros((3, 3, 2, 2))
    inr[0, 1] = inr[1, 0] = [[3.0, 0.5], [1.0, 7.0]]
    inr[1, 2] = inr[2, 1] = [[0.2, 4.0], [2.0, 1.0]]
    snr = np.array([[100.0, 50.0], [80.0, 20.0], [0.0, 0.0]])
    inst = build_instance(inr, snr=snr)
    graph = build_graph(inst, threshold=0.01)
    return inst, graph, maximum_spanning_tree(graph)


DP_CASES = {
    "one-link": lambda: prepared(1, seed=1),
    "two-links": lambda: prepared(2, seed=1, threshold=1e-6),
    "two-isolated-links": lambda: prepared(2, seed=1, threshold=1e300),
    "forest": lambda: prepared(12, seed=3, threshold=1.0, area_side=1000.0),
    "zero-snr-leaf": zero_snr_path,
    "m200": lambda: prepared(200, seed=5, link_mix=0.0),
}


@pytest.mark.parametrize("kind", [SUM_RATE, PF])
@pytest.mark.parametrize("case", sorted(DP_CASES))
def test_dp_equals_per_vertex_reference_bit_for_bit(case, kind):
    inst, graph, tree = DP_CASES[case]()
    dp, reference = mst_dp(inst, graph, tree, kind), mst_dp_per_vertex(inst, graph, tree, kind)
    assert dp.spins.tobytes() == reference.spins.tobytes()
    for objective in ("objective_approx", "objective_exact"):
        values = [np.float64(getattr(result, objective)).tobytes() for result in (dp, reference)]
        assert values[0] == values[1]
    roots = {"two-isolated-links": 2, "forest": 3}.get(case, 1)
    assert len(tree.roots) == roots


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


def test_dp_block_steps_at_cap_fit_memory_budget():
    # two broom drops put two vertices of CHILD_CAP children in one group
    # (height 1, CHILD_CAP children): twice the rows the budget admits, so
    # the group steps one vertex at a time
    m = CHILD_CAP + 2
    broom = graph_from(m, [(0, 1, 2.0)] + [(1, leaf, 1.0) for leaf in range(2, m)])
    tree = maximum_spanning_tree(broom)
    assert 2 * 2**CHILD_CAP * optimizer._DP_ROW_BYTES > DP_STEP_BUDGET
    inst = build_instance(np.full((m, m, 2, 2), 0.5))
    planes = np.stack([spin_planes(inst.inr, broom.adjacency)] * 2)
    snr = np.stack([inst.snr] * 2)
    tracemalloc.start()
    try:
        block = mst_dp_block(snr, planes, [tree, tree], PF)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= DP_STEP_BUDGET
    alone = mst_dp(inst, broom, tree, PF)
    for result in block:
        assert result.spins.tobytes() == alone.spins.tobytes()
        assert result.objective_approx == alone.objective_approx


def neumaier_sum(values, start=0):
    """Compensated summation, as the builtin ``sum`` of floats does from Python 3.12."""
    total, compensation = float(start), 0.0
    for x in values:
        t = total + x
        if abs(total) >= abs(x):
            compensation += (total - t) + x
        else:
            compensation += (x - t) + total
        total = t
    return total + compensation


def test_objectives_do_not_depend_on_the_builtin_sum(monkeypatch):
    # the objectives add their floats left to right on every Python, so a
    # sum compensated as Python 3.12's is leaves every one of them unchanged
    rng = np.random.default_rng(5)
    drops = [prepared(20, seed=seed, threshold=(0.01, 1.0)[seed % 2]) for seed in range(8)]
    spins = rng.integers(0, 2, size=(len(drops), 20), dtype=np.int8)

    def objectives():
        return [
            (network_utility(inst, g, kind, s), mst_dp(inst, g, tree, kind).objective_approx)
            for (inst, g, tree), s in zip(drops, spins)
            for kind in (SUM_RATE, PF)
        ]

    expected = objectives()
    monkeypatch.setattr(builtins, "sum", neumaier_sum)
    assert sum([0.1] * 10) == 1.0  # added left to right: 0.9999999999999999
    assert objectives() == expected


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
    planes, s = spin_planes(inst.inr, graph.adjacency), batch.astype(float)
    fast = _spin_batch_utilities(inst.snr, planes, PF, (batch == 0, s, 1.0 - s))
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


@pytest.mark.parametrize("seed", [-1, True, 2**64, 1.5, "3"])
def test_random_spins_refuses_a_seed_that_is_no_64_bit_unsigned_integer(seed):
    # numpy took True and 2**64 and refused the rest without naming the seed
    inst, graph, _ = prepared(4, seed=0)
    with pytest.raises(ValueError, match=r"seed must be a 64-bit unsigned integer, got"):
        random_spins(inst, graph, PF, seed)


def test_random_spins_takes_a_numpy_integer_seed_as_its_value():
    inst, graph, _ = prepared(6, seed=0)
    for seed in (3, 2**64 - 1):
        expected = random_spins(inst, graph, PF, seed)
        for numpy_seed in (np.uint64(seed), np.array([seed], dtype=np.uint64)[0]):
            got = random_spins(inst, graph, PF, numpy_seed)
            np.testing.assert_array_equal(got.spins, expected.spins)
            assert got.objective_exact == expected.objective_exact


# every parameter of a spinopt.__all__ function that takes a package class or,
# for values, any object with snr and inr arrays
PACKAGE_CLASS_PARAMETERS = [
    ("build_graph", "instance"),
    ("maximum_spanning_tree", "graph"),
    ("relative_from_spins", "graph"),
    ("two_way_rates", "values"),
    ("exhaustive_search", "instance"),
    ("exhaustive_search", "graph"),
    ("mst_dp", "instance"),
    ("mst_dp", "graph"),
    ("mst_dp", "tree"),
    ("random_spins", "instance"),
    ("random_spins", "graph"),
    ("network_utility", "values"),
    ("network_utility", "graph"),
]


@pytest.mark.parametrize("name, parameter", PACKAGE_CLASS_PARAMETERS)
def test_public_entries_refuse_none_by_the_parameter_name(name, parameter):
    # each died in Python's AttributeError, naming no argument
    inst, graph, tree = prepared(4, seed=1)
    spins = np.zeros(4, dtype=np.int8)
    values = {
        "instance": inst, "values": inst, "graph": graph, "tree": tree, "kind": PF,
        "spins": spins, "seed": 1, "differ": spin_selectors(spins),
    }
    function = getattr(spinopt, name)
    arguments = {p: values[p] for p in inspect.signature(function).parameters if p in values}
    function(**arguments)
    with pytest.raises(TypeError, match=f"^{parameter} must "):
        function(**{**arguments, parameter: None})


def test_every_optimizer_refuses_a_graph_of_another_link_count():
    # numpy's "boolean index did not match" IndexError named neither side
    _, inst = random_instance(4, seed=2)
    graph = graph_from(5, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (3, 4, 1.0)])
    tree = maximum_spanning_tree(graph)
    message = "graph has 5 vertices, the INR 4 links"
    with pytest.raises(ValueError, match=message):
        exhaustive_search(inst, graph, PF)
    with pytest.raises(ValueError, match=message):
        mst_dp(inst, graph, tree, PF)
    with pytest.raises(ValueError, match=message):
        random_spins(inst, graph, PF, seed=1)
    with pytest.raises(ValueError, match=message):
        network_utility(inst, graph, PF, np.zeros(5, dtype=np.int8))


def test_mst_dp_refuses_a_tree_that_is_not_a_forest_of_the_graph():
    _, inst = random_instance(4, seed=2)
    graph = graph_from(4, [(0, 2, 1.0), (1, 2, 1.0), (2, 3, 1.0)])
    # (0, 1) is no edge: the DP read its INR as a tree edge's and returned spins
    with pytest.raises(ValueError, match=r"tree edge \(0, 1\) is not a graph edge"):
        mst_dp(inst, graph, RootedTree((-1, 0, 1, 2)), PF)
    # a tree of 5 vertices died in numpy's broadcast
    with pytest.raises(ValueError, match="tree has 5 vertices, the graph 4"):
        mst_dp(inst, graph, RootedTree((-1, 0, 0, 0, 0)), PF)
    assert mst_dp(inst, graph, RootedTree((-1, 2, 0, 2)), PF).spins.shape == (4,)


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
    assert data["relative_spins"] == {
        f"{k}-{l}": int(res.spins[k] ^ res.spins[l]) for k, l in edge_keys(graph)
    }
    # result.json names each result by its key; the result itself has no name
    assert "elapsed_s" not in data and "algorithm" not in data


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

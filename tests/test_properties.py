"""Property tests: the dense kernels and optimizers against the loop oracles.

Example counts are bounded and generation is derandomized, so the suite
stays fast and every run checks the same examples.
"""

import json
from dataclasses import fields

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    approx_sinr,
    build_instance,
    cyclic_instance,
    exact_sinr,
    graph_from,
    kruskal_forest,
    random_instance,
    rates_of,
    tree_brute_force,
    utility_of,
)
from spinopt.channel import (
    LinkInstance,
    ScenarioConfig,
    draw_fading,
    generate_instance,
    instance_from_json,
    instance_to_json,
)
from spinopt.evaluation import ALGORITHMS, FADING_MODES, ExperimentConfig, run_experiment
from spinopt.optimizer import exhaustive_search, mst_dp
from spinopt.sinr import (
    UtilityKind,
    network_utilities,
    network_utility,
    spin_selectors,
    two_way_rates,
)
from spinopt.topology import build_graph, maximum_spanning_tree

PROPERTY = settings(max_examples=40, deadline=None, derandomize=True, database=None)
# each example starts a process pool, so this property gets few of them
POOLED = settings(max_examples=10, deadline=None, derandomize=True, database=None)
KINDS = st.sampled_from(list(UtilityKind))
SEEDS = st.integers(0, 2**64 - 1)


@st.composite
def networks(draw, max_links=7):
    """(instance, graph, tree, spins): a random drop, a hand-made instance
    whose INRs span twelve orders of magnitude, or a cyclically symmetric one
    whose assignments tie up to rounding, with random absolute spins."""
    m = draw(st.integers(2, max_links))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    shape = draw(st.sampled_from(["drop", "extreme", "cyclic"]))
    if shape == "drop":
        _, inst = random_instance(m, seed, link_mix=draw(st.sampled_from([0.0, 0.5, 1.0])))
    elif shape == "cyclic":
        shifts = 10.0 ** rng.uniform(-1.0, 2.0, size=(m, 2, 2))
        inst = cyclic_instance(shifts, snr=rng.uniform(1.0, 100.0))
    else:
        inr = 10.0 ** rng.uniform(-4.0, 8.0, size=(m, m, 2, 2))
        inr[rng.random((m, m)) < 0.3] = 0.0
        inr[np.arange(m), np.arange(m)] = 0.0
        inst = build_instance(inr, snr=10.0 ** rng.uniform(0.0, 3.0, size=(m, 2)))
    graph = build_graph(inst, threshold=draw(st.sampled_from([1e-3, 1e-2, 1.0])))
    tree = maximum_spanning_tree(graph)
    spins = np.array(draw(st.lists(st.integers(0, 1), min_size=m, max_size=m)), dtype=np.int8)
    return inst, graph, tree, spins


@st.composite
def weighted_graphs(draw, max_vertices=10):
    """(num_vertices, edges): random graphs of every density, disconnected
    ones included, whose weights take at most three values so ties are common."""
    m = draw(st.integers(1, max_vertices))
    levels = draw(st.lists(st.sampled_from([0.0, 0.5, 1.0, 2.5]), min_size=1, max_size=3))
    density = draw(st.sampled_from([0.1, 0.3, 0.6, 1.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    edges = [
        (k, l, float(rng.choice(levels)))
        for k in range(m)
        for l in range(k + 1, m)
        if rng.random() < density
    ]
    return m, edges


@PROPERTY
@given(weighted_graphs())
def test_spanning_forest_equals_kruskal_oracle(graph_edges):
    m, edges = graph_edges
    graph = graph_from(m, edges)
    tree = maximum_spanning_tree(graph)
    oracle = kruskal_forest(m, edges)
    assert graph.edges == tuple(sorted(edges))
    assert graph.components() == oracle.components
    assert tree.parent == oracle.parent
    assert tree.roots == oracle.roots
    assert tree.children == oracle.children
    assert tree.order == oracle.order
    assert tree.tree_edges == oracle.tree_edges


@PROPERTY
@given(networks(), KINDS, st.booleans())
def test_network_utility_equals_loop_oracle(net, kind, faded):
    inst, graph, _, spins = net
    values = draw_fading(inst, 1) if faded else inst
    oracle = utility_of(
        kind, [exact_sinr(values, graph, l, spins) for l in range(graph.num_vertices)]
    )
    assert network_utility(values, graph, kind, spins) == oracle


@PROPERTY
@given(networks(), KINDS, st.integers(0, 2**32 - 1))
def test_batched_network_utilities_equal_loop_oracle(net, kind, seed):
    inst, graph, _, _ = net
    m = graph.num_vertices
    batch = np.random.default_rng(seed).integers(0, 2, size=(9, m), dtype=np.int8)
    oracle = [utility_of(kind, [exact_sinr(inst, graph, l, s) for l in range(m)]) for s in batch]
    assert network_utilities(inst, graph, kind, batch) == oracle


@PROPERTY
@given(networks(), st.integers(0, 2**16))
def test_two_way_rates_equal_loop_oracle(net, frame):
    inst, graph, _, spins = net
    draw = draw_fading(inst, frame)
    fast = two_way_rates(draw, spin_selectors(graph, spins))
    slow = rates_of([exact_sinr(draw, graph, l, spins) for l in range(graph.num_vertices)])
    np.testing.assert_allclose(fast, slow, rtol=1e-12, atol=0.0)


@PROPERTY
@given(networks(), KINDS)
def test_dp_equals_tree_brute_force(net, kind):
    inst, graph, tree, _ = net
    dp = mst_dp(inst, graph, tree, kind)
    oracle = tree_brute_force(inst, graph, tree, kind)
    np.testing.assert_allclose(dp.objective_approx, oracle.objective_approx, rtol=1e-9)
    # the decoded spins must carry the objective the DP reports
    achieved = utility_of(
        kind, [approx_sinr(inst, graph, tree, l, dp.spins) for l in range(graph.num_vertices)]
    )
    np.testing.assert_allclose(achieved, dp.objective_approx, rtol=1e-9)


@PROPERTY
@given(networks(), KINDS)
def test_global_flip_is_exact(net, kind):
    inst, graph, _, spins = net
    assert network_utility(inst, graph, kind, spins) == network_utility(
        inst, graph, kind, 1 - spins
    )


@PROPERTY
@given(networks(), KINDS)
def test_exhaustive_dominates_dp(net, kind):
    inst, graph, tree, _ = net
    exhaustive = exhaustive_search(inst, graph, kind)
    assert exhaustive.objective_exact >= mst_dp(inst, graph, tree, kind).objective_exact


@POOLED
@given(st.integers(1, 5), SEEDS, SEEDS, KINDS, st.sampled_from(FADING_MODES))
def test_report_is_independent_of_worker_count(m, scenario_seed, master_seed, kind, fading):
    config = ExperimentConfig(
        scenario=ScenarioConfig(num_links=m, link_mix=0.5, seed=scenario_seed),
        algorithms=ALGORITHMS,
        num_drops=3,
        frames_per_drop=4,
        utility=kind,
        master_seed=master_seed,
        fading=fading,
    )
    serial = run_experiment(config, workers=1)
    pooled = run_experiment(config, workers=2)
    assert serial.summary_json() == pooled.summary_json()
    for name in config.algorithms:
        assert np.array_equal(serial.stats[name].rates_bps, pooled.stats[name].rates_bps)


@PROPERTY
@given(
    st.integers(1, 8),
    SEEDS,
    SEEDS,
    st.sampled_from([0.0, 0.3, 1.0]),
    st.sampled_from([0.0, 8.0, 20.0]),
)
def test_instance_json_round_trips_bit_for_bit(m, seed, drop_seed, link_mix, sigma):
    config = ScenarioConfig(num_links=m, link_mix=link_mix, shadow_sigma_db=sigma, seed=seed)
    instance = generate_instance(config, drop_seed)
    back = instance_from_json(json.loads(json.dumps(instance_to_json(instance))))
    for field in fields(LinkInstance):
        value, restored = getattr(instance, field.name), getattr(back, field.name)
        if isinstance(value, np.ndarray):
            assert restored.dtype == value.dtype and restored.shape == value.shape
            assert restored.tobytes() == value.tobytes()
        else:
            assert restored == value

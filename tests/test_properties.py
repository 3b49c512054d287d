"""Property tests: the dense kernels and optimizers against the loop oracles.

Example counts are bounded and generation is derandomized, so the suite
stays fast and every run checks the same examples.
"""

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
from spinopt.channel import draw_fading
from spinopt.optimizer import exhaustive_search, mst_dp
from spinopt.sinr import UtilityKind, network_utility, spin_selectors, two_way_rates
from spinopt.topology import build_graph, maximum_spanning_tree

PROPERTY = settings(max_examples=40, deadline=None, derandomize=True, database=None)
KINDS = st.sampled_from(list(UtilityKind))


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

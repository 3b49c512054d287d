import json

import numpy as np
import pytest

from helpers import (
    build_instance,
    cycle_parity,
    edge_keys,
    edge_weight,
    enumerate_cycles,
    graph_from,
    random_instance,
    spanning_tree_weights,
    total_weight,
)
from spinopt.optimizer import mst_dp
from spinopt.sinr import UtilityKind
from spinopt.topology import (
    RootedTree,
    TopologyGraph,
    build_graph,
    check_spins,
    graph_to_edge_list,
    graph_to_json,
    maximum_spanning_tree,
    relative_from_spins,
    tree_edges,
    tree_to_json,
)


def tree_keys(graph, tree):
    return tuple((k, l) for k, l, _ in tree_edges(graph, tree))


def dp_with_tree_spins(num_links, tree_spins, chords=()):
    """Run the DP on an instance built so that its best tree-edge spins are known.

    Every tree edge {k, l} costs both links 1e3 of INR in each direction
    unless their relative spin equals ``tree_spins[k, l]``, which makes that
    pattern the unique DP optimum; each chord carries a spin-indifferent
    INR of 0.5, so it joins the graph with weight 0 and stays out of the
    tree.
    """
    inr = np.zeros((num_links, num_links, 2, 2))
    for (k, l), bit in tree_spins.items():
        for a, b in ((k, l), (l, k)):
            if bit:  # penalise equal spins: the same-end INR (layout L->R, R->L)
                inr[a, b, 0, 1] = inr[a, b, 1, 0] = 1e3
            else:  # penalise different spins: the opposite-end INR
                inr[a, b, 1, 1] = inr[a, b, 0, 0] = 1e3
    for k, l in chords:
        inr[k, l] = inr[l, k] = 0.5
    inst = build_instance(inr)
    graph = build_graph(inst, threshold=0.01)
    tree = maximum_spanning_tree(graph)
    assert set(tree_keys(graph, tree)) == set(tree_spins)
    return graph, tree, mst_dp(inst, graph, tree, UtilityKind.TWO_WAY_SUM_RATE)


def test_graph_validation():
    with pytest.raises(ValueError, match="square"):
        TopologyGraph(np.full((2, 3), np.nan))
    with pytest.raises(ValueError, match="square"):
        TopologyGraph(np.full((0, 0), np.nan))
    with pytest.raises(ValueError, match="diagonal"):
        TopologyGraph(np.zeros((2, 2)))  # self-edges
    one_way = np.full((3, 3), np.nan)
    one_way[0, 1] = 1.0
    with pytest.raises(ValueError, match="symmetric"):
        TopologyGraph(one_way)  # edge present in one direction only
    one_way[1, 0] = 2.0
    with pytest.raises(ValueError, match="symmetric"):
        TopologyGraph(one_way)  # two weights for one edge
    with pytest.raises(ValueError, match=">= 0"):
        graph_from(2, [(0, 1, -1.0)])

    weight = np.full((4, 4), np.nan)
    weight[[0, 2, 0, 1], [2, 0, 1, 0]] = [1.0, 1.0, 2.0, 2.0]
    g = TopologyGraph(weight)
    weight[0, 2] = weight[2, 0] = 7.0  # the graph keeps its own copy
    assert g.num_vertices == 4
    assert g.edges == ((0, 1, 2.0), (0, 2, 1.0))
    expected = np.zeros((4, 4), dtype=bool)
    expected[[0, 1, 0, 2], [1, 0, 2, 0]] = True
    np.testing.assert_array_equal(g.adjacency, expected)
    assert g.components() == ((0, 1, 2), (3,))
    for name in ("weight", "adjacency"):
        with pytest.raises(ValueError):
            getattr(g, name)[0, 3] = 1.0  # read-only


def test_no_interference_means_no_edges():
    inst = build_instance(np.zeros((3, 3, 2, 2)))
    g = build_graph(inst, threshold=0.0)
    assert g.edges == ()


def test_three_mutually_interfering_links_form_triangle():
    inr = np.zeros((3, 3, 2, 2))
    for k in range(3):
        for l in range(3):
            if k != l:
                inr[k, l] = 1.0
    g = build_graph(build_instance(inr), threshold=0.01)
    assert edge_keys(g) == ((0, 1), (0, 2), (1, 2))


def test_single_pair_above_threshold():
    inr = np.zeros((3, 3, 2, 2))
    inr[0, 1] = 0.005  # below
    inr[1, 2, 1, 0] = 0.5  # single directed path above
    g = build_graph(build_instance(inr), threshold=0.01)
    assert edge_keys(g) == ((1, 2),)


def test_threshold_monotonicity():
    _, inst = random_instance(8, seed=42)
    low = set(edge_keys(build_graph(inst, threshold=0.001)))
    mid = set(edge_keys(build_graph(inst, threshold=0.01)))
    high = set(edge_keys(build_graph(inst, threshold=1.0)))
    assert high <= mid <= low


def test_rooted_tree_rejects_a_parent_out_of_range_or_an_unreached_vertex():
    with pytest.raises(ValueError, match=r"parent of 1 is 2, outside \[-1, 2\)"):
        RootedTree(parent=(-1, 2))
    # 1 and 2 are each other's parent, so no root reaches them
    with pytest.raises(ValueError, match="tree does not reach every vertex"):
        RootedTree(parent=(-1, 2, 1))
    # an entry is an integer, Python or numpy, and not a bool, stored as a Python int
    for parent, v in (((True, -1), 0), ((-1, 0.5), 1), ((-1, "0"), 1), ((-1, None), 1)):
        message = f"parent of {v} must be an integer, got {parent[v]!r}"
        with pytest.raises(ValueError, match=message):
            RootedTree(parent=parent)
    tree = RootedTree(parent=(np.int64(-1), np.int32(0)))
    assert tree.parent == (-1, 0) and all(type(p) is int for p in tree.parent)
    assert json.dumps(tree_to_json(graph_from(2, [(0, 1, 1.5)]), tree))


def test_tree_edges_refuses_a_tree_that_is_not_a_forest_of_the_graph():
    g = graph_from(3, [(0, 1, 1.5), (1, 2, 2.5)])
    assert tree_edges(g, RootedTree((-1, 0, 1))) == g.edges
    with pytest.raises(ValueError, match="tree has 2 vertices, the graph 3"):
        tree_edges(g, RootedTree((-1, 0)))
    # (0, 2) has no weight, so its NaN must not reach an output file
    with pytest.raises(ValueError, match=r"tree edge \(0, 2\) is not a graph edge"):
        tree_edges(g, RootedTree((-1, 2, 0)))


@pytest.mark.parametrize("writer", [tree_edges, tree_to_json])
def test_tree_writers_refuse_a_graph_or_tree_of_another_type_by_name(writer):
    # each died in Python's AttributeError, naming no argument
    g = graph_from(3, [(0, 1, 1.5), (1, 2, 2.5)])
    tree = RootedTree((-1, 0, 1))
    with pytest.raises(TypeError, match="^graph must be of type TopologyGraph, got NoneType$"):
        writer(None, tree)
    with pytest.raises(TypeError, match="^tree must be of type RootedTree, got tuple$"):
        writer(g, (-1, 0, 1))


def test_build_graph_rejects_a_negative_threshold():
    _, inst = random_instance(3, seed=1)
    with pytest.raises(ValueError, match="threshold must be >= 0, got -1.0"):
        build_graph(inst, threshold=-1.0)


def test_build_graph_rejects_a_nan_threshold():
    # NaN compared False with every INR, so the graph silently had no edges
    _, inst = random_instance(3, seed=1)
    with pytest.raises(ValueError, match="threshold must be >= 0, got nan"):
        build_graph(inst, threshold=float("nan"))


@pytest.mark.parametrize("threshold", ["0.1", True, None])
def test_build_graph_refuses_a_threshold_that_is_no_number(threshold):
    # a string died comparing itself with 0 in a TypeError that named no argument
    _, inst = random_instance(3, seed=1)
    with pytest.raises(TypeError, match=f"^threshold must be a number, got {threshold!r}$"):
        build_graph(inst, threshold)


def test_edge_weight_examples():
    inr = np.zeros((2, 2, 2, 2))
    inst = build_instance(inr)
    assert edge_weight(inst, 0, 1) == 0.0

    inr = np.zeros((2, 2, 2, 2))
    inr[0, 1, 1, 1] = 5.0  # R0 interferes R1
    inr[0, 1, 0, 1] = 1.0  # L0 interferes R1
    inst = build_instance(inr)
    assert edge_weight(inst, 0, 1) == 4.0
    assert edge_weight(inst, 1, 0) == 4.0

    with pytest.raises(ValueError):
        edge_weight(inst, 1, 1)


def test_build_graph_weights_match_edge_weight():
    _, inst = random_instance(7, seed=7)
    g = build_graph(inst, threshold=0.01)
    for k, l, w in g.edges:
        assert w == pytest.approx(edge_weight(inst, k, l), rel=1e-15)


def test_mst_keeps_tree_input_unchanged():
    g = graph_from(4, [(0, 1, 3.0), (1, 2, 1.0), (1, 3, 2.0)])
    t = maximum_spanning_tree(g)
    assert tree_edges(g, t) == g.edges
    assert t.roots == (0,)
    assert t.parent == (-1, 0, 1, 1)
    assert t.children == ((1,), (2, 3), (), ())
    assert t.max_children == 2


def test_mst_triangle_drops_lightest_edge():
    g = graph_from(3, [(0, 1, 3.0), (0, 2, 2.0), (1, 2, 1.0)])
    t = maximum_spanning_tree(g)
    assert {w for _, _, w in tree_edges(g, t)} == {3.0, 2.0}


def test_mst_tie_break_is_lexicographic():
    # all weights equal: Kruskal must prefer (0,1) then (0,2) then (0,3)
    g = graph_from(4, [(2, 3, 1.0), (0, 3, 1.0), (0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)])
    t = maximum_spanning_tree(g)
    assert tree_keys(g, t) == ((0, 1), (0, 2), (0, 3))


def test_mst_matches_brute_force_enumeration():
    rng = np.random.default_rng(123)
    for trial in range(30):
        n = int(rng.integers(3, 6))
        edges = []
        for k in range(n):
            for l in range(k + 1, n):
                if rng.random() < 0.7:
                    edges.append((k, l, float(np.round(rng.uniform(0, 10), 3))))
        g = graph_from(n, edges)
        if len(g.components()) != 1:
            continue
        t = maximum_spanning_tree(g)
        assert total_weight(g, t) == pytest.approx(max(spanning_tree_weights(g)), abs=1e-12)


def test_mst_on_5_vertex_random_graph_against_enumeration():
    _, inst = random_instance(5, seed=99)
    g = build_graph(inst, threshold=0.0001)
    assert len(g.components()) == 1
    t = maximum_spanning_tree(g)
    assert total_weight(g, t) == pytest.approx(max(spanning_tree_weights(g)), rel=1e-12)


def test_mst_handles_disconnected_graphs():
    g = graph_from(5, [(0, 1, 1.0), (3, 4, 2.0)])
    t = maximum_spanning_tree(g)
    assert t.roots == (0, 2, 3)
    assert t.parent == (-1, 0, -1, -1, 3)
    assert len(tree_edges(g, t)) == 2


def test_mst_determinism():
    _, inst = random_instance(9, seed=5)
    g = build_graph(inst, threshold=0.01)
    t1 = maximum_spanning_tree(g)
    t2 = maximum_spanning_tree(g)
    assert t1 == t2


def test_complete_relative_spins_zero_parity():
    # all tree-edge spins 0: every link gets the root's spin, every chord 0
    g, t, dp = dp_with_tree_spins(3, {(0, 1): 0, (0, 2): 0}, chords=[(1, 2)])
    np.testing.assert_array_equal(dp.spins, [0, 0, 0])
    assert set(relative_from_spins(g, dp.spins).values()) == {0}
    assert set(relative_from_spins(g, dp.spins)) == set(edge_keys(g))


def test_complete_relative_spins_triangle_chord():
    g, t, dp = dp_with_tree_spins(3, {(0, 1): 1, (0, 2): 1}, chords=[(1, 2)])
    relative = relative_from_spins(g, dp.spins)
    assert relative[0, 1] == 1 and relative[0, 2] == 1
    assert relative[1, 2] == 0  # XOR of the two tree spins around the 3-cycle


def test_complete_relative_spins_path_chord():
    g, t, dp = dp_with_tree_spins(3, {(0, 1): 1, (1, 2): 0}, chords=[(0, 2)])
    assert t.parent == (-1, 0, 1)  # path 0-1-2
    relative = relative_from_spins(g, dp.spins)
    assert relative[0, 2] == 1


def test_spins_from_relative_propagation_and_flip():
    g, t, dp = dp_with_tree_spins(4, {(0, 1): 1, (1, 2): 0, (1, 3): 1})
    np.testing.assert_array_equal(dp.spins, [0, 1, 1, 0])  # root fixed at 0
    assert relative_from_spins(g, dp.spins) == relative_from_spins(g, 1 - dp.spins)


def test_spin_round_trip_on_tree_edges():
    rng = np.random.default_rng(77)
    for _ in range(20):
        m = int(rng.integers(2, 9))
        # random tree: vertex v > 0 hangs below a random earlier vertex
        tree_spins = {
            (int(rng.integers(0, v)), v): int(rng.integers(0, 2)) for v in range(1, m)
        }
        g, t, dp = dp_with_tree_spins(m, tree_spins)
        relative = relative_from_spins(g, dp.spins)
        for edge, bit in tree_spins.items():
            assert relative[edge] == bit


def test_relative_from_spins_basics():
    g = graph_from(4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)])
    all_equal = relative_from_spins(g, np.array([1, 1, 1, 1]))
    assert set(all_equal.values()) == {0}
    alternating = relative_from_spins(g, np.array([0, 1, 0, 1]))
    assert set(alternating.values()) == {1}
    with pytest.raises(ValueError):
        relative_from_spins(g, np.array([0, 1, 2, 0]))


def test_cycle_parity_holds_for_spin_derived_relatives():
    for seed in range(15):
        _, inst = random_instance(6, seed=seed)
        g = build_graph(inst, threshold=0.005)
        rng = np.random.default_rng(seed)
        s = rng.integers(0, 2, size=6)
        r = relative_from_spins(g, s)
        for cycle in enumerate_cycles(g):
            assert cycle_parity(r, cycle) == 0


def test_completed_spins_satisfy_cycle_parity():
    for seed in range(15):
        _, inst = random_instance(7, seed=100 + seed)
        g = build_graph(inst, threshold=0.005)
        t = maximum_spanning_tree(g)
        dp = mst_dp(inst, g, t, UtilityKind.PROPORTIONAL_FAIRNESS)
        full = relative_from_spins(g, dp.spins)
        for cycle in enumerate_cycles(g):
            assert cycle_parity(full, cycle) == 0


def test_exports():
    g = graph_from(3, [(0, 1, 1.5), (1, 2, 2.5)])
    t = maximum_spanning_tree(g)
    gj = graph_to_json(g)
    assert gj["num_vertices"] == 3 and gj["edges"] == [[0, 1, 1.5], [1, 2, 2.5]]
    tj = tree_to_json(g, t)
    assert tj["parent"] == [-1, 0, 1]
    assert tj["max_children"] == 1
    text = graph_to_edge_list(g)
    assert text.splitlines() == ["0 1 1.5", "1 2 2.5"]


def test_check_spins_accepts_exactly_zero_and_one():
    graph = graph_from(3, [])
    for good in ([0, 1, 1], [True, False, True], [0.0, 1.0, 0.0], np.array([1, 0, 1], np.int8)):
        assert np.array_equal(check_spins(graph, good), np.asarray(good))
    for bad in ([0, 2, 1], [0, -1, 1], [0.5, 0, 1], [0.0, np.nan, 1.0]):
        with pytest.raises(ValueError, match="spins must be 0/1"):
            check_spins(graph, bad)

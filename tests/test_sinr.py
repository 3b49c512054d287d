import math
import re
import tracemalloc
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from helpers import (
    approx_sinr,
    build_instance,
    exact_sinr,
    fading_frame,
    graph_from,
    on_graph,
    random_instance,
    rates_of,
    two_way_rates_loop,
    utility_of,
)
from spinopt.channel import ScenarioConfig, draw_fading, generate_instance
from spinopt.optimizer import mst_dp
from spinopt.sinr import (
    UtilityKind,
    denominators,
    link_utility,
    network_utilities,
    network_utility,
    spin_planes,
    spin_selectors,
    two_way_rates,
)
from spinopt.topology import (
    build_graph,
    maximum_spanning_tree,
    tree_edges,
)

SUM_RATE = UtilityKind.TWO_WAY_SUM_RATE
PF = UtilityKind.PROPORTIONAL_FAIRNESS


def two_link_instance():
    """Link 1 interferes link 0; the LR direction of link 0 sees 4 or 9."""
    inr = np.zeros((2, 2, 2, 2))
    inr[1, 0, 0, 1] = 4.0  # L1 -> R0, same-slot when spins agree
    inr[1, 0, 1, 1] = 9.0  # R1 -> R0, same-slot when spins differ
    inr[1, 0, 1, 0] = 2.0  # R1 -> L0
    inr[1, 0, 0, 0] = 6.0  # L1 -> L0
    inst = build_instance(inr)
    graph = graph_from(2, ((0, 1, 5.0),))
    return inst, graph


def test_isolated_link_sinr_equals_snr():
    inst = build_instance(np.zeros((2, 2, 2, 2)))
    graph = graph_from(2, ())
    s = exact_sinr(inst, graph, 0, np.array([0, 1]))
    assert s == (100.0, 100.0)


def test_exact_sinr_selects_interferer_end_by_spin():
    inst, graph = two_link_instance()
    same = exact_sinr(inst, graph, 0, np.array([1, 1]))
    assert same[0] == pytest.approx(100.0 / (1.0 + 4.0), rel=1e-15)
    assert same[1] == pytest.approx(100.0 / (1.0 + 2.0), rel=1e-15)
    opposite = exact_sinr(inst, graph, 0, np.array([0, 1]))
    assert opposite[0] == pytest.approx(100.0 / (1.0 + 9.0), rel=1e-15)
    assert opposite[1] == pytest.approx(100.0 / (1.0 + 6.0), rel=1e-15)
    assert same[0] == 20.0 and opposite[0] == 10.0
    # the dense kernel picks the same ends
    for spins, sinr in (([1, 1], same), ([0, 1], opposite)):
        rates = two_way_rates(inst, spin_selectors(np.array(spins)))
        assert rates[0] == pytest.approx(rates_of([sinr])[0], rel=1e-12)


def test_exact_sinr_requires_incident_spins():
    inst, graph = two_link_instance()
    for bad in (np.array([0]), np.array([0, 1, 0]), np.array([0, 2])):
        with pytest.raises(ValueError, match="spins"):
            network_utility(inst, graph, SUM_RATE, bad)
    # a spin vector of the wrong length never yields rates: the rate kernel
    # refuses its mask
    for bad in (np.array([0]), np.array([0, 1, 0])):
        with pytest.raises(ValueError, match=r"differ must end in shape \(2, 2\)"):
            two_way_rates(inst, spin_selectors(bad))
    with pytest.raises(ValueError, match="spins must be 0/1"):
        spin_selectors(np.array([0, 2]))


def test_spin_selectors_check_every_row_of_a_stack():
    inst, _ = two_link_instance()
    differ = spin_selectors([[0, 1], [1, 1], [0, 0]])
    assert differ.shape == (3, 2, 2)
    assert differ[:, 0, 1].tolist() == [True, False, False]
    # a (B, A, M) stack of a block's drops is one call
    assert np.array_equal(spin_selectors([[[0, 1]], [[1, 1]]]), differ[:2, None])
    with pytest.raises(ValueError, match="spins must be 0/1"):
        spin_selectors([[0, 1], [0, 2]])
    with pytest.raises(ValueError, match=r"differ must end in shape \(2, 2\)"):
        two_way_rates(inst, spin_selectors([[0, 1, 0], [1, 0, 1]]))


@pytest.mark.parametrize("spins", [0, np.int8(1), np.array(1)])
def test_spin_selectors_refuse_a_0d_input(spins):
    with pytest.raises(ValueError, match="spins"):
        spin_selectors(spins)


def test_two_way_rates_takes_a_list_mask():
    inst, _ = two_link_instance()
    differ = spin_selectors([[0, 1], [1, 1]])
    np.testing.assert_array_equal(two_way_rates(inst, differ.tolist()), two_way_rates(inst, differ))


@pytest.mark.parametrize("frames", [(), (4,)])
@pytest.mark.parametrize("shape", [(1, 1), (3,), (4, 4), (2, 4, 4)])
def test_two_way_rates_refuses_a_mask_that_does_not_end_in_m_by_m(frames, shape):
    # M comes from the values, never from the mask: a (1, 1) mask would
    # broadcast to every pair, an (M,) one mix the rows of several vectors,
    # and a chunk of F = 4 frames does not make a (4, 4) mask fit M = 3
    inst = build_instance(np.ones((3, 3, 2, 2)))
    values = SimpleNamespace(
        snr=np.broadcast_to(inst.snr, frames + (3, 2)),
        inr=np.broadcast_to(inst.inr, frames + (3, 3, 2, 2)),
    )
    message = f"differ must end in shape (3, 3), got {shape}"
    with pytest.raises(ValueError, match=re.escape(message)):
        two_way_rates(values, np.ones(shape, dtype=bool))
    assert two_way_rates(values, np.ones((3, 3), dtype=bool)).shape == frames + (3,)


def test_sinr_never_exceeds_snr():
    for seed in range(5):
        _, inst = random_instance(6, seed=seed)
        graph = build_graph(inst, threshold=0.01)
        rng = np.random.default_rng(seed)
        spins = rng.integers(0, 2, size=6)
        for l in range(6):
            s = exact_sinr(inst, graph, l, spins)
            assert 0.0 <= s[0] <= inst.snr[l, 0]
            assert 0.0 <= s[1] <= inst.snr[l, 1]


def test_sinr_monotone_in_inr_and_snr():
    inst, graph = two_link_instance()
    spins = np.array([0, 0])
    base = exact_sinr(inst, graph, 0, spins)

    worse = inst.inr.copy()
    worse[1, 0, 0, 1] *= 3.0
    bumped = build_instance(worse)
    s = exact_sinr(bumped, graph, 0, spins)
    assert s[0] < base[0] and s[1] == base[1]

    louder = build_instance(inst.inr.copy(), snr=np.full((2, 2), 200.0))
    s = exact_sinr(louder, graph, 0, spins)
    assert s[0] > base[0] and s[1] > base[1]


def triangle_instance(seed=0):
    """Connected 3-link instance whose graph is the full triangle."""
    rng = np.random.default_rng(seed)
    inr = rng.uniform(0.5, 4.0, size=(3, 3, 2, 2))
    for l in range(3):
        inr[l, l] = 0.0
    inst = build_instance(inr)
    graph = build_graph(inst, threshold=0.01)
    assert len(graph.edges) == 3
    return inst, graph


def test_approx_sinr_uses_exact_terms_for_tree_neighbors():
    inr = np.zeros((3, 3, 2, 2))
    inr[1, 0, 0, 1] = 4.0
    inr[1, 0, 1, 1] = 9.0
    inr[2, 0, 0, 1] = 1.0
    inst = build_instance(inr)
    graph = graph_from(3, ((0, 1, 5.0), (0, 2, 1.0), (1, 2, 0.5)))
    tree = maximum_spanning_tree(graph)
    assert [(k, l) for k, l, _ in tree_edges(graph, tree)] == [(0, 1), (0, 2)]
    # vertex 1: edge to 0 is tree, edge to 2 is the pruned chord
    s = approx_sinr(inst, graph, tree, 0, np.array([0, 0, 0]))
    expected_lr = 100.0 / (1.0 + 4.0 + 1.0)
    assert s[0] == pytest.approx(expected_lr, rel=1e-15)


def test_approx_contribution_is_average_of_both_ends():
    inr = np.zeros((3, 3, 2, 2))
    inr[2, 1, 0, 1] = 4.0  # L2 -> R1
    inr[2, 1, 1, 1] = 9.0  # R2 -> R1
    inst = build_instance(inr)
    graph = graph_from(3, ((0, 1, 5.0), (0, 2, 4.0), (1, 2, 0.5)))
    tree = maximum_spanning_tree(graph)
    assert tree.parent == (-1, 0, 0)  # (1, 2) is the chord
    s = approx_sinr(inst, graph, tree, 1, np.array([0, 1, 0]))
    # non-tree neighbor 2 contributes (4 + 9) / 2 = 6.5 to the LR denominator
    assert s[0] == pytest.approx(100.0 / (1.0 + 6.5), rel=1e-15)


def test_approx_equals_exact_when_graph_is_tree():
    rng = np.random.default_rng(3)
    inr = np.zeros((4, 4, 2, 2))
    for k, l in [(0, 1), (1, 2), (1, 3)]:
        inr[k, l] = rng.uniform(0.5, 3.0, size=(2, 2))
        inr[l, k] = rng.uniform(0.5, 3.0, size=(2, 2))
    inst = build_instance(inr)
    graph = build_graph(inst, threshold=0.01)
    tree = maximum_spanning_tree(graph)
    assert tree_edges(graph, tree) == graph.edges
    for trial in range(8):
        spins = np.random.default_rng(trial).integers(0, 2, 4)
        for l in range(4):
            assert approx_sinr(inst, graph, tree, l, spins) == exact_sinr(inst, graph, l, spins)


def test_approx_equals_exact_for_spin_indifferent_chord():
    inr = np.zeros((3, 3, 2, 2))
    inr[2, 1, 0, 1] = 7.0
    inr[2, 1, 1, 1] = 7.0  # both ends of link 2 interfere R1 equally
    inr[2, 1, 1, 0] = 3.0
    inr[2, 1, 0, 0] = 3.0
    inst = build_instance(inr)
    graph = graph_from(3, ((0, 1, 5.0), (0, 2, 4.0), (1, 2, 0.0)))
    tree = maximum_spanning_tree(graph)
    assert tree.parent == (-1, 0, 0)  # (1, 2) is the chord
    for code in range(4):  # both values of the chord's relative spin
        spins = np.array([0, code >> 1, code & 1])
        assert approx_sinr(inst, graph, tree, 1, spins) == exact_sinr(inst, graph, 1, spins)


def test_link_utility_values():
    assert link_utility(SUM_RATE, 0.0) == 0.0
    assert link_utility(SUM_RATE, 3.0) == 3.0
    assert link_utility(PF, 3.0) == pytest.approx(math.log(3.0), rel=1e-15)
    assert link_utility(PF, 0.0) == -math.inf
    with pytest.raises(ValueError):
        link_utility("sum", 1.0)


def test_network_utility_two_links_by_hand():
    inst, graph = two_link_instance()
    spins = np.array([1, 1])
    # link 0 sees (4, 2); link 1 sees nothing (its row toward link 0 is zero)
    expected = (
        math.log2(1 + 100 / 5) + math.log2(1 + 100 / 3) + 2 * math.log2(1 + 100)
    )
    assert network_utility(inst, graph, SUM_RATE, spins) == pytest.approx(expected, rel=1e-15)


def test_network_utility_zero_interference_is_sum_of_isolated():
    inst = build_instance(np.zeros((3, 3, 2, 2)))
    graph = graph_from(3, ())
    value = network_utility(inst, graph, SUM_RATE, np.zeros(3, dtype=np.int8))
    assert value == pytest.approx(6 * math.log2(101), rel=1e-15)


def test_network_utility_invariant_under_global_flip():
    for seed in range(5):
        _, inst = random_instance(6, seed=seed)
        graph = build_graph(inst, threshold=0.01)
        s = np.random.default_rng(seed).integers(0, 2, size=6)
        u = network_utility(inst, graph, PF, s)
        u_flip = network_utility(inst, graph, PF, 1 - s)
        assert u == u_flip


def test_spin_indifferent_instances_have_constant_utility():
    _, inst = random_instance(4, seed=8)
    edited = inst.inr.copy()
    edited[:, :, 1, 1] = edited[:, :, 0, 1]  # same-slot equals opposite-slot at R
    edited[:, :, 0, 0] = edited[:, :, 1, 0]  # and at L
    flat = build_instance(edited, snr=inst.snr.copy())
    graph = build_graph(flat, threshold=0.01)
    values = set()
    for code in range(2 ** 4):
        s = [(code >> j) & 1 for j in range(4)]
        values.add(network_utility(flat, graph, SUM_RATE, np.array(s)))
    assert len(values) == 1


def test_vectorized_rates_match_per_link_path():
    for seed in range(5):
        _, inst = random_instance(7, seed=seed)
        graph = build_graph(inst, threshold=0.01)
        s = np.random.default_rng(seed).integers(0, 2, size=7)
        selectors = spin_selectors(s)
        draw = on_graph(draw_fading(inst, range(seed, seed + 1)), graph)
        fast = two_way_rates(draw, selectors)[0]
        frame = fading_frame(inst, seed)
        slow = rates_of([exact_sinr(frame, graph, l, s) for l in range(7)])
        np.testing.assert_allclose(fast, slow, rtol=1e-12)


def test_approx_network_utility_sums_links():
    # the DP's tree-restricted objective is the per-link sum at its own spins
    for seed in range(4):
        inst, graph = triangle_instance(seed)
        tree = maximum_spanning_tree(graph)
        for kind in (SUM_RATE, PF):
            dp = mst_dp(inst, graph, tree, kind)
            manual = utility_of(
                kind, [approx_sinr(inst, graph, tree, l, dp.spins) for l in range(3)]
            )
            assert dp.objective_approx == pytest.approx(manual, rel=1e-15)


def test_unselected_interferer_end_that_overflows_leaves_rates_finite():
    # a finite long-term INR that fading lifts past the float range: with
    # spins (0, 0) the R end of link 0 never interferes at link 1's R end
    inst = generate_instance(ScenarioConfig(num_links=2, seed=1), drop_seed=0)
    inr = inst.inr.copy()
    inr[0, 1, 1, 1] = 1e308
    inst = replace(inst, inr=inr)
    graph = build_graph(inst)
    spins = np.array([0, 0])
    with np.errstate(over="ignore"):
        draw = draw_fading(inst, range(20))
    overflowed = np.flatnonzero(np.isinf(draw.inr).any(axis=(1, 2, 3, 4)))
    assert len(overflowed) == 2
    rates = two_way_rates(draw, spin_selectors(spins))
    assert np.isfinite(rates).all()
    for f in overflowed:
        frame = SimpleNamespace(snr=draw.snr[f], inr=draw.inr[f])
        slow = rates_of([exact_sinr(frame, graph, l, spins) for l in range(2)])
        np.testing.assert_allclose(rates[f], slow, rtol=1e-12, atol=0.0)


def test_an_infinite_inr_off_the_graph_never_enters_a_sum():
    # links 0 and 1 share no edge, and fading has lifted INRs between them
    # to inf: under every spin assignment the utility and the rates stay
    # finite and equal the per-link loops, which never read a non-edge
    rng = np.random.default_rng(4)
    inr = rng.uniform(0.1, 10.0, size=(3, 3, 2, 2))
    inr[np.arange(3), np.arange(3)] = 0.0
    inr[0, 1, 1, 1] = inr[1, 0, 0, 1] = inr[1, 0, 0, 0] = np.inf
    values = SimpleNamespace(snr=rng.uniform(10.0, 100.0, size=(3, 2)), inr=inr)
    graph = graph_from(3, ((0, 2, 1.0), (1, 2, 1.0)))
    stack = np.array([[(code >> j) & 1 for j in range(3)] for code in range(8)], dtype=np.int8)
    rates = two_way_rates(on_graph(values, graph), spin_selectors(stack))
    assert np.isfinite(rates).all()
    for spins, row in zip(stack, rates):
        assert row.tobytes() == two_way_rates_loop(values, graph, spins).tobytes()
        for kind in (SUM_RATE, PF):
            utility = network_utility(values, graph, kind, spins)
            sinrs = [exact_sinr(values, graph, l, spins) for l in range(3)]
            assert math.isfinite(utility) and utility == utility_of(kind, sinrs)


@pytest.mark.parametrize("shape", [(4, 2, 20, 20), (20, 20), (3, 9, 9), (1, 1)])
def test_denominators_add_noise_then_each_interferer_in_order(shape):
    # bit for bit a per-link loop that starts at the noise and adds k = 0, 1, ...;
    # zeros stand for non-edges, and an infinite term makes an infinite sum
    rng = np.random.default_rng(len(shape) * shape[-1])
    for _ in range(20):
        terms = np.where(rng.random(shape) < 0.3, 0.0, rng.lognormal(0.0, 6.0, size=shape))
        terms[rng.random(shape) < 0.02] = np.inf
        expected = np.empty(shape[:-2] + shape[-1:])
        for index in np.ndindex(expected.shape):
            *lead, l = index
            total = 1.0
            for k in range(shape[-2]):
                total += float(terms[(*lead, k, l)])
            expected[index] = total
        assert denominators(terms).tobytes() == expected.tobytes()


def test_batched_utilities_hold_one_terms_array():
    # a 512-candidate re-rank at M = 20 holds one direction's (N, M, M)
    # interference terms (1.6 MB) at a time, and no copy of them for the
    # denominators: 2.3 MB measured
    _, inst = random_instance(20, 3)
    graph = build_graph(inst, 0.0)
    spins = np.random.default_rng(1).integers(0, 2, size=(512, 20)).astype(np.int8)
    planes = spin_planes(inst.inr, graph.adjacency)
    network_utilities(inst.snr, planes, PF, spins)
    tracemalloc.start()
    try:
        network_utilities(inst.snr, planes, PF, spins)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * spins.size * 20 * 8

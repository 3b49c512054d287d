"""Property tests: the dense kernels and optimizers against the loop oracles.

Example counts are bounded and generation is derandomized, so the suite
stays fast and every run checks the same examples.
"""

import contextlib
import io
import json
import math
import subprocess
import sys
import tempfile
import textwrap
from dataclasses import fields, replace
from unittest import mock
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (
    approx_sinr,
    build_instance,
    cyclic_instance,
    exact_sinr,
    exhaustive_rerank,
    fading_frame,
    generate_instances_out_of_place,
    graph_from,
    graph_weight_reduce,
    interference_tensor,
    interference_tensor_norm,
    kruskal_forest,
    mst_dp_per_vertex,
    on_graph,
    per_drop_report,
    per_frame_rates,
    random_instance,
    sweep_with_rates,
    tree_brute_force,
    two_way_rates_loop,
    utility_of,
)
from spinopt.channel import (
    _FADING_TAG,
    LinkInstance,
    ScenarioConfig,
    _fading_states,
    draw_fading,
    end_planes,
    generate_instance,
    generate_instances,
    instance_from_json,
    instance_to_json,
)
from spinopt import evaluation, optimizer
from spinopt.cli import CONFIG_SCHEMA, load_config, main
from spinopt.evaluation import (
    ALGORITHMS,
    FADING_MODES,
    ExperimentConfig,
    _csv_cells,
    run_experiment,
)
from spinopt.optimizer import (
    exhaustive_search,
    exhaustive_search_block,
    mst_dp,
    mst_dp_block,
    random_spins,
    random_spins_block,
)
from spinopt.sinr import (
    UtilityKind,
    network_utilities,
    network_utility,
    spin_planes,
    spin_selectors,
    two_way_rates,
)
from spinopt.topology import (
    build_graph,
    build_graphs,
    maximum_spanning_forests,
    maximum_spanning_tree,
    tree_edges,
)

PROPERTY = settings(max_examples=40, deadline=None, derandomize=True, database=None)
# each example starts a process pool, so this property gets few of them
POOLED = settings(max_examples=10, deadline=None, derandomize=True, database=None)
KINDS = st.sampled_from(list(UtilityKind))
SEEDS = st.integers(0, 2**64 - 1)
# a SeedSequence entropy word is a uint32: these values sit at its edges
EDGE_SEEDS = st.one_of(st.sampled_from([0, 2**32 - 1, 2**32, 2**64 - 1]), SEEDS)


def ulps_from(x: float, steps: int) -> float:
    """The float ``steps`` representable values above ``x`` (below if negative)."""
    for _ in range(abs(steps)):
        x = math.nextafter(x, math.copysign(math.inf, steps))
    return x


# repr writes a float in exponent form below 1e-4 and from 1e16 on
NEAR_REPR_EDGES = st.builds(
    lambda edge, steps, sign: sign * ulps_from(edge, steps),
    st.sampled_from([1e-4, 1e16]),
    st.integers(-4, 4),
    st.sampled_from([1.0, -1.0]),
)


@st.composite
def networks(draw, max_links=7, min_links=2):
    """(instance, graph, tree, spins): a random drop, a hand-made instance
    whose INRs span twelve orders of magnitude, or a cyclically symmetric one
    whose assignments tie up to rounding, with random absolute spins."""
    m = draw(st.integers(min_links, max_links))
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
# isolated vertices beside an edge; two trees of more than one vertex each
@example((5, [(1, 3, 0.5)]))
@example((6, [(0, 4, 1.0), (4, 5, 0.5), (1, 2, 2.5), (2, 3, 0.0), (1, 3, 2.5)]))
def test_spanning_forest_equals_kruskal_oracle(graph_edges):
    m, edges = graph_edges
    graph = graph_from(m, edges)
    tree = maximum_spanning_tree(graph)
    oracle = kruskal_forest(m, edges)
    assert graph.edges == tuple(sorted(edges))
    assert graph.components() == oracle.components
    # the block optimizers read a forest's roots as the components' lowest vertices
    assert tree.roots == tuple(component[0] for component in graph.components())
    assert tree.parent == oracle.parent
    assert tree.roots == oracle.roots
    assert tree.children == oracle.children
    assert tree.order == oracle.order
    assert tree_edges(graph, tree) == oracle.tree_edges


@st.composite
def weighted_graph_blocks(draw, max_vertices=10, max_block=6):
    """(num_vertices, edge lists): a block of graphs on one vertex count, each
    drawn as ``weighted_graphs`` draws one, so ties and disconnected graphs
    are common."""
    m = draw(st.integers(1, max_vertices))
    block = []
    for _ in range(draw(st.integers(1, max_block))):
        levels = draw(st.lists(st.sampled_from([0.0, 0.5, 1.0, 2.5]), min_size=1, max_size=3))
        density = draw(st.sampled_from([0.0, 0.1, 0.3, 0.6, 1.0]))
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        block.append(
            [
                (k, l, float(rng.choice(levels)))
                for k in range(m)
                for l in range(k + 1, m)
                if rng.random() < density
            ]
        )
    return m, block


@PROPERTY
@given(weighted_graph_blocks())
# one vertex; equal weights everywhere beside a disconnected graph; a
# weighted triangle whose ties break on (k, l); a block of one graph of one
# vertex; an isolated vertex between two trees
@example((1, [[], []]))
@example((4, [[(0, 1, 1.0), (0, 2, 1.0), (1, 2, 1.0), (2, 3, 1.0)], []]))
@example((3, [[(0, 1, 0.5), (1, 2, 0.5), (0, 2, 0.5)], [(0, 2, 2.5), (1, 2, 0.0)]]))
@example((1, [[]]))
@example((5, [[(0, 3, 1.0), (1, 4, 0.5)], [(0, 1, 2.5), (3, 4, 0.0), (1, 3, 2.5)]]))
def test_forest_blocks_equal_kruskal_oracle(graph_block):
    # the block Borůvka equals the per-edge Kruskal oracle graph by graph
    m, block = graph_block
    graphs = [graph_from(m, edges) for edges in block]
    forests = maximum_spanning_forests(np.stack([graph.weight for graph in graphs]))
    assert len(forests) == len(graphs)
    for graph, forest, edges in zip(graphs, forests, block):
        oracle = kruskal_forest(m, edges)
        assert forest.parent == oracle.parent
        assert forest.roots == oracle.roots
        assert forest.children == oracle.children
        assert forest.order == oracle.order
        assert tree_edges(graph, forest) == oracle.tree_edges


@PROPERTY
@given(
    st.integers(1, 40),
    st.sampled_from([0.0, 0.5, 1.0]),
    st.sampled_from([0.0, -0.0, 8.0, 30.0]),
    EDGE_SEEDS,
    st.lists(EDGE_SEEDS, min_size=1, max_size=8),
)
@example(1, 0.5, -0.0, 0, [2**64 - 1, 0])
@example(40, 0.5, 8.0, 2**32, [2**32 - 1] * 8)
def test_instance_blocks_equal_one_drop_at_a_time(m, link_mix, sigma, seed, drop_seeds):
    config = ScenarioConfig(num_links=m, link_mix=link_mix, shadow_sigma_db=sigma, seed=seed)
    block = generate_instances(config, drop_seeds)
    assert len(block) == len(drop_seeds)
    for inst, drop_seed in zip(block, drop_seeds):
        alone = generate_instance(config, drop_seed)
        for name in ("positions", "kinds", "snr", "inr", "shadowing"):
            assert same_bytes(getattr(inst, name), getattr(alone, name))
            assert not getattr(inst, name).flags.writeable
        assert inst.seed_key == alone.seed_key == (seed, drop_seed)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(
    st.integers(1, 30),
    st.sampled_from([0.0, 0.3, 0.5, 1.0]),
    # 1000 dB and more give shadow factors beyond the float range
    st.sampled_from([0.0, 8.0, 300.0, 1000.0, 5000.0]),
    st.sampled_from([1.5, 4.0, 7.25]),
    # nodes 1e-300 m apart are at distance 0: their squares underflow
    st.sampled_from([100.0, 1e-300]),
    EDGE_SEEDS,
    st.lists(EDGE_SEEDS, min_size=1, max_size=4),
)
@example(3, 0.5, 5000.0, 4.0, 100.0, 0, [1, 2])
@example(3, 0.5, 8.0, 4.0, 1e-300, 0, [1, 2])
def test_instance_blocks_equal_the_out_of_place_reference(
    m, link_mix, sigma, pathloss_exp, area_side, seed, drop_seeds
):
    # the in-place arithmetic of generate_instances against the out-of-place
    # formula: the same bytes, or the same refusal naming the same drop seed
    config = ScenarioConfig(
        num_links=m,
        link_mix=link_mix,
        shadow_sigma_db=sigma,
        pathloss_exp=pathloss_exp,
        area_side=area_side,
        seed=seed,
    )
    try:
        reference = generate_instances_out_of_place(config, drop_seeds)
    except ValueError as exc:
        with pytest.raises(ValueError) as refused:
            generate_instances(config, drop_seeds)
        assert str(refused.value).startswith(str(exc)), (str(refused.value), str(exc))
        return
    block = generate_instances(config, drop_seeds)
    assert len(block) == len(reference)
    for inst, ref in zip(block, reference):
        for name in ("positions", "kinds", "snr", "inr", "shadowing"):
            assert same_bytes(getattr(inst, name), getattr(ref, name)), name
        assert inst.seed_key == ref.seed_key


@PROPERTY
@given(
    st.integers(1, 12),
    st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=6),
    st.sampled_from([0.0, 1e-2, 1.0, 1e4, 1e300]),
    st.booleans(),
)
def test_graph_blocks_equal_one_graph_at_a_time(m, seeds, threshold, extreme):
    # random drops, or INRs over twelve orders of magnitude with zeros
    if extreme:
        instances = []
        for seed in seeds:
            rng = np.random.default_rng(seed)
            inr = 10.0 ** rng.uniform(-4.0, 8.0, size=(m, m, 2, 2))
            inr[rng.random((m, m, 2, 2)) < 0.2] = 0.0
            inr[np.arange(m), np.arange(m)] = 0.0
            instances.append(build_instance(inr))
    else:
        instances = [random_instance(m, seed)[1] for seed in seeds]
    graphs = build_graphs(np.stack([inst.inr for inst in instances]), threshold)
    assert len(graphs) == len(instances)
    for graph, inst in zip(graphs, instances):
        alone = build_graph(inst, threshold)
        assert same_bytes(graph.weight, alone.weight)
        assert same_bytes(graph.adjacency, alone.adjacency)
        assert not graph.weight.flags.writeable and not graph.adjacency.flags.writeable


@PROPERTY
@given(networks(), KINDS, st.booleans())
def test_network_utility_equals_loop_oracle(net, kind, faded):
    inst, graph, _, spins = net
    values = fading_frame(inst, 1) if faded else inst
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
    planes = spin_planes(inst.inr, graph.adjacency)
    assert network_utilities(inst.snr, planes, kind, batch) == oracle


@PROPERTY
@given(networks(), st.integers(0, 2**16))
def test_two_way_rates_equal_loop_oracle(net, start):
    inst, graph, _, spins = net
    frames = range(start, start + 3)
    fast = two_way_rates(on_graph(draw_fading(inst, frames), graph), spin_selectors(spins))
    for rates, f in zip(fast, frames):
        assert same_bytes(rates, two_way_rates_loop(fading_frame(inst, f), graph, spins))


def same_bytes(fast: np.ndarray, oracle: np.ndarray) -> bool:
    return fast.shape == oracle.shape and fast.tobytes() == oracle.tobytes()


@st.composite
def dominant_columns(draw):
    """(values, graph, spins): F frames of a complete graph on M links whose
    every INR column l is one dominant INR D, from the first link k != l,
    followed by INRs of 0.3e-16 to 0.7e-16 of D, each below half an ulp of
    it. Added left to right, D absorbs each small one; summed apart from D,
    as numpy's pairwise sum does, enough of them (M >= 16) add up to at
    least an ulp of D."""
    m = draw(st.one_of(st.sampled_from([1, 16, 64, 80]), st.integers(2, 80)))
    frames, rows = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # D in [1, 1.5) * 2**e, so an ulp of it is at least 1.48e-16 * D
    dominant = rng.uniform(1.0, 1.5, size=(frames, 1, m, 1, 1)) * 2.0 ** rng.integers(
        0, 40, size=(frames, 1, m, 1, 1)
    )
    inr = dominant * rng.uniform(0.3e-16, 0.7e-16, size=(frames, m, m, 2, 2))
    cols = np.arange(m)
    if m > 1:
        inr[:, np.where(cols == 0, 1, 0), cols] = dominant[:, 0]
    inr[:, cols, cols] = 0.0
    snr = 10.0 ** rng.uniform(0.0, 3.0, size=(frames, m, 2))
    graph = graph_from(m, [(k, l, 1.0) for k in range(m) for l in range(k + 1, m)])
    spins = rng.integers(0, 2, size=(rows, m), dtype=np.int8)
    return SimpleNamespace(snr=snr, inr=inr), graph, spins


@PROPERTY
@given(dominant_columns(), KINDS)
def test_interferer_sums_add_in_ascending_order_at_large_m(case, kind):
    # both kernels must add the interferers k = 0, 1, ..., M - 1 left to
    # right: two_way_rates (noise last) against its per-link loop, and
    # network_utilities (noise first) against the per-link exact SINRs
    values, graph, spins = case
    m = graph.num_vertices
    fast = two_way_rates(values, spin_selectors(spins))
    frames = [SimpleNamespace(snr=s, inr=i) for s, i in zip(values.snr, values.inr)]
    for row, rates in zip(spins, fast, strict=True):
        for frame, frame_rates in zip(frames, rates, strict=True):
            assert same_bytes(frame_rates, two_way_rates_loop(frame, graph, row))
    for frame in frames:
        sinrs = [[exact_sinr(frame, graph, l, s) for l in range(m)] for s in spins]
        assert network_utilities(frame.snr, frame.inr, kind, spins) == [
            utility_of(kind, row) for row in sinrs
        ]
    if m >= 16:
        # negative control: the same terms with k innermost in memory are
        # summed in another order, and the data show it
        (same, _), (opposite, _) = end_planes(values.inr)
        terms = np.where(spin_selectors(spins[0]), opposite, same)
        k_innermost = np.swapaxes(np.swapaxes(terms, -1, -2).copy(), -1, -2)
        assert np.array_equal(k_innermost, terms)
        in_order = np.einsum("...kl->...l", terms)
        assert not np.array_equal(k_innermost.sum(axis=-2), in_order)
        assert not np.array_equal(np.einsum("...kl->...l", k_innermost), in_order)


@st.composite
def node_layouts(draw, min_links=1, max_links=7):
    """``interference_tensor``'s arguments for a random drop: M = 1 included,
    across areas, spans, path-loss exponents and shadowing."""
    config = ScenarioConfig(
        num_links=draw(st.integers(min_links, max_links)),
        area_side=draw(st.sampled_from([1.0, 100.0, 1e4])),
        link_mix=draw(st.sampled_from([0.0, 0.5, 1.0])),
        d_asym=draw(st.sampled_from([0.3, 50.0])),
        pathloss_exp=draw(st.sampled_from([2.0, 3.7, 4.0])),
        shadow_sigma_db=draw(st.sampled_from([0.0, 8.0, 20.0])),
        seed=draw(st.integers(0, 2**32 - 1)),
    )
    inst = generate_instance(config, drop_seed=draw(st.integers(0, 2**32 - 1)))
    return inst.positions.copy(), inst.kinds, inst.shadowing, config


@st.composite
def wide_instances(draw, max_links=6):
    """(instance, threshold): a random drop, or INRs whose opposite end is
    the same end's value times up to 1e+-300, with some entries zero and
    some up to 1e308, which fading may lift to inf; the thresholds range
    from every pair an edge to no edge at all."""
    m = draw(st.integers(1, max_links))
    seed = draw(st.integers(0, 2**32 - 1))
    if draw(st.booleans()):
        _, inst = random_instance(m, seed, link_mix=draw(st.sampled_from([0.0, 0.5, 1.0])))
    else:
        rng = np.random.default_rng(seed)
        same = 10.0 ** rng.uniform(-4.0, 4.0, size=(m, m, 2))
        scale = 10.0 ** np.array(draw(st.lists(st.integers(-300, 300), min_size=2, max_size=2)))
        inr = np.empty((m, m, 2, 2))
        inr[..., 0, 1], inr[..., 1, 0] = same[..., 0], same[..., 1]
        inr[..., 1, 1], inr[..., 0, 0] = same[..., 0] * scale[0], same[..., 1] * scale[1]
        inr[rng.random((m, m, 2, 2)) < 0.2] = 0.0
        huge = rng.random((m, m, 2, 2)) < 0.1
        inr[huge] = 10.0 ** rng.uniform(300.0, 308.0, size=np.count_nonzero(huge))
        inr[np.arange(m), np.arange(m)] = 0.0
        inst = build_instance(inr, snr=10.0 ** rng.uniform(0.0, 3.0, size=(m, 2)))
    return inst, draw(st.sampled_from([0.0, 1e-2, 1.0, 1e4, 1e300, 1e308]))


@PROPERTY
@given(node_layouts())
def test_interference_tensor_equals_norm_oracle(layout):
    assert same_bytes(interference_tensor(*layout), interference_tensor_norm(*layout))


@PROPERTY
@given(node_layouts(min_links=2), st.data())
def test_coincident_nodes_fail_as_the_norm_oracle_does(layout, data):
    positions, kinds = layout[:2]
    nodes = positions.reshape(-1, 2)
    other_links = st.tuples(st.integers(0, len(nodes) - 1), st.integers(0, len(nodes) - 1))
    moves = data.draw(
        st.lists(other_links.filter(lambda p: p[0] // 2 != p[1] // 2), min_size=1, max_size=3)
    )
    for a, b in moves:
        nodes[b] = nodes[a]

    def outcome(kernel):
        try:
            return kernel(*layout).tobytes()
        except ValueError as exc:
            return str(exc)

    assert outcome(interference_tensor) == outcome(interference_tensor_norm)


@PROPERTY
@given(wide_instances())
def test_build_graph_equals_reduce_oracle(case):
    inst, threshold = case
    assert same_bytes(build_graph(inst, threshold).weight, graph_weight_reduce(inst, threshold))


@PROPERTY
@given(wide_instances(), st.integers(0, 2**16), st.integers(1, 3), KINDS, st.data())
def test_spin_planes_and_their_kernels_equal_loop_oracles(case, start, rows, kind, data):
    # the planes are end_planes' selection times the adjacency; for an (A, M)
    # spin stack, the network utilities and the rates of the long-term gains
    # and of fading draws that scale the planes equal the per-link loops,
    # which never read a non-edge's INR, not even one that fading lifts to inf
    inst, threshold = case
    m = inst.num_links
    graph = build_graph(inst, threshold)
    planes = spin_planes(inst.inr, graph.adjacency)
    for kept, given in zip(sum(end_planes(planes), ()), sum(end_planes(inst.inr), ())):
        assert same_bytes(kept, given * graph.adjacency)
    spin_rows = st.lists(st.integers(0, 1), min_size=m, max_size=m)
    stack = np.array(data.draw(st.lists(spin_rows, min_size=rows, max_size=rows)), dtype=np.int8)
    oracle = [utility_of(kind, [exact_sinr(inst, graph, l, s) for l in range(m)]) for s in stack]
    assert network_utilities(inst.snr, planes, kind, stack) == oracle
    frames = range(start, start + 3)
    on_graph_inst = replace(inst, inr=planes)
    differ = spin_selectors(stack)
    long_term = two_way_rates(on_graph_inst, differ)
    faded = two_way_rates(draw_fading(on_graph_inst, frames), differ)
    assert np.isfinite(faded).all()
    for spins, rates, frame_rates in zip(stack, long_term, faded, strict=True):
        assert same_bytes(rates, two_way_rates_loop(inst, graph, spins))
        for f, fast in zip(frames, frame_rates, strict=True):
            assert same_bytes(fast, two_way_rates_loop(fading_frame(inst, f), graph, spins))


@PROPERTY
@given(
    networks(max_links=10, min_links=1), st.integers(1, 3), st.integers(1, 3),
    st.integers(0, 2**16), st.booleans(), st.data(),
)
def test_stacked_spins_give_each_rows_rates(net, drops, rows, start, faded, data):
    # one selector call for a block's (B, A, M) spins equals one per drop's
    # (A, M) stack, and one rate call for every algorithm of a drop equals
    # one call per algorithm
    inst, graph, _, _ = net
    m = graph.num_vertices
    spin_rows = st.lists(st.integers(0, 1), min_size=m, max_size=m)
    stacks = st.lists(spin_rows, min_size=rows, max_size=rows)
    block = np.array(data.draw(st.lists(stacks, min_size=drops, max_size=drops)), dtype=np.int8)
    values = on_graph(draw_fading(inst, range(start, start + 3)) if faded else inst, graph)
    differ = spin_selectors(block)
    assert differ.shape == (drops, rows, m, m)
    for stack, stack_differ in zip(block, differ, strict=True):
        assert same_bytes(stack_differ, spin_selectors(stack))
        batched = two_way_rates(values, stack_differ)
        assert batched.shape == (rows, *values.snr.shape[:-1])
        for rates, spins in zip(batched, stack, strict=True):
            assert same_bytes(rates, two_way_rates(values, spin_selectors(spins)))


# a frame index is one entropy word: these starts sit at its edges
FRAME_STARTS = st.one_of(st.sampled_from([0, 2**32 - 3, 2**32 - 1]), st.integers(0, 2**32 - 1))
LANES = st.lists(st.tuples(EDGE_SEEDS, EDGE_SEEDS, FRAME_STARTS, st.integers(1, 6)), max_size=3)


@PROPERTY
@given(EDGE_SEEDS, EDGE_SEEDS, FRAME_STARTS, st.integers(1, 6), LANES)
# the last valid frames, then lanes of other drops whose seeds take one or
# two words each
@example(0, 2**64 - 1, 2**32 - 3, 6, [])
@example(
    0,
    2**64 - 1,
    2**32 - 3,
    6,
    [(2**32 - 1, 2**32, 2**32 - 2, 4), (2**32, 0, 0, 2), (2**64 - 1, 2**64 - 1, 2**32 - 1, 6)],
)
def test_batched_fading_equals_numpy_per_frame_streams(seed, drop_seed, start, length, lanes):
    _, inst = random_instance(3, 0)
    inst = replace(inst, seed_key=(seed, drop_seed))
    frames = range(start, min(start + length, 2**32))
    draw = draw_fading(inst, frames)
    assert draw.snr.shape == (len(frames), 3, 2)
    assert draw.inr.shape == (len(frames), 3, 3, 2, 2)
    for j, f in enumerate(frames):
        oracle = fading_frame(inst, f)
        assert draw.snr[j].tobytes() == oracle.snr.tobytes()
        assert draw.inr[j].tobytes() == oracle.inr.tobytes()
    # one call hashes the lanes of several drops, each frame as numpy would
    lanes = [(inst.seed_key, frames)] + [
        ((s, d), range(f, min(f + n, 2**32))) for s, d, f, n in lanes
    ]
    for states, (key, lane) in zip(_fading_states(lanes), lanes, strict=True):
        words = [
            np.random.SeedSequence((*key, _FADING_TAG, f)).generate_state(4, np.uint64)
            for f in lane
        ]
        oracle = np.array(words, dtype=np.uint64).reshape(-1, 4)
        assert states.dtype == np.uint64 and states.flags.c_contiguous
        assert states.shape == oracle.shape
        assert states.tobytes() == oracle.tobytes()


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


BLOCK_VARIANTS = ("drawn", "forest", "no edge", "dead link")


@st.composite
def network_blocks(draw, max_links=7):
    """A block of (instance, graph, tree) drops of one size M, one link
    included, in random order: one of each ``BLOCK_VARIANTS`` and up to two
    more. Each is drawn by ``networks``, then kept, thinned to a forest of at
    most M edges by a threshold among its largest INRs, stripped of every
    edge (every vertex a root), or given a link of zero SNR, whose rate 0
    makes every assignment -inf under proportional fairness."""
    m = draw(st.integers(1, max_links))
    extra = draw(st.lists(st.sampled_from(BLOCK_VARIANTS), max_size=2))
    block = []
    for variant in draw(st.permutations(BLOCK_VARIANTS + tuple(extra))):
        inst, graph, _, _ = draw(networks(min_links=m, max_links=m))
        if variant == "forest":
            # at most `kept` INRs exceed the threshold, so at most `kept` edges remain
            kept = draw(st.integers(1, m))
            threshold = np.sort(inst.inr, axis=None)[-1 - kept]
            graph = build_graph(inst, threshold=float(threshold))
        elif variant == "no edge":
            graph = build_graph(inst, threshold=1e300)
        elif variant == "dead link":
            snr = inst.snr.copy()
            snr[draw(st.integers(0, m - 1))] = 0.0
            inst = replace(inst, snr=snr)
        block.append((inst, graph, maximum_spanning_tree(graph)))
    return block


def stacked(block):
    """The (B, M, 2) snr and (B, M, M, 2, 2) spin planes of a block's drops,
    and their trees, as ``solve_drop`` hands them to the block optimizers."""
    instances, graphs, trees = zip(*block)
    adjacency = np.stack([graph.adjacency for graph in graphs])
    planes = spin_planes([instance.inr for instance in instances], adjacency)
    return np.stack([instance.snr for instance in instances]), planes, list(trees)


def same_result(result, oracle) -> bool:
    """Equal spins, objectives and warning, the floats byte for byte."""
    return (
        same_bytes(result.spins, oracle.spins)
        and same_bytes(np.float64(result.objective_exact), np.float64(oracle.objective_exact))
        and repr(result.objective_approx) == repr(oracle.objective_approx)
        and result.warning == oracle.warning
    )


@PROPERTY
@given(network_blocks(max_links=12))
def test_dp_equals_per_vertex_reference(block):
    # one DP over a block's forests, stepping vertices of equal height and
    # child count together, leaves every drop's spins and objectives under
    # either utility bit-identical to the reference that steps one vertex at a time
    snr, planes, trees = stacked(block)
    for kind in UtilityKind:
        for (inst, graph, tree), dp in zip(block, mst_dp_block(snr, planes, trees, kind)):
            reference = mst_dp_per_vertex(inst, graph, tree, kind)
            assert same_result(dp, mst_dp(inst, graph, tree, kind))
            assert same_bytes(dp.spins, reference.spins)
            for objective in ("objective_approx", "objective_exact"):
                values = (np.float64(getattr(result, objective)) for result in (dp, reference))
                assert same_bytes(*values)


@PROPERTY
@given(network_blocks(), st.lists(SEEDS, min_size=6, max_size=6))
def test_block_searches_equal_one_drop_at_a_time(block, seeds):
    # drops with equal roots share the enumeration; under either utility every
    # drop's exhaustive and random results equal its own calls, and with
    # batches of 8 assignments, re-ranked one batch at a time, the exhaustive
    # results still equal the per-candidate oracle's first maximum
    snr, planes, trees = stacked(block)
    roots = [tree.roots for tree in trees]
    for kind in UtilityKind:
        searched = exhaustive_search_block(snr, planes, roots, kind)
        with mock.patch.object(optimizer, "_BATCH", 1 << 3):
            small_batches = exhaustive_search_block(snr, planes, roots, kind)
        drawn = random_spins_block(snr, planes, seeds[: len(block)], kind)
        for (inst, graph, _), seed, found, batched, baseline in zip(
            block, seeds, searched, small_batches, drawn
        ):
            assert same_result(found, exhaustive_search(inst, graph, kind))
            assert same_result(baseline, random_spins(inst, graph, kind, seed))
            spins, objective = exhaustive_rerank(inst, graph, kind)
            assert same_bytes(batched.spins, spins)
            assert same_bytes(np.float64(batched.objective_exact), np.float64(objective))


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
@given(
    st.integers(1, 12),
    st.integers(1, 7),
    SEEDS,
    KINDS,
    st.sampled_from(FADING_MODES),
    st.sampled_from([1, 2, 3, "all"]),
    st.integers(1, 3),
)
@example(12, 7, 2**64 - 1, UtilityKind.PROPORTIONAL_FAIRNESS, "rayleigh", "all", 1)
@example(5, 7, 3, UtilityKind.TWO_WAY_SUM_RATE, "rayleigh", 3, 2)
@example(1, 5, 0, UtilityKind.PROPORTIONAL_FAIRNESS, "none", 2, 3)
@example(9, 4, 2**32, UtilityKind.TWO_WAY_SUM_RATE, "rayleigh", 1, 3)
def test_blocks_equal_the_per_drop_oracle(m, num_drops, seed, kind, fading, block, workers):
    # however the drops are grouped into blocks and the blocks into tasks,
    # every rate and the summary equal one drop at a time, byte for byte
    config = ExperimentConfig(
        scenario=ScenarioConfig(num_links=m, link_mix=0.5, seed=seed),
        algorithms=ALGORITHMS,
        num_drops=num_drops,
        frames_per_drop=3,
        utility=kind,
        master_seed=seed,
        fading=fading,
    )
    drops = num_drops if block == "all" else block
    with mock.patch.object(evaluation, "_block_drops", lambda config, workers: drops):
        report = run_experiment(config, workers=workers)
    oracle = per_drop_report(config)
    assert report.block_drops == drops
    assert json.dumps(report.summary_json()) == json.dumps(oracle.summary_json())
    for name in config.algorithms:
        assert report.stats[name].rates_bps.tobytes() == oracle.stats[name].rates_bps.tobytes()


@PROPERTY
@given(
    st.integers(1, 4), st.integers(1, 9), st.integers(1, 4), st.integers(1, 12), st.integers(1, 4)
)
# a cap below a chunk; a window that spans drops and blocks of two drops; a
# chunk larger than a drop, which counts as the drop's frames
@example(2, 7, 3, 2, 2)
@example(4, 5, 2, 12, 2)
@example(3, 2, 4, 4, 3)
def test_fading_windows_are_the_next_whole_chunks(num_drops, frames, chunk, state_block, block):
    # whatever the chunk, cap and block sizes, the _fading_states calls take
    # the chunks in (drop, frame) order, one lane each, at most
    # max(_STATE_BLOCK, chunk) frames a call, and the rates are the per-frame loop's
    config = ExperimentConfig(
        scenario=ScenarioConfig(num_links=2, link_mix=0.5, seed=3),
        algorithms=("mst_dp", "random"),
        num_drops=num_drops,
        frames_per_drop=frames,
        master_seed=5,
    )
    seeds = np.random.SeedSequence(5).generate_state(2 * num_drops, dtype=np.uint64)
    drop_of = {seed: d for d, seed in enumerate(seeds[0::2].tolist())}
    frame_bytes = 8 * (2 * 2 + 4 * 2**2) + evaluation._FRAME_STATE_BYTES
    calls, fading_states = [], evaluation._fading_states

    def recording(lanes):
        calls.append([(drop_of[seed_key[1]], lane) for seed_key, lane in lanes])
        return fading_states(lanes)

    with (
        mock.patch.object(evaluation, "FRAME_CHUNK_BUDGET", chunk * frame_bytes),
        mock.patch.object(evaluation, "_STATE_BLOCK", state_block),
        mock.patch.object(evaluation, "_block_drops", lambda *_: min(block, num_drops)),
        mock.patch.object(evaluation, "_fading_states", recording),
    ):
        report = run_experiment(config)
    hashed = [(d, f) for call in calls for d, lane in call for f in lane]
    assert hashed == [(d, f) for d in range(num_drops) for f in range(frames)]
    for call in calls:
        for _, lane in call:
            assert lane.start % chunk == 0 and len(lane) == min(chunk, frames - lane.start)
        assert sum(len(lane) for _, lane in call) <= max(state_block, chunk)
    # each call takes the next max(1, _STATE_BLOCK // min(chunk, F)) chunks of its block
    per_call, drops = max(1, state_block // min(chunk, frames)), min(block, num_drops)
    per_block = [min(drops, num_drops - d) * -(-frames // chunk) for d in range(0, num_drops, drops)]
    assert [len(call) for call in calls] == [
        min(per_call, n - i) for n in per_block for i in range(0, n, per_call)
    ]
    oracle = per_frame_rates(config)
    for name in config.algorithms:
        assert report.stats[name].rates_bps.tobytes() == oracle[name].tobytes()


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


@POOLED
@given(st.integers(1, 4), SEEDS, SEEDS, KINDS, st.sampled_from([17, 25]))
def test_sweep_is_independent_of_worker_count(m, scenario_seed, master_seed, kind, num_drops):
    base = ExperimentConfig(
        scenario=ScenarioConfig(num_links=m, link_mix=0.5, seed=scenario_seed),
        algorithms=ALGORITHMS,
        num_drops=num_drops,
        frames_per_drop=2,
        utility=kind,
        master_seed=master_seed,
    )
    configs = [base, replace(base, scenario=replace(base.scenario, num_links=m + 1))]
    serial, serial_rates = sweep_with_rates(configs, workers=1)
    pooled, pooled_rates = sweep_with_rates(configs, workers=2)
    for a, b, a_rates, b_rates in zip(serial, pooled, serial_rates, pooled_rates, strict=True):
        # blocks of 4 or 6 drops, the last one short
        assert b.block_drops == num_drops // 4 and num_drops % b.block_drops == 1
        assert a.summary_json() == b.summary_json()
        for name in ALGORITHMS:
            assert a_rates[name].tobytes() == b_rates[name].tobytes()


@POOLED
@given(
    st.lists(st.integers(1, 5), min_size=3, max_size=4, unique=True),
    # a point of one drop runs on one worker of the two; another, on both
    st.lists(st.sampled_from([1, 2, 5, 9]), min_size=4, max_size=4).filter(
        lambda d: min(d[:3]) == 1 < max(d[:3])
    ),
    SEEDS,
    SEEDS,
    KINDS,
)
def test_a_sweep_stream_is_independent_of_worker_count(
    links, drops, scenario_seed, master_seed, kind
):
    # 3 or 4 points of their own num_links and drop counts: on two workers
    # each point's blocks are queued behind the previous point's, so the
    # stream crosses 2 or 3 point boundaries
    base = ExperimentConfig(
        scenario=ScenarioConfig(num_links=1, link_mix=0.5, seed=scenario_seed),
        algorithms=ALGORITHMS,
        frames_per_drop=2,
        utility=kind,
        master_seed=master_seed,
    )
    configs = [
        replace(base, scenario=replace(base.scenario, num_links=m), num_drops=d)
        for m, d in zip(links, drops)
    ]
    serial, serial_rates = sweep_with_rates(configs, workers=1)
    pooled, pooled_rates = sweep_with_rates(configs, workers=2)
    for a, b, a_rates, b_rates in zip(serial, pooled, serial_rates, pooled_rates, strict=True):
        workers = min(2, b.config.num_drops)
        assert (b.workers, b.block_drops) == (workers, max(1, b.config.num_drops // (2 * workers)))
        assert a.summary_json() == b.summary_json()
        for name in ALGORITHMS:
            assert a_rates[name].tobytes() == b_rates[name].tobytes()


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


JSON_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(),  # NaN and +-inf included; json.load reads NaN and Infinity
    st.text(max_size=6),
)
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)
# values of the right type, by annotation, so that some configs come out clean
TYPED_VALUES = {
    "int": st.integers(1, 30),
    "float": st.floats(0.01, 0.99),
    "str": st.sampled_from(FADING_MODES),
    "UtilityKind": st.sampled_from([kind.value for kind in UtilityKind]),
    "tuple[str, ...]": st.lists(st.sampled_from(ALGORITHMS), min_size=1, max_size=3, unique=True),
}
CONFIG_KEYS = (
    [("scenario", f.name, TYPED_VALUES[f.type]) for f in fields(ScenarioConfig)]
    + [
        ("experiment", f.name, TYPED_VALUES[f.type])
        for f in fields(ExperimentConfig)
        if f.name != "scenario"
    ]
    + [
        ("sweep", "parameter", st.sampled_from(["num_links", "link_mix"])),
        ("sweep", "values", st.lists(st.integers(1, 5) | st.floats(0, 1), min_size=1, max_size=3)),
    ]
)


@st.composite
def config_values(draw):
    keys = draw(st.lists(st.sampled_from(CONFIG_KEYS), min_size=1, max_size=3, unique=True))
    return {(section, key): draw(typed | JSON_VALUES) for section, key, typed in keys}


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(config_values(), st.booleans())
def test_config_loader_returns_configs_or_names_the_key(values, optimize):
    # the loader only: a valid num_links of 10**6 must never be run
    data = {
        "schema": CONFIG_SCHEMA,
        "scenario": {"num_links": 3},
        "sweep": {"parameter": "num_links", "values": [2, 3]},
    }
    for (section, key), value in values.items():
        data.setdefault(section, {})[key] = value
    try:
        config, points = load_config(data, optimize=optimize)
    except ValueError as exc:
        assert any(key in str(exc) for _, key in values), str(exc)
    else:
        assert isinstance(config, ExperimentConfig)
        assert [p.scenario for p in points] == [
            replace(config.scenario, **{data["sweep"]["parameter"]: v})
            for v in data["sweep"]["values"]
        ]


EXTREME_FLOATS = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-300, 1e300]),
    st.sampled_from([1e308, -1e308, np.finfo(float).max, -np.finfo(float).max]),
    st.floats(allow_nan=False, allow_infinity=False),
)
# the float keys of the config, each a number any JSON config may hold
EXTREME_KEYS = [("scenario", f.name) for f in fields(ScenarioConfig) if f.type == "float"] + [
    ("experiment", f.name) for f in fields(ExperimentConfig) if f.type == "float"
]


@st.composite
def extreme_configs(draw):
    """A tiny evaluate config whose 1-3 float keys take extreme finite values."""
    scenario = {"num_links": draw(st.integers(1, 4)), "seed": draw(EDGE_SEEDS)}
    experiment = {
        "num_drops": draw(st.integers(1, 3)),
        "frames_per_drop": draw(st.integers(1, 2)),
        "master_seed": draw(EDGE_SEEDS),
        "algorithms": draw(st.lists(st.sampled_from(ALGORITHMS), min_size=1, unique=True)),
        "utility": draw(KINDS).value,
        "fading": draw(st.sampled_from(FADING_MODES)),
    }
    sections = {"scenario": scenario, "experiment": experiment}
    for section, key in draw(st.lists(st.sampled_from(EXTREME_KEYS), min_size=1, max_size=3)):
        sections[section][key] = draw(EXTREME_FLOATS)
    return sections


def _refuse_constant(name):
    raise AssertionError(f"non-finite JSON number {name}")


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(extreme_configs())
# a bandwidth whose rates overflow the float range
@example(
    {
        "scenario": {"num_links": 2, "seed": 0},
        "experiment": {"num_drops": 1, "frames_per_drop": 1, "bandwidth_hz": 1e308},
    }
)
# nodes of two links 1e-300 m apart, at distance 0
@example(
    {
        "scenario": {"num_links": 2, "seed": 1, "area_side": 1e-300},
        "experiment": {"num_drops": 1, "frames_per_drop": 1},
    }
)
# a shadowing deviation of -0.0, which numpy's normal refused
@example(
    {
        "scenario": {"num_links": 2, "seed": 0, "shadow_sigma_db": -0.0},
        "experiment": {"num_drops": 1, "frames_per_drop": 1},
    }
)
def test_evaluate_writes_finite_numbers_or_names_a_key(sections):
    # the whole command, in-process: exit 0 with finite (or null) numbers in
    # every JSON file and rate, or exit 1 with one error line naming a key
    # the config sets; a numpy warning is an error in this suite
    with tempfile.TemporaryDirectory() as tmp:
        config, out = Path(tmp) / "config.json", Path(tmp) / "out"
        config.write_text(json.dumps({"schema": CONFIG_SCHEMA, **sections}))
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(["evaluate", "--config", str(config), "--out", str(out), "--threads", "1"])
        err = err.getvalue()
        assert "Traceback" not in err
        if code == 1:
            errors = [line for line in err.splitlines() if line.startswith("error:")]
            assert len(errors) == 1 and err.count("\n") == 1, err
            keys = [key for section in sections.values() for key in section]
            assert any(key in errors[0] for key in keys), err
            return
        assert code == 0, err
        for name in ("summary.json", "run_meta.json"):
            json.loads((out / name).read_text(), parse_constant=_refuse_constant)
        rates = [line.rsplit(b",", 1)[1] for line in (out / "samples.csv").read_bytes().split()]
        assert all(math.isfinite(float(rate)) for rate in rates[1:])


@PROPERTY
@given(st.lists(st.one_of(st.floats(), NEAR_REPR_EDGES), min_size=1, max_size=20))
@example([0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf, 5e-324, -2.2250738585072014e-308])
@example([1e-4, math.nextafter(1e-4, 0), 1e16, math.nextafter(1e16, 0), 1e-05, 1.5e16, 0.1])
def test_csv_cells_are_repr_bytes(values):
    # the samples.csv cell of a rate is its repr, whatever formats it
    assert _csv_cells(np.array(values)) == [repr(x).encode() for x in values]


def test_failing_property_does_not_abort_the_session(tmp_path):
    # one failing property and one trivial test, under this suite's pytest settings
    (tmp_path / "test_failing_property.py").write_text(
        textwrap.dedent(
            """
            from hypothesis import given, settings, strategies as st

            @settings(max_examples=5, derandomize=True, database=None)
            @given(st.integers())
            def test_fails(x):
                assert x != 0

            def test_trivial():
                pass
            """
        )
    )
    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(pyproject), "--rootdir", str(tmp_path)]
        + ["-p", "no:cacheprovider", "-q", "test_failing_property.py"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert "INTERNALERROR" not in run.stdout + run.stderr
    assert "1 failed, 1 passed" in run.stdout
    assert run.returncode == 1

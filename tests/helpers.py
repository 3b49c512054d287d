"""Shared builders and oracles for the test suite.

The oracles are slow, per-link loop forms of what the package computes with
dense arrays; they read the INR layout directly, so they stay independent
of ``channel.end_planes``.
"""

import csv
import math
from itertools import combinations
from types import SimpleNamespace
from unittest import mock

import numpy as np

from spinopt import evaluation
from spinopt.channel import (
    _FADING_TAG,
    LinkInstance,
    ScenarioConfig,
    draw_fading,
    end_planes,
    generate_instance,
)
from spinopt.evaluation import FRAME_CHUNK_BUDGET, _rank, plot_rows, solve_drop
from spinopt.optimizer import OptimizationResult, network_utility
from spinopt.sinr import (
    UtilityKind,
    left_sum,
    link_utility,
    spin_planes,
    spin_selectors,
    two_way_rates,
)
from spinopt.topology import RootedTree, TopologyGraph, tree_edges


def build_instance(inr, snr=None, kinds=None) -> LinkInstance:
    """Hand-crafted instance from an (M, M, 2, 2) INR tensor."""
    inr = np.asarray(inr, dtype=float)
    m = inr.shape[0]
    if snr is None:
        snr = np.full((m, 2), 100.0)
    if kinds is None:
        kinds = np.zeros(m, dtype=np.int8)
    return LinkInstance(
        num_links=m,
        positions=np.zeros((m, 2, 2)),
        kinds=np.asarray(kinds, dtype=np.int8),
        snr=np.asarray(snr, dtype=float),
        inr=inr,
        shadowing=np.ones((2 * m, 2 * m)),
        seed_key=(0, 0),
    )


def cyclic_instance(shifts, snr) -> LinkInstance:
    """Cyclically symmetric instance: ``inr[l, k] = shifts[(k - l) % M]`` for
    an (M, 2, 2) ``shifts`` whose entry 0 is ignored, equal SNR everywhere.

    Rotating every spin by one link maps the instance onto itself, so many
    assignments tie up to rounding."""
    shifts = np.array(shifts, dtype=float)
    shifts[0] = 0.0
    m = len(shifts)
    offsets = (np.arange(m)[None, :] - np.arange(m)[:, None]) % m
    return build_instance(shifts[offsets], snr=np.full((m, 2), float(snr)))


def node_positions(instance: LinkInstance) -> np.ndarray:
    """(2M, 2) node coordinates in flat node order."""
    return instance.positions.reshape(-1, 2)


def random_instance(num_links, seed, link_mix=0.5, **overrides):
    cfg = ScenarioConfig(num_links=num_links, link_mix=link_mix, seed=seed, **overrides)
    return cfg, generate_instance(cfg, drop_seed=seed)


def on_graph(values, graph: TopologyGraph) -> SimpleNamespace:
    """``values``' snr and, as ``two_way_rates`` reads them, its INR on the
    graph's edges: ``spin_planes(values.inr, graph.adjacency)``."""
    return SimpleNamespace(snr=values.snr, inr=spin_planes(values.inr, graph.adjacency))


def graph_from(num_vertices, edges) -> TopologyGraph:
    """Graph from (k, l, weight) edges: the symmetric weight matrix, NaN elsewhere."""
    weight = np.full((num_vertices, num_vertices), np.nan)
    for k, l, w in edges:
        weight[k, l] = weight[l, k] = w
    return TopologyGraph(weight)


def edge_keys(graph: TopologyGraph) -> tuple[tuple[int, int], ...]:
    """(k, l) of every graph edge, in (k, l) order."""
    return tuple((k, l) for k, l, _ in graph.edges)


def neighbors(graph: TopologyGraph, l: int) -> list[int]:
    """Graph neighbours of vertex l in ascending order."""
    return np.flatnonzero(graph.adjacency[l]).tolist()


class _DisjointSet:
    def __init__(self, n: int):
        self.parent = list(range(n))
        self.rank = [0] * n

    def find(self, x: int) -> int:
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, a: int, b: int) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        if self.rank[ra] < self.rank[rb]:
            ra, rb = rb, ra
        self.parent[rb] = ra
        if self.rank[ra] == self.rank[rb]:
            self.rank[ra] += 1
        return True


def kruskal_forest(num_vertices, edges) -> SimpleNamespace:
    """Per-edge oracle for ``maximum_spanning_forests`` and ``components``.

    Kruskal with union-find over (k, l, weight) edges sorted by descending
    weight, then ascending (k, l); each component is rooted at its lowest
    vertex and walked breadth-first with children in ascending order.
    Returns ``parent``, ``roots``, ``children``, ``order``, ``tree_edges``
    (sorted by (k, l)) and ``components`` (sorted vertex tuples ordered by
    minimum vertex).
    """
    dsu = _DisjointSet(num_vertices)
    kept = []
    for k, l, w in sorted(edges, key=lambda e: (-e[2], e[0], e[1])):
        if dsu.union(k, l):
            kept.append((k, l, w))

    adjacency = [[] for _ in range(num_vertices)]
    for k, l, _ in kept:
        adjacency[k].append(l)
        adjacency[l].append(k)

    groups = {}
    for v in range(num_vertices):
        groups.setdefault(dsu.find(v), []).append(v)
    components = tuple(tuple(sorted(g)) for g in sorted(groups.values(), key=min))
    roots = tuple(comp[0] for comp in components)

    parent = [-1] * num_vertices
    children = [()] * num_vertices
    visited = [False] * num_vertices
    order = []
    for root in roots:
        visited[root] = True
        queue = [root]
        while queue:
            v = queue.pop(0)
            order.append(v)
            kids = tuple(u for u in sorted(adjacency[v]) if not visited[u])
            children[v] = kids
            for u in kids:
                visited[u] = True
                parent[u] = v
            queue.extend(kids)

    return SimpleNamespace(
        parent=tuple(parent),
        roots=roots,
        children=tuple(children),
        order=tuple(order),
        tree_edges=tuple(sorted(kept)),
        components=components,
    )


def enumerate_cycles(graph: TopologyGraph) -> list[list[int]]:
    """All simple cycles (length >= 3) of a small undirected graph.

    DFS from each start vertex over neighbors larger than the start, closing
    back to the start; each cycle is found once (canonical start = min
    vertex, second vertex < last vertex breaks the direction symmetry).
    """
    cycles = []

    def extend(path: list[int]) -> None:
        head = path[-1]
        for nxt in neighbors(graph, head):
            if nxt == path[0] and len(path) >= 3:
                if path[1] < path[-1]:
                    cycles.append(path.copy())
            elif nxt > path[0] and nxt not in path:
                path.append(nxt)
                extend(path)
                path.pop()

    for start in range(graph.num_vertices):
        extend([start])
    return cycles


def cycle_parity(relative, cycle: list[int]) -> int:
    """XOR of the relative spins (keyed by (k, l), k < l) around a cycle."""
    parity = 0
    for a, b in zip(cycle, cycle[1:] + cycle[:1]):
        parity ^= relative[min(a, b), max(a, b)]
    return parity


def total_weight(graph: TopologyGraph, tree: RootedTree) -> float:
    """Sum of the tree-edge weights; fsum rounds it correctly in any edge order."""
    return math.fsum(w for _, _, w in tree_edges(graph, tree))


def spanning_tree_weights(graph: TopologyGraph) -> list[float]:
    """Total weights of every spanning tree of a small connected graph."""
    n = graph.num_vertices
    weights = []
    for subset in combinations(graph.edges, n - 1):
        dsu = _DisjointSet(n)
        if all(dsu.union(k, l) for k, l, _ in subset):
            weights.append(math.fsum(w for _, _, w in subset))
    return weights


def _interference(inr, k, l, relative):
    """(L->R, R->L) INR that link k adds at link l for a given relative spin."""
    if relative:
        return inr[k, l, 1, 1], inr[k, l, 0, 0]
    return inr[k, l, 0, 1], inr[k, l, 1, 0]


def exact_sinr(values, graph, l, spins):
    """Exact (L->R, R->L) SINR of link l under absolute spins."""
    snr, inr = values.snr, values.inr
    den_lr = 1.0
    den_rl = 1.0
    for k in neighbors(graph, l):
        lr, rl = _interference(inr, k, l, spins[k] ^ spins[l])
        den_lr += lr
        den_rl += rl
    return float(snr[l, 0] / den_lr), float(snr[l, 1] / den_rl)


def approx_sinr(values, graph, tree, l, spins):
    """Tree-restricted SINR of link l: non-tree neighbours enter as the
    average of their two possible INR values."""
    snr, inr = values.snr, values.inr
    tree_nbrs = set(tree.children[l]) | {tree.parent[l]}
    den_lr = 1.0
    den_rl = 1.0
    for k in neighbors(graph, l):
        if k in tree_nbrs:
            lr, rl = _interference(inr, k, l, spins[k] ^ spins[l])
        else:
            lr = (inr[k, l, 0, 1] + inr[k, l, 1, 1]) / 2.0
            rl = (inr[k, l, 1, 0] + inr[k, l, 0, 0]) / 2.0
        den_lr += lr
        den_rl += rl
    return float(snr[l, 0] / den_lr), float(snr[l, 1] / den_rl)


def rates_of(sinrs):
    """Per-link two-way rates log2(1 + sinr_lr) + log2(1 + sinr_rl)."""
    return [math.log2(1.0 + lr) + math.log2(1.0 + rl) for lr, rl in sinrs]


def utility_of(kind, sinrs):
    """Network utility from per-link (L->R, R->L) SINRs, summed left to right in link order."""
    return left_sum(link_utility(kind, rate) for rate in rates_of(sinrs))


def tree_brute_force(
    instance: LinkInstance,
    graph: TopologyGraph,
    tree: RootedTree,
    kind,
    cap: int = 20,
) -> OptimizationResult:
    """Enumerate every tree-edge spin assignment against the approximate objective.

    Each root is fixed at spin 0, so the absolute spins of the other
    vertices enumerate the tree-edge relative spins one to one. Ties go to
    the lexicographically smallest spin vector.
    """
    m = graph.num_vertices
    free = [v for v in range(m) if tree.parent[v] >= 0]
    if len(free) > cap:
        raise ValueError(f"tree brute force refused: {len(free)} tree edges exceeds cap {cap}")

    best_value = -math.inf
    best_spins = np.zeros(m, dtype=np.int8)
    for code in range(1 << len(free)):
        spins = np.zeros(m, dtype=np.int8)
        for j, v in enumerate(free):
            spins[v] = (code >> (len(free) - 1 - j)) & 1
        value = utility_of(
            kind, [approx_sinr(instance, graph, tree, l, spins) for l in range(m)]
        )
        if value > best_value:
            best_value = value
            best_spins = spins
    return OptimizationResult(
        spins=best_spins,
        objective_exact=network_utility(instance, graph, kind, best_spins),
        objective_approx=float(best_value),
    )


def mst_dp_per_vertex(
    instance: LinkInstance, graph: TopologyGraph, tree: RootedTree, kind
) -> OptimizationResult:
    """Slow reference of ``optimizer.mst_dp``: its max-sum DP with every
    vertex, leaves included, stepped one at a time in reverse BFS order.

    The same arrays and operations per vertex as the package's DP, so its
    spins and both objectives must match that DP's bit for bit.
    """
    m = graph.num_vertices
    pick = np.stack([np.stack(planes, axis=-1) for planes in end_planes(instance.inr)], axis=2)
    same, opposite = pick[:, :, 0], pick[:, :, 1]
    parent = np.array(tree.parent)
    child = np.flatnonzero(parent >= 0)
    in_tree = np.zeros((m, m), dtype=bool)
    in_tree[child, parent[child]] = True
    in_tree[parent[child], child] = True
    chords = (graph.adjacency & ~in_tree)[:, :, None]
    # noise first, then each chord in ascending k, per direction
    base = np.add.reduce((same + opposite) / 2.0 * chords, axis=0, initial=1.0)

    mu = np.zeros((m, 2))
    best_row = np.zeros((m, 2), dtype=np.int64)
    root_values = []
    for l in reversed(tree.order):
        p = tree.parent[l]
        den = (base[l] + pick[p, l] if p >= 0 else base[l][None])[:, None, :]
        message_sum = np.zeros(1)
        for k in tree.children[l]:
            den = (den[:, :, None, :] + pick[k, l]).reshape(len(den), -1, 2)
            message_sum = np.add.outer(message_sum, mu[k]).ravel()
        rates = np.log2(1.0 + instance.snr[l] / den)
        local = rates[..., 0] + rates[..., 1]
        if kind is UtilityKind.PROPORTIONAL_FAIRNESS:
            with np.errstate(divide="ignore"):
                local = np.log(local)
        total = local + message_sum
        best = np.argmax(total, axis=1)
        best_row[l, : len(best)] = best
        if p < 0:
            root_values.append(float(total[0, best[0]]))
        else:
            mu[l] = total[(0, 1), best]

    spins = np.zeros(m, dtype=np.int8)
    edge_spin = np.zeros(m, dtype=np.int64)
    for v in tree.order:
        kids = tree.children[v]
        row = best_row[v, edge_spin[v]]
        for j, k in enumerate(kids):
            edge_spin[k] = (row >> (len(kids) - 1 - j)) & 1
            spins[k] = spins[v] ^ edge_spin[k]
    return OptimizationResult(
        spins=spins,
        objective_exact=network_utility(instance, graph, kind, spins),
        objective_approx=left_sum(root_values),
    )


def edge_weight(instance: LinkInstance, k: int, l: int) -> float:
    """Largest spin-induced change in interference power between two links.

    For each receive direction of each link, flipping the pair's relative
    spin swaps which end of the other link interferes; the weight is the
    maximum absolute difference over the four receive directions.
    """
    if k == l:
        raise ValueError("edge weight needs two distinct links")
    inr = instance.inr
    return float(
        max(
            abs(inr[k, l, 1, 1] - inr[k, l, 0, 1]),
            abs(inr[k, l, 0, 0] - inr[k, l, 1, 0]),
            abs(inr[l, k, 1, 1] - inr[l, k, 0, 1]),
            abs(inr[l, k, 0, 0] - inr[l, k, 1, 0]),
        )
    )


def exhaustive_rerank(instance: LinkInstance, graph: TopologyGraph, kind):
    """Per-candidate oracle for ``exhaustive_search``: (spins, objective).

    Every assignment, enumerated as the optimizer does (the lowest vertex of
    each component at 0, the first free vertex as the most significant bit),
    is scored on its own by the per-link loop form of ``network_utility``;
    the first maximum wins, and the all-zero spins when every utility is -inf.
    """
    m = graph.num_vertices
    fixed = {comp[0] for comp in graph.components()}
    free = [v for v in range(m) if v not in fixed]
    best_spins, best = None, None
    for code in range(1 << len(free)):
        spins = np.zeros(m, dtype=np.int8)
        for j, v in enumerate(free):
            spins[v] = (code >> (len(free) - 1 - j)) & 1
        value = utility_of(kind, [exact_sinr(instance, graph, l, spins) for l in range(m)])
        if best is None or value > best:
            best_spins, best = spins, value
    return best_spins, best


def interference_tensor_norm(positions, kinds, shadowing, config) -> np.ndarray:
    """Reference form of ``channel.interference_tensor``, which must match it
    bit for bit: distances by ``np.linalg.norm`` over (2M, 2M, 2) coordinate
    differences, an ``argwhere`` scan of every node pair for coincident
    nodes, and the path-loss ratio by a ``where=`` divide into an inf array."""
    m = len(kinds)
    nodes = np.asarray(positions, dtype=float).reshape(2 * m, 2)
    dist = np.linalg.norm(nodes[:, None, :] - nodes[None, :, :], axis=2)
    link_of = np.arange(2 * m) // 2
    coincide = np.argwhere((dist == 0) & (link_of[:, None] < link_of[None, :]))
    if len(coincide):
        a, b = coincide[0]
        raise ValueError(
            f"nodes coincide: end {a % 2} of link {a // 2} and end {b % 2} of link "
            f"{b // 2} share a position, which makes the INR between them infinite"
        )
    tx_nodes = config.nominal_snr()[kinds].reshape(-1)
    ref_nodes = np.repeat(config.nominal_distance()[kinds], 2)
    ratio = np.full_like(dist, np.inf)
    np.divide(ref_nodes[:, None], dist, out=ratio, where=dist > 0)
    inr_nodes = tx_nodes[:, None] * ratio**config.pathloss_exp * shadowing
    inr = inr_nodes.reshape(m, 2, m, 2).transpose(0, 2, 1, 3).copy()
    inr[np.arange(m), np.arange(m)] = 0.0
    return inr


def graph_weight_reduce(instance: LinkInstance, threshold: float) -> np.ndarray:
    """Reference form of ``build_graph(instance, threshold).weight``: the
    peak INR of each ordered pair by ``inr.max(axis=(2, 3))``."""
    inr = instance.inr
    peak = inr.max(axis=(2, 3))
    edge = np.maximum(peak, peak.T) > threshold
    np.fill_diagonal(edge, False)
    diff = np.maximum(
        np.abs(inr[..., 1, 1] - inr[..., 0, 1]), np.abs(inr[..., 0, 0] - inr[..., 1, 0])
    )
    return np.where(edge, np.maximum(diff, diff.T), np.nan)


def two_way_rates_loop(values, graph: TopologyGraph, spins) -> np.ndarray:
    """Per-link loop oracle of ``sinr.two_way_rates`` on one frame, which
    must match it bit for bit: each direction sums the INR its graph
    neighbours select in ascending order, then adds the noise, as the kernel
    does, and takes numpy's log2. Non-neighbours are never read."""
    rates = np.empty(graph.num_vertices)
    for l in range(graph.num_vertices):
        den = [0.0, 0.0]
        for k in neighbors(graph, l):
            for d, inr in enumerate(_interference(values.inr, k, l, spins[k] ^ spins[l])):
                den[d] += inr
        lr, rl = (np.log2(1.0 + values.snr[l, d] / (1.0 + den[d])) for d in (0, 1))
        rates[l] = lr + rl
    return rates


def fading_frame(instance: LinkInstance, frame: int) -> SimpleNamespace:
    """Per-frame oracle of ``channel.draw_fading``: one frame's ``snr``/``inr``
    from numpy's own ``SeedSequence`` and ``default_rng``."""
    seed, drop_seed = instance.seed_key
    rng = np.random.default_rng(np.random.SeedSequence((seed, drop_seed, _FADING_TAG, frame)))
    with np.errstate(over="ignore"):  # as in draw_fading, a gain may overflow to inf
        return SimpleNamespace(
            snr=instance.snr * rng.exponential(1.0, size=instance.snr.shape),
            inr=instance.inr * rng.exponential(1.0, size=instance.inr.shape),
        )


def run_drop(config, drop_seed: int, baseline_seed: int) -> tuple:
    """Per-drop oracle of ``evaluation._run_block``: one drop through every
    stage before the next drop starts, each chunk hashing its own fading
    seed states. Returns the block tuple of that one drop."""
    scenario = config.scenario
    instance = generate_instance(scenario, drop_seed)
    (graph,), (tree,), _, results, seconds = solve_drop(config, [instance], [baseline_seed])
    selectors = spin_selectors([res.spins for (res,) in results.values()])
    rates = np.empty((len(results), config.frames_per_drop, scenario.num_links))
    if config.fading == "none":
        rates[:] = two_way_rates(on_graph(instance, graph), selectors)[:, None]
    else:
        frame_bytes = instance.snr.nbytes + instance.inr.nbytes + evaluation._FRAME_STATE_BYTES
        chunk = max(1, FRAME_CHUNK_BUDGET // frame_bytes)
        for start in range(0, config.frames_per_drop, chunk):
            frames = range(start, min(start + chunk, config.frames_per_drop))
            draw = on_graph(draw_fading(instance, frames), graph)
            rates[:, start : frames.stop] = two_way_rates(draw, selectors)
    return (
        config.bandwidth_hz * rates[:, None],
        [[res.objective_exact] for (res,) in results.values()],
        [[res.warning is not None] for (res,) in results.values()],
        [tree.max_children],
        [int(graph.adjacency.sum()) // 2],
        seconds,
    )


def per_drop_report(config):
    """``run_experiment(config)`` in-process in blocks of one drop, each run
    by the per-drop oracle ``run_drop``."""

    def per_drop_block(task):
        block_config, [job] = task
        return run_drop(block_config, *job)

    with (
        mock.patch.object(evaluation, "_block_drops", lambda config, workers: 1),
        mock.patch.object(evaluation, "_run_block", per_drop_block),
    ):
        return evaluation.run_experiment(config)


def sweep_with_rates(configs, workers: int = 1):
    """``evaluation.sweep(configs, workers)`` and, per point, a copy of each
    algorithm's ``rates_bps``, taken by a wrapper of
    ``evaluation.run_experiment`` before the sweep releases them.

    Asserts that every report of the sweep carries no ``rates_bps`` and the
    ``sample_count`` of its rates.
    """
    unwrapped, rates = evaluation.run_experiment, []

    def copying_run_experiment(*args, **kwargs):
        report = unwrapped(*args, **kwargs)
        rates.append({name: st.rates_bps.copy() for name, st in report.stats.items()})
        return report

    with mock.patch.object(evaluation, "run_experiment", copying_run_experiment):
        reports = evaluation.sweep(configs, workers)
    for report, point in zip(reports, rates, strict=True):
        config = report.config
        samples = config.num_drops * config.frames_per_drop * config.scenario.num_links
        for name, st in report.stats.items():
            assert st.rates_bps is None
            assert st.sample_count == point[name].size == samples
    return reports, rates


def per_frame_rates(config) -> dict[str, np.ndarray]:
    """Per-frame loop oracle of ``run_experiment``'s ``rates_bps``.

    Rebuilds every drop from the experiment's derived seeds and evaluates
    one ``two_way_rates`` call per (algorithm, frame) on a single frame.
    """
    seeds = np.random.SeedSequence(config.master_seed).generate_state(
        2 * config.num_drops, dtype=np.uint64
    )
    shape = (config.num_drops, config.frames_per_drop, config.scenario.num_links)
    rates = {name: np.empty(shape) for name in config.algorithms}
    for d in range(config.num_drops):
        instance = generate_instance(config.scenario, int(seeds[2 * d]))
        (graph,), _, _, results, _ = solve_drop(config, [instance], [int(seeds[2 * d + 1])])
        for name, (result,) in results.items():
            selectors = spin_selectors(result.spins)
            for f in range(config.frames_per_drop):
                values = instance if config.fading == "none" else fading_frame(instance, f)
                values = on_graph(values, graph)
                rates[name][d, f] = config.bandwidth_hz * two_way_rates(values, selectors)
    return rates


def write_samples_csv_rows(report, path) -> None:
    """Row-at-a-time ``csv.writer`` oracle of ``evaluation.write_samples_csv``."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["algorithm", "num_links", "drop", "frame", "link", "rate_bps"])
        m = report.config.scenario.num_links
        for name in report.config.algorithms:
            rates = report.stats[name].rates_bps
            for d in range(rates.shape[0]):
                for f in range(rates.shape[1]):
                    for l in range(m):
                        writer.writerow([name, m, d, f, l, repr(float(rates[d, f, l]))])


def percentile(sample, q: float) -> float:
    """Lower empirical quantile: the ascending order statistic ceil(q*n) - 1.

    The rank is ``evaluation._rank``, the one ``run_experiment`` reports; no
    interpolation, so the value is always an observed sample.
    """
    sample = np.asarray(sample, dtype=float).ravel()
    return float(np.sort(sample)[_rank(sample.size, q)])


def write_plot_csv_cells(reports, path) -> None:
    """Cell-by-cell oracle of ``evaluation.write_plot_csv``: a float as its
    repr, None as an empty cell, any other value as ``csv.writer`` writes it."""
    rows = plot_rows(reports)
    columns = list(rows[0])

    def cell(value):
        if value is None:
            return ""
        return repr(value) if isinstance(value, float) else value

    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        for row in rows:
            writer.writerow([cell(row[c]) for c in columns])

"""Shared builders and oracles for the test suite.

The oracles are slow, per-link loop forms of what the package computes with
dense arrays; they read the INR layout directly, so they stay independent
of ``channel.end_planes``.
"""

import csv
import math
import time
from itertools import combinations
from types import SimpleNamespace

import numpy as np

from spinopt.channel import _FADING_TAG, LinkInstance, ScenarioConfig, generate_instance
from spinopt.evaluation import optimize
from spinopt.optimizer import OptimizationResult, network_utility
from spinopt.sinr import link_utility, spin_selectors, two_way_rates
from spinopt.topology import RootedTree, TopologyGraph, build_graph, maximum_spanning_tree


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


def random_instance(num_links, seed, link_mix=0.5, **overrides):
    cfg = ScenarioConfig(num_links=num_links, link_mix=link_mix, seed=seed, **overrides)
    return cfg, generate_instance(cfg, drop_seed=seed)


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
    """Per-edge oracle for ``maximum_spanning_tree`` and ``components``.

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
    """Network utility from per-link (L->R, R->L) SINRs, summed in link order."""
    return sum(link_utility(kind, rate) for rate in rates_of(sinrs))


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
    t_start = time.perf_counter()
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
        algorithm="tree_brute_force",
        spins=best_spins,
        objective_exact=network_utility(instance, graph, kind, best_spins),
        objective_approx=float(best_value),
        elapsed_s=time.perf_counter() - t_start,
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


def fading_frame(instance: LinkInstance, frame: int) -> SimpleNamespace:
    """Per-frame oracle of ``channel.draw_fading``: one frame's ``snr``/``inr``
    from numpy's own ``SeedSequence`` and ``default_rng``."""
    seed, drop_seed = instance.seed_key
    rng = np.random.default_rng(np.random.SeedSequence((seed, drop_seed, _FADING_TAG, frame)))
    return SimpleNamespace(
        snr=instance.snr * rng.exponential(1.0, size=instance.snr.shape),
        inr=instance.inr * rng.exponential(1.0, size=instance.inr.shape),
    )


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
        graph = build_graph(instance, config.scenario.inr_edge_threshold)
        tree = maximum_spanning_tree(graph)
        for name in config.algorithms:
            result = optimize(config, name, instance, graph, tree, int(seeds[2 * d + 1]))
            selectors = spin_selectors(graph, result.spins)
            for f in range(config.frames_per_drop):
                values = instance if config.fading == "none" else fading_frame(instance, f)
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

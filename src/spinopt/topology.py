"""Interference topology graph and maximum spanning forest.

Vertices are two-way links; an edge connects two links whenever any of the
eight cross-link INR values between them exceeds the threshold. Each edge
carries the largest change in received interference power that flipping the
pair's relative spin can cause; the maximum spanning forest over these
weights keeps the edges whose spin choice matters most.

The spin state is a vector of absolute spins, one 0/1 value per link. A
relative spin is the XOR of two absolute spins; it exists only as the
``relative_from_spins`` view written to result files.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import DEFAULT_INR_EDGE_THRESHOLD, LinkInstance, end_planes

Edge = tuple[int, int, float]

GRAPH_SCHEMA = "spinopt.graph/1"
TREE_SCHEMA = "spinopt.tree/1"


@dataclass(frozen=True)
class TopologyGraph:
    """Undirected weighted link-interference graph.

    Edges are (k, l, weight) with k < l, sorted by (k, l), no duplicates.
    ``adjacency`` is the dense (M, M) boolean form of the same edge set,
    symmetric with a false diagonal; the kernels read the graph through it.
    """

    num_vertices: int
    edges: tuple[Edge, ...]

    def __post_init__(self) -> None:
        m = self.num_vertices
        if m < 1:
            raise ValueError("graph needs at least one vertex")
        edges = tuple(sorted(self.edges))
        adjacency = np.zeros((m, m), dtype=bool)
        for k, l, w in edges:
            if not 0 <= k < l < m:
                raise ValueError(f"edge ({k},{l}) out of range or not ordered k < l")
            if adjacency[k, l]:
                raise ValueError(f"duplicate edge ({k},{l})")
            if w < 0:
                raise ValueError(f"edge ({k},{l}) has negative weight {w}")
            adjacency[k, l] = True
        adjacency |= adjacency.T
        adjacency.setflags(write=False)
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "adjacency", adjacency)

    def neighbors(self, l: int) -> tuple[int, ...]:
        return tuple(int(k) for k in np.flatnonzero(self.adjacency[l]))

    def edge_keys(self) -> tuple[tuple[int, int], ...]:
        return tuple((k, l) for k, l, _ in self.edges)

    def components(self) -> tuple[tuple[int, ...], ...]:
        """Connected components as sorted vertex tuples, ordered by minimum vertex."""
        dsu = _DisjointSet(self.num_vertices)
        for k, l, _ in self.edges:
            dsu.union(k, l)
        groups: dict[int, list[int]] = {}
        for v in range(self.num_vertices):
            groups.setdefault(dsu.find(v), []).append(v)
        return tuple(tuple(sorted(g)) for g in sorted(groups.values(), key=min))


@dataclass(frozen=True)
class RootedTree:
    """Rooted maximum spanning forest of a topology graph.

    One root per connected component (the component's lowest-index vertex);
    ``parent[v]`` is -1 for roots, children are listed in ascending order,
    and ``order`` is a breadth-first ordering in which every parent precedes
    its children.
    """

    num_vertices: int
    roots: tuple[int, ...]
    parent: tuple[int, ...]
    children: tuple[tuple[int, ...], ...]
    tree_edges: tuple[Edge, ...]

    def __post_init__(self) -> None:
        order = []
        seen = set()
        for root in self.roots:
            queue = [root]
            while queue:
                v = queue.pop(0)
                order.append(v)
                seen.add(v)
                queue.extend(self.children[v])
        if len(order) != self.num_vertices or len(seen) != self.num_vertices:
            raise ValueError("tree does not reach every vertex exactly once")
        object.__setattr__(self, "_order", tuple(order))

    @property
    def order(self) -> tuple[int, ...]:
        return self._order

    @property
    def max_children(self) -> int:
        """Largest child count of any vertex; drives the DP's 2**D cost."""
        return max(len(c) for c in self.children)

    def total_weight(self) -> float:
        # fsum: correctly rounded regardless of edge order
        return math.fsum(w for _, _, w in self.tree_edges)


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


def build_graph(
    instance: LinkInstance, threshold: float = DEFAULT_INR_EDGE_THRESHOLD
) -> TopologyGraph:
    """Topology graph: edge {k, l} iff any of the 8 cross INRs exceeds threshold."""
    if threshold < 0:
        raise ValueError(f"threshold must be >= 0, got {threshold}")
    peak = instance.inr.max(axis=(2, 3))
    peak = np.maximum(peak, peak.T)

    # the largest change in interference power that flipping the pair's
    # relative spin causes in any of the four receive directions
    same, opposite = end_planes(instance.inr)
    diff = np.maximum(*(np.abs(o - s) for s, o in zip(same, opposite)))
    weight = np.maximum(diff, diff.T)

    edges = []
    for k, l in zip(*np.nonzero(np.triu(peak > threshold, 1))):
        edges.append((int(k), int(l), float(weight[k, l])))
    return TopologyGraph(num_vertices=instance.num_links, edges=tuple(edges))


def maximum_spanning_tree(graph: TopologyGraph) -> RootedTree:
    """Maximum-weight spanning forest, rooted per component.

    Kruskal on edges sorted by descending weight with ascending (k, l) as
    the tie-break, so equal-weight choices are deterministic. Each
    component is rooted at its lowest-index vertex; children are ordered
    ascending.
    """
    dsu = _DisjointSet(graph.num_vertices)
    kept: list[Edge] = []
    for k, l, w in sorted(graph.edges, key=lambda e: (-e[2], e[0], e[1])):
        if dsu.union(k, l):
            kept.append((k, l, w))

    adjacency: list[list[int]] = [[] for _ in range(graph.num_vertices)]
    for k, l, _ in kept:
        adjacency[k].append(l)
        adjacency[l].append(k)

    comp_root: dict[int, int] = {}
    for v in range(graph.num_vertices):
        r = dsu.find(v)
        comp_root[r] = min(comp_root.get(r, v), v)
    roots = tuple(sorted(comp_root.values()))

    parent = [-1] * graph.num_vertices
    children: list[tuple[int, ...]] = [()] * graph.num_vertices
    visited = [False] * graph.num_vertices
    for root in roots:
        visited[root] = True
        queue = [root]
        while queue:
            v = queue.pop(0)
            kids = tuple(u for u in sorted(adjacency[v]) if not visited[u])
            children[v] = kids
            for u in kids:
                visited[u] = True
                parent[u] = v
            queue.extend(kids)

    return RootedTree(
        num_vertices=graph.num_vertices,
        roots=roots,
        parent=tuple(parent),
        children=tuple(children),
        tree_edges=tuple(sorted(kept)),
    )


def check_spins(graph: TopologyGraph, spins) -> np.ndarray:
    """The spin vector as an array, after checking it has one 0/1 spin per link."""
    spins = np.asarray(spins)
    if spins.shape != (graph.num_vertices,):
        raise ValueError(
            f"spins must have shape ({graph.num_vertices},), got {spins.shape}"
        )
    if not np.isin(spins, (0, 1)).all():
        raise ValueError("spins must be 0/1")
    return spins


def relative_from_spins(graph: TopologyGraph, spins) -> dict[tuple[int, int], int]:
    """Relative spin of every graph edge: XOR of the endpoint spins."""
    spins = check_spins(graph, spins)
    return {(k, l): int(spins[k] ^ spins[l]) for k, l in graph.edge_keys()}


def graph_to_json(graph: TopologyGraph) -> dict:
    return {
        "schema": GRAPH_SCHEMA,
        "num_vertices": graph.num_vertices,
        "edges": [[k, l, w] for k, l, w in graph.edges],
    }


def tree_to_json(tree: RootedTree) -> dict:
    return {
        "schema": TREE_SCHEMA,
        "num_vertices": tree.num_vertices,
        "roots": list(tree.roots),
        "parent": list(tree.parent),
        "edges": [[k, l, w] for k, l, w in tree.tree_edges],
        "max_children": tree.max_children,
    }


def graph_to_edge_list(graph: TopologyGraph) -> str:
    """Plain-text edge list ("k l weight" per line) for visualization tools."""
    lines = [f"{k} {l} {w!r}" for k, l, w in graph.edges]
    return "\n".join(lines) + ("\n" if lines else "")

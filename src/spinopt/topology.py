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

from dataclasses import dataclass

import numpy as np

from .channel import DEFAULT_INR_EDGE_THRESHOLD, LinkInstance, _unchecked, end_planes
from .channel import _is_int, _is_real

Edge = tuple[int, int, float]

GRAPH_SCHEMA = "spinopt.graph/1"
TREE_SCHEMA = "spinopt.tree/1"


@dataclass(frozen=True, eq=False)
class TopologyGraph:
    """Undirected weighted link-interference graph as a dense weight matrix.

    ``weight[k, l]`` is the weight of edge {k, l}; it is NaN where the two
    links share no edge and on the diagonal. The matrix is square,
    symmetric, non-negative and read-only. ``adjacency`` is its boolean edge
    mask, which the kernels read; ``edges`` lists the same edges as
    (k, l, weight) tuples with k < l in (k, l) order, for output files.
    """

    weight: np.ndarray

    def __post_init__(self) -> None:
        weight = np.array(self.weight, dtype=float)
        if weight.ndim != 2 or weight.shape[0] != weight.shape[1] or weight.size == 0:
            raise ValueError(f"weight must be a non-empty square matrix, got {weight.shape}")
        if not np.isnan(np.diagonal(weight)).all():
            raise ValueError("weight diagonal must be NaN (no self-edges)")
        if not np.array_equal(weight, weight.T, equal_nan=True):
            raise ValueError("weight must be symmetric")
        if (weight < 0).any():
            raise ValueError("edge weights must be >= 0")
        weight.setflags(write=False)
        adjacency = ~np.isnan(weight)
        adjacency.setflags(write=False)
        object.__setattr__(self, "weight", weight)
        object.__setattr__(self, "adjacency", adjacency)

    @property
    def num_vertices(self) -> int:
        return self.weight.shape[0]

    @property
    def edges(self) -> tuple[Edge, ...]:
        return _edge_list(self.weight, self.adjacency)

    def components(self) -> tuple[tuple[int, ...], ...]:
        """Connected components, the trees of the maximum spanning forest, as
        sorted vertex tuples ordered by minimum vertex."""
        tree = maximum_spanning_tree(self)
        order = np.array(tree.order)  # each tree is one segment of it, led by its root
        starts = np.flatnonzero(np.array(tree.parent)[order] < 0)
        return tuple(tuple(np.sort(s).tolist()) for s in np.split(order, starts[1:]))


@dataclass(frozen=True)
class RootedTree:
    """Rooted maximum spanning forest of a topology graph, stored as its parent row.

    ``parent[v]`` is -1 for roots, one per connected component (its
    lowest-index vertex). Derived from it: ``roots`` ascending, ``children``
    of every vertex ascending, and ``order``, a per-root breadth-first
    ordering in which every parent precedes its children.
    """

    parent: tuple[int, ...]

    def __post_init__(self) -> None:
        m = len(self.parent)
        children: list[list[int]] = [[] for _ in range(m)]
        roots = []
        for v, p in enumerate(self.parent):
            if not _is_int(p):
                raise ValueError(f"parent of {v} must be an integer, got {p!r}")
            if not -1 <= p < m:
                raise ValueError(f"parent of {v} is {p}, outside [-1, {m})")
            (roots if p < 0 else children[p]).append(v)
        order = []
        for root in roots:
            level = [root]
            while level:
                order.extend(level)
                level = [k for v in level for k in children[v]]
        if len(order) != m:
            raise ValueError("tree does not reach every vertex exactly once")
        object.__setattr__(self, "parent", tuple(map(int, self.parent)))
        object.__setattr__(self, "roots", tuple(roots))
        object.__setattr__(self, "children", tuple(map(tuple, children)))
        object.__setattr__(self, "order", tuple(order))

    @property
    def max_children(self) -> int:
        """Largest child count of any vertex; drives the DP's 2**D cost."""
        return max(len(c) for c in self.children)


def build_graphs(
    inr: np.ndarray, threshold: float = DEFAULT_INR_EDGE_THRESHOLD
) -> list[TopologyGraph]:
    """Topology graphs of a block of drops from their stacked (B, M, M, 2, 2)
    INR tensors: edge {k, l} iff any of the 8 cross INRs exceeds threshold.

    The INRs are finite and non-negative, as every ``LinkInstance`` holds
    them, so each weight matrix meets ``TopologyGraph``'s checks by
    construction; the graphs hold read-only views of one (B, M, M) stack.
    """
    if not _is_real(threshold):
        raise TypeError(f"threshold must be a number, got {threshold!r}")
    if not threshold >= 0:  # NaN too, which would compare False with every INR
        raise ValueError(f"threshold must be >= 0, got {threshold}")
    same, opposite = end_planes(inr)
    # the four end planes hold all of a pair's INRs; an elementwise max of
    # them is exact and much faster than numpy's reduction over two length-2 axes
    peak = np.maximum(np.maximum(*same), np.maximum(*opposite))
    edge = np.maximum(peak, peak.swapaxes(1, 2)) > threshold
    vertices = np.arange(edge.shape[-1])
    edge[:, vertices, vertices] = False

    # the largest change in interference power that flipping the pair's
    # relative spin causes in any of the four receive directions
    diff = np.maximum(*(np.abs(o - s) for s, o in zip(same, opposite)))
    weight = np.where(edge, np.maximum(diff, diff.swapaxes(1, 2)), np.nan)
    weight.setflags(write=False)
    edge.setflags(write=False)
    return [
        _unchecked(TopologyGraph, weight=w, adjacency=a) for w, a in zip(weight, edge)
    ]


def build_graph(
    instance: LinkInstance, threshold: float = DEFAULT_INR_EDGE_THRESHOLD
) -> TopologyGraph:
    """Topology graph of one drop: :func:`build_graphs` of a block of one."""
    return build_graphs(instance.inr[None], threshold)[0]


def maximum_spanning_forests(weight: np.ndarray) -> list[RootedTree]:
    """Maximum-weight spanning forests of a block of graphs, from their
    stacked (B, M, M) weight matrices; one Borůvka over the whole block.

    Edges rank by descending weight, then ascending (k, l), a strict order,
    so each forest is the unique maximum under it. Each round, every
    component keeps the best-ranked edge out of it (a vertex's best is the
    first maximum of its row, absent and same-component entries excluded),
    and components joined by kept edges merge, until none has an edge out.
    Each tree is rooted at its lowest vertex; a vertex's parent is its
    neighbour towards the root, the tree vertex Prim would join it through.
    """
    b, m, _ = weight.shape
    n = b * m
    # one row per vertex of the block: vertex v of drop d is d * m + v
    w = np.where(np.isnan(weight), -np.inf, weight)
    rows = w.reshape(n, m)
    vertex = np.arange(n)
    offset = vertex - vertex % m
    label = vertex  # each component is labelled by one of its vertices
    neighbours: list[list[int]] = [[] for _ in range(n)]
    while True:
        to = rows.argmax(axis=1)
        best = rows[vertex, to]
        if best.max() == -np.inf:
            break
        to += offset
        # a component keeps its vertices' heaviest edge with the lowest lower end;
        # two such edges share that end outside it, so the vertex, the higher, decides
        top = np.full(n, -np.inf)
        np.maximum.at(top, label, best)
        rank = np.where(best == top[label], np.minimum(vertex, to) * n + vertex, n * n)
        first = np.full(n, n * n)
        np.minimum.at(first, label, rank)
        keep = first[top > -np.inf] % n
        c, t = label[keep], label[to[keep]]
        succ = vertex.copy()
        succ[c] = t
        # two components that keep each other's edge keep one edge; the lower labels both
        lower = (succ[t] == c) & (c < t)
        succ[c[lower]] = c[lower]
        keep = keep[~lower]
        for v, u in zip(keep.tolist(), to[keep].tolist()):
            neighbours[v].append(u)
            neighbours[u].append(v)
        jumped = succ[succ]
        while (jumped != succ).any():
            succ, jumped = jumped, jumped[jumped]
        label = succ[label]
        np.copyto(w, -np.inf, where=label.reshape(b, m, 1) == label.reshape(b, 1, m))
    parent = [-1] * n
    tree = np.unique(label, return_index=True)[1].tolist()  # the roots: each label's lowest vertex
    for v in tree:
        for u in neighbours[v]:
            if u != parent[v]:
                parent[u] = v
                tree.append(u)
    parent = np.fromiter(parent, np.int64, n).reshape(b, m)
    return [RootedTree(tuple(row)) for row in np.where(parent < 0, -1, parent % m).tolist()]


def maximum_spanning_tree(graph: TopologyGraph) -> RootedTree:
    """Maximum spanning forest of one graph: :func:`maximum_spanning_forests` of a block of one."""
    return maximum_spanning_forests(graph.weight[None])[0]


def _check_tree(graph: TopologyGraph, tree: RootedTree) -> None:
    """Refuse a tree that is not a forest of the graph: a vertex count other
    than the graph's, or an edge the graph lacks (the lowest such is named)."""
    parent = np.array(tree.parent, dtype=np.int64)
    if parent.shape != (graph.num_vertices,):
        raise ValueError(f"tree has {parent.size} vertices, the graph {graph.num_vertices}")
    child = np.flatnonzero(parent >= 0)
    stray = child[~graph.adjacency[child, parent[child]]]
    if stray.size:
        edge = min(sorted(pair) for pair in zip(stray.tolist(), parent[stray].tolist()))
        raise ValueError(f"tree edge {tuple(edge)} is not a graph edge")


def tree_edges(graph: TopologyGraph, tree: RootedTree) -> tuple[Edge, ...]:
    """The forest's edges as (k, l, weight), k < l in (k, l) order, weighted from the graph."""
    _check_tree(graph, tree)
    parent = np.array(tree.parent, dtype=np.int64)
    child = np.flatnonzero(parent >= 0)
    mask = np.zeros_like(graph.adjacency)
    mask[child, parent[child]] = mask[parent[child], child] = True
    return _edge_list(graph.weight, mask)


def _edge_list(weight: np.ndarray, mask: np.ndarray) -> tuple[Edge, ...]:
    """(k, l, weight) of every pair k < l set in the symmetric ``mask``, in (k, l) order."""
    k, l = np.nonzero(np.triu(mask))
    return tuple(zip(k.tolist(), l.tolist(), weight[k, l].tolist()))


def check_spins(graph: TopologyGraph, spins) -> np.ndarray:
    """The spin vector as an array, after checking it has one 0/1 spin per link."""
    spins = np.asarray(spins)
    if spins.shape != (graph.num_vertices,):
        raise ValueError(
            f"spins must have shape ({graph.num_vertices},), got {spins.shape}"
        )
    if not ((spins == 0) | (spins == 1)).all():
        raise ValueError("spins must be 0/1")
    return spins


def relative_from_spins(graph: TopologyGraph, spins) -> dict[tuple[int, int], int]:
    """Relative spin of every graph edge: XOR of the endpoint spins."""
    spins = check_spins(graph, spins)
    k, l = np.nonzero(np.triu(graph.adjacency))
    bits = (spins[k] != spins[l]).astype(int)
    return dict(zip(zip(k.tolist(), l.tolist()), bits.tolist()))


def graph_to_json(graph: TopologyGraph) -> dict:
    return {
        "schema": GRAPH_SCHEMA,
        "num_vertices": graph.num_vertices,
        "edges": list(map(list, graph.edges)),
    }


def tree_to_json(graph: TopologyGraph, tree: RootedTree) -> dict:
    return {
        "schema": TREE_SCHEMA,
        "num_vertices": len(tree.parent),
        "roots": list(tree.roots),
        "parent": list(tree.parent),
        "edges": list(map(list, tree_edges(graph, tree))),
        "max_children": tree.max_children,
    }


def graph_to_edge_list(graph: TopologyGraph) -> str:
    """Plain-text edge list ("k l weight" per line) for visualization tools."""
    lines = [f"{k} {l} {w!r}" for k, l, w in graph.edges]
    return "\n".join(lines) + ("\n" if lines else "")

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
        """Connected components as sorted vertex tuples, ordered by minimum vertex."""
        unseen = np.ones(self.num_vertices, dtype=bool)
        groups = []
        while unseen.any():
            member = frontier = np.arange(self.num_vertices) == np.argmax(unseen)
            while frontier.any():
                frontier = self.adjacency[frontier].any(axis=0) & ~member
                member = member | frontier
            unseen &= ~member
            groups.append(tuple(np.flatnonzero(member).tolist()))
        return tuple(groups)


@dataclass(frozen=True)
class RootedTree:
    """Rooted maximum spanning forest of a topology graph.

    ``parent[v]`` is -1 for roots, one per connected component (its
    lowest-index vertex). Derived from it: ``roots`` ascending, ``children``
    of every vertex ascending, and ``order``, a per-root breadth-first
    ordering in which every parent precedes its children.
    """

    parent: tuple[int, ...]
    tree_edges: tuple[Edge, ...]

    def __post_init__(self) -> None:
        m = len(self.parent)
        children: list[list[int]] = [[] for _ in range(m)]
        roots = []
        for v, p in enumerate(self.parent):
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
    if threshold < 0:
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
    stacked (B, M, M) weight matrices; one Prim over the whole block.

    Edges rank by descending weight, then ascending (k, l), as in
    :func:`maximum_spanning_tree`: a stable sort of each graph's upper
    triangle numbers its edges in that order, and Prim then grows every
    forest of the block at once over these distinct ranks, so the parents
    and tree edges equal that function's.
    """
    b, m, _ = weight.shape
    k, l = np.triu_indices(m, 1)
    upper = weight[:, k, l]
    pairs = upper.shape[1]
    ranks = np.empty((b, pairs), dtype=np.int64)
    np.put_along_axis(ranks, np.argsort(-upper, axis=1, kind="stable"), np.arange(pairs), axis=1)
    # no edge ranks `absent`; a tree vertex's column and best edge rank `joined`
    absent, joined = pairs, pairs + 1
    ranks[np.isnan(upper)] = absent
    rank = np.full((b, m, m), absent)
    rank[:, k, l] = rank[:, l, k] = ranks
    # per outside vertex: the rank of its best edge into the tree and that edge's tree end
    best = np.full((b, m), absent)
    via = np.full((b, m), -1)
    parent = np.empty((b, m), dtype=np.int64)
    rows = np.arange(b)
    for _ in range(m):
        # the best-ranked edge into the tree; with none, the first outside
        # vertex, which is its component's lowest, roots the next tree (via -1)
        v = best.argmin(axis=1)
        parent[rows, v] = via[rows, v]
        best[rows, v] = joined
        rank[rows, :, v] = joined
        offer = rank[rows, v]
        better = offer < best
        np.copyto(best, offer, where=better)
        np.copyto(via, v[:, None], where=better)
    return _rooted_trees(weight, parent)


def maximum_spanning_tree(graph: TopologyGraph) -> RootedTree:
    """Maximum-weight spanning forest, rooted per component.

    Dense Prim. Edges rank by descending weight, then ascending (k, l); the
    ranking is strict, so the forest is the unique maximum under it and
    equal-weight choices are deterministic. Each component grows from its
    lowest unvisited vertex, which is its root; a vertex's parent is the
    tree vertex it joins through, so children come out ascending.

    One graph's Prim, for a block of one: on one graph of M = 200 it takes
    about half the time of :func:`maximum_spanning_forests`, whose ranking
    sort and fancy indexing pay off only across a block.
    """
    m = graph.num_vertices
    # a vertex's column is blanked when it joins, so no later row offers an edge to it
    weight = np.array(graph.weight)
    parent = np.full(m, -1)
    unvisited = np.ones(m, dtype=bool)
    # per outside vertex: the weight of its best edge into the tree and that edge's tree end
    best = np.full(m, -np.inf)
    via = np.full(m, -1)
    for _ in range(m):
        v = np.argmax(best)
        if best[v] == -np.inf:
            v = np.argmax(unvisited)  # component done: its lowest vertex roots the next
        else:
            top = np.flatnonzero(best == best[v])
            if len(top) > 1:  # equal weights: the edge with the smallest (k, l)
                lo, hi = np.minimum(top, via[top]), np.maximum(top, via[top])
                v = top[np.argmin(lo * m + hi)]
            parent[v], best[v] = via[v], -np.inf
        unvisited[v] = False
        weight[:, v] = np.nan
        # equal weights into one vertex: the lower tree end has the smaller (k, l)
        w = weight[v]
        better = (w > best) | ((w == best) & (v < via))
        np.copyto(best, w, where=better)
        np.copyto(via, v, where=better)
    return _rooted_trees(graph.weight[None], parent[None])[0]


def _rooted_trees(weight: np.ndarray, parent: np.ndarray) -> list[RootedTree]:
    """The RootedTree of each row of a (B, M) parent stack, its tree edges
    weighted from the (B, M, M) weight stack."""
    b, m = parent.shape
    drop, child = np.nonzero(parent >= 0)
    via = parent[drop, child]
    k, l = np.minimum(child, via), np.maximum(child, via)
    # one edge per child: sorted by drop, then (k, l)
    order = np.argsort((drop * m + k) * m + l)
    drop, k, l = drop[order], k[order], l[order]
    edges = list(zip(k.tolist(), l.tolist(), weight[drop, k, l].tolist()))
    stops = np.cumsum(np.bincount(drop, minlength=b)).tolist()
    return [
        RootedTree(tuple(row), tuple(edges[start:stop]))
        for row, start, stop in zip(parent.tolist(), [0, *stops], stops)
    ]


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


def tree_to_json(tree: RootedTree) -> dict:
    return {
        "schema": TREE_SCHEMA,
        "num_vertices": len(tree.parent),
        "roots": list(tree.roots),
        "parent": list(tree.parent),
        "edges": list(map(list, tree.tree_edges)),
        "max_children": tree.max_children,
    }


def graph_to_edge_list(graph: TopologyGraph) -> str:
    """Plain-text edge list ("k l weight" per line) for visualization tools."""
    lines = [f"{k} {l} {w!r}" for k, l, w in graph.edges]
    return "\n".join(lines) + ("\n" if lines else "")

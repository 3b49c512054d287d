"""Spin-configuration optimizers.

Absolute spins are enumerated directly in the exhaustive search: fixing one
vertex per connected component to 0 removes the global-flip symmetry, and
the cycle-parity constraints hold automatically because relative spins are
XORs of absolute ones.

The tree heuristic prunes the graph to its maximum spanning forest and
optimizes the tree-edge relative spins by max-sum dynamic programming. Each
vertex's approximate utility depends only on the spins of its own tree
edges, so messages flow leaf-to-root and the chosen spins come back down by
backpropagation. Per-vertex work grows as 2**children, the reason the tree
is built to keep child counts small.

All tie-breaking is deterministic: among equal-objective candidates the
lexicographically smallest bit pattern wins.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import LinkInstance, end_planes
from .sinr import (
    UtilityKind, denominators, left_sum, network_utilities, network_utility, spin_planes
)
from .topology import RootedTree, TopologyGraph, maximum_spanning_tree, relative_from_spins

# Largest M exhaustive search accepts: 2**(M-1) assignments.
EXHAUSTIVE_CAP = 20

# Memory budget of one DP step. A vertex with D children ends with R = 2**D
# child-edge spin rows. Per row, taking rates holds the (2, R, 2) float64
# denominators (32 B), the 1 + snr/den temporary and the log2 rates of the
# same shape (64 B) and the message sums (8 B); a doubling holds at most 60 B.
# A step takes the vertices whose rows fit; CHILD_CAP is the largest D that fits.
DP_STEP_BUDGET = 64 << 20
_DP_ROW_BYTES = 104
CHILD_CAP = (DP_STEP_BUDGET // _DP_ROW_BYTES).bit_length() - 1

_BATCH = 1 << 13
# The exact re-rank holds one direction's (N, M, M) float64 terms at a time
# per batch of N candidates: 1.6 MB at M = 20, of a 2.3 MB tracemalloc peak.
_RERANK_BATCH = 1 << 9

# The exhaustive screen sums denominators in another order than
# network_utility and uses numpy's logarithms: a rate differs by at most
# ~(M + 2) eps / ln 2 + 2 ulp and a utility by < 1e-11 * max(1, |utility|)
# for M <= 20, unless proportional fairness meets a rate below ~1e-3.
_SCREEN_MARGIN = 1e-9

RESULT_SCHEMA = "spinopt.result/1"
_ALL_INF = "all assignments have -inf utility; returning the all-zero spins"


@dataclass(frozen=True)
class OptimizationResult:
    """An absolute spin assignment with its objective values.

    ``objective_exact`` is the exact-SINR network utility of ``spins``.
    ``objective_approx`` is the tree-restricted objective and is set only by
    the tree-based optimizers.
    """

    spins: np.ndarray
    objective_exact: float
    objective_approx: float | None
    warning: str | None = None

    def to_json(self, graph: TopologyGraph) -> dict:
        """JSON view; ``relative_spins`` is the XOR of ``spins`` per edge,
        and an objective that is not finite (``-inf``) is None, null in JSON."""
        relative = relative_from_spins(graph, self.spins)
        exact, approx = self.objective_exact, self.objective_approx
        return {
            "spins": [int(s) for s in self.spins],
            "relative_spins": {f"{k}-{l}": b for (k, l), b in relative.items()},
            "objective_exact": exact if math.isfinite(exact) else None,
            "objective_approx": approx if approx is not None and math.isfinite(approx) else None,
            "warning": self.warning,
        }


def _utilities(rates: np.ndarray, kind: UtilityKind) -> np.ndarray:
    """Each link's utility from its two-way rates: the rates, or their log
    under proportional fairness; callers ignore the divide warning of a zero
    rate."""
    return np.log(rates) if kind is UtilityKind.PROPORTIONAL_FAIRNESS else rates


def _spin_batch_utilities(
    snr: np.ndarray, planes: np.ndarray, kind: UtilityKind, floats: tuple
) -> np.ndarray:
    """Screened network utility of each row of an (N, M) batch of absolute
    spins, given as where they are 0, and as floats and their complements."""
    zero, s, c = floats
    rates = 0.0
    for d, (same, opposite) in enumerate(zip(*end_planes(planes))):
        # neighbor k contributes opposite when s_k XOR s_l = 1, else same; summing
        # selected non-negative terms (never same + diff) avoids cancellation
        # when the two INR values differ by orders of magnitude
        when_l0 = s @ opposite + c @ same
        when_l1 = s @ same + c @ opposite
        den = 1.0 + np.where(zero, when_l0, when_l1)
        rates = rates + np.log2(1.0 + snr[:, d] / den)
    with np.errstate(divide="ignore"):
        return _utilities(rates, kind).sum(axis=1)


def _screen_floor(best: float) -> float:
    """Lowest screened utility that may still be the exact maximum."""
    return best - _SCREEN_MARGIN * max(1.0, abs(best)) if best > -np.inf else np.inf


def exhaustive_search(
    instance: LinkInstance, graph: TopologyGraph, kind: UtilityKind, planes=None
) -> OptimizationResult:
    """Globally optimal spins by enumeration: ``exhaustive_search_block`` of one
    drop, its roots the lowest vertex of each connected component."""
    planes = spin_planes(instance.inr, graph.adjacency) if planes is None else planes
    roots = maximum_spanning_tree(graph).roots
    return exhaustive_search_block(instance.snr[None], planes[None], [roots], kind)[0]


def exhaustive_search_block(snr, planes, roots, kind: UtilityKind) -> list[OptimizationResult]:
    """Globally optimal spins of each drop of a block, by enumeration.

    ``snr`` (B, M, 2) and ``planes`` (B, M, M, 2, 2) stack the drops' gains
    and ``spin_planes``; ``roots`` lists each drop's tree roots as a tuple,
    the lowest vertex of each connected component, fixed to spin 0. The
    other assignments are enumerated, so a connected graph costs 2**(M-1)
    evaluations; drops with equal roots share the enumeration. A batched
    kernel screens each batch of it per drop, and the rows within
    ``_SCREEN_MARGIN`` of the best screened so far are re-ranked at once by
    the exact objective (``network_utilities``, bit-identical to
    ``network_utility``), so the spins maximize the reported objective. A
    drop keeps only its exact best so far, so the search holds one batch
    however many assignments tie. Ties go to the lexicographically smallest
    spin vector. Refuses M above ``EXHAUSTIVE_CAP``.
    """
    m = snr.shape[1]
    if m > EXHAUSTIVE_CAP:
        raise ValueError(
            f"exhaustive search refused: {m} links exceeds the cap of {EXHAUSTIVE_CAP} "
            f"(2**(M-1) assignments)"
        )
    results = [None] * len(roots)
    for fixed in dict.fromkeys(roots):
        drops = [drop for drop, drop_roots in enumerate(roots) if drop_roots == fixed]
        free = [v for v in range(m) if v not in fixed]
        nbits = len(free)
        top = [-np.inf] * len(drops)
        for start in range(0, 1 << nbits, _BATCH):
            count = min(_BATCH, (1 << nbits) - start)
            codes = np.arange(start, start + count, dtype=np.int64)
            batch = np.zeros((count, m), dtype=np.int8)
            for j, v in enumerate(free):
                batch[:, v] = (codes >> (nbits - 1 - j)) & 1
            floats = batch == 0, (s := batch.astype(float)), 1.0 - s
            for i, drop in enumerate(drops):
                utilities = _spin_batch_utilities(snr[drop], planes[drop], kind, floats)
                top[i] = max(top[i], float(utilities.max()))
                # re-rank the near-best assignments by the objective that is reported
                near = batch[utilities >= _screen_floor(top[i])]
                for first in range(0, len(near), _RERANK_BATCH):
                    rows = near[first : first + _RERANK_BATCH]
                    exact = network_utilities(snr[drop], planes[drop], kind, rows)
                    best = int(np.argmax(exact))
                    if results[drop] is None or exact[best] > results[drop].objective_exact:
                        # a copy: a view would keep the batch's near-best rows alive
                        results[drop] = OptimizationResult(rows[best].copy(), exact[best], None)
    for drop, result in enumerate(results):
        if result is None:
            spins = np.zeros(m, dtype=np.int8)
            exact = network_utilities(snr[drop], planes[drop], kind, spins[None])[0]
            results[drop] = OptimizationResult(spins, exact, None, _ALL_INF)
    return results


def _dp_step(first_den, snr, children, down, mu, kind: UtilityKind) -> tuple:
    """The best child-edge spin row and its value, per vertex and parent-edge
    spin, of G vertices of D children: ``first_den`` (G, 2, 2) holds their noise,
    chords and parent-edge INR and ``children`` (D, G) their children, whose
    messages ``mu`` holds. Freed on return, its arrays peak at ``_DP_ROW_BYTES`` a row."""
    size = len(first_den)
    # den[vertex, parent spin, row, direction]; each child doubles the rows
    # and its edge spin becomes the lowest bit of the row index
    den = first_den[:, :, None, :]
    message_sum = np.zeros((size, 1))
    for k in children:
        den = (den[:, :, :, None, :] + down[k][:, None, None]).reshape(size, 2, -1, 2)
        message_sum = (message_sum[:, :, None] + mu[k][:, None]).reshape(size, -1)
    with np.errstate(divide="ignore"):
        rates = np.log2(1.0 + snr[:, None, None, :] / den)
        total = _utilities(rates[..., 0] + rates[..., 1], kind) + message_sum[:, None]
    total = total.reshape(2 * size, -1)
    best = total.argmax(axis=1)
    return best.reshape(size, 2), total[np.arange(2 * size), best].reshape(size, 2)


def mst_dp(
    instance: LinkInstance, graph: TopologyGraph, tree: RootedTree, kind: UtilityKind, planes=None
) -> OptimizationResult:
    """Spanning-forest pruning plus max-sum dynamic programming:
    ``mst_dp_block`` of one drop, its exact objective from ``network_utility``."""
    planes = spin_planes(instance.inr, graph.adjacency) if planes is None else planes
    exact = lambda spins: [network_utility(instance, graph, kind, spins[0], planes)]
    return mst_dp_block(instance.snr[None], planes[None], [tree], kind, exact)[0]


def mst_dp_block(snr, planes, trees, kind: UtilityKind, exact=None) -> list[OptimizationResult]:
    """``mst_dp`` of each drop of a block, from its (B, M, 2) ``snr`` and
    (B, M, M, 2, 2) ``planes`` stacks, by one DP over its forests as one forest.

    A vertex's approximate utility counts every non-tree neighbour at the
    average of its two possible INRs, every tree neighbour at the INR its
    edge spin selects. Leaf to root, each vertex maximizes its local utility
    plus its children's messages over its child-edge spins, once per
    parent-edge spin, and passes the two maxima up; vertices of equal height
    (0 at a leaf, else one above the highest child) and child count step
    together, as many as ``DP_STEP_BUDGET`` holds, and a root reads its
    zero-diagonal plane as a parent edge (base + 0.0 is the base). The chosen
    edge spins then walk down each tree into absolute spins (roots at 0),
    whose objectives ``exact`` gives (default: one ``network_utilities``
    pass). Terms are selected, never reconstructed as base-plus-difference,
    so pairs whose two INRs differ by orders of magnitude stay exact.
    """
    if (widest := max(tree.max_children for tree in trees)) > CHILD_CAP:
        raise ValueError(
            f"tree DP refused: a vertex has {widest} children, cap is "
            f"{CHILD_CAP} (2**children combinations per vertex)"
        )
    b, m = snr.shape[:2]
    n = b * m
    parent = np.array([tree.parent for tree in trees])
    own = np.where(parent >= 0, parent, np.arange(m))
    drops, vertices = np.arange(b)[:, None], np.arange(m)
    # up[v] / down[v], [edge spin, direction]: the INR v's parent adds at v / v at it
    pairs = np.stack((planes[drops, own, vertices], planes[drops, vertices, own]))
    pick = np.stack([np.stack(e, axis=-1) for e in end_planes(pairs)], axis=-2)
    up, down = pick.reshape(2, n, 2, 2)
    # chords[direction, drop, k, l]: a non-tree neighbour at the average of its two INRs
    chords = np.stack([same + opposite for same, opposite in zip(*end_planes(planes))]) / 2.0
    drop, child = np.nonzero(parent >= 0)
    above = parent[drop, child]
    chords[:, drop, child, above] = chords[:, drop, above, child] = 0.0
    # first_den[v, parent spin, direction]: noise, chords, then the parent edge's INR
    first_den = denominators(chords).transpose(1, 2, 0).reshape(n, 2)[:, None] + up

    # flat vertex b * M + v: its children, ascending, are by_parent[first[v]:][:count[v]]
    above = drop * m + above
    by_parent = (drop * m + child)[np.argsort(above, kind="stable")]
    count = np.bincount(above, minlength=n)
    first = np.cumsum(count) - count
    height = []
    for tree in trees:
        h = [0] * m
        for v in reversed(tree.order):
            if (p := tree.parent[v]) >= 0 and h[p] <= h[v]:
                h[p] = h[v] + 1
        height += h
    key = np.array(height) * (CHILD_CAP + 1) + count
    order = np.argsort(key, kind="stable")

    # mu[v, b]: best subtree utility of v given its parent-edge spin b; best_row[v, b]:
    # the child-edge spins achieving it, first child in the most significant bit
    mu = np.zeros((n, 2))
    best_row = np.zeros((n, 2), dtype=np.int64)
    for group in np.split(order, np.flatnonzero(np.diff(key[order])) + 1):
        d = int(count[group[0]])
        step = (DP_STEP_BUDGET // _DP_ROW_BYTES) >> d
        for start in range(0, len(group), step):
            g = group[start : start + step]
            kids = by_parent[first[g][:, None] + np.arange(d)].T
            best_row[g], mu[g] = _dp_step(first_den[g], snr.reshape(n, 2)[g], kids, down, mu, kind)

    spins = np.zeros((b, m), dtype=np.int8)
    for tree, best, out in zip(trees, best_row.reshape(b, m, 2).tolist(), spins):
        edge, spin = [0] * m, [0] * m
        for v in tree.order:
            kids, row = tree.children[v], best[v][edge[v]]
            for j, k in enumerate(kids, 1):
                edge[k] = bit = (row >> (len(kids) - j)) & 1
                spin[k] = spin[v] ^ bit
        out[:] = spin
    exact = network_utilities(snr, planes, kind, spins) if exact is None else exact(spins)
    # a root's message at parent spin 0 is its tree's value; roots summed last to first
    values = mu[:, 0].reshape(b, m).tolist()
    approx = [left_sum(v[r] for r in reversed(t.roots)) for v, t in zip(values, trees)]
    return [
        OptimizationResult(*result, _ALL_INF if result[2] == -np.inf else None)
        for result in zip(spins, exact, approx)
    ]


def random_spins(
    instance: LinkInstance, graph: TopologyGraph, kind: UtilityKind, seed: int, planes=None
) -> OptimizationResult:
    """Uniform random spin baseline, evaluated exactly: ``random_spins_block`` of one drop."""
    planes = spin_planes(instance.inr, graph.adjacency) if planes is None else planes
    exact = lambda spins: [network_utility(instance, graph, kind, spins[0], planes)]
    return random_spins_block(instance.snr[None], planes[None], [seed], kind, exact)[0]


def random_spins_block(snr, planes, seeds, kind: UtilityKind, exact=None) -> list:
    """``random_spins`` of each drop of a block, each drawn from its own seed
    in order; ``exact`` as in ``mst_dp_block``."""
    rngs = map(np.random.default_rng, seeds)
    spins = np.stack([rng.integers(0, 2, size=snr.shape[1], dtype=np.int8) for rng in rngs])
    exact = network_utilities(snr, planes, kind, spins) if exact is None else exact(spins)
    return [OptimizationResult(*result, None) for result in zip(spins, exact)]

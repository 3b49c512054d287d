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

from dataclasses import dataclass

import numpy as np

from .channel import LinkInstance, end_planes
from .sinr import UtilityKind, denominators, network_utilities, network_utility, spin_planes
from .topology import RootedTree, TopologyGraph, relative_from_spins

# Largest M exhaustive search accepts: 2**(M-1) assignments.
EXHAUSTIVE_CAP = 20

# Memory budget of one vertex's DP step. A vertex with D children ends with
# R = 2**D child-edge spin rows. Per row, taking rates holds the (2, R, 2)
# float64 denominators (32 B), the 1 + snr/den temporary and the log2 rates
# of the same shape (64 B) and the message sums (8 B); a doubling holds
# at most 60 B (old and new denominators and message sums). The child cap is
# the largest D whose rows fit the budget.
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
        """JSON view; ``relative_spins`` is the XOR of ``spins`` per edge."""
        relative = relative_from_spins(graph, self.spins)
        return {
            "spins": [int(s) for s in self.spins],
            "relative_spins": {f"{k}-{l}": b for (k, l), b in relative.items()},
            "objective_exact": self.objective_exact,
            "objective_approx": self.objective_approx,
            "warning": self.warning,
        }


def _utilities(rates: np.ndarray, kind: UtilityKind) -> np.ndarray:
    """Each link's utility from its two-way rates: the rates, or their log
    under proportional fairness; callers ignore the divide warning of a zero
    rate."""
    return np.log(rates) if kind is UtilityKind.PROPORTIONAL_FAIRNESS else rates


def _spin_batch_utilities(
    snr: np.ndarray, planes: np.ndarray, kind: UtilityKind, spins: np.ndarray
) -> np.ndarray:
    """Exact network utility for a batch of absolute spin vectors (N, M)."""
    s = spins.astype(float)
    c = 1.0 - s
    rates = 0.0
    for d, (same, opposite) in enumerate(zip(*end_planes(planes))):
        # neighbor k contributes opposite when s_k XOR s_l = 1, else same; summing
        # selected non-negative terms (never same + diff) avoids cancellation
        # when the two INR values differ by orders of magnitude
        when_l0 = s @ opposite + c @ same
        when_l1 = s @ same + c @ opposite
        den = 1.0 + np.where(spins == 0, when_l0, when_l1)
        rates = rates + np.log2(1.0 + snr[:, d] / den)
    with np.errstate(divide="ignore"):
        return _utilities(rates, kind).sum(axis=1)


def _screen_floor(best: float) -> float:
    """Lowest screened utility that may still be the exact maximum."""
    return best - _SCREEN_MARGIN * max(1.0, abs(best)) if best > -np.inf else np.inf


def exhaustive_search(
    instance: LinkInstance, graph: TopologyGraph, kind: UtilityKind, planes=None
) -> OptimizationResult:
    """Globally optimal spins by enumeration.

    Fixes the lowest-index vertex of every connected component to spin 0 and
    enumerates all remaining assignments, so a connected graph costs
    2**(M-1) evaluations. A batched kernel screens them; the ones within
    ``_SCREEN_MARGIN`` of the best are re-ranked in batches by the exact
    objective (``network_utilities``, bit-identical to ``network_utility``),
    so the spins maximize the reported objective. Ties go to the
    lexicographically smallest spin vector. Refuses M above ``EXHAUSTIVE_CAP``.
    """
    m = graph.num_vertices
    if m > EXHAUSTIVE_CAP:
        raise ValueError(
            f"exhaustive search refused: {m} links exceeds the cap of {EXHAUSTIVE_CAP} "
            f"(2**(M-1) assignments)"
        )
    planes = spin_planes(instance.inr, graph.adjacency) if planes is None else planes
    fixed = {comp[0] for comp in graph.components()}
    free = [v for v in range(m) if v not in fixed]
    nbits = len(free)

    top = -np.inf
    screened, near_spins = [], []
    for start in range(0, 1 << nbits, _BATCH):
        count = min(_BATCH, (1 << nbits) - start)
        codes = np.arange(start, start + count, dtype=np.int64)
        batch = np.zeros((count, m), dtype=np.int8)
        for j, v in enumerate(free):
            batch[:, v] = (codes >> (nbits - 1 - j)) & 1
        utilities = _spin_batch_utilities(instance.snr, planes, kind, batch)
        top = max(top, float(utilities.max()))
        near = utilities >= _screen_floor(top)
        screened.append(utilities[near])
        near_spins.append(batch[near])

    # re-rank the near-best assignments by the objective that is reported
    candidates = np.concatenate(near_spins)[np.concatenate(screened) >= _screen_floor(top)]
    exact = []
    for start in range(0, len(candidates), _RERANK_BATCH):
        batch = candidates[start : start + _RERANK_BATCH]
        exact += network_utilities(instance, graph, kind, batch, planes)
    if exact:
        best_spins, objective, warning = candidates[np.argmax(exact)], max(exact), None
    else:
        best_spins = np.zeros(m, dtype=np.int8)
        objective = network_utility(instance, graph, kind, best_spins, planes)
        warning = "all assignments have -inf utility; returning the all-zero spins"
    return OptimizationResult(
        spins=best_spins,
        objective_exact=objective,
        objective_approx=None,
        warning=warning,
    )


def mst_dp(
    instance: LinkInstance, graph: TopologyGraph, tree: RootedTree, kind: UtilityKind, planes=None
) -> OptimizationResult:
    """Spanning-forest pruning plus max-sum dynamic programming.

    A vertex's approximate utility counts every non-tree neighbour as the
    average of its two possible INR values, and every tree neighbour by the
    INR its edge spin selects. Leaf-to-root pass: every vertex maximizes its
    local utility plus its children's messages over all child-edge spin
    combinations, once per parent-edge spin value, and reports the two
    maxima upward; a root does the same once. The non-root leaves have no
    child-edge spins, so they all take this step at once before the other
    vertices take theirs one by one. Backpropagation then walks
    the chosen edge spins down the tree into absolute spins (roots at 0),
    and the exact objective of that assignment is evaluated for reporting.

    Terms are selected, never reconstructed as base-plus-difference, so
    pairs whose two INR values differ by orders of magnitude stay exact.
    """
    if tree.max_children > CHILD_CAP:
        raise ValueError(
            f"tree DP refused: a vertex has {tree.max_children} children, cap is "
            f"{CHILD_CAP} (2**children combinations per vertex)"
        )
    m = graph.num_vertices
    planes = spin_planes(instance.inr, graph.adjacency) if planes is None else planes
    parent = np.array(tree.parent)
    child = np.flatnonzero(parent >= 0)
    # up[v] / down[v], [edge spin, direction]: the INR v's parent adds at v / v at it; roots unread
    pairs = (planes[parent, np.arange(m)], planes[np.arange(m), parent])
    up, down = (np.stack([np.stack(e, axis=-1) for e in end_planes(p)], axis=1) for p in pairs)
    # chords[direction, k, l]: a non-tree neighbour at the average of its two INRs
    chords = np.stack([same + opposite for same, opposite in zip(*end_planes(planes))]) / 2.0
    chords[:, child, parent[child]] = chords[:, parent[child], child] = 0.0
    base = denominators(chords).T  # (M, 2): noise + chords

    # mu[v, b]: best subtree utility of v given its parent-edge spin b;
    # best_row[v, b]: the child-edge spins achieving it, first child in the
    # most significant bit
    mu = np.zeros((m, 2))
    best_row = np.zeros((m, 2), dtype=np.int64)
    # a non-root leaf has one row per parent-edge spin (best row 0), so all
    # leaves take one step: den[leaf, parent spin, direction]
    leaf = np.zeros(m, dtype=bool)
    leaf[child] = True
    leaf[parent[child]] = False
    leaves = np.flatnonzero(leaf)
    den = base[leaves][:, None, :] + up[leaves]
    with np.errstate(divide="ignore"):
        rates = np.log2(1.0 + instance.snr[leaves][:, None, :] / den)
        mu[leaves] = _utilities(rates[..., 0] + rates[..., 1], kind)

    root_values = []
    with np.errstate(divide="ignore"):
        for l in reversed(tree.order):
            if leaf[l]:
                continue
            p = tree.parent[l]
            # den[parent spin, row, direction]; each child doubles the rows and
            # its edge spin becomes the lowest bit of the row index
            den = (base[l] + up[l] if p >= 0 else base[l][None])[:, None, :]
            message_sum = np.zeros(1)
            for k in tree.children[l]:
                den = (den[:, :, None, :] + down[k]).reshape(len(den), -1, 2)
                message_sum = np.add.outer(message_sum, mu[k]).ravel()
            rates = np.log2(1.0 + instance.snr[l] / den)
            total = _utilities(rates[..., 0] + rates[..., 1], kind) + message_sum
            best = np.argmax(total, axis=1)
            best_row[l, : len(best)] = best
            if p < 0:
                root_values.append(float(total[0, best[0]]))
            else:
                mu[l] = total[(0, 1), best]

    spins = np.zeros(m, dtype=np.int8)
    edge_spin = np.zeros(m, dtype=np.int64)  # relative spin to the parent; 0 at roots
    for v in tree.order:
        kids = tree.children[v]
        row = best_row[v, edge_spin[v]]
        for j, k in enumerate(kids):
            edge_spin[k] = (row >> (len(kids) - 1 - j)) & 1
            spins[k] = spins[v] ^ edge_spin[k]

    objective_approx = float(sum(root_values))
    warning = None
    if objective_approx == -np.inf:
        warning = "all assignments have -inf utility; returning the all-zero spins"
    return OptimizationResult(
        spins=spins,
        objective_exact=network_utility(instance, graph, kind, spins, planes),
        objective_approx=objective_approx,
        warning=warning,
    )


def random_spins(
    instance: LinkInstance, graph: TopologyGraph, kind: UtilityKind, seed: int, planes=None
) -> OptimizationResult:
    """Uniform random spin baseline, evaluated exactly."""
    rng = np.random.default_rng(seed)
    spins = rng.integers(0, 2, size=graph.num_vertices, dtype=np.int8)
    return OptimizationResult(
        spins=spins,
        objective_exact=network_utility(instance, graph, kind, spins, planes),
        objective_approx=None,
    )

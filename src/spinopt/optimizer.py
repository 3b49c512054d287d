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

import time
from dataclasses import dataclass

import numpy as np

from .channel import LinkInstance, end_planes
from .sinr import UtilityKind, denominators, network_utility
from .topology import RootedTree, TopologyGraph, relative_from_spins

EXHAUSTIVE_CAP_DEFAULT = 20

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

    algorithm: str
    spins: np.ndarray
    objective_exact: float
    objective_approx: float | None
    elapsed_s: float
    warning: str | None = None

    def to_json(self, graph: TopologyGraph) -> dict:
        """JSON view (no timing); ``relative_spins`` is the XOR of ``spins`` per edge."""
        relative = relative_from_spins(graph, self.spins)
        return {
            "algorithm": self.algorithm,
            "spins": [int(s) for s in self.spins],
            "relative_spins": {f"{k}-{l}": b for (k, l), b in relative.items()},
            "objective_exact": self.objective_exact,
            "objective_approx": self.objective_approx,
            "warning": self.warning,
        }


def _rates_to_utilities(rates: np.ndarray, kind: UtilityKind) -> np.ndarray:
    """Per-assignment network utility from (N, M) per-link two-way rates."""
    if kind is UtilityKind.TWO_WAY_SUM_RATE:
        return rates.sum(axis=1)
    with np.errstate(divide="ignore"):
        return np.log(rates).sum(axis=1)


def _spin_batch_utilities(
    instance: LinkInstance, graph: TopologyGraph, kind: UtilityKind, spins: np.ndarray
) -> np.ndarray:
    """Exact network utility for a batch of absolute spin vectors (N, M)."""
    mask = graph.adjacency.astype(float)
    s = spins.astype(float)
    c = 1.0 - s
    rates = 0.0
    for d, (same, opposite) in enumerate(zip(*end_planes(instance.inr))):
        t0 = same * mask
        t1 = opposite * mask
        # neighbor k contributes t1 when s_k XOR s_l = 1, else t0; summing
        # selected non-negative terms (never t0 + diff) avoids cancellation
        # when the two INR values differ by orders of magnitude
        when_l0 = s @ t1 + c @ t0
        when_l1 = s @ t0 + c @ t1
        den = 1.0 + np.where(spins == 0, when_l0, when_l1)
        rates = rates + np.log2(1.0 + instance.snr[:, d] / den)
    return _rates_to_utilities(rates, kind)


def _screen_floor(best: float) -> float:
    """Lowest screened utility that may still be the exact maximum."""
    return best - _SCREEN_MARGIN * max(1.0, abs(best)) if best > -np.inf else np.inf


def exhaustive_search(
    instance: LinkInstance,
    graph: TopologyGraph,
    kind: UtilityKind,
    cap: int = EXHAUSTIVE_CAP_DEFAULT,
) -> OptimizationResult:
    """Globally optimal spins by enumeration.

    Fixes the lowest-index vertex of every connected component to spin 0 and
    enumerates all remaining assignments, so a connected graph costs
    2**(M-1) evaluations. A batched kernel screens them; the ones within
    ``_SCREEN_MARGIN`` of the best are re-ranked by ``network_utility``, so
    the spins maximize the reported objective. Ties go to the
    lexicographically smallest spin vector. Refuses M above ``cap``.
    """
    t_start = time.perf_counter()
    m = graph.num_vertices
    if m > cap:
        raise ValueError(
            f"exhaustive search refused: {m} links exceeds the cap of {cap} "
            f"(2**(M-1) assignments)"
        )
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
        utilities = _spin_batch_utilities(instance, graph, kind, batch)
        top = max(top, float(utilities.max()))
        near = utilities >= _screen_floor(top)
        screened.append(utilities[near])
        near_spins.append(batch[near])

    # re-rank the near-best assignments by the objective that is reported
    candidates = np.concatenate(near_spins)[np.concatenate(screened) >= _screen_floor(top)]
    exact = [network_utility(instance, graph, kind, spins) for spins in candidates]
    if exact:
        best_spins, objective, warning = candidates[np.argmax(exact)], max(exact), None
    else:
        best_spins = np.zeros(m, dtype=np.int8)
        objective = network_utility(instance, graph, kind, best_spins)
        warning = "all assignments have -inf utility; returning the all-zero spins"
    return OptimizationResult(
        algorithm="exhaustive",
        spins=best_spins,
        objective_exact=objective,
        objective_approx=None,
        elapsed_s=time.perf_counter() - t_start,
        warning=warning,
    )


def mst_dp(
    instance: LinkInstance,
    graph: TopologyGraph,
    tree: RootedTree,
    kind: UtilityKind,
) -> OptimizationResult:
    """Spanning-forest pruning plus max-sum dynamic programming.

    A vertex's approximate utility counts every non-tree neighbour as the
    average of its two possible INR values, and every tree neighbour by the
    INR its edge spin selects. Leaf-to-root pass: every vertex maximizes its
    local utility plus its children's messages over all child-edge spin
    combinations, once per parent-edge spin value, and reports the two
    maxima upward; a root does the same once. Backpropagation then walks
    the chosen edge spins down the tree into absolute spins (roots at 0),
    and the exact objective of that assignment is evaluated for reporting.

    Terms are selected, never reconstructed as base-plus-difference, so
    pairs whose two INR values differ by orders of magnitude stay exact.
    """
    t_start = time.perf_counter()
    if tree.max_children > CHILD_CAP:
        raise ValueError(
            f"tree DP refused: a vertex has {tree.max_children} children, cap is "
            f"{CHILD_CAP} (2**children combinations per vertex)"
        )
    m = graph.num_vertices
    # pick[k, l, edge spin, direction]: the INR k adds at l's receivers
    pick = np.stack([np.stack(planes, axis=-1) for planes in end_planes(instance.inr)], axis=2)
    same, opposite = pick[:, :, 0], pick[:, :, 1]
    parent = np.array(tree.parent)
    child = np.flatnonzero(parent >= 0)
    in_tree = np.zeros((m, m), dtype=bool)
    in_tree[child, parent[child]] = True
    in_tree[parent[child], child] = True
    chords = (graph.adjacency & ~in_tree)[:, :, None]
    base = denominators((same + opposite) / 2.0 * chords)  # (M, 2): noise + chords

    # mu[v, b]: best subtree utility of v given its parent-edge spin b;
    # best_row[v, b]: the child-edge spins achieving it, first child in the
    # most significant bit
    mu = np.zeros((m, 2))
    best_row = np.zeros((m, 2), dtype=np.int64)
    root_values = []
    for l in reversed(tree.order):
        p = tree.parent[l]
        # den[parent spin, row, direction]; each child doubles the rows and
        # its edge spin becomes the lowest bit of the row index
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
        algorithm="mst_dp",
        spins=spins,
        objective_exact=network_utility(instance, graph, kind, spins),
        objective_approx=objective_approx,
        elapsed_s=time.perf_counter() - t_start,
        warning=warning,
    )


def random_spins(
    instance: LinkInstance, graph: TopologyGraph, kind: UtilityKind, seed: int
) -> OptimizationResult:
    """Uniform random spin baseline, evaluated exactly."""
    t_start = time.perf_counter()
    rng = np.random.default_rng(seed)
    spins = rng.integers(0, 2, size=graph.num_vertices, dtype=np.int8)
    return OptimizationResult(
        algorithm="random",
        spins=spins,
        objective_exact=network_utility(instance, graph, kind, spins),
        objective_approx=None,
        elapsed_s=time.perf_counter() - t_start,
    )

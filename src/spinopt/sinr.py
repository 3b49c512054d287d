"""SINR evaluation and link/network utilities.

The spin state is a vector of absolute spins. For a link's L->R direction
the receiver is its R node; a neighbouring link with the same spin
transmits from its L end in the same slot, one with the other spin from its
R end (``channel.end_planes`` maps this onto the INR layout). Every
denominator below sums, over the graph neighbours, the INR selected by the
two links' relative spin.
"""

from __future__ import annotations

import enum
import math

import numpy as np

from .channel import end_planes
from .topology import TopologyGraph, check_spins


class UtilityKind(enum.Enum):
    TWO_WAY_SUM_RATE = "two_way_sum_rate"
    PROPORTIONAL_FAIRNESS = "proportional_fairness"


def link_utility(kind: UtilityKind, rate: float) -> float:
    """Per-link utility of a two-way rate; proportional fairness is its ln.

    A zero rate under proportional fairness maps to -inf so that
    maximizers avoid it whenever any alternative is feasible.
    """
    if kind is UtilityKind.TWO_WAY_SUM_RATE:
        return rate
    if kind is UtilityKind.PROPORTIONAL_FAIRNESS:
        return math.log(rate) if rate > 0.0 else -math.inf
    raise ValueError(f"unknown utility kind: {kind!r}")


def denominators(terms: np.ndarray) -> np.ndarray:
    """(..., M, 2) SINR denominators from (..., M, M, 2) interference terms ``[k, l, d]``.

    Noise (the reduction's initial 1.0) first, then each interferer in
    ascending k: the same accumulation order as a per-link loop, so results
    match it bit for bit. The k axis is never the innermost one, so numpy
    adds its terms one by one instead of pairwise.
    """
    return np.add.reduce(terms, axis=-3, initial=1.0)


def _spin_terms(adjacency, differ, same, opposite) -> np.ndarray:
    """Interference each neighbour ``k`` adds at link ``l``, from broadcastable arrays.

    ``opposite`` where the two spins differ, ``same`` where they agree, and
    0 where {k, l} is no edge. Only the selected INR enters, so an
    unselected value never reaches the sum, not even an infinite one.
    """
    terms = np.where(differ, opposite, same)
    terms *= adjacency
    return terms


def network_utilities(values, graph: TopologyGraph, kind: UtilityKind, spins) -> list[float]:
    """``network_utility`` of every row of an (N, M) batch of absolute spins.

    The batch shares one dense denominator computation; each utility is
    then summed in Python exactly as ``network_utility`` sums it, so every
    value equals that function's result for its row bit for bit.
    """
    same, opposite = (np.stack(planes, axis=-1) for planes in end_planes(values.inr))
    differ = (spins[:, :, None] != spins[:, None, :])[..., None]
    terms = _spin_terms(graph.adjacency[:, :, None], differ, same, opposite)
    sinr = values.snr / denominators(terms)
    return [
        sum(
            link_utility(kind, math.log2(1.0 + lr) + math.log2(1.0 + rl))
            for lr, rl in rows
        )
        for rows in sinr.tolist()
    ]


def network_utility(values, graph: TopologyGraph, kind: UtilityKind, spins) -> float:
    """Sum of link utilities under exact SINRs; the optimizers' objective.

    ``values`` is anything with ``snr``/``inr`` arrays in instance layout
    (a LinkInstance for long-term gains, or one frame's instantaneous
    gains); ``spins`` holds one absolute 0/1 spin per link.
    """
    return network_utilities(values, graph, kind, check_spins(graph, spins)[None])[0]


def spin_selectors(graph: TopologyGraph, spins) -> tuple[np.ndarray, np.ndarray]:
    """(adjacency, differ) boolean masks for vectorized rate evaluation.

    ``spins`` is one absolute spin vector (M,) or a stack of them (A, M),
    e.g. one row per algorithm of a drop; every row is checked.
    ``adjacency[k, l]`` is the graph's edge mask and ``differ[..., k, l]``
    is True when the spins of links k and l differ; both are symmetric.
    Precompute once per (graph, spins) pair and reuse across fading draws.
    """
    spins = np.asarray(spins)
    for row in spins if spins.ndim == 2 else [spins]:
        check_spins(graph, row)
    return graph.adjacency, spins[..., :, None] != spins[..., None, :]


def two_way_rates(values, selectors: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """Per-link two-way sum rates (bit/s/Hz) for all links at once.

    ``selectors`` is ``spin_selectors``' pair. ``values.snr``/``values.inr``
    may carry leading frame axes, e.g. a chunk of fading draws stacked as
    (F, M, 2) and (F, M, M, 2, 2); the result then has shape (F, M), or
    (A, F, M) for selectors of an (A, M) spin stack, whose differ mask is
    broadcast over the frames. Each rate is bit-identical to evaluating its
    frame and spin vector alone: the interferers are summed over ascending
    k, never the innermost axis, before the noise is added.
    """
    adjacency, differ = selectors
    snr = values.snr
    frame_axes = (1,) * (snr.ndim - 2)
    differ = differ.reshape(differ.shape[:-2] + frame_axes + differ.shape[-2:])
    den_lr, den_rl = (
        1.0 + _spin_terms(adjacency, differ, same, opposite).sum(axis=-2)
        for same, opposite in zip(*end_planes(values.inr))
    )
    return np.log2(1.0 + snr[..., 0] / den_lr) + np.log2(1.0 + snr[..., 1] / den_rl)

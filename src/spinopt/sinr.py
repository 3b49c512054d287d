"""SINR evaluation and link/network utilities.

The spin state is a vector of absolute spins. For a link's L->R direction
the receiver is its R node; a neighbouring link with the same spin
transmits from its L end in the same slot, one with the other spin from its
R end (``channel.end_planes`` maps this onto the INR layout). Every
denominator below sums, over the graph neighbours, the INR the two links'
relative spin selects from a drop's ``spin_planes``: ``evaluation.solve_drop``
builds them once per drop, every optimizer and this module's kernels read
them, and the rate stage's fading draws scale them. No kernel multiplies by
a mask.
"""

from __future__ import annotations

import enum
import functools
import math
import operator

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


def spin_planes(inr: np.ndarray, adjacency: np.ndarray) -> np.ndarray:
    """A copy of the (..., M, M, 2, 2) ``inr``, or of a list of them stacked, with
    each pair that is no edge of ``adjacency`` ((M, M), or (B, M, M) for a block)
    set to 0, not multiplied by 0: an inf INR off the graph gives 0, never NaN.
    Refuses a graph whose vertex count is not the INR's link count."""
    planes = np.array(inr)
    if (m := planes.shape[-3]) != adjacency.shape[-1]:
        raise ValueError(f"graph has {adjacency.shape[-1]} vertices, the INR {m} links")
    planes[..., ~adjacency, :, :] = 0.0
    return planes


def denominators(terms: np.ndarray) -> np.ndarray:
    """(..., M) denominators of one direction from (..., M, M) interference terms ``[k, l]``.

    Noise (the reduction's initial 1.0) first, then each interferer in
    ascending k, as a per-link loop adds them, so results match it bit for
    bit: the k axis is never the innermost one, so numpy adds one by one."""
    return np.add.reduce(terms, axis=-2, initial=1.0)


def left_sum(values) -> float:
    """``values`` added left to right from 0.0; ``sum`` compensates from Python 3.12 on."""
    return functools.reduce(operator.add, values, 0.0)


def network_utilities(snr, planes, kind: UtilityKind, spins) -> list[float]:
    """``network_utility`` of every row of an (N, M) batch of absolute spins.

    ``snr`` (M, 2) and ``planes`` (M, M, 2, 2), a drop's ``spin_planes``,
    serve every row, or are stacked (N, M, 2) and (N, M, M, 2, 2), a drop
    per row. One dense denominator pass per direction; then libm's
    ``math.log2`` per link and a ``left_sum`` per row, so every value equals
    ``network_utility`` of its row alone bit for bit."""
    differ = spins[..., :, None] != spins[..., None, :]
    lr, rl = (
        (1.0 + snr[..., d] / denominators(np.where(differ, opposite, same))).tolist()
        for d, (same, opposite) in enumerate(zip(*end_planes(planes)))
    )
    utility, log2 = functools.partial(link_utility, kind), math.log2
    return [
        left_sum(map(utility, map(operator.add, map(log2, a), map(log2, b))))
        for a, b in zip(lr, rl)
    ]


def network_utility(values, graph: TopologyGraph, kind: UtilityKind, spins, planes=None) -> float:
    """Sum of link utilities under exact SINRs; the optimizers' objective.

    ``values`` is anything with ``snr``/``inr`` arrays in instance layout
    (a LinkInstance for long-term gains, or one frame's instantaneous
    gains); ``spins`` holds one absolute 0/1 spin per link, and ``planes``
    the ``spin_planes`` of ``values`` and ``graph``, built here when not given."""
    planes = spin_planes(values.inr, graph.adjacency) if planes is None else planes
    return network_utilities(values.snr, planes, kind, check_spins(graph, spins)[None])[0]


def spin_selectors(spins) -> np.ndarray:
    """The symmetric mask ``two_way_rates`` selects planes by: ``differ[..., k, l]``
    is True where the spins of links k and l differ, for an (..., M) stack of
    0/1 spin vectors in one pass, e.g. a block's (B, A, M) spins, one row per
    drop and algorithm. ``two_way_rates`` checks M against its links. Build
    once per stack, reuse across draws.
    """
    spins = np.asarray(spins)
    if spins.ndim == 0:
        raise ValueError(f"spins must have a link axis, got {spins!r}")
    if not ((spins == 0) | (spins == 1)).all():
        raise ValueError("spins must be 0/1")
    return spins[..., :, None] != spins[..., None, :]


def two_way_rates(values, differ: np.ndarray) -> np.ndarray:
    """Per-link two-way sum rates (bit/s/Hz) for all links at once.

    ``values.inr`` is a drop's ``spin_planes`` (0 off the graph), or a chunk
    of fading draws that scale them, stacked as (F, M, M, 2, 2) with
    ``values.snr`` (F, M, 2); ``differ`` is ``spin_selectors``' mask, which
    must end in (M, M), M the links of ``values``. The result is (F, M), or
    (A, F, M) for the mask of an (A, M) spin stack, broadcast over the
    frames; each rate is bit-identical to its frame and spin vector alone:
    the interferers are summed over ascending k, never the innermost axis,
    before the noise is added."""
    snr, m, differ = values.snr, values.snr.shape[-2], np.asarray(differ)
    if differ.shape[-2:] != (m, m):
        raise ValueError(f"differ must end in shape ({m}, {m}), got {differ.shape}")
    frame_axes = (1,) * (snr.ndim - 2)
    differ = differ.reshape(differ.shape[:-2] + frame_axes + differ.shape[-2:])
    den_lr, den_rl = (
        1.0 + np.where(differ, opposite, same).sum(axis=-2)
        for same, opposite in zip(*end_planes(values.inr))
    )
    return np.log2(1.0 + snr[..., 0] / den_lr) + np.log2(1.0 + snr[..., 1] / den_rl)

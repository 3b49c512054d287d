"""Random network drops for interfering two-way TDD links.

A drop places M two-way links (2M half-duplex nodes) in a square area and
derives long-term SNR/INR power ratios from distance-based path loss and
log-normal shadowing. Per-frame instantaneous realizations multiply the
long-term values by unit-mean exponential fading coefficients (squared
magnitude of unit-power Rayleigh fading).

Conventions used throughout the package:

* all power quantities are linear ratios, noise power is normalized to 1;
* link ends are indexed 0 (the "L" node) and 1 (the "R" node); the node at
  end ``x`` of link ``l`` has flat node index ``2*l + x``;
* ``inr[l, k, x, y]`` is the interference-to-noise ratio caused by end ``x``
  of link ``l`` at end ``y`` of link ``k``; entries with ``l == k`` are
  unused and set to 0;
* transmit power of a node is chosen so that its own link sees the nominal
  SNR of its kind at the nominal link distance, which makes the interference
  it causes at distance d equal to ``snr_nominal * (d_nominal / d)**eta``
  times the pair's shadowing factor.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields

import numpy as np

from .units import db_to_linear

SYMMETRIC = 0
ASYMMETRIC = 1
KIND_NAMES = {SYMMETRIC: "symmetric", ASYMMETRIC: "asymmetric"}
KIND_CODES = {name: code for code, name in KIND_NAMES.items()}

L = 0
R = 1

#: Default linear INR below which an interference path is treated as absent
#: when building the topology graph (-20 dB).
DEFAULT_INR_EDGE_THRESHOLD = 0.01

_MAX_SEED = 2**64 - 1
# Stream tags keep placement/shadowing draws separate from fading draws, so
# the number of fading draws never alters the instance itself.
_INSTANCE_TAG = 0x1
_FADING_TAG = 0x2

# numpy's SeedSequence hashing (pool of 4 uint32 words) and PCG64 seeding,
# both stream-stable under numpy's RNG policy (NEP 19); PCG64 is O'Neill,
# "PCG", HMC-CS-2014-0905. draw_fading runs them for a chunk of frames at once.
_M32 = 0xFFFFFFFF
_M128 = (1 << 128) - 1
_POOL_SIZE = 4
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_XSHIFT = 16
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645

INSTANCE_SCHEMA = "spinopt.instance/1"


def _check_seed(value: int, name: str) -> int:
    if not isinstance(value, (int, np.integer)) or not 0 <= value <= _MAX_SEED:
        raise ValueError(f"{name} must be a 64-bit unsigned integer, got {value!r}")
    return int(value)


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr = np.ascontiguousarray(arr, dtype=arr.dtype)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class ScenarioConfig:
    """Parameters of one random-drop scenario.

    Distances are in meters, SNRs and the shadowing deviation in dB. The
    ``link_mix`` is the fraction of symmetric (short, equal-power) links;
    the remainder are asymmetric links whose two ends transmit with
    different powers.
    """

    area_side: float = 100.0
    num_links: int = 10
    link_mix: float = 1.0
    d_sym: float = 10.0
    d_asym: float = 50.0
    snr_sym_db: float = 20.0
    snr_asym_lr_db: float = 20.0
    snr_asym_rl_db: float = 10.0
    shadow_sigma_db: float = 8.0
    pathloss_exp: float = 4.0
    inr_edge_threshold: float = DEFAULT_INR_EDGE_THRESHOLD
    seed: int = 0

    def __post_init__(self) -> None:
        if self.area_side <= 0:
            raise ValueError(f"area_side must be > 0, got {self.area_side}")
        if self.num_links < 1:
            raise ValueError(f"num_links must be >= 1, got {self.num_links}")
        if not 0.0 <= self.link_mix <= 1.0:
            raise ValueError(f"link_mix must be in [0, 1], got {self.link_mix}")
        if self.d_sym <= 0 or self.d_asym <= 0:
            raise ValueError("d_sym and d_asym must be > 0")
        if self.shadow_sigma_db < 0:
            raise ValueError(f"shadow_sigma_db must be >= 0, got {self.shadow_sigma_db}")
        if self.pathloss_exp <= 0:
            raise ValueError(f"pathloss_exp must be > 0, got {self.pathloss_exp}")
        if self.inr_edge_threshold < 0:
            raise ValueError(
                f"inr_edge_threshold must be >= 0, got {self.inr_edge_threshold}"
            )
        _check_seed(self.seed, "seed")

    def nominal_snr(self) -> np.ndarray:
        """Linear nominal (LR, RL) SNR per kind, shape (2 kinds, 2 directions)."""
        sym = db_to_linear(self.snr_sym_db)
        return np.array(
            [
                [sym, sym],
                [db_to_linear(self.snr_asym_lr_db), db_to_linear(self.snr_asym_rl_db)],
            ]
        )

    def nominal_distance(self) -> np.ndarray:
        """Nominal link span per kind, shape (2,)."""
        return np.array([self.d_sym, self.d_asym])


@dataclass(frozen=True)
class LinkInstance:
    """One random network drop with long-term (large-scale) gains.

    Attributes:
        positions: (M, 2, 2) node coordinates, indexed [link, end, xy].
        kinds: (M,) int8, SYMMETRIC or ASYMMETRIC.
        snr: (M, 2) linear direct-channel SNR, columns (LR, RL).
        inr: (M, M, 2, 2) linear cross-link INR, indexed
            [source link, destination link, source end, destination end].
        shadowing: (2M, 2M) symmetric linear shadow factor per node pair;
            entry [2l+x, 2k+y] is shared by the two directions of the pair.
        seed_key: (scenario seed, drop seed) used to derive fading streams.

    All arrays are read-only; instances are safe to share across workers.
    """

    num_links: int
    positions: np.ndarray
    kinds: np.ndarray
    snr: np.ndarray
    inr: np.ndarray
    shadowing: np.ndarray
    seed_key: tuple[int, int]

    def __post_init__(self) -> None:
        m = self.num_links
        if m < 1:
            raise ValueError("num_links must be >= 1")
        expected = {
            "positions": (m, 2, 2),
            "kinds": (m,),
            "snr": (m, 2),
            "inr": (m, m, 2, 2),
            "shadowing": (2 * m, 2 * m),
        }
        for name, shape in expected.items():
            arr = getattr(self, name)
            if arr.shape != shape:
                raise ValueError(f"{name} must have shape {shape}, got {arr.shape}")
            object.__setattr__(self, name, _freeze(arr))
        for name in ("snr", "inr", "shadowing"):
            if not np.isfinite(getattr(self, name)).all():
                raise ValueError(f"{name} values must be finite")
        if np.any(self.snr < 0) or np.any(self.inr < 0):
            raise ValueError("SNR/INR values must be non-negative")

    def node_positions(self) -> np.ndarray:
        """(2M, 2) coordinates in flat node order."""
        return self.positions.reshape(-1, 2)


@dataclass(frozen=True)
class FadingDraw:
    """Instantaneous gains of a chunk of frames: long-term values times fading.

    ``snr`` (F, M, 2) and ``inr`` (F, M, M, 2, 2) stack the frames of
    ``frames`` along a leading axis, in order.
    """

    snr: np.ndarray
    inr: np.ndarray
    frames: range

    def __post_init__(self) -> None:
        object.__setattr__(self, "snr", _freeze(self.snr))
        object.__setattr__(self, "inr", _freeze(self.inr))


def end_planes(inr: np.ndarray):
    """INR a receiver sees from a neighbour's same end or opposite end.

    Returns ``(same, opposite)``, each a pair of views ``(L->R, R->L)`` of
    shape ``inr.shape[:-2]`` indexed ``[..., k, l]``: the INR link ``k``
    causes at the receiver of link ``l`` (its R end for L->R, its L end for
    R->L) when the two links have equal spins (``same``: ``k`` transmits
    from the end matching ``l``'s transmitter) or different spins
    (``opposite``). This is the only place that maps spins onto the INR
    layout.
    """
    same = (inr[..., L, R], inr[..., R, L])
    opposite = (inr[..., R, R], inr[..., L, L])
    return same, opposite


def _pair_shadowing(num_nodes: int, sigma_db: float, rng: np.random.Generator) -> np.ndarray:
    """Symmetric (num_nodes, num_nodes) linear shadow factors.

    One log-normal factor per unordered node pair, reused for both
    directions; the diagonal (a node with itself) is fixed at 1 and unused.
    """
    draws = rng.normal(0.0, sigma_db, size=(num_nodes, num_nodes))
    upper = np.triu(draws, 1)
    return db_to_linear(upper + upper.T)


def interference_tensor(
    positions: np.ndarray,
    kinds: np.ndarray,
    shadowing: np.ndarray,
    config: ScenarioConfig,
) -> np.ndarray:
    """Long-term (M, M, 2, 2) INR tensor for given geometry and shadowing.

    The interference a source node causes at another node is its nominal
    transmit SNR scaled by ``(d_nominal / d)**eta`` path loss and the node
    pair's shadow factor. Same-link entries are zeroed. Nodes of two links
    at the same position are rejected: the INR between them would be infinite.
    """
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

    nominal = config.nominal_snr()
    # transmit "power" of node (l, x): the nominal SNR it produces on its own
    # link in the direction it transmits (x=L sends L->R, x=R sends R->L)
    tx = nominal[kinds]  # (M, 2): columns already ordered (L sends, R sends)
    tx_nodes = tx.reshape(-1)
    ref_nodes = np.repeat(config.nominal_distance()[kinds], 2)

    ratio = np.full_like(dist, np.inf)
    np.divide(ref_nodes[:, None], dist, out=ratio, where=dist > 0)
    inr_nodes = tx_nodes[:, None] * ratio**config.pathloss_exp * shadowing

    inr = inr_nodes.reshape(m, 2, m, 2).transpose(0, 2, 1, 3).copy()
    idx = np.arange(m)
    inr[idx, idx] = 0.0
    return inr


def generate_instance(config: ScenarioConfig, drop_seed: int) -> LinkInstance:
    """Generate one random drop.

    First-end nodes are placed uniformly in the square and labeled L or R
    equiprobably; the opposite end sits at the kind's nominal distance in a
    uniformly random direction and may fall outside the square. Direct SNRs
    are the nominal values times the link's own node-pair shadow factor;
    cross-link INRs follow :func:`interference_tensor`.

    Deterministic: identical (config, drop_seed) yields a bit-identical
    instance regardless of how many fading draws are taken from it.
    """
    drop_seed = _check_seed(drop_seed, "drop_seed")
    m = config.num_links
    root = np.random.SeedSequence(entropy=(config.seed, drop_seed, _INSTANCE_TAG))
    placement_ss, shadow_ss = root.spawn(2)
    rng = np.random.default_rng(placement_ss)

    first = rng.uniform(0.0, config.area_side, size=(m, 2))
    first_end = rng.integers(0, 2, size=m)
    kinds = np.full(m, ASYMMETRIC, dtype=np.int8)
    num_sym = int(round(config.link_mix * m))
    kinds[rng.permutation(m)[:num_sym]] = SYMMETRIC
    angle = rng.uniform(0.0, 2.0 * np.pi, size=m)

    span = config.nominal_distance()[kinds]
    offset = span[:, None] * np.stack([np.cos(angle), np.sin(angle)], axis=1)
    positions = np.empty((m, 2, 2))
    positions[np.arange(m), first_end] = first
    positions[np.arange(m), 1 - first_end] = first + offset

    shadowing = _pair_shadowing(2 * m, config.shadow_sigma_db, np.random.default_rng(shadow_ss))
    own_pair = shadowing[2 * np.arange(m), 2 * np.arange(m) + 1]
    snr = config.nominal_snr()[kinds] * own_pair[:, None]
    inr = interference_tensor(positions, kinds, shadowing, config)

    return LinkInstance(
        num_links=m,
        positions=positions,
        kinds=kinds,
        snr=snr,
        inr=inr,
        shadowing=shadowing,
        seed_key=(int(config.seed), drop_seed),
    )


def _uint32_words(value: int) -> list[int]:
    """SeedSequence's entropy words of an int: little-endian uint32, [0] for 0."""
    words = [value & _M32]
    while value > _M32:
        value >>= 32
        words.append(value & _M32)
    return words


def _seed_state(entropy: list[np.ndarray]) -> list[np.ndarray]:
    """``SeedSequence(entropy).generate_state(4, uint64)`` for many sequences.

    ``entropy`` holds the uint32 entropy words, one array per word position
    and one array element per sequence; it has at least the pool's 4 words,
    so no zero padding arises. Returns the 8 uint32 state words.
    The hash constants do not depend on the data, so they are Python ints;
    every data word is an array, whose uint32 arithmetic wraps silently.
    """
    hash_const = _INIT_A

    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal hash_const
        value = value ^ hash_const
        hash_const = hash_const * _MULT_A & _M32
        value = value * hash_const
        return value ^ (value >> _XSHIFT)

    def mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        result = x * _MIX_MULT_L - y * _MIX_MULT_R
        return result ^ (result >> _XSHIFT)

    pool = [hashmix(word) for word in entropy[:_POOL_SIZE]]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word))

    state = []
    hash_const = _INIT_B
    for i in range(2 * _POOL_SIZE):
        value = pool[i % _POOL_SIZE] ^ hash_const
        hash_const = hash_const * _MULT_B & _M32
        value = value * hash_const
        state.append(value ^ (value >> _XSHIFT))
    return state


def _fading_states(seed_key: tuple[int, int], frames: range) -> list[tuple[int, int]]:
    """PCG64 ``(state, inc)`` of ``default_rng(SeedSequence((*seed_key, 2, f)))``
    for every frame ``f`` of ``frames``, in order.

    A frame index of 2**32 or more adds a second entropy word, so frames are
    hashed in two groups by word count. The 128-bit seeding is
    ``pcg64_set_seed``: inc = 2 * initseq + 1, then one LCG step from 0, add
    initstate, and one more step.
    """
    index = np.fromiter(frames, dtype=np.uint64, count=len(frames))
    low = (index & _M32).astype(np.uint32)
    high = (index >> 32).astype(np.uint32)
    prefix = [*_uint32_words(seed_key[0]), *_uint32_words(seed_key[1]), _FADING_TAG]
    states: list[tuple[int, int]] = [(0, 0)] * len(frames)
    for wide in (False, True):
        rows = np.flatnonzero((high > 0) == wide)
        if not len(rows):
            continue
        entropy = [np.full(len(rows), word, dtype=np.uint32) for word in prefix]
        entropy += [low[rows], high[rows]] if wide else [low[rows]]
        words = np.stack(_seed_state(entropy), axis=1).astype("<u4").view("<u8")
        for row, (s_hi, s_lo, q_hi, q_lo) in zip(rows.tolist(), words.tolist()):
            inc = ((q_hi << 64 | q_lo) << 1 | 1) & _M128
            states[row] = (((inc + (s_hi << 64 | s_lo)) * _PCG_MULT + inc) & _M128, inc)
    return states


def draw_fading(instance: LinkInstance, frames: range) -> FadingDraw:
    """Instantaneous gains for a chunk of frames.

    Every ordered node pair gets an independent unit-mean exponential
    coefficient (squared magnitude of unit-power Rayleigh fading) that
    multiplies the corresponding long-term value. Both slots of a frame
    share the draw. Frame ``f`` draws its snr coefficients, then its inr
    coefficients, from ``default_rng(SeedSequence((seed, drop_seed, 2, f)))``
    with ``(seed, drop_seed) = instance.seed_key``, so a frame's gains do not
    depend on the chunk it is drawn in; one frame is ``range(f, f + 1)``.
    """
    if not isinstance(frames, range):
        raise TypeError(f"frames must be a range, got {type(frames).__name__}")
    if frames:
        _check_seed(frames[0], "frame index")
        _check_seed(frames[-1], "frame index")
    snr_size = instance.snr.size
    coef = np.empty((len(frames), snr_size + instance.inr.size))
    # seeded, because an unseeded PCG64 reads OS entropy; every row sets its state
    bitgen = np.random.PCG64(0)
    rng = np.random.Generator(bitgen)
    for row, (state, inc) in zip(coef, _fading_states(instance.seed_key, frames)):
        bitgen.state = {
            "bit_generator": "PCG64",
            "state": {"state": state, "inc": inc},
            "has_uint32": 0,
            "uinteger": 0,
        }
        rng.standard_exponential(out=row)
    shape = (len(frames),)
    return FadingDraw(
        snr=coef[:, :snr_size].reshape(shape + instance.snr.shape) * instance.snr,
        inr=coef[:, snr_size:].reshape(shape + instance.inr.shape) * instance.inr,
        frames=frames,
    )


def scenario_to_json(config: ScenarioConfig) -> dict:
    return {f.name: getattr(config, f.name) for f in fields(ScenarioConfig)}


def scenario_from_json(data: dict) -> ScenarioConfig:
    """Build a ScenarioConfig from a JSON-compatible dict; unknown keys fail."""
    known = {f.name for f in fields(ScenarioConfig)}
    unknown = set(data) - known
    if unknown:
        raise ValueError(f"unknown scenario key(s): {sorted(unknown)}")
    return ScenarioConfig(**data)


def instance_to_json(instance: LinkInstance) -> dict:
    """JSON-compatible dict with full float fidelity (round-trips exactly)."""
    return {
        "schema": INSTANCE_SCHEMA,
        "num_links": instance.num_links,
        "positions": instance.positions.tolist(),
        "kinds": [KIND_NAMES[int(k)] for k in instance.kinds],
        "snr": instance.snr.tolist(),
        "inr": instance.inr.tolist(),
        "shadowing": instance.shadowing.tolist(),
        "seed_key": list(instance.seed_key),
    }


def instance_from_json(data: dict) -> LinkInstance:
    if data.get("schema") != INSTANCE_SCHEMA:
        raise ValueError(f"expected schema {INSTANCE_SCHEMA!r}, got {data.get('schema')!r}")
    try:
        kinds = np.array([KIND_CODES[k] for k in data["kinds"]], dtype=np.int8)
        return LinkInstance(
            num_links=int(data["num_links"]),
            positions=np.array(data["positions"], dtype=float),
            kinds=kinds,
            snr=np.array(data["snr"], dtype=float),
            inr=np.array(data["inr"], dtype=float),
            shadowing=np.array(data["shadowing"], dtype=float),
            seed_key=(int(data["seed_key"][0]), int(data["seed_key"][1])),
        )
    except KeyError as exc:
        raise ValueError(f"instance JSON missing key: {exc}") from exc


def load_instance(path) -> LinkInstance:
    with open(path, "r", encoding="utf-8") as fh:
        return instance_from_json(json.load(fh))

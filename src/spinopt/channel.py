"""Random network drops for interfering two-way TDD links.

A drop places M two-way links (2M half-duplex nodes) in a square area and
derives long-term SNR/INR power ratios from distance-based path loss and
log-normal shadowing. Per-frame instantaneous realizations multiply the
long-term values by unit-mean exponential fading coefficients (squared
magnitude of unit-power Rayleigh fading).

Conventions used throughout the package:

* all power quantities are linear ratios, noise power is normalized to 1;
  decibels appear only in configuration values;
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

import enum
import functools
import math
import typing
from dataclasses import dataclass, fields, is_dataclass

import numpy as np

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

# numpy's SeedSequence hashing (pool of 4 uint32 words), stream-stable under
# numpy's RNG policy (NEP 19), run by _fading_states for many frames at once;
# numpy's PCG64 (O'Neill, "PCG", HMC-CS-2014-0905) seeds a frame from its words.
_M32 = 0xFFFFFFFF
_POOL_SIZE = 4
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_XSHIFT = 16

INSTANCE_SCHEMA = "spinopt.instance/1"


def db_to_linear(x_db: float) -> float:
    """Convert a dB value to a linear power ratio."""
    return 10.0 ** (x_db / 10.0)


def _is_int(value) -> bool:
    """The int rule of every integer argument: a Python or numpy integer, not a bool."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _check_seed(value: int, name: str) -> int:
    if not _is_int(value) or not 0 <= value <= _MAX_SEED:
        raise ValueError(f"{name} must be a 64-bit unsigned integer, got {value!r}")
    return int(value)


def _check_type(value, kind: type, name: str) -> None:
    """Refuse, naming the argument ``name``, a ``value`` that is not a ``kind``."""
    if not isinstance(value, kind):
        raise TypeError(f"{name} must be of type {kind.__name__}, got {type(value).__name__}")


_REALS = (int, float, np.integer, np.floating)


def _is_real(value) -> bool:
    """A Python or numpy integer or float, not a bool."""
    return isinstance(value, _REALS) and not isinstance(value, bool)


# resolves the string annotations of ``from __future__ import annotations``
_field_types = functools.cache(typing.get_type_hints)


def _is_finite(value) -> bool:
    try:
        return math.isfinite(value)
    except OverflowError:  # an int beyond the float range
        return False


def check_fields(config) -> None:
    """Check every field of a frozen config dataclass against its annotation.

    ``int``: an integer, not a bool; an integral float such as 10.0 is not
    an int. ``float``: a finite int or float, not a bool, kept as given. A
    numpy scalar is stored as its Python number, so a report echoing the
    config is JSON. ``str``: a string. ``tuple[str, ...]``: a list or tuple
    of strings, stored as a tuple. An Enum: a member or its value, stored as the
    member. Any other class: an instance of it. Errors name the field.
    """
    for name, kind in _field_types(type(config)).items():
        value = getattr(config, name)
        if kind is int:
            ok, want = _is_int(value), "an integer"
        elif kind is float:
            ok = _is_real(value) and _is_finite(value)
            want = "a finite number"
        elif kind == tuple[str, ...]:
            ok = isinstance(value, (list, tuple)) and all(isinstance(v, str) for v in value)
            want = "a list of strings"
            value = tuple(value) if ok else value
        elif issubclass(kind, enum.Enum):
            ok = isinstance(value, (kind, str)) and value in {*kind, *(k.value for k in kind)}
            want = f"one of {[k.value for k in kind]}"
            value = kind(value) if ok else value
        else:
            ok = isinstance(value, kind)
            want = f"a {kind.__name__}"
        if not ok:
            raise ValueError(f"{name} must be {want}, got {value!r}")
        object.__setattr__(config, name, value.item() if isinstance(value, np.generic) else value)


def _numbers(value, name: str) -> np.ndarray:
    """``value`` as an array of integers or floats; an array is not copied.

    Any other dtype is refused, naming the field ``name``: strings, which a
    float conversion would parse, bools, complex numbers and objects, as
    numpy holds a list with an int beyond int64. So is a ragged list.
    """
    try:
        arr = np.asarray(value)
    except ValueError as exc:  # a ragged list
        raise ValueError(f"{name} must be an array of numbers: {exc}") from None
    if arr.dtype.kind not in "iuf":
        raise ValueError(f"{name} must be an array of numbers, got dtype {arr.dtype}")
    return arr


def _freeze(arr) -> np.ndarray:
    """``arr`` as a read-only C-contiguous array; a contiguous array is not copied."""
    arr = np.ascontiguousarray(arr)
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
        check_fields(self)
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
        for name in ("snr_sym_db", "snr_asym_lr_db", "snr_asym_rl_db"):
            try:
                db_to_linear(getattr(self, name))
            except OverflowError:
                raise ValueError(
                    f"{name} must be a dB value whose linear ratio is a finite float, "
                    f"got {getattr(self, name)!r}"
                ) from None
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
        if not _is_int(m):
            raise ValueError(f"num_links must be an integer, got {m!r}")
        if m < 1:
            raise ValueError("num_links must be >= 1")
        object.__setattr__(self, "num_links", int(m))
        if not isinstance(self.seed_key, (tuple, list)) or len(self.seed_key) != 2:
            raise ValueError(f"seed_key must be two seeds, got {self.seed_key!r}")
        seed_key = tuple(_check_seed(seed, "seed_key") for seed in self.seed_key)
        object.__setattr__(self, "seed_key", seed_key)
        expected = {
            "positions": (m, 2, 2),
            "kinds": (m,),
            "snr": (m, 2),
            "inr": (m, m, 2, 2),
            "shadowing": (2 * m, 2 * m),
        }
        for name, shape in expected.items():
            arr = _numbers(getattr(self, name), name)
            # kinds keep their type until they are checked as codes below
            arr = arr if name == "kinds" else arr.astype(float, copy=False)
            if arr.shape != shape:
                raise ValueError(f"{name} must have shape {shape}, got {arr.shape}")
            object.__setattr__(self, name, _freeze(arr))
        if not np.isin(self.kinds, list(KIND_NAMES)).all():
            raise ValueError(f"kinds must be SYMMETRIC or ASYMMETRIC, got {self.kinds.tolist()}")
        object.__setattr__(self, "kinds", _freeze(self.kinds.astype(np.int8, copy=False)))
        for name in ("snr", "inr", "shadowing"):
            if not np.isfinite(getattr(self, name)).all():
                raise ValueError(f"{name} values must be finite")
        if np.any(self.snr < 0) or np.any(self.inr < 0):
            raise ValueError("SNR/INR values must be non-negative")


@dataclass(frozen=True)
class FadingDraw:
    """Instantaneous gains of a chunk of frames: long-term values times fading.

    ``snr`` (F, M, 2) and ``inr`` (F, M, M, 2, 2), of one F and M, stack
    the chunk's frames along a leading axis, in order.
    """

    snr: np.ndarray
    inr: np.ndarray

    def __post_init__(self) -> None:
        for name in ("snr", "inr"):
            object.__setattr__(self, name, _freeze(_numbers(getattr(self, name), name)))
        if self.snr.ndim != 3 or self.snr.shape[2] != 2:
            raise ValueError(f"snr must have shape (F, M, 2), got {self.snr.shape}")
        f, m, _ = self.snr.shape
        if self.inr.shape != (f, m, m, 2, 2):
            raise ValueError(f"inr must have shape {(f, m, m, 2, 2)}, got {self.inr.shape}")


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


def _unchecked(cls, **attrs):
    """A frozen dataclass ``cls`` holding ``attrs`` as given, without its
    ``__post_init__`` checks: for arrays this package built and checked a
    block of drops at a time."""
    obj = object.__new__(cls)
    for name, value in attrs.items():
        object.__setattr__(obj, name, value)
    return obj


def _node_distances(positions: np.ndarray) -> np.ndarray:
    """(B, 2M, 2M) distances between the nodes of a (B, M, 2, 2) position stack."""
    nodes = positions.reshape(len(positions), -1, 2)
    x, y = nodes[..., 0], nodes[..., 1]
    dx = x[:, :, None] - x[:, None, :]
    dy = y[:, :, None] - y[:, None, :]
    # the operations of np.linalg.norm over the xy axis (squares, one add,
    # sqrt), so the bytes match it, in place in two (B, 2M, 2M) arrays
    dx *= dx
    dy *= dy
    dx += dy
    return np.sqrt(dx, out=dx)


def _coincident_nodes(dist: np.ndarray) -> dict[int, str]:
    """The drops of a (B, 2M, 2M) distance stack in which nodes of two links
    share a position, each mapped to a message naming its first such pair."""
    zero = dist == 0
    # every node is at distance 0 from itself; only more zeros need a scan
    if np.count_nonzero(zero) == np.count_nonzero(np.diagonal(zero, axis1=1, axis2=2)):
        return {}
    link_of = np.arange(dist.shape[-1]) // 2
    found: dict[int, str] = {}
    # argwhere's rows run in (drop, a, b) order: a drop's first row is its first pair
    for drop, a, b in np.argwhere(zero & (link_of[:, None] < link_of[None, :])).tolist():
        found.setdefault(
            drop,
            f"nodes coincide: end {a % 2} of link {a // 2} and end {b % 2} of link "
            f"{b // 2} share a position, which makes the INR between them infinite",
        )
    return found


def _interference(
    dist: np.ndarray, kinds: np.ndarray, shadowing: np.ndarray, config: ScenarioConfig
) -> np.ndarray:
    """(B, M, M, 2, 2) INR tensors of a block from its node distances, kinds
    and shadowing.

    The interference a source node causes at another node is its nominal
    transmit SNR scaled by ``(d_nominal / d)**eta`` path loss and the node
    pair's shadow factor. Same-link entries are zeroed. The path gains are
    computed in ``dist``, which is overwritten, so a block holds its
    (B, 2M, 2M) node-pair arrays once."""
    b, m = kinds.shape
    nominal = config.nominal_snr()
    # transmit "power" of node (l, x): the nominal SNR it produces on its own
    # link in the direction it transmits (x=L sends L->R, x=R sends R->L)
    tx_nodes = nominal[kinds].reshape(b, 2 * m)  # columns already ordered (L sends, R sends)
    ref_nodes = np.repeat(config.nominal_distance()[kinds], 2, axis=-1)

    # a node's distance to itself gives inf here; the same-link block is zeroed below
    with np.errstate(divide="ignore"):
        inr_nodes = np.divide(ref_nodes[..., None], dist, out=dist)
    inr_nodes **= config.pathloss_exp
    inr_nodes *= tx_nodes[..., None]
    inr_nodes *= shadowing

    inr = inr_nodes.reshape(b, m, 2, m, 2).transpose(0, 1, 3, 2, 4).copy()
    idx = np.arange(m)
    inr[:, idx, idx] = 0.0
    return inr


def generate_instances(config: ScenarioConfig, drop_seeds) -> list[LinkInstance]:
    """Generate a block of random drops, one per drop seed, in order.

    First-end nodes are placed uniformly in the square and labeled L or R
    equiprobably; the opposite end sits at the kind's nominal distance in a
    uniformly random direction and may fall outside the square. Each node
    pair draws one log-normal shadow factor, shared by both directions.
    Direct SNRs are the nominal values times the link's own node-pair shadow
    factor; cross-link INRs follow :func:`_interference`.

    Every drop makes its own random draws, in order, then the arithmetic
    runs once over the block's stacked arrays, whose per-drop views the
    instances hold. Deterministic: identical (config, drop seed) yields a
    bit-identical instance whatever the block and however many fading draws
    are taken from it. A ValueError names the first failing drop's seed.
    """
    _check_type(config, ScenarioConfig, "config")
    drop_seeds = [_check_seed(drop_seed, "drop_seed") for drop_seed in drop_seeds]
    if not drop_seeds:
        return []
    b, m = len(drop_seeds), config.num_links
    first = np.empty((b, m, 2))
    first_end = np.empty((b, m), dtype=np.int64)
    kinds = np.full((b, m), ASYMMETRIC, dtype=np.int8)
    angle = np.empty((b, m))
    shadow_db = np.empty((b, 2 * m, 2 * m))
    num_sym = int(round(config.link_mix * m))
    for drop, drop_seed in enumerate(drop_seeds):
        root = np.random.SeedSequence(entropy=(config.seed, drop_seed, _INSTANCE_TAG))
        placement_ss, shadow_ss = root.spawn(2)
        rng = np.random.default_rng(placement_ss)
        first[drop] = rng.uniform(0.0, config.area_side, size=(m, 2))
        first_end[drop] = rng.integers(0, 2, size=m)
        kinds[drop, rng.permutation(m)[:num_sym]] = SYMMETRIC
        angle[drop] = rng.uniform(0.0, 2.0 * np.pi, size=m)
        np.random.default_rng(shadow_ss).standard_normal(out=shadow_db[drop])

    span = config.nominal_distance()[kinds]
    offset = span[..., None] * np.stack([np.cos(angle), np.sin(angle)], axis=-1)
    positions = np.empty((b, m, 2, 2))
    rows, links = np.ogrid[:b, :m]
    positions[rows, links, first_end] = first
    positions[rows, links, 1 - first_end] = first + offset

    # gains beyond the float range become inf or nan here and are refused below;
    # so are the infinite INRs between coincident nodes
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        dist = _node_distances(positions)
        coincident = _coincident_nodes(dist)
        # numpy's normal(0, sigma) is 0 + sigma * standard_normal: the same
        # factors once the mirroring below adds 0 to every entry. One factor
        # per unordered node pair; the diagonal is fixed at 1 and unused. The
        # dB rule is db_to_linear's, x / 10 then 10 ** x, done in place, so
        # the mirror sum is the one new (B, 2M, 2M) array
        shadow_db *= config.shadow_sigma_db
        np.copyto(shadow_db, 0.0, where=np.tri(2 * m, dtype=bool))
        shadowing = shadow_db + shadow_db.swapaxes(1, 2)
        del shadow_db
        shadowing /= 10.0
        np.power(10.0, shadowing, out=shadowing)
        own = 2 * np.arange(m)
        snr = config.nominal_snr()[kinds] * shadowing[:, own, own + 1][..., None]
        inr = _interference(dist, kinds, shadowing, config)
        del dist  # overwritten by _interference
    finite = np.logical_and.reduce(
        [np.isfinite(gains).reshape(b, -1).all(axis=1) for gains in (shadowing, snr, inr)]
    )
    failed = {*coincident, *np.flatnonzero(~finite).tolist()}
    if failed:
        drop = min(failed)
        if drop in coincident:
            raise ValueError(
                f"drop seed {drop_seeds[drop]}: {coincident[drop]}; the positions are set by "
                "area_side and d_sym/d_asym"
            )
        raise ValueError(
            f"drop seed {drop_seeds[drop]}: the SNR, INR or shadowing is not finite; its scale "
            "is set by shadow_sigma_db, pathloss_exp, d_sym/d_asym, area_side and the SNRs "
            "(snr_sym_db, snr_asym_lr_db, snr_asym_rl_db)"
        )

    positions, kinds, snr, inr, shadowing = map(_freeze, (positions, kinds, snr, inr, shadowing))
    return [
        _unchecked(
            LinkInstance,
            num_links=m,
            positions=positions[drop],
            kinds=kinds[drop],
            snr=snr[drop],
            inr=inr[drop],
            shadowing=shadowing[drop],
            seed_key=(int(config.seed), drop_seed),
        )
        for drop, drop_seed in enumerate(drop_seeds)
    ]


def generate_instance(config: ScenarioConfig, drop_seed: int) -> LinkInstance:
    """Generate one random drop: :func:`generate_instances` of a block of one."""
    return generate_instances(config, [drop_seed])[0]


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


def _fading_states(lanes: list[tuple[tuple[int, int], range]]) -> list[np.ndarray]:
    """``SeedSequence((*seed_key, 2, f)).generate_state(4, np.uint64)`` for
    every frame ``f`` of every lane ``(seed_key, frames)``: one C-contiguous
    (len(frames), 4) uint64 view per lane, of one array.

    ``frames`` are consecutive indices ``0 <= f < 2**32``, one entropy word
    each; a seed of 2**32 or more takes two words, so the frames of all
    lanes are hashed in one pass per entropy word count.
    """
    groups: dict[int, list] = {}  # entropy word count -> (rows, words) per lane
    total, bounds = 0, []
    for (seed, drop_seed), frames in lanes:
        prefix = [*_uint32_words(seed), *_uint32_words(drop_seed), _FADING_TAG]
        # one row per entropy word: the lane's prefix words repeated over
        # its frames, then the frame indices
        words = np.empty((len(prefix) + 1, len(frames)), dtype=np.uint32)
        words[:-1] = np.array(prefix, dtype=np.uint32)[:, None]
        words[-1] = np.arange(frames.start, frames.stop)
        groups.setdefault(len(words), []).append((np.arange(total, total + len(frames)), words))
        total += len(frames)
        bounds.append(total)

    states = np.empty((total, 4), dtype=np.uint64)
    for parts in groups.values():
        words = np.hstack([words for _, words in parts])
        hashed = np.stack(_seed_state(list(words)), axis=1).astype("<u4").view("<u8")
        states[np.concatenate([rows for rows, _ in parts])] = hashed
    return np.split(states, bounds[:-1])


@functools.cache
def _seed_words():
    """A numpy ISeedSequence that hands PCG64 one ``_fading_states`` row; built
    on first use, so importing spinopt leaves numpy.random unimported."""
    from numpy.random.bit_generator import ISeedSequence

    class SeedWords(ISeedSequence):
        def __init__(self, words: np.ndarray) -> None:
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32) -> np.ndarray:
            return self.words  # PCG64 asks for generate_state(4, np.uint64)

    return SeedWords


def draw_fading(
    instance: LinkInstance, frames: range, states: np.ndarray | None = None
) -> FadingDraw:
    """Instantaneous gains for a chunk of frames.

    Every ordered node pair gets an independent unit-mean exponential
    coefficient (squared magnitude of unit-power Rayleigh fading) that
    multiplies the corresponding long-term value. Both slots of a frame
    share the draw. Frame ``f`` draws its snr coefficients, then its inr
    coefficients, from ``default_rng(SeedSequence((seed, drop_seed, 2, f)))``
    with ``(seed, drop_seed) = instance.seed_key``, so a frame's gains do not
    depend on the chunk it is drawn in. ``frames`` is ``range(start, stop)``
    of consecutive indices ``0 <= f < 2**32``; one frame is ``range(f, f + 1)``.
    ``states``, when given, are the frames' ``_fading_states`` rows, hashed by
    the caller for a larger block of frames; by default they are hashed here.
    """
    _check_type(instance, LinkInstance, "instance")
    _check_type(frames, range, "frames")
    if frames.step != 1 or not 0 <= frames.start <= frames.stop <= 2**32:
        raise ValueError(
            f"frames must be range(start, stop) with 0 <= start <= stop <= 2**32, got {frames!r}"
        )
    if states is None:
        states = _fading_states([(instance.seed_key, frames)])[0]
    elif len(states) != len(frames):
        raise ValueError(f"got {len(states)} fading states for {len(frames)} frames")
    states = np.ascontiguousarray(states)  # PCG64 reads a row's memory as 4 uint64 words
    if states.dtype != np.uint64 or states.shape[1:] != (4,):
        raise ValueError(f"fading states must be (N, 4) uint64, got {states.dtype} {states.shape}")
    # the coefficients are drawn into the gain arrays and scaled there, so a
    # chunk holds its gains once
    snr = np.empty((len(frames), *instance.snr.shape))
    inr = np.empty((len(frames), *instance.inr.shape))
    seed_words = _seed_words()
    for snr_row, inr_row, words in zip(snr, inr, states):
        rng = np.random.Generator(np.random.PCG64(seed_words(words)))
        rng.standard_exponential(out=snr_row)
        rng.standard_exponential(out=inr_row)
    with np.errstate(over="ignore"):  # a gain beyond the float range becomes inf
        snr *= instance.snr
        inr *= instance.inr
    return FadingDraw(snr=snr, inr=inr)


def config_to_json(config) -> dict:
    """The fields of a config dataclass, in order, as a JSON-compatible dict.

    Numbers and strings are kept as given, an Enum is written as its value,
    a tuple as a list and a nested config as its own dict.
    """
    data = {}
    for field in fields(config):
        value = getattr(config, field.name)
        if isinstance(value, enum.Enum):
            value = value.value
        elif isinstance(value, tuple):
            value = list(value)
        elif is_dataclass(value):
            value = config_to_json(value)
        data[field.name] = value
    return data


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
    """Rebuild an instance; a missing or malformed key fails with its name.

    This checks what only the JSON has: the schema, every key and the kind
    names. ``LinkInstance`` checks every value, as it does for any caller.
    """
    schema = data.get("schema") if isinstance(data, dict) else data
    if schema != INSTANCE_SCHEMA:
        raise ValueError(f"expected schema {INSTANCE_SCHEMA!r}, got {schema!r}")
    try:
        values = {field.name: data[field.name] for field in fields(LinkInstance)}
    except KeyError as exc:
        raise ValueError(f"instance JSON missing key: {exc}") from exc
    kinds = values["kinds"]
    named = isinstance(kinds, list) and all(isinstance(k, str) and k in KIND_CODES for k in kinds)
    if not named:
        raise ValueError(
            f"instance key 'kinds' must be a list of {sorted(KIND_CODES)}, got {kinds!r}"
        )
    return LinkInstance(**{**values, "kinds": [KIND_CODES[k] for k in kinds]})

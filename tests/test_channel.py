import dataclasses
import json
import re

import numpy as np
import pytest

from helpers import fading_frame, interference_tensor, node_positions
from spinopt.channel import (
    ASYMMETRIC,
    SYMMETRIC,
    FadingDraw,
    ScenarioConfig,
    _fading_states,
    db_to_linear,
    draw_fading,
    generate_instance,
    generate_instances,
    instance_from_json,
    instance_to_json,
)


def test_db_round_trip():
    assert db_to_linear(20.0) == 100.0
    assert db_to_linear(0.0) == 1.0


@pytest.mark.parametrize(
    "kwargs",
    [
        {"num_links": 0},
        {"area_side": 0.0},
        {"link_mix": 1.5},
        {"link_mix": -0.1},
        {"d_sym": 0.0},
        {"pathloss_exp": 0.0},
        {"inr_edge_threshold": -1.0},
        {"seed": -1},
    ],
)
def test_config_rejects_invalid(kwargs):
    with pytest.raises(ValueError):
        ScenarioConfig(**kwargs)


def test_generate_is_deterministic():
    cfg = ScenarioConfig(num_links=6, link_mix=0.5, seed=123)
    a = generate_instance(cfg, drop_seed=9)
    b = generate_instance(cfg, drop_seed=9)
    for name in ("positions", "kinds", "snr", "inr", "shadowing"):
        np.testing.assert_array_equal(getattr(a, name), getattr(b, name))
    c = generate_instance(cfg, drop_seed=10)
    assert not np.array_equal(a.positions, c.positions)


def test_single_link_has_no_interference():
    cfg = ScenarioConfig(num_links=1, seed=1)
    inst = generate_instance(cfg, drop_seed=0)
    assert inst.inr.shape == (1, 1, 2, 2)
    np.testing.assert_array_equal(inst.inr, 0.0)


def test_link_geometry_and_mix():
    cfg = ScenarioConfig(num_links=40, link_mix=0.5, seed=5)
    inst = generate_instance(cfg, drop_seed=3)
    spans = np.linalg.norm(inst.positions[:, 0] - inst.positions[:, 1], axis=1)
    expected = np.where(inst.kinds == SYMMETRIC, cfg.d_sym, cfg.d_asym)
    np.testing.assert_allclose(spans, expected, rtol=1e-12)
    assert int((inst.kinds == SYMMETRIC).sum()) == 20
    # exactly one end was drawn inside the square; the other may leave it
    inside = (inst.positions >= 0).all(axis=2) & (inst.positions <= cfg.area_side).all(axis=2)
    assert inside.any(axis=1).all()


def _square_layout():
    # two symmetric 10 m links, facing node pairs exactly 10 m apart
    positions = np.array(
        [
            [[0.0, 0.0], [10.0, 0.0]],
            [[0.0, 10.0], [10.0, 10.0]],
        ]
    )
    kinds = np.zeros(2, dtype=np.int8)
    return positions, kinds


def test_interference_at_nominal_distance_equals_nominal_snr():
    # source 10 m away with unit shadowing: path loss factor is exactly 1
    positions, kinds = _square_layout()
    cfg = ScenarioConfig(num_links=2, seed=0)
    inr = interference_tensor(positions, kinds, np.ones((4, 4)), cfg)
    assert inr[0, 1, 0, 0] == pytest.approx(100.0, rel=1e-12)  # L0 -> L1, d=10
    assert inr[0, 1, 1, 1] == pytest.approx(100.0, rel=1e-12)  # R0 -> R1, d=10
    # diagonal of the square: d = 10*sqrt(2), so (d_s/d)^4 = 1/4
    assert inr[0, 1, 0, 1] == pytest.approx(25.0, rel=1e-12)
    np.testing.assert_array_equal(inr[0, 0], 0.0)


def test_interference_at_double_distance():
    positions, kinds = _square_layout()
    positions[1, :, 1] += 10.0  # move link 1 from y=10 to y=20
    cfg = ScenarioConfig(num_links=2, seed=0)
    inr = interference_tensor(positions, kinds, np.ones((4, 4)), cfg)
    assert inr[0, 1, 0, 0] == pytest.approx(100.0 * (10.0 / 20.0) ** 4, rel=1e-12)
    assert inr[0, 1, 0, 0] == pytest.approx(6.25, rel=1e-12)


def test_asymmetric_source_power_enters_interference():
    # asymmetric link: L transmits at the 20 dB nominal, R at 10 dB,
    # both referenced to the 50 m nominal span
    positions = np.array(
        [
            [[0.0, 0.0], [50.0, 0.0]],
            [[0.0, 50.0], [50.0, 50.0]],
        ]
    )
    kinds = np.array([ASYMMETRIC, ASYMMETRIC], dtype=np.int8)
    cfg = ScenarioConfig(num_links=2, seed=0)
    inr = interference_tensor(positions, kinds, np.ones((4, 4)), cfg)
    assert inr[0, 1, 0, 0] == pytest.approx(100.0, rel=1e-12)  # L source, d=50
    assert inr[0, 1, 1, 1] == pytest.approx(10.0, rel=1e-12)  # R source, d=50


def test_interference_rejects_coincident_nodes():
    positions, kinds = _square_layout()
    positions[1, 0] = positions[0, 1]  # L1 placed on R0
    cfg = ScenarioConfig(num_links=2, seed=0)
    with pytest.raises(ValueError, match="coincide"):
        interference_tensor(positions, kinds, np.ones((4, 4)), cfg)


def test_coincident_nodes_name_the_first_pair_of_other_links():
    cfg = ScenarioConfig(num_links=4, seed=0)
    inst = generate_instance(cfg, drop_seed=3)
    positions = inst.positions.copy()
    positions[3, 1] = positions[2, 0]  # R3 on L2
    positions[1, 1] = positions[3, 0]  # R1 on L3
    with pytest.raises(ValueError) as exc:
        interference_tensor(positions, inst.kinds, inst.shadowing, cfg)
    assert str(exc.value) == (
        "nodes coincide: end 1 of link 1 and end 0 of link 3 share a position, "
        "which makes the INR between them infinite"
    )


def test_negative_zero_shadowing_deviation_draws_as_zero():
    # -0.0 passes the config's >= 0 check, but numpy's normal refuses its sign
    drops = [
        generate_instance(ScenarioConfig(num_links=3, shadow_sigma_db=sigma, seed=1), 0)
        for sigma in (0.0, -0.0)
    ]
    for name in ("positions", "snr", "inr", "shadowing"):
        assert getattr(drops[0], name).tobytes() == getattr(drops[1], name).tobytes()


def test_coincident_ends_of_one_link_are_accepted():
    # at 1e20 m from the origin a 10 m span rounds away: both ends of every
    # link share a position, and no pair of different links does
    cfg = ScenarioConfig(num_links=3, area_side=1e20, seed=0)
    inst = generate_instance(cfg, drop_seed=0)
    np.testing.assert_array_equal(inst.positions[:, 0], inst.positions[:, 1])
    np.testing.assert_array_equal(inst.inr[np.arange(3), np.arange(3)], 0.0)


def test_instance_matches_formula_without_shadowing():
    cfg = ScenarioConfig(num_links=5, link_mix=0.4, shadow_sigma_db=0.0, seed=11)
    inst = generate_instance(cfg, drop_seed=2)
    np.testing.assert_array_equal(inst.shadowing, 1.0)
    nominal = cfg.nominal_snr()[inst.kinds]
    np.testing.assert_allclose(inst.snr, nominal, rtol=1e-12)

    nodes = node_positions(inst)
    nom_d = cfg.nominal_distance()[inst.kinds]
    for l in range(5):
        for k in range(5):
            if l == k:
                continue
            for x in range(2):
                for y in range(2):
                    d = np.linalg.norm(nodes[2 * l + x] - nodes[2 * k + y])
                    expected = nominal[l, x] * (nom_d[l] / d) ** cfg.pathloss_exp
                    assert inst.inr[l, k, x, y] == pytest.approx(expected, rel=1e-12)


def test_shadowing_reciprocity():
    cfg = ScenarioConfig(num_links=8, link_mix=0.5, seed=21)
    inst = generate_instance(cfg, drop_seed=4)
    np.testing.assert_array_equal(inst.shadowing, inst.shadowing.T)
    # the same pair factor multiplies both INR directions of a node pair
    nodes = node_positions(inst)
    nominal = cfg.nominal_snr()[inst.kinds]
    nom_d = cfg.nominal_distance()[inst.kinds]
    rng = np.random.default_rng(0)
    for _ in range(20):
        l, k = rng.choice(8, size=2, replace=False)
        x, y = rng.integers(0, 2, size=2)
        d = np.linalg.norm(nodes[2 * l + x] - nodes[2 * k + y])
        beta = inst.inr[l, k, x, y] / (nominal[l, x] * (nom_d[l] / d) ** cfg.pathloss_exp)
        beta_rev = inst.inr[k, l, y, x] / (
            nominal[k, y] * (nom_d[k] / d) ** cfg.pathloss_exp
        )
        assert beta == pytest.approx(beta_rev, rel=1e-9)
        assert beta == pytest.approx(inst.shadowing[2 * l + x, 2 * k + y], rel=1e-9)


def test_pathloss_monotone_in_distance():
    cfg = ScenarioConfig(num_links=6, shadow_sigma_db=0.0, seed=3)
    inst = generate_instance(cfg, drop_seed=1)
    nodes = node_positions(inst)
    # same source node, two destinations: farther one sees strictly less power
    for src_link in range(6):
        for x in range(2):
            seen = []
            for dst_link in range(6):
                if dst_link == src_link:
                    continue
                for y in range(2):
                    d = np.linalg.norm(nodes[2 * src_link + x] - nodes[2 * dst_link + y])
                    seen.append((d, inst.inr[src_link, dst_link, x, y]))
            seen.sort()
            values = [v for _, v in seen]
            assert all(a > b for a, b in zip(values, values[1:]))


def test_fading_is_deterministic_and_multiplicative():
    cfg = ScenarioConfig(num_links=4, seed=2)
    inst = generate_instance(cfg, drop_seed=0)
    a = draw_fading(inst, range(7, 8))
    b = draw_fading(inst, range(7, 8))
    np.testing.assert_array_equal(a.snr, b.snr)
    np.testing.assert_array_equal(a.inr, b.inr)
    assert a.snr.shape == (1, 4, 2) and a.inr.shape == (1, 4, 4, 2, 2)

    coef = a.snr[0] / inst.snr
    assert (coef > 0).all()
    mask = inst.inr > 0
    assert (a.inr[0][mask] / inst.inr[mask] > 0).all()
    # frames differ
    c = draw_fading(inst, range(8, 9))
    assert not np.array_equal(a.snr, c.snr)


def test_fading_draws_do_not_depend_on_draw_history():
    cfg = ScenarioConfig(num_links=3, seed=2)
    inst = generate_instance(cfg, drop_seed=0)
    first = draw_fading(inst, range(5, 6))
    for f in range(4):
        draw_fading(inst, range(f, f + 1))
    again = draw_fading(inst, range(5, 6))
    np.testing.assert_array_equal(first.snr, again.snr)
    np.testing.assert_array_equal(first.inr, again.inr)
    # nor on the chunk the frame is drawn in
    chunk = draw_fading(inst, range(3, 8))
    np.testing.assert_array_equal(chunk.snr[2], first.snr[0])
    np.testing.assert_array_equal(chunk.inr[2], first.inr[0])


@pytest.mark.parametrize("frames", [7, [7], range(-1, 1), range(2**64 - 1, 2**64 + 1)])
def test_fading_rejects_bad_frames(frames):
    inst = generate_instance(ScenarioConfig(num_links=2, seed=2), drop_seed=0)
    with pytest.raises((TypeError, ValueError)):
        draw_fading(inst, frames)


def test_fading_takes_consecutive_frames_below_2_to_the_32():
    inst = generate_instance(ScenarioConfig(num_links=2, seed=2), drop_seed=0)
    # the hash reads only a range's start and stop, one entropy word per frame
    for frames in (range(0, 6, 2), range(3, 0, -1), range(2**32 - 1, 2**32 + 1)):
        with pytest.raises(ValueError, match="frames must be range"):
            draw_fading(inst, frames)
    # the last valid frames, with seeds of two entropy words, are numpy's streams
    inst = dataclasses.replace(inst, seed_key=(2**64 - 1, 2**64 - 1))
    frames = range(2**32 - 3, 2**32)
    draw = draw_fading(inst, frames)
    assert len(draw.snr) == len(frames)
    for j, f in enumerate(frames):
        oracle = fading_frame(inst, f)
        assert draw.snr[j].tobytes() == oracle.snr.tobytes()
        assert draw.inr[j].tobytes() == oracle.inr.tobytes()


def test_fading_draw_takes_its_frames_precomputed_states():
    inst = generate_instance(ScenarioConfig(num_links=3, seed=2), drop_seed=4)
    states = _fading_states([(inst.seed_key, range(2, 9))])[0]
    alone, given = draw_fading(inst, range(5, 8)), draw_fading(inst, range(5, 8), states[3:6])
    assert alone.snr.tobytes() == given.snr.tobytes()
    assert alone.inr.tobytes() == given.inr.tobytes()
    with pytest.raises(ValueError, match="2 fading states for 3 frames"):
        draw_fading(inst, range(5, 8), states[3:5])
    # numpy's PCG64 reads each row's memory as 4 native uint64 words
    for bad in (states[3:6, :2], states[3:6].astype(float), states[3:6].astype(">u8")):
        with pytest.raises(ValueError, match=r"\(N, 4\) uint64"):
            draw_fading(inst, range(5, 8), bad)


def test_identity_fading_draw_matches_long_term():
    cfg = ScenarioConfig(num_links=3, seed=4)
    inst = generate_instance(cfg, drop_seed=0)
    identity = FadingDraw(snr=inst.snr[None].copy(), inr=inst.inr[None].copy())
    np.testing.assert_array_equal(identity.snr[0], inst.snr)
    np.testing.assert_array_equal(identity.inr[0], inst.inr)


def test_fading_coefficients_have_unit_mean():
    cfg = ScenarioConfig(num_links=50, seed=6)
    inst = generate_instance(cfg, drop_seed=0)
    coefs = []
    for start in range(0, 1000, 100):
        draw = draw_fading(inst, range(start, start + 100))
        coefs.append(draw.snr / inst.snr)
    coefs = np.concatenate([c.ravel() for c in coefs])
    assert coefs.size == 100_000
    assert 0.99 <= coefs.mean() <= 1.01


def test_instance_json_round_trip_is_exact():
    cfg = ScenarioConfig(num_links=5, link_mix=0.4, seed=31)
    inst = generate_instance(cfg, drop_seed=17)
    data = json.loads(json.dumps(instance_to_json(inst)))
    back = instance_from_json(data)
    np.testing.assert_array_equal(back.positions, inst.positions)
    np.testing.assert_array_equal(back.kinds, inst.kinds)
    np.testing.assert_array_equal(back.snr, inst.snr)
    np.testing.assert_array_equal(back.inr, inst.inr)
    np.testing.assert_array_equal(back.shadowing, inst.shadowing)
    assert back.seed_key == inst.seed_key
    # fading streams survive the round trip
    np.testing.assert_array_equal(
        draw_fading(back, range(3, 4)).inr, draw_fading(inst, range(3, 4)).inr
    )


def test_instance_json_rejects_wrong_schema():
    cfg = ScenarioConfig(num_links=2, seed=0)
    data = instance_to_json(generate_instance(cfg, 0))
    data["schema"] = "something/else"
    with pytest.raises(ValueError, match="schema"):
        instance_from_json(data)


def test_instance_json_names_a_missing_key():
    data = instance_to_json(generate_instance(ScenarioConfig(num_links=2, seed=0), 0))
    del data["shadowing"]
    with pytest.raises(ValueError, match="instance JSON missing key: 'shadowing'"):
        instance_from_json(data)


def test_generate_rejects_bad_drop_seed():
    cfg = ScenarioConfig(num_links=2, seed=0)
    with pytest.raises(ValueError):
        generate_instance(cfg, drop_seed=-3)
    # a bool is not a seed, though Python counts True as the integer 1
    with pytest.raises(ValueError, match="drop_seed"):
        generate_instance(cfg, drop_seed=True)


def test_instances_are_read_only():
    cfg = ScenarioConfig(num_links=2, seed=0)
    inst = generate_instance(cfg, 0)
    with pytest.raises(ValueError):
        inst.inr[0, 1, 0, 0] = 5.0
    edited = dataclasses.replace(inst, inr=inst.inr.copy())
    assert edited.inr.flags.writeable is False


@pytest.mark.parametrize("field", ["snr", "inr", "shadowing"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_instance_rejects_non_finite_gains(field, bad):
    inst = generate_instance(ScenarioConfig(num_links=3, seed=2), drop_seed=2)
    arrays = {name: getattr(inst, name).copy() for name in ("snr", "inr", "shadowing")}
    arrays[field].flat[1] = bad
    with pytest.raises(ValueError, match="finite"):
        dataclasses.replace(inst, **arrays)


@pytest.mark.parametrize("num_links", [2.0, np.float64(1.0), True])
def test_instance_refuses_a_num_links_that_is_not_an_integer(num_links):
    # a float num_links would be written as 2.0, which instance_from_json
    # refuses; a bool is not an integer, though Python counts True as 1
    inst = generate_instance(ScenarioConfig(num_links=int(num_links), seed=0), 0)
    with pytest.raises(ValueError, match="num_links must be an integer"):
        dataclasses.replace(inst, num_links=num_links)


def test_instance_stores_an_integer_num_links_as_a_python_int():
    inst = generate_instance(ScenarioConfig(num_links=2, seed=0), 0)
    edited = dataclasses.replace(inst, num_links=np.int64(2))
    assert type(edited.num_links) is int
    assert instance_from_json(json.loads(json.dumps(instance_to_json(edited)))).num_links == 2


@pytest.mark.parametrize("kinds", [[5, 0], [0.5, 1.0], [0, -1], [np.nan, 0.0]])
def test_instance_refuses_kinds_other_than_symmetric_or_asymmetric(kinds):
    inst = generate_instance(ScenarioConfig(num_links=2, seed=0), 0)
    with pytest.raises(ValueError, match="kinds must be SYMMETRIC"):
        dataclasses.replace(inst, kinds=np.array(kinds))


def test_instance_stores_kinds_as_int8():
    inst = generate_instance(ScenarioConfig(num_links=2, seed=0), 0)
    edited = dataclasses.replace(inst, kinds=np.array([ASYMMETRIC, SYMMETRIC], dtype=np.int64))
    assert edited.kinds.dtype == np.int8 and edited.kinds.flags.writeable is False
    assert edited.kinds.tolist() == [ASYMMETRIC, SYMMETRIC]
    assert instance_to_json(edited)["kinds"] == ["asymmetric", "symmetric"]


ARRAY_FIELDS = ("positions", "kinds", "snr", "inr", "shadowing")


@pytest.mark.parametrize("field", ARRAY_FIELDS)
def test_instance_takes_a_list_in_each_array_field(field):
    inst = generate_instance(ScenarioConfig(num_links=3, link_mix=0.5, seed=2), drop_seed=2)
    edited = dataclasses.replace(inst, **{field: getattr(inst, field).tolist()})
    for name in ARRAY_FIELDS:
        arr = getattr(edited, name)
        assert arr.dtype == getattr(inst, name).dtype and arr.flags.writeable is False
        np.testing.assert_array_equal(arr, getattr(inst, name))
    assert instance_to_json(edited) == instance_to_json(inst)


@pytest.mark.parametrize("seed_key", [(1,), (1, 2, 3), [1, 2, 3], 1, None])
def test_instance_refuses_a_seed_key_that_is_not_two_seeds(seed_key):
    # one seed made draw_fading fail to unpack it; three were written to a
    # file instance_from_json refused
    inst = generate_instance(ScenarioConfig(num_links=2, seed=0), 0)
    with pytest.raises(ValueError, match="seed_key"):
        dataclasses.replace(inst, seed_key=seed_key)


@pytest.mark.parametrize("cell", ["high", 10**400], ids=["string", "huge_int"])
def test_instance_refuses_a_cell_that_is_no_float_in_snr(cell):
    # an int beyond the float range raised numpy's OverflowError
    inst = generate_instance(ScenarioConfig(num_links=2, seed=0), 0)
    snr = inst.snr.tolist()
    snr[1][0] = cell
    with pytest.raises(ValueError, match="snr must be an array of numbers"):
        dataclasses.replace(inst, snr=snr)


def test_fading_draw_stores_lists_as_read_only_arrays():
    draw = FadingDraw(snr=[[[1.0, 2.0]]], inr=np.zeros((1, 1, 1, 2, 2)).tolist())
    assert draw.snr.shape == (1, 1, 2) and draw.inr.shape == (1, 1, 1, 2, 2)
    for arr in (draw.snr, draw.inr):
        assert arr.dtype == np.float64 and arr.flags.writeable is False
    # an array is kept, not copied: draw_fading hands over each chunk's gains
    snr, inr = np.ones((2, 1, 2)), np.zeros((2, 1, 1, 2, 2))
    draw = FadingDraw(snr=snr, inr=inr)
    assert draw.snr is snr and draw.inr is inr


def test_generation_and_fading_refuse_an_argument_of_another_type():
    # each died in an AttributeError on the argument's first field
    with pytest.raises(TypeError, match="^config must be of type ScenarioConfig, got dict$"):
        generate_instance({}, 1)
    with pytest.raises(TypeError, match="^config must be of type ScenarioConfig, got dict$"):
        generate_instances({}, [1, 2])
    with pytest.raises(TypeError, match="^instance must be of type LinkInstance, got NoneType$"):
        draw_fading(None, range(1))
    inst = generate_instance(ScenarioConfig(num_links=2, seed=0), 0)
    with pytest.raises(TypeError, match="^frames must be of type range, got list$"):
        draw_fading(inst, [0])


def test_an_empty_block_of_drop_seeds_generates_no_instances():
    # numpy's "cannot reshape array of size 0" named nothing
    assert generate_instances(ScenarioConfig(num_links=3, seed=0), []) == []


@pytest.mark.parametrize(
    "snr, inr, message",
    [
        ((3,), (3,), "snr must have shape (F, M, 2), got (3,)"),
        ((1, 3), (1, 3, 3, 2, 2), "snr must have shape (F, M, 2), got (1, 3)"),
        ((1, 3, 3), (1, 3, 3, 2, 2), "snr must have shape (F, M, 2), got (1, 3, 3)"),
        ((1, 3, 2), (1, 4, 4, 2, 2), "inr must have shape (1, 3, 3, 2, 2), got (1, 4, 4, 2, 2)"),
        ((1, 3, 2), (2, 3, 3, 2, 2), "inr must have shape (1, 3, 3, 2, 2), got (2, 3, 3, 2, 2)"),
        ((1, 3, 2), (1, 3, 3, 2), "inr must have shape (1, 3, 3, 2, 2), got (1, 3, 3, 2)"),
    ],
)
def test_fading_draw_refuses_gains_of_another_shape(snr, inr, message):
    # a 1-d snr died in two_way_rates with an IndexError, and an inr of
    # another link count in numpy's broadcast, which named no field
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        FadingDraw(snr=np.ones(snr), inr=np.ones(inr))


@pytest.mark.parametrize("field", ["positions", "snr", "inr", "shadowing"])
@pytest.mark.parametrize(
    "cell, dtype",
    [("1.5", "<U32"), (10**20, "object"), (1j, "complex128")],
    ids=["numeric_string", "int_beyond_int64", "complex"],
)
def test_instance_refuses_an_array_of_other_than_integers_or_floats(field, cell, dtype):
    # a numeric string was parsed ("1.5" became 1.5), and an int beyond int64
    # in a list of floats, which numpy holds as an object, taken as a float
    inst = generate_instance(ScenarioConfig(num_links=2, seed=0), 0)
    values = getattr(inst, field).astype(object)
    values.flat[0] = cell
    message = f"^{field} must be an array of numbers, got dtype {dtype}$"
    with pytest.raises(ValueError, match=message):
        dataclasses.replace(inst, **{field: values.tolist()})


@pytest.mark.parametrize("field", ARRAY_FIELDS)
def test_instance_refuses_a_bool_array(field):
    # a bool array was taken as 0.0 and 1.0 (as the codes 0 and 1 in kinds)
    inst = generate_instance(ScenarioConfig(num_links=2, seed=0), 0)
    flags = np.ones(getattr(inst, field).shape, dtype=bool)
    with pytest.raises(ValueError, match=f"^{field} must be an array of numbers, got dtype bool"):
        dataclasses.replace(inst, **{field: flags})


@pytest.mark.parametrize("field", ARRAY_FIELDS)
def test_instance_refuses_a_ragged_list_by_name(field):
    inst = generate_instance(ScenarioConfig(num_links=2, seed=0), 0)
    ragged = getattr(inst, field).tolist()
    ragged[0] = [ragged[0], ragged[0]]
    with pytest.raises(ValueError, match=f"^{field} must be an array of numbers: "):
        dataclasses.replace(inst, **{field: ragged})


@pytest.mark.parametrize(
    "gains, dtype",
    [
        ([[["2.5", 1.0]]], "<U32"),
        (np.ones((1, 1, 2), dtype=bool), "bool"),
        ([[[10**20, 1.0]]], "object"),
    ],
    ids=["numeric_string", "bool", "int_beyond_int64"],
)
def test_fading_draw_refuses_an_array_of_other_than_integers_or_floats(gains, dtype):
    # a string cell was stored as a <U32 array, which no rate could read
    snr, inr = np.ones((1, 1, 2)), np.zeros((1, 1, 1, 2, 2))
    with pytest.raises(ValueError, match=f"^snr must be an array of numbers, got dtype {dtype}"):
        FadingDraw(snr=gains, inr=inr)
    with pytest.raises(ValueError, match=f"^inr must be an array of numbers, got dtype {dtype}"):
        FadingDraw(snr=snr, inr=[[gains]])

from dataclasses import FrozenInstanceError

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fpcim.adc import AdcConfig, adc_x
from fpcim.cimmacro import MacroConfig, converter, macro_mac
from fpcim.dac import dac_convert_bits
from fpcim.errors import ContractError
from fpcim.fpcodec import E2M5, E3M4, decode_bits, quantize_tensor
from fpcim.mapper import (
    LayerSpec,
    MacroBank,
    Tile,
    TilePlan,
    calibrate,
    conv_output_shape,
    execute_plan,
    im2col,
    map_conv,
    map_fc,
)
from fpcim.xbar import MAX_COLS, MAX_ROWS, DeviceModel, program_weights, weight_levels


def ideal_device():
    return DeviceModel(g_min=0.0, g_max=20e-6, levels=16, sigma_rel=0.0)


def direct_conv(x, w, stride=1, padding=0):
    """Brute-force convolution oracle, plain loops."""
    c2, c1, k, _ = w.shape
    if padding:
        x = np.pad(x, ((0, 0), (padding, padding), (padding, padding)))
    h, wd = x.shape[1:]
    oh = (h - k) // stride + 1
    ow = (wd - k) // stride + 1
    out = np.zeros((c2, oh, ow))
    for co in range(c2):
        for i in range(oh):
            for j in range(ow):
                acc = 0.0
                for ci in range(c1):
                    for ki in range(k):
                        for kj in range(k):
                            acc += w[co, ci, ki, kj] * x[ci, i * stride + ki, j * stride + kj]
                out[co, i, j] = acc
    return out


# ---------------------------------------------------------------- tiling

def row_split_ids(plan):
    """Tile ids of every column block split over more than one row block."""
    return [[t.id for t in b] for b in plan.col_blocks() if len(b) > 1]


def test_map_conv_single_tile_fills_array():
    plan = map_conv(LayerSpec.conv(64, 3, 128))
    assert (plan.rows, plan.cols) == (576, 128)
    assert len(plan.tiles) == 1
    assert row_split_ids(plan) == []


def test_map_conv_row_split():
    plan = map_conv(LayerSpec.conv(128, 3, 128))
    assert plan.rows == 1152
    assert len(plan.tiles) == 2
    assert row_split_ids(plan) == [[0, 1]]


def test_map_conv_small():
    plan = map_conv(LayerSpec.conv(3, 3, 16))
    assert (plan.rows, plan.cols) == (27, 16)
    assert len(plan.tiles) == 1


def test_map_fc_mirrors_conv():
    assert len(map_fc(LayerSpec.fc(576, 128)).tiles) == 1
    plan = map_fc(LayerSpec.fc(1152, 128))
    assert len(plan.tiles) == 2 and row_split_ids(plan) == [[0, 1]]
    assert len(map_fc(LayerSpec.fc(27, 16)).tiles) == 1


def test_map_column_split():
    plan = TilePlan(100, 600)
    assert len(plan.tiles) == 3  # ceil(600/256)
    assert row_split_ids(plan) == []
    spans = sorted((t.col_start, t.col_stop) for t in plan.tiles)
    assert spans == [(0, 256), (256, 512), (512, 600)]


@settings(max_examples=60, derandomize=True)
@given(st.integers(1, 1500), st.integers(1, 700))
def test_tiles_cover_matrix_exactly_once(rows, cols):
    # the plan's tiles follow from its shape alone, and their ids are their positions
    plan = TilePlan(rows, cols)
    cover = np.zeros((rows, cols), dtype=int)
    for t in plan.tiles:
        assert t.rows <= 576 and t.cols <= 256
        cover[t.row_start : t.row_stop, t.col_start : t.col_stop] += 1
    assert np.all(cover == 1)
    assert [t.id for t in plan.tiles] == list(range(len(plan.tiles)))
    assert tuple(t for b in plan.col_blocks() for t in b) == plan.tiles
    assert all(len({(t.col_start, t.col_stop) for t in b}) == 1 for b in plan.col_blocks())
    # every row-split tile belongs to exactly one partial-sum group
    grouped = [tid for g in row_split_ids(plan) for tid in g]
    assert len(grouped) == len(set(grouped))
    n_row_blocks = int(np.ceil(rows / 576))
    if n_row_blocks > 1:
        assert len(grouped) == len(plan.tiles)


def test_plan_is_its_shape():
    # a plan's tiles cannot be given, replaced or appended to, and two plans
    # of one shape are equal: a hand-made tile list could leave the matrix
    # uncovered (an empty plan ran nothing) or cover it twice (summed twice)
    plan = TilePlan(8, 4)
    with pytest.raises(TypeError):
        TilePlan(8, 4, [Tile(0, 0, 8, 0, 4)])
    with pytest.raises(FrozenInstanceError):
        plan.tiles = (Tile(0, 0, 8, 0, 4),) * 2
    with pytest.raises(FrozenInstanceError):
        plan.rows = 9
    assert isinstance(plan.tiles, tuple) and plan.tiles == (Tile(0, 0, 8, 0, 4),)
    assert plan == TilePlan(8, 4) and hash(plan) == hash(TilePlan(8, 4))
    assert plan != TilePlan(8, 5) and plan != (8, 4)
    assert repr(plan) == "TilePlan(rows=8, cols=4)"


# ---------------------------------------------------------------- im2col

def test_im2col_1x1_identity():
    layer = LayerSpec.conv(3, 1, 5)
    x = np.arange(3 * 4 * 4, dtype=float).reshape(3, 4, 4)
    cols = im2col(x[None], layer)
    assert cols.shape == (3, 16)
    np.testing.assert_array_equal(cols, x.reshape(3, -1))


def test_im2col_3x3_no_pad():
    layer = LayerSpec.conv(1, 3, 1)
    x = np.arange(16, dtype=float).reshape(1, 4, 4)
    cols = im2col(x[None], layer)
    assert cols.shape == (9, 4)
    np.testing.assert_array_equal(cols[:, 0], x[0, :3, :3].reshape(-1))


def test_im2col_matmul_equals_direct_conv():
    rng = np.random.default_rng(12)
    for stride, padding in [(1, 0), (1, 1), (2, 0), (2, 1)]:
        layer = LayerSpec.conv(3, 3, 4, stride=stride, padding=padding)
        x = rng.standard_normal((3, 7, 7))
        w = rng.standard_normal((4, 3, 3, 3))
        w_mat = w.reshape(4, -1).T  # rows ordered (c, ki, kj)
        cols = im2col(x[None], layer)
        oh, ow = conv_output_shape(layer, 7, 7)
        got = (cols.T @ w_mat).T.reshape(4, oh, ow)
        np.testing.assert_allclose(
            got, direct_conv(x, w, stride, padding), rtol=1e-10, atol=1e-12
        )


@settings(max_examples=60, derandomize=True, deadline=None)
@given(st.integers(1, 3), st.integers(1, 3), st.integers(1, 9), st.integers(1, 9),
       st.integers(1, 5), st.integers(1, 4), st.integers(0, 4), st.integers(0, 2**32 - 1))
@example(3, 2, 7, 6, 3, 2, 1, 12)
def test_im2col_batch_stride_pad_equals_index_formula(n, c, h, w, k, s, p, seed):
    # bit for bit, -0.0 inputs included, for kernels wider than the input
    # and padding wider than the kernel
    if h + 2 * p < k or w + 2 * p < k:
        return
    layer = LayerSpec.conv(c, k, 4, stride=s, padding=p)
    x = np.random.default_rng(seed).standard_normal((n, c, h, w))
    x[x < -1.5] = -0.0
    oh, ow = conv_output_shape(layer, h, w)
    xp = np.pad(x, ((0, 0), (0, 0), (p, p), (p, p)))
    want = np.empty((c * k * k, n * oh * ow))
    for ci, ki, kj, b, i, j in np.ndindex(c, k, k, n, oh, ow):
        want[(ci * k + ki) * k + kj, (b * oh + i) * ow + j] = xp[b, ci, s * i + ki, s * j + kj]
    got = im2col(x, layer)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_im2col_channel_mismatch():
    # two channels for a 3-channel layer, and one (c, h, w) image, which is no batch
    for bad in (np.zeros((1, 2, 4, 4)), np.zeros((3, 4, 4))):
        with pytest.raises(ContractError, match=r"expected \(n, 3, h, w\) input"):
            im2col(bad, LayerSpec.conv(3, 3, 1))


def test_conv_output_shape_contract():
    with pytest.raises(ContractError):
        conv_output_shape(LayerSpec.conv(1, 9, 1), 4, 4)


# ---------------------------------------------------------------- execution

def test_single_tile_plan_equals_macro_mac():
    from fpcim.cimmacro import macro_mac
    from fpcim.xbar import program_weights

    rng = np.random.default_rng(21)
    cfg = MacroConfig(device=ideal_device())
    w = rng.uniform(-1, 1, (8, 4))
    w[5, 2] = -1.0  # the block's max-abs scale is 1.0
    plan = TilePlan(8, 4)
    bank = MacroBank.build(plan, w, cfg)
    assert bank[0].weight_scale == 1.0
    bits = rng.integers(0, 128, 8).astype(np.uint8)[:, None]

    res = execute_plan(plan, bits, bank)
    direct = macro_mac(bits, program_weights(w, cfg.device, seed=0), cfg)
    np.testing.assert_allclose(
        res.values, direct.digital_values / cfg.device.level_scale, rtol=1e-12
    )


def test_row_split_identity_readout_is_lossless():
    rng = np.random.default_rng(22)
    rows, cols = 700, 5  # two row tiles
    cfg = MacroConfig(device=ideal_device())
    w = rng.uniform(-1, 1, (rows, cols))
    plan = TilePlan(rows, cols)
    levels = weight_levels(w, cfg.device)
    # treat the signed levels as the weight matrix; with a full-scale level
    # in the block, the max-abs scale is the level range, which normalizes
    # them back to [-1, 1], and the group scale cancels
    levels[rows - 1, 3] = -(cfg.device.levels - 1)
    bank = MacroBank.build(plan, levels, cfg)
    assert bank[0].weight_scale == cfg.device.level_scale
    bits = rng.integers(0, 128, rows).astype(np.uint8)[:, None]
    res = execute_plan(plan, bits, bank, readout="identity")
    dense = decode_bits(bits, E2M5).T @ levels
    np.testing.assert_array_equal(res.values, dense)


@settings(max_examples=20, derandomize=True, deadline=None)
@given(st.integers(577, 1300), st.integers(257, 600), st.integers(0, 2**32 - 1))
def test_row_and_column_split_identity_readout_is_lossless(rows, cols, seed):
    # every decoded code times an integer level is a multiple of 2^-5 well
    # inside float64's exact range, so any summation order gives the dense product
    rng = np.random.default_rng(seed)
    cfg = MacroConfig(device=ideal_device())
    levels = rng.integers(-15, 16, (rows, cols)).astype(float)
    levels[0, ::MAX_COLS] = cfg.device.levels - 1  # each block's max-abs scale is the level range
    plan = TilePlan(rows, cols)
    bank = MacroBank.build(plan, levels, cfg)
    assert all(t.weight_scale == cfg.device.level_scale for t in bank.tiles)
    bits = rng.integers(0, 128, (rows, 3)).astype(np.uint8)
    signs = rng.random((rows, 3)) < 0.5
    res = execute_plan(plan, bits, bank, signs=signs, readout="identity")
    decoded = decode_bits(bits, E2M5)
    dense = np.where(signs, -decoded, decoded).T @ levels
    np.testing.assert_array_equal(res.values, dense)


@pytest.mark.parametrize("rows", [40, MAX_ROWS + 40])
@pytest.mark.parametrize("readout", ["adc", "int8", "identity"])
def test_blocks_from_first_tile_equal_zeros_plus_add(readout, rows):
    # two column blocks of one tile or two row tiles each, summed from their
    # first tile's result, against the sum from zero; compared bit for bit,
    # so a -0.0 written where the sum from +0.0 gives +0.0 would fail
    from fpcim.adc import V_MID, AdcConfig
    from fpcim.cimmacro import macro_mac
    from fpcim.dac import dac_convert_bits

    rng = np.random.default_rng(29)
    cols, n = 300, 60
    w = rng.uniform(-1, 1, (rows, cols))
    w[:, 7] = np.abs(w[:, 7])  # a column whose products with -0.0 inputs are all -0.0
    bits = rng.integers(0, 128, (rows, n)).astype(np.uint8)
    bits[rng.random((rows, n)) < 0.3] = 0
    bits[:, :3] = 0  # vectors of signed zeros only
    signs = rng.random((rows, n)) < 0.5
    signs[:, :3] = True
    plan = TilePlan(rows, cols)
    assert [len(b) for b in plan.col_blocks()] == [len(plan.tiles) // 2] * 2
    # integration capacitor sized so the largest column current reads 0.9 of full scale
    device = ideal_device()
    volts = dac_convert_bits(bits, E2M5)
    i_max = float(np.max(volts.T @ np.abs(w))) * device.g_max
    base = AdcConfig()
    cfg = MacroConfig(E2M5, AdcConfig(c_int=i_max * base.t_int / (V_MID * 0.9 * 16)), device)
    bank = MacroBank.build(plan, w, cfg)

    res = execute_plan(plan, bits, bank, signs=signs, readout=readout)
    for block in plan.col_blocks():
        lo, hi = block[0].col_start, block[0].col_stop
        raw = np.zeros((n, hi - lo))
        under = np.ones((n, hi - lo), dtype=bool)
        sat = np.zeros((n, hi - lo), dtype=bool)
        for t in block:
            rs = slice(t.row_start, t.row_stop)
            one = macro_mac(bits[rs], bank[t.id].pair, cfg, signs=signs[rs], readout=readout)
            raw += one.digital_values
            under &= one.underflow
            sat |= one.saturated
        want = raw * (bank[block[0].id].weight_scale / device.level_scale)
        got = res.values[:, lo:hi]
        np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))
        np.testing.assert_array_equal(res.underflow[:, lo:hi], under)
        np.testing.assert_array_equal(res.saturated[:, lo:hi], sat)
    assert not res.saturated.all() and not res.underflow.all()
    assert np.any(res.values == 0.0)


def test_execute_plan_batched():
    rng = np.random.default_rng(23)
    cfg = MacroConfig(device=ideal_device())
    w = rng.uniform(-1, 1, (10, 3))
    plan = TilePlan(10, 3)
    bank = MacroBank.build(plan, w, cfg)
    batch = rng.integers(0, 128, (10, 6)).astype(np.uint8)
    res = execute_plan(plan, batch, bank, readout="identity")
    assert res.values.shape == (6, 3)
    # the batch equals its (rows, 1) column slices
    for k in range(6):
        one = execute_plan(plan, batch[:, k : k + 1], bank, readout="identity")
        np.testing.assert_array_equal(res.values[k : k + 1], one.values)


@pytest.mark.parametrize("readout", ["adc", "int8", "identity"])
@pytest.mark.parametrize("signed", [False, True], ids=["unsigned", "signed"])
def test_execute_plan_empty_batch(readout, signed):
    # a (rows, 0) batch gives (0, cols) results, as macro_mac does per tile
    cfg = MacroConfig(device=ideal_device())
    rows, cols = MAX_ROWS + 4, 300  # row and column split
    plan = TilePlan(rows, cols)
    bank = MacroBank.build(plan, np.ones((rows, cols)), cfg)
    bits = np.zeros((rows, 0), dtype=np.uint8)
    signs = np.zeros((rows, 0), dtype=bool) if signed else None
    res = execute_plan(plan, bits, bank, signs=signs, readout=readout)
    for a, dtype in zip(res, (float, bool, bool)):
        assert a.shape == (0, cols) and a.dtype == dtype
    one = macro_mac(bits[:MAX_ROWS], bank[0].pair, cfg, signs=None if signs is None
                    else signs[:MAX_ROWS], readout=readout)
    assert one.digital_values.shape == (0, 256)


def test_bank_holds_one_programmed_tile_per_plan_tile():
    # a bank missing a tile cannot be built, so no plan runs on unset outputs
    cfg = MacroConfig(device=ideal_device())
    plan = TilePlan(MAX_ROWS + 4, 2)
    bank = MacroBank.build(plan, np.ones((MAX_ROWS + 4, 2)), cfg)
    assert len(bank.tiles) == len(plan.tiles) == 2
    for tiles in ((), bank.tiles[:1], bank.tiles * 2):
        with pytest.raises(ContractError, match="plan has 2 tiles"):
            MacroBank(plan, cfg, tiles)
    with pytest.raises(TypeError):
        MacroBank(plan, cfg)
    assert MacroBank(plan, cfg, bank.tiles).tiles is bank.tiles


def test_programmed_tiles_are_frozen():
    # a calibrated bank shares its source's tiles, so a write to one would
    # change the other's outputs
    plan = TilePlan(4, 2)
    bank = MacroBank.build(plan, np.ones((4, 2)), MacroConfig(device=ideal_device()))
    bits = np.full((4, 3), 0b0100000, dtype=np.uint8)
    cal = calibrate(plan, bank, bits)
    before = execute_plan(plan, bits, cal)
    with pytest.raises(FrozenInstanceError):
        bank[0].weight_scale = 2.0
    with pytest.raises(FrozenInstanceError):
        bank.tiles = ()
    with pytest.raises(FrozenInstanceError):
        cal.config = bank.config
    after = execute_plan(plan, bits, cal)
    assert after.values.tobytes() == before.values.tobytes()


def test_bank_built_for_another_plan_rejected():
    cfg = MacroConfig(device=ideal_device())
    bank = MacroBank.build(TilePlan(4, 1), np.ones((4, 1)), cfg)
    bits = np.ones((4, 3), dtype=np.uint8)
    # one tile of the same id but 5 columns: column 0 used to fill all five
    with pytest.raises(ContractError, match="another plan"):
        execute_plan(TilePlan(4, 5), bits, bank)
    # an equal plan that is another object is accepted
    res = execute_plan(TilePlan(4, 1), bits, bank, readout="identity")
    assert res.values.shape == (3, 1)


def test_weight_scale_normalizes_block():
    cfg = MacroConfig(device=ideal_device())
    plan = TilePlan(4, 2)
    w = np.array([[2.0, -4.0]] * 4)
    bank = MacroBank.build(plan, w, cfg)  # per-column-block max-abs
    assert bank[0].weight_scale == 4.0


@pytest.mark.parametrize("case", ["negative_peak", "all_negative_zero", "row_split"])
def test_block_scale_is_max_abs_without_a_copy(case):
    cfg = MacroConfig(device=ideal_device())
    rng = np.random.default_rng(8)
    rows = 2 * MAX_ROWS + 9 if case == "row_split" else 6
    w = rng.uniform(-0.5, 0.5, (rows, 300))
    if case == "negative_peak":
        w[3, 1] = -0.9  # the largest magnitude in block 0 is negative
        w[4, 280] = -0.7
    elif case == "all_negative_zero":
        w[:, :256] = -0.0  # block 0 reads the all-zero scale
    else:
        w[-1, 290] = -0.8  # the peak of block 1 is in its last row tile
    plan = TilePlan(*w.shape)
    bank = MacroBank.build(plan, w, cfg)
    for block in plan.col_blocks():
        lo, hi = block[0].col_start, block[0].col_stop
        want = float(np.max(np.abs(w[:, lo:hi]), initial=0.0)) or 1.0
        for t in block:
            assert bank[t.id].weight_scale == want
    if case == "all_negative_zero":
        assert bank[0].weight_scale == 1.0
    elif case == "negative_peak":
        assert (bank[0].weight_scale, bank[1].weight_scale) == (0.9, 0.7)
    else:
        assert len(plan.col_blocks()[1]) == 3 and bank[5].weight_scale == 0.8


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_build_rejects_non_finite_weights(bad):
    cfg = MacroConfig(device=ideal_device())
    w = np.full((MAX_ROWS + 4, 3), -0.25)
    w[MAX_ROWS + 1, 2] = bad
    with pytest.raises(ContractError):
        MacroBank.build(TilePlan(*w.shape), w, cfg)


@pytest.mark.parametrize("config", [None, "E2M5", AdcConfig(), DeviceModel()], ids=repr)
def test_build_rejects_a_non_config(config):
    with pytest.raises(ContractError, match="config must be a MacroConfig"):
        MacroBank.build(TilePlan(4, 2), np.ones((4, 2)), config)


@pytest.mark.parametrize("sigma", [0.0, 0.1])
@pytest.mark.parametrize("seed", [-1, 1.5, None, np.float64(2.0), True], ids=repr)
def test_build_seed_must_be_a_non_negative_integer(seed, sigma):
    cfg = MacroConfig(device=DeviceModel(sigma_rel=sigma))
    plan = TilePlan(MAX_ROWS + 4, 2)
    w = np.ones((MAX_ROWS + 4, 2))
    with pytest.raises(ContractError, match="seed"):
        MacroBank.build(plan, w, cfg, seed=seed)
    a = MacroBank.build(plan, w, cfg, seed=np.int64(3))
    b = MacroBank.build(plan, w, cfg, seed=3)
    for t in plan.tiles:
        np.testing.assert_array_equal(a[t.id].pair.g_pos, b[t.id].pair.g_pos)


def test_build_seeds_tiles_with_python_ints():
    # the largest int64 seed: tile 1's seed is 2**63, not an overflow to -2**63
    device = DeviceModel(sigma_rel=0.05)
    w = np.random.default_rng(4).uniform(-1, 1, (1200, 4))
    bank = MacroBank.build(TilePlan(1200, 4), w, MacroConfig(device=device),
                           seed=np.int64(2**63 - 1))
    want = program_weights(w[MAX_ROWS : 2 * MAX_ROWS] / bank[1].weight_scale, device, seed=2**63)
    np.testing.assert_array_equal(bank[1].pair.g_pos, want.g_pos)
    np.testing.assert_array_equal(bank[1].pair.g_neg, want.g_neg)


@pytest.mark.parametrize("make", [
    lambda: LayerSpec.fc(10.5, 3),
    lambda: LayerSpec.fc(10, 3.0),
    lambda: LayerSpec.conv(4, 2.5, 8),
    lambda: LayerSpec.conv(4, 3, 8, stride=1.5),
    lambda: LayerSpec.conv(4, 3, 8, padding=0.5),
    lambda: LayerSpec.conv(np.float64(4), 3, 8),
    lambda: TilePlan(2.5, 3),
    lambda: TilePlan(2, np.float64(3)),
    lambda: TilePlan("2", 3),
    lambda: LayerSpec.fc(True, 3),
    lambda: LayerSpec.conv(4, 3, 8, stride=True),
    lambda: TilePlan(True, 2),
], ids=["fc_in", "fc_out", "kernel", "stride", "padding", "numpy_float", "matrix_rows",
        "matrix_cols", "matrix_str", "fc_bool", "stride_bool", "matrix_bool"])
def test_layer_dimensions_must_be_integers(make):
    with pytest.raises(ContractError, match="integer"):
        make()


PLAN = TilePlan(4, 2)
BANK = MacroBank.build(PLAN, np.ones((4, 2)), MacroConfig(device=ideal_device()))
BITS = np.full((4, 3), 0b0100000, dtype=np.uint8)

# One call per mapper entry point given an argument of the wrong type, every
# other argument valid.
WRONG_TYPE_CALLS = {
    "execute_plan bank=None": lambda: execute_plan(PLAN, BITS, None),
    "execute_plan bank=pair": lambda: execute_plan(PLAN, BITS, BANK[0].pair),
    "calibrate bank=None": lambda: calibrate(PLAN, None, BITS),
    "MacroBank.build plan=None": lambda: MacroBank.build(None, np.ones((4, 2)), BANK.config),
    "MacroBank.build plan=shape": lambda: MacroBank.build((4, 2), np.ones((4, 2)), BANK.config),
    "MacroBank plan=None": lambda: MacroBank(None, BANK.config, BANK.tiles),
    "MacroBank config=None": lambda: MacroBank(PLAN, None, BANK.tiles),
    "MacroBank tiles=list": lambda: MacroBank(PLAN, BANK.config, list(BANK.tiles)),
    "MacroBank tiles=pairs": lambda: MacroBank(PLAN, BANK.config, (BANK[0].pair,)),
    "map_conv None": lambda: map_conv(None),
    "map_fc str": lambda: map_fc("fc"),
    "im2col layer=None": lambda: im2col(np.zeros((1, 1, 4, 4)), None),
    "conv_output_shape None": lambda: conv_output_shape(None, 4, 4),
}


@pytest.mark.parametrize("name", sorted(WRONG_TYPE_CALLS))
def test_wrong_argument_type_rejected(name):
    # a wrong type fails at the boundary, not as an AttributeError inside
    with pytest.raises(ContractError, match=r"must be a|requires an? \w+ layer, got"):
        WRONG_TYPE_CALLS[name]()


def test_layer_spec_validation():
    with pytest.raises(ContractError):
        LayerSpec.conv(0, 3, 4)
    with pytest.raises(ContractError):
        LayerSpec.fc(0, 4)
    with pytest.raises(ContractError):
        LayerSpec("pool")
    with pytest.raises(ContractError):
        map_conv(LayerSpec.fc(4, 4))
    # an fc spec's conv fields are 0: they read a 3x3 input as a 4x4 output
    with pytest.raises(ContractError, match="conv_output_shape requires a conv layer"):
        conv_output_shape(LayerSpec.fc(4, 2), 3, 3)
    with pytest.raises(ContractError, match="im2col requires a conv layer"):
        im2col(np.zeros((1, 0, 4, 4)), LayerSpec.fc(4, 2))
    # a field of the other kind must stay at its default
    with pytest.raises(ContractError, match="fc layer has no kernel"):
        LayerSpec("fc", in_features=4, out_features=2, kernel=3)
    with pytest.raises(ContractError, match="conv layer has no in_features"):
        LayerSpec("conv", in_channels=1, kernel=3, out_channels=2, in_features=7)
    spec = LayerSpec.conv(np.int64(4), np.int32(3), np.int64(8), stride=np.int64(1))
    assert spec.matrix_shape == (36, 8)
    assert TilePlan(np.int64(600), np.int16(3)).tiles[1].row_start == MAX_ROWS


def test_execute_plan_accepts_array_like_signs():
    cfg = MacroConfig(device=ideal_device())
    plan = TilePlan(4, 2)
    bank = MacroBank.build(plan, np.ones((4, 2)), cfg)
    bits = np.full((4, 1), 0b0100000, dtype=np.uint8)  # 2.0 each
    signs = [[False], [True], [False], [True]]
    res = execute_plan(plan, bits, bank, signs=signs, readout="identity")
    np.testing.assert_array_equal(res.values, [[0.0, 0.0]])
    ref = execute_plan(plan, bits, bank, signs=np.array(signs), readout="identity")
    np.testing.assert_array_equal(res.values, ref.values)


def test_signs_shape_must_match_codes():
    cfg = MacroConfig(device=ideal_device())
    plan = TilePlan(4, 2)
    bank = MacroBank.build(plan, np.ones((4, 2)), cfg)
    bits = np.zeros((4, 3), dtype=np.uint8)
    signs = np.zeros(4, dtype=bool)  # one sign per row, not per code
    with pytest.raises(ContractError, match=r"signs \(4,\) do not match input codes \(4, 3\)"):
        execute_plan(plan, bits, bank, signs=signs)
    with pytest.raises(ContractError, match=r"signs \(4,\) do not match input codes \(4, 3\)"):
        macro_mac(bits, bank[0].pair, bank.config, signs=signs)
    # neither a scalar, one (4,) vector nor a (4, 2, 2) array is a (rows, n) batch
    for bad in (np.uint8(3), np.zeros(4, dtype=np.uint8), np.zeros((4, 2, 2), dtype=np.uint8)):
        with pytest.raises(ContractError, match=r"must be a \(rows, n\) batch"):
            execute_plan(plan, bad, bank)


def gaussian_batch(rng, fmt, n, signed):
    """Max-abs-quantized Gaussian inputs for a full tile: (codes, signs or None)."""
    q = quantize_tensor(rng.standard_normal((MAX_ROWS, n)), fmt)
    return q.codes, q.signs if signed else None


# About 2.5 dB under the SQNR these cases measure: 21.5-22.1 dB for the E2M5
# FP-ADC, 15.9-16.1 dB for E3M4 and 28.7-33.6 dB for the INT8 baseline.
SQNR_FLOOR_DB = {"E2M5": 19.0, "E3M4": 13.5, "INT8": 26.0}


@pytest.mark.parametrize("fmt", [E2M5, E3M4], ids=lambda f: f.name)
@pytest.mark.parametrize("readout", ["adc", "int8"])
@pytest.mark.parametrize("signed", [False, True], ids=["unsigned", "signed"])
@pytest.mark.parametrize("sigma", [0.0, 0.05])
def test_calibrated_full_tile_computes_on_held_out_batches(fmt, readout, signed, sigma):
    rng = np.random.default_rng(21)
    plan = TilePlan(MAX_ROWS, MAX_COLS)
    w = rng.uniform(-1, 1, (MAX_ROWS, MAX_COLS))
    bank = MacroBank.build(plan, w, MacroConfig(fmt, device=DeviceModel(sigma_rel=sigma)), seed=3)
    bits, signs = gaussian_batch(rng, fmt, 64, signed)
    assert execute_plan(plan, bits, bank, signs, readout).saturated.all()  # the default c_int
    cal = calibrate(plan, bank, bits, signs, readout)

    # held-out batches of the calibration batch's size: the quantizer
    # rescales every batch by its own max-abs, so a smaller batch reads hotter
    saturated, err, ref = 0, 0.0, 0.0
    for _ in range(4):
        bits, signs = gaussian_batch(rng, fmt, 64, signed)
        res = execute_plan(plan, bits, cal, signs, readout)
        ideal = execute_plan(plan, bits, cal, signs, "identity").values
        saturated += np.count_nonzero(res.saturated)
        err += np.sum((res.values - ideal) ** 2)
        ref += np.sum(ideal**2)
    assert saturated < 0.01 * 4 * 64 * MAX_COLS
    assert 10 * np.log10(ref / err) > SQNR_FLOOR_DB[converter(readout, fmt).label]


@pytest.mark.parametrize("readout", ["adc", "int8"])
def test_calibrate_fits_the_largest_column_x_over_every_tile(readout):
    # 3 row tiles x 2 column tiles, signed inputs: c_int is scaled by
    # x_max / full_scale, x_max taken over both columns of every tile
    rng = np.random.default_rng(5)
    rows, cols = 2 * MAX_ROWS + 40, MAX_COLS + 30
    plan = TilePlan(rows, cols)
    cfg = MacroConfig(E3M4)
    bank = MacroBank.build(plan, rng.uniform(-1, 1, (rows, cols)), cfg)
    q = quantize_tensor(rng.standard_normal((rows, 16)), E3M4)
    cal = calibrate(plan, bank, q.codes, q.signs, readout)

    assert all(cal[t.id] is bank[t.id] for t in plan.tiles)
    assert cal.config == MacroConfig(E3M4, AdcConfig(c_int=cal.config.adc.c_int), cfg.device)
    x_max = 0.0
    for t in plan.tiles:
        rs = slice(t.row_start, t.row_stop)
        v = dac_convert_bits(q.codes[rs], E3M4)
        v_fwd, v_rev = np.where(q.signs[rs], 0.0, v), np.where(q.signs[rs], v, 0.0)
        g = bank[t.id].pair
        for i in (v_fwd.T @ g.g_pos + v_rev.T @ g.g_neg, v_fwd.T @ g.g_neg + v_rev.T @ g.g_pos):
            x_max = max(x_max, float(np.max(adc_x(i, cfg.adc))))
    full = converter(readout, E3M4).full_scale
    assert cal.config.adc.c_int == pytest.approx(cfg.adc.c_int * x_max / full, rel=1e-14)
    res = execute_plan(plan, q.codes, cal, q.signs, readout)
    assert not res.saturated.any()


def test_calibrate_contracts():
    plan = TilePlan(4, 2)
    bank = MacroBank.build(plan, np.ones((4, 2)), MacroConfig(device=ideal_device()))
    bits = np.full((4, 3), 0b0100000, dtype=np.uint8)
    for readout in ("identity", "bogus"):
        with pytest.raises(ContractError, match="unknown readout"):
            calibrate(plan, bank, bits, readout=readout)
    with pytest.raises(ContractError, match="drive no current"):
        calibrate(plan, bank, np.zeros((4, 3), dtype=np.uint8))
    with pytest.raises(ContractError, match="drive no current"):
        calibrate(plan, bank, np.zeros((4, 0), dtype=np.uint8))
    with pytest.raises(ContractError, match="another plan"):
        calibrate(TilePlan(4, 3), bank, bits)
    with pytest.raises(ContractError, match="expects 4 input rows"):
        calibrate(plan, bank, bits[:3])


@pytest.mark.parametrize("sigma", [0.0, 0.05])
def test_build_programs_each_tile_as_program_weights_does(sigma):
    # the reused division buffer and the bank's one buffer change no bit
    # and leave the caller's weights alone; every tile's planes, levels or
    # conductances, are views of that one buffer of the device's dtype;
    # a wide matrix with ragged row and column tails
    rng = np.random.default_rng(9)
    w = rng.uniform(-2, 2, (MAX_ROWS + 37, MAX_COLS + 20))
    kept = w.copy()
    cfg = MacroConfig(device=DeviceModel(sigma_rel=sigma))
    plan = TilePlan(*w.shape)
    bank = MacroBank.build(plan, w, cfg, seed=4)
    np.testing.assert_array_equal(w, kept)
    buffer = (bank[0].pair.g_pos if sigma else bank[0].pair.levels).base
    assert buffer.dtype == cfg.device.tile_dtype and buffer.shape == (2 * w.size,)
    for t in plan.tiles:
        scale = bank[t.id].weight_scale
        assert scale == np.max(np.abs(w[:, t.col_start : t.col_stop]))
        want = program_weights(w[t.row_start : t.row_stop, t.col_start : t.col_stop] / scale,
                               cfg.device, seed=4 + t.id)
        got = bank[t.id].pair
        assert got.shape == (t.rows, t.cols)
        for plane in (got.g_pos, got.g_neg) if sigma else got.levels:
            assert plane.base is buffer
        if sigma:
            np.testing.assert_array_equal(got.g_pos, want.g_pos)
            np.testing.assert_array_equal(got.g_neg, want.g_neg)
        else:
            assert got.levels.flags.c_contiguous
            np.testing.assert_array_equal(got.levels, want.levels)
